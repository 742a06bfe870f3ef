#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace nvmdb {

/// Opt-in Chrome trace-event JSON exporter ("chrome://tracing" / Perfetto
/// JSON format). Timestamps are *simulated* nanoseconds (the device stall
/// clock), so a trace shows the modeled timeline — where the NVM time
/// went — not host scheduling noise, and tracing never perturbs the
/// model: the writer only reads the clock, charges nothing, and prints
/// nothing to stdout.
///
/// Enabled by setting NVMDB_TRACE_DIR to a directory; each database then
/// writes trace_<pid>_<seq>.json on destruction. Emitters: the
/// coordinator (one span per transaction, tid = partition), the WAL
/// (group-commit force instants), the checkpointer (checkpoint-write
/// spans), and the crash harness (crash / crash-capture instants,
/// recovery spans).
class TraceWriter {
 public:
  /// `pid` distinguishes databases within one process in the trace UI
  /// (TraceWriter::FromEnv assigns it from a process-wide counter).
  explicit TraceWriter(std::string path, uint32_t pid = 0);
  ~TraceWriter();  // flushes

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  /// Returns a writer if NVMDB_TRACE_DIR is set and non-empty, else null.
  static std::unique_ptr<TraceWriter> FromEnv();

  /// Complete event ("ph":"X"): [start_ns, start_ns + dur_ns) on the
  /// simulated clock.
  void Span(const char* name, const char* category, uint64_t start_ns,
            uint64_t dur_ns, uint32_t tid);

  /// Instant event ("ph":"i", thread scope).
  void Instant(const char* name, const char* category, uint64_t ts_ns,
               uint32_t tid);

  /// Write the JSON file now (idempotent; also run by the destructor).
  void Flush();

  const std::string& path() const { return path_; }

 private:
  struct Event {
    const char* name;  // string literals only — never freed
    const char* category;
    char phase;
    uint32_t tid;
    uint64_t ts_ns;
    uint64_t dur_ns;
  };

  /// Bound on buffered events so a huge run cannot exhaust memory; events
  /// past the cap are counted and reported on flush.
  static constexpr size_t kMaxEvents = size_t{1} << 20;

  void Append(const Event& e);

  std::string path_;
  uint32_t pid_;
  std::vector<Event> events_;
  uint64_t dropped_ = 0;
  bool flushed_ = false;
};

}  // namespace nvmdb

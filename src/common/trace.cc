#include "common/trace.h"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace nvmdb {

namespace {
/// Distinguishes the databases of one process; also the "pid" field of
/// the trace so Perfetto groups each database's events separately.
std::atomic<uint32_t> g_trace_seq{0};
}  // namespace

TraceWriter::TraceWriter(std::string path, uint32_t pid)
    : path_(std::move(path)), pid_(pid) {}

TraceWriter::~TraceWriter() { Flush(); }

std::unique_ptr<TraceWriter> TraceWriter::FromEnv() {
  const char* dir = std::getenv("NVMDB_TRACE_DIR");
  if (dir == nullptr || *dir == '\0') return nullptr;
  const uint32_t seq = g_trace_seq.fetch_add(1, std::memory_order_relaxed);
  char name[64];
  std::snprintf(name, sizeof(name), "/trace_%d_%u.json",
                static_cast<int>(getpid()), seq);
  return std::make_unique<TraceWriter>(std::string(dir) + name, seq);
}

void TraceWriter::Append(const Event& e) {
  if (events_.size() >= kMaxEvents) {
    dropped_++;
    return;
  }
  events_.push_back(e);
}

void TraceWriter::Span(const char* name, const char* category,
                       uint64_t start_ns, uint64_t dur_ns, uint32_t tid) {
  Append({name, category, 'X', tid, start_ns, dur_ns});
}

void TraceWriter::Instant(const char* name, const char* category,
                          uint64_t ts_ns, uint32_t tid) {
  Append({name, category, 'i', tid, ts_ns, 0});
}

void TraceWriter::Flush() {
  if (flushed_) return;
  flushed_ = true;
  std::FILE* f = std::fopen(path_.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "trace: cannot write %s\n", path_.c_str());
    return;
  }
  // Trace-event format: "ts"/"dur" are microseconds; %.3f keeps full
  // nanosecond precision.
  std::fputs("{\"traceEvents\":[\n", f);
  for (size_t i = 0; i < events_.size(); i++) {
    const Event& e = events_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\","
                 "\"ts\":%.3f,",
                 e.name, e.category, e.phase,
                 static_cast<double>(e.ts_ns) / 1000.0);
    if (e.phase == 'X') {
      std::fprintf(f, "\"dur\":%.3f,",
                   static_cast<double>(e.dur_ns) / 1000.0);
    } else if (e.phase == 'i') {
      std::fputs("\"s\":\"t\",", f);
    }
    std::fprintf(f, "\"pid\":%u,\"tid\":%u}%s\n", pid_, e.tid,
                 i + 1 < events_.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  std::fclose(f);
  if (dropped_ > 0) {
    std::fprintf(stderr, "trace: %s dropped %llu events past the cap\n",
                 path_.c_str(), static_cast<unsigned long long>(dropped_));
  }
}

}  // namespace nvmdb

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/storage_engine.h"

namespace nvmdb {

/// Systematic crash-point exploration (the harness ISSUE 2 builds): replay
/// a fixed seeded workload against one engine, crash at every Kth
/// durability event (plus an optional randomized sweep with torn final
/// persists), re-open the engine from the durable-only image, and check
/// the recovered state against a shadow model of durably-acknowledged
/// transactions plus structural invariants.
///
/// The consistency contract checked per crash point:
///  * the recovered database equals the state after some prefix P of the
///    committed-transaction sequence, where P covers at least every
///    transaction whose durability had been acknowledged
///    (`LastDurableTxn`) before the crash event, and at most every
///    transaction committed before it (plus the one mid-commit, which a
///    crash inside `Commit` may legitimately land);
///  * no aborted transaction's writes are visible (any such write makes
///    the state match no committed prefix);
///  * the allocator heap walk terminates with well-formed slot headers
///    (`PmemAllocator::AuditHeap`);
///  * `ScanRange` yields strictly ascending keys that agree with `Select`;
///  * the engine accepts and persists new transactions after recovery.
struct CrashExplorerConfig {
  EngineKind engine = EngineKind::kInP;
  /// Workload shape: `txns` transactions of 1-3 insert/update/delete ops
  /// over `keys` distinct keys; `abort_percent` of them abort.
  int txns = 200;
  int keys = 48;
  uint32_t abort_percent = 10;
  uint64_t seed = 1;

  /// Database shape (one partition).
  size_t nvm_capacity = 16ull * 1024 * 1024;
  size_t group_commit_size = 4;
  size_t memtable_threshold_bytes = 32 * 1024;
  uint64_t checkpoint_interval_txns = 64;

  /// Crash at events stride, 2*stride, ... (1 = every durability event).
  uint64_t event_stride = 1;
  /// Hard cap on systematic crash points (0 = no cap).
  uint64_t max_crash_points = 0;
  /// Additional uniformly random crash points, torn according to
  /// `tear_random_points`.
  uint64_t random_crash_points = 0;
  /// Tear the final in-flight persist at the systematic points / the
  /// random points.
  bool tear_final_persist = false;
  bool tear_random_points = true;
};

struct CrashExplorerReport {
  uint64_t total_events = 0;      // durability events in one workload run
  uint64_t crash_points_run = 0;  // recoveries actually exercised
  uint64_t violations = 0;
  /// One line per violation (capped), e.g.
  /// "event 812 (torn): committed-then-lost txn 57".
  std::vector<std::string> messages;
};

/// Run the exploration. Deterministic for a given config.
CrashExplorerReport RunCrashExplorer(const CrashExplorerConfig& config);

}  // namespace nvmdb

#include "testbed/crash_explorer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <utility>

#include "common/random.h"
#include "nvm/crash_sim.h"
#include "testbed/database.h"

namespace nvmdb {

namespace {

constexpr uint32_t kTableId = 1;
constexpr uint64_t kTombstone = ~0ull;

TableDef ExplorerTable() {
  TableDef def;
  def.table_id = kTableId;
  def.name = "crashx";
  def.schema = Schema({{"id", ColumnType::kUInt64, 8},
                       {"name", ColumnType::kVarchar, 32},
                       {"payload", ColumnType::kVarchar, 100},
                       {"count", ColumnType::kUInt64, 8}});
  return def;
}

Tuple ExplorerTuple(const Schema* schema, uint64_t id, uint64_t count) {
  Tuple t(schema);
  t.SetU64(0, id);
  t.SetString(1, "k" + std::to_string(id));
  t.SetString(2, std::string(100, static_cast<char>('a' + id % 26)));
  t.SetU64(3, count);
  return t;
}

/// One committed transaction's writes, in op order. A delete writes
/// kTombstone.
struct TxnEffect {
  uint64_t txn_id = 0;
  std::vector<std::pair<uint64_t, uint64_t>> writes;  // key -> value
};

/// Shadow-model state frozen by the CrashSim capture callback, i.e. at the
/// exact durability event the crash strikes.
struct ShadowSnapshot {
  bool valid = false;
  size_t committed_count = 0;  // txns whose Commit() had returned
  uint64_t acked_txn = 0;      // LastDurableTxn read after that Commit
  bool in_commit = false;      // crash struck inside Commit(in_flight)
  TxnEffect in_flight;
};

struct RunResult {
  uint64_t total_events = 0;          // after the workload completed
  std::vector<TxnEffect> committed;   // full workload, commit order
  ShadowSnapshot snap;
};

Database* MakeExplorerDb(const CrashExplorerConfig& cfg,
                         std::unique_ptr<Database>* holder) {
  DatabaseConfig dc;
  dc.num_partitions = 1;
  dc.nvm_capacity = cfg.nvm_capacity;
  dc.latency = NvmLatencyConfig::Dram();
  dc.engine = cfg.engine;
  dc.engine_config.group_commit_size = cfg.group_commit_size;
  dc.engine_config.memtable_threshold_bytes = cfg.memtable_threshold_bytes;
  dc.engine_config.checkpoint_interval_txns = cfg.checkpoint_interval_txns;
  *holder = std::make_unique<Database>(dc);
  return holder->get();
}

/// Replay the deterministic workload. `sim`, when non-null, must already be
/// installed on the database's device; its capture callback is pointed at
/// this run's shadow model for the duration of the call. Every run with
/// the same config executes the identical operation sequence, so event
/// numbers name the same moment across runs.
RunResult RunWorkload(Database* db, const TableDef& def,
                      const CrashExplorerConfig& cfg, CrashSim* sim) {
  RunResult run;
  StorageEngine* engine = db->partition(0);
  Random rng(cfg.seed * 7919 + 13);

  std::map<uint64_t, uint64_t> model;  // committed state, drives op choice
  uint64_t acked = 0;
  TxnEffect current;
  bool in_commit = false;

  if (sim != nullptr) {
    sim->set_on_capture([&]() {
      run.snap.valid = true;
      run.snap.committed_count = run.committed.size();
      run.snap.acked_txn = acked;
      run.snap.in_commit = in_commit;
      run.snap.in_flight = current;
    });
  }

  for (int t = 0; t < cfg.txns; t++) {
    const bool abort = rng.Percent(cfg.abort_percent);
    const int ops = 1 + static_cast<int>(rng.Uniform(3));
    const uint64_t txn = engine->Begin();
    current.txn_id = txn;
    current.writes.clear();
    std::map<uint64_t, uint64_t> local = model;  // view including this txn
    for (int i = 0; i < ops; i++) {
      const uint64_t key = rng.Uniform(cfg.keys);
      const uint64_t value = rng.Uniform(1000000);
      const int op = static_cast<int>(rng.Uniform(3));
      if (op == 0 && local.count(key) == 0) {
        if (engine->Insert(txn, kTableId,
                           ExplorerTuple(&def.schema, key, value))
                .ok()) {
          current.writes.emplace_back(key, value);
          local[key] = value;
        }
      } else if (op == 1 && local.count(key) != 0) {
        if (engine->Update(txn, kTableId, key, {{3, Value::U64(value)}})
                .ok()) {
          current.writes.emplace_back(key, value);
          local[key] = value;
        }
      } else if (op == 2 && local.count(key) != 0) {
        if (engine->Delete(txn, kTableId, key).ok()) {
          current.writes.emplace_back(key, kTombstone);
          local.erase(key);
        }
      }
    }
    if (abort) {
      engine->Abort(txn);
      continue;
    }
    in_commit = true;
    engine->Commit(txn);
    in_commit = false;
    run.committed.push_back(current);
    model = std::move(local);
    acked = engine->LastDurableTxn();
  }

  if (sim != nullptr) {
    run.total_events = sim->event_count();
    // The callback captures locals of this frame; detach it before they
    // go out of scope (recovery-time events would otherwise dangle).
    sim->set_on_capture(nullptr);
  }
  return run;
}

void ApplyEffect(std::map<uint64_t, uint64_t>* state, const TxnEffect& e) {
  for (const auto& [key, value] : e.writes) {
    if (value == kTombstone) {
      state->erase(key);
    } else {
      (*state)[key] = value;
    }
  }
}

/// Count of committed effects durably acknowledged before the crash:
/// txn ids are assigned and committed in increasing order, so the acked
/// set is the prefix with txn_id <= acked_txn.
size_t AckedCount(const std::vector<TxnEffect>& committed,
                  uint64_t acked_txn) {
  size_t n = 0;
  while (n < committed.size() && committed[n].txn_id <= acked_txn) n++;
  return n;
}

/// Check the recovered database against the shadow model; returns true on
/// success, else fills `error`.
bool VerifyRecovered(Database* db, const TableDef& def, const RunResult& run,
                     const CrashExplorerConfig& cfg, std::string* error) {
  // Structural invariant: the allocator heap walk terminates cleanly over
  // well-formed slot headers.
  const Status audit = db->allocator()->AuditHeap();
  if (!audit.ok()) {
    *error = "allocator heap audit failed: " + audit.ToString();
    return false;
  }

  StorageEngine* engine = db->partition(0);
  std::map<uint64_t, uint64_t> recovered;
  uint64_t prev_key = 0;
  bool first = true;
  bool ascending = true;
  const uint64_t read_txn = engine->Begin();
  Status s = engine->ScanRange(
      read_txn, kTableId, 0, ~0ull,
      [&](uint64_t key, const Tuple& tuple) {
        if (!first && key <= prev_key) ascending = false;
        first = false;
        prev_key = key;
        recovered[key] = tuple.GetU64(3);
        return true;
      });
  if (!s.ok()) {
    *error = "ScanRange failed after recovery: " + s.ToString();
    return false;
  }
  if (!ascending) {
    *error = "ScanRange keys not strictly ascending";
    return false;
  }
  // Point reads must agree with the scan.
  for (const auto& [key, value] : recovered) {
    Tuple out;
    s = engine->Select(read_txn, kTableId, key, &out);
    if (!s.ok()) {
      *error = "Select(" + std::to_string(key) +
               ") disagrees with scan: " + s.ToString();
      return false;
    }
    if (out.GetU64(0) != key || out.GetU64(3) != value) {
      *error = "Select(" + std::to_string(key) + ") returned torn tuple";
      return false;
    }
  }
  engine->Commit(read_txn);

  // Prefix consistency: the recovered state must equal the state after
  // some k committed transactions, k in [acked, committed (+1 mid-commit)].
  const size_t min_k = AckedCount(run.committed, run.snap.acked_txn);
  const size_t max_k =
      run.snap.committed_count + (run.snap.in_commit ? 1 : 0);
  std::map<uint64_t, uint64_t> state;
  for (size_t i = 0; i < min_k; i++) ApplyEffect(&state, run.committed[i]);
  bool matched = false;
  for (size_t k = min_k; k <= max_k; k++) {
    if (k > min_k) {
      // Prefix k extends prefix k-1 by one transaction: the (k-1)-th
      // committed effect, or — for the k = committed_count + 1 candidate —
      // the transaction that was inside Commit() when the crash struck.
      const TxnEffect& e = (k - 1 < run.committed.size())
                               ? run.committed[k - 1]
                               : run.snap.in_flight;
      ApplyEffect(&state, e);
    }
    if (state == recovered) {
      matched = true;
      break;
    }
  }
  if (!matched) {
    // Name the divergence against the widest allowed state for the error.
    std::string detail;
    for (const auto& [key, value] : state) {
      auto it = recovered.find(key);
      if (it == recovered.end()) {
        detail = "committed-then-lost key " + std::to_string(key);
        break;
      }
      if (it->second != value) {
        detail = "stale/aborted value for key " + std::to_string(key);
        break;
      }
    }
    if (detail.empty()) {
      for (const auto& [key, value] : recovered) {
        if (state.count(key) == 0) {
          detail = "phantom key " + std::to_string(key) +
                   " (aborted-then-visible or lost delete)";
          break;
        }
      }
    }
    if (detail.empty()) detail = "no committed prefix matches";
    *error = detail + " [acked prefix " + std::to_string(min_k) +
             ", committed " + std::to_string(max_k) + "]";
    return false;
  }

  // The database must remain fully usable: accept and persist new work.
  const uint64_t probe_key = static_cast<uint64_t>(cfg.keys) + 1000;
  const uint64_t txn = engine->Begin();
  s = engine->Insert(txn, kTableId, ExplorerTuple(&def.schema, probe_key, 7));
  if (s.ok()) s = engine->Commit(txn);
  if (s.ok()) {
    Tuple out;
    const uint64_t check = engine->Begin();
    s = engine->Select(check, kTableId, probe_key, &out);
    engine->Commit(check);
  }
  if (!s.ok()) {
    *error = "post-recovery probe transaction failed: " + s.ToString();
    return false;
  }
  return true;
}

/// Execute one crash point end to end. Returns true if consistent.
bool RunCrashPoint(const CrashExplorerConfig& cfg, const TableDef& def,
                   uint64_t event, bool tear, std::string* error) {
  // NVMDB_CRASH_TRACE=1 names each crash point on stderr before it runs,
  // so a hard fault (signal) in a recovery path is attributable.
  static const bool trace = std::getenv("NVMDB_CRASH_TRACE") != nullptr;
  if (trace) {
    fprintf(stderr, "[crash-explorer] event %llu%s\n",
            static_cast<unsigned long long>(event), tear ? " torn" : "");
  }
  std::unique_ptr<Database> holder;
  Database* db = MakeExplorerDb(cfg, &holder);
  if (!db->CreateTable(def).ok()) {
    *error = "CreateTable failed";
    return false;
  }
  CrashSim sim;
  db->device()->set_crash_sim(&sim);
  sim.Arm(event, tear, /*tear_seed=*/cfg.seed * 1000003 + event);
  const RunResult run = RunWorkload(db, def, cfg, &sim);
  sim.Disarm();
  if (!sim.captured() || !run.snap.valid) {
    *error = "crash point never fired (non-deterministic event stream?)";
    return false;
  }
  db->CrashAt(sim);
  db->device()->set_crash_sim(nullptr);
  const Status s = db->Recover();
  if (!s.ok()) {
    *error = "recovery failed: " + s.ToString();
    return false;
  }
  return VerifyRecovered(db, def, run, cfg, error);
}

}  // namespace

CrashExplorerReport RunCrashExplorer(const CrashExplorerConfig& config) {
  CrashExplorerReport report;
  const TableDef def = ExplorerTable();

  // Reference run: count the durability events of one full workload.
  {
    std::unique_ptr<Database> holder;
    Database* db = MakeExplorerDb(config, &holder);
    if (!db->CreateTable(def).ok()) {
      report.violations++;
      report.messages.push_back("reference run: CreateTable failed");
      return report;
    }
    CrashSim sim;  // never armed; just counts
    db->device()->set_crash_sim(&sim);
    const RunResult ref = RunWorkload(db, def, config, &sim);
    db->device()->set_crash_sim(nullptr);
    report.total_events = ref.total_events;
  }
  if (report.total_events == 0) return report;

  auto record = [&](uint64_t event, bool tear, const std::string& error) {
    report.violations++;
    if (report.messages.size() < 32) {
      report.messages.push_back("event " + std::to_string(event) +
                                (tear ? " (torn): " : ": ") + error);
    }
  };

  // Systematic sweep: every stride-th event.
  const uint64_t stride = std::max<uint64_t>(1, config.event_stride);
  uint64_t run_points = 0;
  for (uint64_t event = 1; event <= report.total_events; event += stride) {
    if (config.max_crash_points != 0 &&
        run_points >= config.max_crash_points) {
      break;
    }
    std::string error;
    if (!RunCrashPoint(config, def, event, config.tear_final_persist,
                       &error)) {
      record(event, config.tear_final_persist, error);
    }
    run_points++;
  }

  // Randomized sweep (torn by default): events the stride skipped.
  if (config.random_crash_points > 0) {
    Random rng(config.seed * 2654435761u + 17);
    std::set<uint64_t> chosen;
    for (uint64_t i = 0; i < config.random_crash_points; i++) {
      const uint64_t event = 1 + rng.Uniform(report.total_events);
      if (!chosen.insert(event).second) continue;
      std::string error;
      if (!RunCrashPoint(config, def, event, config.tear_random_points,
                         &error)) {
        record(event, config.tear_random_points, error);
      }
      run_points++;
    }
  }
  report.crash_points_run = run_points;
  return report;
}

}  // namespace nvmdb

/// Fig. 12 — Recovery latency after a hard kill, as a function of the
/// number of transactions executed since the last checkpoint / MemTable
/// flush. Latency is simulated time (what recovery charged to the device
/// clock), so stdout is identical on every run.
///
/// Expected shape (paper): InP and Log recovery latency grows linearly
/// with the transaction count (redo pass + index rebuild); NVM-InP and
/// NVM-Log are flat and sub-millisecond (undo-only); CoW and NVM-CoW have
/// no recovery process at all.
/// `--crash-at-event [event]` switches to crash-point mode: instead of a
/// clean kill at a transaction boundary, the run crashes at the given
/// durability event (a specific Persist/fsync mid-protocol — mid
/// group-commit flush, mid checkpoint, mid compaction) and measures
/// recovery from that torn moment. With no event argument (or 0), each
/// engine is crashed at the quartiles of its event stream.
#include <cstdio>
#include <cstring>

#include "nvm/crash_sim.h"
#include "bench_util.h"

using namespace nvmdb;
using namespace nvmdb::bench;

namespace {

/// Simulated recovery nanoseconds after a crash, or 0 (with the bench's
/// exit status set) if recovery failed.
uint64_t RecoverAndMeasure(Database* db) {
  uint64_t ns = 0;
  const Status s = db->Recover(&ns);
  if (!s.ok()) ReportFailure("recovery", s);
  return ns;
}

/// Run `txns` YCSB balanced transactions WITHOUT letting the engine
/// checkpoint/flush, then crash and measure recovery.
uint64_t MeasureRecovery(EngineKind engine, uint64_t txns,
                         const char* workload) {
  DatabaseConfig cfg = MakeDbConfig(engine);
  cfg.num_partitions = 1;  // recovery measured on one partition's log
  // Keep everything in the recovery window: no checkpoints, huge
  // MemTable threshold, and a group-commit of 1 so every txn is in the
  // durable log.
  cfg.engine_config.checkpoint_interval_txns = 0;
  cfg.engine_config.memtable_threshold_bytes = 1ull << 40;
  cfg.engine_config.group_commit_size = 1;
  Database db(cfg);

  if (std::string(workload) == "ycsb") {
    YcsbConfig ycfg;
    ycfg.num_tuples = Scale().ycsb_tuples / 4;
    ycfg.num_txns = txns;
    ycfg.num_partitions = 1;
    ycfg.mixture = YcsbMixture::kBalanced;
    YcsbWorkload w(ycfg);
    Status ls = w.Load(&db);
    if (!ls.ok()) {
      ReportFailure("YCSB load (recovery)", ls);
      return 0;
    }
    Coordinator(&db).Run(w.GenerateQueues());
  } else {
    TpccConfig tcfg;
    tcfg.num_warehouses = 1;
    tcfg.num_txns = txns;
    tcfg.customers_per_district = 100;
    tcfg.items = 500;
    tcfg.initial_orders_per_district = 100;
    TpccWorkload w(tcfg);
    Status ls = w.Load(&db);
    if (!ls.ok()) {
      ReportFailure("TPC-C load (recovery)", ls);
      return 0;
    }
    Coordinator(&db).Run(w.GenerateQueues());
  }

  db.Crash();
  return RecoverAndMeasure(&db);
}

/// One crash-point run: execute the YCSB workload with a CrashSim armed at
/// absolute durability event `event` (events are numbered from the start
/// of the transaction phase; loading happens before the sim is installed),
/// crash onto the captured durable image, and measure recovery. Returns
/// recovery nanoseconds, or ~0 if the event never fired. `total_events`
/// receives the run's full event count.
uint64_t MeasureRecoveryAtEvent(EngineKind engine, uint64_t txns,
                                uint64_t event, uint64_t* total_events) {
  DatabaseConfig cfg = MakeDbConfig(engine);
  cfg.num_partitions = 1;
  cfg.engine_config.checkpoint_interval_txns = 0;
  cfg.engine_config.memtable_threshold_bytes = 1ull << 40;
  cfg.engine_config.group_commit_size = 1;
  Database db(cfg);

  YcsbConfig ycfg;
  ycfg.num_tuples = Scale().ycsb_tuples / 4;
  ycfg.num_txns = txns;
  ycfg.num_partitions = 1;
  ycfg.mixture = YcsbMixture::kBalanced;
  YcsbWorkload w(ycfg);
  Status ls = w.Load(&db);
  if (!ls.ok()) {
    ReportFailure("YCSB load (crash-point)", ls);
    return ~0ull;
  }

  CrashSim sim;
  db.device()->set_crash_sim(&sim);
  if (event != 0) sim.Arm(event);
  Coordinator(&db).Run(w.GenerateQueues());
  *total_events = sim.event_count();
  sim.Disarm();
  db.device()->set_crash_sim(nullptr);

  if (event == 0) return 0;  // counting pass
  if (!sim.captured()) return ~0ull;
  db.CrashAt(sim);
  return RecoverAndMeasure(&db);
}

int CrashAtEventMain(uint64_t requested_event, uint64_t txns) {
  PrintHeader(
      "Recovery latency (simulated ms) crashing at a durability event");
  printf("%-12s%14s%14s%14s\n", "engine", "event", "of-total",
         "recovery-ms");
  for (EngineKind engine : AllEngines()) {
    uint64_t total = 0;
    // Counting pass sizes the event stream (deterministic workload).
    MeasureRecoveryAtEvent(engine, txns, 0, &total);
    std::vector<uint64_t> events;
    if (requested_event != 0) {
      events.push_back(requested_event);
    } else {
      for (int q = 1; q <= 4; q++) {
        const uint64_t e = total * q / 4;
        if (e != 0) events.push_back(e);
      }
    }
    for (uint64_t event : events) {
      if (event > total) {
        printf("%-12s%14llu%14s%14s\n", EngineKindName(engine),
               (unsigned long long)event, "-", "past-end");
        continue;
      }
      uint64_t ignored = 0;
      const uint64_t ns =
          MeasureRecoveryAtEvent(engine, txns, event, &ignored);
      printf("%-12s%14llu%13.0f%%%14.3f\n", EngineKindName(engine),
             (unsigned long long)event, 100.0 * event / total, ns / 1e6);
    }
  }
  printf(
      "\nEach row recovers from the durable image captured at that exact\n"
      "Persist/fsync event — mid group-commit, mid flush — not a clean\n"
      "transaction boundary (see DESIGN.md on the crash-sim event "
      "model).\n");
  return ExitStatus();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && strcmp(argv[1], "--crash-at-event") == 0) {
    const uint64_t event = argc > 2 ? strtoull(argv[2], nullptr, 10) : 0;
    const uint64_t txns = EnvU64("NVMDB_CRASH_BENCH_TXNS", 1000);
    return CrashAtEventMain(event, txns);
  }
  const uint64_t txn_counts[] = {EnvU64("NVMDB_RECOVERY_TXNS_1", 500),
                                 EnvU64("NVMDB_RECOVERY_TXNS_2", 2000),
                                 EnvU64("NVMDB_RECOVERY_TXNS_3", 8000)};
  // CoW engines are included to demonstrate their "no recovery" property.
  for (const char* workload : {"ycsb", "tpcc"}) {
    char title[96];
    snprintf(title, sizeof(title),
             "Fig. 12%s: recovery latency (simulated ms), %s",
             std::string(workload) == "ycsb" ? "a" : "b", workload);
    PrintHeader(title);
    printf("%-12s", "txns");
    for (EngineKind e : AllEngines()) printf("%12s", EngineKindName(e));
    printf("\n");
    for (uint64_t txns : txn_counts) {
      printf("%-12llu", (unsigned long long)txns);
      for (EngineKind engine : AllEngines()) {
        const uint64_t ns = MeasureRecovery(engine, txns, workload);
        printf("%12.3f", ns / 1e6);
      }
      printf("\n");
    }
  }
  printf(
      "\nPaper shape: InP/Log latency grows ~linearly with txn count;\n"
      "NVM-InP/NVM-Log flat (undo-only, < 1s); CoW/NVM-CoW near-zero (no\n"
      "recovery process) (Section 5.4, Fig. 12).\n");
  return ExitStatus();
}

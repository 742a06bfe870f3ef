#pragma once

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/timer.h"
#include "testbed/bench_runner.h"
#include "testbed/coordinator.h"
#include "testbed/stats.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"

namespace nvmdb {
namespace bench {

/// Scale knobs, overridable from the environment so the suite can be run
/// at paper scale (hours) or CI scale (minutes). Defaults target a
/// laptop-class machine.
struct BenchScale {
  uint64_t ycsb_tuples = EnvU64("NVMDB_YCSB_TUPLES", 10000);
  uint64_t ycsb_txns = EnvU64("NVMDB_YCSB_TXNS", 12000);
  uint64_t tpcc_txns = EnvU64("NVMDB_TPCC_TXNS", 8000);
  size_t partitions = EnvU64("NVMDB_PARTITIONS", 4);
  size_t nvm_mb = EnvU64("NVMDB_NVM_MB", 768);
};

inline const BenchScale& Scale() {
  static BenchScale scale;
  return scale;
}

/// The three latency profiles of Section 5.2.
struct LatencyProfile {
  const char* name;
  NvmLatencyConfig config;
};

inline std::vector<LatencyProfile> PaperLatencies() {
  return {{"DRAM (1x, 160ns)", NvmLatencyConfig::Dram()},
          {"Low NVM (2x, 320ns)", NvmLatencyConfig::LowNvm()},
          {"High NVM (8x, 1280ns)", NvmLatencyConfig::HighNvm()}};
}

/// The cache/NVM counters are latency-independent (the same workload does
/// the same memory accesses), so one run under the DRAM profile yields the
/// simulated time of any profile analytically:
///   t = hits * hit_cost + loads * read_latency
///     + stores * line/write_bandwidth + syncs * sync_latency
///     + profile-independent VFS/fsync charges.
inline uint64_t DeriveStallNs(const CounterDelta& counters,
                              const NvmLatencyConfig& profile,
                              size_t line_size = 64) {
  uint64_t stall = counters.hits * profile.cache_hit_ns +
                   counters.loads * profile.read_latency_ns;
  if (profile.write_bandwidth_gbps > 0) {
    stall += static_cast<uint64_t>(
        static_cast<double>(counters.stores) * line_size /
        profile.write_bandwidth_gbps);
  }
  stall += counters.sync_calls * profile.sync_latency_ns;
  stall += counters.external_ns;
  return stall;
}

inline double DeriveThroughput(uint64_t committed, uint64_t wall_ns,
                               const CounterDelta& counters,
                               const NvmLatencyConfig& profile,
                               size_t workers) {
  (void)wall_ns;  // host speed: excluded from the simulated clock
  const double stall_per_worker =
      static_cast<double>(DeriveStallNs(counters, profile)) /
      static_cast<double>(workers);
  const double secs = stall_per_worker * 1e-9;
  return secs <= 0 ? 0 : static_cast<double>(committed) / secs;
}

/// Everything one workload execution produces.
struct BenchRun {
  bool ok = false;  // false => load or run failed; results are zeroed
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t wall_ns = 0;       // measured (run) phase, host clock
  uint64_t load_wall_ns = 0;  // initial load phase, host clock
  CounterDelta counters;        // during the measured phase
  CounterDelta load_counters;   // during initial load
  LatencySummary latency;       // response latency on the simulated clock
  FootprintStats footprint;
  uint64_t recovery_ns = 0;     // only set by recovery benches
};

/// Process-wide benchmark failure flag. Workload helpers record failures
/// here (as well as on stderr) so mains can exit non-zero instead of
/// printing tables of silently zeroed cells.
inline std::atomic<bool>& FailureFlag() {
  static std::atomic<bool> failed{false};
  return failed;
}

inline void ReportFailure(const char* what, const Status& s) {
  fprintf(stderr, "%s failed: %s\n", what, s.ToString().c_str());
  FailureFlag().store(true, std::memory_order_relaxed);
}

/// Return value for bench mains: non-zero if any cell's workload failed.
inline int ExitStatus() {
  return FailureFlag().load(std::memory_order_relaxed) ? 1 : 0;
}

inline DatabaseConfig MakeDbConfig(EngineKind engine) {
  DatabaseConfig cfg;
  cfg.num_partitions = Scale().partitions;
  cfg.nvm_capacity = Scale().nvm_mb * 1024 * 1024;
  cfg.latency = NvmLatencyConfig::Dram();  // profiles derived analytically
  // The paper's testbed pairs a 20 MB L3 with a ~2 GB database (~1%).
  // Benchmarks run scaled-down databases, so the simulated cache scales
  // down with them to preserve the cache-to-data ratio that drives the
  // skew/caching effects of Figs. 9-10.
  cfg.cache.capacity_bytes = EnvU64("NVMDB_CACHE_KB", 1024) * 1024;
  // CLWB-style sync (line stays cached) is the default, as Appendix C
  // recommends; set NVMDB_CLWB=0 for strict CLFLUSH invalidation.
  cfg.latency.use_clwb = EnvU64("NVMDB_CLWB", 1) != 0;
  cfg.latency.sync_latency_ns =
      EnvU64("NVMDB_SYNC_NS", cfg.latency.sync_latency_ns);
  cfg.engine = engine;
  return cfg;
}

/// Load `workload` into a fresh database built from `cfg`, then run its
/// queues through a Coordinator. `what` names the workload in the failure
/// report of a load that does not succeed.
template <typename Workload>
BenchRun LoadAndRun(const DatabaseConfig& cfg, Workload& workload,
                    const char* what) {
  auto db = std::make_unique<Database>(cfg);
  BenchRun run;
  {
    Stopwatch load_watch;
    CounterSampler sampler(db->device());
    Status s = workload.Load(db.get());
    if (!s.ok()) {
      ReportFailure(what, s);
      return run;
    }
    run.load_counters = sampler.Delta();
    run.load_wall_ns = load_watch.ElapsedNanos();
  }

  Coordinator coordinator(db.get());
  CounterSampler sampler(db->device());
  const RunResult result = coordinator.Run(workload.GenerateQueues());
  run.counters = sampler.Delta();
  run.committed = result.committed;
  run.aborted = result.aborted;
  run.wall_ns = result.wall_ns;
  run.latency = result.latency;
  run.footprint = db->Footprint();
  run.ok = true;
  return run;
}

/// Load + run one YCSB configuration on a fresh database.
inline BenchRun RunYcsb(EngineKind engine, YcsbMixture mixture,
                        YcsbSkew skew,
                        const EngineConfig& engine_overrides = {}) {
  DatabaseConfig cfg = MakeDbConfig(engine);
  // Whole-struct assignment: an earlier version copied a hand-picked list
  // of fields, so knobs added to EngineConfig later (use_bloom_filters,
  // checkpoint_interval_txns, ...) were silently dropped here. The
  // database overrides the allocator/fs/namespace fields per partition
  // anyway (Database::InstantiateEngines), so copying everything is safe.
  cfg.engine_config = engine_overrides;

  YcsbConfig ycfg;
  ycfg.num_tuples = Scale().ycsb_tuples;
  ycfg.num_txns = Scale().ycsb_txns;
  ycfg.num_partitions = cfg.num_partitions;
  ycfg.mixture = mixture;
  ycfg.skew = skew;
  YcsbWorkload workload(ycfg);
  return LoadAndRun(cfg, workload, "YCSB load");
}

/// Load + run TPC-C on a fresh database.
inline BenchRun RunTpcc(EngineKind engine) {
  DatabaseConfig cfg = MakeDbConfig(engine);
  // TPC-C inserts grow the database and WAL without bound, so the InP
  // engine must take periodic compressed checkpoints (Section 3.1) to
  // bound recovery latency and fit the log in the device. YCSB runs leave
  // checkpointing off — at the paper's scale its cost amortizes away.
  cfg.engine_config.checkpoint_interval_txns =
      EnvU64("NVMDB_CKPT_INTERVAL", 1000);
  TpccConfig tcfg;
  tcfg.num_warehouses = cfg.num_partitions;
  tcfg.num_txns = Scale().tpcc_txns;
  TpccWorkload workload(tcfg);
  return LoadAndRun(cfg, workload, "TPC-C load");
}

inline const std::vector<EngineKind>& AllEngines() {
  static std::vector<EngineKind> engines = {
      EngineKind::kInP,    EngineKind::kCoW,    EngineKind::kLog,
      EngineKind::kNvmInP, EngineKind::kNvmCoW, EngineKind::kNvmLog};
  return engines;
}

inline const std::vector<EngineKind>& NvmEngines() {
  static std::vector<EngineKind> engines = {
      EngineKind::kNvmInP, EngineKind::kNvmCoW, EngineKind::kNvmLog};
  return engines;
}

/// Wall-clock vs simulated-clock accounting aggregated across bench runs.
/// The simulated clock is what the figures report; the wall clock measures
/// the simulator itself, so fast-path changes are judged by this summary
/// rather than asserted.
struct ClockTotals {
  uint64_t wall_ns = 0;
  uint64_t sim_ns = 0;
  uint64_t runs = 0;

  void Add(const BenchRun& run) {
    wall_ns += run.wall_ns;
    sim_ns += run.counters.stall_ns;
    runs++;
  }
};

inline void ReportClocks(const char* label, const ClockTotals& totals) {
  // Stderr: the wall-clock side depends on host speed and job count, and
  // stdout must stay byte-identical across runs (the CI grid-determinism
  // check diffs it).
  fprintf(stderr, "[clock] %s: %llu runs, %s\n", label,
          (unsigned long long)totals.runs,
          FormatClockComparison(totals.wall_ns, totals.sim_ns).c_str());
}

/// Build a BenchCell (the grid scheduler's result record — see
/// testbed/bench_runner.h) from a workload execution: grid key, commit
/// counts, the simulated time the cell advanced the model clock, and the
/// derived throughput under each paper latency profile.
inline BenchCell CellFromRun(
    std::vector<std::pair<std::string, std::string>> key,
    const BenchRun& run, size_t workers) {
  BenchCell cell;
  cell.key = std::move(key);
  cell.committed = run.committed;
  cell.aborted = run.aborted;
  cell.sim_ns = run.load_counters.stall_ns + run.counters.stall_ns;
  cell.load_ns = run.load_wall_ns;
  cell.run_ns = run.wall_ns;
  cell.latency = run.latency;
  cell.stalls = run.counters.tags;
  const char* slugs[3] = {"tps_dram", "tps_low_nvm", "tps_high_nvm"};
  const auto latencies = PaperLatencies();
  for (size_t i = 0; i < latencies.size() && i < 3; i++) {
    cell.metrics.emplace_back(
        slugs[i], DeriveThroughput(run.committed, run.wall_ns, run.counters,
                                   latencies[i].config, workers));
  }
  cell.metrics.emplace_back("loads",
                            static_cast<double>(run.counters.loads));
  cell.metrics.emplace_back("stores",
                            static_cast<double>(run.counters.stores));
  return cell;
}

/// Record the scale knobs in the runner's JSON report so a result file is
/// self-describing.
inline void AddScaleContext(BenchRunner* runner) {
  runner->AddContext("ycsb_tuples", std::to_string(Scale().ycsb_tuples));
  runner->AddContext("ycsb_txns", std::to_string(Scale().ycsb_txns));
  runner->AddContext("tpcc_txns", std::to_string(Scale().tpcc_txns));
  runner->AddContext("partitions", std::to_string(Scale().partitions));
}

inline void PrintHeader(const char* title) {
  printf("\n================================================================\n");
  printf("%s\n", title);
  printf("================================================================\n");
}

}  // namespace bench
}  // namespace nvmdb

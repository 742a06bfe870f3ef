/// Systematic crash-point exploration across the six engines: replay a
/// fixed workload, crash at every Kth durability event (Persist /
/// AtomicPersistWrite64 / fsync barrier), re-open the engine from the
/// durable-only image, and check the recovered state against the shadow
/// model of durably-acknowledged transactions (see DESIGN.md).
///
/// Usage: example_crash_explorer [engine|all] [stride] [txns] [random] [tear]
///   engine  InP|CoW|Log|NVM-InP|NVM-CoW|NVM-Log|all   (default all)
///   stride  crash at every stride-th event             (default 1)
///   txns    workload size                              (default 200)
///   random  extra random torn crash points             (default 0)
///   tear    1 = tear the final persist on the sweep    (default 0)
/// Exits non-zero if any crash point recovers inconsistently.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "testbed/crash_explorer.h"

using namespace nvmdb;

namespace {

bool ParseEngine(const char* name, std::vector<EngineKind>* out) {
  const EngineKind all[] = {EngineKind::kInP,    EngineKind::kCoW,
                            EngineKind::kLog,    EngineKind::kNvmInP,
                            EngineKind::kNvmCoW, EngineKind::kNvmLog};
  if (strcmp(name, "all") == 0) {
    out->assign(all, all + 6);
    return true;
  }
  for (EngineKind kind : all) {
    if (strcmp(name, EngineKindName(kind)) == 0) {
      out->push_back(kind);
      return true;
    }
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
#if defined(__GLIBC__)
  // Every crash point builds a fresh Database whose cache model fills 8 MB
  // of line metadata. With glibc's adaptive defaults that memory can go
  // back to the kernel between crash points and be faulted in again each
  // time (about 4 ms of system time per point); keep it in the process.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 256 << 20);
#endif
  std::vector<EngineKind> engines;
  if (!ParseEngine(argc > 1 ? argv[1] : "all", &engines)) {
    fprintf(stderr, "unknown engine '%s'\n", argv[1]);
    return 2;
  }
  CrashExplorerConfig cfg;
  cfg.event_stride = argc > 2 ? strtoull(argv[2], nullptr, 10) : 1;
  cfg.txns = argc > 3 ? atoi(argv[3]) : 200;
  cfg.random_crash_points = argc > 4 ? strtoull(argv[4], nullptr, 10) : 0;
  cfg.tear_final_persist = argc > 5 && atoi(argv[5]) != 0;

  uint64_t total_violations = 0;
  for (EngineKind kind : engines) {
    cfg.engine = kind;
    const CrashExplorerReport report = RunCrashExplorer(cfg);
    printf("%-8s events=%llu crash_points=%llu violations=%llu\n",
           EngineKindName(kind),
           static_cast<unsigned long long>(report.total_events),
           static_cast<unsigned long long>(report.crash_points_run),
           static_cast<unsigned long long>(report.violations));
    for (const std::string& msg : report.messages) {
      printf("  VIOLATION %s\n", msg.c_str());
    }
    fflush(stdout);
    total_violations += report.violations;
  }
  if (total_violations > 0) {
    fprintf(stderr, "crash exploration found %llu violations\n",
            static_cast<unsigned long long>(total_violations));
    return 1;
  }
  printf("all crash points recovered consistently\n");
  return 0;
}

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "engine/storage_engine.h"
#include "nvm/nvm_device.h"
#include "nvm/pmem_allocator.h"
#include "nvm/pmfs.h"

namespace nvmdb {

class CrashSim;
class TraceWriter;

/// Configuration of a whole DBMS testbed instance (Section 3's Fig. 2).
struct DatabaseConfig {
  size_t num_partitions = 8;
  size_t nvm_capacity = 512ull * 1024 * 1024;
  NvmLatencyConfig latency;
  CacheConfig cache;
  EngineKind engine = EngineKind::kInP;
  /// Per-engine knobs; allocator/fs/namespace fields are filled in per
  /// partition by the database.
  EngineConfig engine_config;
};

/// The DBMS testbed: an NVM device (emulator stand-in), the NVM-aware
/// allocator and PMFS on top of it, and one storage-engine instance per
/// partition. The database is partitioned so that transactions execute
/// serially within a partition (Section 3's lightweight concurrency
/// scheme); the coordinator maps partitions to worker threads.
class Database {
 public:
  explicit Database(const DatabaseConfig& config);
  ~Database();

  /// Register a table on every partition.
  Status CreateTable(const TableDef& def);

  StorageEngine* partition(size_t i) { return engines_[i].get(); }
  size_t num_partitions() const { return engines_.size(); }

  NvmDevice* device() { return device_.get(); }
  PmemAllocator* allocator() { return allocator_.get(); }
  Pmfs* fs() { return fs_.get(); }
  /// Chrome-trace exporter for this database; null unless NVMDB_TRACE_DIR
  /// is set (common/trace.h). The coordinator emits transaction spans
  /// through it; the file is written when the database is destroyed.
  TraceWriter* trace() { return trace_.get(); }
  const DatabaseConfig& config() const { return config_; }

  /// Simulate a power failure: unflushed data is lost, all volatile state
  /// (engines, allocator free lists, file handles) is torn down.
  void Crash();

  /// Power failure at the crash point `sim` captured: volatile state is
  /// torn down and the device contents are replaced with the durable-only
  /// image snapshotted at the armed event, so the subsequent `Recover()`
  /// observes exactly what a crash at that event would have left. `sim`
  /// must hold a capture.
  void CrashAt(const CrashSim& sim);

  /// Bring the database back after Crash(): allocator recovery, engine
  /// re-instantiation, table re-registration, engine recovery protocols.
  /// Returns the first engine CreateTable/Recover failure. `sim_ns`, when
  /// given, receives the simulated nanoseconds recovery charged to the
  /// device clock (Fig. 12's metric).
  Status Recover(uint64_t* sim_ns = nullptr);

  /// Whole-database storage footprint (Fig. 14): persistent components
  /// from the allocator's per-tag accounting plus the engines' volatile
  /// memory (page caches, volatile indexes).
  FootprintStats Footprint() const;

  /// Flush any group-commit batches / force engine checkpoint-like drains.
  void Drain();

 private:
  void InstantiateEngines();

  DatabaseConfig config_;
  std::unique_ptr<NvmDevice> device_;
  std::unique_ptr<TraceWriter> trace_;
  std::unique_ptr<PmemAllocator> allocator_;
  std::unique_ptr<Pmfs> fs_;
  std::vector<std::unique_ptr<StorageEngine>> engines_;
  std::vector<TableDef> table_defs_;
};

}  // namespace nvmdb

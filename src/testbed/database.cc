#include "testbed/database.h"

#include <cassert>

#include "common/trace.h"
#include "nvm/crash_sim.h"

namespace nvmdb {

Database::Database(const DatabaseConfig& config) : config_(config) {
  device_ = std::make_unique<NvmDevice>(config_.nvm_capacity,
                                        config_.latency, config_.cache);
  NvmEnv::Set(device_.get());
  trace_ = TraceWriter::FromEnv();
  NvmEnv::SetTrace(trace_.get());
  allocator_ = std::make_unique<PmemAllocator>(device_.get(),
                                               /*format=*/true);
  fs_ = std::make_unique<Pmfs>(allocator_.get());
  InstantiateEngines();
}

Database::~Database() {
  engines_.clear();
  if (NvmEnv::Get() == device_.get()) NvmEnv::Set(nullptr);
  if (NvmEnv::Trace() == trace_.get()) NvmEnv::SetTrace(nullptr);
}

void Database::InstantiateEngines() {
  engines_.clear();
  for (size_t p = 0; p < config_.num_partitions; p++) {
    EngineConfig ec = config_.engine_config;
    ec.allocator = allocator_.get();
    ec.fs = fs_.get();
    ec.namespace_prefix = "p" + std::to_string(p);
    engines_.push_back(CreateEngine(config_.engine, ec));
  }
}

Status Database::CreateTable(const TableDef& def) {
  table_defs_.push_back(def);
  for (auto& engine : engines_) {
    Status s = engine->CreateTable(def);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

void Database::Crash() {
  if (trace_ != nullptr) {
    trace_->Instant("crash", "crash", device_->TotalStallNanos(), 0);
  }
  // Power failure: volatile engine state dies with the process; unflushed
  // cache lines never reach the durable image.
  engines_.clear();
  fs_.reset();
  allocator_.reset();
  device_->Crash();
}

void Database::CrashAt(const CrashSim& sim) {
  if (trace_ != nullptr) {
    trace_->Instant("crash_at_capture", "crash", device_->TotalStallNanos(),
                    0);
  }
  assert(sim.captured());
  engines_.clear();
  fs_.reset();
  allocator_.reset();
  device_->RestoreImages(sim.image());
}

Status Database::Recover(uint64_t* sim_ns) {
  const uint64_t stall_before = device_->TotalStallNanos();
  // OS restart: the allocator scans the heap, reclaims unpersisted slots,
  // and restores its metadata; PMFS reattaches via the root catalog.
  allocator_ = std::make_unique<PmemAllocator>(device_.get(),
                                               /*format=*/false);
  fs_ = std::make_unique<Pmfs>(allocator_.get());
  // DBMS restart: engines reattach to their persistent structures and run
  // their recovery protocols.
  InstantiateEngines();
  for (const TableDef& def : table_defs_) {
    for (auto& engine : engines_) {
      Status s = engine->CreateTable(def);
      if (!s.ok()) return s;
    }
  }
  for (auto& engine : engines_) {
    Status s = engine->Recover();
    if (!s.ok()) return s;
  }
  const uint64_t stall = device_->TotalStallNanos() - stall_before;
  if (trace_ != nullptr) {
    trace_->Span("recover", "recovery", stall_before, stall, 0);
  }
  if (sim_ns != nullptr) *sim_ns = stall;
  return Status::OK();
}

FootprintStats Database::Footprint() const {
  FootprintStats stats;
  const AllocatorStats alloc = allocator_->stats();
  stats.table_bytes =
      alloc.used_by_tag[static_cast<size_t>(StorageTag::kTable)];
  stats.index_bytes =
      alloc.used_by_tag[static_cast<size_t>(StorageTag::kIndex)];
  stats.log_bytes =
      alloc.used_by_tag[static_cast<size_t>(StorageTag::kLog)];
  stats.checkpoint_bytes =
      alloc.used_by_tag[static_cast<size_t>(StorageTag::kCheckpoint)];
  stats.other_bytes =
      alloc.used_by_tag[static_cast<size_t>(StorageTag::kOther)] +
      alloc.used_by_tag[static_cast<size_t>(StorageTag::kFilesystem)];
  for (const auto& engine : engines_) {
    const FootprintStats v = engine->VolatileFootprint();
    stats.table_bytes += v.table_bytes;
    stats.index_bytes += v.index_bytes;
    stats.log_bytes += v.log_bytes;
    stats.checkpoint_bytes += v.checkpoint_bytes;
    stats.other_bytes += v.other_bytes;
  }
  return stats;
}

void Database::Drain() {
  for (auto& engine : engines_) engine->Checkpoint();
}

}  // namespace nvmdb

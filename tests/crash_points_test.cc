#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "engine/wal.h"
#include "nvm/crash_sim.h"
#include "nvm/pmem_allocator.h"
#include "nvm/pmfs.h"
#include "nvm/sync.h"
#include "testbed/crash_explorer.h"
#include "test_util.h"

namespace nvmdb {
namespace {

// --- CrashSim unit behavior ------------------------------------------------------

class CrashSimTest : public ::testing::Test {
 protected:
  CrashSimTest() : device_(1ull << 20, NvmLatencyConfig::Dram()) {
    device_.set_crash_sim(&sim_);
  }
  ~CrashSimTest() override { device_.set_crash_sim(nullptr); }

  NvmDevice device_;
  CrashSim sim_;
};

TEST_F(CrashSimTest, CountsEveryDurabilityEvent) {
  const uint64_t before = sim_.event_count();
  uint64_t v = 0xA;
  device_.Write(0, &v, 8);
  device_.Persist(uint64_t{0}, 8);                  // +1
  device_.AtomicPersistWrite64(64, 0xB);  // +1
  PmemBarrier(&device_);                  // +1
  EXPECT_EQ(sim_.event_count(), before + 3);
}

TEST_F(CrashSimTest, CaptureIsDurableImageBeforeTheEvent) {
  uint64_t a = 0x1111111111111111ull;
  device_.Write(0, &a, 8);
  device_.Persist(uint64_t{0}, 8);  // event 1: A is durable

  sim_.Arm(sim_.event_count() + 1);
  uint64_t b = 0x2222222222222222ull;
  device_.Write(0, &b, 8);   // cached, not durable
  uint64_t c = 0x3333333333333333ull;
  device_.Write(256, &c, 8);  // never persisted at all
  device_.Persist(uint64_t{0}, 8);      // event 2: capture fires first

  ASSERT_TRUE(sim_.captured());
  EXPECT_EQ(sim_.captured_event(), 2u);
  ASSERT_EQ(sim_.image().bytes.size(), device_.capacity());
  uint64_t snap0, snap256;
  memcpy(&snap0, sim_.image().bytes.data(), 8);
  memcpy(&snap256, sim_.image().bytes.data() + 256, 8);
  // The crash image predates event 2: A survives, B and C do not...
  EXPECT_EQ(snap0, a);
  EXPECT_EQ(snap256, 0u);
  // ...while the live device completed the persist as usual.
  uint64_t live;
  device_.Read(0, &live, 8);
  EXPECT_EQ(live, b);
}

TEST_F(CrashSimTest, TornCaptureIsOldOrNewPerLine) {
  uint64_t a = 0xAAAAAAAAAAAAAAAAull;
  device_.Write(0, &a, 8);
  device_.Persist(uint64_t{0}, 8);

  bool saw_old = false, saw_new = false;
  for (uint64_t seed = 1; seed <= 16 && (!saw_old || !saw_new); seed++) {
    sim_.Arm(sim_.event_count() + 1, /*tear_final_persist=*/true, seed);
    uint64_t b = 0xBBBBBBBBBBBBBBBBull;
    device_.Write(0, &b, 8);
    device_.Persist(uint64_t{0}, 8);
    ASSERT_TRUE(sim_.captured());
    uint64_t snap;
    memcpy(&snap, sim_.image().bytes.data(), 8);
    ASSERT_TRUE(snap == a || snap == b);  // whole line lands or dies
    saw_old |= snap == a;
    saw_new |= snap == b;
    // Reset durable state for the next round.
    device_.Write(0, &a, 8);
    device_.Persist(uint64_t{0}, 8);
  }
  EXPECT_TRUE(saw_old);
  EXPECT_TRUE(saw_new);
}

TEST_F(CrashSimTest, RestoreImagesRewindsTheDevice) {
  uint64_t a = 7;
  device_.Write(0, &a, 8);
  device_.Persist(uint64_t{0}, 8);
  sim_.Arm(sim_.event_count() + 1);
  uint64_t b = 9;
  device_.Write(0, &b, 8);
  device_.Persist(uint64_t{0}, 8);
  ASSERT_TRUE(sim_.captured());
  device_.RestoreImages(sim_.image());
  uint64_t val;
  device_.Read(0, &val, 8);
  EXPECT_EQ(val, a);
}

/// A torn capture can land a line on a page the durable image never held.
/// The capture must list that page, or Database::CrashAt would restore it
/// as zeros along with every other unlisted page.
TEST(CrashAtTest, TornLineOnNeverDurablePageIsRestored) {
  auto db = testutil::MakeDb(EngineKind::kNvmInP);
  const TableDef def = testutil::SimpleTable();
  ASSERT_TRUE(db->CreateTable(def).ok());
  StorageEngine* engine = db->partition(0);
  const uint64_t txn = engine->Begin();
  ASSERT_TRUE(
      engine->Insert(txn, 1, testutil::SimpleTuple(&def.schema, 7, "kept"))
          .ok());
  ASSERT_TRUE(engine->Commit(txn).ok());

  NvmDevice* device = db->device();
  CrashSim sim;
  device->set_crash_sim(&sim);
  const uint64_t value = 0x5EED5EED5EED5EEDull;
  // Each attempt persists to a fresh page at the top of the device (far
  // above the allocator's heap) until a coin flip lands the line.
  uint64_t offset = 0;
  bool landed = false;
  for (uint64_t seed = 1; seed <= 16 && !landed; seed++) {
    offset = device->capacity() - seed * NvmDevice::kPageSize;
    sim.Arm(sim.event_count() + 1, /*tear_final_persist=*/true, seed);
    device->Write(offset, &value, 8);
    device->Persist(offset, 8);
    ASSERT_TRUE(sim.captured());
    uint64_t snap = 0;
    memcpy(&snap, sim.image().bytes.data() + offset, 8);
    landed = snap == value;
  }
  device->set_crash_sim(nullptr);
  ASSERT_TRUE(landed);
  const std::vector<uint32_t>& pages = sim.image().pages;
  EXPECT_TRUE(std::binary_search(pages.begin(), pages.end(),
                                 offset / NvmDevice::kPageSize));

  db->CrashAt(sim);
  EXPECT_EQ(memcmp(device->durable_image(), sim.image().bytes.data(),
                   device->capacity()),
            0);
  EXPECT_EQ(memcmp(device->working_image(), sim.image().bytes.data(),
                   device->capacity()),
            0);
  ASSERT_TRUE(db->Recover().ok());
  engine = db->partition(0);
  const uint64_t check = engine->Begin();
  Tuple out;
  EXPECT_TRUE(engine->Select(check, 1, 7, &out).ok());
  engine->Commit(check);
}

// --- WAL durability-tracking regression (ISSUE 2 satellite) ---------------------

class WalDurabilityHarness : public ::testing::Test {
 protected:
  WalDurabilityHarness()
      : device_(32ull * 1024 * 1024, NvmLatencyConfig::Dram()),
        allocator_(&device_),
        fs_(&allocator_) {}

  NvmDevice device_;
  PmemAllocator allocator_;
  Pmfs fs_;
};

LogRecord InsertRecord(uint64_t txn) {
  LogRecord r;
  r.op = LogOp::kInsert;
  r.txn_id = txn;
  r.table_id = 1;
  r.key = txn;
  r.after = "v" + std::to_string(txn);
  return r;
}

/// The Wal::Truncate stale-commit bug, caught the way the crash harness
/// frames it: a txn id the WAL acknowledges as durable must be recoverable
/// from the durable log after a crash. Before the fix, a checkpoint-style
/// Truncate with buffered commits followed by an empty-buffer Flush
/// advanced last_durable_txn() to a pre-truncation id whose commit record
/// existed nowhere — a committed-then-lost violation.
TEST_F(WalDurabilityHarness, TruncateCannotAcknowledgeDroppedCommits) {
  uint64_t acked;
  {
    Wal wal(&fs_, "t.wal", /*group_commit_size=*/100);
    for (uint64_t txn = 1; txn <= 3; txn++) {
      wal.Append(InsertRecord(txn));
      wal.LogCommit(txn);  // buffered; group never fills
    }
    EXPECT_EQ(wal.last_durable_txn(), 0u);
    ASSERT_TRUE(wal.Truncate().ok());  // checkpoint dropped the buffer
    ASSERT_TRUE(wal.Flush().ok());     // empty-buffer group force
    acked = wal.last_durable_txn();
  }

  // Power failure, then recovery's view of the log.
  device_.Crash();
  PmemAllocator allocator(&device_, /*format=*/false);
  Pmfs fs(&allocator);
  Wal wal(&fs, "t.wal", 100);
  uint64_t max_durable_commit = 0;
  for (const LogRecord& r : wal.ReadAll()) {
    if (r.op == LogOp::kCommit) {
      max_durable_commit = std::max(max_durable_commit, r.txn_id);
    }
  }
  // Every acknowledged txn must have a durable commit record.
  EXPECT_LE(acked, max_durable_commit)
      << "WAL acknowledged txn " << acked
      << " whose commit record is not durable (committed-then-lost)";
}

TEST_F(WalDurabilityHarness, AckWatermarkStaysMonotoneAcrossTruncate) {
  Wal wal(&fs_, "t.wal", 2);
  wal.Append(InsertRecord(1));
  wal.LogCommit(1);
  wal.Append(InsertRecord(2));
  wal.LogCommit(2);  // group of 2 -> flushed
  EXPECT_EQ(wal.last_durable_txn(), 2u);
  ASSERT_TRUE(wal.Truncate().ok());
  ASSERT_TRUE(wal.Flush().ok());
  EXPECT_EQ(wal.last_durable_txn(), 2u);  // never rewinds
  wal.Append(InsertRecord(3));
  wal.LogCommit(3);
  wal.Append(InsertRecord(4));
  wal.LogCommit(4);
  EXPECT_EQ(wal.last_durable_txn(), 4u);  // and still advances
}

// --- Systematic crash-point exploration across all six engines -------------------

class CrashExplorerTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(CrashExplorerTest, EveryCrashPointRecoversConsistently) {
  CrashExplorerConfig cfg;
  cfg.engine = GetParam();
  cfg.txns = 48;
  cfg.keys = 24;
  cfg.seed = 11;
  // Cross the checkpoint boundary inside the 48-txn budget so the sweep
  // covers the checkpoint write + WAL-truncate window (where the InP
  // swap-window and NvWal stale-ack bugs lived), not just steady state.
  cfg.checkpoint_interval_txns = 24;
  // Bounded sweep for CI latency: every 5th event plus torn random points.
  cfg.event_stride = 5;
  cfg.random_crash_points = 6;
  cfg.tear_random_points = true;
  const CrashExplorerReport report = RunCrashExplorer(cfg);
  EXPECT_GT(report.total_events, 0u);
  EXPECT_GT(report.crash_points_run, 0u);
  std::string all;
  for (const std::string& m : report.messages) all += "\n  " + m;
  EXPECT_EQ(report.violations, 0u) << all;
}

TEST_P(CrashExplorerTest, TornFinalPersistSweep) {
  CrashExplorerConfig cfg;
  cfg.engine = GetParam();
  cfg.txns = 32;
  cfg.keys = 16;
  cfg.seed = 23;
  cfg.event_stride = 7;
  cfg.tear_final_persist = true;
  const CrashExplorerReport report = RunCrashExplorer(cfg);
  std::string all;
  for (const std::string& m : report.messages) all += "\n  " + m;
  EXPECT_EQ(report.violations, 0u) << all;
}

INSTANTIATE_TEST_SUITE_P(AllEngines, CrashExplorerTest,
                         ::testing::ValuesIn(testutil::kAllEngines),
                         [](const auto& info) {
                           std::string name = EngineKindName(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace nvmdb

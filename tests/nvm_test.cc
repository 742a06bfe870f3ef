#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "common/random.h"
#include "nvm/cache_sim.h"
#include "nvm/nvm_device.h"
#include "nvm/pmem_allocator.h"
#include "nvm/pmfs.h"
#include "nvm/sync.h"

namespace nvmdb {
namespace {

/// Event counters wired into CacheCallbacks' raw-pointer interface.
struct EventCounts {
  uint64_t write_backs = 0;
  uint64_t fills = 0;

  CacheCallbacks AsCallbacks() {
    CacheCallbacks callbacks;
    callbacks.ctx = this;
    callbacks.write_back = [](void* ctx, uint64_t, size_t) {
      static_cast<EventCounts*>(ctx)->write_backs++;
    };
    callbacks.fill = [](void* ctx, uint64_t, size_t) {
      static_cast<EventCounts*>(ctx)->fills++;
    };
    return callbacks;
  }
};

// --- CacheSim ---------------------------------------------------------------

TEST(CacheSimTest, HitAfterMiss) {
  CacheConfig cfg;
  cfg.capacity_bytes = 4096;
  cfg.line_size = 64;
  cfg.associativity = 4;
  CacheSim cache(cfg, {});
  EXPECT_EQ(cache.Access(0, 64, false), 1u);  // miss
  EXPECT_EQ(cache.Access(0, 64, false), 0u);  // hit
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(CacheSimTest, MultiLineAccess) {
  CacheConfig cfg;
  cfg.capacity_bytes = 4096;
  CacheSim cache(cfg, {});
  // 200 bytes spanning 4 lines (unaligned start).
  EXPECT_EQ(cache.Access(30, 200, false), 4u);
}

TEST(CacheSimTest, DirtyEvictionTriggersWriteBack) {
  CacheConfig cfg;
  cfg.capacity_bytes = 256;  // 4 lines total
  cfg.line_size = 64;
  cfg.associativity = 2;
  EventCounts events;
  CacheSim cache(cfg, events.AsCallbacks());
  // Dirty many distinct lines; capacity forces evictions of dirty lines.
  for (uint64_t i = 0; i < 64; i++) cache.Access(i * 64, 8, true);
  EXPECT_GT(events.write_backs, 32u);
}

TEST(CacheSimTest, FlushWritesBackAndInvalidates) {
  CacheConfig cfg;
  EventCounts events;
  CacheSim cache(cfg, events.AsCallbacks());
  cache.Access(128, 8, true);
  EXPECT_EQ(cache.FlushRange(128, 8, /*invalidate=*/true), 1u);
  EXPECT_EQ(events.write_backs, 1u);
  // Invalidated: next access misses again.
  const uint64_t fills_before = events.fills;
  cache.Access(128, 8, false);
  EXPECT_EQ(events.fills, fills_before + 1);
}

TEST(CacheSimTest, ClwbKeepsLineResident) {
  CacheConfig cfg;
  CacheSim cache(cfg, {});
  cache.Access(128, 8, true);
  cache.FlushRange(128, 8, /*invalidate=*/false);  // CLWB semantics
  EXPECT_EQ(cache.Access(128, 8, false), 0u);      // still cached
}

TEST(CacheSimTest, FlushCleanLineIsNoop) {
  CacheConfig cfg;
  CacheSim cache(cfg, {});
  cache.Access(0, 8, false);
  EXPECT_EQ(cache.FlushRange(0, 8, true), 0u);
}

TEST(CacheSimTest, DropDirtyDiscardsWithoutWriteBack) {
  CacheConfig cfg;
  EventCounts events;
  CacheSim cache(cfg, events.AsCallbacks());
  cache.Access(0, 64, true);
  cache.DropDirty();
  EXPECT_EQ(events.write_backs, 0u);
  EXPECT_EQ(cache.FlushRange(0, 64, true), 0u);  // nothing cached anymore
}

TEST(CacheSimTest, AccessExReportsWriteBacks) {
  CacheConfig cfg;
  cfg.capacity_bytes = 256;  // 4 lines total
  cfg.line_size = 64;
  cfg.associativity = 2;
  EventCounts events;
  CacheSim cache(cfg, events.AsCallbacks());
  CacheAccessResult total;
  for (uint64_t i = 0; i < 64; i++) {
    const CacheAccessResult r = cache.AccessEx(i * 64, 8, true);
    total.missed += r.missed;
    total.write_backs += r.write_backs;
  }
  // Every write-back surfaced by a callback was also reported to the
  // caller of AccessEx (this is what lets the device charge bandwidth
  // with one add per access instead of one per line).
  EXPECT_EQ(events.write_backs, total.write_backs);
  EXPECT_EQ(cache.write_backs(), total.write_backs);
  EXPECT_EQ(cache.misses(), total.missed);
}

// --- Thread confinement -----------------------------------------------------

// Cross-thread access to a cache must be caught in debug builds (the
// zero-synchronization access path is only sound under strict thread
// confinement). Release builds compile the check out; the tests skip there
// rather than exercising undefined behavior.
TEST(CacheSimOwnerDeathTest, CrossThreadAccessAbortsInDebug) {
  if (!CacheSim::kOwnerChecksEnabled) {
    GTEST_SKIP() << "owner checks compiled out (NDEBUG)";
  }
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  CacheSim cache(CacheConfig{}, {});
  cache.Access(0, 8, false);  // this thread becomes the owner
  EXPECT_DEATH(
      std::thread([&cache] { cache.Access(64, 8, false); }).join(),
      "owner-mode violation");
}

// The allocator and the filesystem take no locks either: a call from a
// second thread reaches the device's cache and trips the same check.
TEST(CacheSimOwnerDeathTest, CrossThreadAllocatorAllocAbortsInDebug) {
  if (!CacheSim::kOwnerChecksEnabled) {
    GTEST_SKIP() << "owner checks compiled out (NDEBUG)";
  }
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  NvmDevice device(1 << 20);
  PmemAllocator allocator(&device);  // formatting makes this thread owner
  ASSERT_NE(allocator.Alloc(64), 0u);
  EXPECT_DEATH(
      std::thread([&allocator] { allocator.Alloc(64); }).join(),
      "owner-mode violation");
}

TEST(CacheSimOwnerDeathTest, CrossThreadPmfsAppendAbortsInDebug) {
  if (!CacheSim::kOwnerChecksEnabled) {
    GTEST_SKIP() << "owner checks compiled out (NDEBUG)";
  }
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  NvmDevice device(4 << 20);
  PmemAllocator allocator(&device);
  Pmfs fs(&allocator);
  const Pmfs::Fd fd = fs.Open("log", /*create=*/true);
  ASSERT_GE(fd, 0);
  const char record[] = "record";
  ASSERT_TRUE(fs.Append(fd, record, sizeof(record)).ok());
  EXPECT_DEATH(std::thread([&] {
                 (void)fs.Append(fd, record, sizeof(record));
               }).join(),
               "owner-mode violation");
}

// --- NvmDevice ---------------------------------------------------------------

class NvmDeviceTest : public ::testing::Test {
 protected:
  NvmDeviceTest() : device_(1 << 20, NvmLatencyConfig::LowNvm()) {}
  NvmDevice device_;
};

TEST_F(NvmDeviceTest, WriteReadRoundTrip) {
  const char data[] = "hello nvm";
  device_.Write(100, data, sizeof(data));
  char out[sizeof(data)];
  device_.Read(100, out, sizeof(data));
  EXPECT_STREQ(out, "hello nvm");
}

TEST_F(NvmDeviceTest, UnpersistedWritesAreLostOnCrash) {
  const char data[] = "volatile!";
  device_.Write(4096, data, sizeof(data));
  device_.Crash();
  char out[sizeof(data)] = {};
  device_.Read(4096, out, sizeof(data));
  EXPECT_EQ(out[0], '\0');
}

TEST_F(NvmDeviceTest, PersistedWritesSurviveCrash) {
  const char data[] = "durable";
  device_.Write(4096, data, sizeof(data));
  device_.Persist(4096, sizeof(data));
  device_.Crash();
  char out[sizeof(data)] = {};
  device_.Read(4096, out, sizeof(data));
  EXPECT_STREQ(out, "durable");
}

TEST_F(NvmDeviceTest, EvictedDirtyLinesSurviveCrash) {
  // Fill far more lines than the cache holds; early lines get evicted
  // (written back) and must survive even without explicit Persist.
  CacheConfig small_cache;
  small_cache.capacity_bytes = 8 * 1024;
  NvmDevice device(1 << 20, NvmLatencyConfig::Dram(), small_cache);
  for (uint64_t i = 0; i < 1024; i++) {
    const uint64_t v = i * 3 + 1;
    device.Write(i * 64, &v, 8);
  }
  device.Crash();
  size_t survived = 0;
  for (uint64_t i = 0; i < 1024; i++) {
    uint64_t v = 0;
    device.Read(i * 64, &v, 8);
    if (v == i * 3 + 1) survived++;
  }
  // Most lines were evicted and written back; only the last ~128 lines
  // (cache capacity) could be lost.
  EXPECT_GT(survived, 800u);
  EXPECT_LT(survived, 1024u);
}

TEST_F(NvmDeviceTest, AtomicPersistWrite64) {
  device_.AtomicPersistWrite64(512, 0xDEADBEEFCAFEF00DULL);
  device_.Crash();
  uint64_t v = 0;
  device_.Read(512, &v, 8);
  EXPECT_EQ(v, 0xDEADBEEFCAFEF00DULL);
}

TEST_F(NvmDeviceTest, FlushAllMakesEverythingDurable) {
  for (uint64_t i = 0; i < 100; i++) device_.Write(i * 128, &i, 8);
  device_.FlushAll();
  device_.Crash();
  for (uint64_t i = 0; i < 100; i++) {
    uint64_t v = ~0ull;
    device_.Read(i * 128, &v, 8);
    EXPECT_EQ(v, i);
  }
}

/// Crash() rebuilds the working image from the pages the device marked as
/// durable, so a path that writes the durable image without its mark would
/// read back zeros after a crash. A seeded mix of every such path on a
/// small-cache device (evictions write back): around each crash, both
/// images must equal the whole durable image as it stood just before.
TEST(NvmDevicePageMarkTest, CrashLeavesExactlyTheDurableImage) {
  constexpr size_t kPages = 1024;
  constexpr size_t kCapacity = kPages * NvmDevice::kPageSize;
  // Raw stores to the top quarter are never touched or persisted: only
  // FlushAll makes them durable.
  constexpr size_t kUnpersistedPages = kPages / 4;
  CacheConfig small_cache;
  small_cache.capacity_bytes = 8 * 1024;
  NvmDevice device(kCapacity, NvmLatencyConfig::Dram(), small_cache);
  Random rng(1017);
  // A random cache line inside [first_page, first_page + pages).
  auto line_in = [&](size_t first_page, size_t pages) {
    return (first_page + rng.Uniform(pages)) * NvmDevice::kPageSize +
           rng.Uniform(NvmDevice::kPageSize / 64) * 64;
  };
  auto crash_and_compare = [&](NvmDevice* d, int round) {
    const std::vector<uint8_t> durable(d->durable_image(),
                                       d->durable_image() + kCapacity);
    d->Crash();
    EXPECT_EQ(memcmp(d->durable_image(), durable.data(), kCapacity), 0)
        << "round " << round;
    EXPECT_EQ(memcmp(d->working_image(), durable.data(), kCapacity), 0)
        << "round " << round;
  };

  for (int round = 0; round < 8; round++) {
    for (int op = 0; op < 200; op++) {
      if (op == 100 && round % 3 == 1) device.FlushAll();
      const uint64_t value = rng.Next() | 1;  // never all zero
      const uint64_t offset = line_in(0, kPages - kUnpersistedPages);
      uint8_t* raw = device.base() + offset;
      switch (rng.Uniform(6)) {
        case 0:
          device.Write(offset, &value, 8);
          break;
        case 1: {
          const uint64_t payload[3] = {value, ~value, value * 3};
          const NvmDevice::WriteSeg segs[] = {{&value, 8},
                                              {payload, sizeof(payload)}};
          device.WriteSegments(offset, segs, 2);
          break;
        }
        case 2:
          memcpy(raw, &value, 8);
          device.TouchWrite(raw, 8);
          break;
        case 3:
          memcpy(raw, &value, 8);
          device.Persist(offset, 8);
          break;
        case 4:
          device.AtomicPersistWrite64(offset, value);
          break;
        case 5:
          memcpy(device.base() + line_in(kPages - kUnpersistedPages,
                                         kUnpersistedPages),
                 &value, 8);
          break;
      }
    }
    crash_and_compare(&device, round);
  }

  // A fresh device restored from a snapshot holds only the marks
  // RestoreImages set.
  NvmDevice restored(kCapacity, NvmLatencyConfig::Dram(), small_cache);
  restored.RestoreImages(device.SnapshotDurable());
  EXPECT_EQ(memcmp(restored.durable_image(), device.durable_image(),
                   kCapacity),
            0);
  crash_and_compare(&restored, -1);
}

TEST_F(NvmDeviceTest, CountersTrackLoadsAndStores) {
  const NvmCounters before = device_.counters();
  char buf[256];
  device_.Read(0, buf, 256);  // 4 line fills
  const NvmCounters after = device_.counters();
  EXPECT_GE(after.loads - before.loads, 4u);
}

TEST_F(NvmDeviceTest, MissesCostMoreThanHits) {
  char buf[64];
  device_.Read(8192, buf, 64);  // miss: full NVM read latency
  const uint64_t after_miss = device_.TotalStallNanos();
  EXPECT_GE(after_miss, device_.latency_config().read_latency_ns);
  device_.Read(8192, buf, 64);  // hit: only the cache-hit cost
  const uint64_t hit_cost = device_.TotalStallNanos() - after_miss;
  EXPECT_EQ(hit_cost, device_.latency_config().cache_hit_ns);
}

TEST_F(NvmDeviceTest, DramProfileChargesBaselineLatency) {
  NvmDevice device(1 << 20, NvmLatencyConfig::Dram());
  char buf[64];
  device.Read(0, buf, 64);
  EXPECT_EQ(device.TotalStallNanos(),
            NvmLatencyConfig::Dram().read_latency_ns);
}

TEST_F(NvmDeviceTest, HighLatencyChargesMoreThanLow) {
  NvmDevice low(1 << 20, NvmLatencyConfig::LowNvm());
  NvmDevice high(1 << 20, NvmLatencyConfig::HighNvm());
  char buf[4096];
  low.Read(0, buf, 4096);
  high.Read(0, buf, 4096);
  EXPECT_GT(high.TotalStallNanos(), low.TotalStallNanos() * 3);
}

TEST_F(NvmDeviceTest, SyncLatencySweepAffectsStall) {
  NvmDevice device(1 << 20, NvmLatencyConfig::Dram());
  uint64_t costs[2];
  int idx = 0;
  for (uint64_t lat : {10ull, 10000ull}) {
    ScopedSyncLatency sweep(&device, lat);
    const uint64_t before = device.TotalStallNanos();
    for (int i = 0; i < 100; i++) {
      uint64_t v = i;
      device.Write(i * 64, &v, 8);
      device.Persist(i * 64, 8);
    }
    costs[idx++] = device.TotalStallNanos() - before;
  }
  EXPECT_GT(costs[1], costs[0] * 50);
}

// The device completes a resident single-line Touch*/Write hit inline
// (CacheSim::OwnerHitFast). One-segment TouchSegments/WriteSegments calls
// model the same accesses but never take that path, so the same traffic
// driven both ways must produce bit-identical counters, per-tag stalls,
// and wear.
TEST_F(NvmDeviceTest, TouchFastPathMatchesSegmentedPath) {
  CacheConfig cache_cfg;
  cache_cfg.capacity_bytes = 64 * 1024;
  NvmDevice fast(1 << 20, NvmLatencyConfig::LowNvm(), cache_cfg);
  NvmDevice segmented(1 << 20, NvmLatencyConfig::LowNvm(), cache_cfg);

  auto drive = [](NvmDevice& d, bool as_segments) {
    uint64_t x = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < 30000; i++) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      ScopedStallTag tag(static_cast<StallTag>((x >> 40) % kStallTagCount));
      const uint64_t off = x % ((1 << 20) - 512);
      const uint32_t n = 1 + (x >> 32) % 100;  // mostly single-line
      const uint64_t virt = (uint64_t{1} << 45) + off;
      const bool flag = (x & 2) != 0;
      switch (x % 5) {
        case 0:
          if (as_segments) {
            d.TouchSegments(off, &n, 1, /*is_write=*/false);
          } else {
            d.TouchRead(d.PtrAt(off), n);
          }
          break;
        case 1:
          if (as_segments) {
            d.TouchSegments(off, &n, 1, /*is_write=*/true);
          } else {
            d.TouchWrite(d.PtrAt(off), n);
          }
          break;
        case 2:
          if (as_segments) {
            d.TouchSegments(virt, &n, 1, flag);
          } else {
            d.TouchVirtual(reinterpret_cast<void*>(virt), n, flag);
          }
          break;
        case 3:
          if (as_segments) {
            const NvmDevice::WriteSeg seg{&x, 8};
            d.WriteSegments(off, &seg, 1);
          } else {
            d.Write(off, &x, 8);
          }
          break;
        default:
          d.Persist(off, n);
          break;
      }
    }
  };
  drive(fast, /*as_segments=*/false);
  drive(segmented, /*as_segments=*/true);

  const NvmCounters a = fast.counters();
  const NvmCounters b = segmented.counters();
  EXPECT_EQ(a.loads, b.loads);
  EXPECT_EQ(a.stores, b.stores);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.stall_ns, b.stall_ns);
  EXPECT_EQ(a.sync_calls, b.sync_calls);
  for (size_t t = 0; t < kStallTagCount; t++) {
    EXPECT_EQ(a.tag_ns[t], b.tag_ns[t]) << "tag " << t;
  }
  EXPECT_GT(a.hits, 0u);  // the fast path actually fired
  const WearStats wa = fast.wear();
  const WearStats wb = segmented.wear();
  EXPECT_EQ(wa.total_line_writes, wb.total_line_writes);
  EXPECT_EQ(wa.max_line_writes, wb.max_line_writes);
  EXPECT_EQ(wa.lines_touched, wb.lines_touched);
}

TEST_F(NvmDeviceTest, OffsetPointerRoundTrip) {
  void* p = device_.PtrAt(12345);
  EXPECT_EQ(device_.OffsetOf(p), 12345u);
  EXPECT_TRUE(device_.Contains(p));
}

TEST(NvmPtrTest, ResolvesAgainstCurrentDevice) {
  NvmDevice device(1 << 16);
  NvmEnv::Set(&device);
  uint64_t* raw = reinterpret_cast<uint64_t*>(device.PtrAt(256));
  *raw = 77;
  NvmPtr<uint64_t> ptr = NvmPtr<uint64_t>::FromRaw(raw);
  EXPECT_FALSE(ptr.IsNull());
  EXPECT_EQ(*ptr, 77u);
  EXPECT_EQ(ptr.offset(), 256u);
  NvmPtr<uint64_t> null;
  EXPECT_TRUE(null.IsNull());
  EXPECT_EQ(null.get(), nullptr);
  NvmEnv::Set(nullptr);
}

}  // namespace
}  // namespace nvmdb

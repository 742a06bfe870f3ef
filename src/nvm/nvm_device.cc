#include "nvm/nvm_device.h"

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "nvm/crash_sim.h"

namespace nvmdb {

namespace {

constexpr int kZeroedProt = PROT_READ | PROT_WRITE;
constexpr int kZeroedFlags = MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE;

}  // namespace

ZeroedBuffer::ZeroedBuffer(size_t bytes) : size_(bytes) {
  void* p = mmap(nullptr, bytes, kZeroedProt, kZeroedFlags, -1, 0);
  mapped_ = p != MAP_FAILED;
  if (!mapped_) p = calloc(1, bytes);
  if (p == nullptr) {
    perror("ZeroedBuffer: calloc");
    abort();
  }
  data_ = static_cast<uint8_t*>(p);
}

ZeroedBuffer::~ZeroedBuffer() {
  if (data_ == nullptr) return;
  if (mapped_) {
    munmap(data_, size_);
  } else {
    free(data_);
  }
}

void ZeroedBuffer::Clear() {
  if (!mapped_) {
    memset(data_, 0, size_);
    return;
  }
  if (mmap(data_, size_, kZeroedProt, kZeroedFlags | MAP_FIXED, -1, 0) !=
      data_) {
    perror("ZeroedBuffer::Clear: mmap");
    abort();
  }
}

NvmLatencyConfig NvmLatencyConfig::Dram() {
  NvmLatencyConfig cfg;
  cfg.read_latency_ns = 160;
  cfg.dram_latency_ns = 160;
  cfg.write_bandwidth_gbps = 76.0;
  cfg.sync_latency_ns = 100;
  return cfg;
}

NvmLatencyConfig NvmLatencyConfig::LowNvm() {
  NvmLatencyConfig cfg;
  cfg.read_latency_ns = 320;
  cfg.dram_latency_ns = 160;
  cfg.write_bandwidth_gbps = 9.5;
  cfg.sync_latency_ns = 100;
  return cfg;
}

NvmLatencyConfig NvmLatencyConfig::HighNvm() {
  NvmLatencyConfig cfg;
  cfg.read_latency_ns = 1280;
  cfg.dram_latency_ns = 160;
  cfg.write_bandwidth_gbps = 9.5;
  cfg.sync_latency_ns = 100;
  return cfg;
}

NvmDevice::NvmDevice(size_t capacity, const NvmLatencyConfig& latency,
                     const CacheConfig& cache_cfg)
    : capacity_(capacity),
      working_(capacity),
      latency_(latency),
      durable_(capacity),
      wear_((capacity / 64 + 1) * sizeof(uint32_t)),
      durable_pages_((capacity + kPageSize * 64 - 1) / (kPageSize * 64)) {
  CacheCallbacks callbacks;
  callbacks.write_back = &NvmDevice::WriteBackTrampoline;
  callbacks.ctx = this;
  // Miss latency is charged at the access site (together with hit and
  // write-back costs), not in a fill callback, so no fill hook is needed.
  cache_ = std::make_unique<CacheSim>(cache_cfg, callbacks);
}

NvmDevice::~NvmDevice() {
  if (NvmEnv::Get() == this) NvmEnv::Set(nullptr);
}

uint64_t NvmDevice::StoreCostNs() const {
  const double gbps = latency_.write_bandwidth_gbps;
  if (gbps <= 0) return 0;
  // line_size bytes at gbps GB/s.
  return static_cast<uint64_t>(static_cast<double>(cache_->line_size()) /
                               gbps);
}

void NvmDevice::OnWriteBack(uint64_t line_addr, size_t line_size) {
  // A dirty line reaching NVM: copy working -> durable and count wear.
  // Lines outside the managed region (virtual heap addresses routed
  // through TouchVirtual) have no durable bytes but still cost a store.
  if (line_addr + line_size <= capacity_) {
    memcpy(durable_.data() + line_addr, working_.data() + line_addr,
           line_size);
    MarkPage(line_addr / kPageSize);
    LineWrites(line_addr / 64)++;
  }
}

void NvmDevice::ChargeAccess(uint64_t addr, size_t n, bool is_write) {
  const CacheAccessResult r = cache_->AccessEx(addr, n, is_write);
  const size_t lines =
      (addr + n - 1) / cache_->line_size() - addr / cache_->line_size() + 1;
  // One accumulation covers the whole call: miss latency, hit latency, and
  // write-back bandwidth for every line the access touched.
  ChargeStall(r.missed * latency_.read_latency_ns +
              (lines - r.missed) * latency_.cache_hit_ns +
              r.write_backs * StoreCostNs());
}

void NvmDevice::TouchSegments(uint64_t addr, const uint32_t* lens,
                              size_t k, bool is_write) {
  const CacheAccessResult r = cache_->AccessSegments(addr, lens, k, is_write);
  if (r.lines == 0) return;  // every segment empty: nothing was modeled
  // Identical total to the per-call charges of the uncoalesced stream:
  // the summands are order-independent and AccessSegments reports the
  // exact visit count (boundary lines visited once per touching segment).
  ChargeStall(r.missed * latency_.read_latency_ns +
              (r.lines - r.missed) * latency_.cache_hit_ns +
              r.write_backs * StoreCostNs());
}

void NvmDevice::ReadSegments(uint64_t offset, const ReadSeg* segs,
                             size_t k) {
  assert(k <= kMaxIoSegments);
  uint32_t lens[kMaxIoSegments] = {};
  for (size_t i = 0; i < k; i++) lens[i] = segs[i].len;
  TouchSegments(offset, lens, k, /*is_write=*/false);
  for (size_t i = 0; i < k; i++) {
    assert(offset + segs[i].len <= capacity_);
    if (segs[i].len != 0) {
      memcpy(segs[i].dst, working_.data() + offset, segs[i].len);
    }
    offset += segs[i].len;
  }
}

void NvmDevice::WriteSegments(uint64_t offset, const WriteSeg* segs,
                              size_t k) {
  assert(k <= kMaxIoSegments);
  uint32_t lens[kMaxIoSegments] = {};
  for (size_t i = 0; i < k; i++) lens[i] = segs[i].len;
  TouchSegments(offset, lens, k, /*is_write=*/true);
  for (size_t i = 0; i < k; i++) {
    assert(offset + segs[i].len <= capacity_);
    if (segs[i].len != 0) {
      memcpy(working_.data() + offset, segs[i].src, segs[i].len);
    }
    offset += segs[i].len;
  }
}

void NvmDevice::Read(uint64_t offset, void* dst, size_t n) {
  assert(offset + n <= capacity_);
  // Same resident-hit fast path as Touch(): a single-line hit — the
  // overwhelmingly common shape for header/field reads — completes with
  // one inline probe and one add, identical accounting to the out-of-line
  // path (n == 0 must keep taking ChargeAccess, whose legacy cost formula
  // charges line coverage without probing the cache).
  if (n != 0 && cache_->OwnerHitFast(offset, n, false)) {
    ChargeStall(latency_.cache_hit_ns);
  } else {
    ChargeAccess(offset, n, /*is_write=*/false);
  }
  memcpy(dst, working_.data() + offset, n);
}

void NvmDevice::Write(uint64_t offset, const void* src, size_t n) {
  assert(offset + n <= capacity_);
  if (n != 0 && cache_->OwnerHitFast(offset, n, true)) {
    ChargeStall(latency_.cache_hit_ns);
  } else {
    ChargeAccess(offset, n, /*is_write=*/true);
  }
  memcpy(working_.data() + offset, src, n);
}

void NvmDevice::Persist(uint64_t offset, size_t n) {
  if (n == 0) return;
  assert(offset + n <= capacity_);
  // Crash-point hook: this is a durability event, and a capture must see
  // the durable image *before* the range below is mirrored into it.
  if (crash_sim_ != nullptr) crash_sim_->OnPersist(this, offset, n);
  // CLFLUSH/CLWB each covered line (counts stores for dirty cached lines),
  // then unconditionally mirror the range into the durable image so the
  // post-condition "range is durable" holds even for bytes written through
  // an uninstrumented pointer.
  const size_t flushed = FlushLines(offset, n);
  const size_t ls = cache_->line_size();
  const uint64_t first = offset / ls * ls;
  uint64_t last_end = (offset + n + ls - 1) / ls * ls;
  if (last_end > capacity_) last_end = capacity_;
  memcpy(durable_.data() + first, working_.data() + first, last_end - first);
  MarkPages(first, last_end - first);
  // Write-back bandwidth plus SFENCE + flush latency, in one accumulation.
  ChargeStall(flushed * StoreCostNs() + latency_.sync_latency_ns);
  sync_calls_++;
}

void NvmDevice::AtomicPersistWrite64(uint64_t offset, uint64_t value) {
  assert(offset % 8 == 0);
  assert(offset + 8 <= capacity_);
  if (crash_sim_ != nullptr) crash_sim_->OnAtomicPersist(this, offset, value);
  ChargeAccess(offset, 8, /*is_write=*/true);
  memcpy(working_.data() + offset, &value, 8);
  const size_t flushed = FlushLines(offset, 8);
  // The durable copy of an aligned 8-byte store is itself atomic: either
  // the old or the new value survives a crash, never a torn mix.
  memcpy(durable_.data() + offset, &value, 8);
  MarkPages(offset, 8);
  ChargeStall(flushed * StoreCostNs() + latency_.sync_latency_ns);
  sync_calls_++;
}

void NvmDevice::MarkPages(uint64_t offset, size_t n) {
  for (uint64_t page = offset / kPageSize;
       page <= (offset + n - 1) / kPageSize; page++) {
    MarkPage(page);
  }
}

std::vector<uint32_t> NvmDevice::DurablePages() const {
  std::vector<uint32_t> pages;
  for (size_t w = 0; w < durable_pages_.size(); w++) {
    for (uint64_t bits = durable_pages_[w]; bits != 0; bits &= bits - 1) {
      pages.push_back(static_cast<uint32_t>(w * 64 + std::countr_zero(bits)));
    }
  }
  return pages;
}

void NvmDevice::CopyPage(uint8_t* dst, const uint8_t* src,
                         uint64_t page) const {
  const uint64_t offset = page * kPageSize;
  memcpy(dst + offset, src + offset,
         std::min<uint64_t>(kPageSize, capacity_ - offset));
}

void NvmDevice::Crash() {
  // Dirty cached lines die with the caches; the working image reverts to
  // exactly what had been made durable: fresh zero pages, plus a copy of
  // the marked pages (every other durable page is all zero).
  cache_->DropDirty();
  working_.Clear();
  for (uint32_t page : DurablePages()) {
    CopyPage(working_.data(), durable_.data(), page);
  }
}

DurableImage NvmDevice::SnapshotDurable() const {
  DurableImage image{ZeroedBuffer(capacity_), DurablePages()};
  for (uint32_t page : image.pages) {
    CopyPage(image.bytes.data(), durable_.data(), page);
  }
  return image;
}

void NvmDevice::RestoreImages(const DurableImage& image) {
  assert(image.bytes.size() == capacity_);
  cache_->DropDirty();
  durable_.Clear();
  working_.Clear();
  for (uint32_t page : image.pages) {
    CopyPage(durable_.data(), image.bytes.data(), page);
    CopyPage(working_.data(), image.bytes.data(), page);
    MarkPages(uint64_t{page} * kPageSize, kPageSize);
  }
}

void NvmDevice::FlushAll() {
  const size_t flushed = cache_->WriteBackAll();
  ChargeStall(flushed * StoreCostNs());
  // Mirror the whole working image, bytes stored through base() without a
  // Touch included. An unmarked page that is all zero in the working image
  // already matches the durable one, so only the other pages are copied.
  static constexpr uint8_t kZeroPage[kPageSize] = {};
  for (uint64_t offset = 0; offset < capacity_; offset += kPageSize) {
    const size_t len = std::min<uint64_t>(kPageSize, capacity_ - offset);
    if (!PageMarked(offset / kPageSize) &&
        memcmp(working_.data() + offset, kZeroPage, len) == 0) {
      continue;
    }
    memcpy(durable_.data() + offset, working_.data() + offset, len);
    MarkPages(offset, len);
  }
}

NvmCounters NvmDevice::counters() const {
  NvmCounters c;
  c.loads = cache_->misses();
  c.stores = cache_->write_backs();
  c.hits = cache_->hits();
  c.stall_ns = stall_ns_;
  c.external_ns = external_ns_;
  c.sync_calls = sync_calls_;
  c.bytes_read = c.loads * cache_->line_size();
  c.bytes_written = c.stores * cache_->line_size();
  std::copy(std::begin(tag_ns_), std::end(tag_ns_), c.tag_ns);
  return c;
}

WearStats NvmDevice::wear() const {
  WearStats w;
  const size_t num_lines = capacity_ / 64 + 1;
  for (size_t i = 0; i < num_lines; i++) {
    const uint32_t writes = LineWrites(i);
    if (writes == 0) continue;
    w.total_line_writes += writes;
    w.lines_touched++;
    if (writes > w.max_line_writes) w.max_line_writes = writes;
  }
  if (w.lines_touched > 0) {
    w.mean_line_writes = static_cast<double>(w.total_line_writes) /
                         static_cast<double>(w.lines_touched);
    w.hotspot_factor =
        static_cast<double>(w.max_line_writes) / w.mean_line_writes;
  }
  return w;
}

namespace {
thread_local NvmDevice* g_current_device = nullptr;
thread_local TraceWriter* g_current_trace = nullptr;
}  // namespace

NvmDevice* NvmEnv::Get() { return g_current_device; }
void NvmEnv::Set(NvmDevice* device) { g_current_device = device; }

TraceWriter* NvmEnv::Trace() { return g_current_trace; }
void NvmEnv::SetTrace(TraceWriter* trace) { g_current_trace = trace; }

}  // namespace nvmdb

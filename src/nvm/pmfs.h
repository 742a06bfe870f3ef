#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "nvm/pmem_allocator.h"

namespace nvmdb {

/// Cost knobs of the filesystem interface. The defaults are tuned so the
/// allocator-vs-filesystem durable-write-bandwidth gap matches the paper's
/// Fig. 1 (10–12x for small sequential chunks): each file operation pays a
/// kernel crossing through the VFS layer, which the allocator interface
/// avoids by staying in userspace.
struct PmfsConfig {
  uint64_t vfs_call_overhead_ns = 1500;   // per read()/write() syscall
  uint64_t fsync_overhead_ns = 2500;      // per fsync(), on top of flushes
  size_t block_size = 4096;              // extent granularity
  size_t max_files = 256;
};

/// Simplified PMFS: a filesystem that stores file data directly in NVM and
/// needs only one copy between the file and user buffers (Section 2.2).
/// Files are chains of fixed-size blocks allocated from the NVM allocator;
/// the inode table is a named persistent root, so the namespace survives
/// restart (the filesystem interface's naming mechanism).
///
/// Durability: data written with Write()/Append() is volatile (sitting in
/// the simulated CPU cache) until Fsync() flushes the file's dirty blocks
/// and inode. This mirrors how the traditional engines obtain durability.
class Pmfs {
 public:
  using Fd = int;

  /// Attach to an allocator. Recovers an existing namespace if one was
  /// previously formatted on this region.
  explicit Pmfs(PmemAllocator* allocator, const PmfsConfig& config = {});

  /// Open (and optionally create) a file. Tag attributes the file's blocks
  /// in footprint accounting. Returns -1 on failure.
  Fd Open(const std::string& name, bool create,
          StorageTag tag = StorageTag::kFilesystem);
  void Close(Fd fd);

  Status Write(Fd fd, uint64_t offset, const void* buf, size_t n);
  Status Append(Fd fd, const void* buf, size_t n);
  Status Read(Fd fd, uint64_t offset, void* buf, size_t n, size_t* out_n);
  Status Fsync(Fd fd);
  Status Truncate(Fd fd, uint64_t new_size);

  uint64_t Size(Fd fd) const;
  Status Delete(const std::string& name);
  bool Exists(const std::string& name) const;
  std::vector<std::string> List() const;

  /// Total bytes of block storage held by all files (Fig. 14 accounting).
  uint64_t TotalBlockBytes() const;
  uint64_t FileBlockBytes(const std::string& name) const;

  const PmfsConfig& config() const { return config_; }
  NvmDevice* device() { return device_; }

 private:
  struct Inode;      // persistent: name, size, extent table offset
  struct Superblock; // persistent: inode table

  static constexpr size_t kMaxExtents = 16384;

  Inode* InodeAt(size_t idx) const;
  Superblock* super() const;
  Status EnsureBlocks(Inode* inode, uint64_t end_offset);
  uint64_t* ExtentTable(const Inode* inode) const;

  PmemAllocator* allocator_;
  NvmDevice* device_;
  PmfsConfig config_;
  uint64_t super_offset_ = 0;

  struct Handle {
    int inode_idx = -1;
    // Block indices needing flush, in append order with possible
    // duplicates (a plain vector so the per-Write hot path never
    // allocates once capacity has grown); Fsync sorts + dedups before
    // persisting, which reproduces the ascending flush order the old
    // std::set gave.
    std::vector<size_t> dirty_blocks;
    bool inode_dirty = false;
  };
  std::map<Fd, Handle> handles_;
  Fd next_fd_ = 3;
};

}  // namespace nvmdb

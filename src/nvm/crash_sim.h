#pragma once

#include <cstdint>
#include <functional>

#include "nvm/nvm_device.h"

namespace nvmdb {

/// Crash-point fault injection over the NVM device's durability stream.
///
/// Every durability event — each device `Persist`, each
/// `AtomicPersistWrite64`, and each filesystem fsync barrier
/// (`PmemBarrier`) — is numbered 1, 2, 3, … in the order it reaches the
/// device. Arming the simulator at event N captures, at the moment event N
/// is *about to take effect*, a private copy of the durable image only:
/// everything events 1..N-1 made durable (plus natural dirty-line
/// evictions up to that moment), and nothing that was still sitting in the
/// simulated CPU cache. Like a crash, a capture copies only the pages the
/// device ever made durable (NvmDevice::SnapshotDurable), plus the page of
/// any torn line it applies. Execution then continues normally — the
/// capture is a frozen snapshot, not a control-flow abort — and the harness
/// later replaces the device contents with the snapshot
/// (`Database::CrashAt` / `NvmDevice::RestoreImages`) and re-runs
/// recovery, observing exactly the bytes a power failure at event N would
/// have left behind.
///
/// In tear mode the final in-flight persist is additionally torn at
/// cache-line granularity: each line covered by event N's range is
/// independently included in or excluded from the snapshot, modeling
/// reordered and partial line flushes inside one sync primitive. Atomic
/// 8-byte persists are never torn — they are included or excluded whole,
/// which is their hardware contract.
///
/// The simulator is installed on a device with
/// `NvmDevice::set_crash_sim`; when none is installed the hooks cost one
/// null check per durability event.
class CrashSim {
 public:
  /// Arm a capture at absolute event number `target_event` (1-based,
  /// compared against `event_count()`; pass `event_count() + k` to crash
  /// at the k-th upcoming event). `tear_seed` drives the per-line
  /// coin flips in tear mode, so a sweep can replay a specific tearing.
  void Arm(uint64_t target_event, bool tear_final_persist = false,
           uint64_t tear_seed = 1);

  /// Stop counting toward a capture (the existing capture, if any, is
  /// kept). Call before driving recovery so recovery's own persists do
  /// not trigger a second capture.
  void Disarm();

  /// Durability events observed so far (monotonic across Arm/Disarm).
  uint64_t event_count() const { return events_; }

  bool captured() const { return captured_; }
  uint64_t captured_event() const { return captured_event_; }

  /// The durable-only image captured at the crash point. Empty until a
  /// capture fires.
  const DurableImage& image() const { return image_; }

  /// Invoked synchronously inside the durability event that triggers the
  /// capture — i.e. from engine code mid-operation. Harnesses use it to
  /// snapshot their shadow model (which transactions were durably
  /// acknowledged *before* this event). Keep it cheap and reentrancy-free:
  /// it must not touch the device.
  void set_on_capture(std::function<void()> cb) {
    on_capture_ = std::move(cb);
  }

  // --- Hooks (called by NvmDevice / Pmfs / sync) ---------------------------

  /// A sync-primitive flush of [offset, offset+n) is about to retire.
  void OnPersist(NvmDevice* device, uint64_t offset, size_t n);
  /// An atomic durable 8-byte write of `value` at `offset` is about to
  /// retire.
  void OnAtomicPersist(NvmDevice* device, uint64_t offset, uint64_t value);
  /// A data-less durability barrier (fsync completion) retired.
  void OnBarrier(NvmDevice* device);

 private:
  void Event(NvmDevice* device, uint64_t offset, size_t n, bool atomic,
             uint64_t value);
  void Capture(NvmDevice* device, uint64_t offset, size_t n, bool atomic,
               uint64_t value);
  bool Coin();

  uint64_t events_ = 0;
  uint64_t target_ = 0;  // 0 = disarmed
  bool tear_ = false;
  uint64_t rng_state_ = 0x9E3779B97F4A7C15ull;
  bool captured_ = false;
  uint64_t captured_event_ = 0;
  DurableImage image_;
  std::function<void()> on_capture_;
};

}  // namespace nvmdb

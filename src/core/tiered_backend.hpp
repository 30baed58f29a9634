// TieredBackend: remote-first placement under a byte budget (extension).
//
// Evictions go to remote memory with simple-swapping semantics until the
// accounted bytes of primary copies parked remotely would exceed
// `Config::tiered_remote_budget_bytes`; past that point each victim spills
// to the local swap disk instead. Fault-ins release budget, so the remote
// tier always holds the most recently evicted working set while the disk
// absorbs the cold overflow — the failover path's ad-hoc degrade-to-disk,
// formalized as a first-class composition of the remote and disk backends.
//
// The budget bounds primary copies only: replica mirrors (replicate_k) ride
// on the destination's own headroom accounting, as under plain kRemoteSwap.
// With an unlimited budget (-1) this is exactly kRemoteSwap.
//
// With `Config::integrity_disk_shadow` enabled the backend additionally
// keeps a checksummed local disk copy (shadow) of every line it parks
// remotely, charged to the swap disk like a spill. A remote copy that later
// fails verification repairs from the shadow instead of orphaning — disk
// redundancy for corruption, without replicate_k's second memory node. The
// shadow is dropped when the line comes home. This tier runs simple
// swapping (no remote updates), so remote contents never change and the
// shadow stays valid across migrations.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "core/remote_backend.hpp"

namespace rms::core {

class TieredBackend final : public RemoteBackend {
 public:
  explicit TieredBackend(HashLineStore& store);

  sim::Task<> swap_out(LineId id) override;
  sim::Task<> fault_in(LineId id) override;
  sim::Task<> collect_finish() override;

  void check_invariants() const override;

 protected:
  /// Integrity repair: restore the line from its shadow copy (charged as a
  /// random swap-disk read) when one exists and verifies.
  sim::Task<bool> repair_from_disk(LineId id) override;

 private:
  std::int64_t budget_;          // -1: unlimited
  const bool shadow_enabled_;    // Config::integrity_disk_shadow
  std::unordered_map<LineId, DiskShadow> shadow_;
  std::int64_t* budget_spills_;  // backend.tiered.budget_spills
};

}  // namespace rms::core

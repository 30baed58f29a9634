#include "core/tiered_backend.hpp"

#include <algorithm>

#include "obs/trace.hpp"

namespace rms::core {

TieredBackend::TieredBackend(HashLineStore& store)
    : RemoteBackend(store, Options{/*update_mode=*/false}, "tiered"),
      budget_(store.config().tiered_remote_budget_bytes),
      shadow_enabled_(store.config().integrity_disk_shadow),
      budget_spills_(&store.stats_mut().slot("backend.tiered.budget_spills")) {
}

sim::Task<> TieredBackend::swap_out(LineId id) {
  auto& l = store_.line(id);
  const std::int64_t bytes = l.bytes;
  if (budget_ >= 0 && remote_bytes() + bytes > budget_) {
    // The remote tier is full: spill this victim to the local disk. The
    // budget frees up as probes fault remote lines back home.
    ++*budget_spills_;
    node_.stats().bump("store.tiered_budget_spill");
    if (obs::TraceRecorder* trace = store_.config().trace) {
      trace->instant(obs::EventKind::kTieredSpill, node_.id(),
                     node_.sim().now(), id, bytes);
    }
    co_await disk().swap_out(id);
    co_return;
  }
  DiskShadow sh;
  if (shadow_enabled_) {
    // Snapshot before the base moves the contents out. Written behind only
    // if the line actually lands remotely (a degrade-to-disk already has a
    // checksummed spill record).
    sh.checksum = line_checksum(l.entries);
    sh.entries = l.entries;
  }
  co_await RemoteBackend::swap_out(id);
  if (shadow_enabled_ && l.where == Where::kRemote) {
    shadow_[id] = std::move(sh);
    node_.stats().bump("store.shadow_writes");
    co_await node_.swap_disk().write(
        std::max<std::int64_t>(bytes, store_.config().message_block_bytes),
        disk::Access::kSequential);
  }
}

sim::Task<> TieredBackend::fault_in(LineId id) {
  co_await RemoteBackend::fault_in(id);
  // Home (with contents, repaired, or orphaned): the shadow is garbage now.
  shadow_.erase(id);
}

sim::Task<bool> TieredBackend::repair_from_disk(LineId id) {
  if (shadow_.count(id) == 0) {
    // No full-coverage shadow; the base may hold an unmirrored-swap-out one.
    co_return co_await RemoteBackend::repair_from_disk(id);
  }
  co_return co_await restore_shadow(shadow_, id);
}

sim::Task<> TieredBackend::collect_finish() {
  co_await RemoteBackend::collect_finish();
  shadow_.clear();  // every line is home
}

void TieredBackend::check_invariants() const {
  RemoteBackend::check_invariants();
  RMS_CHECK_MSG(shadow_enabled_ || shadow_.empty(),
                "integrity shadow populated while disabled");
  for (const auto& [id, sh] : shadow_) {
    RMS_CHECK_MSG(sh.checksum != 0, "shadow copy without a checksum stamp");
  }
}

}  // namespace rms::core

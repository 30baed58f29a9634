// rms::sched job model: the contract between the multi-tenant scheduler and
// the workloads it runs.
//
// A job is a workload from the runtime catalog (hpa, hash_join,
// hash_aggregate) executing on a set of application-node slots it receives
// at launch, inside a simulation and cluster built by sched::World — shared
// with every other running job under the scheduler, or private to the job
// on the single-job entry every run_*() wraps. The world (cluster, memory
// servers, availability monitors, per-slot brokers and clients) outlives
// the job; a JobRuntime owns only the job-local state — database
// partitions, hash-line stores, the PhasedRunner — and registers its stores
// in the world's SlotTable so world daemons (shortage-triggered migration,
// failure verdicts, gauges) can reach whatever store currently lives on a
// slot. sched::PhasedJob is the shared implementation every workload
// derives from.
//
// The scheduler knows nothing about concrete workloads: each workload
// module exposes a make_*_job factory returning a JobRuntime, and the bench
// wires specs to factories.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stats.hpp"
#include "common/time.hpp"
#include "net/network.hpp"
#include "runtime/workload.hpp"
#include "sim/task.hpp"

namespace rms::cluster {
class Cluster;
}
namespace rms::core {
class HashLineStore;
}
namespace rms::placement {
class MemoryBroker;
}
namespace rms::sim {
class Simulation;
}

namespace rms::sched {

/// Slot -> live hash-line store bindings. World daemons hold a reference to
/// the table; jobs bind their stores at launch and unbind at harvest, so a
/// shortage broadcast always reaches the store currently executing on the
/// slot (or nothing, between jobs).
class SlotTable {
 public:
  using StoreGetter = std::function<core::HashLineStore*()>;

  void bind(net::NodeId slot, StoreGetter getter) {
    getters_[slot] = std::move(getter);
  }
  void unbind(net::NodeId slot) { getters_.erase(slot); }

  /// The store currently bound to `slot`; null when the slot is idle (or
  /// the bound job has not created its store yet).
  core::HashLineStore* store_at(net::NodeId slot) const {
    const auto it = getters_.find(slot);
    return it == getters_.end() ? nullptr : it->second();
  }

 private:
  std::unordered_map<net::NodeId, StoreGetter> getters_;
};

/// Everything a job needs from the shared world, fixed at admission.
struct JobEnv {
  sim::Simulation* sim = nullptr;
  cluster::Cluster* cluster = nullptr;
  /// This job's application execution slots, in participant order
  /// (participant i runs on app_nodes[i]).
  std::vector<net::NodeId> app_nodes;
  /// World-owned placement brokers, one per slot, same order. The
  /// scheduler has already attached the job's tenant ledger.
  std::vector<placement::MemoryBroker*> brokers;
  /// The world's slot -> store bindings (see SlotTable).
  SlotTable* slots = nullptr;
};

/// What the scheduler records about a finished (or torn down) job.
struct JobReport {
  bool completed = false;  // the runner's final barrier released
  bool exact = false;      // workload result matches its scalar reference
  /// One workload-specific headline figure ("groups=842", "large=57").
  std::string summary;

  /// Virtual time of the runner's final barrier (absolute; the job's
  /// makespan is total_time minus its admission time).
  Time total_time = 0;
  std::vector<runtime::PassTiming> passes;
  std::vector<std::string> phase_names;

  // Store counters summed over the job's slots.
  std::int64_t pagefaults = 0;
  std::int64_t swap_outs = 0;
  std::int64_t updates_sent = 0;
  std::int64_t degraded_evictions = 0;
};

/// One admitted job's runtime: owns the job-local state and the runner.
/// Lifecycle: launch() (spawn processes into the shared simulation; no
/// virtual time passes) -> on_done fires at the runner's final barrier ->
/// harvest() (collect the report, unbind slots). The runtime stays alive
/// after harvest — a reclaim may still be suspended in its store machinery —
/// and is destroyed with the scheduler, before the world.
class JobRuntime {
 public:
  virtual ~JobRuntime() = default;

  /// The runtime catalog name ("hpa", "hash_aggregate", "hash_join").
  virtual const char* workload_name() const = 0;

  /// Create the job-local state (partitions, stores) and spawn the phased
  /// runner's processes into env.sim. Called once, at admission (or at t=0
  /// on the single-job entry); must not advance virtual time. `on_done` fires (synchronously, from the
  /// runner's coordinator) when the job's final barrier releases.
  virtual void launch(const JobEnv& env, std::function<void()> on_done) = 0;

  /// Scheduler-driven revocation: recall up to `target_bytes` of this
  /// job's donated lines (spilling them to the slots' local swap disks)
  /// and return the bytes actually freed. Safe to race the job's own
  /// collection or completion — the store machinery settles in-flight
  /// lines before either side touches them.
  virtual sim::Task<std::int64_t> reclaim(std::int64_t target_bytes) = 0;

  /// Current donated footprint: bytes of primary copies this job's stores
  /// hold on memory nodes right now.
  virtual std::int64_t donated_bytes() const = 0;

  /// Collect the report and unbind the job's slots. Call after on_done
  /// fired, or at teardown for a job that never finished.
  virtual JobReport harvest() = 0;
};

using JobRuntimePtr = std::unique_ptr<JobRuntime>;

}  // namespace rms::sched

// sched::World — the one module that builds the simulated cluster.
//
// Every run shape executes inside a World: the paper's cluster of
// application execution nodes plus memory-available nodes, each memory node
// running a memory server and a 3 s availability monitor that broadcasts to
// the availability clients on the application nodes (§4.2). Workloads build
// none of it; they run as jobs (sched::PhasedJob) on leased application
// slots and reach world daemons only through the SlotTable.
//
// Two layouts, chosen by the entry point:
//
//   multi-tenant (World + JobScheduler)   single job (SingleJobWorld)
//   node 0            — the scheduler     —
//   nodes 1 .. A      — app slots         nodes 0 .. A-1   — app slots
//   nodes A+1 .. A+M  — donor pool        nodes A .. A+M-1 — donor pool
//
// The single-job layout has no scheduler node: every monitor broadcast
// serializes through the donor's TX port, so an extra subscriber would
// delay server replies and move the standalone schedules.
//
// The world owns everything that outlives a job: the memory servers and
// their availability monitors, one placement broker + availability client
// per slot (brokers persist across jobs; the scheduler attaches the running
// tenant's ledger at admission and detaches it at completion), and — in the
// multi-tenant layout — the scheduler's own broker on node 0, whose
// availability view is the admission gate's estimate of free donor memory.
// Shortage broadcasts (and failure-detector verdicts) dispatch through the
// SlotTable to whatever store currently runs on the slot.
//
// A single-job world adds what a standalone run asks for in
// SingleJobOptions: failure detectors, scripted withdrawals and faults, the
// metrics sampler, and profiler hooks on every node. The multi-tenant world
// runs fault-free and unobserved in this iteration (docs/SCHEDULER.md).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/fault.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/time.hpp"
#include "placement/placement.hpp"
#include "sched/job.hpp"
#include "sim/simulation.hpp"

namespace rms::core {
class MemoryServer;
}
namespace rms::obs {
class TraceRecorder;
class MetricsSampler;
class ProfileHook;
}

namespace rms::sched {

class PhasedJob;

struct WorldConfig {
  std::size_t app_nodes = 8;    // leasable execution slots
  std::size_t memory_nodes = 8; // shared donor pool

  std::int64_t message_block_bytes = 4096;
  Time monitor_interval = sec(3);
  std::int64_t shortage_threshold_bytes = 256 << 10;
  placement::PolicyKind placement = placement::PolicyKind::kPaperRoundRobin;

  cluster::CostModel costs;
  std::uint64_t seed = 1;

  /// Shared event sink for every world daemon and job (null: tracing off).
  obs::TraceRecorder* trace = nullptr;
};

/// Migration experiment (Figure 5): at time `at`, memory-available node
/// #`memory_node_index` loses all its free memory.
struct Withdrawal {
  std::size_t memory_node_index = 0;
  Time at = 0;
};

/// Crash-stop memory-available node #`memory_node_index` at `at` (its
/// stored lines vanish); optionally restart it at `restart_at`.
struct Crash {
  std::size_t memory_node_index = 0;
  Time at = 0;
  Time restart_at = -1;  // < 0: stays down
};

/// Payload-corruption episode. While active, line payloads on the wire flip
/// a count bit with probability `flip_rate` per payload (focused on one
/// memory node's links when `memory_node_index` >= 0, cluster-wide at -1);
/// `rest_flip_rate` corrupts stored lines at rest on the matching memory
/// servers once at `at`; `scrub` schedules a server verify pass at
/// `at + duration` that drops mismatched copies.
struct Corruption {
  Time at = 0;
  Time duration = 0;
  double flip_rate = 0.0;
  double rest_flip_rate = 0.0;
  std::ptrdiff_t memory_node_index = -1;  // -1: every node / link
  bool scrub = false;
};

/// What a standalone run adds to its world. Every field carries a knob of
/// the workload's own config (hpa::HpaConfig's cluster model, failover, and
/// fault-injection settings; every workload's observability sinks).
struct SingleJobOptions {
  /// Link and disk models. Costs and seed come from WorldConfig, num_nodes
  /// from the layout.
  cluster::ClusterConfig cluster;
  /// Memory-server window for server-to-server migration pushes.
  int rpc_window = 1;
  /// Slot brokers stop trusting availability reports older than this
  /// (0: never expire).
  Time broker_max_age = 0;
  /// > 0: a failure detector per slot declares a memory node dead after
  /// this many missed availability heartbeats (0: no detectors).
  int suspect_after_misses = 0;

  std::vector<Withdrawal> withdrawals;
  std::vector<Crash> crashes;
  std::vector<cluster::FaultPlan::LossBurst> loss_bursts;
  std::vector<Corruption> corruption;

  /// Per-node gauges sampled at monitor_interval; cleared with the world.
  obs::MetricsSampler* metrics = nullptr;
  /// CPU and disk busy intervals from every node.
  obs::ProfileHook* profiler = nullptr;
};

class World {
 public:
  /// The multi-tenant layout: node 0 runs the scheduler.
  World(sim::Simulation& sim, WorldConfig cfg);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Spawn the world daemons (servers, monitors, clients, and whatever the
  /// single-job options ask for). Call once, before any job launches.
  void start();

  // ---- topology ----
  net::NodeId scheduler_node() const {
    RMS_CHECK_MSG(first_slot_ == 1,
                  "the single-job layout has no scheduler node");
    return 0;
  }
  net::NodeId app_node(std::size_t slot) const {
    return static_cast<net::NodeId>(first_slot_ + slot);
  }
  net::NodeId memory_node(std::size_t i) const {
    return static_cast<net::NodeId>(first_slot_ + cfg_.app_nodes + i);
  }
  std::size_t num_slots() const { return cfg_.app_nodes; }

  sim::Simulation& sim() { return sim_; }
  cluster::Cluster& cluster() { return *cluster_; }
  const WorldConfig& config() const { return cfg_; }
  SlotTable& slots() { return slots_; }

  /// The slot's persistent placement broker (tenant ledgers attach here).
  placement::MemoryBroker& broker_at(std::size_t slot) {
    return *brokers_[slot];
  }
  core::MemoryServer& server_at(std::size_t i) { return *servers_[i]; }

  /// What a job leased onto `slot_indices` (participant order) runs with.
  JobEnv job_env(const std::vector<std::size_t>& slot_indices);

  /// Admission estimate: free donor bytes as the scheduler currently sees
  /// them (sum of the last availability reports; 0 until the first
  /// broadcasts land, ~one monitor interval after start()).
  std::int64_t pool_free_bytes() const;

  /// Actual donated bytes currently parked on the servers (exact, not
  /// broadcast-delayed; reports and tests).
  std::int64_t pool_donated_bytes();

  /// Counters from every node, both of its disks, the network, and the
  /// slot brokers' non-zero placement decisions.
  StatsRegistry merged_stats();

 private:
  friend class SingleJobWorld;

  /// Either layout; the single-job one carries a standalone run's extras.
  World(sim::Simulation& sim, WorldConfig cfg, SingleJobOptions opts,
        bool with_scheduler);

  /// Withdrawals and the fault plan, over this world's memory nodes.
  void install_faults();
  void register_gauges();

  sim::Simulation& sim_;
  WorldConfig cfg_;
  SingleJobOptions opts_;
  std::size_t first_slot_;  // node id of slot 0 (1 behind the scheduler)
  std::unique_ptr<cluster::Cluster> cluster_;
  std::vector<net::NodeId> memory_ids_;
  std::vector<net::NodeId> slot_ids_;

  std::vector<std::unique_ptr<core::MemoryServer>> servers_;
  std::vector<std::unique_ptr<placement::MemoryBroker>> brokers_;
  std::unique_ptr<placement::MemoryBroker> sched_broker_;
  SlotTable slots_;
  /// At-rest corruption draws (Corruption episodes); fixed stream so runs
  /// with identical configs corrupt identically.
  Pcg32 corrupt_rest_rng_{0xa27e57, 0x11};
  bool started_ = false;
};

/// What a standalone run leaves behind.
struct SingleJobRun {
  /// PhasedJob::settle(): timing, store counters (no reference check).
  JobReport report;
  /// World::merged_stats() at the job's final barrier.
  StatsRegistry stats;
};

/// The single-job entry every run_*() wraps: a private simulation and a
/// single-job-layout world running one job on all of its slots. Construct
/// it before the job so the job's stores die before the cluster does.
class SingleJobWorld {
 public:
  SingleJobWorld(WorldConfig cfg, SingleJobOptions opts);

  /// Start the world, launch `job` on every slot at t=0, run to its final
  /// barrier, settle it, merge the world's counters, and tear the daemons
  /// down. Once-only.
  SingleJobRun run(PhasedJob& job);

 private:
  sim::Simulation sim_;
  World world_;
};

}  // namespace rms::sched

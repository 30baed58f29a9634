#include "sched/world.hpp"

#include "core/availability.hpp"
#include "core/hash_line_store.hpp"
#include "core/integrity.hpp"
#include "core/memory_server.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sched/phased_job.hpp"

namespace rms::sched {

World::World(sim::Simulation& sim, WorldConfig cfg)
    : World(sim, std::move(cfg), SingleJobOptions{}, /*with_scheduler=*/true) {
}

World::World(sim::Simulation& sim, WorldConfig cfg, SingleJobOptions opts,
             bool with_scheduler)
    : sim_(sim),
      cfg_(std::move(cfg)),
      opts_(std::move(opts)),
      first_slot_(with_scheduler ? 1 : 0) {
  RMS_CHECK(cfg_.app_nodes >= 1);
  // A standalone run without remote memory may have no donors at all.
  RMS_CHECK(cfg_.memory_nodes >= 1 || !with_scheduler);
  cluster::ClusterConfig ccfg = opts_.cluster;
  ccfg.num_nodes = first_slot_ + cfg_.app_nodes + cfg_.memory_nodes;
  ccfg.costs = cfg_.costs;
  ccfg.seed = cfg_.seed;
  cluster_ = std::make_unique<cluster::Cluster>(sim_, ccfg);
  if (opts_.profiler != nullptr) {
    for (std::size_t i = 0; i < cluster_->size(); ++i) {
      cluster_->node(static_cast<net::NodeId>(i))
          .set_profile_hook(opts_.profiler);
    }
  }

  for (std::size_t i = 0; i < cfg_.memory_nodes; ++i) {
    memory_ids_.push_back(memory_node(i));
  }
  for (std::size_t s = 0; s < cfg_.app_nodes; ++s) {
    slot_ids_.push_back(app_node(s));
  }

  // Persistent per-slot brokers; rng streams keyed by node id.
  brokers_.resize(cfg_.app_nodes);
  for (std::size_t s = 0; s < cfg_.app_nodes; ++s) {
    brokers_[s] = std::make_unique<placement::MemoryBroker>(
        memory_ids_, cfg_.placement,
        static_cast<std::uint64_t>(app_node(s)));
    if (opts_.broker_max_age > 0) {
      brokers_[s]->set_max_age(opts_.broker_max_age);
    }
    if (cfg_.trace != nullptr) {
      brokers_[s]->set_trace(cfg_.trace,
                             static_cast<std::int32_t>(app_node(s)));
    }
  }
  if (with_scheduler) {
    sched_broker_ = std::make_unique<placement::MemoryBroker>(
        memory_ids_, cfg_.placement,
        static_cast<std::uint64_t>(scheduler_node()));
  }
}

World::~World() {
  // The gauges capture this world; the recorded series stays.
  if (opts_.metrics != nullptr) opts_.metrics->clear_gauges();
}

void World::start() {
  RMS_CHECK_MSG(!started_, "World::start is once-only");
  started_ = true;

  // Every slot (and the scheduler) subscribes to the monitors' broadcasts.
  std::vector<net::NodeId> subscribers = slot_ids_;
  if (sched_broker_ != nullptr) subscribers.push_back(scheduler_node());

  servers_.resize(cfg_.memory_nodes);
  for (std::size_t i = 0; i < cfg_.memory_nodes; ++i) {
    cluster::Node& node = cluster_->node(memory_node(i));
    core::MemoryServer::Config mscfg;
    mscfg.message_block_bytes = cfg_.message_block_bytes;
    mscfg.rpc_window = opts_.rpc_window;
    mscfg.trace = cfg_.trace;
    servers_[i] = std::make_unique<core::MemoryServer>(node, mscfg);
    sim_.spawn(servers_[i]->serve());
    sim_.spawn(core::availability_monitor(
        node, core::MonitorConfig{cfg_.monitor_interval, subscribers}));
  }

  // One availability client per slot: refresh the slot's broker, dispatch
  // shortages to whatever store currently runs there. Detectors re-home
  // lines off dead holders the same way.
  for (std::size_t s = 0; s < cfg_.app_nodes; ++s) {
    core::ClientConfig clcfg;
    clcfg.shortage_threshold_bytes = cfg_.shortage_threshold_bytes;
    const net::NodeId slot = app_node(s);
    sim_.spawn(core::availability_client(
        cluster_->node(slot), *brokers_[s], clcfg,
        [this, slot](net::NodeId holder) -> sim::Task<> {
          if (core::HashLineStore* store = slots_.store_at(slot)) {
            co_await store->migrate_away(holder);
          }
        }));
    if (opts_.suspect_after_misses > 0) {
      core::DetectorConfig dcfg;
      dcfg.expected_interval = cfg_.monitor_interval;
      dcfg.miss_threshold = opts_.suspect_after_misses;
      sim_.spawn(core::failure_detector(
          cluster_->node(slot), *brokers_[s], dcfg,
          [this, slot](net::NodeId suspect) -> sim::Task<> {
            if (core::HashLineStore* store = slots_.store_at(slot)) {
              co_await store->handle_holder_failure(suspect);
            }
          }));
    }
  }

  // The scheduler's own view on node 0; shortages are the slots' problem.
  if (sched_broker_ != nullptr) {
    core::ClientConfig clcfg;
    clcfg.shortage_threshold_bytes = 0;  // available() is never negative
    sim_.spawn(core::availability_client(
        cluster_->node(scheduler_node()), *sched_broker_, clcfg,
        [](net::NodeId) -> sim::Task<> { co_return; }));
  }

  install_faults();
  if (opts_.metrics != nullptr) {
    register_gauges();
    sim_.spawn(obs::sample_process(sim_, *opts_.metrics));
  }
}

void World::install_faults() {
  // Withdrawals of memory-available nodes (Figure 5).
  for (const Withdrawal& w : opts_.withdrawals) {
    RMS_CHECK(w.memory_node_index < cfg_.memory_nodes);
    cluster::Node& victim = cluster_->node(memory_node(w.memory_node_index));
    sim_.call_at(w.at, [&victim] {
      victim.memory().external_bytes = victim.memory().total_bytes;
    });
  }

  // Crash-stops, loss bursts, and corruption episodes.
  cluster::FaultPlan plan;
  for (const Crash& c : opts_.crashes) {
    RMS_CHECK(c.memory_node_index < cfg_.memory_nodes);
    plan.crashes.push_back(cluster::FaultPlan::Crash{
        memory_node(c.memory_node_index), c.at, c.restart_at});
  }
  plan.loss_bursts = opts_.loss_bursts;
  bool any_wire_corruption = false;
  for (const Corruption& c : opts_.corruption) {
    net::NodeId focus = -1;
    if (c.memory_node_index >= 0) {
      RMS_CHECK(static_cast<std::size_t>(c.memory_node_index) <
                cfg_.memory_nodes);
      focus = memory_node(static_cast<std::size_t>(c.memory_node_index));
    }
    plan.corruption.push_back(cluster::FaultPlan::Corruption{
        c.at, c.duration, c.flip_rate, c.rest_flip_rate, focus, c.scrub});
    if (c.flip_rate > 0.0) any_wire_corruption = true;
  }
  // The corruptor is installed only when an episode needs it: with no
  // injection the delivery path never draws from the corruption RNG and
  // results stay bit-identical with pre-integrity builds.
  if (any_wire_corruption) {
    cluster_->network().set_corruptor(core::corrupt_line_payloads);
  }
  cluster::CorruptionHooks hooks;
  if (!opts_.corruption.empty()) {
    hooks.at_rest = [this](net::NodeId node, double rate) {
      for (auto& server : servers_) {
        if (node >= 0 && server->node().id() != node) continue;
        server->corrupt_stored(rate, corrupt_rest_rng_);
      }
    };
    hooks.scrub = [this](net::NodeId node) {
      for (auto& server : servers_) {
        if (node >= 0 && server->node().id() != node) continue;
        server->verify_stored();
      }
    };
  }
  plan.install(*cluster_, hooks);
}

void World::register_gauges() {
  obs::MetricsSampler& m = *opts_.metrics;
  m.set_interval(cfg_.monitor_interval);
  // Per-slot residency and RPC gauges, read off whatever store the slot
  // carries right now (stores come and go with passes and jobs).
  for (std::size_t s = 0; s < cfg_.app_nodes; ++s) {
    const net::NodeId slot = app_node(s);
    const auto node = static_cast<std::int32_t>(slot);
    const auto store_gauge = [this, slot](auto fn) {
      return [this, slot, fn]() -> double {
        const core::HashLineStore* store = slots_.store_at(slot);
        return store != nullptr ? fn(*store) : 0.0;
      };
    };
    m.add_gauge("resident_bytes", node, store_gauge([](const auto& st) {
      return static_cast<double>(st.resident_bytes());
    }));
    m.add_gauge("remote_held_bytes", node, store_gauge([](const auto& st) {
      return static_cast<double>(st.remote_held_bytes());
    }));
    m.add_gauge("lines_resident", node, store_gauge([](const auto& st) {
      return static_cast<double>(st.resident_lines());
    }));
    m.add_gauge("lines_remote", node, store_gauge([](const auto& st) {
      return static_cast<double>(st.remote_lines());
    }));
    m.add_gauge("lines_disk", node, store_gauge([](const auto& st) {
      return static_cast<double>(st.disk_lines());
    }));
    m.add_gauge("outstanding_rpcs", node, store_gauge([](const auto& st) {
      return static_cast<double>(st.outstanding_rpcs());
    }));
    m.add_gauge("rpc_window", node, store_gauge([](const auto& st) {
      return static_cast<double>(st.rpc_window());
    }));
    m.add_gauge("heartbeat_staleness_s", node, [this, s]() -> double {
      return to_seconds(brokers_[s]->oldest_report_age(sim_.now()));
    });
  }
  // Per-memory-node donation (how much RAM the node is lending out).
  for (std::size_t i = 0; i < cfg_.memory_nodes; ++i) {
    const net::NodeId id = memory_node(i);
    m.add_gauge("donated_bytes", static_cast<std::int32_t>(id),
                [this, id]() -> double {
                  return static_cast<double>(
                      cluster_->node(id).memory().donated_bytes);
                });
  }
  // Cluster-wide: kernel event throughput (a cheap progress heartbeat).
  m.add_gauge("executed_events", -1, [this]() -> double {
    return static_cast<double>(sim_.executed_events());
  });
}

JobEnv World::job_env(const std::vector<std::size_t>& slot_indices) {
  JobEnv env;
  env.sim = &sim_;
  env.cluster = cluster_.get();
  env.slots = &slots_;
  for (std::size_t s : slot_indices) {
    env.app_nodes.push_back(app_node(s));
    env.brokers.push_back(brokers_[s].get());
  }
  return env;
}

std::int64_t World::pool_free_bytes() const {
  std::int64_t sum = 0;
  for (net::NodeId id : memory_ids_) sum += sched_broker_->available(id);
  return sum;
}

std::int64_t World::pool_donated_bytes() {
  std::int64_t sum = 0;
  for (net::NodeId id : memory_ids_) {
    sum += cluster_->node(id).memory().donated_bytes;
  }
  return sum;
}

StatsRegistry World::merged_stats() {
  StatsRegistry stats;
  for (std::size_t i = 0; i < cluster_->size(); ++i) {
    cluster::Node& node = cluster_->node(static_cast<net::NodeId>(i));
    stats.merge(node.stats());
    stats.merge(node.data_disk().stats());
    stats.merge(node.swap_disk().stats());
  }
  stats.merge(cluster_->network().stats());
  // Placement decision counters live in the brokers (which outlive every
  // store); zero-valued slots are pre-registered scratch and are skipped
  // so disk-only runs do not grow placement keys.
  for (const auto& broker : brokers_) {
    for (const auto& [name, value] : broker->stats().counters()) {
      if (value != 0) stats.bump(name, value);
    }
  }
  return stats;
}

SingleJobWorld::SingleJobWorld(WorldConfig cfg, SingleJobOptions opts)
    : world_(sim_, std::move(cfg), std::move(opts),
             /*with_scheduler=*/false) {}

SingleJobRun SingleJobWorld::run(PhasedJob& job) {
  world_.start();
  std::vector<std::size_t> all_slots(world_.num_slots());
  for (std::size_t s = 0; s < all_slots.size(); ++s) all_slots[s] = s;
  job.launch(world_.job_env(all_slots), [this] { sim_.request_stop(); });
  sim_.run();

  SingleJobRun out;
  out.report = job.settle();
  RMS_CHECK_MSG(out.report.completed,
                "simulation drained before the job finished");
  out.stats = world_.merged_stats();
  // Destroy still-suspended daemon frames (monitors, servers) while the
  // cluster objects their locals reference are alive.
  sim_.shutdown();
  return out;
}

}  // namespace rms::sched

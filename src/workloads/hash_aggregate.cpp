#include "workloads/hash_aggregate.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "cluster/cluster.hpp"
#include "core/hash_line_store.hpp"
#include "runtime/cpu_charger.hpp"
#include "sched/phased_job.hpp"
#include "sched/world.hpp"
#include "sim/process.hpp"
#include "sim/simulation.hpp"
#include "transport/stream.hpp"
#include "transport/tags.hpp"
#include "transport/transport.hpp"

namespace rms::workloads {
namespace {

using cluster::Node;
using mining::Itemset;
using net::NodeId;
using runtime::CpuCharger;

/// Scan-phase payload: a message block of group keys, or the end-of-stream
/// marker a sender broadcasts after finishing its partition.
struct AggMsg {
  std::vector<mining::Item> items;
  bool eos = false;
};

/// Collect-phase payload: one node's owned (item, count) groups.
struct AggGroups {
  std::vector<mining::CountedItemset> groups;
};

mining::Itemset make_key(mining::Item item) {
  // A plain function because GCC 12 miscompiles initializer-list
  // construction inside coroutines ("array used as initializer").
  mining::Itemset s;
  s.push_back(item);
  return s;
}

class HashAggregateWorkload final : public sched::PhasedJob {
 public:
  explicit HashAggregateWorkload(HashAggregateConfig cfg)
      : PhasedJob(runner_config(cfg)), cfg_(std::move(cfg)) {
    RMS_CHECK(cfg_.hash_lines >= cfg_.app_nodes);
    RMS_CHECK_MSG(cfg_.memory_limit_bytes < 0 ||
                      cfg_.policy != core::SwapPolicy::kNoLimit,
                  "a memory limit needs a swap policy");
    RMS_CHECK_MSG(cfg_.memory_limit_bytes < 0 ||
                      !core::uses_remote_memory(cfg_.policy) ||
                      cfg_.memory_nodes > 0,
                  "remote policies need at least one memory-available node");
  }

  const char* workload_name() const override { return "hash_aggregate"; }

  /// The standalone result of a finished single-job run.
  HashAggregateResult result(sched::SingleJobRun run);

  // ---- runtime::Workload ----
  void register_phases(runtime::PhaseRegistry& phases) override {
    RMS_CHECK(phases.add("build") == kAggBuildPhase);
    RMS_CHECK(phases.add("scan") == kAggScanPhase);
    RMS_CHECK(phases.add("collect") == kAggCollectPhase);
  }
  bool done(std::size_t /*pass*/) const override { return false; }
  sim::Task<> run_phase(std::size_t idx, runtime::PhaseId phase,
                        std::size_t pass) override {
    switch (phase) {
      case kAggBuildPhase:
        co_await build(idx);
        break;
      case kAggScanPhase: {
        stores_[idx]->set_phase(core::HashLineStore::Phase::kCount);
        sim::Process sender = sim().spawn(scan_sender(idx));
        sim::Process receiver = sim().spawn(scan_receiver(idx));
        co_await sender;
        co_await receiver;
        break;
      }
      case kAggCollectPhase:
        co_await collect(idx);
        break;
      default:
        RMS_CHECK(false);
    }
    (void)pass;
  }

 private:
  static runtime::RunnerConfig runner_config(const HashAggregateConfig& cfg) {
    RMS_CHECK(cfg.app_nodes >= 1);
    // One pass of build/scan/collect.
    runtime::RunnerConfig rcfg;
    rcfg.participants = cfg.app_nodes;
    rcfg.first_pass = 1;
    rcfg.max_pass = 1;
    rcfg.validate_invariants = cfg.validate_invariants;
    // Let the first availability broadcasts land before any swap decision.
    rcfg.warmup = msec(10);
    rcfg.trace = cfg.trace;
    return rcfg;
  }

  // ---- sched::PhasedJob ----
  void prepare() override;
  bool check_exactness() override;
  std::string summary() const override {
    return "groups=" + std::to_string(result_.groups.size());
  }

  // ---- topology helpers (uniform partition: line mod app_nodes) ----
  std::size_t global_line(const Itemset& key) const {
    return static_cast<std::size_t>(key.hash() % cfg_.hash_lines);
  }
  std::size_t owner_of_line(std::size_t gline) const {
    return gline % cfg_.app_nodes;
  }
  core::LineId local_line(std::size_t gline) const {
    return static_cast<core::LineId>(gline / cfg_.app_nodes);
  }
  std::size_t local_line_count(std::size_t idx) const {
    return (cfg_.hash_lines + cfg_.app_nodes - 1 - idx) / cfg_.app_nodes;
  }

  sim::Task<> build(std::size_t idx);
  sim::Process scan_sender(std::size_t idx);
  sim::Process scan_receiver(std::size_t idx);
  sim::Task<> collect(std::size_t idx);

  const HashAggregateConfig cfg_;

  mining::TransactionDb generated_db_;
  const mining::TransactionDb* db_ = nullptr;
  std::vector<mining::TransactionDb> partitions_;

  /// Host-precomputed group keys per owner: (local line, item).
  std::vector<std::vector<std::pair<core::LineId, mining::Item>>>
      groups_by_owner_;

  net::Tag tuple_tag_ = 0;
  net::Tag gather_tag_ = 0;

  HashAggregateResult result_;
};

// ---------------------------------------------------------------------------
// build: per-node store creation + owned-key inserts.
// ---------------------------------------------------------------------------

sim::Task<> HashAggregateWorkload::build(std::size_t idx) {
  Node& node = slot_node(idx);
  const cluster::CostModel& costs = node.costs();

  core::HashLineStore::Config scfg;
  scfg.num_lines = local_line_count(idx);
  scfg.memory_limit_bytes = cfg_.memory_limit_bytes;
  scfg.policy = cfg_.memory_limit_bytes < 0 ? core::SwapPolicy::kNoLimit
                                            : cfg_.policy;
  scfg.eviction = cfg_.eviction;
  scfg.tiered_remote_budget_bytes = cfg_.tiered_remote_budget_bytes;
  scfg.message_block_bytes = cfg_.message_block_bytes;
  scfg.trace = cfg_.trace;
  stores_[idx] = std::make_unique<core::HashLineStore>(node, scfg,
                                                       broker(idx));

  core::HashLineStore& store = *stores_[idx];
  CpuCharger charge(node, costs.per_probe);
  for (const auto& [line, item] : groups_by_owner_[idx]) {
    co_await store.insert(line, make_key(item));
    co_await charge.add(1);
  }
  co_await charge.flush();
}

// ---------------------------------------------------------------------------
// scan: partition scan ships keyed tuples; owners probe their store.
// ---------------------------------------------------------------------------

sim::Process HashAggregateWorkload::scan_sender(std::size_t idx) {
  Node& node = slot_node(idx);
  const mining::TransactionDb& part = partitions_[idx];
  const cluster::CostModel& costs = node.costs();

  // One byte-budgeted stream per destination, rounded to whole tuples.
  const std::int64_t tuple_wire_bytes = 8;  // item + framing
  const std::int64_t batch_capacity =
      std::max<std::int64_t>(1, cfg_.message_block_bytes / tuple_wire_bytes);
  std::vector<transport::Stream<AggMsg>> streams;
  streams.reserve(cfg_.app_nodes);
  for (std::size_t j = 0; j < cfg_.app_nodes; ++j) {
    streams.emplace_back(batch_capacity * tuple_wire_bytes);
  }
  auto flush = [&](std::size_t owner) -> sim::Task<> {
    if (streams[owner].empty()) co_return;
    auto closed = streams[owner].take();
    node.send_to(app_id(owner), tuple_tag_, closed.bytes,
                 std::move(closed.batch));
    co_await node.compute(costs.per_message_cpu);
  };

  // Scan the local partition from the data disk in io_block_bytes reads.
  const std::int64_t bytes_per_tx =
      part.empty() ? 1 : std::max<std::int64_t>(1, part.approx_bytes() /
                              static_cast<std::int64_t>(part.size()));
  std::int64_t pending_bytes = 0;
  CpuCharger parse(node, costs.per_tx_parse);
  CpuCharger gen(node, costs.per_itemset_generate);
  for (std::size_t t = 0; t < part.size(); ++t) {
    pending_bytes += bytes_per_tx;
    if (pending_bytes >= cfg_.io_block_bytes) {
      co_await node.data_disk().read(cfg_.io_block_bytes,
                                     disk::Access::kSequential);
      pending_bytes = 0;
    }
    co_await parse.add(1);
    co_await gen.add(static_cast<std::int64_t>(part.tx(t).size()));
    for (mining::Item item : part.tx(t)) {
      const std::size_t owner = owner_of_line(global_line(make_key(item)));
      transport::Stream<AggMsg>& stream = streams[owner];
      stream.open().items.push_back(item);
      stream.note(tuple_wire_bytes);
      if (stream.due()) co_await flush(owner);
    }
  }
  if (pending_bytes > 0) {
    co_await node.data_disk().read(pending_bytes, disk::Access::kSequential);
  }
  co_await parse.flush();
  co_await gen.flush();

  // Flush stragglers, then broadcast end-of-stream (FIFO per destination
  // keeps every data block ahead of the marker).
  for (std::size_t owner = 0; owner < cfg_.app_nodes; ++owner) {
    co_await flush(owner);
  }
  for (std::size_t owner = 0; owner < cfg_.app_nodes; ++owner) {
    AggMsg eos;
    eos.eos = true;
    node.send_to(app_id(owner), tuple_tag_, 16, std::move(eos));
    co_await node.compute(costs.per_message_cpu);
  }
}

sim::Process HashAggregateWorkload::scan_receiver(std::size_t idx) {
  Node& node = slot_node(idx);
  const cluster::CostModel& costs = node.costs();
  core::HashLineStore& store = *stores_[idx];

  std::size_t eos_seen = 0;
  transport::Inbox inbox(node, tuple_tag_);
  while (eos_seen < cfg_.app_nodes) {
    net::Message msg = co_await inbox.recv();
    const auto& data = msg.as<AggMsg>();
    if (data.eos) {
      ++eos_seen;
      continue;
    }
    co_await node.compute(costs.per_message_cpu +
                          costs.per_probe *
                              static_cast<std::int64_t>(data.items.size()));
    for (mining::Item item : data.items) {
      const Itemset key = make_key(item);
      const std::size_t gline = global_line(key);
      RMS_CHECK(owner_of_line(gline) == idx);
      co_await store.probe(local_line(gline), key);
    }
  }
}

// ---------------------------------------------------------------------------
// collect: fetch lines home, gather the global group table on node 0.
// ---------------------------------------------------------------------------

sim::Task<> HashAggregateWorkload::collect(std::size_t idx) {
  Node& node = slot_node(idx);
  const cluster::CostModel& costs = node.costs();
  core::HashLineStore& store = *stores_[idx];

  AggGroups local;
  co_await store.collect([&](const mining::CountedItemset& e) {
    if (e.count > 0) local.groups.push_back(e);
  });
  co_await node.compute(costs.per_probe *
                        static_cast<std::int64_t>(store.size()));

  // Group keys are owned disjointly, so local tables concatenate; gather
  // all-to-one instead of HPA's all-to-all large exchange.
  constexpr std::int64_t kEntryBytes = 12;  // item + count + framing
  if (idx != 0) {
    const std::int64_t payload = std::max<std::int64_t>(
        16, kEntryBytes * static_cast<std::int64_t>(local.groups.size()));
    node.send_to(app_id(0), gather_tag_, payload, std::move(local));
    co_await node.compute(costs.per_message_cpu);
    co_return;
  }

  std::vector<mining::CountedItemset> global = std::move(local.groups);
  transport::Inbox inbox(node, gather_tag_);
  for (std::size_t j = 0; j + 1 < cfg_.app_nodes; ++j) {
    net::Message msg = co_await inbox.recv();
    const auto& remote = msg.as<AggGroups>();
    co_await node.compute(costs.per_message_cpu);
    global.insert(global.end(), remote.groups.begin(), remote.groups.end());
  }
  std::sort(global.begin(), global.end(),
            [](const mining::CountedItemset& a,
               const mining::CountedItemset& b) { return a.items < b.items; });
  result_.groups = std::move(global);
}

// ---------------------------------------------------------------------------
// Inputs, reference check, and the single-job entry.
// ---------------------------------------------------------------------------

void HashAggregateWorkload::prepare() {
  tuple_tag_ = transport::TagRegistry::global().register_service("agg_tuples");
  gather_tag_ = transport::TagRegistry::global().register_service("agg_gather");
  if (cfg_.shared_db != nullptr) {
    db_ = cfg_.shared_db;
  } else {
    mining::QuestGenerator gen(cfg_.workload);
    generated_db_ = gen.generate();
    db_ = &generated_db_;
  }
  RMS_CHECK(!db_->empty());
  partitions_ = db_->partition(cfg_.app_nodes);

  // Host-side key partition: every item that can appear is a group.
  groups_by_owner_.assign(cfg_.app_nodes, {});
  for (mining::Item item = 0; item < cfg_.workload.num_items; ++item) {
    const std::size_t gline = global_line(make_key(item));
    groups_by_owner_[owner_of_line(gline)].emplace_back(local_line(gline),
                                                        item);
  }
}

bool HashAggregateWorkload::check_exactness() {
  // Scalar reference: one in-memory pass over the same database.
  std::vector<std::uint32_t> ref(cfg_.workload.num_items, 0);
  for (std::size_t t = 0; t < db_->size(); ++t) {
    for (mining::Item item : db_->tx(t)) {
      RMS_CHECK(item < ref.size());
      ++ref[item];
    }
  }
  std::size_t nonzero = 0;
  for (std::uint32_t c : ref) nonzero += c > 0;
  if (result_.groups.size() != nonzero) return false;
  for (const mining::CountedItemset& g : result_.groups) {
    if (g.items.size() != 1 || g.items[0] >= ref.size() ||
        g.count != ref[g.items[0]]) {
      return false;
    }
  }
  return true;
}

HashAggregateResult HashAggregateWorkload::result(sched::SingleJobRun run) {
  result_.exact = check_exactness();
  result_.total_time = run.report.total_time;
  result_.passes = std::move(run.report.passes);
  result_.phase_names = std::move(run.report.phase_names);
  result_.pagefaults = run.report.pagefaults;
  result_.swap_outs = run.report.swap_outs;
  result_.updates_sent = run.report.updates_sent;
  result_.stats = std::move(run.stats);
  return std::move(result_);
}

}  // namespace

HashAggregateResult run_hash_aggregate(const HashAggregateConfig& config) {
  sched::WorldConfig world;
  world.app_nodes = config.app_nodes;
  world.memory_nodes = config.memory_nodes;
  world.message_block_bytes = config.message_block_bytes;
  world.monitor_interval = config.monitor_interval;
  world.shortage_threshold_bytes = config.shortage_threshold_bytes;
  world.placement = config.placement;
  world.trace = config.trace;
  sched::SingleJobOptions opts;
  opts.metrics = config.metrics;
  opts.profiler = config.profiler;

  sched::SingleJobWorld solo(std::move(world), std::move(opts));
  HashAggregateWorkload job(config);
  return job.result(solo.run(job));
}

sched::JobRuntimePtr make_hash_aggregate_job(HashAggregateConfig config) {
  RMS_CHECK_MSG(config.metrics == nullptr && config.profiler == nullptr,
                "scheduled jobs do not own observability sinks");
  return std::make_unique<HashAggregateWorkload>(std::move(config));
}

}  // namespace rms::workloads

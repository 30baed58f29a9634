#include "workloads/hash_join.hpp"

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "core/hash_line_store.hpp"
#include "runtime/cpu_charger.hpp"
#include "sched/phased_job.hpp"
#include "sched/world.hpp"

namespace rms::workloads {
namespace {

using runtime::CpuCharger;

struct Row {
  mining::Item key = 0;
  std::uint32_t row_id = 0;
};

std::vector<Row> make_rows(std::int64_t n, std::uint32_t keys,
                           std::uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<Row> rows;
  rows.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    // Zipf-ish skew: a quarter of the rows hit a hot tenth of the keys.
    const mining::Item key = rng.bernoulli(0.25)
                                 ? rng.below(keys / 10 + 1)
                                 : rng.below(keys);
    rows.push_back(Row{key, static_cast<std::uint32_t>(i)});
  }
  return rows;
}

// Build-table entry for one R row: {join key, tagged row id}. A plain
// function because GCC 12 miscompiles initializer-list construction inside
// coroutines ("array used as initializer").
mining::Itemset make_entry(mining::Item key, std::uint32_t row_id) {
  mining::Itemset s;
  s.push_back(key);
  s.push_back(1'000'000u + row_id);
  return s;
}

class HashJoinWorkload final : public sched::PhasedJob {
 public:
  explicit HashJoinWorkload(HashJoinConfig cfg)
      : PhasedJob(runner_config(cfg)), cfg_(std::move(cfg)) {
    RMS_CHECK(cfg_.lines_per_node >= 1);
    RMS_CHECK_MSG(cfg_.memory_limit_bytes < 0 ||
                      cfg_.policy != core::SwapPolicy::kNoLimit,
                  "a memory limit needs a swap policy");
  }

  const char* workload_name() const override { return "hash_join"; }

  /// The standalone result of a finished single-job run.
  HashJoinResult result(sched::SingleJobRun run) {
    result_.output = output_;
    result_.total_time = run.report.total_time;
    result_.passes = std::move(run.report.passes);
    result_.phase_names = std::move(run.report.phase_names);
    result_.pagefaults = run.report.pagefaults;
    result_.stats = std::move(run.stats);
    return std::move(result_);
  }

  // ---- runtime::Workload ----
  void register_phases(runtime::PhaseRegistry& phases) override {
    RMS_CHECK(phases.add("build") == kJoinBuildPhase);
    RMS_CHECK(phases.add("probe") == kJoinProbePhase);
  }
  bool done(std::size_t /*pass*/) const override { return false; }
  sim::Task<> run_phase(std::size_t idx, runtime::PhaseId phase,
                        std::size_t pass) override {
    switch (phase) {
      case kJoinBuildPhase:
        co_await build(idx);
        break;
      case kJoinProbePhase:
        co_await probe(idx);
        break;
      default:
        RMS_CHECK(false);
    }
    (void)pass;
  }

 private:
  static runtime::RunnerConfig runner_config(const HashJoinConfig& cfg) {
    RMS_CHECK(cfg.app_nodes >= 1);
    // One pass of build + probe.
    runtime::RunnerConfig rcfg;
    rcfg.participants = cfg.app_nodes;
    rcfg.first_pass = 1;
    rcfg.max_pass = 1;
    rcfg.validate_invariants = cfg.validate_invariants;
    rcfg.trace = cfg.trace;
    return rcfg;
  }

  // ---- sched::PhasedJob ----
  /// Stores (they precede the runner and live until teardown), inputs,
  /// their per-node partition, and the scalar reference.
  void prepare() override;
  bool check_exactness() override {
    result_.output = output_;
    return result_.output == result_.expected;
  }
  std::string summary() const override {
    return "output=" + std::to_string(result_.output);
  }

  // Key -> (owner node, local line).
  std::pair<std::size_t, core::LineId> place(mining::Item key) const {
    const std::uint64_t h = (key * 0x9e3779b97f4a7c15ULL) >> 16;
    const std::size_t gline = h % (cfg_.lines_per_node * cfg_.app_nodes);
    return {gline % cfg_.app_nodes,
            static_cast<core::LineId>(gline / cfg_.app_nodes)};
  }

  sim::Task<> build(std::size_t idx) {
    cluster::Node& node = slot_node(idx);
    core::HashLineStore& store = *stores_[idx];
    // Per-row CPU is charged in chunks on the owning node with the same
    // CpuCharger the miner's scan loops use (tuple parse on build, hash
    // probe on probe), keeping events proportional to faults, not rows.
    CpuCharger parse(node, node.costs().per_tx_parse);
    for (const auto& [line, key, row_id] : build_by_node_[idx]) {
      co_await store.insert(line, make_entry(key, row_id));
      co_await parse.add(1);
    }
    co_await parse.flush();
    store.set_phase(core::HashLineStore::Phase::kCount);
  }

  sim::Task<> probe(std::size_t idx) {
    cluster::Node& node = slot_node(idx);
    core::HashLineStore& store = *stores_[idx];
    CpuCharger lookup(node, node.costs().per_probe);
    for (const auto& [line, key, row_id] : probe_by_node_[idx]) {
      output_ += co_await store.count_matches(line, key);
      co_await lookup.add(1);
      (void)row_id;
    }
    co_await lookup.flush();
  }

  struct PlacedRow {
    core::LineId line = 0;
    mining::Item key = 0;
    std::uint32_t row_id = 0;
  };

  const HashJoinConfig cfg_;
  std::vector<std::vector<PlacedRow>> build_by_node_;
  std::vector<std::vector<PlacedRow>> probe_by_node_;
  std::uint64_t output_ = 0;
  HashJoinResult result_;
};

void HashJoinWorkload::prepare() {
  for (std::size_t n = 0; n < cfg_.app_nodes; ++n) {
    core::HashLineStore::Config scfg;
    scfg.num_lines = cfg_.lines_per_node;
    scfg.memory_limit_bytes = cfg_.memory_limit_bytes;
    scfg.policy = cfg_.memory_limit_bytes < 0 ? core::SwapPolicy::kNoLimit
                                              : cfg_.policy;
    scfg.tiered_remote_budget_bytes = cfg_.tiered_remote_budget_bytes;
    scfg.trace = cfg_.trace;
    stores_[n] =
        std::make_unique<core::HashLineStore>(slot_node(n), scfg, broker(n));
  }

  const std::vector<Row> build_rows =
      make_rows(cfg_.build_rows, cfg_.keys, cfg_.build_seed);
  const std::vector<Row> probe_rows =
      make_rows(cfg_.probe_rows, cfg_.keys, cfg_.probe_seed);
  build_by_node_.resize(cfg_.app_nodes);
  probe_by_node_.resize(cfg_.app_nodes);
  for (const Row& r : build_rows) {
    const auto placed = place(r.key);
    build_by_node_[placed.first].push_back(
        PlacedRow{placed.second, r.key, r.row_id});
  }
  for (const Row& r : probe_rows) {
    const auto placed = place(r.key);
    probe_by_node_[placed.first].push_back(
        PlacedRow{placed.second, r.key, r.row_id});
  }
  std::unordered_map<mining::Item, std::uint64_t> ref_counts;
  for (const Row& r : build_rows) ++ref_counts[r.key];
  for (const Row& r : probe_rows) {
    const auto it = ref_counts.find(r.key);
    if (it != ref_counts.end()) result_.expected += it->second;
  }
}

}  // namespace

HashJoinResult run_hash_join(const HashJoinConfig& config) {
  sched::WorldConfig world;
  world.app_nodes = config.app_nodes;
  world.memory_nodes = config.memory_nodes;
  world.trace = config.trace;
  sched::SingleJobOptions opts;
  opts.metrics = config.metrics;
  opts.profiler = config.profiler;

  sched::SingleJobWorld solo(std::move(world), std::move(opts));
  HashJoinWorkload job(config);
  return job.result(solo.run(job));
}

sched::JobRuntimePtr make_hash_join_job(HashJoinConfig config) {
  RMS_CHECK_MSG(config.metrics == nullptr && config.profiler == nullptr,
                "scheduled jobs do not own observability sinks");
  return std::make_unique<HashJoinWorkload>(std::move(config));
}

}  // namespace rms::workloads

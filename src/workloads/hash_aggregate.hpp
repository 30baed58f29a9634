// hash_aggregate: remote-memory-backed distributed group-by over the
// transaction database — the third workload on the phased runtime.
//
// Group keys (items) are hash-partitioned across application execution
// nodes into the same per-node hash-line stores the miner uses; each node
// scans its local transaction partition and ships every item occurrence to
// the key's owner in message blocks (the HPA counting idiom), where it is
// counted by a store probe — so under a memory limit the aggregation table
// swaps to memory-available nodes and one-way remote updates apply just as
// they do to candidate itemsets. A final collect phase brings every line
// home and gathers the per-item counts on node 0.
//
// Three phases under runtime::PhasedRunner:
//   build   — create the store, insert one group entry per owned key
//   scan    — partition scan; ship keyed tuples to owners; owners probe
//   collect — fetch lines home; all-to-one count exchange to node 0
//
// The result carries the global (item, count) table plus an exactness flag
// against a scalar in-memory reference over the same database.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/time.hpp"
#include "core/policy.hpp"
#include "mining/generator.hpp"
#include "mining/itemset.hpp"
#include "mining/transaction_db.hpp"
#include "placement/placement.hpp"
#include "runtime/workload.hpp"
#include "sched/job.hpp"

namespace rms::obs {
class TraceRecorder;
class MetricsSampler;
class ProfileHook;
}

namespace rms::workloads {

// Phase ids in the runtime phase registry, in registration order.
inline constexpr std::size_t kAggBuildPhase = 0;
inline constexpr std::size_t kAggScanPhase = 1;
inline constexpr std::size_t kAggCollectPhase = 2;
inline constexpr std::size_t kAggNumPhases = 3;

struct HashAggregateConfig {
  std::size_t app_nodes = 4;
  std::size_t memory_nodes = 4;

  /// The database to aggregate (QUEST-generated unless shared_db is set).
  mining::QuestParams workload = mining::QuestParams::paper_experiment(0.01);
  const mining::TransactionDb* shared_db = nullptr;

  std::size_t hash_lines = 4096;            // global group hash lines
  std::int64_t message_block_bytes = 4096;  // tuple-shipping wire block
  std::int64_t io_block_bytes = 65536;      // partition scan read unit

  /// Per-node memory limit for the aggregation table; -1 disables.
  std::int64_t memory_limit_bytes = -1;
  core::SwapPolicy policy = core::SwapPolicy::kNoLimit;
  core::EvictionPolicy eviction = core::EvictionPolicy::kLru;
  placement::PolicyKind placement = placement::PolicyKind::kPaperRoundRobin;
  std::int64_t tiered_remote_budget_bytes = -1;

  Time monitor_interval = sec(3);
  std::int64_t shortage_threshold_bytes = 256 << 10;

  /// Run HashLineStore::check_invariants at every phase barrier.
  bool validate_invariants = false;

  // ---- observability (all null by default: zero-cost when disabled) ----
  obs::TraceRecorder* trace = nullptr;
  obs::MetricsSampler* metrics = nullptr;
  obs::ProfileHook* profiler = nullptr;
};

struct HashAggregateResult {
  /// Global per-item counts, sorted by item, zero-count groups omitted —
  /// gathered on node 0 in the collect phase.
  std::vector<mining::CountedItemset> groups;
  /// groups == the scalar single-pass reference over the same database.
  bool exact = false;

  Time total_time = 0;
  std::vector<runtime::PassTiming> passes;  // one pass: build/scan/collect
  std::vector<std::string> phase_names;
  std::int64_t pagefaults = 0;
  std::int64_t swap_outs = 0;
  std::int64_t updates_sent = 0;

  /// Merged counters from every node, disk, and the network.
  StatsRegistry stats;
};

/// The group-by as the only job of a private sched::World (single-job
/// layout: application nodes 0..app_nodes-1, then the memory nodes).
HashAggregateResult run_hash_aggregate(const HashAggregateConfig& config);

/// The same workload as a scheduled job on scheduler-leased slots of a
/// shared sched::World. config.metrics and config.profiler must be null
/// (the shared world cannot attribute them per job); config.trace may point
/// at the world's shared recorder.
sched::JobRuntimePtr make_hash_aggregate_job(HashAggregateConfig config);

}  // namespace rms::workloads

// hash_join integration tests: the standalone counting join, run as the only
// job of a private sched::World, must reproduce its in-memory reference
// cardinality under every swap backend.
#include <gtest/gtest.h>

#include <string>

#include "workloads/hash_join.hpp"

namespace rms::workloads {
namespace {

struct JoinCase {
  const char* name;
  std::int64_t memory_limit_bytes;  // -1: no limit
  core::SwapPolicy policy;
};

class HashJoinExact : public ::testing::TestWithParam<JoinCase> {};

TEST_P(HashJoinExact, MatchesReferenceCardinality) {
  const JoinCase& c = GetParam();
  HashJoinConfig cfg;
  cfg.app_nodes = 2;
  cfg.memory_nodes = 2;
  // Kept small: with no limit every insert and probe completes without
  // suspending, so each row nests one more coroutine frame on the stack.
  cfg.build_rows = 2'000;
  cfg.probe_rows = 2'000;
  cfg.keys = 500;
  cfg.memory_limit_bytes = c.memory_limit_bytes;
  cfg.policy = c.policy;
  cfg.validate_invariants = true;

  const HashJoinResult r = run_hash_join(cfg);
  EXPECT_GT(r.expected, 0u);
  EXPECT_TRUE(r.exact()) << r.output << " vs " << r.expected;
  EXPECT_GT(r.total_time, 0);
  ASSERT_EQ(r.passes.size(), 1u);
  EXPECT_EQ(r.phase_names, (std::vector<std::string>{"build", "probe"}));
  // The world's daemons ran: monitors broadcast to the application nodes.
  EXPECT_GT(r.stats.counter("monitor.broadcasts"), 0);
  if (c.memory_limit_bytes < 0) {
    EXPECT_EQ(r.pagefaults, 0);
  } else {
    // 1,000 build rows per node (24 B entries) overflow the limit, so the
    // probes must fault lines back through the backend.
    EXPECT_GT(r.pagefaults, 0);
  }
  if (c.policy != core::SwapPolicy::kDiskSwap && c.memory_limit_bytes >= 0) {
    EXPECT_GT(r.stats.counter("placement.paper-rr.chosen"), 0)
        << "no line reached a memory-available node";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, HashJoinExact,
    ::testing::Values(
        JoinCase{"no_limit", -1, core::SwapPolicy::kNoLimit},
        JoinCase{"disk", 8'000, core::SwapPolicy::kDiskSwap},
        JoinCase{"remote_swap", 8'000, core::SwapPolicy::kRemoteSwap},
        JoinCase{"remote_update", 8'000, core::SwapPolicy::kRemoteUpdate},
        JoinCase{"tiered", 8'000, core::SwapPolicy::kTiered}),
    [](const ::testing::TestParamInfo<JoinCase>& param) {
      return std::string(param.param.name);
    });

}  // namespace
}  // namespace rms::workloads

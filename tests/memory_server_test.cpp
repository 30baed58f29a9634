// MemoryServer protocol tests: swap-out/in, remote updates, fetch, and
// donated-memory accounting, driven by hand-built requests.
#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "core/memory_server.hpp"
#include "core/protocol.hpp"
#include "sim/process.hpp"
#include "sim/simulation.hpp"

namespace rms::core {
namespace {

mining::HashLine make_line(std::initializer_list<std::uint32_t> counts) {
  mining::HashLine line;
  mining::Item base = 10;
  for (std::uint32_t c : counts) {
    line.push_back(
        mining::CountedItemset{mining::Itemset{base, base + 1}, c});
    base += 10;
  }
  return line;
}

MemRequest swap_out(net::NodeId owner, LineId id, mining::HashLine entries) {
  MemRequest r;
  r.kind = MemRequest::Kind::kSwapOut;
  r.owner = owner;
  LinePayload p;
  p.line_id = id;
  p.accounted_bytes =
      static_cast<std::int64_t>(entries.size()) * mining::Itemset::kAccountedBytes;
  p.entries = std::move(entries);
  r.lines.push_back(std::move(p));
  return r;
}

// One round trip under a deadline far beyond every test's horizon, so it
// behaves like an unbounded wait; a missing reply fails the test.
sim::Task<net::Message> call(cluster::Node& n, net::Message msg) {
  cluster::RpcResult r =
      co_await n.request_with_deadline(std::move(msg), sec(30));
  RMS_CHECK_MSG(r.reply.has_value(), "request timed out");
  co_return std::move(*r.reply);
}

struct World {
  sim::Simulation sim;
  std::unique_ptr<cluster::Cluster> cl;
  std::unique_ptr<MemoryServer> server;

  World() {
    cluster::ClusterConfig cfg;
    cfg.num_nodes = 3;  // 0: app, 1: server, 2: second server
    cl = std::make_unique<cluster::Cluster>(sim, cfg);
    server = std::make_unique<MemoryServer>(cl->node(1));
    sim.spawn(server->serve());
  }
};

TEST(MemoryServer, SwapOutStoresAndAccounts) {
  World w;
  w.cl->node(0).send_to(1, kMemService, 4096,
                        swap_out(0, 7, make_line({1, 2, 3})));
  w.sim.run_until(sec(1));
  EXPECT_EQ(w.server->stored_lines(), 1u);
  EXPECT_EQ(w.server->stored_bytes(), 3 * 24);
  EXPECT_EQ(w.cl->node(1).memory().donated_bytes, 3 * 24);
}

TEST(MemoryServer, SwapInReturnsContentAndFrees) {
  World w;
  bool checked = false;
  auto client = [&](cluster::Node& n) -> sim::Process {
    n.send_to(1, kMemService, 4096, swap_out(0, 7, make_line({5})));
    MemRequest in;
    in.kind = MemRequest::Kind::kSwapIn;
    in.owner = 0;
    in.line_id = 7;
    net::Message rep = co_await call(
        n, net::Message::make(n.id(), 1, kMemService, 32, std::move(in)));
    const auto& reply = rep.as<MemReply>();
    EXPECT_EQ(reply.lines.size(), 1u);
    if (reply.lines.size() == 1 && reply.lines[0].entries.size() == 1) {
      EXPECT_EQ(reply.lines[0].line_id, 7);
      EXPECT_EQ(reply.lines[0].entries[0].count, 5u);
      checked = true;
    }
  };
  w.sim.spawn(client(w.cl->node(0)));
  w.sim.run_until(sec(1));
  EXPECT_TRUE(checked);
  EXPECT_EQ(w.server->stored_lines(), 0u);
  EXPECT_EQ(w.cl->node(1).memory().donated_bytes, 0);
}

TEST(MemoryServer, SwapInTakesAboutTwoPointThreeMs) {
  // Table 4: each pagefault costs 1.90-2.37 ms end to end; the request/reply
  // portion measured here is that minus the app-side message handling.
  World w;
  Time latency = -1;
  auto client = [&](sim::Simulation& s, cluster::Node& n) -> sim::Process {
    n.send_to(1, kMemService, 4096, swap_out(0, 7, make_line({5})));
    co_await s.timeout(msec(50));
    const Time start = s.now();
    MemRequest in;
    in.kind = MemRequest::Kind::kSwapIn;
    in.owner = 0;
    in.line_id = 7;
    (void)co_await call(
        n, net::Message::make(n.id(), 1, kMemService, 32, std::move(in)));
    latency = s.now() - start;
  };
  w.sim.spawn(client(w.sim, w.cl->node(0)));
  w.sim.run_until(sec(1));
  // Unloaded round trip: ~0.25 ms request + 1.0 ms service + ~0.5 ms 4 KB
  // reply. Under load (Table 4) queueing brings the end-to-end fault to the
  // paper's ~2.3 ms; see bench_table4_pagefault_cost.
  EXPECT_GT(latency, usec(1600));
  EXPECT_LT(latency, usec(2100));
}

TEST(MemoryServer, UpdateBatchIncrementsMatchingItemsets) {
  World w;
  mining::HashLine line;
  line.push_back(mining::CountedItemset{mining::Itemset{1, 2}, 0});
  line.push_back(mining::CountedItemset{mining::Itemset{3, 4}, 0});
  w.cl->node(0).send_to(1, kMemService, 4096, swap_out(0, 3, line));

  MemRequest batch;
  batch.kind = MemRequest::Kind::kUpdateBatch;
  batch.owner = 0;
  batch.updates.push_back(UpdateOp{3, mining::Itemset{1, 2}});
  batch.updates.push_back(UpdateOp{3, mining::Itemset{1, 2}});
  batch.updates.push_back(UpdateOp{3, mining::Itemset{9, 10}});  // miss
  w.cl->node(0).send_to(1, kMemService, 48, std::move(batch));

  // Fetch back and inspect.
  std::uint32_t count12 = 999, count34 = 999;
  auto client = [&](cluster::Node& n) -> sim::Process {
    MemRequest f;
    f.kind = MemRequest::Kind::kFetch;
    f.owner = 0;
    net::Message rep = co_await call(
        n, net::Message::make(n.id(), 1, kMemService, 32, std::move(f)));
    for (const LinePayload& p : rep.as<MemReply>().lines) {
      for (const auto& e : p.entries) {
        if (e.items == (mining::Itemset{1, 2})) count12 = e.count;
        if (e.items == (mining::Itemset{3, 4})) count34 = e.count;
      }
    }
  };
  w.sim.spawn(client(w.cl->node(0)));
  w.sim.run_until(sec(1));
  EXPECT_EQ(count12, 2u);
  EXPECT_EQ(count34, 0u);
  EXPECT_EQ(w.server->stored_lines(), 0u);  // fetch releases everything
  EXPECT_EQ(w.cl->node(1).stats().counter("server.updates_applied"), 3);
}

TEST(MemoryServer, FetchIsPerOwner) {
  World w;
  w.cl->node(0).send_to(1, kMemService, 4096, swap_out(0, 1, make_line({1})));
  w.cl->node(2).send_to(1, kMemService, 4096, swap_out(2, 9, make_line({2})));
  std::size_t fetched = 99;
  auto client = [&](cluster::Node& n) -> sim::Process {
    MemRequest f;
    f.kind = MemRequest::Kind::kFetch;
    f.owner = 0;
    net::Message rep = co_await call(
        n, net::Message::make(n.id(), 1, kMemService, 32, std::move(f)));
    fetched = rep.as<MemReply>().lines.size();
  };
  w.sim.spawn(client(w.cl->node(0)));
  w.sim.run_until(sec(1));
  EXPECT_EQ(fetched, 1u);
  EXPECT_EQ(w.server->stored_lines(), 1u);  // node 2's line remains
}

TEST(MemoryServer, RequestsAreServedSequentially) {
  // 16 swap-ins from two clients: the server's single CPU serializes them,
  // the effect behind the Figure 3 bottleneck.
  World w;
  for (LineId id = 0; id < 16; ++id) {
    w.cl->node(0).send_to(1, kMemService, 4096,
                          swap_out(0, id, make_line({1})));
  }
  w.sim.run_until(sec(1));
  std::vector<Time> finish;
  auto client = [&](sim::Simulation& s, cluster::Node& n, LineId id)
      -> sim::Process {
    MemRequest in;
    in.kind = MemRequest::Kind::kSwapIn;
    in.owner = 0;
    in.line_id = id;
    (void)co_await call(
        n, net::Message::make(n.id(), 1, kMemService, 32, std::move(in)));
    finish.push_back(s.now());
  };
  const Time t0 = w.sim.now();
  for (LineId id = 0; id < 16; ++id) {
    w.sim.spawn(client(w.sim, w.cl->node(id % 2 == 0 ? 0 : 2), id));
  }
  w.sim.run_until(sec(10));
  ASSERT_EQ(finish.size(), 16u);
  // The single server CPU serializes all 16 swap-in services.
  EXPECT_GT(finish.back() - t0, w.cl->node(1).costs().swap_service * 16);
}

TEST(MemoryServer, MigrateDirectiveMovesLinesToDestination) {
  World w;
  auto server2 = std::make_unique<MemoryServer>(w.cl->node(2));
  w.sim.spawn(server2->serve());

  for (LineId id = 0; id < 5; ++id) {
    w.cl->node(0).send_to(1, kMemService, 4096,
                          swap_out(0, id, make_line({static_cast<std::uint32_t>(id)})));
  }
  std::vector<LineId> migrated;
  auto client = [&](cluster::Node& n) -> sim::Process {
    co_await n.sim().timeout(msec(10));
    MemRequest d;
    d.kind = MemRequest::Kind::kMigrateDirective;
    d.owner = 0;
    d.migrate_dest = 2;
    d.migrate_lines = {0, 1, 2, 3, 4, 777};  // 777 was never swapped out
    net::Message rep = co_await call(
        n, net::Message::make(n.id(), 1, kMemService, 64, std::move(d)));
    migrated = rep.as<MemReply>().migrated;
  };
  w.sim.spawn(client(w.cl->node(0)));
  w.sim.run_until(sec(2));

  EXPECT_EQ(migrated, (std::vector<LineId>{0, 1, 2, 3, 4}));
  EXPECT_EQ(w.server->stored_lines(), 0u);
  EXPECT_EQ(server2->stored_lines(), 5u);
  EXPECT_EQ(w.cl->node(1).memory().donated_bytes, 0);
  EXPECT_EQ(w.cl->node(2).memory().donated_bytes, 5 * 24);

  // Content survives the move with counts intact.
  std::uint32_t count3 = 999;
  auto fetcher = [&](cluster::Node& n) -> sim::Process {
    MemRequest f;
    f.kind = MemRequest::Kind::kFetch;
    f.owner = 0;
    net::Message rep = co_await call(
        n, net::Message::make(n.id(), 2, kMemService, 32, std::move(f)));
    for (const LinePayload& p : rep.as<MemReply>().lines) {
      if (p.line_id == 3) count3 = p.entries[0].count;
    }
  };
  w.sim.spawn(fetcher(w.cl->node(0)));
  w.sim.run_until(sec(3));
  EXPECT_EQ(count3, 3u);
}

TEST(MemoryServer, LineKeysNeverCollideAcrossOwners) {
  // Regression: the store used to key lines by (owner << 40) ^ line_id, so
  // owner 0 with a line id >= 2^40 collided with another owner's small id.
  // Per-owner maps make the pair the key; both lines must coexist.
  World w;
  const LineId big = (LineId{2} << 40) ^ 5;  // == old key of (owner 2, line 5)
  w.cl->node(0).send_to(1, kMemService, 4096, swap_out(0, big, make_line({7})));
  w.cl->node(2).send_to(1, kMemService, 4096, swap_out(2, 5, make_line({9})));
  w.sim.run_until(sec(1));
  ASSERT_EQ(w.server->stored_lines(), 2u);

  std::uint32_t got0 = 0, got2 = 0;
  auto client = [&](cluster::Node& n, net::NodeId owner, LineId id,
                    std::uint32_t& out) -> sim::Process {
    MemRequest in;
    in.kind = MemRequest::Kind::kSwapIn;
    in.owner = owner;
    in.line_id = id;
    net::Message rep = co_await call(
        n, net::Message::make(n.id(), 1, kMemService, 32, std::move(in)));
    const auto& reply = rep.as<MemReply>();
    EXPECT_TRUE(reply.ok);
    EXPECT_EQ(reply.lines.size(), 1u);
    if (reply.ok && reply.lines.size() == 1 &&
        !reply.lines[0].entries.empty()) {
      out = reply.lines[0].entries[0].count;
    }
  };
  w.sim.spawn(client(w.cl->node(0), 0, big, got0));
  w.sim.spawn(client(w.cl->node(2), 2, 5, got2));
  w.sim.run_until(sec(2));
  EXPECT_EQ(got0, 7u);
  EXPECT_EQ(got2, 9u);
}

TEST(MemoryServer, SwapInForUnknownLineRepliesNotOk) {
  World w;
  bool checked = false;
  auto client = [&](cluster::Node& n) -> sim::Process {
    MemRequest in;
    in.kind = MemRequest::Kind::kSwapIn;
    in.owner = 0;
    in.line_id = 42;  // never swapped out
    net::Message rep = co_await call(
        n, net::Message::make(n.id(), 1, kMemService, 32, std::move(in)));
    const auto& reply = rep.as<MemReply>();
    EXPECT_FALSE(reply.ok);
    EXPECT_TRUE(reply.lines.empty());
    checked = true;
  };
  w.sim.spawn(client(w.cl->node(0)));
  w.sim.run_until(sec(1));
  EXPECT_TRUE(checked);
  EXPECT_EQ(w.cl->node(1).stats().counter("server.swap_in_misses"), 1);
}

TEST(MemoryServer, ReplicaIsInvisibleUntilPromoted) {
  World w;
  MemRequest rep_store = swap_out(0, 7, make_line({5}));
  rep_store.kind = MemRequest::Kind::kReplicaStore;
  w.cl->node(0).send_to(1, kMemService, 4096, std::move(rep_store));
  w.sim.run_until(sec(1));
  EXPECT_EQ(w.server->stored_lines(), 0u);
  EXPECT_EQ(w.server->replica_lines(), 1u);

  bool missed = false;
  std::uint32_t promoted_count = 0;
  std::vector<LineId> promoted;
  auto client = [&](cluster::Node& n) -> sim::Process {
    // A backup copy must not answer swap-ins.
    MemRequest in;
    in.kind = MemRequest::Kind::kSwapIn;
    in.owner = 0;
    in.line_id = 7;
    net::Message r1 = co_await call(
        n, net::Message::make(n.id(), 1, kMemService, 32, std::move(in)));
    missed = !r1.as<MemReply>().ok;

    // Promote, then the same swap-in succeeds with the replica's content.
    MemRequest prom;
    prom.kind = MemRequest::Kind::kReplicaPromote;
    prom.owner = 0;
    prom.migrate_lines = {7};
    net::Message r2 = co_await call(
        n, net::Message::make(n.id(), 1, kMemService, 32, std::move(prom)));
    EXPECT_TRUE(r2.as<MemReply>().ok);
    promoted = r2.as<MemReply>().migrated;

    MemRequest again;
    again.kind = MemRequest::Kind::kSwapIn;
    again.owner = 0;
    again.line_id = 7;
    net::Message r3 = co_await call(
        n, net::Message::make(n.id(), 1, kMemService, 32, std::move(again)));
    const auto& r3rep = r3.as<MemReply>();
    EXPECT_TRUE(r3rep.ok);
    if (r3rep.ok && r3rep.lines.size() == 1 &&
        !r3rep.lines[0].entries.empty()) {
      promoted_count = r3rep.lines[0].entries[0].count;
    }
  };
  w.sim.spawn(client(w.cl->node(0)));
  w.sim.run_until(sec(2));
  EXPECT_TRUE(missed);
  EXPECT_EQ(promoted, (std::vector<LineId>{7}));
  EXPECT_EQ(promoted_count, 5u);
  EXPECT_EQ(w.server->replica_lines(), 0u);
  EXPECT_EQ(w.cl->node(1).stats().counter("server.replica_promotions"), 1);
}

TEST(MemoryServer, ReplicaDropDiscardsBackups) {
  World w;
  for (LineId id = 0; id < 3; ++id) {
    MemRequest r = swap_out(0, id, make_line({1}));
    r.kind = MemRequest::Kind::kReplicaStore;
    w.cl->node(0).send_to(1, kMemService, 4096, std::move(r));
  }
  w.sim.run_until(sec(1));
  ASSERT_EQ(w.server->replica_lines(), 3u);

  MemRequest one;
  one.kind = MemRequest::Kind::kReplicaDrop;
  one.owner = 0;
  one.line_id = 1;
  w.cl->node(0).send_to(1, kMemService, 32, std::move(one));
  w.sim.run_until(sec(2));
  EXPECT_EQ(w.server->replica_lines(), 2u);

  MemRequest all;
  all.kind = MemRequest::Kind::kReplicaDrop;
  all.owner = 0;
  all.line_id = -1;  // every replica of this owner
  w.cl->node(0).send_to(1, kMemService, 32, std::move(all));
  w.sim.run_until(sec(3));
  EXPECT_EQ(w.server->replica_lines(), 0u);
  EXPECT_EQ(w.cl->node(1).memory().donated_bytes, 0);
}

TEST(MemoryServer, CrashWipesTheStoreAndRestartAnswersNotOk) {
  World w;
  w.cl->node(0).send_to(1, kMemService, 4096, swap_out(0, 7, make_line({5})));
  MemRequest rep = swap_out(0, 8, make_line({6}));
  rep.kind = MemRequest::Kind::kReplicaStore;
  w.cl->node(0).send_to(1, kMemService, 4096, std::move(rep));
  w.sim.run_until(sec(1));
  ASSERT_EQ(w.server->stored_lines(), 1u);
  ASSERT_EQ(w.server->replica_lines(), 1u);

  w.cl->node(1).crash();
  EXPECT_EQ(w.server->stored_lines(), 0u);
  EXPECT_EQ(w.server->replica_lines(), 0u);
  EXPECT_EQ(w.server->stored_bytes(), 0);
  EXPECT_EQ(w.cl->node(1).memory().donated_bytes, 0);
  w.cl->node(1).restart();

  // The restarted (empty) server must answer, not abort.
  bool checked = false;
  auto client = [&](cluster::Node& n) -> sim::Process {
    MemRequest in;
    in.kind = MemRequest::Kind::kSwapIn;
    in.owner = 0;
    in.line_id = 7;
    net::Message r = co_await call(
        n, net::Message::make(n.id(), 1, kMemService, 32, std::move(in)));
    EXPECT_FALSE(r.as<MemReply>().ok);
    checked = true;
  };
  w.sim.spawn(client(w.cl->node(0)));
  w.sim.run_until(sec(2));
  EXPECT_TRUE(checked);
}

}  // namespace
}  // namespace rms::core

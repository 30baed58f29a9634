// Cluster runtime tests: node wiring, loopback, CPU serialization,
// mailbox tag demultiplexing, and the request/reply helper.
#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "sim/process.hpp"
#include "sim/simulation.hpp"

namespace rms::cluster {
namespace {

struct Ping {
  int value = 0;
};

ClusterConfig small_config(std::size_t n = 4) {
  ClusterConfig c;
  c.num_nodes = n;
  return c;
}

// One round trip under a deadline far beyond every test's horizon, so it
// behaves like an unbounded wait; a missing reply fails the test.
sim::Task<net::Message> call(Node& n, net::Message msg) {
  RpcResult r = co_await n.request_with_deadline(std::move(msg), sec(30));
  RMS_CHECK_MSG(r.reply.has_value(), "request timed out");
  co_return std::move(*r.reply);
}

TEST(Cluster, BuildsNodesWithIds) {
  sim::Simulation sim;
  Cluster cl(sim, small_config(5));
  EXPECT_EQ(cl.size(), 5u);
  for (NodeId i = 0; i < 5; ++i) EXPECT_EQ(cl.node(i).id(), i);
}

TEST(Cluster, MessageBetweenNodesArrivesViaMailbox) {
  sim::Simulation sim;
  Cluster cl(sim, small_config());
  int got = 0;
  auto receiver = [](Node& n, int& out) -> sim::Process {
    net::Message m = co_await n.mailbox().recv(7);
    out = m.as<Ping>().value;
    EXPECT_EQ(m.src, 0);
  };
  sim.spawn(receiver(cl.node(1), got));
  cl.node(0).send_to<Ping>(1, 7, 64, Ping{99});
  sim.run();
  EXPECT_EQ(got, 99);
}

TEST(Cluster, LoopbackSkipsTheWire) {
  sim::Simulation sim;
  Cluster cl(sim, small_config());
  Time arrival = -1;
  auto receiver = [](sim::Simulation& s, Node& n, Time& at) -> sim::Process {
    (void)co_await n.mailbox().recv(3);
    at = s.now();
  };
  sim.spawn(receiver(sim, cl.node(2), arrival));
  cl.node(2).send_to<Ping>(2, 3, 4096, Ping{1});
  sim.run();
  EXPECT_EQ(arrival, 0);  // instantaneous delivery, no network events
  EXPECT_EQ(cl.network().stats().counter("net.messages"), 0);
  EXPECT_EQ(cl.node(2).stats().counter("node.loopback_messages"), 1);
}

TEST(Cluster, MailboxDemultiplexesTags) {
  sim::Simulation sim;
  Cluster cl(sim, small_config());
  std::vector<int> tag5, tag6;
  auto rx5 = [](Node& n, std::vector<int>& out) -> sim::Process {
    for (int i = 0; i < 2; ++i) {
      out.push_back((co_await n.mailbox().recv(5)).as<Ping>().value);
    }
  };
  auto rx6 = [](Node& n, std::vector<int>& out) -> sim::Process {
    out.push_back((co_await n.mailbox().recv(6)).as<Ping>().value);
  };
  sim.spawn(rx5(cl.node(1), tag5));
  sim.spawn(rx6(cl.node(1), tag6));
  cl.node(0).send_to<Ping>(1, 5, 32, Ping{50});
  cl.node(0).send_to<Ping>(1, 6, 32, Ping{60});
  cl.node(0).send_to<Ping>(1, 5, 32, Ping{51});
  sim.run();
  EXPECT_EQ(tag5, (std::vector<int>{50, 51}));
  EXPECT_EQ(tag6, (std::vector<int>{60}));
}

TEST(Cluster, ComputeSerializesOnNodeCpu) {
  sim::Simulation sim;
  Cluster cl(sim, small_config());
  std::vector<Time> done;
  auto worker = [](sim::Simulation& s, Node& n, std::vector<Time>& out)
      -> sim::Process {
    co_await n.compute(msec(10));
    out.push_back(s.now());
  };
  sim.spawn(worker(sim, cl.node(0), done));
  sim.spawn(worker(sim, cl.node(0), done));  // same node: serialized
  sim.spawn(worker(sim, cl.node(1), done));  // different node: parallel
  sim.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0], msec(10));
  EXPECT_EQ(done[1], msec(10));  // node 1 overlaps with node 0's first job
  EXPECT_EQ(done[2], msec(20));  // node 0's second job waited
}

TEST(Cluster, RequestReplyRoundTrip) {
  sim::Simulation sim;
  Cluster cl(sim, small_config());
  auto server = [](Node& n) -> sim::Process {
    net::Message req = co_await n.mailbox().recv(9);
    n.reply(req, 64, Ping{req.as<Ping>().value * 2});
  };
  int answer = 0;
  Time rtt = -1;
  auto client = [](sim::Simulation& s, Node& n, int& out, Time& t)
      -> sim::Process {
    const Time start = s.now();
    net::Message rep = co_await call(
        n, net::Message::make(n.id(), 1, 9, 32, Ping{21}));
    out = rep.as<Ping>().value;
    t = s.now() - start;
  };
  sim.spawn(server(cl.node(1)));
  sim.spawn(client(sim, cl.node(0), answer, rtt));
  sim.run();
  EXPECT_EQ(answer, 42);
  EXPECT_GT(rtt, usec(400));  // ~the calibrated small-message RTT
  EXPECT_LT(rtt, usec(700));
}

TEST(Cluster, ConcurrentRequestsGetDistinctReplies) {
  sim::Simulation sim;
  Cluster cl(sim, small_config());
  auto server = [](Node& n) -> sim::Process {
    for (;;) {
      net::Message req = co_await n.mailbox().recv(9);
      n.reply(req, 64, Ping{req.as<Ping>().value + 100});
    }
  };
  std::vector<int> answers(3, 0);
  auto client = [](Node& n, int v, int& out) -> sim::Process {
    net::Message rep =
        co_await call(n, net::Message::make(n.id(), 3, 9, 32, Ping{v}));
    out = rep.as<Ping>().value;
  };
  sim.spawn(server(cl.node(3)));
  for (int i = 0; i < 3; ++i) {
    sim.spawn(client(cl.node(0), i, answers[static_cast<std::size_t>(i)]));
  }
  sim.run();
  EXPECT_EQ(answers, (std::vector<int>{100, 101, 102}));
}

TEST(Cluster, HostMemoryModelAccounting) {
  HostMemoryModel m;
  const std::int64_t initial = m.available();
  EXPECT_EQ(initial, (64LL << 20) - (24LL << 20));
  m.donated_bytes = 10 << 20;
  EXPECT_EQ(m.available(), initial - (10 << 20));
  m.external_bytes = m.total_bytes;  // withdrawal: everything consumed
  EXPECT_EQ(m.available(), 0);
}

}  // namespace
}  // namespace rms::cluster

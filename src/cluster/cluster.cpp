#include "cluster/cluster.hpp"

#include "obs/trace.hpp"
#include "transport/tags.hpp"

namespace rms::cluster {

// Reply-tag layout (window base/size, round-robin wrap) is defined by the
// transport TagRegistry; request_with_deadline relies on a stale reply never
// landing on a tag that was reissued to a different call, which the
// per-node 8M-tag window plus mailbox retirement guarantees.
namespace {
constexpr Tag kReplyTagBase = transport::TagRegistry::kReplyTagBase;
constexpr Tag kReplyTagWindow = transport::TagRegistry::kReplyTagWindow;
}  // namespace

Node::Node(Cluster& cluster, NodeId id)
    : cluster_(cluster),
      id_(id),
      mailbox_(cluster.sim()),
      cpu_(std::make_unique<sim::Resource>(cluster.sim(), 1)),
      next_reply_tag_(transport::TagRegistry::reply_window_start(id)) {
  // The last tag of node id's window is (id + 2) * 2^23 - 1; it must fit Tag.
  RMS_CHECK_MSG(id >= 0 && id <= 254, "node id out of the reply-tag range");
  const ClusterConfig& cfg = cluster.config();
  const auto seed = cfg.seed ^ (0x9e37u + static_cast<std::uint64_t>(id));
  data_disk_ = std::make_unique<disk::Disk>(cluster.sim(), cfg.data_disk, seed);
  swap_disk_ =
      std::make_unique<disk::Disk>(cluster.sim(), cfg.swap_disk, seed * 31);
}

sim::Simulation& Node::sim() { return cluster_.sim(); }

const CostModel& Node::costs() const { return cluster_.config().costs; }

sim::Task<> Node::compute(Time t) {
  RMS_CHECK(t >= 0);
  const Time started = sim().now();
  auto lease = co_await cpu_->acquire();
  co_await sim().timeout(t);
  if (profile_hook_ != nullptr) {
    // The interval includes cpu queueing: the caller's wall time, which is
    // what per-pass attribution accounts for.
    profile_hook_->on_busy(id_, obs::EventKind::kCompute, started, sim().now());
  }
}

void Node::set_profile_hook(obs::ProfileHook* hook) {
  profile_hook_ = hook;
  data_disk_->set_profile_hook(hook, id_);
  swap_disk_->set_profile_hook(hook, id_);
}

void Node::send(net::Message msg) {
  RMS_CHECK(msg.src == id_);
  if (!alive_) {
    // A crashed node is silent: its monitor broadcasts, replies and data
    // pushes all vanish until restart().
    stats_.bump("node.tx_dropped_dead");
    return;
  }
  stats_.bump("node.messages_sent");
  if (msg.dst == id_) {
    // Loopback: no wire, straight into the local mailbox.
    stats_.bump("node.loopback_messages");
    if (!mailbox_.deliver(std::move(msg))) {
      stats_.bump("node.late_replies_dropped");
    }
    return;
  }
  cluster_.network().send(std::move(msg));
}

Tag Node::alloc_reply_tag() {
  const Tag tag = next_reply_tag_;
  // Wrap within this node's private window.
  next_reply_tag_ = kReplyTagBase + id_ * kReplyTagWindow +
                    (next_reply_tag_ - kReplyTagBase - id_ * kReplyTagWindow +
                     1) % kReplyTagWindow;
  mailbox_.open_reply(tag);
  return tag;
}

sim::Task<RpcResult> Node::request_with_deadline(net::Message msg,
                                                 Time deadline,
                                                 int max_retries) {
  RMS_CHECK(deadline > 0);
  RMS_CHECK(max_retries >= 0);
  const Tag reply_tag = alloc_reply_tag();
  msg.reply_tag = reply_tag;

  RpcResult out;
  out.attempts = 0;
  Time wait = deadline;
  for (int attempt = 0; attempt <= max_retries; ++attempt) {
    ++out.attempts;
    send(msg);  // a retry re-sends a copy on the same reply tag
    // Arm the deadline: a loopback sentinel on the reply tag, suppressed if
    // the real reply lands first. Each attempt has its own settled flag, so
    // a sentinel can never be mistaken for a later attempt's timeout.
    auto settled = std::make_shared<bool>(false);
    sim().call_at(sim().now() + wait, [this, reply_tag, settled] {
      if (*settled) return;
      mailbox_.deliver(
          net::Message::make(id_, id_, reply_tag, 0, RpcTimeout{}));
    });
    net::Message r = co_await mailbox_.recv(reply_tag);
    *settled = true;
    if (!r.is<RpcTimeout>()) {
      out.reply.emplace(std::move(r));
      break;
    }
    stats_.bump("node.rpc_deadline_misses");
    if (attempt < max_retries) {
      stats_.bump("node.rpc_retries");
      wait *= 2;  // exponential backoff
    }
  }
  // Retire the tag: drain whatever straggled in (late duplicates' replies,
  // an unsuppressed sentinel), release the channel, and stop admitting
  // further deliveries — anything still in flight for this call is dropped
  // on arrival and counted under node.late_replies_dropped.
  mailbox_.retire_reply(reply_tag);
  co_return out;
}

void Node::crash() {
  RMS_CHECK_MSG(alive_, "crash() on a node that is already down");
  alive_ = false;
  ++epoch_;
  stats_.bump("node.crashes");
  for (const auto& fn : crash_hooks_) fn();
}

void Node::restart() {
  RMS_CHECK_MSG(!alive_, "restart() on a node that is up");
  alive_ = true;
  stats_.bump("node.restarts");
}

Cluster::Cluster(sim::Simulation& sim, ClusterConfig config)
    : sim_(sim),
      config_(std::move(config)),
      network_(sim, config_.num_nodes, config_.link) {
  RMS_CHECK(config_.num_nodes >= 1);
  nodes_.reserve(config_.num_nodes);
  for (std::size_t i = 0; i < config_.num_nodes; ++i) {
    nodes_.push_back(std::make_unique<Node>(*this, static_cast<NodeId>(i)));
    Node* node = nodes_.back().get();
    network_.set_delivery(static_cast<NodeId>(i), [node](net::Message m) {
      if (!node->alive()) {
        // In-flight traffic addressed to a crashed node is dropped on the
        // floor — the senders' deadlines are what notice.
        node->stats().bump("node.rx_dropped_dead");
        return;
      }
      if (!node->mailbox().deliver(std::move(m))) {
        // A reply that lost its race against the caller's deadline: the RPC
        // already settled and retired the tag.
        node->stats().bump("node.late_replies_dropped");
      }
    });
  }
}

}  // namespace rms::cluster

// Cluster: the simulated ATM-connected PC cluster.
//
// Each Node models one PC of the pilot system (Table 1 of the paper): a
// 200 MHz Pentium Pro charged through CostModel, 64 MB of RAM tracked by
// HostMemoryModel, an IDE data disk and a SCSI swap disk, and one 155 Mbps
// switch port. Nodes exchange messages through Network/Mailbox; a loopback
// send bypasses the wire but still pays the local protocol-stack cost.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/stats.hpp"
#include "common/time.hpp"
#include "disk/disk.hpp"
#include "net/network.hpp"
#include "cluster/mailbox.hpp"
#include "sim/process.hpp"
#include "sim/resource.hpp"
#include "sim/simulation.hpp"
#include "sim/task.hpp"

namespace rms::obs {
class ProfileHook;
enum class EventKind : std::uint8_t;
}  // namespace rms::obs

namespace rms::cluster {

using net::NodeId;
using net::Tag;

/// CPU cost constants for the 200 MHz Pentium Pro nodes. All virtual-time
/// charging flows through these so the whole timing model is calibrated in
/// one place (see DESIGN.md §5 for the calibration targets).
struct CostModel {
  Time per_tx_parse = usec(12);        // decode one transaction from a block
  Time per_itemset_generate = usec(4); // form a k-subset, hash, enqueue
  Time per_probe = usec(20);           // hash-line search + count increment
  Time per_candidate_gen = usec(4);    // join/prune + hash-partition of one candidate
  Time per_message_cpu = usec(150);    // TCP/TLI stack, per message, each side
  // Memory server CPU per swap request. Calibrated so the *loaded* derived
  // pagefault cost (paper Table 4: Diff/Max ~ 2.3 ms) comes out right: the
  // paper's 1.5 ms "swapping operations cost" residual includes the queueing
  // this simulation models explicitly.
  Time swap_service = usec(1000);
  Time per_update_apply = usec(24);    // memory server: apply one remote update
  Time monitor_sample = usec(400);     // netstat -k kernel statistics read
  Time context_switch = usec(50);
};

/// Occupancy of a node's 64 MB of physical memory. The availability monitor
/// samples this (the simulated `netstat -k`), and fault injection raises
/// `external_bytes` to model "some other processes begin their execution on
/// a memory available node" (§4.2).
struct HostMemoryModel {
  std::int64_t total_bytes = 64LL << 20;
  std::int64_t base_bytes = 24LL << 20;   // OS + resident daemons
  std::int64_t external_bytes = 0;        // injected foreign load
  std::int64_t donated_bytes = 0;         // held swapped-out hash lines

  std::int64_t available() const {
    const std::int64_t used = base_bytes + external_bytes + donated_bytes;
    return used >= total_bytes ? 0 : total_bytes - used;
  }
};

class Cluster;

/// Loopback sentinel a deadline timer deposits on an RPC's reply tag when no
/// reply arrived in time (see Node::request_with_deadline).
struct RpcTimeout {};

/// Outcome of a deadline-bounded RPC. `reply` is empty when every attempt
/// timed out — the callee is presumed crashed.
struct RpcResult {
  std::optional<net::Message> reply;
  int attempts = 1;
  bool ok() const { return reply.has_value(); }
};

class Node {
 public:
  Node(Cluster& cluster, NodeId id);

  NodeId id() const { return id_; }
  Cluster& cluster() { return cluster_; }
  sim::Simulation& sim();
  Mailbox& mailbox() { return mailbox_; }
  HostMemoryModel& memory() { return memory_; }
  const CostModel& costs() const;
  StatsRegistry& stats() { return stats_; }

  disk::Disk& data_disk() { return *data_disk_; }
  disk::Disk& swap_disk() { return *swap_disk_; }

  /// Charge CPU time on this node (single CPU: concurrent processes on the
  /// same node serialize here).
  sim::Task<> compute(Time t);

  /// Feed every CPU charge and disk access on this node to `hook` as busy
  /// intervals (obs profiler; too hot for the trace ring). Null detaches.
  void set_profile_hook(obs::ProfileHook* hook);

  /// Send a message (loopback delivers directly, paying only CPU cost).
  void send(net::Message msg);

  /// Build-and-send convenience.
  template <typename T>
  void send_to(NodeId dst, Tag tag, std::int64_t bytes, T body) {
    send(net::Message::make(id_, dst, tag, bytes, std::move(body)));
  }

  /// Round-trip request: sends to `dst` carrying a unique reply tag and
  /// waits for the reply (the callee answers with `reply(request, ...)`),
  /// with a per-attempt deadline, bounded retry, and exponential backoff
  /// (the deadline doubles each retry). The reply tag is stable across
  /// attempts, so a slow reply to an earlier attempt still completes the
  /// call; retransmitted requests are therefore duplicates the
  /// callee must tolerate. Returns an empty `reply` only after every attempt
  /// (`1 + max_retries` sends) timed out — at which point the callee is
  /// treated as crashed by the failover layer.
  sim::Task<RpcResult> request_with_deadline(net::Message msg, Time deadline,
                                             int max_retries = 0);

  // ---- Crash-stop failure model ----
  // A crashed node loses its volatile state (its services register on_crash
  // hooks to wipe it), stops sending (monitor broadcasts, replies), and
  // drops everything arriving on its switch port. restart() brings the node
  // back empty; the epoch counter lets suspended request handlers detect
  // that the world was wiped underneath them and abandon.
  bool alive() const { return alive_; }
  std::uint64_t epoch() const { return epoch_; }
  void crash();
  void restart();
  void on_crash(std::function<void()> fn) {
    crash_hooks_.push_back(std::move(fn));
  }

  /// Answer a request sent via `request_with_deadline()` (directly or
  /// through transport::Transport::call).
  template <typename T>
  void reply(const net::Message& req, std::int64_t bytes, T body) {
    RMS_CHECK_MSG(req.reply_tag >= 0, "reply() to a one-way message");
    send(net::Message::make(id_, req.src, req.reply_tag, bytes,
                            std::move(body)));
  }

 private:
  Tag alloc_reply_tag();

  Cluster& cluster_;
  NodeId id_;
  Mailbox mailbox_;
  HostMemoryModel memory_;
  std::unique_ptr<sim::Resource> cpu_;
  std::unique_ptr<disk::Disk> data_disk_;
  std::unique_ptr<disk::Disk> swap_disk_;
  StatsRegistry stats_;
  Tag next_reply_tag_;
  bool alive_ = true;
  std::uint64_t epoch_ = 0;
  std::vector<std::function<void()>> crash_hooks_;
  obs::ProfileHook* profile_hook_ = nullptr;
};

struct ClusterConfig {
  std::size_t num_nodes = 24;  // application + memory-available nodes
  net::LinkParams link = net::LinkParams::atm155();
  CostModel costs;
  disk::DiskParams data_disk = disk::DiskParams::caviar_ide();
  disk::DiskParams swap_disk = disk::DiskParams::barracuda_7200();
  std::uint64_t seed = 1;
};

class Cluster {
 public:
  Cluster(sim::Simulation& sim, ClusterConfig config);

  sim::Simulation& sim() { return sim_; }
  net::Network& network() { return network_; }
  const ClusterConfig& config() const { return config_; }

  std::size_t size() const { return nodes_.size(); }
  Node& node(NodeId id) {
    RMS_CHECK(id >= 0 && static_cast<std::size_t>(id) < nodes_.size());
    return *nodes_[static_cast<std::size_t>(id)];
  }

 private:
  sim::Simulation& sim_;
  ClusterConfig config_;
  net::Network network_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace rms::cluster

#include "core/remote_backend.hpp"

#include <algorithm>
#include <map>
#include <string>

#include "obs/trace.hpp"

namespace rms::core {

namespace {
std::string ns_key(const char* ns, const char* leaf) {
  return std::string("backend.") + ns + "." + leaf;
}
}  // namespace

RemoteBackend::RemoteBackend(HashLineStore& store, Options options,
                             const char* stat_ns)
    : SwapBackend(store),
      node_(store.node()),
      update_mode_(options.update_mode),
      name_(stat_ns),
      broker_(store.broker()),
      xport_(store.node(),
             transport::TransportOptions{store.config().rpc_deadline,
                                         store.config().rpc_max_retries,
                                         store.config().rpc_window,
                                         store.config().trace}),
      fallback_(std::make_unique<DiskBackend>(store)),
      updates_sent_(&store.stats_mut().slot("store.updates_sent")),
      lines_migrated_(&store.stats_mut().slot("store.lines_migrated")),
      swap_outs_(&store.stats_mut().slot(ns_key(stat_ns, "swap_outs"))),
      faults_(&store.stats_mut().slot(ns_key(stat_ns, "faults"))),
      degraded_(&store.stats_mut().slot(ns_key(stat_ns, "degraded_to_disk"))) {
  RMS_CHECK_MSG(broker_ != nullptr,
                "remote backends need a placement::MemoryBroker");
  // In-band timeout verdicts: a peer that exhausts every attempt is marked
  // suspect the moment the last deadline expires, before the failed call
  // even returns to its caller. The transport latches the episode, so a
  // window full of concurrent failures to one crashed peer fires this once.
  xport_.set_on_failure([this](net::NodeId peer) { declare_dead(peer); });
}

std::size_t RemoteBackend::lines_at(net::NodeId holder) const {
  const auto it = lines_by_holder_.find(holder);
  return it == lines_by_holder_.end() ? 0 : it->second.size();
}

std::size_t RemoteBackend::replicas_at(net::NodeId holder) const {
  const auto it = replicas_by_holder_.find(holder);
  return it == replicas_by_holder_.end() ? 0 : it->second.size();
}

std::size_t RemoteBackend::remote_lines() const {
  std::size_t n = 0;
  for (const auto& [holder, ids] : lines_by_holder_) n += ids.size();
  return n;
}

std::size_t RemoteBackend::disk_lines() const {
  return fallback_->disk_lines();
}

std::int64_t RemoteBackend::outstanding_rpcs() const {
  return xport_.in_flight();
}

std::vector<net::NodeId> RemoteBackend::sorted_holders() const {
  std::vector<net::NodeId> holders;
  for (const auto& [holder, ids] : lines_by_holder_) {
    if (!ids.empty()) holders.push_back(holder);
  }
  std::sort(holders.begin(), holders.end());
  return holders;
}

void RemoteBackend::hold_insert(net::NodeId holder, LineId id) {
  if (lines_by_holder_[holder].insert(id).second) {
    remote_bytes_ += store_.line(id).bytes;
    // Tenant arbitration: the donated footprint grows exactly when a
    // primary copy lands on a donor. Migration nets to zero (erase + insert
    // of the same bytes), so the ledger tracks real occupancy.
    broker_->tenant_charge(store_.line(id).bytes);
  }
}

void RemoteBackend::hold_erase(net::NodeId holder, LineId id) {
  const auto it = lines_by_holder_.find(holder);
  if (it != lines_by_holder_.end() && it->second.erase(id) > 0) {
    remote_bytes_ -= store_.line(id).bytes;
    broker_->tenant_release(store_.line(id).bytes);
  }
}

// ---------------------------------------------------------------------------
// Failover machinery
// ---------------------------------------------------------------------------

sim::Task<cluster::RpcResult> RemoteBackend::rpc(net::Message msg) {
  // Annotate the call's trace span with the protocol op (profiler RPC split).
  const std::int64_t op =
      msg.is<MemRequest>() ? rpc_op(msg.as<MemRequest>().kind) : 0;
  cluster::RpcResult res = co_await xport_.call(std::move(msg), op);
  note_attempts(res);
  co_return res;
}

void RemoteBackend::note_attempts(const cluster::RpcResult& res) {
  failover().rpc_retries += res.attempts - 1;
  // Every attempt but a successful last one expired its deadline.
  failover().deadline_misses += res.ok() ? res.attempts - 1 : res.attempts;
}

void RemoteBackend::declare_dead(net::NodeId holder) {
  if (!suspected_.insert(holder).second) return;
  ++failover().suspicions;
  node_.stats().bump("store.suspicions");
  if (broker_ != nullptr && !broker_->dead(holder)) broker_->mark_dead(holder);
  if (obs::TraceRecorder* trace = store_.config().trace) {
    trace->instant(obs::EventKind::kSuspicion, node_.id(), node_.sim().now(),
                   holder);
  }
}

bool RemoteBackend::holder_suspect(net::NodeId holder) {
  if (suspected_.count(holder) == 0) return false;
  if (broker_ != nullptr && !broker_->dead(holder)) {
    // The broker accepted a newer heartbeat: the node restarted
    // (its store wiped — our lines there were already re-homed). Forgive,
    // re-arming the transport's failure latch so a relapse re-fires
    // declare_dead.
    suspected_.erase(holder);
    xport_.forgive(holder);
    return false;
  }
  return true;
}

void RemoteBackend::orphan_line(LineId id) {
  store_.orphan_accounting(id);
  const auto pend = pending_updates_.find(id);
  if (pend != pending_updates_.end()) {
    failover().lost_update_ops +=
        static_cast<std::int64_t>(pend->second.size());
    pending_updates_.erase(pend);
  }
}

void RemoteBackend::drop_backup(LineId id) {
  auto& l = store_.line(id);
  if (l.backup < 0) return;
  replicas_by_holder_[l.backup].erase(id);
  if (!holder_suspect(l.backup)) send_replica_drop(l.backup, id);
  l.backup = -1;
}

void RemoteBackend::send_replica_drop(net::NodeId backup, LineId id) {
  MemRequest req;
  req.kind = MemRequest::Kind::kReplicaDrop;
  req.owner = node_.id();
  req.line_id = id;
  node_.send_to(backup, kMemService, 16, std::move(req));
}

sim::Task<> RemoteBackend::recover_lost_line(LineId id, RecoverCause cause) {
  auto& l = store_.line(id);
  if (l.backup >= 0) {
    const net::NodeId backup = l.backup;
    replicas_by_holder_[backup].erase(id);
    l.backup = -1;
    if (!holder_suspect(backup)) {
      MemRequest req;
      req.kind = MemRequest::Kind::kReplicaPromote;
      req.owner = node_.id();
      req.migrate_lines.push_back(id);
      cluster::RpcResult res = co_await rpc(net::Message::make(
          node_.id(), backup, kMemService, 24, std::move(req)));
      if (res.ok()) {
        const auto& rep = res.reply->as<MemReply>();
        co_await node_.compute(node_.costs().per_message_cpu);
        if (rep.ok) {
          l.where = Where::kRemote;
          l.holder = backup;
          hold_insert(backup, id);
          ++failover().promoted_lines;
          node_.stats().bump("store.replica_promotions");
          if (cause == RecoverCause::kCorrupt) {
            ++integrity().repaired_from_replica;
            node_.stats().bump("store.repaired_from_replica");
          }
          // Promotion consumed the backup copy: the line is now
          // under-replicated until re_replicate restores the mirror.
          unreplicated_.insert(id);
          if (obs::TraceRecorder* trace = store_.config().trace) {
            trace->instant(obs::EventKind::kPromote, node_.id(),
                           node_.sim().now(), id, backup);
          }
          co_return;
        }
        // The backup restarted and lost the replica too: fall through.
      }
      // On total failure the transport callback already declared it dead.
    }
  }
  if (co_await repair_from_disk(id)) {
    ++integrity().repaired_from_disk;
    node_.stats().bump("store.repaired_from_disk");
    unreplicated_.erase(id);
    co_return;
  }
  l.where = Where::kResident;
  if (cause == RecoverCause::kCorrupt) ++integrity().lines_lost;
  unreplicated_.erase(id);
  orphan_line(id);  // resident and empty; stays out of the LRU
}

sim::Task<bool> RemoteBackend::repair_from_disk(LineId id) {
  // The base backend's only local copy is the unmirrored-swap-out shadow
  // (simple swapping, no mirror node known at eviction time).
  co_return co_await restore_shadow(unmirrored_shadow_, id);
}

sim::Task<bool> RemoteBackend::restore_shadow(
    std::unordered_map<LineId, DiskShadow>& shadows, LineId id) {
  if (shadows.count(id) == 0) co_return false;
  auto& l = store_.line(id);
  co_await node_.swap_disk().read(
      std::max<std::int64_t>(l.bytes, store_.config().message_block_bytes),
      disk::Access::kRandom);
  // Look the entry up again: a swap-out may have rehashed the map meanwhile.
  const auto it = shadows.find(id);
  if (it == shadows.end()) co_return false;
  DiskShadow sh = std::move(it->second);
  shadows.erase(it);
  if (sh.checksum != line_checksum(sh.entries)) {
    // Defensive — nothing in the simulator corrupts local disk contents.
    node_.stats().bump("store.shadow_corrupt_lines");
    co_return false;
  }
  l.entries = std::move(sh.entries);
  store_.make_resident(id);
  node_.stats().bump("store.shadow_repairs");
  co_return true;
}

bool RemoteBackend::verify_payload(const LinePayload& payload,
                                   net::NodeId holder) {
  if (payload.checksum == 0 || payload_intact(payload)) return true;
  ++integrity().checksum_mismatches;
  node_.stats().bump("store.checksum_mismatches");
  if (obs::TraceRecorder* trace = store_.config().trace) {
    trace->instant(obs::EventKind::kChecksumMismatch, node_.id(),
                   node_.sim().now(), payload.line_id, holder);
  }
  const int strikes = ++corrupt_strikes_[holder];
  if (strikes >= store_.config().quarantine_after && broker_ != nullptr &&
      !broker_->quarantined(holder)) {
    broker_->quarantine(holder);
    ++integrity().quarantines;
    node_.stats().bump("store.quarantines");
    if (obs::TraceRecorder* trace = store_.config().trace) {
      trace->instant(obs::EventKind::kQuarantine, node_.id(),
                     node_.sim().now(), holder, strikes);
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Swap-out and fault-in
// ---------------------------------------------------------------------------

net::NodeId RemoteBackend::pick_destination(std::int64_t bytes,
                                            placement::Purpose purpose,
                                            net::NodeId exclude,
                                            bool best_effort,
                                            net::NodeId prev) {
  RMS_CHECK(broker_ != nullptr);
  placement::PlacementRequest req;
  req.bytes = bytes;
  req.headroom = store_.config().destination_headroom_bytes;
  req.exclude = exclude;
  req.previous_holder = prev;
  req.now = node_.sim().now();
  req.best_effort = best_effort;
  req.purpose = purpose;
  const placement::PlacementDecision d = broker_->choose(req);
  if (d.best_effort_used) node_.stats().bump("store.best_effort_replicas");
  return d.node;
}

sim::Task<> RemoteBackend::swap_out(LineId id) {
  auto& l = store_.line(id);
  // `l.holder` still names where the line last lived (the field survives
  // fault-in) — the affinity policy's hint; others ignore it.
  const net::NodeId dest = pick_destination(l.bytes, placement::Purpose::kSwapOut,
                                            /*exclude=*/-1,
                                            /*best_effort=*/false, l.holder);
  if (dest < 0) {
    // Graceful degradation: no live, fresh memory node has room, but the
    // run must complete — fall back to the local swap disk.
    broker_->note_fallback_disk();
    ++failover().degraded_evictions;
    ++*degraded_;
    node_.stats().bump("store.degraded_disk_swap");
    if (obs::TraceRecorder* trace = store_.config().trace) {
      trace->instant(obs::EventKind::kDegraded, node_.id(), node_.sim().now(),
                     id, l.bytes);
    }
    co_await fallback_->swap_out(id);
    co_return;
  }
  MemRequest req;
  req.kind = MemRequest::Kind::kSwapOut;
  req.owner = node_.id();
  LinePayload payload;
  payload.line_id = id;
  payload.accounted_bytes = l.bytes;
  // Stamp once before the contents move: primary and mirror carry the same
  // checksum, and every later verification compares against this value.
  const std::uint64_t sum = line_checksum(l.entries);
  payload.checksum = sum;

  // Mirror on a second memory node before the primary push so a crash of
  // either node between here and the next probe loses nothing.
  net::NodeId backup = -1;
  if (store_.config().replicate_k > 0) {
    backup = pick_destination(l.bytes, placement::Purpose::kReplica, dest,
                              /*best_effort=*/true, l.backup);
  }
  if (backup >= 0) {
    MemRequest rreq;
    rreq.kind = MemRequest::Kind::kReplicaStore;
    rreq.owner = node_.id();
    LinePayload copy;
    copy.line_id = id;
    copy.entries = l.entries;  // deep copy; primary gets the move below
    copy.accounted_bytes = l.bytes;
    copy.checksum = sum;
    rreq.lines.push_back(std::move(copy));
    node_.send_to(backup, kMemService, store_.config().message_block_bytes,
                  std::move(rreq));
    l.backup = backup;
    replicas_by_holder_[backup].insert(id);
    ++failover().replicas_stored;
    node_.stats().bump("store.replica_stores");
    if (obs::TraceRecorder* trace = store_.config().trace) {
      trace->instant(obs::EventKind::kReplicaStore, node_.id(),
                     node_.sim().now(), id, backup);
    }
  }

  // Redundancy was requested but no second node is known right now (during
  // congestion the table often has a single fresh report): degrade the
  // mirror to a local disk shadow rather than leaving the line one
  // corruption away from loss. Exact until fault-in — simple swapping never
  // mutates remote contents. Update mode skips this (a snapshot would go
  // stale against remotely-applied ops) and relies on re_replicate instead.
  DiskShadow sh;
  const bool shadow_this =
      store_.config().replicate_k > 0 && backup < 0 && !update_mode_;
  if (shadow_this) {
    sh.checksum = sum;
    sh.entries = l.entries;  // deep copy; primary gets the move below
  }

  payload.entries = std::move(l.entries);
  req.lines.push_back(std::move(payload));
  l.entries.clear();
  l.where = Where::kRemote;
  l.holder = dest;
  hold_insert(dest, id);
  if (store_.config().replicate_k > 0) {
    if (backup < 0) {
      unreplicated_.insert(id);  // no mirror destination had room
    } else {
      unreplicated_.erase(id);
    }
  }
  ++*swap_outs_;
  node_.stats().bump("store.remote_swap_out");
  // One-way push, padded to a message block (§5.1); the sender only pays
  // its protocol-stack cost.
  node_.send_to(dest, kMemService, store_.config().message_block_bytes,
                std::move(req));
  co_await node_.compute(node_.costs().per_message_cpu);
  if (backup >= 0) co_await node_.compute(node_.costs().per_message_cpu);
  if (shadow_this) {
    unmirrored_shadow_[id] = std::move(sh);
    node_.stats().bump("store.unmirrored_shadow_writes");
    co_await node_.swap_disk().write(
        std::max<std::int64_t>(l.bytes, store_.config().message_block_bytes),
        disk::Access::kSequential);
  }
}

sim::Task<> RemoteBackend::fault_in(LineId id) {
  auto& l = store_.line(id);
  if (l.where == Where::kDisk) {
    // A line the degrade (or tiered-spill) path parked locally.
    co_await fallback_->fault_in(id);
    co_return;
  }
  RMS_CHECK(l.where == Where::kRemote);
  ++*faults_;
  l.where = Where::kFaulting;
  while (!co_await swap_in(id)) {
    // Orphaned (resident and empty) or repaired from the local disk copy:
    // either way the line is resident and nothing is left to load.
    if (l.where != Where::kRemote) co_return;
    // Promoted to a surviving backup: retry the swap-in there.
    l.where = Where::kFaulting;
  }
  // Still kFaulting with contents restored; the store finishes residency.
}

sim::Task<bool> RemoteBackend::swap_in(LineId id) {
  auto& l = store_.line(id);
  const net::NodeId holder = l.holder;
  RecoverCause cause = RecoverCause::kLost;
  if (!holder_suspect(holder)) {
    MemRequest req;
    req.kind = MemRequest::Kind::kSwapIn;
    req.owner = node_.id();
    req.line_id = id;
    cluster::RpcResult res = co_await rpc(net::Message::make(
        node_.id(), holder, kMemService, 32, std::move(req)));
    if (!res.ok()) {
      // Every deadline missed: the holder is gone (the transport callback
      // marked it suspect as the last deadline expired). Re-home everything
      // it held — this line is pinned, so the handler skips it and leaves
      // it to the recovery below.
      co_await on_holder_failure(holder);
    } else {
      const auto& rep = res.reply->as<MemReply>();
      co_await node_.compute(node_.costs().per_message_cpu);
      if (!rep.ok) {
        // The holder answered but no longer has the line: it crashed and
        // restarted in between. The node itself is fine.
        node_.stats().bump("store.swap_in_lost");
      } else {
        RMS_CHECK(rep.lines.size() == 1 && rep.lines[0].line_id == id);
        if (verify_payload(rep.lines[0], holder)) {
          l.entries = rep.lines[0].entries;
          hold_erase(holder, id);
          drop_backup(id);
          unreplicated_.erase(id);
          unmirrored_shadow_.erase(id);  // home again; snapshot is garbage
          co_return true;
        }
        // Corrupted in storage or on the wire: never use it. Repair from
        // the replica (or disk copy) instead.
        cause = RecoverCause::kCorrupt;
      }
    }
  }
  hold_erase(holder, id);
  co_await recover_lost_line(id, cause);
  co_return false;
}

// ---------------------------------------------------------------------------
// Remote updates
// ---------------------------------------------------------------------------

sim::Task<bool> RemoteBackend::update(LineId id,
                                      const mining::Itemset& itemset) {
  auto& l = store_.line(id);
  if (!update_mode_ || l.where != Where::kRemote) co_return false;
  queue_update(id, itemset);
  co_await maybe_flush_batch(l.holder);
  co_await maybe_flush_batch(l.backup);
  co_return true;
}

bool RemoteBackend::buffer_migrating_update(LineId id,
                                            const mining::Itemset& itemset) {
  if (!update_mode_) return false;
  pending_updates_[id].push_back(itemset);
  ++*updates_sent_;  // counted as an update operation (it becomes one)
  return true;
}

void RemoteBackend::queue_update(LineId id, const mining::Itemset& itemset) {
  auto& l = store_.line(id);
  const auto append = [&](net::NodeId target) {
    auto& stream =
        update_streams_
            .try_emplace(target, store_.config().message_block_bytes)
            .first->second;
    if (stream.empty()) {
      stream.open().kind = MemRequest::Kind::kUpdateBatch;
      stream.open().owner = node_.id();
    }
    stream.open().updates.push_back(UpdateOp{id, itemset});
    stream.note(store_.config().update_op_bytes);
  };
  append(l.holder);
  ++*updates_sent_;
  if (l.backup >= 0) {
    // Mirror the op so the backup copy's counts track the primary's.
    append(l.backup);
    ++failover().updates_mirrored;
  }
}

sim::Task<> RemoteBackend::send_update_batch(net::NodeId holder) {
  const auto it = update_streams_.find(holder);
  if (it == update_streams_.end() || it->second.empty()) co_return;
  auto closed = it->second.take();
  if (holder_suspect(holder)) {
    // Nobody home; delivering would be a silent drop anyway.
    drop_update_batch(holder, closed.batch);
    co_return;
  }
  node_.stats().bump("store.update_batches");
  // Span, not instant: send -> local stack drain, so flush time is
  // attributable (the remote apply shows up as the holder's kServe span).
  obs::TraceRecorder* trace = store_.config().trace;
  const Time flush_started = node_.sim().now();
  const std::int64_t batch_ops = closed.ops;
  xport_.send_to(holder, kMemService, closed.bytes, std::move(closed.batch));
  co_await node_.compute(node_.costs().per_message_cpu);
  if (trace != nullptr) {
    trace->span(obs::EventKind::kUpdateBatch, node_.id(), flush_started,
                node_.sim().now(), holder, batch_ops);
  }
}

sim::Task<> RemoteBackend::maybe_flush_batch(net::NodeId holder) {
  if (holder < 0) co_return;
  const auto it = update_streams_.find(holder);
  if (it != update_streams_.end() && it->second.due()) {
    co_await send_update_batch(holder);
  }
}

void RemoteBackend::drop_update_batch(net::NodeId target,
                                      const MemRequest& batch) {
  // An op is truly lost only when `target` held the line's sole copy:
  // mirror ops (primary elsewhere) survive at the primary, and primary ops
  // with a live backup survive at the mirror — counting whole batches here
  // would double-count them against the copies that still apply.
  for (const UpdateOp& op : batch.updates) {
    const auto& l = store_.line(op.line_id);
    if (l.holder == target && l.backup < 0) ++failover().lost_update_ops;
  }
  node_.stats().bump("store.update_batches_dropped");
}

sim::Task<> RemoteBackend::requeue_pending(LineId id) {
  const auto pend = pending_updates_.find(id);
  if (pend == pending_updates_.end()) co_return;
  for (const mining::Itemset& s : pend->second) {
    --*updates_sent_;  // queue_update counts it again
    queue_update(id, s);
  }
  pending_updates_.erase(pend);
  const auto& l = store_.line(id);
  co_await maybe_flush_batch(l.holder);
  co_await maybe_flush_batch(l.backup);
}

sim::Task<> RemoteBackend::flush_updates() {
  // Collect holders first: sending mutates the map.
  std::vector<net::NodeId> holders;
  for (const auto& [holder, stream] : update_streams_) {
    if (!stream.empty()) holders.push_back(holder);
  }
  std::sort(holders.begin(), holders.end());
  for (net::NodeId h : holders) co_await send_update_batch(h);
}

// ---------------------------------------------------------------------------
// End-of-pass collection
// ---------------------------------------------------------------------------

sim::Task<bool> RemoteBackend::collect_fetch() {
  const std::vector<net::NodeId> holders = sorted_holders();
  if (holders.empty()) co_return false;
  // Holders go in groups: each group's lines are pinned, its kFetch RPCs
  // run through Transport::pipeline (overlapping their round-trips and
  // server service times), and replies are absorbed in holder order. At
  // window 1 a group is one holder, so a holder's lines are pinned only
  // after recovery at the earlier holders may have promoted lines onto it;
  // pinning every holder up front would leave those promoted lines to the
  // caller's next round and change the modelled schedule. Lines recovery
  // re-homes onto a holder outside the snapshot are likewise picked up by
  // the caller's next collect_fetch round.
  const std::size_t group = xport_.window() >= 2 ? holders.size() : 1;
  for (std::size_t first = 0; first < holders.size(); first += group) {
    const std::size_t last = std::min(first + group, holders.size());
    // Snapshot and pin: kFaulting keeps the concurrent failure handler off
    // these lines — whatever happens, this loop re-homes them. Lines a
    // concurrent migrate/reclaim parked (kMigrating) after the caller's
    // settle scan stay with that coroutine; it fires their triggers when it
    // settles them and the caller re-scans.
    std::vector<std::pair<net::NodeId, std::vector<LineId>>> pinned;
    for (std::size_t h = first; h < last; ++h) {
      const auto& held = lines_by_holder_[holders[h]];
      std::vector<LineId> candidates(held.begin(), held.end());
      std::sort(candidates.begin(), candidates.end());
      std::vector<LineId> ids;
      for (LineId id : candidates) {
        if (store_.line(id).where != Where::kRemote) {
          node_.stats().bump("store.collect_skipped_inflight");
          continue;
        }
        store_.line(id).where = Where::kFaulting;
        ids.push_back(id);
      }
      for (LineId id : ids) hold_erase(holders[h], id);
      if (!ids.empty()) pinned.emplace_back(holders[h], std::move(ids));
    }

    std::vector<net::Message> msgs;
    std::vector<bool> asked;  // asked[i]: pinned[i]'s holder gets a kFetch
    for (const auto& [holder, ids] : pinned) {
      asked.push_back(!holder_suspect(holder));
      if (!asked.back()) continue;
      MemRequest req;
      req.kind = MemRequest::Kind::kFetch;
      req.owner = node_.id();
      req.fetch_min_count = store_.config().fetch_filter_min_count;
      msgs.push_back(net::Message::make(node_.id(), holder, kMemService, 32,
                                        std::move(req)));
    }
    // A one-message batch runs as a plain call(), adding no scheduler events.
    const std::vector<cluster::RpcResult> results = co_await xport_.pipeline(
        std::move(msgs), rpc_op(MemRequest::Kind::kFetch));
    for (const cluster::RpcResult& res : results) note_attempts(res);

    std::size_t k = 0;  // cursor over results, in holder order
    for (std::size_t i = 0; i < pinned.size(); ++i) {
      const auto& [holder, ids] = pinned[i];
      std::unordered_set<LineId> got;
      std::unordered_set<LineId> corrupt_ids;
      if (asked[i]) {
        const cluster::RpcResult& res = results[k++];
        if (res.ok()) {
          const auto& rep = res.reply->as<MemReply>();
          co_await node_.compute(node_.costs().per_message_cpu);
          for (const LinePayload& payload : rep.lines) {
            auto& l = store_.line(payload.line_id);
            if (l.where != Where::kFaulting || l.holder != holder) {
              // A stale primary from a false suspicion handled earlier; the
              // authoritative copy lives elsewhere.
              node_.stats().bump("store.stale_fetch_lines");
              continue;
            }
            if (!verify_payload(payload, holder)) {
              corrupt_ids.insert(payload.line_id);
              continue;  // repaired from the replica below, never used
            }
            l.entries = payload.entries;
            store_.make_resident(payload.line_id);
            drop_backup(payload.line_id);
            unreplicated_.erase(payload.line_id);
            got.insert(payload.line_id);
          }
        } else {
          co_await on_holder_failure(holder);
        }
      }
      // Lines the holder no longer has (crash-restart wiped them, or the
      // holder is dead) or served corrupt: promote the backup or orphan.
      for (LineId id : ids) {
        if (got.count(id)) continue;
        co_await recover_lost_line(id, corrupt_ids.count(id)
                                           ? RecoverCause::kCorrupt
                                           : RecoverCause::kLost);
      }
    }
  }
  co_return true;
}

sim::Task<> RemoteBackend::collect_finish() {
  // Remote lines are all home; surviving backup copies are now garbage and
  // nothing is left to re-replicate.
  unreplicated_.clear();
  unmirrored_shadow_.clear();
  for (auto& [backup, ids] : replicas_by_holder_) {
    if (ids.empty()) continue;
    ids.clear();
    if (suspected_.count(backup)) continue;
    send_replica_drop(backup, /*id=*/-1);  // all of this owner
  }
  for (std::size_t i = 0; i < store_.num_lines(); ++i) {
    store_.line(static_cast<LineId>(i)).backup = -1;
  }

  // Degraded (or tiered-spilled) lines stream back from the local disk.
  co_await fallback_->collect_finish();
}

// ---------------------------------------------------------------------------
// Migration (application side)
// ---------------------------------------------------------------------------

sim::Task<> RemoteBackend::migrate_away(net::NodeId holder) {
  if (holder_suspect(holder)) co_return;  // failure handling owns its lines
  const auto it = lines_by_holder_.find(holder);
  if (it == lines_by_holder_.end() || it->second.empty()) co_return;

  // 1. Mark this node's lines as migrating FIRST; from here on probes
  //    buffer (remote update) or wait on the line trigger (simple
  //    swapping), so no new update can target the old holder.
  std::vector<LineId> marked;
  std::int64_t marked_bytes = 0;
  for (LineId id : it->second) {
    auto& l = store_.line(id);
    if (l.where == Where::kFaulting) {
      // A swap-in is in flight for this line; it was requested before the
      // directive will arrive (same-pair FIFO), so the holder answers the
      // fault first and the line comes home by itself.
      continue;
    }
    RMS_CHECK(l.where == Where::kRemote);
    l.where = Where::kMigrating;
    marked.push_back(id);
    marked_bytes += l.bytes;
  }
  if (marked.empty()) co_return;
  std::sort(marked.begin(), marked.end());
  const Time migrate_started = node_.sim().now();

  // 2. Updates already queued for the old holder must precede the directive
  //    (same-pair FIFO keeps them ahead of it on the wire). With the lines
  //    marked, nothing can refill this batch behind our back.
  co_await send_update_batch(holder);

  const net::NodeId dest =
      pick_destination(marked_bytes, placement::Purpose::kMigration, holder);
  if (dest < 0) {
    // No live, fresh destination: leave the lines where they are; the
    // shortage will re-trigger on a later broadcast if it persists. Updates
    // buffered while the lines were marked still belong to the old holder.
    node_.stats().bump("store.migration_no_destination");
    for (LineId id : marked) store_.line(id).where = Where::kRemote;
    for (LineId id : marked) {
      co_await requeue_pending(id);
      store_.fire_migration_trigger(id);
    }
    co_return;
  }
  MemRequest req;
  req.kind = MemRequest::Kind::kMigrateDirective;
  req.owner = node_.id();
  req.migrate_dest = dest;
  req.migrate_lines = marked;

  node_.stats().bump("store.migrations_initiated");
  cluster::RpcResult res = co_await rpc(net::Message::make(
      node_.id(), holder, kMemService,
      16 + 8 * static_cast<std::int64_t>(marked.size()), std::move(req)));

  if (!res.ok()) {
    // The holder itself went silent mid-directive (and is suspect already,
    // via the transport callback). Put the marks back to kRemote so the
    // failure handler re-homes every line it held; it also fires the
    // triggers for them.
    for (LineId id : marked) store_.line(id).where = Where::kRemote;
    co_await on_holder_failure(holder);
    co_return;
  }
  const auto& rep = res.reply->as<MemReply>();
  co_await node_.compute(node_.costs().per_message_cpu);

  // 3. Re-point the management table. On rep.ok every marked line moved
  //    (probes only fault lines out of kMigrating via the trigger). With
  //    ok=false the destination died mid-push: rep.migrated lists the lines
  //    that were acknowledged before the push failed — those are at the
  //    (now dead) destination; the rest stayed at the holder.
  if (rep.ok) {
    RMS_CHECK_MSG(rep.migrated.size() == marked.size(),
                  "holder lost track of migrating lines");
  }
  std::unordered_set<LineId> moved(rep.migrated.begin(), rep.migrated.end());
  for (LineId id : marked) {
    auto& l = store_.line(id);
    RMS_CHECK(l.where == Where::kMigrating);
    l.where = Where::kRemote;
    if (moved.count(id)) {
      hold_erase(holder, id);
      l.holder = dest;
      hold_insert(dest, id);
    }
  }
  *lines_migrated_ += static_cast<std::int64_t>(moved.size());
  if (obs::TraceRecorder* trace = store_.config().trace) {
    trace->span(obs::EventKind::kMigrate, node_.id(), migrate_started,
                node_.sim().now(), holder,
                static_cast<std::int64_t>(moved.size()));
  }

  if (!rep.ok) {
    // Recover the lines stranded at the dead destination (promote backups
    // or orphan); their triggers fire inside the handler.
    co_await on_holder_failure(dest);
  }

  // 4. Flush updates buffered while the lines were in flight, then wake any
  //    probe blocked on a migrating line. Lines the failure handler already
  //    settled (promoted or orphaned) had their pending updates flushed or
  //    dropped there.
  for (LineId id : marked) {
    if (store_.line(id).where == Where::kRemote) co_await requeue_pending(id);
    store_.fire_migration_trigger(id);
  }
}

// ---------------------------------------------------------------------------
// Reclamation (scheduler-driven revocation)
// ---------------------------------------------------------------------------

sim::Task<std::int64_t> RemoteBackend::reclaim(std::int64_t target_bytes) {
  if (target_bytes <= 0) co_return 0;
  // A snapshot: the recall mutates lines_by_holder_ underneath us.
  std::int64_t freed = 0;
  for (net::NodeId holder : sorted_holders()) {
    if (freed >= target_bytes) break;
    freed += co_await reclaim_from(holder, target_bytes - freed);
  }
  co_return freed;
}

sim::Task<std::int64_t> RemoteBackend::reclaim_from(net::NodeId holder,
                                                    std::int64_t target_bytes) {
  if (holder_suspect(holder)) co_return 0;  // failure handling owns its lines
  const auto held = lines_by_holder_.find(holder);
  if (held == lines_by_holder_.end() || held->second.empty()) co_return 0;

  // Park the recalled lines kMigrating first (sorted ids for determinism):
  // from here on probes buffer their ops (update mode) or wait on the line
  // trigger (simple swapping), so the recall owns the lines for its whole
  // duration — exactly migrate_away's discipline.
  std::vector<LineId> candidates(held->second.begin(), held->second.end());
  std::sort(candidates.begin(), candidates.end());
  std::vector<LineId> marked;
  std::int64_t marked_bytes = 0;
  for (LineId id : candidates) {
    if (marked_bytes >= target_bytes) break;
    auto& l = store_.line(id);
    // kFaulting lines come home by themselves (the holder answers the
    // in-flight swap-in first, same-pair FIFO); nothing else is recallable.
    if (l.where != Where::kRemote) continue;
    l.where = Where::kMigrating;
    marked.push_back(id);
    marked_bytes += l.bytes;
  }
  if (marked.empty()) co_return 0;
  const Time started = node_.sim().now();

  // Updates already queued for the holder must land before the per-line
  // fetches (same-pair FIFO keeps them ahead on the wire), so the recalled
  // contents include every op sent so far.
  co_await send_update_batch(holder);

  std::int64_t freed = 0;
  for (LineId id : marked) {
    auto& l = store_.line(id);
    RMS_CHECK(l.where == Where::kMigrating);
    if (co_await swap_in(id)) {
      // Ops buffered while the line was parked apply locally now: the
      // recalled contents already include everything flushed before the
      // fetch, and the line has no remote copy left.
      const auto pend = pending_updates_.find(id);
      if (pend != pending_updates_.end()) {
        for (const mining::Itemset& s : pend->second) {
          --*updates_sent_;  // applied locally, not sent after all
          node_.stats().bump("store.reclaim_updates_applied");
          for (mining::CountedItemset& e : l.entries) {
            if (e.items == s) {
              ++e.count;
              break;
            }
          }
        }
        pending_updates_.erase(pend);
      }
      // The existing spill path: entries move to the local swap disk and
      // the line settles kDisk until a probe faults it back.
      co_await fallback_->swap_out(id);
      freed += l.bytes;
      node_.stats().bump("store.reclaimed_lines");
    } else if (l.where == Where::kRemote) {
      // Promoted to the surviving backup (still donated, just elsewhere):
      // requeue the ops buffered while the line was parked. Repaired or
      // orphaned lines are resident.
      co_await requeue_pending(id);
    }
    store_.fire_migration_trigger(id);
  }
  node_.stats().bump("store.reclaim_recalls");
  if (obs::TraceRecorder* trace = store_.config().trace) {
    trace->span(obs::EventKind::kReclaim, node_.id(), started,
                node_.sim().now(), holder, freed);
  }
  co_return freed;
}

// ---------------------------------------------------------------------------
// Failure handling (application side)
// ---------------------------------------------------------------------------

sim::Task<> RemoteBackend::on_holder_failure(net::NodeId dead) {
  declare_dead(dead);

  // Queued one-way updates towards the dead node would be silent drops.
  // Count only the ops whose sole copy was there (see send_update_batch):
  // mirror ops survive at the primary, primary ops with a live backup
  // survive at the mirror — this runs before the backup-clearing block
  // below so those backups still read as alive.
  {
    const auto it = update_streams_.find(dead);
    if (it != update_streams_.end() && !it->second.empty()) {
      drop_update_batch(dead, it->second.take().batch);
    }
  }

  // Backup copies stored at the dead node died with it; their primaries
  // are under-replicated until re_replicate runs below.
  std::vector<LineId> need_replica;
  {
    const auto it = replicas_by_holder_.find(dead);
    if (it != replicas_by_holder_.end()) {
      for (LineId id : it->second) {
        auto& l = store_.line(id);
        if (l.backup == dead) {
          l.backup = -1;
          unreplicated_.insert(id);
          if (l.where == Where::kRemote && l.holder != dead) {
            need_replica.push_back(id);
          }
        }
      }
      it->second.clear();
    }
  }

  // Snapshot the primaries this store had at the dead node. Lines already
  // kFaulting or kMigrating are owned by the coroutine that marked them
  // (fault_in / collect / migrate_away) and recover there; kMigrating keeps
  // probes parked on the trigger while we re-home.
  std::vector<LineId> victims;
  {
    const auto held = lines_by_holder_.find(dead);
    if (held != lines_by_holder_.end()) {
      for (LineId id : held->second) {
        if (store_.line(id).where == Where::kRemote) victims.push_back(id);
      }
      for (LineId id : victims) hold_erase(dead, id);
    }
  }
  std::sort(victims.begin(), victims.end());
  for (LineId id : victims) store_.line(id).where = Where::kMigrating;

  for (LineId id : victims) {
    co_await recover_lost_line(id);
    if (store_.line(id).where == Where::kRemote) {
      // Promoted: flush updates buffered while the line was dark.
      need_replica.push_back(id);
      co_await requeue_pending(id);
    }
  }

  for (LineId id : victims) store_.fire_migration_trigger(id);

  // Restore replicate_k: promotion consumed the promoted lines' mirrors,
  // and primaries whose backup died with `dead` lost theirs.
  if (store_.config().replicate_k > 0 && !need_replica.empty()) {
    co_await re_replicate(std::move(need_replica));
  }
}

// ---------------------------------------------------------------------------
// Redundancy restoration
// ---------------------------------------------------------------------------

sim::Task<> RemoteBackend::re_replicate(std::vector<LineId> ids) {
  if (store_.config().replicate_k <= 0) co_return;
  // Park the still-eligible lines kMigrating before the first suspend:
  // probes buffer their ops (update mode) or wait on the line trigger
  // (simple swapping), so nothing issued during our awaits can miss the
  // new replica. Grouped per holder, holders visited in sorted order.
  std::sort(ids.begin(), ids.end());
  std::map<net::NodeId, std::vector<LineId>> by_holder;
  std::vector<LineId> parked;
  for (LineId id : ids) {
    auto& l = store_.line(id);
    if (l.where != Where::kRemote || l.backup >= 0) continue;
    l.where = Where::kMigrating;
    by_holder[l.holder].push_back(id);
    parked.push_back(id);
  }
  for (auto& [holder, want] : by_holder) {
    if (holder_suspect(holder)) {
      // The holder died while we worked through earlier groups.
      co_await settle_parked(holder, want);
      continue;
    }
    // Flush queued ops first (same-pair FIFO lands them before the sync
    // RPC) so the holder's snapshot includes everything sent so far.
    co_await send_update_batch(holder);
    std::int64_t bytes = 0;
    for (LineId id : want) bytes += store_.line(id).bytes;
    const net::NodeId dest =
        pick_destination(bytes, placement::Purpose::kReReplicate, holder,
                         /*best_effort=*/true);
    if (dest < 0) {
      // No live, fresh node has room; the lines stay under-replicated (and
      // in unreplicated_) until a later trigger retries.
      node_.stats().bump("store.re_replication_no_destination");
      continue;
    }
    MemRequest req;
    req.kind = MemRequest::Kind::kReplicaSync;
    req.owner = node_.id();
    req.migrate_dest = dest;
    req.migrate_lines = want;
    cluster::RpcResult res = co_await rpc(net::Message::make(
        node_.id(), holder, kMemService,
        16 + 8 * static_cast<std::int64_t>(want.size()), std::move(req)));
    if (!res.ok()) {
      // The holder went silent mid-sync: its primaries are gone too.
      co_await on_holder_failure(holder);
      co_await settle_parked(holder, want);
      continue;
    }
    const auto& rep = res.reply->as<MemReply>();
    co_await node_.compute(node_.costs().per_message_cpu);
    const std::unordered_set<LineId> synced(rep.migrated.begin(),
                                            rep.migrated.end());
    for (LineId id : want) {
      auto& l = store_.line(id);
      const bool still = l.where == Where::kMigrating &&
                         l.holder == holder && l.backup < 0;
      if (synced.count(id) && still) {
        l.backup = dest;
        replicas_by_holder_[dest].insert(id);
        unreplicated_.erase(id);
        ++integrity().re_replications;
        ++failover().replicas_stored;
        node_.stats().bump("store.re_replications");
        if (obs::TraceRecorder* trace = store_.config().trace) {
          trace->instant(obs::EventKind::kReReplicate, node_.id(),
                         node_.sim().now(), id, dest);
        }
      } else if (synced.count(id)) {
        // The copy landed but the line's state moved on meanwhile; tell
        // the new backup to drop the stray replica.
        send_replica_drop(dest, id);
      }
      // Lines the holder no longer had (res.ok with a partial `migrated`:
      // it restarted and lost them) stay under-replicated; the next
      // swap-in discovers the loss and recovers normally.
    }
  }
  // Un-park: restore kRemote, requeue ops buffered while the lines were in
  // flight (queue_update now mirrors them to the new backup), and wake any
  // probe blocked on the trigger.
  for (LineId id : parked) {
    auto& l = store_.line(id);
    if (l.where == Where::kMigrating) {
      l.where = Where::kRemote;
      co_await requeue_pending(id);
    }
    store_.fire_migration_trigger(id);
  }
}

sim::Task<> RemoteBackend::settle_parked(net::NodeId dead,
                                         const std::vector<LineId>& ids) {
  // The failure handler skipped these lines (they were parked), so no one
  // else settles them: no backup survives, repair from disk or orphan.
  for (LineId id : ids) {
    const auto& l = store_.line(id);
    if (l.where == Where::kMigrating && l.holder == dead) {
      hold_erase(dead, id);
      co_await recover_lost_line(id);
    }
  }
}

// ---------------------------------------------------------------------------
// Invariants
// ---------------------------------------------------------------------------

void RemoteBackend::check_invariants() const {
  // Replica tracking: replicas_by_holder_ and Line::backup must agree in
  // both directions.
  std::size_t tracked_replicas = 0;
  for (const auto& [backup, ids] : replicas_by_holder_) {
    for (LineId id : ids) {
      RMS_CHECK_MSG(store_.line(id).backup == backup,
                    "replica map points at a line backed up elsewhere");
    }
    tracked_replicas += ids.size();
  }
  std::size_t with_backup = 0;
  for (std::size_t i = 0; i < store_.num_lines(); ++i) {
    const auto id = static_cast<LineId>(i);
    const auto& l = store_.line(id);
    if (l.backup >= 0) {
      ++with_backup;
      const auto it = replicas_by_holder_.find(l.backup);
      RMS_CHECK_MSG(it != replicas_by_holder_.end() && it->second.count(id),
                    "line backup not tracked in the replica map");
    }
    if (l.where == Where::kRemote) {
      const auto it = lines_by_holder_.find(l.holder);
      RMS_CHECK_MSG(it != lines_by_holder_.end() && it->second.count(id),
                    "remote line missing from its holder's set");
      // Redundancy: with replication on, every remote primary lacking a
      // mirror must be queued for re-replication (stale extras — lines
      // that since came home — are allowed in the set).
      if (store_.config().replicate_k > 0 && l.backup < 0) {
        RMS_CHECK_MSG(unreplicated_.count(id) > 0,
                      "under-replicated remote line not queued for "
                      "re-replication");
      }
    }
  }
  RMS_CHECK_MSG(with_backup == tracked_replicas,
                "replica map size disagrees with per-line backups");

  // Holder tracking: every held line points back at its holder and is in a
  // remote-ish state (kFaulting/kMigrating lines stay in the map while the
  // coroutine that pinned them is in flight); remote_bytes_ matches.
  std::int64_t held_bytes = 0;
  for (const auto& [holder, ids] : lines_by_holder_) {
    for (LineId id : ids) {
      const auto& l = store_.line(id);
      RMS_CHECK_MSG(l.holder == holder, "held line points at another holder");
      RMS_CHECK_MSG(l.where == Where::kRemote || l.where == Where::kFaulting ||
                        l.where == Where::kMigrating,
                    "held line in a non-remote state");
      held_bytes += l.bytes;
    }
  }
  RMS_CHECK_MSG(held_bytes == remote_bytes_,
                "remote byte accounting drifted");

  // Update batching: bytes must track the op count exactly.
  for (const auto& [holder, stream] : update_streams_) {
    RMS_CHECK_MSG(
        stream.pending_ops() ==
            static_cast<std::int64_t>(stream.peek().updates.size()),
        "update stream op accounting out of sync with the open batch");
    RMS_CHECK_MSG(
        stream.pending_bytes() ==
            stream.pending_ops() * store_.config().update_op_bytes,
        "update stream byte accounting out of sync with queued ops");
  }

  RMS_CHECK_MSG(!update_mode_ || unmirrored_shadow_.empty(),
                "unmirrored shadow populated in update mode");
  for (const auto& [id, sh] : unmirrored_shadow_) {
    RMS_CHECK_MSG(sh.checksum != 0,
                  "unmirrored shadow copy without a checksum stamp");
  }

  fallback_->check_invariants();
}

}  // namespace rms::core

#include "sched/phased_job.hpp"

#include "cluster/cluster.hpp"
#include "core/hash_line_store.hpp"

namespace rms::sched {

PhasedJob::PhasedJob(runtime::RunnerConfig runner) : rcfg_(std::move(runner)) {
  RMS_CHECK(rcfg_.participants >= 1);
}

PhasedJob::~PhasedJob() = default;

cluster::Node& PhasedJob::slot_node(std::size_t idx) const {
  return env_.cluster->node(app_id(idx));
}

void PhasedJob::launch(const JobEnv& env, std::function<void()> on_done) {
  RMS_CHECK(env.sim != nullptr && env.cluster != nullptr &&
            env.slots != nullptr);
  RMS_CHECK_MSG(env.app_nodes.size() == rcfg_.participants,
                "slot lease must match the job's participant count");
  RMS_CHECK(env.brokers.size() == rcfg_.participants);
  env_ = env;

  stores_.resize(rcfg_.participants);
  prepare();
  // Stores may be (re)built later, per phase or per pass; bind the slots to
  // getters so world daemons always reach whatever store the slot carries.
  for (std::size_t i = 0; i < rcfg_.participants; ++i) {
    env_.slots->bind(app_id(i), [this, i]() -> core::HashLineStore* {
      return stores_[i].get();
    });
  }

  runtime::RunnerConfig rcfg = rcfg_;
  rcfg.tracks.reserve(rcfg.participants);
  for (net::NodeId id : env_.app_nodes) {
    rcfg.tracks.push_back(static_cast<std::int32_t>(id));
  }
  rcfg.on_finished = std::move(on_done);
  runner_ = std::make_unique<runtime::PhasedRunner>(sim(), *this, rcfg);
  runner_->start();
}

sim::Task<std::int64_t> PhasedJob::reclaim(std::int64_t target_bytes) {
  std::int64_t freed = 0;
  for (auto& store : stores_) {
    if (freed >= target_bytes) break;
    if (store) freed += co_await store->reclaim(target_bytes - freed);
  }
  co_return freed;
}

std::int64_t PhasedJob::donated_bytes() const {
  std::int64_t sum = 0;
  for (const auto& store : stores_) {
    if (store) sum += store->remote_held_bytes();
  }
  return sum;
}

void PhasedJob::check_invariants(std::size_t idx) {
  if (stores_[idx]) stores_[idx]->check_invariants();
}

void PhasedJob::count(JobReport& rep) const {
  for (const auto& store : stores_) {
    if (!store) continue;
    rep.pagefaults += store->pagefaults();
    rep.swap_outs += store->swap_outs();
    rep.updates_sent += store->updates_sent();
    rep.degraded_evictions += store->failover().degraded_evictions;
  }
}

JobReport PhasedJob::settle() {
  JobReport rep;
  rep.completed = runner_ != nullptr && runner_->finished();
  if (runner_ != nullptr) {
    rep.total_time = runner_->total_time();
    rep.passes = runner_->passes();
    rep.phase_names = runner_->phases().names();
  }
  count(rep);
  if (env_.slots != nullptr) {
    for (net::NodeId id : env_.app_nodes) env_.slots->unbind(id);
  }
  return rep;
}

JobReport PhasedJob::harvest() {
  JobReport rep = settle();
  if (rep.completed) {
    rep.exact = check_exactness();
    rep.summary = summary();
  }
  return rep;
}

}  // namespace rms::sched

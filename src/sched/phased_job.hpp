// sched::PhasedJob — the job half every phased workload shares.
//
// A workload (HPA, hash_join, hash_aggregate) is a runtime::Workload whose
// participants each own one hash-line store. PhasedJob turns it into a
// JobRuntime: at launch it takes the leased slots, lets the workload build
// its job-local state, binds each slot to the participant's store in the
// world's SlotTable, and starts a runtime::PhasedRunner on the slots. It
// answers the scheduler's reclaim/donation queries from the stores and
// assembles the JobReport at harvest. Workloads add only their inputs,
// phase bodies, counters, and scalar-reference check.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "runtime/runner.hpp"
#include "runtime/workload.hpp"
#include "sched/job.hpp"

namespace rms::cluster {
class Node;
}

namespace rms::sched {

class PhasedJob : public JobRuntime, public runtime::Workload {
 public:
  ~PhasedJob() override;

  void launch(const JobEnv& env, std::function<void()> on_done) final;
  sim::Task<std::int64_t> reclaim(std::int64_t target_bytes) final;
  std::int64_t donated_bytes() const final;
  /// settle(), plus the scalar-reference check for a finished job.
  JobReport harvest() final;

  /// The harvest without the reference check: runner timing, store
  /// counters, and the slots unbound. The single-job entry stops here.
  JobReport settle();

  void check_invariants(std::size_t idx) override;

 protected:
  /// `runner` carries the participant count, pass range, warmup, invariant
  /// switch, and trace sink; launch() adds the slot tracks and the
  /// completion hook.
  explicit PhasedJob(runtime::RunnerConfig runner);

  /// Build the job-local state (inputs, partitions, stores created up
  /// front) once the slots are known. Must not advance virtual time.
  virtual void prepare() = 0;
  /// Store counters for the report; the default sums the live stores.
  virtual void count(JobReport& rep) const;
  /// Finished job only: the result matches the scalar reference.
  virtual bool check_exactness() = 0;
  /// Finished job only: one headline figure ("groups=842").
  virtual std::string summary() const = 0;

  /// Participant `idx`'s slot node.
  net::NodeId app_id(std::size_t idx) const { return env_.app_nodes[idx]; }
  cluster::Node& slot_node(std::size_t idx) const;
  placement::MemoryBroker* broker(std::size_t idx) const {
    return env_.brokers[idx];
  }
  sim::Simulation& sim() const { return *env_.sim; }

  /// One store per participant; null until the workload creates it (and
  /// again between passes for workloads that rebuild per pass).
  std::vector<std::unique_ptr<core::HashLineStore>> stores_;

 private:
  runtime::RunnerConfig rcfg_;
  JobEnv env_;
  std::unique_ptr<runtime::PhasedRunner> runner_;
};

}  // namespace rms::sched

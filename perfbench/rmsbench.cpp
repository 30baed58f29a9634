// rmsbench: one timed call into the rmswap library per process.
//
// perfbench/run.py drives this binary; every invocation runs one workload
// once and prints one JSON object on its last stdout line.
//
//   rmsbench reference --workload W --seed S [--wrong-reference]
//       Generates the workload's database and mines it with the sequential
//       mining::apriori (same min support and max_k as the HPA run). Prints
//       the support table's size and digest and the host time of the call.
//       --wrong-reference perturbs one support count before digesting (the
//       self-test uses it to show that a wrong answer is counted as failed).
//
//   rmsbench run --workload W --seed S [--traced]
//       Set-up (input generation + partitioning, repeated kSetupReps times
//       so its median is steady at millisecond scale), then one
//       timed call: hpa::run_hpa for the hpa-* workloads, a JobScheduler over
//       a sched::World for multitenant. Prints host cost (run_s, setup_s,
//       peak RSS), modelled virtual times, the mined support digest and, with
//       --traced, the per-layer figures taken from obs::TraceRecorder,
//       obs::PassProfiler and obs::MetricsSampler plus host-clock spans
//       around each library call.
//
// Both modes accept --scale and --min-support (the self-test shrinks the
// hpa-* workloads with them). Workloads: hpa-nolimit, hpa-remote-swap,
// hpa-remote-update, multitenant.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hpa/hpa.hpp"
#include "mining/apriori.hpp"
#include "mining/generator.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "sched/scheduler.hpp"
#include "sched/world.hpp"
#include "workloads/hash_aggregate.hpp"
#include "workloads/hash_join.hpp"

using namespace rms;

namespace {

/// QuestParams' default seed: the database of the fig4 recipe that
/// BENCH_BASELINE.json pins, and of bench_ext_multitenant's defaults.
constexpr std::uint64_t kDefaultSeed = 20000501;
constexpr int kSetupReps = 10;

struct Options {
  std::string mode;
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double scale = 0.01;           // D = 10,000: the fig4 recipe's size
  double min_support = 0.00025;  // bench_common.hpp's calibrated support
  bool traced = false;
  bool wrong_reference = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "rmsbench: %s\n"
               "usage: rmsbench reference|run --workload W --seed S "
               "[--scale X] [--min-support X] [--traced] "
               "[--wrong-reference]\n",
               why);
  std::exit(2);
}

double parse_double(const char* flag, const char* text) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(v > 0.0)) usage(flag);
  return v;
}

std::uint64_t parse_u64(const char* flag, const char* text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') usage(flag);
  return v;
}

bool is_hpa(const std::string& workload) {
  return workload == "hpa-nolimit" || workload == "hpa-remote-swap" ||
         workload == "hpa-remote-update";
}

Options parse(int argc, char** argv) {
  if (argc < 2) usage("missing mode");
  Options o;
  o.mode = argv[1];
  if (o.mode != "reference" && o.mode != "run") usage("unknown mode");
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = parse_u64("--seed", value());
    } else if (a == "--scale") {
      o.scale = parse_double("--scale", value());
    } else if (a == "--min-support") {
      o.min_support = parse_double("--min-support", value());
    } else if (a == "--traced") {
      o.traced = true;
    } else if (a == "--wrong-reference") {
      o.wrong_reference = true;
    } else {
      usage(("unknown flag " + a).c_str());
    }
  }
  if (!is_hpa(o.workload) && o.workload != "multitenant") {
    usage("unknown --workload");
  }
  if (o.mode == "reference" && !is_hpa(o.workload)) {
    usage("reference applies to the hpa-* workloads only");
  }
  return o;
}

// ---- host clock ------------------------------------------------------------

using Clock = std::chrono::steady_clock;

double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

/// Host-clock spans around the calls into each layer: name, start, end and
/// parent (0 = root). Kept in memory and printed with the result; run.py
/// re-parents them under its per-process span and writes the run's file.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}

  int open(const char* name, int parent) {
    if (!enabled_) return 0;
    spans_.push_back({name, now_s(), -1.0, parent});
    return static_cast<int>(spans_.size());
  }
  void close(int id) {
    if (id > 0) spans_[static_cast<std::size_t>(id - 1)].end = now_s();
  }

  void write(obs::JsonWriter& w) const {
    w.key("spans");
    w.begin_array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      w.begin_object();
      w.kv("id", static_cast<std::uint64_t>(i + 1));
      w.kv("name", spans_[i].name);
      w.kv("start", spans_[i].start);
      w.kv("end", spans_[i].end);
      w.kv("parent", static_cast<std::int64_t>(spans_[i].parent));
      w.end_object();
    }
    w.end_array();
  }

 private:
  struct Span {
    std::string name;
    double start;
    double end;
    int parent;
  };
  bool enabled_;
  std::vector<Span> spans_;
};

/// Peak resident set of this process so far, in MB (ru_maxrss is in KiB).
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;
}

// ---- workloads ---------------------------------------------------------------

/// Seeds of the multitenant scenario, offset from bench_ext_multitenant's
/// defaults (world 1, join tables 11/22) by the workload seed's distance
/// from kDefaultSeed, so the default seed replays that bench. Its fixed
/// arrival trace draws no random numbers.
std::uint64_t derived_seed(std::uint64_t base, std::uint64_t seed) {
  return base + (seed - kDefaultSeed);  // unsigned: wraps, never UB
}

mining::QuestParams database_params(const Options& o) {
  mining::QuestParams wl = mining::QuestParams::paper_experiment(o.scale);
  wl.seed = o.seed;
  return wl;
}

/// The paper's §5.1 configuration exactly as bench/bench_common.hpp builds
/// it (8 application nodes, 16 donors, Table-3 skew, 800k hash lines, 4 KB
/// messages, max_k 2), with the workload's memory limit and policy.
hpa::HpaConfig paper_config(const Options& o, const mining::TransactionDb& db) {
  hpa::HpaConfig cfg;
  cfg.app_nodes = 8;
  cfg.memory_nodes = 16;
  cfg.workload = database_params(o);
  cfg.shared_db = &db;
  cfg.min_support = o.min_support;
  cfg.hash_lines = 800'000;
  cfg.message_block_bytes = 4096;
  cfg.io_block_bytes = 65536;
  cfg.max_k = 2;
  cfg.partition_weights = hpa::paper_table3_weights();
  if (o.workload == "hpa-remote-swap" || o.workload == "hpa-remote-update") {
    cfg.memory_limit_bytes = 12'000'000;  // bench::mb(12): Fig. 4's 12 MB
    cfg.policy = o.workload == "hpa-remote-swap"
                     ? core::SwapPolicy::kRemoteSwap
                     : core::SwapPolicy::kRemoteUpdate;
  }
  return cfg;
}

/// Input generation and partitioning, repeated `reps` times (host seconds
/// of each repetition in `seconds`); returns the last database.
mining::TransactionDb setup_inputs(const mining::QuestParams& wl,
                                   std::size_t parts, int reps,
                                   std::vector<double>& seconds, Spans& spans,
                                   int parent) {
  mining::TransactionDb db;
  for (int r = 0; r < reps; ++r) {
    const int s = spans.open("setup", parent);
    const auto t0 = Clock::now();
    const int g = spans.open("mining::QuestGenerator::generate", s);
    db = mining::QuestGenerator(wl).generate();
    spans.close(g);
    const int p = spans.open("mining::TransactionDb::partition", s);
    const std::vector<mining::TransactionDb> partitions = db.partition(parts);
    spans.close(p);
    seconds.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
    spans.close(s);
  }
  return db;
}

/// Order-independent identity of a support table: FNV-1a over the entries
/// sorted by itemset.
std::string support_digest(const mining::AprioriResult& mined) {
  std::vector<std::pair<mining::Itemset, std::uint32_t>> rows(
      mined.support.begin(), mined.support.end());
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (const auto& [itemset, count] : rows) {
    mix(itemset.size());
    for (const mining::Item item : itemset) mix(item);
    mix(count);
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

// ---- per-layer extraction ------------------------------------------------------

using Layers = std::map<std::string, double>;

/// Every per-layer metric the traced run reports, zero-initialised; a layer
/// a workload does not exercise stays 0.
Layers empty_layers() {
  Layers l;
  for (const char* name :
       {"sim.events", "net.messages", "net.wire_mb", "transport.rpc_calls",
        "transport.rpc_p50_ms", "transport.rpc_p99_ms", "transport.rpc_s",
        "transport.stream_s", "core.pagefaults", "core.swap_outs",
        "core.updates", "core.fault_p99_ms", "core.fault_in_s",
        "core.swap_out_s", "core.serve_s", "placement.chosen",
        "placement.fallback_disk", "disk.accesses", "disk.io_s",
        "mining.candidates", "mining.compute_s", "runtime.build_s",
        "runtime.count_s", "runtime.determine_s", "runtime.barrier_wait_s",
        "sched.admit_wait_virtual_s", "sched.admission_waits",
        "sched.reclaim_events", "sched.reclaimed_kb",
        "sched.peak_queue_depth", "obs.app_unattributed_s",
        "obs.trace_dropped"}) {
    l[name] = 0.0;
  }
  return l;
}

/// Counters, histograms and placement decisions from a merged registry.
void stats_layers(const StatsRegistry& stats, Layers& l) {
  l["net.messages"] = static_cast<double>(stats.counter("net.messages"));
  l["net.wire_mb"] = static_cast<double>(stats.counter("net.wire_bytes")) / 1e6;
  const Histogram& rpc = stats.histogram("rpc.latency_ms");
  l["transport.rpc_calls"] = static_cast<double>(rpc.count());
  l["transport.rpc_p50_ms"] = rpc.percentile(0.5);
  l["transport.rpc_p99_ms"] = rpc.percentile(0.99);
  l["core.fault_p99_ms"] = stats.histogram("store.fault_ms").percentile(0.99);
  for (const auto& [name, value] : stats.counters()) {
    const auto v = static_cast<double>(value);
    if (name.starts_with("placement.") && name.ends_with(".chosen")) {
      l["placement.chosen"] += v;
    } else if (name.starts_with("placement.") &&
               name.ends_with(".fallback_disk")) {
      l["placement.fallback_disk"] += v;
    } else if (name.starts_with("disk.") && name.ends_with(".count")) {
      l["disk.accesses"] += v;
    }
  }
}

void phase_layers(Time build, Time count, Time determine, Layers& l) {
  l["runtime.build_s"] = to_seconds(build);
  l["runtime.count_s"] = to_seconds(count);
  l["runtime.determine_s"] = to_seconds(determine);
}

/// Pass-2 profiler categories: application nodes (ids below app_nodes)
/// and donors summed separately, so idle donors do not dilute the shares.
void profile_layers(const obs::RunProfile& run, std::size_t app_nodes,
                    Layers& l) {
  using C = obs::ProfileCategory;
  l["obs.trace_dropped"] = static_cast<double>(run.trace_dropped);
  for (const obs::PassProfile& pass : run.passes) {
    if (pass.k != 2) continue;
    for (const obs::NodeProfile& n : pass.nodes) {
      const auto sec_of = [&n](C c) { return to_seconds(n.category(c)); };
      if (static_cast<std::size_t>(n.node) >= app_nodes) {
        l["core.serve_s"] += sec_of(C::kServe);
        continue;
      }
      l["transport.rpc_s"] += sec_of(C::kRpc);
      l["transport.stream_s"] += sec_of(C::kStream);
      l["core.fault_in_s"] += sec_of(C::kFaultIn);
      l["core.swap_out_s"] += sec_of(C::kSwapOut);
      l["disk.io_s"] += sec_of(C::kDiskIo);
      l["mining.compute_s"] += sec_of(C::kCompute);
      l["runtime.barrier_wait_s"] += sec_of(C::kBarrierWait);
      l["obs.app_unattributed_s"] += sec_of(C::kUnattributed);
    }
  }
}

/// Last sample of the cluster-wide executed_events gauge.
double final_executed_events(const obs::MetricsSampler& metrics) {
  if (metrics.runs().empty()) return 0.0;
  const obs::MetricsSampler::Run& run = metrics.runs().back();
  for (std::size_t s = 0; s < run.series.size(); ++s) {
    if (run.series[s].name == "executed_events" && !run.rows.empty()) {
      return run.rows.back()[s];
    }
  }
  return 0.0;
}

// ---- results -------------------------------------------------------------------

struct Outcome {
  double run_s = 0.0;
  double peak_rss_mb = 0.0;
  std::map<std::string, Time> modelled;  // virtual ns (exact repeat gates)
  std::int64_t attempted = 1;
  std::int64_t failed = 0;
  std::string support_digest;  // hpa-* only
  std::int64_t support_size = 0;
  std::vector<std::string> notes;  // why an operation failed
  Layers layers;
};

Outcome run_paper_hpa(const Options& o, const mining::TransactionDb& db,
                      Spans& spans, int parent) {
  hpa::HpaConfig cfg = paper_config(o, db);
  std::unique_ptr<obs::TraceRecorder> trace;
  std::unique_ptr<obs::PassProfiler> profiler;
  std::unique_ptr<obs::MetricsSampler> metrics;
  if (o.traced) {
    trace = std::make_unique<obs::TraceRecorder>();
    profiler = std::make_unique<obs::PassProfiler>();
    metrics = std::make_unique<obs::MetricsSampler>();
    trace->set_profile_hook(profiler.get());
    trace->begin_run(o.workload);
    profiler->begin_run(o.workload);
    metrics->begin_run(o.workload);
    cfg.trace = trace.get();
    cfg.profiler = profiler.get();
    cfg.metrics = metrics.get();
  }

  Outcome out;
  const int span = spans.open("hpa::run_hpa", parent);
  const auto t0 = Clock::now();
  const hpa::HpaResult result = hpa::run_hpa(cfg);
  out.run_s = std::chrono::duration<double>(Clock::now() - t0).count();
  spans.close(span);
  out.peak_rss_mb = peak_rss_mb();

  const hpa::PassReport* pass2 = result.pass(2);
  if (pass2 == nullptr) {
    out.failed = 1;
    out.notes.push_back("run_hpa produced no pass 2");
    return out;
  }
  out.modelled["pass2_virtual_s"] = pass2->duration;
  out.modelled["makespan_virtual_s"] = result.total_time;
  out.support_digest = support_digest(result.mined);
  out.support_size = static_cast<std::int64_t>(result.mined.support.size());
  if (!o.traced) return out;

  const int harvest = spans.open("harvest", parent);
  profiler->end_run(trace->dropped());
  Layers& l = out.layers = empty_layers();
  l["sim.events"] = final_executed_events(*metrics);
  stats_layers(result.stats, l);
  for (std::size_t n = 0; n < pass2->pagefaults_per_node.size(); ++n) {
    l["core.pagefaults"] += static_cast<double>(pass2->pagefaults_per_node[n]);
    l["core.swap_outs"] += static_cast<double>(pass2->swap_outs_per_node[n]);
    l["core.updates"] += static_cast<double>(pass2->updates_per_node[n]);
  }
  l["mining.candidates"] = static_cast<double>(pass2->candidates_global);
  phase_layers(pass2->phase(hpa::kBuildPhase), pass2->phase(hpa::kCountPhase),
               pass2->phase(hpa::kDeterminePhase), l);
  profile_layers(profiler->runs().back(), cfg.app_nodes, l);
  spans.close(harvest);
  return out;
}

/// HpaWorkload::check_exactness re-mines with the default max_k, so a
/// max_k = 2 job is reported inexact whenever its database has a large
/// itemset beyond k = 2. Names that cause when it applies; the job still
/// counts as failed.
std::string known_defect_note(const mining::TransactionDb& db,
                              const hpa::HpaConfig& cfg) {
  const mining::AprioriResult full = mining::apriori(db, cfg.min_support);
  std::size_t beyond = 0;
  for (const auto& [itemset, count] : full.support) {
    if (itemset.size() > cfg.max_k) ++beyond;
  }
  if (beyond == 0) return "";
  return " (known check_exactness defect: the default-max_k reference has " +
         std::to_string(beyond) + " large itemset(s) beyond k = " +
         std::to_string(cfg.max_k) + ")";
}

/// bench_ext_multitenant's headline scenario at its defaults (4 jobs, 4
/// donors x 512 KB, fixed arrivals), with every seed derived from the
/// workload seed. `db` is hpa-hi's database.
Outcome run_multitenant(const Options& o, const mining::TransactionDb& db,
                        Spans& spans, int parent) {
  constexpr std::size_t kSlots = 8;
  constexpr std::size_t kDonors = 4;
  constexpr std::int64_t kDonorFree = 512 * 1024;
  constexpr std::int64_t kPool = kDonorFree * static_cast<std::int64_t>(kDonors);

  std::unique_ptr<obs::TraceRecorder> trace;
  if (o.traced) {
    trace = std::make_unique<obs::TraceRecorder>();
    trace->begin_run(o.workload);
  }

  Outcome out;
  const int span = spans.open("sched::JobScheduler", parent);
  const auto t0 = Clock::now();

  sim::Simulation sim;
  sched::WorldConfig wcfg;
  wcfg.app_nodes = kSlots;
  wcfg.memory_nodes = kDonors;
  wcfg.monitor_interval = sec(1);
  wcfg.seed = derived_seed(1, o.seed);
  wcfg.trace = trace.get();
  sched::World world(sim, wcfg);
  for (std::size_t i = 0; i < kDonors; ++i) {
    cluster::HostMemoryModel& mem =
        world.cluster().node(world.memory_node(i)).memory();
    mem.external_bytes = std::max<std::int64_t>(
        0, mem.total_bytes - mem.base_bytes - kDonorFree);
  }

  workloads::HashAggregateConfig acfg;
  acfg.app_nodes = 4;
  acfg.workload = mining::QuestParams::paper_experiment(0.1);
  acfg.workload.seed = o.seed;
  acfg.hash_lines = 4096;
  acfg.memory_limit_bytes = 8 * 1024;
  acfg.policy = core::SwapPolicy::kRemoteUpdate;
  acfg.trace = trace.get();

  hpa::HpaConfig hcfg;
  hcfg.app_nodes = 4;
  hcfg.workload = database_params(o);
  hcfg.shared_db = &db;
  hcfg.min_support = 0.01;
  hcfg.hash_lines = 20'000;
  hcfg.max_k = 2;
  hcfg.memory_limit_bytes = 20'000;
  hcfg.policy = core::SwapPolicy::kRemoteUpdate;
  hcfg.trace = trace.get();

  workloads::HashJoinConfig jcfg;
  jcfg.app_nodes = 4;
  jcfg.build_rows = 20'000;
  jcfg.probe_rows = 20'000;
  jcfg.build_seed = derived_seed(11, o.seed);
  jcfg.probe_seed = derived_seed(22, o.seed);
  jcfg.memory_limit_bytes = 96'000;
  jcfg.policy = core::SwapPolicy::kRemoteSwap;
  jcfg.trace = trace.get();
  workloads::HashJoinConfig shed_cfg = jcfg;
  shed_cfg.app_nodes = 2;

  sched::SchedulerConfig scfg;
  scfg.horizon = sec(900);
  scfg.trace = trace.get();
  sched::JobScheduler scheduler(world, scfg);
  {
    sched::JobSpec s;
    s.name = "agg-bg";
    s.workload = "hash_aggregate";
    s.tenant = 1;
    s.priority = 1;
    s.slots = 4;
    s.make = [&acfg] { return workloads::make_hash_aggregate_job(acfg); };
    scheduler.submit(std::move(s));
  }
  {
    sched::JobSpec s;
    s.name = "bulk-shed";
    s.workload = "hash_join";
    s.tenant = 4;
    s.arrival = sec(2);
    s.slots = 2;
    s.demand_bytes = 8LL << 20;
    s.admission_deadline = sec(3);
    s.make = [&shed_cfg] { return workloads::make_hash_join_job(shed_cfg); };
    scheduler.submit(std::move(s));
  }
  {
    sched::JobSpec s;
    s.name = "hpa-hi";
    s.workload = "hpa";
    s.tenant = 2;
    s.priority = 5;
    s.arrival = msec(6'000);
    s.slots = 4;
    s.demand_bytes = kPool - 16 * 1024;
    s.make = [&hcfg] { return hpa::make_hpa_job(hcfg); };
    scheduler.submit(std::move(s));
  }
  {
    sched::JobSpec s;
    s.name = "join-mid";
    s.workload = "hash_join";
    s.tenant = 3;
    s.priority = 3;
    s.arrival = sec(12);
    s.slots = 4;
    s.demand_bytes = 128 << 10;
    s.make = [&jcfg] { return workloads::make_hash_join_job(jcfg); };
    scheduler.submit(std::move(s));
  }

  world.start();
  sim.spawn(scheduler.run());
  sim.run();
  out.run_s = std::chrono::duration<double>(Clock::now() - t0).count();
  spans.close(span);
  out.peak_rss_mb = peak_rss_mb();

  // Scenario state: bulk-shed shed, every other job completed and exact.
  out.attempted = static_cast<std::int64_t>(scheduler.jobs().size());
  Time makespan = 0;
  const sched::JobRecord* hi = nullptr;
  for (const sched::JobRecord& j : scheduler.jobs()) {
    const bool want_shed = j.spec.name == "bulk-shed";
    const bool ok = want_shed ? j.state == sched::JobState::kShed
                              : j.state == sched::JobState::kCompleted &&
                                    j.report.completed && j.report.exact;
    if (!ok) {
      ++out.failed;
      std::string note = j.spec.name + " ended " +
                         sched::job_state_name(j.state);
      if (j.report.completed && !j.report.exact) {
        note += " with an inexact result";
        if (j.spec.name == "hpa-hi") note += known_defect_note(db, hcfg);
      }
      out.notes.push_back(note);
    }
    makespan = std::max(makespan, j.finished);
    if (j.spec.name == "hpa-hi") hi = &j;
  }
  out.modelled["makespan_virtual_s"] = makespan;
  Time hi_pass2 = 0;
  Time admit_wait = 0;
  const runtime::PassTiming* hi_timing = nullptr;
  if (hi != nullptr && hi->admitted >= 0) {
    admit_wait = hi->admitted - hi->spec.arrival;
    for (const runtime::PassTiming& p : hi->report.passes) {
      if (p.pass == 2) hi_timing = &p;
    }
    if (hi_timing != nullptr) hi_pass2 = hi_timing->duration();
  }
  out.modelled["pass2_virtual_s"] = hi_pass2;
  if (!o.traced) return out;

  const int harvest = spans.open("harvest", parent);
  Layers& l = out.layers = empty_layers();
  l["sim.events"] = static_cast<double>(sim.executed_events());
  StatsRegistry merged;
  cluster::Cluster& cluster = world.cluster();
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    cluster::Node& node = cluster.node(static_cast<net::NodeId>(i));
    merged.merge(node.stats());
    merged.merge(node.data_disk().stats());
    merged.merge(node.swap_disk().stats());
  }
  merged.merge(cluster.network().stats());
  for (std::size_t s = 0; s < kSlots; ++s) {
    merged.merge(world.broker_at(s).stats());
  }
  stats_layers(merged, l);
  for (const sched::JobRecord& j : scheduler.jobs()) {
    l["core.pagefaults"] += static_cast<double>(j.report.pagefaults);
    l["core.swap_outs"] += static_cast<double>(j.report.swap_outs);
    l["core.updates"] += static_cast<double>(j.report.updates_sent);
  }
  if (hi_timing != nullptr) {
    phase_layers(hi_timing->phase_time(hpa::kBuildPhase),
                 hi_timing->phase_time(hpa::kCountPhase),
                 hi_timing->phase_time(hpa::kDeterminePhase), l);
  }
  const sched::JobScheduler::Stats& st = scheduler.stats();
  l["sched.admit_wait_virtual_s"] = to_seconds(admit_wait);
  l["sched.admission_waits"] = st.admission_waits;
  l["sched.reclaim_events"] = st.reclaim_events;
  l["sched.reclaimed_kb"] = static_cast<double>(st.reclaimed_bytes) / 1024.0;
  l["sched.peak_queue_depth"] = static_cast<double>(st.peak_queue_depth);
  l["obs.trace_dropped"] = static_cast<double>(trace->dropped());
  spans.close(harvest);
  return out;
}

int cmd_reference(const Options& o) {
  Spans spans(true);
  const int root = spans.open("rmsbench reference", 0);
  const int g = spans.open("mining::QuestGenerator::generate", root);
  const mining::TransactionDb db =
      mining::QuestGenerator(database_params(o)).generate();
  spans.close(g);

  mining::AprioriOptions opts;
  opts.hash_lines = 800'000;
  opts.max_k = 2;
  const int a = spans.open("mining::apriori", root);
  const auto t0 = Clock::now();
  mining::AprioriResult ref = mining::apriori(db, o.min_support, opts);
  const double reference_s =
      std::chrono::duration<double>(Clock::now() - t0).count();
  spans.close(a);
  if (o.wrong_reference && !ref.support.empty()) {
    const auto first = std::min_element(
        ref.support.begin(), ref.support.end(),
        [](const auto& x, const auto& y) { return x.first < y.first; });
    first->second += 1;
  }
  spans.close(root);

  obs::JsonWriter w;
  w.begin_object();
  w.kv("mode", "reference");
  w.kv("workload", o.workload);
  w.kv("support_size", static_cast<std::uint64_t>(ref.support.size()));
  w.kv("support_digest", support_digest(ref));
  w.kv("reference_s", reference_s);
  spans.write(w);
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

int cmd_run(const Options& o) {
  Spans spans(o.traced);
  const int root = spans.open("rmsbench run", 0);
  std::vector<double> setup_s;
  const std::size_t parts = is_hpa(o.workload) ? 8 : 4;
  const mining::TransactionDb db = setup_inputs(
      database_params(o), parts, kSetupReps, setup_s, spans, root);
  const Outcome out = is_hpa(o.workload) ? run_paper_hpa(o, db, spans, root)
                                         : run_multitenant(o, db, spans, root);
  spans.close(root);

  obs::JsonWriter w;
  w.begin_object();
  w.kv("mode", "run");
  w.kv("workload", o.workload);
  w.kv("traced", o.traced);
  w.key("setup_s");
  w.begin_array();
  for (const double s : setup_s) w.value(s);
  w.end_array();
  w.kv("run_s", out.run_s);
  w.kv("peak_rss_mb", out.peak_rss_mb);
  w.key("modelled_ns");
  w.begin_object();
  for (const auto& [name, value] : out.modelled) {
    w.kv(name, static_cast<std::int64_t>(value));
  }
  w.end_object();
  w.kv("attempted", out.attempted);
  w.kv("failed", out.failed);
  w.kv("support_size", out.support_size);
  w.kv("support_digest", out.support_digest);
  w.key("notes");
  w.begin_array();
  for (const std::string& n : out.notes) w.value(n);
  w.end_array();
  w.key("layers");
  w.begin_object();
  for (const auto& [name, value] : out.layers) w.kv(name, value);
  w.end_object();
  spans.write(w);
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  return o.mode == "reference" ? cmd_reference(o) : cmd_run(o);
}

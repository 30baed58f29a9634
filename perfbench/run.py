#!/usr/bin/env python3
"""Two-clock benchmark of rmswap: host cost and modelled virtual time.

Usage (from the repository root):

    python3 perfbench/run.py --workload hpa-remote-swap --seed 20000501 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The first run builds perfbench/CMakeLists.txt (the library from src/ plus
the rmsbench driver) into .bench_build/perfbench. Every timed call then runs
in a fresh rmsbench process, so peak RSS covers that call only.

--trace 0 loops timed calls over the run's database suite (three databases
derived from --seed for the hpa-* workloads, one for multitenant) for
--seconds, at least one call per database, and reports the end-to-end
metrics of BENCHMARK.json; --trace 1 makes two untraced and two traced calls and
reports the per-layer metrics, and writes host-clock spans to
.bench_build/perfbench/spans/. Every run checks its outputs: HPA support
tables against the sequential mining::apriori reference, the multitenant
scenario's end states, modelled times repeating exactly, the fig4 entries of
BENCH_BASELINE.json at the default seed, and the Fig. 4 ordering. The last
stdout line is one JSON object: correct, attempted, failed, metrics.
See perfbench/NOTES.md.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "rmsbench")

HPA = ("hpa-nolimit", "hpa-remote-swap", "hpa-remote-update")
WORKLOADS = HPA + ("multitenant",)
DEFAULT_SEED = 20000501  # QuestParams' seed: the fig4 recipe's database
DEFAULT_SCALE = 0.01
DEFAULT_MIN_SUPPORT = 0.00025
# BENCH_BASELINE.json fig4 series per workload, and Fig. 4's order
# (fastest first).
FIG4_SERIES = {"hpa-nolimit": "no_limit",
               "hpa-remote-swap": "remote-swap/12.0MB",
               "hpa-remote-update": "remote-update/12.0MB"}
FIG4_ORDER = ("hpa-nolimit", "hpa-remote-update", "hpa-remote-swap")
# Databases per --trace 0 run of an hpa-* workload: pass-2 time at the 12 MB
# limit moves ~13% between databases, so a run averages a suite of them.
SUITE_SIZE = 3
CHILD_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 840


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def die(msg):
    log(f"error: {msg}")
    sys.exit(2)


# ---- build --------------------------------------------------------------

def build():
    """Configure (once) and build rmsbench; output goes to stderr."""
    cache = os.path.join(BUILD, "CMakeCache.txt")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "rmsbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            die(f"build step {cmd[:2]} failed: {e}")
        if rc != 0:
            die(f"build step {' '.join(cmd[:2])} exited {rc}")


# ---- child processes -------------------------------------------------------

def child(args, spans=None, parent=0):
    """Run rmsbench once; returns its JSON result (last stdout line)."""
    cmd = [BINARY] + args
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{' '.join(args[:3])} timed out after {CHILD_TIMEOUT_S} s")
    end = time.monotonic()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die(f"rmsbench {' '.join(args)} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if spans is not None:
        spans.adopt(f"process: rmsbench {args[0]}", start, end, parent,
                    result.get("spans", []))
    return result


class Spans:
    """Host-clock spans of one traced run: name, start, end, parent, with
    one run id. Kept in memory, written once at exit."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []

    def add(self, name, start, end, parent):
        self.spans.append({"id": len(self.spans) + 1, "name": name,
                           "start": start, "end": end, "parent": parent})
        return len(self.spans)

    def adopt(self, name, start, end, parent, child_spans):
        """Add a process span and re-parent the child's own spans (same
        CLOCK_MONOTONIC timebase) under it."""
        pid = self.add(name, start, end, parent)
        base = len(self.spans)
        for s in child_spans:
            self.add(s["name"], s["start"], s["end"],
                     base + s["parent"] if s["parent"] else pid)

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"run_id": self.run_id, "clock": "CLOCK_MONOTONIC s",
                       "spans": self.spans}, f, indent=1)


# ---- checks ------------------------------------------------------------------

def fig4_baseline():
    """Pass-2 durations (ns) of the fig4 recipe, keyed by workload."""
    with open(os.path.join(ROOT, "BENCH_BASELINE.json")) as f:
        fig4 = json.load(f)["recipes"]["fig4"]
    return {w: round(p["duration_s"] * 1e9)
            for w, series in FIG4_SERIES.items()
            for p in fig4[series] if p["k"] == 2}


def binary_digest():
    h = hashlib.sha256()
    with open(BINARY, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def database_seeds(opts):
    """The run's database suite: the run seed first (so the default seed
    includes the fig4 recipe's database), then seeds spread by a golden-ratio
    stride so suites of nearby run seeds share no database."""
    k = SUITE_SIZE if opts.workload in HPA else 1
    return [(opts.seed + i * 0x9E3779B97F4A7C15) % 2 ** 64 for i in range(k)]


class Checker:
    """Counts operations and failures, keeps the reasons, and holds the
    per-build cache of references and modelled times under .bench_build."""

    def __init__(self, opts):
        self.opts = opts
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.modelled = {}  # database seed -> modelled times (ns)
        self.cache = os.path.join(BUILD, "cache", binary_digest(),
                                  f"{opts.scale!r}-{opts.min_support!r}")
        os.makedirs(self.cache, exist_ok=True)

    def problem(self, msg):
        self.problems.append(msg)
        log(f"CHECK FAILED: {msg}")

    def reference(self, seed, spans=None, parent=0):
        """The sequential apriori reference of one database, built once per
        build and database (the three hpa-* workloads share it). A traced run
        rebuilds it to time it; an injected wrong one is never cached."""
        args = ["reference"] + base_args(self.opts, seed)
        if self.opts.wrong_reference:
            return child(args + ["--wrong-reference"], spans, parent)
        path = os.path.join(self.cache, f"reference-{seed}.json")
        if os.path.exists(path) and spans is None:
            with open(path) as f:
                return json.load(f)
        ref = child(args, spans, parent)
        with open(path, "w") as f:
            json.dump(ref, f)
        return ref

    def call(self, seed, result, ref):
        """Check one timed call of database `seed`."""
        self.attempted += result["attempted"]
        failed = result["failed"]
        for note in result["notes"]:
            self.problem(note)
        if ref is not None:
            want = (ref["support_size"], ref["support_digest"])
            got = (result["support_size"], result["support_digest"])
            if got != want:
                self.problem(f"database {seed}: mined support {got} differs "
                             f"from the apriori reference {want}")
                failed = max(failed, 1)
        modelled = result["modelled_ns"]
        first = self.modelled.setdefault(seed, modelled)
        if modelled != first:
            self.problem(f"database {seed}: modelled times changed between "
                         f"calls: {first} vs {modelled}")
            failed = max(failed, 1)
        self.failed += failed

    def run_level(self):
        """Cross-run gates, per database: exact repeat against earlier runs
        of this build and, at the fig4 recipe's scale and support, the
        BENCH_BASELINE.json fig4 entries (default seed) and the Fig. 4 order
        across the hpa-* workloads."""
        o = self.opts
        bad = False
        for seed, modelled in self.modelled.items():
            path = os.path.join(self.cache, f"{o.workload}-{seed}.json")
            if os.path.exists(path):
                with open(path) as f:
                    earlier = json.load(f)
                if earlier != modelled:
                    self.problem(f"database {seed}: modelled times differ "
                                 f"from an earlier run of this build: "
                                 f"{earlier} vs {modelled}")
                    bad = True
            else:
                with open(path, "w") as f:
                    json.dump(modelled, f)
            # Both checks hold at the fig4 recipe's configuration only.
            if o.workload not in HPA or (o.scale, o.min_support) != (
                    DEFAULT_SCALE, DEFAULT_MIN_SUPPORT):
                continue
            pass2 = modelled["pass2_virtual_s"]
            if seed == DEFAULT_SEED:
                want = fig4_baseline()[o.workload]
                if pass2 != want:
                    self.problem(f"pass 2 took {pass2} ns; BENCH_BASELINE.json"
                                 f" fig4 {FIG4_SERIES[o.workload]} has {want}")
                    bad = True
            known = {}
            for w in FIG4_ORDER:
                p = os.path.join(self.cache, f"{w}-{seed}.json")
                if os.path.exists(p):
                    with open(p) as f:
                        known[w] = json.load(f)["pass2_virtual_s"]
            ordered = list(known.values())
            if ordered != sorted(set(ordered)):
                self.problem(f"database {seed}: Fig. 4 order nolimit < "
                             f"remote-update < remote-swap violated: {known}")
                bad = True
        if bad:
            self.failed = max(self.failed, 1)


# ---- runs ----------------------------------------------------------------------

def base_args(opts, seed):
    args = ["--workload", opts.workload, "--seed", str(seed)]
    if opts.scale != DEFAULT_SCALE:
        args += ["--scale", repr(opts.scale)]
    if opts.min_support != DEFAULT_MIN_SUPPORT:
        args += ["--min-support", repr(opts.min_support)]
    return args


def timed_run(opts, check):
    """--trace 0: cycles of fresh-process timed calls, one per database of
    the suite, until --seconds are used (at least one cycle). Host figures
    are per-database medians, averaged over the suite; modelled times are
    averaged over the suite."""
    seeds = database_seeds(opts)
    refs = {s: check.reference(s) if opts.workload in HPA else None
            for s in seeds}
    calls = {s: [] for s in seeds}
    start = time.monotonic()
    cycles = 0
    while True:
        for s in seeds:
            r = child(["run"] + base_args(opts, s))
            check.call(s, r, refs[s])
            calls[s].append(r)
        cycles += 1
        elapsed = time.monotonic() - start
        if elapsed + elapsed / cycles > opts.seconds:
            break
    check.run_level()

    def suite_mean(field):
        return statistics.fmean(statistics.median(c[field] for c in cs)
                                for cs in calls.values())

    def modelled_mean(name):
        return statistics.fmean(m[name] for m in check.modelled.values()) / 1e9

    return {
        "run_s": suite_mean("run_s"),
        "peak_rss_mb": suite_mean("peak_rss_mb"),
        "setup_s": statistics.median(x for cs in calls.values()
                                     for c in cs for x in c["setup_s"]),
        "makespan_virtual_s": modelled_mean("makespan_virtual_s"),
    }, cycles * len(seeds)


def traced_run(opts, check):
    """--trace 1: on the run seed's database, untraced and traced calls in
    the order plain, traced, traced, plain; per-layer metrics from the last
    traced call, tracing overhead as the difference of the two medians."""
    seed = opts.seed
    run_id = f"{opts.workload}-seed{seed}-{os.getpid()}-{time.time_ns()}"
    spans = Spans(run_id)
    t0 = time.monotonic()
    root = spans.add("perfbench run", t0, t0, 0)
    ref = check.reference(seed, spans, root) if opts.workload in HPA else None
    run_s = {False: [], True: []}
    for traced in (False, True, True, False):
        r = child(["run"] + base_args(opts, seed) +
                  (["--traced"] if traced else []), spans, root)
        check.call(seed, r, ref)  # also: modelled times traced == untraced
        run_s[traced].append(r["run_s"])
        if traced:
            last = r
    check.run_level()
    spans.spans[root - 1]["end"] = time.monotonic()
    path = os.path.join(BUILD, "spans", run_id + ".json")
    spans.write(path)
    log(f"host-clock spans: {os.path.relpath(path, ROOT)}")

    plain_s = statistics.median(run_s[False])
    layers = dict(last["layers"])
    events = layers["sim.events"]
    layers["sim.ns_per_event"] = plain_s / events * 1e9 if events else 0.0
    layers["mining.reference_s"] = ref["reference_s"] if ref else 0.0
    layers["runtime.pass2_virtual_s"] = (
        last["modelled_ns"]["pass2_virtual_s"] / 1e9)
    layers["obs.trace_overhead_s"] = statistics.median(run_s[True]) - plain_s
    return layers, 4


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return bench["per_layer" if trace else "end_to_end"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="tiny-scale check of metric names, units and the "
                         "failure count (see selftest.py)")
    # Self-test knobs: shrink the hpa-* workloads, inject a wrong reference.
    ap.add_argument("--scale", type=float, default=DEFAULT_SCALE,
                    help=argparse.SUPPRESS)
    ap.add_argument("--min-support", type=float, default=DEFAULT_MIN_SUPPORT,
                    help=argparse.SUPPRESS)
    ap.add_argument("--wrong-reference", action="store_true",
                    help=argparse.SUPPRESS)
    opts = ap.parse_args()
    if opts.self_test:
        import selftest
        sys.exit(selftest.main(__file__))
    if opts.workload is None:
        ap.error("--workload is required")
    if not 0 <= opts.seed < 2 ** 64:
        ap.error("--seed must be in [0, 2^64)")
    if opts.seconds <= 0 or opts.scale <= 0 or opts.min_support <= 0:
        ap.error("--seconds, --scale and --min-support must be positive")

    declared = declared_metrics(opts.trace)
    build()
    check = Checker(opts)
    if opts.trace:
        values, calls = traced_run(opts, check)
    else:
        values, calls = timed_run(opts, check)

    metrics = {}
    for m in declared:
        if m["name"] not in values:
            die(f"metric {m['name']} is declared but not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:28s} {values[m['name']]:.9g} {m['unit']}")
    ratio = check.failed / check.attempted if check.attempted else 1.0
    print(f"{'failed_ratio':28s} {ratio:.9g} ({check.failed} of "
          f"{check.attempted} operations, {calls} timed calls)")
    for p in check.problems:
        print(f"problem: {p}")
    print(json.dumps({"correct": check.failed == 0 and check.attempted > 0,
                      "attempted": check.attempted, "failed": check.failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()

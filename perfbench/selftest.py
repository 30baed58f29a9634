"""Self-test of the benchmark at tiny scale: `python3 perfbench/run.py
--self-test` from the repository root.

Checks that
  * every workload, with --trace 0 and --trace 1, prints as its last line a
    result with exactly the keys correct/attempted/failed/metrics, carrying
    every metric BENCHMARK.json names with its unit and a finite value;
  * an injected wrong apriori reference is counted in `failed` (so in
    failed_ratio) and makes the result incorrect;
  * in a directory holding only BENCHMARK.json and perfbench/, the benchmark
    exits non-zero without printing a result.
The hpa-* workloads run at --scale 0.002 --min-support 0.01 (D = 2,000); the
baseline and Fig. 4 order gates apply at the fig4 recipe's scale only.
"""
import json
import math
import os
import shutil
import subprocess
import sys

TINY = ["--scale", "0.002", "--min-support", "0.01"]
WORKLOADS = ("hpa-nolimit", "hpa-remote-swap", "hpa-remote-update",
             "multitenant")


def run(run_py, cwd, args):
    proc = subprocess.run([sys.executable, run_py] + args, cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else "", proc.stderr


def check_result(line, declared):
    """Problems with one result line; [] when it meets the contract."""
    try:
        r = json.loads(line)
    except json.JSONDecodeError:
        return [f"last line is not JSON: {line!r}"]
    problems = []
    if set(r) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(r)}")
        return problems
    if not isinstance(r["attempted"], int) or r["attempted"] < 1:
        problems.append(f"attempted {r['attempted']!r}")
    if set(r["metrics"]) != {m["name"] for m in declared}:
        problems.append(f"metric names {sorted(r['metrics'])}")
    for m in declared:
        got = r["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')!r}, "
                            f"declared {m['unit']!r}")
        v = got.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append(f"{m['name']}: value {v!r}")
    return problems


def main(run_py):
    run_py = os.path.abspath(run_py)
    root = os.path.dirname(os.path.dirname(run_py))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = 0

    def report(ok, what, detail=""):
        nonlocal failures
        failures += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'}  {what}{'  ' + detail if detail else ''}",
              flush=True)

    for workload in WORKLOADS:
        for trace in (0, 1):
            args = ["--workload", workload, "--seconds", "1", "--trace",
                    str(trace)] + (TINY if workload != "multitenant" else [])
            rc, line, err = run(run_py, root, args)
            declared = bench["per_layer" if trace else "end_to_end"]
            problems = check_result(line, declared) if rc == 0 else [
                f"exit {rc}: {err.strip().splitlines()[-1:]}"]
            if not problems and not json.loads(line)["correct"]:
                problems.append("correct is false")
            report(not problems, f"{workload} --trace {trace}: every metric "
                   f"with its unit", "; ".join(problems))

    rc, line, err = run(run_py, root, ["--workload", "hpa-nolimit",
                                       "--seconds", "1", "--trace", "0",
                                       "--wrong-reference"] + TINY)
    r = json.loads(line) if rc == 0 and line.startswith("{") else {}
    counted = r.get("failed", 0) >= 1 and r.get("correct") is False
    report(counted, "injected wrong reference is counted in failed_ratio",
           f"failed={r.get('failed')} of attempted={r.get('attempted')}")

    bare = os.path.join(root, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(root, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    rc, line, _ = run(os.path.join(bare, "perfbench", "run.py"), bare,
                      ["--workload", "hpa-nolimit", "--seed", "1",
                       "--seconds", "1", "--trace", "0"])
    shutil.rmtree(bare, ignore_errors=True)
    report(rc != 0 and not line.startswith("{"),
           "without the repository sources: non-zero exit, no result",
           f"exit {rc}")

    print("self-test", "passed" if failures == 0 else f"FAILED ({failures})")
    return 0 if failures == 0 else 1

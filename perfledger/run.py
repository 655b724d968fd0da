#!/usr/bin/env python3
"""Perf ledger front end: build the `ledger` program, run one workload (or
all three), and print every metric with its unit and clock.

Usage (from the root of a checkout):

    python3 perfledger/run.py --workload etl_offload|rule_update|service_mix|all
                              --seed N [--seconds S] [--trace 0|1]

It configures and builds perfledger/ (which builds the repository's src/
libraries too) with CMake into .bench_build/perfledger, then runs
`ledger`.  --trace 0 reports the end-to-end metrics of BENCHMARK.json;
--trace 1 reports its per-layer metrics, writes the span file to
.bench_build/perfledger/spans/ and checks it with tools/check_trace.py.
setup_s is the median of seven cold starts, each in a fresh process,
spread before and after the measured window.

The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics".  Exit status is 0 when
every output matched its reference, 1 otherwise (a build or run error
exits 1 without printing that line).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("etl_offload", "rule_update", "service_mix")
SETUP_SAMPLES = 7           # cold starts per run; setup_s is their median
FIRST_BUILD_BUDGET_S = 900  # a fresh checkout compiles the libraries
RUN_BUDGET_S = 175          # every later run, build check included

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfledger"


def log(msg):
    print(f"[perfledger] {msg}", file=sys.stderr, flush=True)


def clean_env():
    """`ledger` pins the interpreter tier itself; never inherit the
    environment aliases that would change it."""
    env = dict(os.environ)
    for var in ("UDP_SIM_BACKEND", "UDP_SIM_NO_PREDECODE",
                "UDP_SIM_THREADS"):
        env.pop(var, None)
    return env


def build(env, deadline):
    """Configure (once) and build `ledger`; returns its path or None."""
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(ROOT / "perfledger"), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, env=env, stdout=sys.stderr,
                          timeout=max(1, deadline - time.monotonic())
                          ).returncode != 0:
            return None
    jobs = str(min(os.cpu_count() or 1, 4))
    cmd = ["cmake", "--build", str(BUILD), "--target", "ledger", "-j", jobs]
    if subprocess.run(cmd, env=env, stdout=sys.stderr,
                      timeout=max(1, deadline - time.monotonic())
                      ).returncode != 0:
        return None
    return BUILD / "ledger"


def commit_id():
    if not (ROOT / ".git").exists():
        return "unknown"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def run_ledger(exe, args, out, env, deadline, echo):
    """Run `ledger` once; returns its result document or None."""
    out.parent.mkdir(parents=True, exist_ok=True)
    if out.exists():
        out.unlink()
    r = subprocess.run([str(exe)] + args + ["--out", str(out)], env=env,
                       capture_output=True, text=True,
                       timeout=max(1, deadline - time.monotonic()))
    if echo:
        sys.stdout.write(r.stdout)
    sys.stderr.write(r.stderr)
    if r.returncode not in (0, 1) or not out.exists():
        log(f"ledger {' '.join(args)} exited {r.returncode}")
        return None
    return json.loads(out.read_text())


def run_workload(exe, spec, workload, a, env, deadline):
    """One workload: the measured run plus the set-up probes.  Returns
    (attempted, failed, metrics) or None on an error."""
    base = ["--workload", workload, "--seed", str(a.seed),
            "--commit", commit_id()]
    tag = f"{workload}-seed{a.seed}-trace{a.trace}"
    spans = BUILD / "spans" / f"{workload}-seed{a.seed}.trace.json"
    args = base + ["--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        spans.parent.mkdir(parents=True, exist_ok=True)
        args += ["--spans", str(spans)]
    attempted = failed = 0
    setups = []

    def probe(i):
        """One fresh-process cold start.  The machine's speed drifts for
        seconds at a time, so probes run on both sides of the window."""
        nonlocal attempted, failed
        res = run_ledger(exe, base + ["--setup-only"],
                         BUILD / "results" / f"{tag}-setup{i}.json", env,
                         deadline, echo=False)
        if res is None:
            return False
        attempted += res["attempted"]
        failed += res["failed"]
        setups.append(res["e2e"]["setup_s"]["value"])
        return True

    probes = 0 if a.trace else SETUP_SAMPLES - 1
    for i in range(probes // 2):
        if not probe(i):
            return None
    res = run_ledger(exe, args, BUILD / "results" / f"{tag}.json", env,
                     deadline, echo=True)
    if res is None:
        return None
    attempted += res["attempted"]
    failed += res["failed"]

    if a.trace:
        checker = ROOT / "tools" / "check_trace.py"
        if checker.exists():
            r = subprocess.run([sys.executable, str(checker), str(spans),
                                "--min-events", "1"], capture_output=True,
                               text=True,
                               timeout=max(1, deadline - time.monotonic()))
            sys.stderr.write(r.stdout + r.stderr)
            if r.returncode != 0:
                log(f"span file {spans} fails {checker.name}")
                return None
        got, names = res["per_layer"], spec["per_layer"]
    else:
        # setup_s: the median of the measured run's own cold start and
        # the probes'.
        setups.append(res["e2e"]["setup_s"]["value"])
        for i in range(probes // 2, probes):
            if not probe(i):
                return None
        got = dict(res["e2e"])
        got["setup_s"] = dict(got["setup_s"],
                              value=statistics.median(setups))
        names = spec["end_to_end"]

    metrics = {}
    print(f"{workload}: {'per-layer' if a.trace else 'end-to-end'} metrics "
          f"(seed {a.seed}, {a.seconds} s, commit {res['env']['commit']})")
    for m in names:
        x = got.get(m["name"])
        if x is None or x["value"] is None or x["unit"] != m["unit"]:
            log(f"{workload}: metric {m['name']} missing or not in "
                f"{m['unit']}: {x}")
            return None
        metrics[m["name"]] = {"value": x["value"], "unit": m["unit"]}
        print(f"  {m['name']:<40} {x['value']:>16.6g} {m['unit']:<7} "
              f"{x['clock']}")
    return attempted, failed, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seconds == int(a.seconds):
        a.seconds = int(a.seconds)

    start = time.monotonic()
    fresh = not (BUILD / "ledger").exists()
    deadline = start + (FIRST_BUILD_BUDGET_S if fresh else RUN_BUDGET_S)
    env = clean_env()
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        exe = build(env, deadline)
        if exe is None:
            log("build failed")
            return 1
        attempted = failed = 0
        metrics = {}
        workloads = WORKLOADS if a.workload == "all" else (a.workload,)
        for w in workloads:
            if fresh or w != workloads[0]:  # each run's own budget
                deadline = time.monotonic() + RUN_BUDGET_S
            res = run_workload(exe, spec, w, a, env, deadline)
            if res is None:
                return 1
            attempted += res[0]
            failed += res[1]
            for name, m in res[2].items():
                metrics[name if len(workloads) == 1 else f"{w}.{name}"] = m
    except (OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log(f"error: {e}")
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

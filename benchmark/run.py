#!/usr/bin/env python3
"""The repository benchmark: builds benchmark/driver and measures its workloads.

One measurement run of one workload (the form BENCHMARK.json names):

    python3 benchmark/run.py --workload fleet_sparse_1m --seed 2008 --seconds 12 --trace 0

builds the driver if needed, runs one discarded warm-up process, then fresh
driver processes (one rep each) until --seconds have passed, and prints as
its last stdout line one JSON object with `correct`, `attempted`, `failed`
and `metrics`. With --trace 0 the metrics are the end-to-end metrics
(medians over the reps); with --trace 1 traced reps alternate with untraced
ones and the metrics are the per-layer ones (medians over the traced reps)
plus trace.overhead_frac.

Other modes:

    python3 benchmark/run.py                    # a full set: 10 runs of every workload on
                                                # seeds 2008.., alternating order, then one
                                                # traced run each; prints a table
    python3 benchmark/run.py --append-history   # ... and appends the set to history.jsonl
    python3 benchmark/run.py --smoke            # self-test at 1/20 scale
    python3 benchmark/run.py --record-goldens   # rewrite goldens.json (seeds 2008, 2009)

The build lives in build-benchmark/ at the repository root. See README.md for
the metric definitions and the comparison rule.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / "build-benchmark"
DRIVER = BUILD / "driver"
GOLDENS = HERE / "goldens.json"
HISTORY = HERE / "history.jsonl"
SPEC = ROOT / "BENCHMARK.json"

WORKLOADS = [
    "fleet_sparse_1m",
    "fleet_dense_200k",
    "fleet_arq_resume",
    "node_behavioral",
    "node_circuit_adaptive",
    "shared_medium_arq",
]
FIXED_SEED, HOLDOUT_SEED = 2008, 2009
THREADS = 4
SMOKE_SCALE = 0.05
MIN_REPS = 3
SET_RUNS = 10  # runs per workload in a full set


class BenchError(Exception):
    pass


def build():
    """Configure and build the driver (both no-ops when up to date); raise
    BenchError on failure."""
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", str(BUILD), "-j", str(THREADS), "--target", "driver"]]
    # The library's configure step runs `git describe`; keep git from
    # searching above the checkout for a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    with open(log, "a") as out:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=out,
                                    stderr=subprocess.STDOUT).returncode
            except OSError as e:
                raise BenchError(f"cannot run {cmd[0]}: {e}")
            if rc != 0:
                raise BenchError(f"build failed ({' '.join(cmd)}); see {log}")


def run_driver(workload, seed, scale=1.0, trace=None):
    """One rep in a fresh process. Returns the driver's JSON, or None if it failed."""
    cmd = [str(DRIVER), f"--workload={workload}", f"--seed={seed}", f"--threads={THREADS}",
           f"--scale={scale}"]
    if trace:
        cmd.append(f"--trace={trace}")
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    try:
        if p.returncode == 0:
            return json.loads(p.stdout)
    except ValueError:
        pass
    sys.stderr.write(f"driver {workload} seed {seed} exited {p.returncode}: {p.stderr.strip()}\n")
    return None


def trace_path(workload):
    (BUILD / "traces").mkdir(exist_ok=True)
    return BUILD / "traces" / f"{workload}.trace.json"


def load_goldens():
    return json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}


def load_spec():
    return json.loads(SPEC.read_text())


def spec_metrics():
    spec = load_spec()
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def check_rep(rep, goldens, first):
    """Failed checks of one rep: the driver's own, the recorded golden for
    its seed (full scale only) and agreement with the first rep's outcome."""
    checks = dict(rep["checks"])
    want = goldens.get(rep["workload"], {}).get(str(rep["seed"]))
    if want is not None and rep["scale"] == 1:
        checks["golden.matches_recorded"] = rep["golden"] == want
    if first is not None:
        checks["golden.repeatable_across_processes"] = rep["golden"] == first["golden"]
    return len(checks), sorted(k for k, ok in checks.items() if not ok)


def rate(rep):
    return rep["node_sim_s"] / rep["wall_s"]


def end_to_end(reps):
    return {
        "node_sim_s_per_wall_s": [rate(r) for r in reps],
        "setup_s": [r["setup_s"] for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }


def per_layer(traced, untraced, names):
    """Per-layer values of the traced reps, for every name in `names`. The
    driver reports only the layers a workload calls; the rest read 0."""
    out = {k: [r["layers"].get(k, 0.0) for r in traced] for k in names}
    out["trace.overhead_frac"] = [
        1.0 - statistics.median(rate(r) for r in traced) / statistics.median(rate(r) for r in untraced)]
    return out


def descriptor(rep):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "machine": platform.machine(),
        "git": rep["build"]["git"],  # `git describe` at the driver's configure step
        "build_type": rep["build"]["type"],
        "compiler": rep["build"]["compiler"],
        "flags": rep["build"]["flags"],
        "threads": rep["threads"],
    }


# --- One run: the rep loop every mode measures with ---------------------------

class Run:
    """One run of one workload: a discarded warm-up process, then checked
    fresh-process reps until `seconds` have passed (at least MIN_REPS, or
    one traced rep). With `trace`, each untraced rep is followed by a traced
    one. The driver exiting cleanly is one check of every rep."""

    def __init__(self, workload, seed, seconds, trace, goldens):
        self.workload, self.seed, self.trace = workload, seed, trace
        self.reps, self.traced = [], []
        self.attempted, self.failed = 0, []
        run_driver(workload, seed)  # warm-up, discarded
        deadline = time.monotonic() + seconds
        min_reps = 1 if trace else MIN_REPS
        while time.monotonic() < deadline or (len(self.reps) < min_reps and len(self.failed) < MIN_REPS):
            for tr in [None, trace_path(workload)] if trace else [None]:
                rep = self._rep(goldens, tr)
                if rep is not None:
                    (self.traced if tr else self.reps).append(rep)
        if not self.reps or (trace and not self.traced):
            raise BenchError(f"{workload} seed {seed}: no rep completed")

    def _rep(self, goldens, trace):
        rep = run_driver(self.workload, self.seed, trace=trace)
        self.attempted += 1
        if rep is None:
            self.failed.append("driver.exit_ok")
            return None
        n, bad = check_rep(rep, goldens, self.reps[0] if self.reps else None)
        self.attempted += n
        self.failed += bad
        return rep

    def metrics(self):
        """Medians over the reps: the end-to-end metrics, or with `trace`
        the per-layer ones. Returns {name: (value, unit)}."""
        e2e_units, layer_units = spec_metrics()
        if self.trace:
            values, units = per_layer(self.traced, self.reps, layer_units), layer_units
        else:
            values, units = end_to_end(self.reps), e2e_units
        return {name: (statistics.median(values[name]), unit) for name, unit in units.items()}


def measure(args):
    build()
    run = Run(args.workload, args.seed, args.seconds, args.trace, load_goldens())
    print("# descriptor " + json.dumps(descriptor(run.reps[0])))
    print(f"# {args.workload} seed {args.seed}: {len(run.reps)} reps" +
          (f", {len(run.traced)} traced" if args.trace else "") +
          (f"; failed checks: {sorted(set(run.failed))}" if run.failed else ""))
    metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in run.metrics().items()}
    print(json.dumps({"correct": not run.failed, "attempted": run.attempted,
                      "failed": len(run.failed), "metrics": metrics}))


# --- Full set, history --------------------------------------------------------

def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def compare(prev, cur, bounds):
    """Rows of (workload, metric, relative change of the median, worse by
    more than the bound?) between two history records."""
    rows = []
    for w, r in cur["workloads"].items():
        for k, (bound, better) in bounds.items():
            old = prev["workloads"].get(w, {}).get("end_to_end", {}).get(k)
            if old:
                change = r["end_to_end"][k]["median"] / old["median"] - 1.0
                worse = -change if better == "higher" else change
                rows.append((w, k, change, worse > bound))
    return rows


def full_set(args):
    """SET_RUNS contract runs of every workload, each on its own seed, with
    the workload order reversed on every other round; then one traced run
    of each. The medians and quartiles are taken over the runs' values."""
    build()
    goldens = load_goldens()
    values = {w: {} for w in WORKLOADS}
    checks = {w: {"attempted": 0, "failed": []} for w in WORKLOADS}
    record = {"date": time.strftime("%Y-%m-%dT%H:%M:%S"), "first_seed": args.seed,
              "runs": SET_RUNS, "seconds": args.seconds, "descriptor": None, "workloads": {}}

    def tally(w, run):
        checks[w]["attempted"] += run.attempted
        checks[w]["failed"] += run.failed
        record["descriptor"] = record["descriptor"] or descriptor(run.reps[0])

    for i in range(SET_RUNS):
        for w in (WORKLOADS if i % 2 == 0 else WORKLOADS[::-1]):
            run = Run(w, args.seed + i, args.seconds, 0, goldens)
            tally(w, run)
            for k, (v, _) in run.metrics().items():
                values[w].setdefault(k, []).append(v)
    for w in WORKLOADS:
        run = Run(w, args.seed, args.seconds, 1, goldens)
        tally(w, run)
        record["workloads"][w] = {
            "end_to_end": {k: summarize(v) for k, v in values[w].items()},
            "per_layer": {k: v for k, (v, _) in run.metrics().items()},
            "checks": {"attempted": checks[w]["attempted"], "failed": sorted(checks[w]["failed"])},
        }

    print("# descriptor " + json.dumps(record["descriptor"]))
    print(f"{'workload':24} {'metric':22} {'median':>12} {'IQR/med':>8}  failed checks")
    for w, r in record["workloads"].items():
        for k, s in r["end_to_end"].items():
            print(f"{w:24} {k:22} {s['median']:12.5g} {(s['q3'] - s['q1']) / s['median']:8.3f}  "
                  f"{r['checks']['failed']}")
    history = HISTORY.read_text().splitlines() if HISTORY.exists() else []
    if history:
        bounds = {m["name"]: (m["bound"], m["better"]) for m in load_spec()["end_to_end"]}
        print("# against the previous history line (change of the median; * = worse than its bound)")
        for w, k, change, over in compare(json.loads(history[-1]), record, bounds):
            print(f"{w:24} {k:22} {change:+8.3f}{' *' if over else ''}")
    if args.append_history:
        with open(HISTORY, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    return 1 if any(c["failed"] for c in checks.values()) else 0


# --- Smoke and goldens ----------------------------------------------------------

def smoke(_args):
    build()
    e2e_units, layer_units = spec_metrics()
    problems = []
    # Each per-layer metric must be non-zero on at least one workload to
    # show that something computes it.
    unmeasured = set(layer_units)
    for w in WORKLOADS:
        plain = run_driver(w, FIXED_SEED, scale=SMOKE_SCALE)
        traced = run_driver(w, FIXED_SEED, scale=SMOKE_SCALE, trace=trace_path(w))
        if plain is None or traced is None:
            problems.append(f"{w}: driver failed")
            continue
        for rep in (plain, traced):
            problems += [f"{w}: check {k} failed" for k in check_rep(rep, {}, None)[1]]
        problems += [f"{w}: metric {k} is not in BENCHMARK.json"
                     for k in set(traced["layers"]) - set(layer_units)]
        layers = {k: v[0] for k, v in per_layer([traced], [plain], layer_units).items()}
        values = {**{k: v[0] for k, v in end_to_end([plain]).items()}, **layers}
        for name in list(e2e_units) + list(layer_units):
            v = values.get(name)
            if not isinstance(v, (int, float)) or not math.isfinite(v):
                problems.append(f"{w}: metric {name} missing or non-finite ({v})")
            elif name in e2e_units and v <= 0:
                problems.append(f"{w}: end-to-end metric {name} is not positive ({v})")
            elif v != 0:
                unmeasured.discard(name)
        print(f"{w:24} {'ok' if not any(p.startswith(w + ':') for p in problems) else 'FAILED'}")
    problems += [f"metric {k} is 0 on every workload" for k in sorted(unmeasured)]
    for p in problems:
        print(p)
    return 1 if problems else 0


def record_goldens(_args):
    build()
    out = {}
    for w in WORKLOADS:
        out[w] = {}
        for seed in (FIXED_SEED, HOLDOUT_SEED):
            rep = run_driver(w, seed)
            if rep is None:
                raise BenchError(f"{w} seed {seed}: driver failed")
            bad = check_rep(rep, {}, None)[1]
            if bad:
                raise BenchError(f"{w} seed {seed}: checks failed {bad}")
            out[w][str(seed)] = rep["golden"]
        if out[w][str(FIXED_SEED)] == out[w][str(HOLDOUT_SEED)]:
            raise BenchError(f"{w}: the holdout seed gives the fixed seed's outcome")
    GOLDENS.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDENS}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=FIXED_SEED)
    ap.add_argument("--seconds", type=float, help="measurement time (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--append-history", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--record-goldens", action="store_true")
    args = ap.parse_args()
    try:
        if args.smoke:
            return smoke(args)
        if args.record_goldens:
            return record_goldens(args)
        if args.seconds is None:
            args.seconds = load_spec()["run_seconds"]
        if args.workload:
            measure(args)
            return 0
        return full_set(args)
    except BenchError as e:
        sys.stderr.write(f"run.py: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Diff a bench's --json output against the checked-in BENCH_BASELINE.json.

Two JSON shapes are understood:

* google-benchmark output (bench_engine_perf): the ``benchmarks`` array;
  every entry with an ``items_per_second`` field becomes a tracked value.
* the shared bench_util.hpp BenchIo format: ``metrics`` entries plus the
  numeric ``checks`` rows (keyed ``check:<claim>``).

The baseline file maps entry names to::

    {
      "engine_perf": {
        "tolerance": 0.50,
        "values": {"BM_MnaTransientRc/10000": 1.23e7, ...}
      },
      "fleet_arq": {
        "tolerance": 0.50,
        "values": {"node_sim_s_per_wall_s": 4.3e7, ...},
        "exact": {"frames_delivered": 153325.0, ...}
      },
      ...
    }

A ``values`` entry diverges when ``|current - baseline| / |baseline|``
exceeds the tolerance (per-entry, overridable with --tolerance). Perf
numbers are machine-relative, so baselines only make sense against a
baseline recorded on the same class of machine — keep tolerances generous.
An ``exact`` entry holds outcomes that are a pure function of the
simulation (frame counts, rates of outcomes, physics results): it must
match bit for bit on any machine, and no tolerance applies to it.

Usage:
    check_bench.py --bench ./bench_engine_perf --baseline BENCH_BASELINE.json \
        --name engine_perf [--tolerance 0.5] [--update]
    check_bench.py --current BENCH_storage.json --baseline ... --name storage
    check_bench.py --validate-series out/run.series.jsonl

--update rewrites the named entry from the current run instead of checking
(keys already under ``exact`` stay there; every other key is banded).
--validate-series is a standalone mode: it checks a telemetry-series JSONL
file (one object per sample row) for schema sanity — numeric strictly
increasing ``t_s``, one consistent key set across rows, every value numeric
or null — and ignores the baseline arguments.
Exit code: 0 on success, 1 on divergence or missing values, 2 on usage error.
"""

import argparse
import json
import os
import struct
import subprocess
import sys
import tempfile

DEFAULT_TOLERANCE = 0.50


def extract_values(doc):
    """Flatten either recognized JSON shape into {key: float}."""
    values = {}
    if "benchmarks" in doc:  # google-benchmark
        for b in doc["benchmarks"]:
            if b.get("run_type") == "aggregate":
                continue
            if "items_per_second" in b:
                values[b["name"]] = float(b["items_per_second"])
    elif "metrics" in doc or "checks" in doc:  # bench_util BenchIo
        for key, val in doc.get("metrics", {}).items():
            values[key] = float(val)
        for row in doc.get("checks", []):
            if "measured" in row:
                values["check:" + row["claim"]] = float(row["measured"])
    else:
        raise ValueError("unrecognized bench JSON shape (no benchmarks/metrics/checks)")
    return values


def same_bits(a, b):
    """Whether two floats are the same IEEE-754 double, bit for bit."""
    return struct.pack("<d", a) == struct.pack("<d", b)


def record_entry(entry, current, tolerance):
    """Rewrite `entry` from a run: exact keys keep their map, the rest band."""
    exact = entry.get("exact", {})
    entry.setdefault("tolerance", tolerance or DEFAULT_TOLERANCE)
    entry["values"] = {k: v for k, v in current.items() if k not in exact}
    if exact:
        entry["exact"] = {k: current[k] for k in exact if k in current}


def write_baseline(path, baseline):
    with open(path, "w") as f:
        json.dump(baseline, f, indent=2, sort_keys=True)
        f.write("\n")


def run_bench(binary):
    """Run the bench with --json=<tmp> and parse the report it writes."""
    fd, path = tempfile.mkstemp(suffix=".json", prefix="bench_")
    os.close(fd)
    try:
        proc = subprocess.run([binary, f"--json={path}"], stdout=subprocess.DEVNULL)
        # Bench exit codes report paper-claim divergence, which is not this
        # tool's concern; only a missing report is fatal.
        if proc.returncode != 0:
            print(f"note: {os.path.basename(binary)} exited {proc.returncode}")
        with open(path) as f:
            return json.load(f)
    finally:
        os.unlink(path)


def validate_series(path):
    """Schema-check a TimeSeriesRecorder JSONL export; returns error count."""
    errors = 0
    keys = None
    prev_t = None
    rows = 0
    try:
        f = open(path)
    except OSError as e:
        print(f"error: cannot open {path}: {e}")
        return 1
    with f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as e:
                print(f"{path}:{lineno}: not valid JSON: {e}")
                errors += 1
                continue
            if not isinstance(row, dict):
                print(f"{path}:{lineno}: row is not an object")
                errors += 1
                continue
            rows += 1
            if not isinstance(row.get("t_s"), (int, float)):
                print(f"{path}:{lineno}: missing numeric 't_s'")
                errors += 1
            else:
                if prev_t is not None and row["t_s"] <= prev_t:
                    print(f"{path}:{lineno}: t_s {row['t_s']} not after {prev_t}")
                    errors += 1
                prev_t = row["t_s"]
            if keys is None:
                keys = set(row)
            elif set(row) != keys:
                print(f"{path}:{lineno}: key set changed "
                      f"(+{sorted(set(row) - keys)} -{sorted(keys - set(row))})")
                errors += 1
            for key, val in row.items():
                if val is not None and not isinstance(val, (int, float)):
                    print(f"{path}:{lineno}: '{key}' is neither numeric nor null")
                    errors += 1
    if rows == 0:
        print(f"{path}: no sample rows")
        errors += 1
    if errors == 0:
        print(f"{path}: {rows} row(s), {len(keys) - 1} series, schema ok")
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    src = ap.add_mutually_exclusive_group()
    src.add_argument("--bench", help="bench binary to run with --json")
    src.add_argument("--current", help="already-written bench JSON report")
    ap.add_argument("--validate-series", metavar="JSONL",
                    help="standalone mode: schema-check a series JSONL export")
    ap.add_argument("--baseline", help="BENCH_BASELINE.json path")
    ap.add_argument("--name", help="baseline entry name")
    ap.add_argument("--tolerance", type=float, default=None,
                    help="relative tolerance override (default: entry's, else %.2f)"
                         % DEFAULT_TOLERANCE)
    ap.add_argument("--update", action="store_true",
                    help="rewrite the baseline entry from this run")
    ap.add_argument("--record-missing", action="store_true",
                    help="if the baseline entry does not exist yet, record it "
                         "from this run and exit 0 (first-run bootstrap)")
    args = ap.parse_args()

    if args.validate_series:
        return 1 if validate_series(args.validate_series) else 0
    if not (args.bench or args.current) or not args.baseline or not args.name:
        ap.error("--bench/--current, --baseline and --name are required "
                 "unless --validate-series is used")

    if args.bench:
        doc = run_bench(args.bench)
    else:
        with open(args.current) as f:
            doc = json.load(f)
    try:
        current = extract_values(doc)
    except ValueError as e:
        print(f"error: {e}")
        return 2
    if not current:
        print("error: no numeric values found in bench output")
        return 2

    baseline = {}
    if os.path.exists(args.baseline):
        with open(args.baseline) as f:
            baseline = json.load(f)

    if args.update:
        record_entry(baseline.setdefault(args.name, {}), current, args.tolerance)
        write_baseline(args.baseline, baseline)
        print(f"updated '{args.name}' in {args.baseline} ({len(current)} values)")
        return 0

    if args.name not in baseline:
        if args.record_missing:
            record_entry(baseline.setdefault(args.name, {}), current, args.tolerance)
            write_baseline(args.baseline, baseline)
            print(f"warning: no baseline entry '{args.name}' — recorded "
                  f"{len(current)} value(s) from this run")
            return 0
        print(f"error: no baseline entry '{args.name}' in {args.baseline} "
              f"(run with --update to record one)")
        return 1
    entry = baseline[args.name]
    tolerance = args.tolerance if args.tolerance is not None \
        else entry.get("tolerance", DEFAULT_TOLERANCE)

    failures = 0
    exact = entry.get("exact", {})
    for key, base_val in sorted(exact.items()):
        if key not in current:
            print(f"MISSING   {key} (exact {base_val!r})")
            failures += 1
            continue
        ok = same_bits(current[key], base_val)
        status = "ok      " if ok else "DIFFERS "
        print(f"{status}  {key}: exact {base_val!r}, current {current[key]!r}")
        if not ok:
            failures += 1
    for key, base_val in sorted(entry["values"].items()):
        if key not in current:
            print(f"MISSING   {key} (baseline {base_val:g})")
            failures += 1
            continue
        cur = current[key]
        if base_val == 0.0:
            rel = abs(cur)
            ok = cur == 0.0
        else:
            rel = abs(cur - base_val) / abs(base_val)
            ok = rel <= tolerance
        status = "ok      " if ok else "DIVERGES"
        print(f"{status}  {key}: baseline {base_val:g}, current {cur:g} "
              f"(rel {rel:.1%}, tol {tolerance:.0%})")
        if not ok:
            failures += 1

    # Keys present in the run but absent from the baseline are new metrics
    # (a bench gained a counter): record them into the baseline and warn,
    # rather than failing — only divergence and disappearance are errors.
    new_keys = sorted(set(current) - set(entry["values"]) - set(exact))
    if new_keys:
        for key in new_keys:
            print(f"NEW       {key}: {current[key]:g} (recorded to baseline)")
            entry["values"][key] = current[key]
        write_baseline(args.baseline, baseline)
        print(f"warning: {len(new_keys)} new metric(s) recorded into "
              f"'{args.name}' in {args.baseline}")

    if failures:
        print(f"\n{failures} value(s) outside tolerance or not exact for '{args.name}'")
        return 1
    print(f"\nall {len(entry['values'])} value(s) within tolerance and "
          f"{len(exact)} exact value(s) equal for '{args.name}'")
    return 0


if __name__ == "__main__":
    sys.exit(main())

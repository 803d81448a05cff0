#!/usr/bin/env python3
"""Compare a fresh bench --perf-json dump against a committed baseline.

Usage: compare_bench.py BASELINE.json CURRENT.json [--tolerance 0.25]

Fails (exit 1) when any benchmark present in the baseline is missing
from the current run, or reports events/sec more than the tolerance
below the baseline. A baseline row may carry its own "tolerance"
field, which overrides the global --tolerance for that row — noisy
parallel benches commit a wider band than stable serial ones.

Every gated row prints its full delta: events/sec ratio, wall-time
delta, and peak-RSS delta when both sides carry the counter. RSS is
reported but never gates (allocator and kernel noise across runners
dwarfs real regressions).

Benches without an events/sec counter (0 in the baseline) are
reported but never gate, as are new benches: wall-clock across
different machines is not comparable enough to gate on.
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "v10-bench-perf-v1":
        sys.exit(f"{path}: unexpected schema {doc.get('schema')!r}")
    return {row["name"]: row for row in doc["benches"]}


def fmt_delta(cur, base, unit=""):
    if base <= 0.0:
        return "n/a"
    pct = 100.0 * (cur - base) / base
    return f"{pct:+.1f}%{unit}"


def compare_rows(base, cur, tolerance):
    """Yield (line, failure-or-None) per baseline row."""
    for name, brow in sorted(base.items()):
        crow = cur.get(name)
        if crow is None:
            yield f"  MISSING {name}", f"{name}: missing from current run"
            continue
        b_eps = brow.get("events_per_sec", 0.0)
        c_eps = crow.get("events_per_sec", 0.0)
        row_tol = float(brow.get("tolerance", tolerance))
        extras = []
        b_t = brow.get("real_time_sec", 0.0)
        c_t = crow.get("real_time_sec", 0.0)
        if b_t > 0.0 and c_t > 0.0:
            extras.append(f"time {fmt_delta(c_t, b_t)}")
        b_rss = brow.get("peak_rss_kib", 0)
        c_rss = crow.get("peak_rss_kib", 0)
        if b_rss and c_rss:
            extras.append(
                f"rss {c_rss} KiB ({fmt_delta(c_rss, b_rss)})")
        detail = f" [{', '.join(extras)}]" if extras else ""
        if b_eps <= 0.0:
            yield f"  skip {name}: no events/sec counter{detail}", None
            continue
        ratio = c_eps / b_eps
        line = (f"{name}: {ratio:.2f}x baseline "
                f"({c_eps:.3e} vs {b_eps:.3e} ev/s, "
                f"tol {row_tol:.2f}){detail}")
        if ratio < 1.0 - row_tol:
            yield f"  REGRESSION {line}", f"{name}: " + line
        else:
            yield f"          ok {line}", None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional events/sec drop "
                             "(baseline rows may override with a "
                             "'tolerance' field)")
    args = parser.parse_args()

    base = load(args.baseline)
    cur = load(args.current)

    failures = []
    for line, failure in compare_rows(base, cur, args.tolerance):
        print(line)
        if failure:
            failures.append(failure)
    for name in sorted(set(cur) - set(base)):
        print(f"  new bench (not gated): {name}")

    if failures:
        print("\nperf-smoke FAILED:")
        for f in failures:
            print(f"  {f}")
        return 1
    print("\nperf-smoke OK: all benches within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())

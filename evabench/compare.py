#!/usr/bin/env python3
"""Compares two sets of benchmark results on the end-to-end metrics.

    python3 evabench/compare.py BASE.jsonl NEW.jsonl

Each file holds result records as evabench/run.py appends them to
<build>/results.jsonl (one JSON object per line; traced runs are ignored).
For every workload and end-to-end metric it prints both medians, the change
as a share of the base median, the metric's bound from BENCHMARK.json and the
base's own quartile spread.

Exit codes: 0 no metric worse than its bound, 1 at least one is, 2 usage or
input error, 3 refused because the results come from different hosts or
builds (their fingerprints differ).
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import evastats  # noqa: E402


def load(path):
    with open(path, encoding="utf-8") as f:
        records = [json.loads(line) for line in f if line.strip()]
    return [r for r in records if r.get("trace") == 0]


def fingerprint_of(records, label):
    """The one fingerprint all records share; refuses mixed sets."""
    if not records:
        raise ValueError("%s holds no untraced results" % label)
    first = records[0]["fingerprint"]
    for r in records[1:]:
        evastats.check_comparable(first, r["fingerprint"])
    return first


def compare(base, new, spec):
    """Rows (workload, metric, base median, new median, change, bound,
    base spread, worse) for every workload both sets measured."""
    evastats.check_comparable(fingerprint_of(base, "base"),
                              fingerprint_of(new, "new"))
    rows = []
    workloads = sorted({r["workload"] for r in base} &
                       {r["workload"] for r in new})
    for w in workloads:
        for m in spec["end_to_end"]:
            b = [r["metrics"][m["name"]]["value"] for r in base
                 if r["workload"] == w]
            n = [r["metrics"][m["name"]]["value"] for r in new
                 if r["workload"] == w]
            bm, nm = evastats.median(b), evastats.median(n)
            sign = 1.0 if m["better"] == "lower" else -1.0
            change = sign * (nm - bm) / bm if bm else 0.0
            spread = evastats.quartile_spread(b) if len(b) >= 2 else 0.0
            rows.append((w, m["name"], bm, nm, change, m["bound"], spread,
                         change > m["bound"]))
    return rows


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec_path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCHMARK.json")
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    try:
        rows = compare(load(argv[1]), load(argv[2]), spec)
    except evastats.FingerprintMismatch as e:
        print("refused: results come from different hosts or builds: %s" % e,
              file=sys.stderr)
        return 3
    except (OSError, ValueError, KeyError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    print("%-16s %-14s %12s %12s %9s %7s %9s" % (
        "workload", "metric", "base", "new", "worse by", "bound", "spread"))
    for w, name, bm, nm, change, bound, spread, worse in rows:
        print("%-16s %-14s %12.6g %12.6g %+8.2f%% %6.0f%% %8.2f%%%s" % (
            w, name, bm, nm, 100 * change, 100 * bound, 100 * spread,
            "  WORSE" if worse else ""))
    return 1 if any(r[-1] for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

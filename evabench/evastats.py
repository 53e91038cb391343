"""Statistics of the EVA end-to-end benchmark.

The C++ probe only measures; every statistic the benchmark reports is
computed here from its raw document, so one tested implementation serves all
workloads:

* ``median`` and ``tail``: a timing is reported as its median and as the
  highest percentile that has at least ten samples beyond it.
* ``delta_mean``: exact span means from the server's ``_sum``/``_count``
  counters before and after a phase (never bucket quantiles).
* ``self_times``: a span's duration minus the part its children cover.
* ``backlog_grows`` and ``phase_summary``: open-loop phase validity.
* ``fingerprint`` and ``check_comparable``: results from different hosts or
  builds are never compared.
* ``chrome_trace``: spans as Chrome trace-event JSON.
"""

import math
import os
import statistics

# Percentiles ``tail`` may report, highest first.
TAIL_LEVELS = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0)
# Fingerprint fields that must agree before two results are compared; the
# git sha is recorded but differs between the commits being compared.
COMPARED_FIELDS = ("cpu_model", "nproc", "simd", "compiler", "build_type")


def median(values):
    """Median of a non-empty sequence; 0.0 for an empty one."""
    return statistics.median(values) if values else 0.0


def mean(values):
    return statistics.fmean(values) if values else 0.0


def nearest_rank(values, percentile):
    """The nearest-rank percentile of ``values`` (0 < percentile <= 100)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values, min_beyond=10):
    """The highest percentile with at least ``min_beyond`` samples beyond it.

    Returns ``(percentile, value)``, or ``(None, None)`` when the sample is
    too small for any level in TAIL_LEVELS.
    """
    n = len(values)
    for level in TAIL_LEVELS:
        if n * (1.0 - level / 100.0) >= min_beyond:
            return level, nearest_rank(values, level)
    return None, None


def quartile_spread(values):
    """(Q3 - Q1) / median, as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def delta_mean(before, after):
    """Exact mean of the observations between two [count, sum] snapshots."""
    count = after[0] - before[0]
    if count <= 0:
        return 0.0
    return (after[1] - before[1]) / count


def backlog_grows(samples, slack_s=0.010):
    """Whether the queue of due-but-unsent requests grew during a phase.

    ``samples`` are ``(due, start)`` pairs in due order. The wait start - due
    of the last third is compared with that of the first third; a rise of
    more than ``slack_s`` means requests arrive faster than they are served.
    """
    waits = [start - due for due, start in samples]
    third = len(waits) // 3
    if third == 0:
        return False
    return median(waits[-third:]) - median(waits[:third]) > slack_s


def phase_summary(phase):
    """Latency and validity figures of one open-loop service phase.

    Sample rows are [due, free, start, end, encrypt, submit, decrypt, ok],
    times in seconds from the phase's start.
    """
    rows = phase["samples"]
    ok = [r for r in rows if r[7]]
    latency = [r[3] - r[0] for r in ok]
    level, tail_value = tail(latency)
    # Generator lateness: how late a request started although a connection
    # was free before it was due.
    lateness = [r[2] - r[0] for r in rows if r[1] <= r[0]]
    late_level, late_value = tail(lateness)
    duration = phase["duration"]
    last_end = max((r[3] for r in rows), default=duration)
    offered = len(rows) / duration
    achieved = len(ok) / max(duration, last_end)
    return {
        "name": phase["name"],
        "rate": phase["rate"],
        "n": len(rows),
        "failed": len(rows) - len(ok),
        "p50_s": median(latency),
        "tail_level": level,
        "tail_s": tail_value,
        "gen_late_level": late_level,
        "gen_late_s": late_value if late_value is not None else 0.0,
        "achieved_over_offered": achieved / offered if offered else 0.0,
        "backlog_grows": backlog_grows([(r[0], r[2]) for r in rows]),
        "submit_s": mean([r[5] for r in ok]),
    }


def meets_limit(summary, limit_s, min_ratio=0.95):
    """A ladder step passes when nothing failed, its tail is within the
    limit, it kept up with the offered rate and its backlog did not grow."""
    return (summary["failed"] == 0
            and summary["tail_s"] is not None
            and summary["tail_s"] <= limit_s
            and summary["achieved_over_offered"] >= min_ratio
            and not summary["backlog_grows"])


def max_ok_rate(summaries, limit_s):
    """Highest ladder rate meeting the limit (0.0 if none does)."""
    return max((s["rate"] for s in summaries if meets_limit(s, limit_s)),
               default=0.0)


def _union_length(intervals):
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time of every span: its duration minus the union of its
    children's intervals clipped to it. ``spans`` are rows
    [id, parent, request, thread, name, start, end]; returns {id: seconds}.
    """
    by_id = {s[0]: s for s in spans}
    children = {}
    for s in spans:
        if s[1] in by_id:
            children.setdefault(s[1], []).append(s)
    out = {}
    for s in spans:
        start, end = s[5], s[6]
        covered = _union_length(
            [(max(c[5], start), min(c[6], end))
             for c in children.get(s[0], []) if c[6] > start and c[5] < end])
        out[s[0]] = (end - start) - covered
    return out


def layer_of(name):
    """A span's layer: the first dotted component of its name."""
    return name.split(".", 1)[0]


def chrome_trace(spans, process_name):
    """Spans as a Chrome trace-event document (open in a trace viewer)."""
    events = [{"name": "process_name", "ph": "M", "pid": 1,
               "args": {"name": process_name}}]
    for sid, parent, request, thread, name, start, end in spans:
        events.append({
            "name": name, "cat": layer_of(name), "ph": "X", "pid": 1,
            "tid": int(thread), "ts": start * 1e6, "dur": (end - start) * 1e6,
            "args": {"span": int(sid), "parent": int(parent),
                     "request": int(request)},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def fingerprint(build, git_sha):
    """The host and build a result was measured on."""
    return {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "simd": build.get("simd", "unknown"),
        "compiler": build.get("compiler", "unknown"),
        "build_type": build.get("build_type", "unknown"),
        "git_sha": git_sha,
    }


class FingerprintMismatch(Exception):
    """Two results come from different hosts or builds."""


def check_comparable(base, new):
    """Raises FingerprintMismatch unless the compared fields agree."""
    diff = [f"{k}: {base.get(k)!r} != {new.get(k)!r}"
            for k in COMPARED_FIELDS if base.get(k) != new.get(k)]
    if diff:
        raise FingerprintMismatch("; ".join(diff))

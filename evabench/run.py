#!/usr/bin/env python3
"""The EVA end-to-end benchmark.

Builds the EVA library, evaserve and the benchmark probe from the checkout,
runs one workload, checks its outputs and prints its metrics. Run from the
root of a checkout:

    python3 evabench/run.py --workload lenet_local --seed 1 --seconds 20 --trace 0

Workloads: lenet_local, service_socket, compile_zoo (see BENCHMARK.json and
evabench/README.md). With --trace 0 the last line of standard output is one
JSON object with the end-to-end metrics; with --trace 1 it carries the
per-layer metrics, and the run's spans are written as a Chrome trace.

Build outputs, raw documents, results and traces go under $CARGO_TARGET_DIR
(default .bench_build) in the checkout. Every result is also appended to
<build>/results.jsonl with the host fingerprint; evabench/compare.py compares
two such files.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import evastats  # noqa: E402

WORKLOADS = ("lenet_local", "service_socket", "compile_zoo")
# A ladder step's latency limit: about 3x the unloaded service p50.
LADDER_LIMIT_S = 0.050
# Layers whose self time the traced run reports.
SELF_LAYERS = ("request", "api", "tensor", "frontend", "core", "ckks", "math",
               "runtime", "service")


def fail(message, code=1):
    print(f"evabench: {message}", file=sys.stderr)
    sys.exit(code)


def git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        return subprocess.run(
            ["git", "-C", root, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, check=True,
            timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build(root, build_dir, deadline):
    """Configures and builds the probe and evaserve (both steps are quick
    when nothing changed)."""
    cmake_dir = os.path.join(build_dir, "cmake")
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(len(os.sched_getaffinity(0)))
    steps = [["cmake", "-S", HERE, "-B", cmake_dir],
             ["cmake", "--build", cmake_dir, "-j", jobs, "--target",
              "evabench_probe", "evaserve"]]
    with open(log_path, "a", encoding="utf-8") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, cwd=root, stdout=log,
                                    stderr=subprocess.STDOUT,
                                    timeout=max(1, deadline - time.time())
                                    ).returncode
            except subprocess.TimeoutExpired:
                fail("build timed out (see %s)" % log_path)
            if rc != 0:
                with open(log_path, encoding="utf-8") as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (see %s)" % log_path)
    return (os.path.join(cmake_dir, "evabench_probe"),
            os.path.join(cmake_dir, "eva", "tools", "evaserve"))


def stop_orphan_server(run_dir):
    """Kills an evaserve the probe started but could not stop (the probe
    removes the pid file once the server has exited)."""
    pid_path = os.path.join(run_dir, "evaserve.log.pid")
    try:
        with open(pid_path, encoding="utf-8") as f:
            pid = int(f.read().strip())
        with open("/proc/%d/cmdline" % pid, "rb") as f:
            if b"evaserve" not in f.read():
                return
        os.kill(pid, signal.SIGKILL)
        deadline = time.time() + 10
        while os.path.exists("/proc/%d" % pid) and time.time() < deadline:
            time.sleep(0.05)
    except (OSError, ValueError):
        pass
    finally:
        if os.path.exists(pid_path):
            os.remove(pid_path)


def span_metric(name):
    """The per-layer metric a span name feeds: '<name>_s', except that
    core.compile.<program>.<mode> feeds core.compile_s.<program>.<mode>."""
    if name.startswith("core.compile."):
        return "core.compile_s." + name[len("core.compile."):]
    return name + "_s"


def durations(spans, name):
    return [s[6] - s[5] for s in spans if s[4] == name]


def common_e2e(raw):
    return {
        "setup_s": evastats.median(raw["samples"].get("setup_s", [])),
        "peak_rss_mb": raw["values"].get("peak_rss_kb", 0) / 1024.0,
    }


def service_phases(raw):
    return [evastats.phase_summary(p) for p in raw.get("phases", [])]


def end_to_end(workload, raw, lines):
    """The end-to-end metrics of an untraced run, plus readable lines that
    name them as the workload defines them."""
    m = common_e2e(raw)
    samples = raw["samples"]
    if workload in ("lenet_local", "compile_zoo"):
        wall = samples.get("op_wall_s", [])
        m["p50_s"] = evastats.median(wall)
        m["cpu_ms_per_op"] = 1e3 * evastats.median(samples.get("op_cpu_s", []))
        if workload == "lenet_local":
            lines.append("infer_p50_s = %.4f s (n=%d Runner::run calls)"
                         % (m["p50_s"], len(wall)))
            bits = samples.get("precision_bits", [])
            lines.append("precision_bits = %.2f bits (median of n=%d)"
                         % (evastats.median(bits), len(bits)))
            agree = samples.get("argmax_agrees", [])
            lines.append("argmax_agreement = %.4f (n=%d)"
                         % (evastats.mean(agree), len(agree)))
        else:
            lines.append("compile_set_s = %.4f s (n=%d passes)"
                         % (m["p50_s"], len(wall)))
    else:
        phases = service_phases(raw)
        by_name = {p["name"]: p for p in phases}
        heavy = by_name["heavy"]
        raw_heavy = next(p for p in raw["phases"] if p["name"] == "heavy")
        ok = heavy["n"] - heavy["failed"]
        m["p50_s"] = heavy["p50_s"]
        m["cpu_ms_per_op"] = 1e3 * (raw_heavy["server_cpu_s"] +
                                    raw_heavy["client_cpu_s"]) / max(1, ok)
        for key in ("light", "heavy"):
            p = by_name[key]
            lines.append("svc_%s_p50_s = %.4f s (n=%d at %g rps)"
                         % (key, p["p50_s"], p["n"], p["rate"]))
            lines.append("svc_%s_p%g_s = %.4f s (highest percentile with "
                         ">=10 samples beyond it)"
                         % (key, p["tail_level"] or 0, p["tail_s"] or 0))
        ladder = [p for p in phases if p["name"] == "ladder"]
        lines.append("svc_max_ok_rps = %g 1/s (tail <= %g ms, achieved >= "
                     "0.95 x offered, no growing backlog)"
                     % (evastats.max_ok_rate(ladder, LADDER_LIMIT_S),
                        LADDER_LIMIT_S * 1e3))
        lines.append("svc_cpu_ms_per_req = %.3f ms (server + client, heavy "
                     "phase, n=%d)" % (m["cpu_ms_per_op"], ok))
        for p in phases:
            lines.append(
                "phase %-7s %5g rps: n=%d failed=%d p50=%.4fs p%s=%s "
                "gen_late_p%s=%.4fs achieved/offered=%.3f backlog_grows=%s"
                % (p["name"], p["rate"], p["n"], p["failed"], p["p50_s"],
                   p["tail_level"], "%.4fs" % p["tail_s"]
                   if p["tail_s"] is not None else "n/a",
                   p["gen_late_level"], p["gen_late_s"],
                   p["achieved_over_offered"], p["backlog_grows"]))
    lines.append("setup_s = %.4f s (median of n=%d set-ups)"
                 % (m["setup_s"], len(samples.get("setup_s", []))))
    lines.append("peak_rss_mb = %.1f MB" % m["peak_rss_mb"])
    lines.append("fail_frac = %.6f (%d of %d operations)"
                 % (raw["failed"] / max(1, raw["attempted"]), raw["failed"],
                    raw["attempted"]))
    return m


def per_layer(workload, raw, lines):
    """The per-layer metrics of a traced run (names not measured on this
    workload are left to the caller's default of 0)."""
    spans = raw["spans"]
    values = raw["values"]
    samples = raw["samples"]
    m = {}
    for name in sorted({s[4] for s in spans}):
        if not name.startswith("request"):
            m[span_metric(name)] = evastats.median(durations(spans, name))
    for key, value in values.items():
        if key != "peak_rss_kb":
            m[key] = value

    if samples.get("precision_bits"):
        m["ckks.precision_bits"] = evastats.median(samples["precision_bits"])
        m["ckks.argmax_agreement"] = evastats.mean(samples["argmax_agrees"])
    if m.get("runtime.execute_s") and m.get("runtime.execute_1t_s"):
        m["runtime.speedup"] = m["runtime.execute_1t_s"] / m["runtime.execute_s"]
    if values.get("runtime.rotations"):
        m["runtime.hoist_ratio"] = (values["runtime.hoisted_rotations"] /
                                    values["runtime.rotations"])
    if m.get("runtime.execute_1t_s"):
        attributed = sum(values.get("runtime." + count, 0) *
                         m.get("ckks.op.%s_s" % op, 0)
                         for count, op in (("multiplies", "multiply"),
                                           ("plain_multiplies",
                                            "plain_multiply"),
                                           ("relins", "relin"),
                                           ("rotations", "rotate"),
                                           ("rescales", "rescale"),
                                           ("adds", "add")))
        m["runtime.unattributed_frac"] = (
            1.0 - attributed / m["runtime.execute_1t_s"])

    roots = [s for s in spans if s[4] == "request"]
    selfs = evastats.self_times(spans)
    children = {}
    for s in spans:
        children.setdefault(s[1], []).append(s)
    child_sums = [sum(c[6] - c[5] for c in children.get(r[0], []))
                  for r in roots]
    untraced = []
    if workload == "lenet_local":
        untraced = durations(spans, "api.run")
        traced = [r[6] - r[5] for r in roots]
    elif workload == "compile_zoo":
        untraced = samples.get("op_wall_s", [])
        traced = samples.get("traced_wall_s", [])
        if untraced and samples.get("noverify_wall_s"):
            m["core.verify_share"] = 1.0 - (
                evastats.median(samples["noverify_wall_s"]) /
                evastats.median(untraced))
    else:
        phases = {p["name"]: p for p in service_phases(raw)}
        raw_phases = {p["name"]: p for p in raw["phases"]}
        heavy, traced_phase = phases["heavy"], phases["heavy_traced"]
        untraced = [r[3] - r[2] for r in raw_phases["heavy"]["samples"]]
        traced = [r[3] - r[2] for r in raw_phases["heavy_traced"]["samples"]]
        before = raw_phases["heavy_traced"]["metrics_before"]
        after = raw_phases["heavy_traced"]["metrics_after"]
        server = 0.0
        for span in ("decode", "queue", "execute", "encode"):
            v = evastats.delta_mean(before[span], after[span])
            m["service.server.%s_s" % span] = v
            server += v
        m["service.wire_s"] = traced_phase["submit_s"] - server
        ok = max(1, heavy["n"] - heavy["failed"])
        rh = raw_phases["heavy"]
        m["service.server.cpu_ms_per_req"] = 1e3 * rh["server_cpu_s"] / ok
        m["service.client.cpu_ms_per_req"] = 1e3 * rh["client_cpu_s"] / ok
        m["service.server.threads"] = rh["server_threads"]
        requests = (rh["metrics_after"]["requests"] -
                    rh["metrics_before"]["requests"])
        m["service.scheduler.batches_per_req"] = (
            (rh["metrics_after"]["batches"] - rh["metrics_before"]["batches"])
            / max(1, requests))
        m["service.scheduler.rejected"] = (
            raw["phases"][-1]["metrics_after"]["rejected"])
        m["service.gen_late_tail_s"] = heavy["gen_late_s"]
        m["service.achieved_over_offered"] = heavy["achieved_over_offered"]
        m["service.light_p50_s"] = phases["light"]["p50_s"]
        m["service.light_tail_s"] = phases["light"]["tail_s"] or 0.0
        m["service.heavy_tail_s"] = heavy["tail_s"] or 0.0
        m["service.max_ok_rps"] = evastats.max_ok_rate(
            [p for p in service_phases(raw) if p["name"] == "ladder"],
            LADDER_LIMIT_S)
        lines.append(
            "submit split (heavy_traced, means): submit %.5fs = wire %.5fs + "
            "server decode %.5fs + queue %.5fs + execute %.5fs + encode %.5fs"
            % (traced_phase["submit_s"], m["service.wire_s"],
               m["service.server.decode_s"], m["service.server.queue_s"],
               m["service.server.execute_s"], m["service.server.encode_s"]))

    if roots and untraced:
        m["trace.unattributed_frac"] = evastats.mean(
            [selfs[r[0]] / (r[6] - r[5]) for r in roots if r[6] > r[5]])
        m["trace.children_over_untraced"] = (evastats.mean(child_sums) /
                                             evastats.mean(untraced))
        m["trace.overhead_frac"] = (evastats.mean(traced) /
                                    evastats.mean(untraced) - 1.0)
        lines.append("reconciliation: children of 'request' sum to %.4f s "
                     "on average; untraced end-to-end mean %.4f s (ratio "
                     "%.4f); tracing overhead %+.2f%%"
                     % (evastats.mean(child_sums), evastats.mean(untraced),
                        m["trace.children_over_untraced"],
                        100 * m["trace.overhead_frac"]))
    if workload != "compile_zoo":
        for r, csum in zip(roots, child_sums):
            total = r[6] - r[5]
            lines.append("request %d: end-to-end %.6f s, child spans %.6f s, "
                         "unattributed %.2f%%"
                         % (r[2], total, csum,
                            100 * (total - csum) / total if total else 0))

    layer_self = {}
    for s in spans:
        if s[4].startswith("request."):
            continue  # untraced control passes, not part of any layer
        layer = evastats.layer_of(s[4])
        layer_self[layer] = layer_self.get(layer, 0.0) + selfs[s[0]]
    for layer in SELF_LAYERS:
        m["trace.self_s." + layer] = layer_self.get(layer, 0.0)
    lines.append("self time by layer: " + ", ".join(
        "%s %.4fs" % (k, v) for k, v in sorted(layer_self.items())))
    return m


def main():
    start = time.time()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(HERE)
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt"),
                   os.path.join("tools", "evaserve.cpp"), "BENCHMARK.json"):
        if not os.path.exists(os.path.join(root, needed)):
            fail("%s is missing: run from a full checkout" % needed, 2)
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(root, ".bench_build"))
    os.makedirs(build_dir, exist_ok=True)
    # The first run in a checkout builds; the probe itself then runs
    # for at most a few minutes.
    probe, evaserve = build(root, build_dir, start + 840)

    run_dir = os.path.join(build_dir, "runs", "%s-seed%d-trace%d"
                           % (args.workload, args.seed, args.trace))
    os.makedirs(run_dir, exist_ok=True)
    raw_path = os.path.join(run_dir, "raw.json")
    cmd = [probe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", raw_path, "--workdir", run_dir, "--evaserve", evaserve]
    try:
        proc = subprocess.run(cmd, cwd=root, timeout=170,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
    except subprocess.TimeoutExpired:
        fail("the probe did not finish within 170 s")
    finally:
        stop_orphan_server(run_dir)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail("the probe failed with exit code %d" % proc.returncode)
    with open(raw_path, encoding="utf-8") as f:
        raw = json.load(f)

    lines = []
    if args.trace:
        measured = per_layer(args.workload, raw, lines)
        wanted = spec["per_layer"]
    else:
        measured = end_to_end(args.workload, raw, lines)
        wanted = spec["end_to_end"]
    metrics = {w["name"]: {"value": float(measured.get(w["name"], 0.0)),
                           "unit": w["unit"]} for w in wanted}

    fp = evastats.fingerprint(raw["build"], git_sha(root))
    for f_name in raw["failures"]:
        lines.append("failure: " + f_name)
    result = {
        "correct": raw["failed"] == 0 and raw["attempted"] > 0,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, seconds=args.seconds, fingerprint=fp,
                  details=lines)
    with open(os.path.join(run_dir, "result.json"), "w",
              encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    with open(os.path.join(build_dir, "results.jsonl"), "a",
              encoding="utf-8") as f:
        f.write(json.dumps(record) + "\n")
    if args.trace:
        trace_path = os.path.join(run_dir, "trace.json")
        with open(trace_path, "w", encoding="utf-8") as f:
            json.dump(evastats.chrome_trace(raw["spans"], args.workload), f)
        lines.append("trace: %s (Chrome trace-event JSON)" % trace_path)

    print("workload %s seed %d trace %d | host: %s, nproc %d, simd %s, %s %s, "
          "git %s" % (args.workload, args.seed, args.trace, fp["cpu_model"],
                      fp["nproc"], fp["simd"], fp["compiler"],
                      fp["build_type"], fp["git_sha"]))
    for line in lines:
        print(line)
    for name, m in metrics.items():
        print("%-40s %.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Benchmark of the DMDP simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload suite --seed 1 --seconds 60 --trace 0

It builds the Go program in perfbench/ (build cache and outputs under
.bench_build/), then runs the workload in a fresh process per repetition:
a few set-up-only processes for setup_s, then full repetitions until the
next one would overrun --seconds (at least one). End-to-end metrics are
medians over the repetitions. With --trace 1 it runs one untraced and one
traced repetition instead and reports the per-layer metrics; the traced
run's span file and self-time summary go to .bench_build/trace/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Workload names, metric names and
units come from BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
SETUP_SAMPLES = 9
RUN_TIMEOUT_S = 170  # every repetition of a run must end within this, after the build


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def child_env(**extra):
    """Environment for child processes: temporary files stay in the checkout."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp, GOTMPDIR=tmp, **extra)


def build():
    """Builds the benchmark program; the build cache stays in the checkout."""
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        fail("no go.mod at %s: run from the root of a checkout of the simulator" % ROOT)
    env = child_env(GOCACHE=os.path.join(BUILD, "gocache"),
                    GOPATH=os.path.join(BUILD, "gopath"),
                    GOTOOLCHAIN="local", GOFLAGS="", GOWORK="off",
                    GOPROXY="off", CGO_ENABLED="0")
    r = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env,
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build failed")


def steal_s():
    """CPU time the hypervisor took from this machine so far (0 if unknown)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def rep(args, extra):
    """Runs one repetition in a fresh process; returns (record, peak RSS MB).

    The record gets the host's steal time during the repetition. The
    process is killed, and the run fails, at args.deadline."""
    work = os.path.join(BUILD, "work", args.workload)
    out_path = work + ".out"
    os.makedirs(os.path.dirname(work), exist_ok=True)
    cmd = [BINARY, "-workload", args.workload, "-seed", str(args.seed), "-dir", work] + extra
    steal0 = steal_s()
    with open(out_path, "wb") as out:
        p = subprocess.Popen(cmd, stdout=out, env=child_env(PERFBENCH_T0=str(time.time_ns())))
        try:
            while True:
                pid, status, ru = os.wait4(p.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > args.deadline:
                    fail("%s did not finish within the run's %ds" % (" ".join(cmd), RUN_TIMEOUT_S))
                time.sleep(0.02)
        except BaseException:
            p.kill()
            os.wait4(p.pid, 0)
            raise
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        fail("%s exited with %d" % (" ".join(cmd), code))
    with open(out_path) as f:
        lines = f.read().strip().splitlines()
    if not lines:
        fail("%s printed nothing" % " ".join(cmd))
    rec = json.loads(lines[-1])
    rec["host_steal_s"] = steal_s() - steal0
    return rec, ru.ru_maxrss / 1024.0


def source_digest():
    """SHA-256 over the Go sources of the checkout, for the manifest."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum", "expected.json"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def commit():
    """HEAD of the checkout when it is a git tree, else None."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def measure(args):
    """Untraced run: set-up samples, then repetitions until --seconds."""
    start = time.monotonic()
    setups = [rep(args, ["-setup-only"])[0]["setup_s"] for _ in range(SETUP_SAMPLES)]
    reps = []
    while True:
        t = time.monotonic()
        reps.append(rep(args, []))
        if time.monotonic() - start + (time.monotonic() - t) > args.seconds:
            break
    recs = [r for r, _ in reps]
    setups += [r["setup_s"] for r in recs]
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in recs),
        "cpu_s": statistics.median(r["cpu_s"] for r in recs),
        "rerun_s": statistics.median(x for r in recs for x in r["rerun_s"]),
        "sim_minstr_per_s": statistics.median(r["sim"]["Instructions"] / r["wall_s"] / 1e6 for r in recs),
        "peak_rss_mb": statistics.median(rss for _, rss in reps),
        "setup_s": statistics.median(setups),
    }
    detail = {"setup_samples": setups, "reps": recs, "peak_rss_mb": [rss for _, rss in reps]}
    return recs, values, detail


def trace(args):
    """Traced run: one untraced and one traced repetition."""
    os.makedirs(os.path.join(BUILD, "trace"), exist_ok=True)
    prefix = os.path.join(BUILD, "trace", "%s-seed%d" % (args.workload, args.seed))
    plain, _ = rep(args, [])
    traced, _ = rep(args, ["-trace-out", prefix])
    values = dict(traced["layers"])
    values["bench.trace_overhead_s"] = traced["wall_s"] - plain["wall_s"]
    recs = [plain, traced]
    if traced["digests"] != plain["digests"]:
        traced["failed"] += 1
        traced["attempted"] += 1
        traced.setdefault("failures", []).append("traced digests differ from the untraced run's")
    print("trace files: %s.spans.json, %s.selftime.txt" % (prefix, prefix))
    return recs, values, {"reps": recs}


def main():
    # SIGTERM unwinds like Ctrl-C, so a running repetition is killed and
    # reaped before the benchmark exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    args.deadline = time.monotonic() + RUN_TIMEOUT_S
    recs, values, detail = (trace if args.trace else measure)(args)
    shutil.rmtree(os.path.join(BUILD, "work"), ignore_errors=True)

    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    missing = [m["name"] for m in specs if m["name"] not in values]
    if missing:
        fail("metrics not measured: " + ", ".join(missing))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    attempted = sum(r["attempted"] for r in recs)
    failed = sum(r["failed"] for r in recs)

    manifest = dict(recs[0]["manifest"], workload=args.workload, trace=args.trace,
                    repetitions=len(recs), commit=commit(), source_sha256=source_digest(),
                    host_steal_s=sum(r["host_steal_s"] for r in recs))
    for r in recs:
        for msg in r.get("failures") or []:
            print("FAILED " + msg)
    print("manifest " + json.dumps(manifest, sort_keys=True))
    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    with open(os.path.join(BUILD, "results", "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump({"manifest": manifest, "metrics": metrics, "detail": detail}, f, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()

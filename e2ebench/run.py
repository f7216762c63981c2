#!/usr/bin/env python3
"""e2ebench: end-to-end and per-layer benchmark of the real epserved.

Run from the root of a source checkout:

    python3 e2ebench/run.py --workload miss_json --seed 1 --seconds 16 --trace 0

It builds tools/epserved and the benchmark's own binaries from source
(Release, into .bench_build/), runs the benchmark's self-tests, computes
the reference answers in-process, then

  --trace 0  drives the workload against freshly spawned daemons and
             prints the end-to-end metrics;
  --trace 1  drives it once more for the daemon's counters, replays the
             stream through an in-process copy of epserved's wiring with
             the benchmark's spans, and prints the per-layer metrics.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  The line before it is the run record (seed, source hash,
build type, nproc, loadavg, steal, raw per-slice figures), which is also
appended to .bench_build/e2ebench-records.jsonl.  The exit code is 0 only
when every answer and every counter reconciled.  See e2ebench/README.md.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_TYPE = "Release"
WORKLOADS = ("miss_json", "study_metered")


def fail(message, code=1):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.join(ROOT, ".bench_build", "e2ebench-cmake")


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))
            and os.path.isfile(os.path.join(ROOT, "tools", "epserved.cpp"))):
        fail("run from the root of an epsim source checkout", 2)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            rc = subprocess.call(
                ["cmake", "-S", ROOT, "-B", out,
                 "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE,
                 "-DCMAKE_PROJECT_INCLUDE=" + os.path.join(BENCH_DIR, "hook.cmake")],
                stdout=log, stderr=subprocess.STDOUT, timeout=300)
            if rc != 0:
                fail("cmake configure failed; see " + log_path)
        rc = subprocess.call(
            ["cmake", "--build", out, "-j", str(len(os.sched_getaffinity(0))), "--target",
             "epserved", "e2ebench_client", "e2ebench_inproc"],
            stdout=log, stderr=subprocess.STDOUT, timeout=840)
    if rc != 0:
        with open(log_path) as f:
            sys.stderr.write(f.read()[-4000:])
        fail("build failed; see " + log_path)
    return {
        "daemon": os.path.join(out, "tools", "epserved"),
        "client": os.path.join(out, "e2ebench", "e2ebench_client"),
        "inproc": os.path.join(out, "e2ebench", "e2ebench_inproc"),
    }


# A run must end within 180 s of its start (after the build).
DEADLINE = [0.0]


def remaining():
    left = DEADLINE[0] - time.monotonic()
    if left <= 0:
        fail("out of time")
    return left


def call(cmd, **kwargs):
    """Run one benchmark binary within the run's time budget."""
    try:
        return subprocess.run(cmd, timeout=remaining(), **kwargs)
    except subprocess.TimeoutExpired:
        fail("%s did not finish in time" % os.path.basename(cmd[0]))


def run_json(cmd):
    """Run one benchmark binary; returns (exit code, parsed JSON or None)."""
    proc = call(cmd, stdout=subprocess.PIPE, text=True)
    try:
        return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return proc.returncode, None


def source_hash():
    """The git commit when the checkout is a repository, else a digest of
    the sources the benchmark builds."""
    try:
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10)
        lines = git.stdout.split()
        if git.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            return "git:" + lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for top in ("CMakeLists.txt", "src", "tools", "e2ebench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in sorted(files):
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "sources:" + digest.hexdigest()[:16]


def metric(value, unit):
    return {"value": value, "unit": unit}


def total(slices, key):
    return sum(s[key] for s in slices)


def end_to_end(run):
    sel = run["selected"]
    return {
        "latency_p50_ms": metric(sel["p50_ms"], "ms"),
        "cpu_ms_per_req": metric(sel["cpu_ms_per_req"], "ms"),
        "setup_s": metric(sel["setup_s"], "s"),
        "peak_rss_mb": metric(sel["rss_mb"], "MiB"),
    }


def counter_layers(run, threads):
    s = run["slices"]
    accepted = max(1.0, total(s, "ep_serve_accepted_total"))
    answered = max(1.0, total(s, "answered"))
    wall = total(s, "wall_s")
    rejected = total(s, "rejected")
    return {
        "net.frames_per_batch": metric(
            total(s, "ep_net_frames_total") / max(1.0, total(s, "ep_net_batches_total")),
            "count"),
        "net.bytes_per_req": metric(
            (total(s, "ep_net_bytes_read_total")
             + total(s, "ep_net_bytes_written_total")) / accepted, "B"),
        "serve.hit_ratio": metric(total(s, "cache_hits") / answered, "ratio"),
        "serve.coalesced_share": metric(
            total(s, "ep_serve_coalesced_total") / accepted, "ratio"),
        "serve.studies_per_req": metric(
            total(s, "ep_serve_studies_executed_total") / accepted, "count"),
        "serve.evictions_per_req": metric(
            total(s, "ep_serve_cache_evictions_total") / accepted, "count"),
        "serve.rejected_share": metric(rejected / (accepted + rejected), "ratio"),
        "common.pool_busy_share": metric(total(s, "cpu_s") / (threads * wall), "ratio"),
        "load.achieved_rps": metric(answered / wall, "1/s"),
        "load.latency_p99_ms": metric(run["p99_ms"], "ms"),
        "load.client_cpu_share": metric(total(s, "client_cpu_s") / wall, "ratio"),
        "host.steal_share": metric(statistics.mean(x["steal_share"] for x in s), "ratio"),
        "host.speed_factor": metric(statistics.mean(x["host_factor"] for x in s), "ratio"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    bins = build()
    DEADLINE[0] = time.monotonic() + 175
    work = build_dir()
    selftest = call([bins["client"], "--selftest"], stdout=subprocess.PIPE, text=True)
    if selftest.returncode != 0:
        sys.stderr.write(selftest.stdout)
        fail("benchmark self-test failed")

    expected = os.path.join(work, "reference-%s-%d.txt" % (args.workload, args.seed))
    rc = call([bins["inproc"], "reference", "--workload", args.workload,
               "--seed", str(args.seed), "--out", expected]).returncode
    if rc != 0:
        fail("reference answers failed")

    # The timed run; with --trace 1 it shares the seconds with the traced run.
    timed_seconds = args.seconds if args.trace == 0 else args.seconds / 2
    rc, run = run_json([bins["client"], "--daemon", bins["daemon"],
                        "--workload", args.workload, "--seed", str(args.seed),
                        "--seconds", repr(timed_seconds),
                        "--expected", expected])
    if run is None or not run["slices"]:
        fail("timed run produced no result (exit %d)" % rc)
    correct = rc == 0 and run["correct"]

    if args.trace == 0:
        metrics = end_to_end(run)
    else:
        threads = int(run["daemon_args"].split("--threads")[1].split()[0])
        metrics = counter_layers(run, threads)
        rc, traced = run_json([bins["inproc"], "trace", "--workload", args.workload,
                               "--seed", str(args.seed),
                               "--seconds", repr(args.seconds / 2),
                               "--expected", expected,
                               "--out", os.path.join(work, "spans-%s-%d.tsv" % (
                                   args.workload, args.seed))])
        if traced is None or rc != 0:
            fail("traced run failed (exit %d)" % rc)
        metrics.update(traced["metrics"])

    wall = max(1e-9, total(run["slices"], "wall_s"))
    client_share = total(run["slices"], "client_cpu_s") / wall
    daemon_share = total(run["slices"], "cpu_s") / wall
    record = {
        "record": "e2ebench", "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "source": source_hash(), "build_type": BUILD_TYPE,
        "nproc": run["nproc"], "loadavg": run["loadavg"],
        "host.steal_share": statistics.mean(s["steal_share"] for s in run["slices"]),
        "client_bound": client_share > min(0.9, daemon_share),
        "daemon_args": run["daemon_args"].strip(),
        "sent": run["sent"], "ok": run["ok"], "failed": run["failed"],
        "latency_samples": run["selected"]["samples"], "verified": run["verified"],
        "selected_slices": run["selected"]["slices"],
        "host_factor": run["selected"]["host_factor"], "raw": run["selected"]["raw"],
        "problems": run["problems"], "slices": run["slices"],
    }
    if args.trace == 1:
        record["accounting_us_per_req"] = traced["accounting_us_per_req"]
    if record["client_bound"]:
        print("e2ebench: warning: the client thread, not the daemon, was the busy "
              "side (client %.0f %%, daemon %.0f %% of a CPU)"
              % (100 * client_share, 100 * daemon_share), file=sys.stderr)
    for problem in run["problems"]:
        print("e2ebench: check failed: " + problem, file=sys.stderr)
    with open(os.path.join(ROOT, ".bench_build", "e2ebench-records.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")
    print(json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": run["sent"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""gpm benchmark: one command, two workloads, every output checked.

    python3 perfbench/run.py --workload sweep|route-mixed \
        --seed N --seconds T --trace 0|1

Run from the repository root. Builds the shipped libraries, gpmd,
gpm-router and the gpmbench runner from source into .bench_build/
(RelWithDebInfo), then runs one workload:

  sweep        in-process paper grid through ExperimentRunner and
               ClusterManager; set-up is three cold profile-suite
               builds into empty stores.
  route-mixed  open and closed loop NDJSON through gpm-router to two
               gpmd sharing one --cache-dir: Zipf hits, 0.2% cold
               misses, 20% batches. With four cores or more, the
               router, each gpmd and the load generator get one core
               each after the set-up (fleet_cpus).

The route-mixed set-up is launching the fleet until both daemons
report their profiles ready and the router both backends live, then
computing the workload's hot scenarios through it; it is done
SETUP_REPEATS times and setup_s is the median.
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
from a traced pass. The last stdout line is the result JSON.
"""

import argparse
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD = os.path.join(REPO, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
STATE = os.path.join(BUILD, "state")

# The daemons' --scale: kScale in gpmbench.cc, whose in-process
# sweeps every served payload must equal.
SCALE = 0.2
# One set-up takes about 0.3 s and varies by up to 2x with what else
# the 4 cores are doing; setup_s is the median of this many.
SETUP_REPEATS = 15
SUITE_SIZE = 12

WORKLOADS = ("sweep", "route-mixed")


def fleet_cpus():
    """Cores for the router, the two gpmd and the load generator, one
    each, or None when there are fewer than four. They are pinned
    once the set-up is done: unpinned, their threads share every core
    and the closed loop measures how the scheduler interleaves them,
    which swings with the host's load."""
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[:4] if len(cpus) >= 4 else None


END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("points_per_cpu_s", "1/cpu-s"),
]

# Layers with spans of their own (uarch profiling runs inside the
# trace layer's suite build, so the two share "trace").
LAYERS = ("trace", "sim", "core", "cluster", "metrics", "fullsim",
          "service", "reactor", "router", "gen")

PER_LAYER = [
    ("uarch.profile_run_ms", "ms"),
    ("trace.suite_build_ms", "ms"),
    ("trace.store_load_ms", "ms"),
    *[(f"sim.point_us.{c}.{q}", "us")
      for c in ("2way", "4way", "8way", "many") for q in ("p50", "p99")],
    ("sim.points", "count"),
    ("sim.decisions", "count"),
    ("core.decide_us.MaxBIPS.8", "us"),
    ("core.decide_us.PullHiPushLo.4", "us"),
    ("core.decide_us.MaxBIPS-DP.1024", "us"),
    ("core.decide_us.GreedyTurbo.256", "us"),
    ("core.decide_us.WaterFill.1024", "us"),
    ("cluster.run_ms", "ms"),
    ("cluster.allocate_us", "us"),
    ("metrics.sweep_efficiency", "ratio"),
    ("metrics.sweep_ms", "ms"),
    ("service.parse_us", "us"),
    ("service.hash_us", "us"),
    ("service.hit_us", "us"),
    ("service.serialize_us", "us"),
    ("service.disk_hit_us", "us"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.rejected", "ratio"),
    ("service.shed", "ratio"),
    ("service.degraded", "ratio"),
    ("service.queue_depth_p99", "count"),
    ("service.miss_p50_ms", "ms"),
    ("reactor.overhead_us", "us"),
    ("router.hop_us", "us"),
    ("router.ring_pick_ns", "ns"),
    ("router.splice_fallback_ratio", "ratio"),
    ("router.rerouted", "count"),
    ("router.backend_skew", "ratio"),
    ("p50_ms.low", "ms"),
    ("p50_ms.high", "ms"),
    ("p90_ms.low", "ms"),
    ("p90_ms.high", "ms"),
    ("p99_ms.low", "ms"),
    ("p99_ms.high", "ms"),
    ("gen.lag_p99_ms", "ms"),
    ("gen.behind", "flag"),
    ("gen.fail_share", "ratio"),
    ("validation.dbips_mean_pct", "%"),
    ("validation.dbips_worst_pct", "%"),
    ("validation.dpower_mean_pct", "%"),
    ("validation.dpower_worst_pct", "%"),
    ("tracing.overhead_pct", "%"),
    *[(f"{layer}.self_ms", "ms") for layer in LAYERS],
]


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; False on failure."""
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        log("no gpm sources next to perfbench/ (src/CMakeLists.txt)")
        return False
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", CMAKE_DIR, "-j", jobs, "--target",
                  "gpmbench", "gpmd", "gpm-router"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def binary(name):
    for sub in ("", "gpm/service", "gpm/router"):
        p = os.path.join(CMAKE_DIR, sub, name)
        if os.path.isfile(p):
            return p
    raise FileNotFoundError(name)


def ndjson_call(port, obj, timeout=5.0):
    with socket.create_connection(("127.0.0.1", port), timeout) as s:
        s.sendall((json.dumps(obj) + "\n").encode())
        buf = b""
        while b"\n" not in buf:
            chunk = s.recv(65536)
            if not chunk:
                raise ConnectionError("closed")
            buf += chunk
    return json.loads(buf.split(b"\n", 1)[0])


class Daemon:
    """One gpmd or gpm-router process, logging to a file."""

    def __init__(self, argv, logpath):
        self.logpath = logpath
        self.log = open(logpath, "w")
        self.proc = subprocess.Popen(argv, stdout=self.log,
                                     stderr=subprocess.STDOUT,
                                     cwd=REPO)
        self.port = None

    def wait_listening(self, deadline):
        while time.monotonic() < deadline:
            with open(self.logpath) as f:
                for line in f:
                    if ": listening on " in line:
                        self.port = int(line.rsplit(":", 1)[1])
                        return
            if self.proc.poll() is not None:
                raise RuntimeError(f"{self.logpath}: exited early")
            time.sleep(0.001)
        raise TimeoutError(f"{self.logpath}: not listening")

    def pin(self, cpu):
        """Moves every thread to @cpu; threads started later inherit
        it from the thread that starts them."""
        for tid in os.listdir(f"/proc/{self.proc.pid}/task"):
            os.sched_setaffinity(int(tid), {cpu})

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def wait_until(pred, deadline, what):
    while time.monotonic() < deadline:
        try:
            if pred():
                return
        except (OSError, ValueError):
            pass
        time.sleep(0.001)
    raise TimeoutError(what)


def launch_fleet(seed, store, run_dir, tag):
    """Start two gpmd and the router, and warm the hot scenarios
    through it; returns (daemons, seconds until warm)."""
    gpmd, router = binary("gpmd"), binary("gpm-router")
    nback = 2
    cache = os.path.join(run_dir, f"cache-{tag}")
    shutil.rmtree(cache, ignore_errors=True)
    base = ["--port", "0", "--scale", str(SCALE),
            "--profile-cache-dir", store, "--cache-dir", cache]
    daemons = []
    t0 = time.monotonic()
    deadline = t0 + 60
    try:
        for i in range(nback):
            daemons.append(Daemon([gpmd] + base, os.path.join(
                run_dir, f"gpmd{i}-{tag}.log")))
        for d in daemons:
            d.wait_listening(deadline)
        for d in daemons:
            wait_until(lambda: ndjson_call(d.port, {"id": 0, "verb": "stats"})
                       ["result"]["profileReady"] >= SUITE_SIZE,
                       deadline, "profiles not ready")
        backends = ",".join(f"127.0.0.1:{d.port}" for d in daemons)
        r = Daemon([router, "--port", "0", "--backends", backends],
                   os.path.join(run_dir, f"router-{tag}.log"))
        daemons.append(r)
        r.wait_listening(deadline)
        wait_until(lambda: ndjson_call(r.port, {"id": 0, "verb": "stats"})
                   ["result"]["backendsLive"] == nback,
                   deadline, "router backends not live")
        # Reading its stdout to EOF notices the exit at once; a bare
        # wait with a timeout polls in steps of up to 50 ms, which
        # would quantize setup_s.
        subprocess.run([binary("gpmbench"), "warm", "--seed", str(seed),
                        "--port", str(r.port)],
                       check=True, cwd=REPO, timeout=60,
                       stdout=subprocess.PIPE)
        return daemons, time.monotonic() - t0
    except BaseException:
        for d in daemons:
            d.stop()
        raise


def run_gpmbench(argv):
    r = subprocess.run(argv, stdout=subprocess.PIPE, stderr=sys.stderr,
                       text=True, cwd=REPO, timeout=170)
    if r.returncode != 0:
        raise RuntimeError(f"gpmbench exited {r.returncode}")
    lines = [ln for ln in r.stdout.splitlines() if ln.strip()]
    return json.loads(lines[-1])


def run(args):
    run_dir = os.path.join(STATE, f"run-{os.getpid()}")
    store = os.path.join(STATE, f"profiles-s{SCALE}")
    os.makedirs(run_dir, exist_ok=True)
    # One span file per workload, replaced by its next traced run.
    spans = os.path.join(BUILD, "traces", f"{args.workload}.jsonl")
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    common = ["--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace), "--work", run_dir]
    if args.trace:
        common += ["--spans", spans]
    daemons = []
    try:
        if args.workload == "sweep":
            out = run_gpmbench([binary("gpmbench"), "sweep"] + common)
        else:
            # The profile store is shared across runs (content
            # addressed, so a changed model simply re-addresses it);
            # filling it is not part of the timed set-up.
            subprocess.run([binary("gpmbench"), "prewarm", "--store", store],
                           check=True, stdout=sys.stderr, stderr=sys.stderr,
                           cwd=REPO)
            setups = []
            for k in range(SETUP_REPEATS):
                daemons, secs = launch_fleet(args.seed, store, run_dir,
                                             str(k))
                setups.append(secs)
                if k + 1 < SETUP_REPEATS:
                    for d in daemons:
                        d.stop()
                    daemons = []
            gpmds = [d for d in daemons if "gpmd" in d.logpath]
            target = daemons[-1].port
            cpus = fleet_cpus()
            pin = []
            if cpus:
                daemons[-1].pin(cpus[0])
                for d, cpu in zip(gpmds, cpus[1:3]):
                    d.pin(cpu)
                pin = ["--cpu", str(cpus[3])]
            out = run_gpmbench(
                [binary("gpmbench"), "serve", "--store", store, "--port",
                 str(target), "--backends",
                 ",".join(str(d.port) for d in gpmds)] + pin + common)
            out["metrics"]["setup_s"] = statistics.median(setups)
            out["metrics"]["peak_rss_mb"] = sum(d.peak_rss_mb()
                                                for d in daemons)
    finally:
        for d in daemons:
            d.stop()
        shutil.rmtree(run_dir, ignore_errors=True)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # A terminated run still stops the daemons it started (finally).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not build():
        return 1
    try:
        out = run(args)
    except (RuntimeError, TimeoutError, OSError, ValueError,
            subprocess.SubprocessError) as e:
        log(f"run failed: {e}")
        return 1

    table = PER_LAYER if args.trace else END_TO_END
    got = out["metrics"]
    metrics = {name: {"value": float(got.get(name, 0.0)), "unit": unit}
               for name, unit in table}
    info = dict(out.get("info", {}), workload=args.workload,
                seconds=args.seconds, raw=got)
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": bool(out["correct"]),
                      "attempted": int(out["attempted"]),
                      "failed": int(out["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

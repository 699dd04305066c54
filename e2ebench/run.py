#!/usr/bin/env python3
"""End-to-end benchmark of qapprox: paper-figure pipelines and open-loop
serving, with every second attributed to a named layer.

    python3 e2ebench/run.py --workload figs-dm --seed 1 --seconds 55 --trace 0

Run from the root of a checkout. The first run builds the library, the
qapprox_serve daemon and the qapprox_e2e harness into .bench_build (or
$CARGO_TARGET_DIR). Workloads:

  figs-dm    figures 2, 4, 5, 6, 7, 9 in simulator mode (DM engine, level 1)
  figs-traj  hardware-mode figures 12-15 (level-3 layout, trajectory engine);
             runs by hand, not listed in BENCHMARK.json
  serve-open seeded open-loop Poisson traffic at five offered rates against
             one qapprox_serve process with its job journal on

--trace 0 prints the end-to-end metrics; --trace 1 runs traced and prints
the per-layer metrics, the attribution table, and writes a Chrome trace
(loads in Perfetto) to .bench_run/. The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}. See e2ebench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import ledger  # noqa: E402

# Fixed thread count of the timed runs (QAPPROX_THREADS); wall_1t_s reruns
# the same problem with 1.
THREADS = 4
# A seed no tuning run used; later claims are re-checked on it.
HELD_OUT_SEED = 90210
# serve-open: offered rates (requests/s), a doubling grid around the
# server's measured capacity. On the 4-vCPU machine this was tuned on, the
# seed code meets the latency limit at 400/s, is near it at 800/s and
# misses it at 1600/s (capacity ~1300/s when the host is quiet), so
# knee_rps falls between grid rates. 3200/s is far above the capacity, so
# the time to clear a segment offered at it (wall_s) is the server's, with
# room for a 2x faster server before the schedule (78 ms) dominates it.
# Latency metrics are read at LATENCY_RATE, the lowest rate, where a job's
# latency is mostly its own time.
SERVE_RATES = [200.0, 400.0, 800.0, 1600.0, 3200.0]
LATENCY_RATE = 200.0
# One round of segments, interleaved so every rate samples the whole run.
# wall_s is the median over the top rate's segments, which a burst of load
# on the shared host moves only when it covers most of them; within one run
# those segments' times spread 330-630 ms, so every other segment of a
# round is one.
SERVE_ROUND = [200.0, 3200.0, 400.0, 3200.0, 800.0, 3200.0, 1600.0, 3200.0]
# The first segment is warm-up: its replies are checked (it is also the
# in-process replay sample), but no metric reads it. It holds the run's
# densest run of first sightings (cache misses).
WARMUP_SEGMENTS = 1
# Requests per segment, the same at every rate. A segment's backlog never
# exceeds it, and it stays under the server's default queue cap (256 jobs),
# so no rate is refused however far it overloads the server.
SEGMENT_REQUESTS = 250
LATENCY_LIMIT_MS = 100.0
# In-process serial replays of the first segment (wall_1t_s), spread over
# the run. One takes 0.7-1.8 s with the state of the machine, so the median
# takes ten. The untraced load is sent in LOAD_PARTS parts, with replays
# in the gaps between them.
REPLAYS = 10
LOAD_PARTS = 3
# A run whose sender fell behind its schedule by more than this (tail of
# sent - due per segment, median over segments) measured the generator,
# not the server, and is discarded.
GEN_LAG_LIMIT_MS = 20.0
# serve-open set-up samples per run: server restarts over the same journal.
SETUP_SAMPLES = 7
# The server's pool threads (QAPPROX_THREADS): one, so concurrent jobs do
# not compete for pool threads; the figure workloads measure the pool.
SERVER_POOL = 1
# The server runs THREADS workers, so every vCPU is busy while an overload
# segment drains; the client one connection (one sender, one receiver
# thread).
CLIENT_CONNECTIONS = 1
# Tenants, round-robin over job requests, as bench_serve sends them.
TENANTS = 4
# End-to-end metrics every untraced run prints but that BENCHMARK.json
# lists as per-layer metrics, so traced runs report them and no bound gates
# them. On serve-open they are latencies of a server that is mostly idle
# between requests, and each request waits for idle vCPUs to wake: when the
# shared host is busy, that wait grows to milliseconds (the sender's own
# wake-ups run 2-4 ms late instead of 0.1-0.5 ms), and sets of ten runs of
# the same code spread 21-66% on the tail and the synthesize median, with
# either two or four workers. knee_rps sits where latency climbs steeply with load and
# spread 26-41%. Serve wall_s, the time to clear an overload burst while
# every vCPU is busy, gates the server's speed instead. On the figure
# workloads these are per-figure and per-call medians (knee_rps: figures per
# wall second).
UNGATED = ["lat_p50_ms", "lat_tail_ms", "sim_lat_p50_ms", "synth_lat_p50_ms", "knee_rps"]
# Figure workloads: fraction of the wall the benchmark's spans must cover.
MIN_COVERAGE = 0.95
GOLDEN_TOL = 1e-6
HS2_TOL = 1e-10

# Build, ISA and pool size as the harness reported them (environment stamp).
HARNESS_ENV = {}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Checks:
    """Counts output checks; every failure is printed with its reason."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"CHECK FAIL {what}")
        return ok

    def merge(self, other):
        self.attempted += other.attempted
        self.failed += other.failed


# ---- build and processes -------------------------------------------------------

def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit("e2ebench: qapprox sources not found next to e2ebench/")
    bdir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (bdir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, stderr=sys.stderr, check=True, timeout=300)
    subprocess.run(["cmake", "--build", str(bdir), "-j", jobs, "--target",
                    "qapprox_e2e", "qapprox_serve"],
                   stdout=sys.stderr, stderr=sys.stderr, check=True, timeout=840)
    return bdir / "qapprox_e2e", bdir / "qapprox" / "tools" / "qapprox_serve"


class Proc:
    """A child process timed from spawn to exit, with its own rusage. No
    wait outlives the run's deadline: a child still running then is killed."""

    live = []
    deadline = math.inf  # set once the build is done

    def __init__(self, cmd, env=None, cwd=None, stdout=None):
        self.t_spawn = time.monotonic_ns()
        self.p = subprocess.Popen([str(c) for c in cmd], env=env, cwd=cwd,
                                  stdout=stdout or subprocess.DEVNULL,
                                  stderr=sys.stderr)
        Proc.live.append(self)

    def wait(self, timeout=None, poll=0.002):
        """Waits for the exit, polling every `poll` seconds: the exit time
        (and with it the wall) is known to within one poll."""
        deadline = min(time.monotonic() + (timeout or 170.0), Proc.deadline)
        while True:
            pid, status, ru = os.wait4(self.p.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.p.kill()
                pid, status, ru = os.wait4(self.p.pid, 0)
                status = -1
                break
            time.sleep(poll)
        self.t_exit = time.monotonic_ns()
        self.p.returncode = os.waitstatus_to_exitcode(status) if status != -1 else -9
        Proc.live.remove(self)
        self.wall = (self.t_exit - self.t_spawn) / 1e9
        self.cpu = ru.ru_utime + ru.ru_stime
        self.rss_mb = ru.ru_maxrss / 1024.0
        return self.p.returncode

    @classmethod
    def kill_all(cls):
        for proc in list(cls.live):
            proc.p.kill()
            proc.wait()


def env_with(**extra):
    env = dict(os.environ)
    env.pop("QAPPROX_METRICS", None)
    env.pop("QAPPROX_TRACE", None)
    env.update({k: str(v) for k, v in extra.items()})
    return env


# ---- figure workloads --------------------------------------------------------------

def shot_bound(kind, shots, golden, count):
    """Largest difference between a noisy estimate and its golden value that
    shot noise explains: z standard deviations of the difference of two
    independent `shots`-shot estimates, z set for a 1e-3 chance that any of
    the series' `count` values exceeds it (Bonferroni). The standard
    deviation comes from the golden value itself."""
    z = statistics.NormalDist().inv_cdf(1.0 - 1e-3 / (2.0 * count))
    if kind == "magnetization":
        # Mean over shots of a per-shot mean of +-1 values: variance per shot
        # at most 1 - m^2.
        var = max(1.0 - golden * golden, 1.0 / shots)
    elif kind == "success_probability":
        var = max(golden * (1.0 - golden), 1.0 / shots)
    else:
        # JS distance d = sqrt(JSD) of a shot histogram to a fixed ideal.
        # The plug-in JSD (bits) has per-shot variance at most 0.532 (the
        # largest p * g^2 summed over outcomes, g = log2(2p / (p + q)) / 2),
        # and d's standard deviation is JSD's over 2d (delta method; d is
        # floored at 0.1 where that approximation fails).
        var = 0.532 / (4.0 * max(golden, 0.1) ** 2)
    return z * math.sqrt(2.0 * var / shots)


def compare_golden(fig, golden, noisy, shots, checks):
    want = golden.get(fig["id"])
    if not checks.check(want is not None, f"{fig['id']}: no golden record"):
        return
    for name, series in want["series"].items():
        got = fig["series"].get(name)
        what = f"{fig['id']}.{name} vs golden"
        if got is None or len(got["values"]) != len(series["values"]):
            checks.check(False, f"{what}: shape differs")
            continue
        exact = series["kind"] == "exact" or not noisy
        count = len(series["values"])
        worst = max(abs(a - b) - (GOLDEN_TOL if exact else
                                  shot_bound(series["kind"], shots, b, count))
                    for a, b in zip(got["values"], series["values"]))
        checks.check(worst <= 0.0, f"{what}: a value is {worst:.3g} beyond its bound")


def run_fig_rep(exe, set_name, seed, threads, traced, run_dir, golden, checks):
    out = run_dir / f"fig-{len(os.listdir(run_dir))}.json"
    proc = Proc([exe, "figs", "--set", set_name, "--seed", seed, "--out", out,
                 "--traced", 1 if traced else 0],
                env=env_with(QAPPROX_THREADS=threads), cwd=run_dir)
    rc = proc.wait()
    rep = {"threads": threads, "traced": traced, "wall": proc.wall, "cpu": proc.cpu,
           "rss_mb": proc.rss_mb, "t_spawn": proc.t_spawn, "t_exit": proc.t_exit}
    if not checks.check(rc == 0 and out.is_file(), f"figs {set_name} exited {rc}"):
        return None
    doc = json.loads(out.read_text())
    out.unlink()
    HARNESS_ENV.update(doc["env"])
    rep.update(doc)
    rep["setup"] = (doc["setup_end_ns"] - proc.t_spawn) / 1e9
    for fig in doc["figures"]:
        for s in fig["shapes"]:
            checks.check(s["ok"], f"{fig['id']} SHAPE {s['what']} ({s['lhs']:.4g} vs "
                                  f"{s['rhs']:.4g})")
        for h in fig["hs_checks"]:
            # HS = sqrt(1 - f^2) loses half its digits near 0 (f ~ 1), so the
            # comparison is on HS^2, which both sides compute to ~1e-16.
            checks.check(abs(h["reported"] ** 2 - h["recomputed"] ** 2) <= HS2_TOL,
                         f"{fig['id']} HS of circuit {h['index']}: reported "
                         f"{h['reported']:.12g}, recomputed {h['recomputed']:.12g}")
        if golden is not None:
            compare_golden(fig, golden, set_name == "traj", doc["shots"], checks)
    return rep


def span_medians(reps, name):
    """Median duration (ms) of each (figure, call index) span `name` across
    reps, one value per call site."""
    calls = {}
    for rep in reps:
        seen = {}
        for s in rep["spans"]:
            if s["name"] != name:
                continue
            key = (s["id"], seen.get(s["id"], 0))
            seen[s["id"]] = key[1] + 1
            calls.setdefault(key, []).append((s["end_ns"] - s["start_ns"]) / 1e6)
    return [ledger.median(v) for v in calls.values()]


def figure_metrics(reps):
    walls = [r["wall"] for r in reps]
    per_figure = span_medians(reps, "figure")
    lat_tail, pct, n = ledger.tail(per_figure)
    wall = ledger.median(walls)
    return {
        "wall_s": (wall, "s"),
        "cpu_s": (ledger.median([r["cpu"] for r in reps]), "s"),
        "peak_rss_mb": (ledger.median([r["rss_mb"] for r in reps]), "MB"),
        "lat_p50_ms": (ledger.median(per_figure), "ms"),
        "lat_tail_ms": (lat_tail, "ms"),
        "sim_lat_p50_ms": (ledger.median(span_medians(reps, "approx.scatter")), "ms"),
        "synth_lat_p50_ms": (ledger.median(span_medians(reps, "approx.generate")), "ms"),
        "knee_rps": (len(per_figure) / wall if wall > 0 else 0.0, "1/s"),
    }, {"samples": len(reps), "tail_pct": pct, "tail_n": n}


def figs_workload(set_name, seed, seconds, trace, exe, run_dir, checks):
    golden_path = HERE / "golden" / f"figs-{set_name}.json"
    golden = json.loads(golden_path.read_text()) if golden_path.is_file() else None
    checks.check(golden is not None, f"golden record {golden_path.name} missing")
    plan = [(THREADS, True), (THREADS, False)] if trace else [(THREADS, False), (1, False)]
    reps = []
    t0 = time.monotonic()
    while True:
        t_pair = time.monotonic()
        for threads, traced in plan:
            rep = run_fig_rep(exe, set_name, seed, threads, traced, run_dir, golden, checks)
            if rep is not None:
                reps.append(rep)
        elapsed, pair = time.monotonic() - t0, time.monotonic() - t_pair
        if elapsed + pair > seconds:
            break
    timed = [r for r in reps if r["threads"] == THREADS and not r["traced"]]
    if not timed:
        return {}
    metrics, info = figure_metrics(timed)
    metrics["setup_s"] = (ledger.median([r["setup"] for r in reps]), "s")
    if not trace:
        serial = [r["wall"] for r in reps if r["threads"] == 1]
        metrics["wall_1t_s"] = (ledger.median(serial), "s")
        print_end_to_end(f"figs-{set_name}", metrics, info, len(serial))
        return metrics
    traced = [r for r in reps if r["traced"]]
    if not traced:
        return {}
    layers, by_span = figure_layers(traced, timed, checks)
    layers.update({name: metrics[name] for name in UNGATED})
    print_layers(f"figs-{set_name}", layers, by_span)
    write_trace(run_dir.parent, f"{set_name}-{seed}", traced)
    return layers


def hist_s(m, name):
    return m.get("histograms", {}).get(name, {}).get("sum", 0) / 1e9


def ratio(num, den):
    return num / den if den else 0.0


def program_layers(m, cpu, wall):
    """Per-layer numbers from the program's own metrics registry (busy time
    summed over threads; nested pool tasks count twice, so pool.task_ns is
    never added to layer times)."""
    c = m.get("counters", {})
    shots = c.get("sim.trajectory_shots", 0)
    out = {
        "synth.qsearch_s": (hist_s(m, "synth.qsearch_ns"), "s"),
        "synth.qfactor_s": (hist_s(m, "synth.qfactor_ns"), "s"),
        "synth.gradient_s": (hist_s(m, "synth.gradient_ns"), "s"),
        "synth.partition_s": (hist_s(m, "synth.partition_ns"), "s"),
        "synth.qsearch.nodes_expanded": (c.get("synth.qsearch.nodes_expanded", 0), "count"),
        "synth.qfactor.sweeps": (c.get("synth.qfactor.sweeps", 0), "count"),
        "synth.cache.lookups": (c.get("synth.cache.hits", 0) + c.get("synth.cache.misses", 0),
                                "count"),
        "synth.cache.hit_rate": (ratio(c.get("synth.cache.hits", 0),
                                       c.get("synth.cache.hits", 0)
                                       + c.get("synth.cache.misses", 0)), "ratio"),
        "synth.partition.blocks": (c.get("synth.partition.blocks_total", 0), "count"),
        "synth.partition.reuse_rate": (ratio(c.get("synth.partition.dedupe_hits", 0)
                                             + c.get("synth.partition.cache_hits", 0),
                                             c.get("synth.partition.blocks_total", 0)),
                                       "ratio"),
        "exec.run_s": (hist_s(m, "exec.run_ns"), "s"),
        "exec.transpile_s": (hist_s(m, "exec.transpile_ns"), "s"),
        "exec.model_s": (hist_s(m, "exec.model_ns"), "s"),
        "exec.compile_s": (hist_s(m, "exec.compile_ns"), "s"),
        "exec.evolve_s": (hist_s(m, "exec.evolve_ns"), "s"),
        "sim.compile.source_gates": (c.get("sim.compile.source_gates", 0), "count"),
        "sim.compile.fusion_ratio": (ratio(c.get("sim.compile.fused_gates", 0),
                                           c.get("sim.compile.source_gates", 0)), "ratio"),
        "sim.trajectory_shots": (shots, "count"),
        "sim.evolve_us_per_shot": (ratio(hist_s(m, "exec.evolve_ns") * 1e6, shots), "us"),
        "transpile.layout_s": (hist_s(m, "transpile.layout_ns"), "s"),
        "transpile.route_s": (hist_s(m, "transpile.route_ns"), "s"),
        "pool.busy_s": (c.get("pool.busy_ns", 0) / 1e9, "s"),
        "pool.tasks": (c.get("pool.tasks_executed", 0), "count"),
        "pool.caller_helped_ratio": (ratio(c.get("pool.caller_helped_tasks", 0),
                                           c.get("pool.tasks_executed", 0)), "ratio"),
        "proc.cpu_util": (ratio(cpu, wall * THREADS), "ratio"),
    }
    for cache in ("transpile", "model", "compiled"):
        hits = c.get(f"exec.cache.{cache}.hits", 0)
        total = hits + c.get(f"exec.cache.{cache}.misses", 0)
        out[f"exec.cache.{cache}.lookups"] = (total, "count")
        out[f"exec.cache.{cache}.hit_rate"] = (ratio(hits, total), "ratio")
    return out


# Serving layers, read 0 on the figure workloads.
SERVE_UNITS = {"serve.queue_wait_tail_ms": "ms", "serve.queue_depth_tail": "count",
               "serve.exec_p50_ms.simulate": "ms", "serve.exec_p50_ms.synthesize": "ms",
               "serve.reply_tail_ms": "ms", "serve.journal.syncs_per_job": "count",
               "serve.journal.bytes_per_job": "B", "serve.gen_lag_tail_ms": "ms"}
APPROX_LAYERS = ["approx.generate_s", "approx.scatter_s", "approx.study_s"]


def figure_layers(traced, untraced, checks):
    rows, spans_by_name = [], []
    for rep in traced:
        by_name, other_ns, coverage = ledger.attribution(rep["spans"], rep["t_spawn"],
                                                         rep["t_exit"])
        checks.check(coverage >= MIN_COVERAGE,
                     f"benchmark spans cover {coverage:.1%} of the wall (< {MIN_COVERAGE:.0%})")
        row = program_layers(rep.get("metrics", {}), rep["cpu"], rep["wall"])
        for name in APPROX_LAYERS:
            row[name] = (by_name.get(name[:-2], {}).get("total_ns", 0) / 1e9, "s")
        row["attr.other_s"] = (other_ns / 1e9, "s")
        row["trace.coverage"] = (coverage, "ratio")
        rows.append(row)
        spans_by_name.append(by_name)
    layers = {name: (ledger.median([r[name][0] for r in rows]), unit)
              for name, (_, unit) in rows[0].items()}
    layers.update({name: (0.0, unit) for name, unit in SERVE_UNITS.items()})
    overhead = ledger.median([r["wall"] for r in traced]) - \
        ledger.median([r["wall"] for r in untraced])
    layers["trace.overhead_s"] = (overhead, "s")
    return layers, spans_by_name[len(spans_by_name) // 2]


def write_trace(results_dir, label, reps, extra=None):
    runs = [(f"{label} rep {i}", r["spans"]) for i, r in enumerate(reps)]
    if extra:
        runs.extend(extra)
    path = results_dir / f"trace-{label}.json"
    path.write_text(json.dumps(ledger.chrome_trace(runs)))
    log(f"chrome trace: {path.relative_to(ROOT)}")


# ---- serving workload ----------------------------------------------------------

class Server:
    """One qapprox_serve process in `sdir` (socket and journal are relative
    paths there, which keeps the socket path short)."""

    def __init__(self, serve_exe, sdir, traced):
        extra = {"QAPPROX_THREADS": SERVER_POOL, "QAPPROX_LOG": "error"}
        if traced:
            extra["QAPPROX_METRICS"] = "server_metrics.json"
        self.stdout = open(sdir / "server.out", "w")
        self.proc = Proc([serve_exe, "--socket=q.sock", "--journal-dir=journal",
                          f"--workers={THREADS}"], env=env_with(**extra), cwd=sdir,
                         stdout=self.stdout)

    def wait(self, client_ok):
        """Waits for the exit a wire shutdown started; when the client failed
        before sending it, stops the server first."""
        if not client_ok:
            self.proc.p.terminate()
        rc = self.proc.wait(timeout=None if client_ok else 10.0)
        self.stdout.close()
        return rc


def drive(exe, sdir, schedule, checks, shutdown=True):
    """Runs the serve-load harness against the server in `sdir`; with
    `shutdown` it ends with a wire shutdown once every reply is in."""
    sched_path = sdir / "schedule.jsonl"
    with open(sched_path, "w") as f:
        for item in schedule:
            f.write(json.dumps({"segment": item.get("segment", 0), "due": item["due"],
                                "req": item["req"]}) + "\n")
    out = sdir / "load.json"
    cmd = [exe, "serve-load", "--socket", "q.sock", "--connections", CLIENT_CONNECTIONS,
           "--out", out, "--shutdown", int(shutdown)]
    if schedule:
        cmd[2:2] = ["--schedule", sched_path]
    proc = Proc(cmd, env=env_with(QAPPROX_THREADS=1), cwd=sdir)
    # A coarse poll: this wait spans the whole load, and a 2 ms one would wake
    # this process 500 times a second next to the server it measures.
    rc = proc.wait(poll=0.05)
    if not checks.check(rc == 0 and out.is_file(), f"serve-load exited {rc}"):
        return None
    doc = json.loads(out.read_text())
    out.unlink()
    doc["client"] = proc
    return doc


def serve_setups(exe, serve_exe, sdir, checks, seed):
    """Set-up samples: spawn to first answered ping, over a journal primed
    with completed jobs so every sample includes recovery."""
    prime = with_idem_keys(ledger.build_schedule(seed, [40.0], 1, 40, 0.0)[0]["items"],
                           f"prime-{seed}")
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        server = Server(serve_exe, sdir, traced=False)
        doc = drive(exe, sdir, prime if i == 0 else [], checks)
        rc = server.wait(doc is not None and "stats" in doc)
        checks.check(rc == 0, f"setup server {i} exited {rc}")
        if doc is not None and i > 0:
            samples.append((doc["ready_ns"] - server.proc.t_spawn) / 1e9)
    return samples


def serve_schedule(seed, seconds, label):
    """The seeded schedule: rounds of one segment per rate, as many as fit
    in about `seconds` but at least two, so every rate keeps a segment
    besides the warm-up one, in order. Dues are relative to each segment's
    start: the sender starts a segment once the previous one has drained.
    `label` keeps the idempotency keys of different loads against one
    journal apart."""
    # A segment's lead-in and drain add ~0.2 s to its sending time.
    round_s = sum(SEGMENT_REQUESTS / rate + 0.2 for rate in SERVE_ROUND)
    segments = ledger.build_schedule(seed, SERVE_ROUND, max(2, round(seconds / round_s)),
                                     SEGMENT_REQUESTS, ledger.REPEAT_FRACTION)
    flat = [dict(item, segment=k, rate=seg["rate"], warmup=k < WARMUP_SEGMENTS)
            for k, seg in enumerate(segments) for item in seg["items"]]
    return with_idem_keys(flat, f"{label}-{seed}")


def with_idem_keys(items, prefix):
    """Gives every job request its own idempotency key, which is what makes
    the server journal it (DONE is fsync'd before the reply is sent), and
    one of TENANTS tenants, round-robin as bench_serve does."""
    for j, item in enumerate(items):
        if item["kind"] != "inline":
            item["req"] = dict(item["req"], idem=f"{prefix}-{j}",
                               tenant=f"tenant-{j % TENANTS}")
    return items


def serve_run(exe, serve_exe, sdir, schedule, traced, checks, between=()):
    """Sends `schedule` to one server. With `between` (callables), the
    schedule is split at segment boundaries into one more part than that,
    each sent by its own client process, and each callable runs in the gap
    after its part while the server idles with its caches kept."""
    server = Server(serve_exe, sdir, traced)
    segments = sorted({item["segment"] for item in schedule})
    parts = len(between) + 1
    cuts = [segments[len(segments) * i // parts] for i in range(1, parts)] + [math.inf]
    doc, lo, drained = None, -math.inf, False
    for i, hi in enumerate(cuts):
        part = [item for item in schedule if lo <= item["segment"] < hi]
        got = drive(exe, sdir, part, checks, shutdown=i == parts - 1)
        if got is None:
            doc = None
            break
        if doc is not None:
            got["requests"] = doc["requests"] + got["requests"]
        doc, lo, drained = got, hi, "stats" in got
        if not drained:
            break
        if i < parts - 1:
            between[i]()
    rc = server.wait(drained)
    checks.check(rc == 0, f"qapprox_serve exited {rc}")
    if doc is None:
        return None
    # Parts never sent count as missing replies.
    doc["requests"] += [{"due_ns": 0, "sent_ns": 0, "recv_ns": 0, "reply": None}
                        for _ in range(len(schedule) - len(doc["requests"]))]
    doc["server"] = server.proc
    HARNESS_ENV.update(doc["env"])
    for i, (item, r) in enumerate(zip(schedule, doc["requests"])):
        r.update({k: item[k] for k in ("kind", "family", "segment", "rate", "warmup", "req")})
        reply = r["reply"]
        r["ok"] = r["recv_ns"] > 0 and reply is not None and reply.get("status") == "ok"
        r["lat_ms"] = (r["recv_ns"] - r["due_ns"]) / 1e6 if r["ok"] else math.inf
        checks.check(r["ok"], f"request {item['kind']} #{i}: "
                              f"{(reply or {}).get('status', 'no reply')} "
                              f"{json.dumps((reply or {}).get('error', ''))}")
    if traced:
        mpath = sdir / "server_metrics.json"
        doc["metrics"] = json.loads(mpath.read_text())["metrics"] if mpath.is_file() else {}
    return doc


def at_rate(doc, rate, jobs_only=True):
    """Requests of the measured (not warm-up) segments offered at `rate`."""
    return [r for r in doc["requests"]
            if r["rate"] == rate and not r["warmup"]
            and not (jobs_only and r["kind"] == "inline")]


def segment_times(doc):
    """Per segment, (span, drain) in ms: from its first scheduled send to its
    last reply, and from its last scheduled send to its last reply, how long
    the server needs beyond the schedule."""
    out = {}
    for k in sorted({r["segment"] for r in doc["requests"]}):
        seg = [r for r in doc["requests"] if r["segment"] == k]
        last = max((r["recv_ns"] if r["ok"] else math.inf) for r in seg)
        out[k] = ((last - min(r["due_ns"] for r in seg)) / 1e6,
                  (last - max(r["due_ns"] for r in seg)) / 1e6)
    return out


def segment_median(jobs, kind=None):
    """Median latency of `jobs` (of one kind, or all), taken per segment and
    then the median over segments: a burst of load on the host that slows a
    minority of segments leaves it where it was."""
    per_segment = {}
    for r in jobs:
        if kind is None or r["kind"] == kind:
            per_segment.setdefault(r["segment"], []).append(r["lat_ms"])
    return ledger.median([ledger.median(v) for v in per_segment.values()])


def rate_stats(doc, rate):
    """Jobs sent at `rate`; their median latency (segment_median); their tail
    latency, taken per segment by the tail rule and then the median over the
    rate's segments; the segments' tail percentile and size; and the medians
    over the rate's segments of their span and drain time (segment_times).
    The drain exceeds the latency limit when the backlog grows faster than
    the server clears it."""
    jobs = at_rate(doc, rate)
    times = segment_times(doc)
    segments = sorted({r["segment"] for r in jobs})
    tails = [ledger.tail([r["lat_ms"] for r in jobs if r["segment"] == k])
             for k in segments]
    return {"jobs": jobs, "p50_ms": segment_median(jobs),
            "tail_ms": ledger.median([t[0] for t in tails]),
            "tail_pct": tails[0][1], "tail_n": tails[0][2],
            "span_ms": ledger.median([times[k][0] for k in segments]),
            "drain_ms": ledger.median([times[k][1] for k in segments])}


def compare_reply(served, local):
    """Served result vs in-process result of the same job: identical up to
    float rounding, apart from per-run timing and cache-traffic fields."""
    ignore = {"wall_ms", "synth_cache_hits", "synth_cache_misses"}

    def same(a, b):
        if isinstance(a, dict) and isinstance(b, dict):
            return all(same(a.get(k), b.get(k)) for k in (set(a) | set(b)) - ignore)
        if isinstance(a, list) and isinstance(b, list):
            return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
        if isinstance(a, (int, float)) and isinstance(b, (int, float)):
            return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))
        return a == b

    return same(served, local)


def replay_sample(schedule):
    """Indices of the jobs of the first segment, where every job the run
    starts with misses the caches: the sample that is replayed in-process
    and compared with the served replies."""
    return [i for i, item in enumerate(schedule)
            if item["segment"] == 0 and item["kind"] != "inline"]


def replay(exe, sdir, schedule, sample, checks):
    """One in-process serial replay of the sample, in send order, on 1
    thread, through serve::run_simulate_job / run_synthesize_job, in a fresh
    process. Returns (wall seconds, results, spans); results are None when
    the replay failed."""
    jobs, out = sdir / "check.jsonl", sdir / "check.json"
    jobs.write_text("".join(json.dumps(schedule[i]["req"]) + "\n" for i in sample))
    proc = Proc([exe, "serve-check", "--jobs", jobs, "--out", out],
                env=env_with(QAPPROX_THREADS=1), cwd=sdir)
    rc = proc.wait()
    if not checks.check(rc == 0 and out.is_file(), f"serve-check exited {rc}"):
        return proc.wall, None, []
    local = json.loads(out.read_text())
    return proc.wall, local["results"], local["spans"]


def compare_replays(doc, sample, replays, checks):
    """Every replay's result for every sampled job must equal the served
    reply."""
    for results in replays:
        if results is None:
            continue
        for i, res in zip(sample, results):
            r = doc["requests"][i]
            checks.check(r["ok"] and not res["degraded"] and
                         compare_reply(r["reply"]["result"], res["result"]),
                         f"served {r['kind']} {r['req']['params']} differs from the "
                         f"in-process run")


def serve_end_to_end(doc, setups, check_wall):
    per_rate = [rate_stats(doc, rate) for rate in SERVE_RATES]
    mid = per_rate[SERVE_RATES.index(LATENCY_RATE)]
    lat = [r["lat_ms"] for r in mid["jobs"]]
    metrics = {
        "setup_s": (ledger.median(setups), "s"),
        "wall_s": (per_rate[-1]["span_ms"] / 1e3, "s"),
        "wall_1t_s": (check_wall, "s"),
        "cpu_s": (doc["server"].cpu, "s"),
        "peak_rss_mb": (doc["server"].rss_mb, "MB"),
        "lat_p50_ms": (mid["p50_ms"], "ms"),
        "lat_tail_ms": (mid["tail_ms"], "ms"),
        "sim_lat_p50_ms": (segment_median(mid["jobs"], "simulate"), "ms"),
        "synth_lat_p50_ms": (segment_median(mid["jobs"], "synthesize"), "ms"),
        "knee_rps": (ledger.knee(SERVE_RATES, [max(p["tail_ms"], p["drain_ms"])
                                               for p in per_rate], LATENCY_LIMIT_MS),
                     "1/s"),
    }
    info = {"samples": len(lat), "tail_pct": mid["tail_pct"], "tail_n": mid["tail_n"],
            "gen_lag_tail_ms": gen_lag_tail(doc),
            "tail_rule": "per segment, median over the rate's segments",
            "repeat_share": ledger.repeat_share(doc["requests"]),
            "steps": [{"rate": rate, "n": len(p["jobs"]), "p50_ms": p["p50_ms"],
                       "tail_ms": p["tail_ms"], "drain_ms": p["drain_ms"]}
                      for rate, p in zip(SERVE_RATES, per_rate)]}
    return metrics, info


def gen_lag_tail(doc):
    """The sender's lateness (sent - due), by the rule the latencies follow:
    the tail per segment, then the median over segments."""
    segments = {}
    for r in doc["requests"]:
        if r["sent_ns"]:
            segments.setdefault(r["segment"], []).append((r["sent_ns"] - r["due_ns"]) / 1e6)
    return ledger.median([ledger.tail(lags)[0] for lags in segments.values()])


def serve_layers(doc, untraced):
    mid = [r for r in at_rate(doc, LATENCY_RATE, jobs_only=False) if r["ok"]]
    timeline = [r["reply"].get("timeline", {}) for r in mid if r["kind"] != "inline"]
    depth = [r["reply"]["result"]["scheduler"]["queued"] for r in mid
             if r["req"]["type"] == "stats"]
    journal = (doc.get("stats") or {}).get("result", {}).get("journal", {})
    done = journal.get("done", 0)
    wall = (doc["server"].t_exit - doc["server"].t_spawn) / 1e9
    layers = program_layers(doc.get("metrics", {}), doc["server"].cpu, wall)

    def exec_p50(kind):
        return ledger.median([r["reply"]["timeline"]["exec_ns"] / 1e6 for r in mid
                              if r["kind"] == kind])

    layers.update({
        "serve.queue_wait_tail_ms": (ledger.tail([t.get("queued_ns", 0) / 1e6
                                                  for t in timeline])[0], "ms"),
        "serve.queue_depth_tail": (ledger.tail(depth)[0], "count"),
        "serve.exec_p50_ms.simulate": (exec_p50("simulate"), "ms"),
        "serve.exec_p50_ms.synthesize": (exec_p50("synthesize"), "ms"),
        "serve.reply_tail_ms": (ledger.tail([t.get("reply_ns", 0) / 1e6
                                             for t in timeline])[0], "ms"),
        "serve.journal.syncs_per_job": (ratio(journal.get("sync_calls", 0), done), "count"),
        "serve.journal.bytes_per_job": (ratio(journal.get("appended_bytes", 0), done), "B"),
        "serve.gen_lag_tail_ms": (gen_lag_tail(doc), "ms"),
    })
    for name in APPROX_LAYERS:
        layers[name] = (0.0, "s")
    lat = [r["lat_ms"] for r in at_rate(doc, LATENCY_RATE) if r["ok"]]
    lat0 = [r["lat_ms"] for r in at_rate(untraced, LATENCY_RATE) if r["ok"]]
    layers["trace.overhead_s"] = ((ledger.median(lat) - ledger.median(lat0)) / 1e3, "s")
    # The load client's wall that no segment span covers: connecting, the
    # lead-in before each segment, the closing stats and shutdown.
    client = doc["client"]
    by_span, other_ns, coverage = ledger.attribution(request_spans(doc), client.t_spawn,
                                                     client.t_exit)
    layers["attr.other_s"] = (other_ns / 1e9, "s")
    layers["trace.coverage"] = (coverage, "ratio")
    return layers, by_span


def request_spans(doc):
    """One span per segment, a child per request from its scheduled send to
    its reply, and a grandchild for the sender's lateness."""
    spans = []
    for k in sorted({r["segment"] for r in doc["requests"]}):
        reqs = [(i, r) for i, r in enumerate(doc["requests"]) if r["segment"] == k]
        parent = len(spans)
        spans.append({"name": "serve.segment", "id": f"{reqs[0][1]['rate']:g}/s",
                      "start_ns": min(r["due_ns"] for _, r in reqs),
                      "end_ns": max(max(r["recv_ns"], r["due_ns"]) for _, r in reqs),
                      "parent": -1})
        for i, r in reqs:
            idx = len(spans)
            spans.append({"name": f"serve.{r['kind']}", "id": str(i),
                          "start_ns": r["due_ns"],
                          "end_ns": max(r["recv_ns"], r["sent_ns"]), "parent": parent})
            spans.append({"name": "client.send_lag", "id": str(i), "start_ns": r["due_ns"],
                          "end_ns": r["sent_ns"], "parent": idx})
    return spans


def serve_workload(seed, seconds, trace, exe, serve_exe, run_dir, checks):
    sdir = run_dir / "serve"
    sdir.mkdir()
    setups = serve_setups(exe, serve_exe, sdir, checks, seed)
    # Sending takes most of the run; the set-up samples and the in-process
    # replays take 12-20 s, with the state of the machine. The schedule's
    # size depends on --seconds alone, so every run of a given length sends
    # the same jobs.
    budget = max(5.0, seconds - 28.0)
    schedule = serve_schedule(seed, budget / 2 if trace else budget, "load")
    # The replays are spread over the run: some before the load, some after,
    # and the rest in the gaps between its parts, so their median
    # (wall_1t_s) samples the machine all through the run, as wall_s and
    # cpu_s do. The server idles in the gaps.
    sample = replay_sample(schedule)
    replays = []

    def replay_some(count):
        replays.extend(replay(exe, sdir, schedule, sample, checks) for _ in range(count))

    slots = [REPLAYS // (LOAD_PARTS + 1) + (i < REPLAYS % (LOAD_PARTS + 1))
             for i in range(LOAD_PARTS + 1)]
    replay_some(slots[0])
    # A load whose sender fell behind its schedule measured the generator,
    # not the server: it is discarded and sent once more; a second such load
    # makes the run invalid, and it records nothing.
    for attempt in range(2):
        load_checks = Checks()
        untraced = serve_run(exe, serve_exe, sdir, schedule, False, load_checks,
                             [lambda n=n: replay_some(n) for n in slots[1:-1]])
        if untraced is None:
            checks.merge(load_checks)
            return {}
        lag = gen_lag_tail(untraced)
        if lag <= GEN_LAG_LIMIT_MS:
            checks.merge(load_checks)
            break
        log(f"e2ebench: load discarded: the sender fell {lag:.1f} ms behind schedule "
            f"(limit {GEN_LAG_LIMIT_MS} ms)")
        schedule = with_idem_keys(schedule, f"load{attempt + 1}-{seed}")
    else:
        raise SystemExit("e2ebench: INVALID run: the sender fell behind schedule twice; "
                         "nothing recorded")
    replay_some(slots[-1])
    compare_replays(untraced, sample, [r[1] for r in replays], checks)
    metrics, info = serve_end_to_end(untraced, setups,
                                     ledger.median([r[0] for r in replays]))
    if not trace:
        print_end_to_end("serve-open", metrics, info, REPLAYS)
        return metrics
    traced = serve_run(exe, serve_exe, sdir,
                       serve_schedule(seed, budget / 2, "traced"), True, checks)
    if traced is None:
        return {}
    layers, by_span = serve_layers(traced, untraced)
    layers.update({name: metrics[name] for name in UNGATED})
    print_layers("serve-open", layers, by_span)
    write_trace(run_dir.parent, f"serve-open-{seed}", [],
                [("serve-open traced load", request_spans(traced)),
                 ("serve-check", replays[-1][2])])
    return layers


# ---- reporting -----------------------------------------------------------------

def print_end_to_end(workload, metrics, info, serial_samples):
    print(f"== {workload}: end-to-end ({info['samples']} timed samples, "
          f"{serial_samples} serial; tail = p{info['tail_pct']:.1f} of "
          f"{info['tail_n']}{', ' + info['tail_rule'] if 'tail_rule' in info else ''})")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:<18} {value:>14.6g} {unit}"
              f"{'  (per-layer in BENCHMARK.json, no bound)' if name in UNGATED else ''}")
    if "gen_lag_tail_ms" in info:
        print(f"  sender lateness (tail): {info['gen_lag_tail_ms']:.3f} ms, limit "
              f"{GEN_LAG_LIMIT_MS} ms")
    if "repeat_share" in info:
        print(f"  job requests repeating an earlier job: {info['repeat_share']:.1%}")
    for s in info.get("steps", []):
        within = max(s["tail_ms"], s["drain_ms"]) <= LATENCY_LIMIT_MS
        print(f"  step {s['rate']:>5g}/s  n={s['n']:<5} p50 {s['p50_ms']:7.2f} ms  tail "
              f"{s['tail_ms']:8.2f} ms  drain {s['drain_ms']:8.2f} ms  "
              f"{'within' if within else 'over'} the limit")


def print_layers(workload, layers, by_span):
    print(f"== {workload}: benchmark spans (median traced rep; self excludes "
          f"child spans)")
    print(f"  {'span':<18} {'calls':>6} {'total_s':>10} {'self_s':>10}")
    for name, row in sorted(by_span.items(), key=lambda kv: -kv[1]["self_ns"]):
        print(f"  {name:<18} {row['calls']:>6} {row['total_ns'] / 1e9:>10.4f} "
              f"{row['self_ns'] / 1e9:>10.4f}")
    print(f"  {'other_s':<18} {'':>6} {'':>10} {layers['attr.other_s'][0]:>10.4f}")
    print(f"== {workload}: per-layer (program histograms are busy time summed "
          f"over threads)")
    for name, (value, unit) in sorted(layers.items()):
        print(f"  {name:<30} {value:>14.6g} {unit}")


def write_golden(exe, run_dir):
    for set_name in ("dm", "traj"):
        checks = Checks()
        rep = run_fig_rep(exe, set_name, 0, THREADS, False, run_dir, None, checks)
        record = {fig["id"]: {"series": fig["series"]} for fig in rep["figures"]}
        path = HERE / "golden" / f"figs-{set_name}.json"
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        log(f"wrote {path.relative_to(ROOT)} ({checks.failed} failed checks)")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=["figs-dm", "figs-traj", "serve-open"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-golden", action="store_true",
                    help="re-record golden/figs-*.json from the current build")
    args = ap.parse_args()
    if not args.workload and not args.write_golden:
        ap.error("--workload is required")

    loadavg = os.getloadavg()[0]
    exe, serve_exe = build()
    Proc.deadline = time.monotonic() + 170.0
    results_dir = ROOT / ".bench_run"
    run_dir = results_dir / f"{args.workload or 'golden'}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    checks = Checks()
    try:
        if args.write_golden:
            write_golden(exe, run_dir)
            return 0
        if args.workload == "serve-open":
            metrics = serve_workload(args.seed, args.seconds, args.trace, exe, serve_exe,
                                     run_dir, checks)
        else:
            metrics = figs_workload(args.workload.split("-")[1], args.seed, args.seconds,
                                    args.trace, exe, run_dir, checks)
    finally:
        Proc.kill_all()
        shutil.rmtree(run_dir, ignore_errors=True)

    stamp = dict(HARNESS_ENV)
    stamp.update({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "held_out_seed": HELD_OUT_SEED, "nproc": os.cpu_count(),
                  "loadavg_start": loadavg, "threads": THREADS,
                  "latency_limit_ms": LATENCY_LIMIT_MS})
    record = {"env": stamp, "correct": checks.failed == 0, "attempted": checks.attempted,
              "failed": checks.failed,
              "failed_frac": ratio(checks.failed, checks.attempted),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(results_dir / "results.jsonl", "a") as f:
        f.write(json.dumps(record) + "\n")
    print(f"# env {json.dumps(stamp)}")
    print(f"# checks: {checks.attempted} attempted, {checks.failed} failed "
          f"(failed_frac {record['failed_frac']:.4g})")
    result = {k: record[k] for k in ("correct", "attempted", "failed")}
    result["metrics"] = {k: v for k, v in record["metrics"].items()
                         if args.trace or k not in UNGATED}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

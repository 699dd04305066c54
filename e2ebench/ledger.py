"""Pure helpers of the end-to-end benchmark: seeded open-loop schedules,
the tail-percentile rule, span attribution and Chrome trace export.

Kept free of I/O and process handling so tests/test_ledger.py can pin them.
"""

import math
import random
import statistics


# ---- statistics --------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0


def tail(values, beyond=10):
    """Highest percentile that still has at least `beyond` samples above it.

    Returns (value, percentile, n). With n samples sorted ascending that is
    the (n - beyond)-th value, the percentile 100 * (n - beyond) / n: n = 1000
    gives p99. With n <= beyond no percentile qualifies; the maximum is
    returned with percentile 100 so short series still report their worst
    case (the percentile tells the reader which rule applied).
    """
    n = len(values)
    if n == 0:
        return 0.0, 0.0, 0
    ordered = sorted(values)
    if n <= beyond:
        return ordered[-1], 100.0, n
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, n


# ---- spans ---------------------------------------------------------------------

def union_length(intervals):
    """Total length covered by a set of [start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
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
    """Self time of every span: its duration minus the part of its interval
    that its children cover (children may overlap each other or stick out of
    the parent; only the covered part inside the parent is subtracted).

    `spans` are dicts with start_ns, end_ns and parent (index, -1 for top
    level). Returns a list of self times in ns, index-aligned with `spans`.
    """
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            children[s["parent"]].append(i)
    out = []
    for i, s in enumerate(spans):
        lo, hi = s["start_ns"], s["end_ns"]
        clipped = [(max(lo, spans[c]["start_ns"]), min(hi, spans[c]["end_ns"]))
                   for c in children[i]]
        out.append((hi - lo) - union_length(clipped))
    return out


def attribution(spans, wall_start_ns, wall_end_ns):
    """Per-name totals and self times over one process run, plus the time
    no top-level span covers (other) and the covered share of the wall."""
    selfs = self_times(spans)
    by_name = {}
    for s, self_ns in zip(spans, selfs):
        row = by_name.setdefault(s["name"], {"total_ns": 0, "self_ns": 0, "calls": 0})
        row["total_ns"] += s["end_ns"] - s["start_ns"]
        row["self_ns"] += self_ns
        row["calls"] += 1
    top = [(max(wall_start_ns, s["start_ns"]), min(wall_end_ns, s["end_ns"]))
           for s in spans if s["parent"] < 0]
    covered = union_length(top)
    wall = wall_end_ns - wall_start_ns
    return by_name, wall - covered, (covered / wall if wall > 0 else 0.0)


def chrome_trace(runs):
    """Chrome trace-event JSON (loads in Perfetto): one process per run,
    complete ("X") events in microseconds. `runs` is a list of
    (label, spans) pairs; a span's id and parent go into its args."""
    events = []
    for pid, (label, spans) in enumerate(runs, start=1):
        events.append({"name": "process_name", "ph": "M", "pid": pid, "tid": 1,
                       "args": {"name": label}})
        for s in spans:
            depth, p = 0, s["parent"]
            while p >= 0:
                depth, p = depth + 1, spans[p]["parent"]
            events.append({
                "name": s["name"], "ph": "X", "pid": pid, "tid": 1 + depth,
                "ts": s["start_ns"] / 1000.0,
                "dur": max(0.0, (s["end_ns"] - s["start_ns"]) / 1000.0),
                "args": {"id": s["id"], "parent": s["parent"]},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# ---- open-loop schedule --------------------------------------------------------

def segment_arrivals(rng, count, duration):
    """`count` arrival times in [0, duration): a Poisson process conditioned on
    its count, whose arrival times are sorted independent uniforms. Fixing
    the count keeps the amount of work in a segment the same for every seed."""
    return sorted(rng.uniform(0.0, duration) for _ in range(count))


# The serving mix follows bench/bench_serve.cpp, the repository's existing
# serving load (make_request): per 20 requests, 16 simulate jobs (1 in 5 of
# them ideal, the rest DM), 3 synthesize jobs (grover:tfim 2:1) and 1 stats
# request, over its parameter space (3 qubits; tfim, grover, mct; 1-5 steps;
# seeds 11-17; santiago and toronto). bench_serve has no hardware-mode
# simulate, Toffoli or partition jobs and no metrics scrapes; this mix adds
# them as stated shares, not measured ones: 1 in 10 simulate jobs runs 256
# hardware shots, and Toffoli and partition jobs take 3 of the 15
# synthesize points each, grover and tfim keeping their 2:1.
BENCH_SERVE_DEVICES = ["santiago", "toronto"]


def _bench_serve_sim(r, mode):
    return {"workload": r.choice(["tfim", "grover", "mct"]), "qubits": 3,
            "steps": r.randint(1, 5), "shots": 256, "seed": r.randint(11, 17),
            "device": r.choice(BENCH_SERVE_DEVICES), "mode": mode}


def _syn(preset, steps=1):
    return {"preset": preset, "qubits": 3, "steps": steps, "fast": True, "max_circuits": 8}


def _sim(workload, mode):
    return {"workload": workload, "qubits": 3, "steps": 1, "shots": 256, "seed": 11,
            "device": "santiago", "mode": mode}


# Job families: (name, request type, share of requests, base jobs, variant).
# Every run sends each base job. A variant draws from the family's parameter
# space, so its first request misses the server's caches.
FAMILIES = [
    ("sim-ideal", "simulate", 0.16, [_sim("tfim", "ideal")],
     lambda r: _bench_serve_sim(r, "ideal")),
    ("sim-dm", "simulate", 0.56,
     [_sim("tfim", "simulator"), _sim("grover", "simulator"), _sim("mct", "simulator")],
     lambda r: _bench_serve_sim(r, "simulator")),
    ("sim-hw", "simulate", 0.08, [_sim("tfim", "hardware")],
     lambda r: _bench_serve_sim(r, "hardware")),
    ("syn-grover", "synthesize", 0.06, [_syn("grover")],
     lambda r: _syn("grover", r.randint(1, 3))),
    ("syn-tfim", "synthesize", 0.03, [_syn("tfim")],
     lambda r: _syn("tfim", r.randint(1, 3))),
    ("syn-toffoli", "synthesize", 0.03,
     [{"preset": "toffoli", "qubits": 3, "fast": True, "max_circuits": 8}],
     lambda r: {"preset": "toffoli", "qubits": 3, "fast": True, "max_circuits": 8,
                "device": r.choice(BENCH_SERVE_DEVICES)}),
    ("partition", "synthesize", 0.03,
     [{"preset": "partition", "qubits": 6, "steps": 2, "fast": True},
      {"preset": "partition", "qubits": 8, "steps": 2, "fast": True}],
     lambda r: {"preset": "partition", "qubits": r.randint(6, 8), "steps": r.randint(1, 5),
                "block_qubits": r.choice([2, 3]), "fast": True}),
    # Answered inline by the server, never queued: stats (also the
    # benchmark's queue-depth probe) alternating with metrics scrapes.
    ("inline", "inline", 0.05, [], None),
]

# Share of job requests that repeat an earlier job: bench_serve's 2000-job
# soak (the length its CI job runs) sends 1900 jobs of which 216 are
# distinct, a repeat share of 88.6%. family_jobs asks every family for that
# share; a family whose parameter space holds fewer distinct jobs than the
# rest repeats more, so a run's share is higher (the benchmark prints it).
REPEAT_FRACTION = 0.886


def _counts(n, weights):
    """Split n into the given proportions (largest remainders)."""
    raw = [w * n / sum(weights) for w in weights]
    counts = [int(x) for x in raw]
    for i in sorted(range(len(raw)), key=lambda i: counts[i] - raw[i])[:n - sum(counts)]:
        counts[i] += 1
    return counts


def family_jobs(index, count, repeat_fraction):
    """The fixed list of `count` jobs of one family for a whole run: its base
    jobs plus variants up to (1 - repeat_fraction) * count distinct jobs
    (fewer when the family's variant space is smaller), the rest repeats of
    those, in a fixed mixed order. It never depends on the workload seed."""
    name, _, _, bases, variant = FAMILIES[index]
    rng = random.Random(name)
    distinct = [dict(b) for b in bases]
    want = max(len(bases), round((1.0 - repeat_fraction) * count))
    tries = 0
    while len(distinct) < want and tries < 50 * want:
        tries += 1
        v = variant(rng)
        if v not in distinct:
            distinct.append(v)
    jobs = list(distinct[:count])
    while len(jobs) < count:
        jobs.append(rng.choice(distinct))
    rng.shuffle(jobs)
    return jobs


def repeat_share(items):
    """Share of job requests whose params an earlier request already sent."""
    jobs = [repr(sorted(i["req"]["params"].items())) for i in items if i["kind"] != "inline"]
    return 1.0 - len(set(jobs)) / len(jobs) if jobs else 0.0


def build_schedule(seed, rates, cycles, size, repeat_fraction):
    """Seeded open-loop schedule.

    The rates are interleaved: `cycles` rounds of one segment per entry of
    `rates` (a rate may appear more than once), each holding `size`
    arrivals over size / rate seconds, so every rate is sampled across the
    whole run rather than in one window. What a segment sends is fixed: its
    family counts and its slice of each family's job list (family_jobs).
    The seed draws the arrival times and the order within each segment, so
    every seed does the same work per segment and each distinct job misses
    the caches once.

    Returns a list of segments {"rate", "items"}; each item is {"due": s,
    "kind": type, "family": name, "req": request}, due relative to the
    segment start.
    """
    rng = random.Random(seed)
    weights = [w for _, _, w, _, _ in FAMILIES]
    sizes = [size] * (cycles * len(rates))
    split = [_counts(n, weights) for n in sizes]
    pools = {i: family_jobs(i, sum(c[i] for c in split), repeat_fraction)
             for i, (_, kind, *_rest) in enumerate(FAMILIES) if kind != "inline"}
    segments = []
    for k, (n, counts) in enumerate(zip(sizes, split)):
        labels = [i for i, c in enumerate(counts) for _ in range(c)]
        rng.shuffle(labels)
        mine = {i: pool[:counts[i]] for i, pool in pools.items()}
        for i in pools:
            pools[i] = pools[i][counts[i]:]
            rng.shuffle(mine[i])
        items = []
        rate = rates[k % len(rates)]
        for t, f in zip(segment_arrivals(rng, n, n / rate), labels):
            name, kind = FAMILIES[f][0], FAMILIES[f][1]
            if kind == "inline":
                inline = sum(1 for i in items if i["kind"] == "inline")
                req = {"type": "metrics", "params": {"format": "json"}} if inline % 2 \
                    else {"type": "stats"}
            else:
                req = {"type": kind, "params": mine[f].pop()}
            items.append({"due": t, "kind": kind, "family": name, "req": req})
        segments.append({"rate": rate, "items": items})
    return segments


def knee(rates, latencies_ms, limit_ms):
    """Highest offered rate whose latency meets `limit_ms`, interpolated in
    log latency between the last rate that meets it and the first that does
    not, so the value moves smoothly with the measured latencies instead of
    jumping between grid rates. A rate's latency is the larger of its tail
    and its drain time, so a growing backlog misses the limit too, and an
    infinite latency (a refused or missing reply) pins the knee to the last
    rate that met it.

    Returns 0.0 when even the lowest rate misses, and the highest rate when
    every rate meets the limit.
    """
    for i, (rate, hi) in enumerate(zip(rates, latencies_ms)):
        if hi <= limit_ms:
            continue
        if i == 0:
            return 0.0
        lo = max(latencies_ms[i - 1], 1e-9)
        if not math.isfinite(hi):
            return rates[i - 1]
        frac = (math.log(limit_ms) - math.log(lo)) / (math.log(hi) - math.log(lo))
        return rates[i - 1] + (rate - rates[i - 1]) * max(0.0, min(1.0, frac))
    return rates[-1]

#!/usr/bin/env python3
"""The repository benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. Builds the simulator library, the
`morpheus_serve` daemon and `perfbench_sim` from source (Release, no
sanitizer) into `$CARGO_TARGET_DIR` or `.bench_build`, runs one workload
for about --seconds seconds, checks every output, and prints each metric
by name with its unit. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics; --trace 1 reports the per-layer metrics from a
separate traced run and writes its spans next to the build.

Workloads: fig12_membound, computebound_bl.
"""

import argparse
import bisect
import collections
import hashlib
import json
import math
import os
import random
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BASELINE = ROOT / "bench" / "baselines" / "BENCH_fig12_performance.json"

WORKLOADS = ("fig12_membound", "computebound_bl")

# Paper anchor (Fig 12): Morpheus-ALL is ~1.39x faster than BL on the
# memory-bound apps.
PAPER_FIG12_SPEEDUP = 1.39
# The apps whose BL/Morpheus-ALL pairs define fig12_gap_pct.
FIG12_APPS = ("p-bfs", "cfd", "kmeans", "spmv")

# The instruction-budget scale of the serve probe's daemon (a miss costs
# tens of ms) and of the reduced Fig-12 pairs on computebound_bl.
SMALL_WORK_SCALE = "0.02"
# The serve probe in every traced run: the request key space (catalog
# apps x paper-style system names, popularity ranked by a fixed
# shuffle), the Zipf exponent, a cache budget of about a third of the
# key space's ~47 kB so that opportunistic gc keeps evicting, an untimed
# warm-up and the measured window.
SERVE_APPS = ("p-bfs", "cfd", "dwt2d", "stencil", "r-bfs", "bprob", "sgem", "nw",
              "page-r", "kmeans", "histo", "mri-gri", "spmv", "lbm", "lib", "hotsp",
              "mri-q")
SERVE_SYSTEMS = ("BL", "IBL", "IBL-4X-LLC", "Unified-SM-Mem", "Frequency-Boost",
                 "Morpheus-Basic", "Morpheus-Compr.", "Morpheus-Indirect-MOV",
                 "Morpheus-ALL")
SERVE_RANK_SEED = 20221001
SERVE_ZIPF_S = 1.0
SERVE_CACHE_MAX_BYTES = 16384
SERVE_WARMUP_S = 2.0
SERVE_PROBE_S = 5.0
REQUEST_TIMEOUT_S = 60.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "sim_minstr_per_s": "Minstr/s",
    "peak_rss_mb": "MB",
    "fig12_gap_pct": "%",
}


class BenchError(Exception):
    """A failure that stops the benchmark without a result."""


# ---------------------------------------------------------------------------
# Build and stamp


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(bdir):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no simulator sources under {ROOT} (CMakeLists.txt, src/)")
    bdir.mkdir(parents=True, exist_ok=True)
    with open(bdir / "build.log", "ab") as log:
        if not (bdir / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
                   "-DCMAKE_BUILD_TYPE=Release", "-DMORPHEUS_SANITIZE=OFF"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=log, stderr=log, timeout=300).returncode != 0:
                (bdir / "CMakeCache.txt").unlink(missing_ok=True)
                raise BenchError(f"cmake configure failed; see {bdir / 'build.log'}")
        cmd = ["cmake", "--build", str(bdir), "--target", "perfbench_sim", "morpheus_serve",
               "-j", str(os.cpu_count() or 1)]
        if subprocess.run(cmd, stdout=log, stderr=log, timeout=840).returncode != 0:
            raise BenchError(f"build failed; see {bdir / 'build.log'}")
    sim = bdir / "perfbench_sim"
    serve = bdir / "morpheus" / "morpheus_serve"
    for exe in (sim, serve):
        if not exe.is_file():
            raise BenchError(f"build produced no {exe}")
    return sim, serve


def source_digest():
    """sha256 over the simulator's sources: identifies the code when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for sub in ("src", "tools"):
        files += sorted(p for p in (ROOT / sub).rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def host_stamp(sim):
    build_info = json.loads(subprocess.run([str(sim), "stamp"], capture_output=True,
                                           text=True, check=True, timeout=30).stdout)
    if (build_info["build_type"] != "Release" or build_info["morpheus_sanitize"] != "OFF"
            or build_info["asan"] or build_info["tsan"] or not build_info["optimized"]):
        raise BenchError(f"refusing to time a non-Release or sanitizer build: {build_info}")
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=30).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"commit": commit, "source_sha256": source_digest(),
            "nproc": os.cpu_count(), "cpu_model": cpu, "build": build_info}


# ---------------------------------------------------------------------------
# Statistics


def tail_percentile(samples):
    """(percentile, value): p99 when there are at least 1000 samples,
    else the highest percentile with at least 10 samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    q = 0.99 if n >= 1000 else max(0.0, 1.0 - 10.0 / n)
    rank = max(1, math.ceil(q * n))
    return 100.0 * q, ordered[rank - 1]


def gmean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def fig12_pairs(jobs, field):
    """gmean over apps of <field>(Morpheus-ALL) / <field>(BL)."""
    by_label = {j["label"]: j["result"][field] for j in jobs}
    pairs = [by_label[f"{a}/Morpheus-ALL"] / by_label[f"{a}/BL"] for a in FIG12_APPS
             if f"{a}/Morpheus-ALL" in by_label and f"{a}/BL" in by_label]
    return gmean(pairs)


def fig12_gap_pct(speedup):
    return 100.0 * abs(speedup / PAPER_FIG12_SPEEDUP - 1.0)


# ---------------------------------------------------------------------------
# Sim workloads (perfbench_sim, in-process)


def sim_env(work_scale=None):
    env = {k: v for k, v in os.environ.items()
           if k not in ("MORPHEUS_WORK_SCALE", "MORPHEUS_RUN_THREADS")}
    if work_scale is not None:
        env["MORPHEUS_WORK_SCALE"] = work_scale
    return env


def run_sim(sim, workload, seed, seconds, trace, spans=None, passes=0, work_scale=None):
    cmd = [str(sim), "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if passes:
        cmd += ["--passes", str(passes)]
    if seed == 0 and work_scale is None:
        cmd += ["--baseline", str(BASELINE)]
    if spans:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=sim_env(work_scale),
                          timeout=170)
    if proc.returncode != 0:
        raise BenchError(f"perfbench_sim failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def reduced_fig12_gap(sim, tally):
    """fig12_gap_pct of the four Fig-12 pairs at the catalog seeds and
    SMALL_WORK_SCALE, for the workload that does not run them itself."""
    out = run_sim(sim, "fig12_membound", 0, 0, False, passes=1,
                  work_scale=SMALL_WORK_SCALE)
    tally.add(out["attempted"], out["failed"], out["errors"])
    return fig12_gap_pct(fig12_pairs(out["jobs"], "ipc"))


class Tally:
    """Attempted operations and failed checks of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def add(self, attempted, failed, errors=()):
        self.attempted += attempted
        self.failed += failed
        self.errors += list(errors)


def pass_minstr_per_s(passes, traced):
    """Simulated Minstr/s of each non-warm-up pass that is (not) traced."""
    return [p["instructions"] / p["run_s"] / 1e6 for p in passes
            if not p["warmup"] and p["traced"] == traced and p["run_s"] > 0]


def sim_end_to_end(sim, workload, seed, seconds, tally, notes):
    out = run_sim(sim, workload, seed, seconds, False)
    tally.add(out["attempted"], out["failed"], out["errors"])
    jobs = [j for j in out["jobs"] if j["run_s"]]
    if len(jobs) != len(out["jobs"]):
        raise BenchError("a job failed on every pass")
    # Throughput uses each job's median over the passes, so one disturbed
    # job moves it little.
    run_s = sum(statistics.median(j["run_s"]) for j in jobs)
    setups = out["setup_only_s"] + [p["setup_s"] for p in out["passes"]]
    if workload == "fig12_membound":
        gap = fig12_gap_pct(fig12_pairs(jobs, "ipc"))
    else:
        gap = reduced_fig12_gap(sim, tally)
    notes.append(f"passes={len(out['passes'])} jobs={len(jobs)} "
                 f"(each job's median over the passes) setup samples={len(setups)}")
    return {
        "setup_s": statistics.median(setups),
        "sim_minstr_per_s": sum(j["result"]["instructions"] for j in jobs) / run_s / 1e6,
        "peak_rss_mb": out["peak_rss_kb"] / 1024.0,
        "fig12_gap_pct": gap,
    }


def sum_counts(jobs):
    keys = ("cycles", "instructions", "l1_hits", "l1_misses", "llc_accesses", "llc_hits",
            "ext_requests", "ext_predicted_hits", "ext_false_positives", "ext_hits",
            "dram_reads", "dram_writes", "noc_bytes")
    total = {k: sum(j["result"][k] for j in jobs) for k in keys}
    for k in ("events", "issue_events", "noc_transfers", "row_hits", "row_misses",
              "mshr_ops", "kernel_instructions", "ext_served"):
        total[k] = sum(j["counters"][k] for j in jobs)
    total["noc_latency_x_transfers"] = sum(
        j["result"]["noc_avg_latency"] * j["counters"]["noc_transfers"] for j in jobs)
    total["dram_util_x_cycles"] = sum(
        j["result"]["dram_utilization"] * j["result"]["cycles"] for j in jobs)
    return total


LAYER_SPANS = ("workloads.build", "harness.make_system", "gpu.construct", "gpu.run")


def span_sums(spans):
    """Per traced pass, the summed duration of each layer span; medians over passes."""
    per_pass = {}
    for s in spans:
        if s["name"] in LAYER_SPANS:
            bucket = per_pass.setdefault(spans[s["parent"]]["parent"], {})
            bucket[s["name"]] = bucket.get(s["name"], 0.0) + s["end_s"] - s["start_s"]
    return {n: statistics.median(b.get(n, 0.0) for b in per_pass.values())
            for n in LAYER_SPANS}


def sim_per_layer(sim, workload, seed, seconds, tally, trace_dir, probes, notes):
    spans_path = trace_dir / f"{workload}-seed{seed}.spans.json"
    out = run_sim(sim, workload, seed, seconds, True, spans=spans_path)
    tally.add(out["attempted"], out["failed"], out["errors"])
    jobs = out["jobs"]
    c = sum_counts(jobs)
    spans = span_sums(json.loads(spans_path.read_text()))
    untraced_minstr = pass_minstr_per_s(out["passes"], False)
    traced_minstr = pass_minstr_per_s(out["passes"], True)
    if not untraced_minstr or not traced_minstr:
        raise BenchError("traced run completed no untraced or traced pass")
    u_m, t_m = statistics.median(untraced_minstr), statistics.median(traced_minstr)
    notes.append(f"traced passes={len(traced_minstr)} untraced passes={len(untraced_minstr)}"
                 f" spans={spans_path}")
    m = {
        "sim.events": c["events"],
        "sim.events_per_kinstr": ratio(c["events"], c["instructions"] / 1000.0),
        "gpu.issue_events": c["issue_events"],
        "cache.l1_accesses": c["l1_hits"] + c["l1_misses"],
        "cache.l1_hit_ratio": ratio(c["l1_hits"], c["l1_hits"] + c["l1_misses"]),
        "cache.llc_accesses": c["llc_accesses"],
        "cache.llc_hit_ratio": ratio(c["llc_hits"], c["llc_accesses"]),
        "noc.transfers": c["noc_transfers"],
        "noc.bytes": c["noc_bytes"],
        "noc.avg_latency_cycles": ratio(c["noc_latency_x_transfers"], c["noc_transfers"]),
        "mem.dram_reads": c["dram_reads"],
        "mem.dram_writes": c["dram_writes"],
        "mem.row_hit_ratio": ratio(c["row_hits"], c["row_hits"] + c["row_misses"]),
        "mem.dram_utilization": ratio(c["dram_util_x_cycles"], c["cycles"]),
        "morpheus.ext_requests": c["ext_requests"],
        "morpheus.predicted_hit_share": ratio(c["ext_predicted_hits"], c["ext_requests"]),
        "morpheus.false_positive_ratio": ratio(c["ext_false_positives"],
                                               c["ext_predicted_hits"]),
        "morpheus.ext_hit_ratio": ratio(c["ext_hits"], c["ext_requests"]),
        "morpheus.kernel_instructions": c["kernel_instructions"],
        "morpheus.speedup_vs_bl": fig12_pairs(jobs, "ipc"),
        "power.perf_per_watt_gain": fig12_pairs(jobs, "perf_per_watt"),
        "workloads.build_ms": 1000.0 * spans["workloads.build"],
        "harness.make_system_ms": 1000.0 * spans["harness.make_system"],
        "gpu.construct_ms": 1000.0 * spans["gpu.construct"],
        "gpu.run_s": spans["gpu.run"],
        "sim.ns_per_event": 1e9 * ratio(spans["gpu.run"], c["events"]),
        "trace.overhead_sim_pct": 100.0 * (u_m - t_m) / u_m,
    }
    m.update(estimates(probes, {
        "est.sim.event_queue_s": (c["events"], "sim.schedule_pop_ns", 1e-9),
        "est.cache.mshr_s": (c["mshr_ops"], "cache.mshr_alloc_release_ns", 1e-9),
        "est.cache.set_access_s": (c["l1_hits"] + c["l1_misses"] + c["llc_accesses"],
                                   "cache.set_access_ns", 1e-9),
        "est.morpheus.predictor_s": (c["ext_requests"], "morpheus.predictor_access_ns", 1e-9),
        "est.morpheus.ext_set_s": (c["ext_served"], "morpheus.ext_set_lookup_ns", 1e-9),
    }))
    return m


def estimates(probes, spec):
    """count x probe cost per layer: a labelled estimate, not measured self time."""
    return {name: count * probes[probe]["value"] * scale
            for name, (count, probe, scale) in spec.items()}


# ---------------------------------------------------------------------------
# The serve probe (a real morpheus_serve daemon over TCP)


class Daemon:
    """One morpheus_serve process on 127.0.0.1:0 with a fresh cache dir."""

    def __init__(self, exe, workdir, max_sim_threads):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        env = dict(os.environ, MORPHEUS_WORK_SCALE=SMALL_WORK_SCALE)
        env.pop("MORPHEUS_RUN_THREADS", None)
        self.port = None
        self._ready = threading.Event()
        self._log = open(workdir / "daemon.log", "w")
        self.proc = subprocess.Popen(
            [str(exe), "--listen", "127.0.0.1:0", "--cache-dir", str(workdir / "cache"),
             "--max-sim-threads", str(max_sim_threads),
             "--cache-max-bytes", str(SERVE_CACHE_MAX_BYTES)],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            env=env, text=True)
        self._reader = threading.Thread(target=self._read_stderr, daemon=True)
        self._reader.start()

    def _read_stderr(self):
        # The daemon announces its bound port on stderr; a blocking read
        # wakes as soon as it is written, so set-up time is not quantized
        # by polling.
        for line in self.proc.stderr:
            self._log.write(line)
            if self.port is None and "listening on tcp port" in line:
                self.port = int(line.rsplit(" ", 1)[1])
                self._ready.set()
        self._ready.set()

    def connect(self):
        if not self._ready.wait(30) or self.port is None:
            raise BenchError("morpheus_serve did not start; see its daemon.log")
        return socket.create_connection(("127.0.0.1", self.port), timeout=REQUEST_TIMEOUT_S)

    def stop(self, conn=None):
        """Asks the daemon to shut down over `conn` (or terminates it) and
        waits for it to exit."""
        try:
            if conn is not None and self.proc.poll() is None:
                conn.sendall(b'{"op": "shutdown"}\n')
                conn.settimeout(10)
                conn.recv(4096)
        except OSError:
            pass
        if conn is None and self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._reader.join(timeout=10)
        self._log.close()


def request(conn, buf, obj):
    """Sends one request line on a blocking connection and reads one reply."""
    conn.sendall((json.dumps(obj) + "\n").encode())
    while b"\n" not in buf:
        chunk = conn.recv(65536)
        if not chunk:
            raise BenchError("daemon closed the connection")
        buf += chunk
    line, _, rest = buf.partition(b"\n")
    return json.loads(line), rest


class ServeChecker:
    """Every response must be ok, and its report byte-identical to the
    first report served for the same key."""

    def __init__(self, tally):
        self.tally = tally
        self.first = {}
        self.classes = collections.Counter()

    def check(self, key, resp):
        """Returns the response class: hit, miss, coalesced, busy or error.

        A response's `misses` is the change in the daemon-wide cache
        counters while it ran, so a real miss always shows one, but a hit
        that overlaps another client's miss shows one too and is labelled
        a miss; serve_layer_metrics counts these against the stats op."""
        cls = self._classify(key, resp)
        self.classes[cls] += 1
        return cls

    def _classify(self, key, resp):
        self.tally.attempted += 1
        status = resp.get("status")
        if status != "ok":
            self.tally.failed += 1
            self.tally.errors.append(f"{key}: {status} {resp.get('code', '')}")
            return "busy" if status == "busy" else "error"
        report = resp.get("report", "")
        if key not in self.first:
            self.first[key] = report
        elif report != self.first[key]:
            self.tally.failed += 1
            self.tally.errors.append(f"{key}: report differs from the first one served")
            return "error"
        if resp.get("coalesced"):
            return "coalesced"
        return "miss" if resp.get("misses", 0) > 0 else "hit"


def request_keys():
    keys = [(a, s) for a in SERVE_APPS for s in SERVE_SYSTEMS]
    random.Random(SERVE_RANK_SEED).shuffle(keys)
    return keys


def closed_loop(daemon, clients, seed, warmup_s, seconds, checker, spans):
    """Runs `clients` connections, each sending its next request only after
    the previous reply; returns the requests that were in flight during the
    timed window as (sent, done, class, key), in seconds from its start."""
    keys = request_keys()
    weights = [1.0 / (rank + 1) ** SERVE_ZIPF_S for rank in range(len(keys))]
    cumulative = []
    total = 0.0
    for w in weights:
        total += w
        cumulative.append(total)
    rng = random.Random(seed)

    sel = selectors.DefaultSelector()
    conns = []
    for i in range(clients):
        conn = daemon.connect()
        conn.setblocking(False)
        state = {"conn": conn, "buf": b"", "key": None, "sent": 0.0,
                 "span": len(spans) if spans is not None else -1}
        if spans is not None:
            spans.append({"id": len(spans), "parent": -1, "name": f"client {i}",
                          "start_s": time.perf_counter(), "end_s": 0.0})
        conns.append(state)
        sel.register(conn, selectors.EVENT_READ, state)

    start = time.perf_counter()
    window_start = start + warmup_s
    window_end = window_start + seconds
    samples = []

    def send(state):
        key = keys[bisect.bisect_left(cumulative, rng.random() * total)]
        state["key"] = key
        state["sent"] = time.perf_counter()
        line = json.dumps({"op": "run", "app": key[0], "system": key[1]}) + "\n"
        state["conn"].setblocking(True)
        state["conn"].sendall(line.encode())
        state["conn"].setblocking(False)

    for state in conns:
        send(state)
    outstanding = len(conns)
    while outstanding:
        events = sel.select(timeout=REQUEST_TIMEOUT_S)
        now = time.perf_counter()
        if not events:
            raise BenchError(f"no reply within {REQUEST_TIMEOUT_S} s")
        for sel_key, _ in events:
            state = sel_key.data
            chunk = state["conn"].recv(1 << 20)
            if not chunk:
                raise BenchError("daemon closed a client connection")
            state["buf"] += chunk
            if b"\n" not in state["buf"]:
                continue
            line, _, state["buf"] = state["buf"].partition(b"\n")
            key = f"{state['key'][0]}@{state['key'][1]}"
            cls = checker.check(key, json.loads(line))
            if spans is not None:
                spans.append({"id": len(spans), "parent": state["span"],
                              "name": "serve.request", "key": key, "class": cls,
                              "start_s": state["sent"], "end_s": now})
            if now >= window_start and state["sent"] < window_end:
                samples.append((state["sent"] - window_start, now - window_start, cls, key))
            if now < window_end:
                send(state)
            else:
                outstanding -= 1
                sel.unregister(state["conn"])
                state["conn"].close()
                if spans is not None:
                    spans[state["span"]]["end_s"] = now
    sel.close()
    return samples


def serve_session(exe, workdir, seed, seconds, tally, spans):
    """One daemon: warm-up, the timed closed loop, stats and shutdown."""
    # One core is left for this client process. As many clients as
    # simulation slots keeps the daemon's gate from queueing misses, so
    # the latency tail is the service time, not a queueing artefact.
    max_sim_threads = max(1, (os.cpu_count() or 1) - 1)
    daemon = Daemon(exe, workdir, max_sim_threads)
    conn = None
    try:
        checker = ServeChecker(tally)
        samples = closed_loop(daemon, max_sim_threads, seed, SERVE_WARMUP_S, seconds,
                              checker, spans)
        # A fresh connection: the daemon closes connections idle longer
        # than its read timeout.
        conn = daemon.connect()
        stats, _ = request(conn, b"", {"op": "stats"})
    finally:
        daemon.stop(conn)
        if conn is not None:
            conn.close()
    return {"samples": samples, "stats": stats, "classes": checker.classes,
            "clients": max_sim_threads}


def serve_layer_metrics(session, probes):
    """The serve layer's per-layer metrics from one traced session."""
    in_window = [(done - sent, c) for sent, done, c, _ in session["samples"] if sent >= 0]

    def lat(cls):
        return [1000.0 * d for d, c in in_window if c == cls]

    def p50(v):
        return statistics.median(v) if v else 0.0

    def p99(v):
        return tail_percentile(v)[1] if v else 0.0

    hits, misses = lat("hit"), lat("miss")
    st = session["stats"]
    # Every hit or miss reply is one cache lookup in the stats op, and a
    # real miss is never labelled a hit, so the excess of miss labels over
    # the daemon's misses counts the hits labelled miss.
    mislabelled = session["classes"]["miss"] - st.get("misses", 0)
    m = {
        "serve.hit_latency_ms.p50": p50(hits),
        "serve.hit_latency_ms.p99": p99(hits),
        "serve.miss_latency_ms.p50": p50(misses),
        "serve.miss_latency_ms.p99": p99(misses),
        "serve.coalesced": sum(1 for _, c in in_window if c == "coalesced"),
        "serve.busy": sum(1 for _, c in in_window if c == "busy"),
        "serve.hits": st.get("hits", 0),
        "serve.misses": st.get("misses", 0),
        "serve.evicted_entries": st.get("gc_evictions", 0),
        "serve.cache_bytes": st.get("total_bytes", 0),
        "serve.mislabelled_misses": mislabelled,
    }
    m.update(estimates(probes, {
        "est.serve.cache_lookup_s": (st.get("hits", 0), "serve.cache_lookup_us", 1e-6),
        "est.serve.cache_store_s": (st.get("stores", 0), "serve.cache_store_us", 1e-6),
    }))
    return m


def write_serve_spans(spans, path):
    origin = min(s["start_s"] for s in spans) if spans else 0.0
    for s in spans:
        s["start_s"] -= origin
        s["end_s"] -= origin
    path.write_text(json.dumps(spans, indent=0))


def serve_probe(exe, workdir, seed, tally, trace_dir, probes, notes):
    """A short traced session against a real daemon inside every traced
    run, so the serve layer is measured on the benchmark's workloads."""
    spans = []
    session = serve_session(exe, workdir, seed, SERVE_PROBE_S, tally, spans)
    spans_path = trace_dir / f"serve_probe-seed{seed}.spans.json"
    write_serve_spans(spans, spans_path)
    c = session["classes"]
    notes.append(f"serve probe: {SERVE_PROBE_S:g} s window, {session['clients']} clients, "
                 f"replies hit={c['hit']} miss={c['miss']} coalesced={c['coalesced']} "
                 f"against stats hits={session['stats'].get('hits', 0)} "
                 f"misses={session['stats'].get('misses', 0)}, spans={spans_path}")
    return serve_layer_metrics(session, probes)


# ---------------------------------------------------------------------------
# Reporting

PER_LAYER_UNITS = {
    "sim.events": "count", "sim.events_per_kinstr": "ratio", "gpu.issue_events": "count",
    "cache.l1_accesses": "count", "cache.l1_hit_ratio": "ratio",
    "cache.llc_accesses": "count", "cache.llc_hit_ratio": "ratio",
    "noc.transfers": "count", "noc.bytes": "bytes", "noc.avg_latency_cycles": "cycles",
    "mem.dram_reads": "count", "mem.dram_writes": "count", "mem.row_hit_ratio": "ratio",
    "mem.dram_utilization": "ratio",
    "morpheus.ext_requests": "count", "morpheus.predicted_hit_share": "ratio",
    "morpheus.false_positive_ratio": "ratio", "morpheus.ext_hit_ratio": "ratio",
    "morpheus.kernel_instructions": "count", "morpheus.speedup_vs_bl": "x",
    "power.perf_per_watt_gain": "x",
    "workloads.build_ms": "ms", "harness.make_system_ms": "ms", "gpu.construct_ms": "ms",
    "gpu.run_s": "s", "sim.ns_per_event": "ns",
    "serve.hit_latency_ms.p50": "ms", "serve.hit_latency_ms.p99": "ms",
    "serve.miss_latency_ms.p50": "ms", "serve.miss_latency_ms.p99": "ms",
    "serve.coalesced": "count", "serve.busy": "count", "serve.hits": "count",
    "serve.misses": "count", "serve.evicted_entries": "count", "serve.cache_bytes": "bytes",
    "serve.mislabelled_misses": "count",
    "sim.schedule_pop_ns": "ns", "cache.mshr_alloc_release_ns": "ns",
    "cache.set_access_ns": "ns", "cache.bdi_encode_ns": "ns",
    "morpheus.predictor_access_ns": "ns", "morpheus.ext_set_lookup_ns": "ns",
    "serve.cache_lookup_us": "us", "serve.cache_store_us": "us",
    "est.sim.event_queue_s": "s", "est.cache.mshr_s": "s", "est.cache.set_access_s": "s",
    "est.morpheus.predictor_s": "s", "est.morpheus.ext_set_s": "s",
    "est.serve.cache_lookup_s": "s", "est.serve.cache_store_s": "s",
    "trace.overhead_sim_pct": "%",
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="0 (default) keeps the catalog seeds and checks the "
                             "committed baseline")
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    # SIGTERM unwinds like an exception, so the finally blocks stop the daemon.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        bdir = build_dir()
        sim, serve = build(bdir)
        stamp = host_stamp(sim)
        trace_dir = bdir / "trace"
        trace_dir.mkdir(exist_ok=True)
        tally = Tally()
        notes = []
        units = END_TO_END_UNITS
        if args.trace:
            units = PER_LAYER_UNITS
            probes = json.loads(subprocess.run(
                [str(sim), "probes", "--scratch", str(bdir / "probe_scratch")],
                capture_output=True, text=True, check=True, timeout=120).stdout)
            metrics = {name: 0.0 for name in PER_LAYER_UNITS}
            metrics.update({name: p["value"] for name, p in probes.items()})
            metrics.update(sim_per_layer(sim, args.workload, args.seed, args.seconds,
                                         tally, trace_dir, probes, notes))
            metrics.update(serve_probe(serve, bdir / "serve_run", args.seed, tally,
                                       trace_dir, probes, notes))
        else:
            metrics = sim_end_to_end(sim, args.workload, args.seed, args.seconds, tally, notes)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as ex:
        print(f"perfbench: {ex}", file=sys.stderr)
        return 2

    result = {
        "correct": tally.failed == 0,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, stamp=stamp, notes=notes, errors=tally.errors[:50])
    results_dir = bdir / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"host: {stamp['cpu_model']}, nproc={stamp['nproc']}, "
          f"build={stamp['build']['build_type']}, commit={stamp['commit']}, "
          f"source_sha256={stamp['source_sha256'][:16]}")
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for note in notes:
        print(f"  {note}")
    for name in units:
        print(f"  {name:34s} {metrics[name]:.6g} {units[name]}")
    err_rate = tally.failed / max(1, tally.attempted)
    print(f"  error_rate {err_rate:.6g} ({tally.failed}/{tally.attempted})")
    for e in tally.errors[:10]:
        print(f"  error: {e}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

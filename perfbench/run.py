#!/usr/bin/env python3
"""The prefix2org benchmark: one command per workload, run from the root
of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

It builds `prefix2org` (`cargo build --release -p p2o-cli`) and the harness
in perfbench/harness, generates a synthetic world from the seed, and then
times the real binary: `generate`, `build`, and `serve` under an open-loop
query mix. Every export, frozen artifact and served answer is checked; any
mismatch is counted in `failed` and makes the command exit nonzero.

With --trace 0 the last stdout line carries the end-to-end metrics named
in BENCHMARK.json. With --trace 1 the same untraced measurements run, plus
a `build --report` subprocess (for its memory section) and the in-process
layer replica (`p2o-perfbench trace`); the last line then carries the
per-layer metrics and the replica's Chrome trace is written under
.perfbench/traces/.

Settings (rates, limits, the query mix, shares of the run) come from
perfbench/spec.json.
Builds land in $CARGO_TARGET_DIR (default .bench_build); scratch worlds in
.perfbench/, removed when the run ends.
"""

import argparse
import json
import math
import os
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((HERE / "spec.json").read_text())
SERVE = SPEC["serve"]
THREADS = str(SPEC["threads"])
_MIX = SERVE["mix"]
# The query mix, passed to both harness commands so spec.json is its only copy.
MIX_ARGS = ["--mix", ",".join(str(_MIX["prefix_percent"][k])
                              for k in ("record", "more_specific", "miss")),
            "--health-every", str(_MIX["health_every"]),
            "--batch-lines", str(_MIX["batch_lines"])]
_TARGET = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
TARGET = _TARGET if _TARGET.is_absolute() else ROOT / _TARGET

# With two or more CPUs the server and the load generator each get one of
# their own, so the server's capacity does not depend on where the
# scheduler happens to place four busy threads on a small box. Boots swap
# the two CPUs, so a run samples both even when the host slows one of them.
CPUS = sorted(os.sched_getaffinity(0))


def boot_cpus(boot):
    """(server CPUs, load generator CPUs) for boot number `boot`."""
    if len(CPUS) < 2:
        return None, None
    a, b = CPUS[boot % 2], CPUS[(boot + 1) % 2]
    return {a}, {b}

# Percentiles a latency report may use, highest first.
PERCENTILES = (0.999, 0.99, 0.95, 0.9, 0.5)


class BenchError(Exception):
    """A failure that makes the run's figures meaningless."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- quantiles


def quantile(sorted_values, q):
    """Exact nearest-rank quantile of an already sorted sample."""
    if not sorted_values:
        raise BenchError("quantile of an empty sample")
    idx = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[idx]


def beyond(n, q):
    """How many of n samples lie strictly above the nearest-rank q-quantile."""
    return n - max(1, math.ceil(q * n))


def highest_percentile(n):
    """The highest percentile with at least 10 samples beyond it."""
    for q in PERCENTILES:
        if beyond(n, q) >= 10:
            return q
    return None


def latency_summary(name, samples_ns, need_q):
    """p50 and the highest resolvable percentile, in µs, with the count.
    Fails when `need_q` (the percentile a metric is named after) cannot be
    resolved from this many samples."""
    values = sorted(samples_ns)
    n = len(values)
    top = highest_percentile(n)
    if top is None or top < need_q:
        raise BenchError(f"{name}: {n} samples cannot resolve p{need_q * 100:g}")
    out = {"n": n, "p50": quantile(values, 0.5) / 1e3, "top_q": top,
           "top": quantile(values, top) / 1e3,
           "min": values[0] / 1e3, "max": values[-1] / 1e3}
    out["p99"] = quantile(values, 0.99) / 1e3 if top >= 0.99 else None
    return out


def selftest():
    """Quantiles lie within [min, max] and never fall as q rises."""
    import random
    rng = random.Random(12345)
    for n in (1, 2, 10, 999, 1000, 1001, 5000):
        values = sorted(rng.lognormvariate(10, 1.5) for _ in range(n))
        qs = [i / 200 for i in range(201)]
        got = [quantile(values, q) for q in qs]
        assert all(values[0] <= v <= values[-1] for v in got), "quantile outside [min, max]"
        assert all(a <= b for a, b in zip(got, got[1:])), "quantile falls as q rises"
        assert quantile(values, 1.0) == values[-1] and quantile(values, 0.0) == values[0]
    ints = list(range(1, 101))
    assert quantile(ints, 0.5) == 50 and quantile(ints, 0.99) == 99
    assert highest_percentile(1000) == 0.99 and highest_percentile(999) == 0.95
    assert highest_percentile(10009) == 0.999 and highest_percentile(10) is None
    assert beyond(1000, 0.99) == 10


# ---------------------------------------------------------------- processes


class Run:
    """One benchmark run: its scratch directory and child processes."""

    def __init__(self, workload, seed, seconds, trace):
        self.name = workload
        self.wl = SPEC["workloads"][workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = ROOT / ".perfbench" / f"{workload}-{seed}-{os.getpid()}"
        self.children = []
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.cli = TARGET / "release" / "prefix2org"
        self.harness = TARGET / "release" / "p2o-perfbench"

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)

    def spawn(self, args, cpus=None, **kw):
        if cpus is not None:
            kw["preexec_fn"] = lambda: os.sched_setaffinity(0, cpus)
        p = subprocess.Popen(args, **kw)
        self.children.append(p)
        return p

    def reap(self, p):
        """Waits for `p` and returns (exit code, peak RSS in bytes)."""
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
        self.children.remove(p)
        return p.returncode, usage.ru_maxrss * 1024

    def stop_all(self):
        for p in list(self.children):
            if p.poll() is None:
                p.kill()
            try:
                p.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
            self.children.remove(p)

    def run_cli(self, args, label):
        """Runs `prefix2org ARGS` to completion; returns (wall s, peak RSS)."""
        logfile = self.work / f"{label}.log"
        with open(logfile, "wb") as err:
            t0 = time.perf_counter()
            p = self.spawn([str(self.cli)] + args, stdout=subprocess.DEVNULL, stderr=err,
                           cwd=self.work)
            code, rss = self.reap(p)
            t1 = time.perf_counter()
        if code != 0:
            tail = logfile.read_text(errors="replace")[-2000:]
            raise BenchError(f"prefix2org {' '.join(args[:1])} exited {code}:\n{tail}")
        return t1 - t0, rss


def cargo_build():
    """Builds the binary and the harness from this checkout's sources."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(TARGET))
    for args in (["cargo", "build", "--release", "--offline", "-p", "p2o-cli"],
                 ["cargo", "build", "--release", "--offline", "--manifest-path",
                  str(HERE / "harness" / "Cargo.toml")]):
        p = subprocess.run(args, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                           stderr=subprocess.PIPE, text=True)
        if p.returncode != 0:
            raise BenchError(f"{' '.join(args)} failed:\n{p.stderr[-3000:]}")


# ---------------------------------------------------------------- HTTP


def http(addr, method, path, timeout=30.0):
    """One request on a fresh connection; returns (status, body bytes)."""
    host, port = addr.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=timeout) as s:
        s.sendall(f"{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: 0\r\n"
                  f"Connection: close\r\n\r\n".encode())
        buf = b""
        while True:
            chunk = s.recv(65536)
            if not chunk:
                break
            buf += chunk
            head, sep, body = buf.partition(b"\r\n\r\n")
            if sep:
                length = 0
                for line in head.split(b"\r\n")[1:]:
                    k, _, v = line.partition(b":")
                    if k.strip().lower() == b"content-length":
                        length = int(v)
                if len(body) >= length:
                    return int(head.split()[1]), body[:length]
    raise BenchError(f"{method} {path}: connection closed before a full response")


def read_line(stream, timeout, what):
    sel = selectors.DefaultSelector()
    sel.register(stream, selectors.EVENT_READ)
    try:
        if not sel.select(timeout):
            raise BenchError(f"timed out waiting for {what}")
    finally:
        sel.close()
    line = stream.readline()
    if not line:
        raise BenchError(f"{what}: stream closed")
    return line


class LoadGen:
    """The open-loop generator process (p2o-perfbench load)."""

    def __init__(self, run, export):
        self.run = run
        self.p = run.spawn([str(run.harness), "load", "--export", str(export),
                            "--seed", str(run.seed)] + MIX_ARGS,
                           stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.ready = json.loads(read_line(self.p.stdout, 120, "load generator start"))

    def cmd(self, line, timeout=120):
        self.p.stdin.write(line + "\n")
        self.p.stdin.flush()
        return json.loads(read_line(self.p.stdout, timeout, f"load generator {line!r}"))

    def close(self):
        self.p.stdin.close()
        code, _ = self.run.reap(self.p)
        if code != 0:
            raise BenchError(f"load generator exited {code}")


# ---------------------------------------------------------------- phases


def generate(run, out):
    wall, _ = run.run_cli(["generate", "--out", str(out), "--scale", SPEC["world"]["scale"],
                           "--seed", str(run.seed)], "generate")
    return wall


def build(run, world, export, label, extra=()):
    args = ["build", "--in", str(world), "--out", str(export), "--threads", THREADS]
    return run.run_cli(args + run.wl["build_args"] + list(extra), f"build{label}")


class BuildChecks:
    """Every export and frozen artifact of a run must equal the first."""

    def __init__(self, run):
        self.run = run
        self.export = None
        self.frozen = None

    def add(self, export_path, frozen_path):
        export = export_path.read_bytes()
        frozen = frozen_path.read_bytes()
        if self.export is None:
            self.export, self.frozen = export, frozen
            self.run.check(len(export) > 0, "empty export")
        else:
            self.run.check(export == self.export, "export differs from the run's first export")
            self.run.check(frozen == self.frozen, "world.p2ob differs from the run's first")


def setup_rep(run, world, checks, builds):
    """One set-up: generate `world` (and for serve_mix build it); returns
    its wall time."""
    t = generate(run, world)
    if "build" in run.wl["setup"]:
        wall, rss = build(run, world, run.work / "export.jsonl", len(builds) + 1)
        builds.append((wall, rss))
        checks.add(run.work / "export.jsonl", world / "world.p2ob")
        t += wall
    return t


def build_phase(run, world, checks, builds, budget_s):
    """Back-to-back builds until `budget_s` has passed; none when it is 0,
    else at least one."""
    t_end = time.perf_counter() + budget_s
    while budget_s > 0:
        wall, rss = build(run, world, run.work / "export.jsonl", len(builds) + 1)
        builds.append((wall, rss))
        checks.add(run.work / "export.jsonl", world / "world.p2ob")
        if time.perf_counter() >= t_end:
            break


class Server:
    def __init__(self, run, world, group, cpus):
        self.run = run
        self.log = open(run.work / f"serve{group}.log", "wb")
        t0 = time.perf_counter()
        self.p = run.spawn([str(run.cli), "serve", str(world), "--addr", "127.0.0.1:0",
                            "--threads", THREADS, "--allow-quit"], cpus=cpus,
                           stdout=subprocess.PIPE, stderr=self.log, text=True)
        line = read_line(self.p.stdout, 120, "serve readiness line")
        if not line.startswith("listening on "):
            raise BenchError(f"unexpected serve output {line!r}")
        self.addr = line.split()[-1]
        status, body = http(self.addr, "GET", "/health")
        t1 = time.perf_counter()
        run.check(status == 200, f"cold start /health answered {status}")
        self.cold_ms = (t1 - t0) * 1e3

    def stop(self):
        status, _ = http(self.addr, "POST", "/quit")
        self.run.check(status == 200, f"/quit answered {status}")
        self.p.stdout.close()
        try:
            self.p.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.p.kill()
            self.p.wait()
        self.run.children.remove(self.p)
        self.log.close()


def window_p99s(prefix_ns):
    """Exact p99 (µs) of each window of `p99_window_requests` consecutive
    /prefix requests; a partial last window is dropped."""
    w = SERVE["p99_window_requests"]
    return [quantile(sorted(prefix_ns[i:i + w]), 0.99) / 1e3
            for i in range(0, len(prefix_ns) - w + 1, w)]


def tally(run, r):
    """Counts a generator reply's checked answers into the run."""
    run.attempted += r["attempted"]
    run.failed += r["failed"]
    for f in r["failures"]:
        if len(run.failures) < 10:
            run.failures.append(f)


def step(run, gen, seconds):
    """One open-loop window at the fixed rates. The window lagged when the
    generator's late p99 over its sends exceeds the lag limit: its tail
    then measures the host's scheduling, not the server."""
    r = gen.cmd(f"step {SERVE['lookup_rps']} {SERVE['bulk_rps']} {seconds}")
    tally(run, r)
    r["late_p99_us"] = quantile(sorted(r["late_ns"]), 0.99) / 1e3
    r["lagged"] = r["late_p99_us"] > SERVE["lag"]["late_p99_max_us"]
    wins = window_p99s(r["prefix_ns"])
    r["p99_us"] = statistics.median(wins) if wins else None
    return r


def burst(run, gen):
    """Saturates the lookup connection with `burst_requests` requests sent
    at once, /batch at its fixed rate meanwhile; returns the lookup
    requests answered per second from the first send to the last answer."""
    n = SERVE["saturation"]["burst_requests"]
    r = gen.cmd(f"burst {n} {SERVE['bulk_rps']}")
    tally(run, r)
    answered = len(r["prefix_ns"]) + len(r["health_ns"])
    if answered != n or r["lookup_span_ns"] <= 0:
        raise BenchError(f"burst: {answered} of {n} lookup requests answered")
    return n / (r["lookup_span_ns"] / 1e9)


class Fixed:
    """The fixed-rate windows, each a `window_seconds` step at the fixed
    rates. Windows in which the generator lagged are retried and not
    recorded, unless a run would otherwise record fewer than
    `min_windows`: then the least-lagged of them make up the number."""

    def __init__(self):
        self.samples = {"prefix_ns": [], "health_ns": [], "batch_ns": [], "late_ns": []}
        self.p99s = []
        self.backlog_max = 0
        self.lagged = []
        self.lagged_recorded = 0

    def record(self, r):
        for k in self.samples:
            self.samples[k] += r[k]
        self.p99s.append(r["p99_us"])
        self.backlog_max = max(self.backlog_max, r["backlog_max"])

    def run_boot(self, run, gen, budget_s):
        """Windows until the boot's share of the budget is recorded, at
        most `window_tries` times as many tries."""
        want = max(1, round(budget_s / SERVE["window_seconds"]))
        got = 0
        for _ in range(want * SERVE["lag"]["window_tries"]):
            if got == want:
                break
            r = step(run, gen, SERVE["window_seconds"])
            if r["p99_us"] is None:
                continue
            if r["lagged"]:
                self.lagged.append(r)
                continue
            got += 1
            self.record(r)

    def finish(self):
        short = SERVE["lag"]["min_windows"] - len(self.p99s)
        for r in sorted(self.lagged, key=lambda r: r["late_p99_us"])[:max(0, short)]:
            self.record(r)
            self.lagged_recorded += 1
        if len(self.p99s) < 2:
            raise BenchError(f"only {len(self.p99s)} fixed-rate windows completed")


class ServePhase:
    """Server boots: loaded ones (cold start, the fixed-rate windows and,
    in untraced runs, the saturation bursts), then boots that only time
    the cold start, up to `cold_boots` in all."""

    def __init__(self, run, export):
        self.run = run
        self.gen = LoadGen(run, export)
        run.mix = self.gen.ready
        self.fixed = Fixed()
        self.cold_ms = []
        self.rates = []

    def boot(self, world, budget_s):
        run, gen = self.run, self.gen
        server_cpus, gen_cpus = boot_cpus(len(self.cold_ms))
        if gen_cpus is not None:
            # The generator threads start per step and inherit this mask.
            os.sched_setaffinity(gen.p.pid, gen_cpus)
        server = Server(run, world, 100 + len(self.cold_ms), server_cpus)
        self.cold_ms.append(server.cold_ms)
        ok = gen.cmd(f"connect {server.addr}")
        if not ok.get("ok"):
            raise BenchError(f"load generator: {ok}")
        tally(run, gen.cmd(f"step {SERVE['lookup_rps']} {SERVE['bulk_rps']} "
                           f"{SERVE['warmup_seconds']}"))
        self.fixed.run_boot(run, gen, budget_s)
        if not run.trace:
            self.rates += [burst(run, gen)
                           for _ in range(SERVE["saturation"]["bursts_per_boot"])]
        gen.cmd("close")
        server.stop()

    def finish(self, world):
        self.gen.close()
        while len(self.cold_ms) < SPEC["cold_boots"]:
            server = Server(self.run, world, 100 + len(self.cold_ms),
                            boot_cpus(len(self.cold_ms))[0])
            self.cold_ms.append(server.cold_ms)
            server.stop()
        self.fixed.finish()


# ---------------------------------------------------------------- report


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(run, setup_s, builds, artifact_bytes, serve):
    fx = serve.fixed.samples
    prefix = latency_summary("/prefix", fx["prefix_ns"], 0.99)
    health = latency_summary("/health", fx["health_ns"], 0.5)
    batch = latency_summary("/batch", fx["batch_ns"], 0.5)
    run.summaries = {"/prefix": prefix, "/health": health, "/batch": batch}
    return {
        "setup_s": metric(setup_s, "s"),
        "build_s": metric(statistics.median(w for w, _ in builds), "s"),
        "build_peak_rss_mb": metric(statistics.median(r for _, r in builds) / 1e6, "MB"),
        "artifact_mb": metric(artifact_bytes / 1e6, "MB"),
        "serve_cold_start_ms": metric(statistics.median(serve.cold_ms), "ms"),
        "prefix_p50_us": metric(prefix["p50"], "us"),
        "prefix_p99_us": metric(statistics.median(serve.fixed.p99s), "us"),
        "health_p50_us": metric(health["p50"], "us"),
        "batch_p50_us": metric(batch["p50"], "us"),
        "serve_max_rps": metric(statistics.median(serve.rates) if serve.rates
                                else None, "1/s"),
    }


def print_human(run, e2e, builds, serve):
    fixed = serve.fixed
    lag_us = SERVE["lag"]["late_p99_max_us"]
    pinning = " (server and load generator on separate CPUs, swapped every boot)"
    print(f"workload {run.name}  seed {run.seed}  scale {SPEC['world']['scale']}  "
          f"threads {THREADS}  cpus {len(CPUS)}{pinning if len(CPUS) >= 2 else ''}")
    print(f"  world: {run.sizes['records']} prefixes in the export, "
          f"{run.sizes['input_bytes']} input bytes")
    print(f"  builds: {len(builds)}  ({', '.join(f'{w:.3f}s' for w, _ in builds)})")
    print(f"  cold starts: {', '.join(f'{c:.1f}ms' for c in serve.cold_ms)}")
    print(f"  fixed rates: lookup {SERVE['lookup_rps']}/s, bulk {SERVE['bulk_rps']}/s "
          f"(mix {run.mix.get('mix')}); a window lagged when the generator's late p99 "
          f"exceeds {lag_us} us")
    for name, s in run.summaries.items():
        p99 = "" if s["p99"] is None else f"p99 {s['p99']:.1f} us  "
        print(f"  {name:8s} n={s['n']:6d}  p50 {s['p50']:.1f} us  {p99}"
              f"p{s['top_q'] * 100:g} {s['top']:.1f} us  [min {s['min']:.1f}, max {s['max']:.1f}]")
    late = sorted(fixed.samples["late_ns"])
    print(f"  fixed-rate windows ({SERVE['window_seconds']} s each): {len(fixed.p99s)} recorded, "
          f"{len(fixed.lagged)} lagged, of which {fixed.lagged_recorded} recorded to reach "
          f"{SERVE['lag']['min_windows']}; recorded: generator late p99 "
          f"{quantile(late, 0.99) / 1e3:.0f} us, largest backlog {fixed.backlog_max}")
    print("  /prefix p99 per recorded window: "
          + ", ".join(f"{v:.0f}" for v in fixed.p99s) + " us (median is prefix_p99_us)")
    if serve.rates:
        print(f"  saturation bursts of {SERVE['saturation']['burst_requests']} lookups "
              f"(answered/s; median is serve_max_rps): "
              + ", ".join(f"{v:.0f}" for v in serve.rates))
    print(f"  phase wall times: {', '.join(f'{k} {v:.1f}s' for k, v in run.phase_s.items())}")
    for k, v in e2e.items():
        if v["value"] is not None:
            print(f"  {k} = {v['value']:.6g} {v['unit']}")
    ratio = run.failed / max(1, run.attempted)
    print(f"  failed_ratio = {ratio:.6g} ({run.failed} of {run.attempted})")
    for f in run.failures:
        print(f"  FAILED: {f}")


def traced(run, world, export, builds, serve, e2e):
    """The traced additions: a `build --report` subprocess for its memory
    section and the in-process replica. Returns the per-layer metrics."""
    report_path = run.work / "report.json"
    build(run, world, export, "report", extra=["--report", str(report_path)])
    mem = json.loads(report_path.read_text())["memory"]
    rep = run.work / "replica"
    rep.mkdir()
    trace_path = ROOT / ".perfbench" / "traces" / f"{run.name}-seed{run.seed}.json"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    p = run.spawn([str(run.harness), "trace", "--world", str(world), "--export", str(export),
                   "--seed", str(run.seed), "--threads", THREADS,
                   "--reps", str(SPEC["replica_reps"]),
                   "--work", str(rep), "--trace-out", str(trace_path)] + MIX_ARGS,
                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    out, err = p.communicate()
    run.children.remove(p)
    if p.returncode != 0:
        raise BenchError(f"p2o-perfbench trace exited {p.returncode}: {err[-2000:]}")
    res = json.loads(out)
    for what, ok in res["checks"].items():
        run.check(ok, what + (f" ({res['query_failures']})" if not ok else ""))

    L = res["layers"]
    C = res["counts"]
    build_ms = e2e["build_s"]["value"] * 1e3
    spilled = "--spill" in run.wl["build_args"]
    # The layers the subprocess ran the same way: with --spill, ingest goes
    # through spill runs instead of the whole-file parsers.
    named = ["util.manifest_verify", "whois.tree_build", "as2org.cluster", "rpki.validate",
             "core.pipeline", "core.export_render", "core.freeze", "core.thaw_validate",
             "core.thaw_render", "util.frame", "util.atomic_write"]
    if not spilled:
        named += ["whois.parse", "bgp.mrt_decode", "rpki.load"]
    named_ms = sum(L[f"build:{n}"] for n in named)
    cold_ms = e2e["serve_cold_start_ms"]["value"]
    boot_named = ["util.manifest_verify", "core.frozen_load", "serve.snapshot_attach"]
    boot_ms = sum(L[f"boot:{n}"] for n in boot_named)
    parse_us = L["serve.http_parse_ns"] / 1e3
    prefix_p50 = e2e["prefix_p50_us"]["value"]
    fixed = serve.fixed
    process_peak = statistics.median(r for _, r in builds)

    values = {
        "synth.generate_ms": L["synth.generate"],
        "util.manifest_verify_ms": L["build:util.manifest_verify"],
        "util.boot_manifest_verify_ms": L["boot:util.manifest_verify"],
        "whois.parse_ms": L["build:whois.parse"],
        "whois.tree_build_ms": L["build:whois.tree_build"],
        "bgp.mrt_decode_ms": L["build:bgp.mrt_decode"],
        "rpki.load_ms": L["build:rpki.load"],
        "rpki.validate_ms": L["build:rpki.validate"],
        "as2org.cluster_ms": L["build:as2org.cluster"],
        "whois.records": C["whois.records"],
        "bgp.routes": C["bgp.routes"],
        "core.prefixes": C["core.prefixes"],
        "core.pipeline_ms": L["build:core.pipeline"],
        "core.export_render_ms": L["build:core.export_render"],
        "core.export_bytes": C["core.export_bytes"],
        "core.freeze_ms": L["build:core.freeze"],
        "core.frozen_bytes": C["core.frozen_bytes"],
        "core.thaw_validate_ms": L["build:core.thaw_validate"],
        "core.thaw_render_ms": L["build:core.thaw_render"],
        "util.frame_ms": L["build:util.frame"],
        "util.atomic_write_ms": L["build:util.atomic_write"],
        "util.bytes_written": C["util.bytes_written"],
        "cli.unattributed_ms": build_ms - named_ms,
        "trace.build_coverage": named_ms / build_ms,
        "trace.overhead_ms": L["build.total"] - build_ms,
        "mem.accounted_peak_bytes": mem["peak_bytes"],
        "mem.process_peak_bytes": process_peak,
        "mem.spill_bytes_written": mem["spill_bytes_written"],
        "mem.spill_runs": mem["spill_runs_created"],
        "core.frozen_load_ms": L["boot:core.frozen_load"],
        "serve.snapshot_attach_ms": L["boot:serve.snapshot_attach"],
        "serve.boot_unattributed_ms": cold_ms - boot_ms,
        "trace.boot_coverage": boot_ms / cold_ms,
        "serve.http_parse_ns": L["serve.http_parse_ns"],
        "serve.lookup_render_us": L["serve.lookup_render_us"],
        "core.frozen_lpm_ns": L["core.frozen_lpm_ns"],
        "serve.batch_lookup_us": L["serve.batch_lookup_us"],
        "serve.probe_tallies_us": L["serve.probe_tallies_us"],
        "serve.wire_unattributed_us": prefix_p50 - parse_us - L["serve.lookup_render_us"],
        "gen.late_p99_us": quantile(sorted(fixed.samples["late_ns"]), 0.99) / 1e3,
        "serve.backlog_max": fixed.backlog_max,
        "ops.attempted": run.attempted,
        "ops.failed": run.failed,
    }

    print("  traced run:")
    print(f"    build layers (self ms; untraced build_s {build_ms:.1f} ms):")
    for n in named + ([] if not spilled else ["whois.parse", "bgp.mrt_decode", "rpki.load"]):
        tag = "" if n in named else "   (in-memory replica only; not in the sum)"
        print(f"      {n:22s} {L['build:' + n]:9.2f}{tag}")
    print(f"      {'unattributed':22s} {values['cli.unattributed_ms']:9.2f}")
    print(f"    coverage {values['trace.build_coverage']:.3f}; tracing overhead (replica's traced "
          f"build {L['build.total']:.1f} ms minus untraced) {values['trace.overhead_ms']:.1f} ms")
    print(f"    memory: process peak RSS {process_peak} bytes (median of the untraced builds) vs "
          f"report memory.peak_bytes {mem['peak_bytes']} ({mem['mode']})")
    print(f"    boot layers (ms; cold start {cold_ms:.1f}): " + ", ".join(
        f"{n} {L['boot:' + n]:.2f}" for n in boot_named)
        + f", unattributed {values['serve.boot_unattributed_ms']:.2f}")
    print(f"    request layers: parse {L['serve.http_parse_ns']:.0f} ns, lookup+render "
          f"{L['serve.lookup_render_us']:.2f} us, frozen LPM {L['core.frozen_lpm_ns']:.0f} ns, "
          f"wire rest {values['serve.wire_unattributed_us']:.2f} us of p50 {prefix_p50:.2f} us")
    print(f"    trace: {trace_path.relative_to(ROOT)}")
    return values


def execute(run):
    """`rounds` rounds of one set-up, the round's share of the builds and
    one loaded server boot, so each metric's samples span the whole run
    and a spell of host load moves a share of them, not all."""
    checks = BuildChecks(run)
    builds, setups = [], []
    export = run.work / "export.jsonl"
    rounds = SPEC["rounds"]
    build_s = run.seconds * run.wl["build_share"] / rounds
    serve_s = run.seconds * (1.0 - run.wl["build_share"]) / rounds
    run.phase_s = {"set-up": 0.0, "builds": 0.0, "serve": 0.0}
    serve, world = None, None

    def timed(phase, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        run.phase_s[phase] += time.perf_counter() - t0
        return out

    for i in range(rounds):
        last, world = world, run.work / f"world{i}"
        setups.append(timed("set-up", setup_rep, run, world, checks, builds))
        timed("builds", build_phase, run, world, checks, builds, build_s)
        if serve is None:
            serve = ServePhase(run, export)
        timed("serve", serve.boot, world, serve_s)
        if last is not None:
            shutil.rmtree(last)
    timed("serve", serve.finish, world)
    artifact = (world / "world.p2ob").stat().st_size
    run.sizes = {
        "records": sum(1 for _ in export.open("rb")),
        "input_bytes": sum(f.stat().st_size for f in world.rglob("*")
                           if f.is_file() and f.name not in ("world.p2ob", "MANIFEST.tsv")),
    }
    e2e = end_to_end(run, statistics.median(setups), builds, artifact, serve)
    print_human(run, e2e, builds, serve)
    if run.trace:
        return traced(run, world, export, builds, serve, e2e)
    return {k: v["value"] for k, v in e2e.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(SPEC["workloads"]))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true", help="check the quantile code and exit")
    a = ap.parse_args()
    selftest()
    if a.selftest:
        print("quantile self-test passed")
        return 0
    if a.workload is None or a.seed is None or a.seconds is None:
        ap.error("--workload, --seed and --seconds are required")
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "cli").is_dir():
        log(f"perfbench: {ROOT} holds no prefix2org sources (Cargo.toml, crates/cli)")
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if a.trace else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in bench[kind]}

    run = Run(a.workload, a.seed, a.seconds, a.trace)
    # A stop request from outside still stops and reaps every child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        cargo_build()
        if run.work.exists():
            shutil.rmtree(run.work)
        run.work.mkdir(parents=True)
        values = execute(run)
    except (BenchError, OSError) as e:
        log(f"perfbench: {e}")
        return 1
    finally:
        run.stop_all()
        shutil.rmtree(run.work, ignore_errors=True)
    missing = sorted(set(wanted) - set(values))
    if missing:
        log(f"perfbench: no value for {missing}")
        return 1
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: metric(values[k], u) for k, u in wanted.items()},
    }
    print(json.dumps(result), flush=True)
    if run.failed:
        log(f"perfbench: {run.failed} of {run.attempted} operations failed or answered wrong")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

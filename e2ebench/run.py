#!/usr/bin/env python3
"""End-to-end benchmark of the shipped `campaign` binary.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --generate --seed N --out DIR
    python3 e2ebench/run.py --steadiness

Run from the repository root. The first form builds `campaign` and the
benchmark's own tool (`e2ebench/tool`) from source, generates the seed's
inputs, has `campaign` build the study cache, measures whole rounds of the
workload for S seconds, checks the outputs, and prints one JSON object as
its last line of stdout: `correct`, `attempted`, `failed` and `metrics`
(the end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1`). `--generate` writes every workload's specs for a seed and
builds each study cache. `--steadiness` runs two interleaved sets of five
runs of every workload, each run as long as BENCHMARK.json's
`run_seconds`, and reports whether they agree within its bounds. Metric
names and units come from BENCHMARK.json. See e2ebench/README.md for the
workloads and metrics.
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
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
THREADS = 2
WORKLOADS = ("fleet_study", "sweep_study", "tenants_tcp")
# Runs in each of the steadiness mode's two sets.
STEADINESS_RUNS = 5
# Set-up samples taken before the first round; one more follows every
# round, so the samples span the same stretch of time as the rounds.
SETUP_SAMPLES = 5
# Invocations behind proc.start_ms.
START_SAMPLES = 15
# How long any one process may take before the run gives up on it.
PROCESS_TIMEOUT_S = 120.0

_live = []  # processes started and not yet reaped


def benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def log(message):
    print(f"e2ebench: {message}", file=sys.stderr, flush=True)


def target_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def campaign_bin():
    return target_dir() / "release" / "campaign"


def tool_bin():
    return target_dir() / "release" / "e2ebench"


def build():
    """Builds `campaign` and the benchmark tool; build output goes to stderr."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        raise SystemExit(f"e2ebench: {ROOT} holds no ltds workspace to build")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "ltds-bench", "--bin", "campaign"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         str(ROOT / "e2ebench" / "tool" / "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise SystemExit(f"e2ebench: build failed: {' '.join(cmd)}")


# --------------------------------------------------------------------------
# Processes
# --------------------------------------------------------------------------


def spawn(cmd, out_path=None, err_path=None):
    """Starts `cmd` with stdout and stderr sent to files (or discarded)."""
    out = open(out_path, "wb") if out_path else subprocess.DEVNULL
    err = open(err_path, "wb") if err_path else subprocess.DEVNULL
    try:
        proc = subprocess.Popen([str(c) for c in cmd], stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
    finally:
        for f in (out, err):
            if f is not subprocess.DEVNULL:
                f.close()
    _live.append(proc)
    return proc


def reap(proc, timeout=PROCESS_TIMEOUT_S):
    """Waits for `proc` (killing it after `timeout`); returns (code, rusage).
    The wait blocks, so a timed process is reaped the moment it exits."""
    if proc.returncode is not None:  # already reaped by `Popen.poll`
        _live.remove(proc)
        return proc.returncode, None
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        _, status, rusage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    _live.remove(proc)
    return proc.returncode, rusage


def stop_all():
    for proc in list(_live):
        try:
            proc.kill()
        except ProcessLookupError:
            pass
        reap(proc)


def run_timed(cmd, out_path=None, err_path=None, peak_rss=False):
    """Runs `cmd` to completion; returns (code, wall seconds, rusage, peak
    resident set in MB if `peak_rss` else None)."""
    started = time.perf_counter()
    proc = spawn(cmd, out_path, err_path)
    peak = PeakRss(proc.pid) if peak_rss else None
    code, rusage = reap(proc)
    wall = time.perf_counter() - started
    return code, wall, rusage, peak and peak.stop()


def cpu_s(rusage):
    return rusage.ru_utime + rusage.ru_stime


class PeakRss:
    """Samples a process's own peak resident set (`VmHWM`) every 10 ms
    until `stop()`, which returns it in MB. `ru_maxrss` from `wait4` will
    not do: at exec a child keeps its parent's peak, so every child of this
    interpreter would read at least the interpreter's ~20 MB."""

    def __init__(self, pid):
        self._status = Path(f"/proc/{pid}/status")
        self._kib = 0
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def _sample(self):
        while True:
            try:
                for line in self._status.read_text().splitlines():
                    if line.startswith("VmHWM:"):
                        self._kib = max(self._kib, int(line.split()[1]))
            except (OSError, ValueError):
                pass  # exiting
            if self._done.wait(0.01):
                return

    def stop(self):
        self._done.set()
        self._thread.join()
        return self._kib / 1024.0


def last_json_line(path):
    lines = Path(path).read_text().strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def tree_bytes(path):
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


def fresh_copy(src, dst):
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src, dst)


def quantile(values, q):
    """The q-quantile, interpolated the way statistics.quantiles does."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[int(round(q * 100)) - 1]


# --------------------------------------------------------------------------
# Inputs
# --------------------------------------------------------------------------


def generate(seed, out, workloads=WORKLOADS):
    """Writes every workload's specs for `seed` under `out` and has
    `campaign` build the study cache of each of `workloads` (at
    `out/<workload>/cache`). `out` must be new or an earlier output."""
    if out.exists():
        if not (out / "manifest.json").is_file():
            raise SystemExit(f"e2ebench: {out} exists and holds no generated inputs")
        shutil.rmtree(out)
    subprocess.run([str(tool_bin()), "gen", str(seed), str(out)], check=True,
                   stdout=subprocess.DEVNULL)
    for workload in workloads:
        wdir = out / workload
        code, *_ = run_timed(
            [campaign_bin(), "--spec", wdir / "study.json", "--cache-dir", wdir / "cache",
             "--threads", THREADS, "--out", wdir / "study.jsonl"],
            err_path=wdir / "study.log",
        )
        if code != 0:
            raise SystemExit(f"e2ebench: study cache build failed ({wdir / 'study.log'})")
    return json.loads((out / "manifest.json").read_text())


# --------------------------------------------------------------------------
# Local workloads: fleet_study, sweep_study
# --------------------------------------------------------------------------


def local_setup(wdir, work):
    """One set-up sample: `campaign` loads the study cache and prepares the
    spec, but runs no unit."""
    fresh_copy(wdir / "cache", work / "setup-cache")
    code, wall, *_ = run_timed(
        [campaign_bin(), "--spec", wdir / "spec.json", "--cache-dir", work / "setup-cache",
         "--threads", THREADS, "--max-units", 0, "--out", work / "setup.jsonl"],
    )
    if code != 0:
        raise SystemExit("e2ebench: set-up invocation failed")
    return wall


def local_round(wdir, work, expect, keep_report):
    """One round: the workload's spec run once over a fresh copy of the
    study cache."""
    cache = work / "round-cache"
    fresh_copy(wdir / "cache", cache)
    report = work / "round.jsonl"
    code, wall, rusage, peak = run_timed(
        [campaign_bin(), "--spec", wdir / "spec.json", "--cache-dir", cache,
         "--threads", THREADS, "--out", report],
        out_path=work / "round.out", err_path=work / "round.err", peak_rss=True,
    )
    summary = last_json_line(work / "round.out") if code == 0 else None
    records = report.read_bytes() if code == 0 else b""
    ok = (
        summary is not None
        and summary["units_run"] == summary["units_total"] == expect["units"]
        and summary["cache_hits"] == expect["hits"]
        and records.count(b"\n") == expect["units"]
    )
    if not ok:
        log(f"round failed: exit {code}, summary {summary}")
    result = {
        "ok": ok,
        "wall_s": wall,
        "units": expect["units"],
        "cpu_s": cpu_s(rusage),
        "rss_mb": peak,
        "cache_bytes": tree_bytes(cache),
        "digest": hashlib.sha256(records).hexdigest(),
    }
    if keep_report:
        shutil.copyfile(report, keep_report)
    shutil.rmtree(cache, ignore_errors=True)
    return result


def check_local(workload, wdir, report):
    cmd = {
        "fleet_study": [tool_bin(), "check-fleet", wdir / "spec.json", report],
        "sweep_study": [tool_bin(), "check-sweep", wdir / "spec.json", wdir / "study.json",
                        report],
    }[workload]
    proc = subprocess.run([str(c) for c in cmd], capture_output=True, text=True)
    message = (proc.stdout + proc.stderr).strip()
    log(f"{workload} check: {message}")
    return proc.returncode == 0


# --------------------------------------------------------------------------
# tenants_tcp
# --------------------------------------------------------------------------


def sockets_held(pid):
    """How many sockets process `pid` holds, or None where the process
    table cannot be read."""
    fds = Path(f"/proc/{pid}/fd")
    try:
        names = os.listdir(fds)
    except OSError:
        return None
    count = 0
    for name in names:
        try:
            count += os.readlink(fds / name).startswith("socket:")
        except OSError:
            pass  # closed while we looked
    return count


def start_server(wdir, work, tenants):
    """Starts a server over a fresh copy of the study cache plus two
    workers; returns (server, workers, addr, set-up seconds): the time from
    server start until it has accepted both workers' connections. The
    server holds one socket per accepted connection besides its listener,
    and it reads a worker's hello frame, which the worker sends as soon as
    it connects, in the same poll pass as the accept: so set-up ends at the
    server poll that registers the workers."""
    cache = work / "server-cache"
    fresh_copy(wdir / "cache", cache)
    addr_file = work / "addr"
    addr_file.unlink(missing_ok=True)
    started = time.perf_counter()
    server = spawn(
        [campaign_bin(), "--serve-tcp", "127.0.0.1:0", "--addr-file", addr_file,
         "--cache-dir", cache, "--tenants", tenants],
        work / "server.out", work / "server.err",
    )
    deadline = time.monotonic() + 30
    while not addr_file.exists():
        if server.poll() is not None or time.monotonic() > deadline:
            raise SystemExit("e2ebench: the server did not start")
        time.sleep(0.0005)
    addr = addr_file.read_text().strip()
    workers = [
        spawn([campaign_bin(), "--worker-tcp", addr, "--worker-id", f"w{i}"],
              err_path=work / f"worker{i}.err")
        for i in range(THREADS)
    ]

    def registered():
        # Without a readable process table, set-up ends when the workers
        # are spawned.
        held = sockets_held(server.pid)
        return held is None or held >= 1 + THREADS

    while not registered():
        if server.poll() is not None or time.monotonic() > deadline:
            raise SystemExit("e2ebench: the workers did not connect")
        time.sleep(0.0005)
    return server, workers, addr, time.perf_counter() - started


def tcp_setup(wdir, work):
    """One set-up sample without a round: start, measure, then stop."""
    server, workers, _, setup = start_server(wdir, work, 1)
    for proc in workers + [server]:
        proc.kill()
        reap(proc)
    return setup


def tcp_round(wdir, work, expect):
    """One round: a fresh server over the study cache, two workers, and
    every tenant submitted in turn by one client."""
    tenants = expect["tenants"]
    server, workers, addr, setup = start_server(wdir, work, tenants)
    peaks = [PeakRss(p.pid) for p in [server] + workers]
    latencies, summaries, digests, ok = [], [], [], True
    first = time.perf_counter()
    for t in range(tenants):
        out = work / f"tenant-{t:03}.jsonl"
        out.unlink(missing_ok=True)  # `--submit` resumes from existing lines
        code, wall, *_ = run_timed(
            [campaign_bin(), "--submit", addr, "--spec", wdir / f"tenant-{t:03}.json",
             "--out", out],
            out_path=work / "submit.out", err_path=work / "submit.err",
        )
        latencies.append(wall)
        summary = last_json_line(work / "submit.out") if code == 0 else None
        summaries.append(summary)
        ok = ok and summary is not None
        digests.append(hashlib.sha256(out.read_bytes() if out.exists() else b"").hexdigest())
    span = time.perf_counter() - first
    code, server_usage = reap(server)
    worker_usage = [reap(w)[1] for w in workers]
    server_rss, *worker_rss = [p.stop() for p in peaks]
    server_summary = last_json_line(work / "server.out") if code == 0 else None
    if server_summary is None:
        ok = False
    per_tenant_units = expect["units"] // tenants
    per_tenant_hits = expect["hits"] // tenants
    for summary in summaries:
        if summary is None or not (
            summary["units_done"] == summary["units_total"] == per_tenant_units
            and not summary["quarantined"]
            and summary["cache_hits"] == per_tenant_hits
            and summary["corrupt_frames"] == 0
        ):
            ok = False
    if server_summary and server_summary["corrupt_frames"] != 0:
        ok = False
    if not ok:
        log(f"tcp round failed: server {server_summary}, first bad tenant summary "
            f"{next((s for s in summaries if s is None or s['units_done'] != per_tenant_units), None)}")
    cache_bytes = tree_bytes(work / "server-cache")
    shutil.rmtree(work / "server-cache", ignore_errors=True)
    good = [s for s in summaries if s]
    return {
        "ok": ok,
        "setup_s": setup,
        "span_s": span,
        "units": expect["units"],
        "latencies_s": latencies,
        "digests": digests,
        "server_cpu_s": cpu_s(server_usage),
        "server_rss_mb": server_rss,
        "worker_cpu_s": sum(cpu_s(u) for u in worker_usage),
        "worker_rss_mb": max(worker_rss),
        "cache_bytes": cache_bytes,
        "server": server_summary or {},
        "hits": sum(s["cache_hits"] for s in good),
        "misses": sum(s["cache_misses"] for s in good),
        "degraded": sum(s["degraded_units"] for s in good),
        "wasted": sum(s["expired_leases"] + s["reissues"] + s["duplicate_completions"]
                      + s["degraded_units"] for s in good),
    }


def tcp_references(wdir, work, tenants):
    """Each tenant's report from an in-process `campaign --spec` run of the
    same spec (no cache): what the streamed report must equal, byte for
    byte."""
    digests = []
    for t in range(tenants):
        out = work / "reference.jsonl"
        code, *_ = run_timed(
            [campaign_bin(), "--spec", wdir / f"tenant-{t:03}.json", "--threads", THREADS,
             "--out", out],
        )
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest() if code == 0 else None)
    return digests


# --------------------------------------------------------------------------
# Runs
# --------------------------------------------------------------------------


def measure(workload, wdir, work, expect, seconds, keep=None, between=None):
    """Whole rounds of `workload` until `seconds` have passed (at least one),
    calling `between()` after each round. A local workload's first report
    is copied to `keep`."""
    rounds = []
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < seconds:
        if workload == "tenants_tcp":
            rounds.append(tcp_round(wdir, work, expect))
        else:
            rounds.append(local_round(wdir, work, expect, None if rounds else keep))
        if between:
            between()
    return rounds


def check_rounds(workload, wdir, work, expect, rounds, first_report):
    """Every round must be correct and byte-identical to the first, and the
    first must pass the workload's output checks."""
    if not all(r["ok"] for r in rounds):
        return False
    if workload == "tenants_tcp":
        references = tcp_references(wdir, work, expect["tenants"])
        same = all(r["digests"] == references for r in rounds)
        log(f"tenants_tcp check: {expect['tenants']} tenants x {len(rounds)} rounds "
            f"{'byte-identical to' if same else 'DIFFER from'} in-process runs")
        return same
    if len({r["digest"] for r in rounds}) != 1:
        log(f"{workload} check: rounds streamed different reports")
        return False
    return check_local(workload, wdir, first_report)


def end_to_end(workload, wdir, work, expect, seconds):
    sample = tcp_setup if workload == "tenants_tcp" else local_setup
    setups = [sample(wdir, work) for _ in range(SETUP_SAMPLES)]
    first_report = work / "first.jsonl"
    rounds = measure(workload, wdir, work, expect, seconds,
                     keep=first_report,
                     between=lambda: setups.append(sample(wdir, work)))
    correct = check_rounds(workload, wdir, work, expect, rounds, first_report)
    if workload == "tenants_tcp":
        setups += [r["setup_s"] for r in rounds]
        latencies = [x for r in rounds for x in r["latencies_s"]]
        per_s = [r["units"] / r["span_s"] for r in rounds]
        rss = [r["server_rss_mb"] for r in rounds]
        ops_per_round = expect["units"] + expect["tenants"]
    else:
        latencies = [r["wall_s"] for r in rounds]
        per_s = [r["units"] / r["wall_s"] for r in rounds]
        rss = [r["rss_mb"] for r in rounds]
        ops_per_round = expect["units"]
    metrics = {
        "setup_s": statistics.median(setups),
        "units_per_s": statistics.median(per_s),
        "tenant_ms_p50": statistics.median(latencies) * 1e3,
        "tenant_ms_p90": quantile(latencies, 0.9) * 1e3,
        "peak_rss_mb": statistics.median(rss),
        "cache_mb": statistics.median([r["cache_bytes"] for r in rounds]) / 1e6,
    }
    attempted = ops_per_round * len(rounds)
    return correct, attempted, metrics


def traced(workload, inputs, work):
    """The traced run: one untraced round of every workload (process and
    program counters), then the tool's traced replay of the same inputs."""
    manifest = json.loads((inputs / "manifest.json").read_text())
    rounds, correct, attempted = {}, True, 0
    for name in WORKLOADS:
        wdir = inputs / name
        keep = work / f"{name}-first.jsonl"
        rounds[name] = measure(name, wdir, work, manifest[name], 0, keep=keep)
        correct &= check_rounds(name, wdir, work, manifest[name], rounds[name], keep)
        ops = manifest[name]["units"] + (manifest[name].get("tenants", 0))
        attempted += ops * len(rounds[name])
    shutil.copyfile(work / "sweep_study-first.jsonl", inputs / "sweep_study" / "report.jsonl")

    starts = []
    for _ in range(START_SAMPLES):
        code, wall, *_ = run_timed(
            [campaign_bin(), "--spec", inputs / "tenants_tcp" / "tenant-000.json",
             "--max-units", 0, "--out", work / "start.jsonl"],
        )
        starts.append(wall)

    spans = WORK / f"spans-{workload}.json"
    proc = subprocess.run([str(tool_bin()), "trace", str(inputs), workload, str(spans)],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"e2ebench: traced replay failed: {proc.stderr.strip()}")
    layers = json.loads(proc.stdout.strip().splitlines()[-1])
    log(f"spans written to {spans}")

    tcp = rounds["tenants_tcp"][0]
    local = [rounds["fleet_study"][0], rounds["sweep_study"][0]]
    tenant_ms = statistics.median(tcp["latencies_s"]) * 1e3
    study_bytes = tree_bytes(inputs / workload / "cache")
    metrics = dict(layers)
    metrics.update({
        "cache.written_mb": (rounds[workload][0]["cache_bytes"] - study_bytes) / 1e6,
        "service.cache_hits": tcp["hits"],
        "service.cache_misses": tcp["misses"],
        "service.wasted_attempts": tcp["wasted"],
        "net.tenant_overhead_ms_p50": tenant_ms - layers["campaign.tenant_driver_ms_p50"],
        "net.connections": tcp["server"].get("connections", 0),
        "net.corrupt_frames": tcp["server"].get("corrupt_frames", 0),
        "proc.start_ms": statistics.median(starts) * 1e3,
        "proc.server_cpu_ms_per_tenant":
            tcp["server_cpu_s"] * 1e3 / manifest["tenants_tcp"]["tenants"],
        "proc.worker_cpu_ms_per_unit":
            tcp["worker_cpu_s"] * 1e3 / max(1, tcp["misses"] - tcp["degraded"]),
        "proc.cpu_util": sum(r["cpu_s"] for r in local) / sum(r["wall_s"] for r in local)
        / THREADS,
        "proc.server_rss_mb": tcp["server_rss_mb"],
        "proc.worker_rss_mb": tcp["worker_rss_mb"],
    })
    return correct, attempted, metrics


def run_once(workload, seed, seconds, trace):
    build()
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = work / "inputs"
        manifest = generate(seed, inputs, WORKLOADS if trace else (workload,))
        if trace:
            correct, attempted, metrics = traced(workload, inputs, work)
        else:
            correct, attempted, metrics = end_to_end(
                workload, inputs / workload, work, manifest[workload], seconds)
    finally:
        stop_all()
        shutil.rmtree(work, ignore_errors=True)
    declared = benchmark()["per_layer" if trace else "end_to_end"]
    if set(metrics) != {m["name"] for m in declared}:
        raise SystemExit(f"e2ebench: measured metrics {sorted(metrics)} differ from "
                         "those BENCHMARK.json declares")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else attempted,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }


# --------------------------------------------------------------------------
# Steadiness: two interleaved sets of runs of one build
# --------------------------------------------------------------------------


def steadiness():
    bench = benchmark()
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    runs, seconds, workloads = STEADINESS_RUNS, bench["run_seconds"], WORKLOADS
    build()
    results = {w: ([], []) for w in workloads}
    for i in range(runs):
        for w in workloads:
            for s, seed in enumerate((1000 + i, 2000 + i)):
                proc = subprocess.run(
                    [sys.executable, __file__, "--workload", w, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"],
                    capture_output=True, text=True)
                if proc.returncode != 0:
                    raise SystemExit(f"e2ebench: run failed:\n{proc.stderr[-2000:]}")
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                results[w][s].append(result)
                log(f"run {i + 1}/{runs} {w} set {'AB'[s]} seed {seed}: "
                    + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()))
    report, agree = {}, True
    print(f"{'workload':<12} {'metric':<14} {'set':<3} {'q1':>10} {'median':>10} {'q3':>10} "
          f"{'spread':>7}  bound")
    for w in workloads:
        sets = results[w]
        shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for rs in sets]
        report[w] = {"failed_share": shares, "metrics": {}}
        agree &= shares[0] == shares[1]
        for name, spec in bounds.items():
            rows = []
            for s in (0, 1):
                values = [r["metrics"][name]["value"] for r in sets[s]]
                q1, med, q3 = statistics.quantiles(values, n=4)
                rows.append({"q1": q1, "median": med, "q3": q3, "spread": (q3 - q1) / med,
                             "values": values})
                print(f"{w:<12} {name:<14} {'AB'[s]:<3} {q1:>10.4g} {med:>10.4g} {q3:>10.4g} "
                      f"{rows[-1]['spread']:>7.2%}  {spec['bound']:.0%}")
            a, b = rows[0]["median"], rows[1]["median"]
            worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
            ok = worse <= spec["bound"] and (
                name == "setup_s" or all(r["spread"] <= spec["bound"] for r in rows))
            agree &= ok
            report[w]["metrics"][name] = {"sets": rows, "b_worse_by": worse, "agree": ok}
            print(f"{'':<12} {'':<14} B vs A worse by {worse:+.2%}: "
                  f"{'agree' if ok else 'DISAGREE'}")
    print(f"failed shares: " + ", ".join(f"{w} {report[w]['failed_share']}" for w in workloads))
    print("steadiness: " + ("the two sets agree within every bound" if agree
                            else "the two sets DISAGREE"))
    WORK.mkdir(exist_ok=True)
    (WORK / "steadiness.json").write_text(json.dumps(report, indent=1) + "\n")
    return agree


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--generate", action="store_true")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--steadiness", action="store_true")
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.steadiness:
            sys.exit(0 if steadiness() else 1)
        if args.generate:
            if not args.out:
                parser.error("--generate needs --out DIR")
            build()
            generate(args.seed, args.out.resolve())
            return
        if not args.workload:
            parser.error("--workload is required")
        result = run_once(args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result))
    finally:
        stop_all()


if __name__ == "__main__":
    main()

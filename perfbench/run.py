"""The repository benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload plain --seed 1 --seconds 15 --trace 0

Workloads (see README.md): ``plain`` and ``blockage`` legalize a benchgen
design in-process many times; ``eco_service`` sends closed-loop ECO
resubmits to a ``repro serve`` process.  Inputs are generated from the
seed and written to files before timing starts.  With ``--trace 0`` the
result holds the end-to-end metrics; with ``--trace 1`` a separate run
with the layers wrapped reports the per-layer metrics.  The last line of
standard output is one JSON object::

    {"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Thread pools capped so the client, the server's event loop and its two
#: workers stay within two CPUs.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

#: Set-up is sampled this many times per run; the median is reported.
SETUP_SAMPLES = 5
#: Fewest ECO rounds (of inputs.ROUND requests) of a timed service run;
#: 40 rounds give the 200 samples the p95 needs.
MIN_ROUNDS = 40
#: ECO rounds per server in a traced service run (untraced, then traced).
TRACE_ROUNDS = 20
#: ECO rounds of the short service session in traced in-process runs.
PROBE_ROUNDS = 1


class Outcome:
    """Operations attempted and failed, with the first problems seen."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def add(self, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])


def metric_units(trace: bool) -> Dict[str, str]:
    """The metrics a run reports, by name, with their units, as
    ``BENCHMARK.json`` at the checkout root declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def read_ready(proc: subprocess.Popen, start: float, timeout: float = 120.0) -> float:
    """Seconds from *start* until *proc* prints ``READY``."""
    while True:
        wait = start + timeout - time.perf_counter()
        ready, _, _ = select.select([proc.stdout], [], [], max(wait, 0))
        if not ready:
            proc.kill()
            proc.wait()
            raise TimeoutError("worker did not get ready")
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with {proc.wait()} during set-up")
        if line.strip() == "READY":
            return time.perf_counter() - start


def finish(proc: subprocess.Popen, timeout: float) -> str:
    """Wait for *proc* and return its standard output; kill it if it
    overruns *timeout*."""
    try:
        return proc.communicate(timeout=timeout)[0]
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise


def spawn_worker(args: List[str], log) -> tuple:
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        env=child_env(), stdout=subprocess.PIPE, stderr=log, text=True,
    )
    return proc, read_ready(proc, start)


def run_in_process(workload, design: str, variants: str, seconds: float,
                   trace: bool, seed: int, work: str,
                   outcome: Outcome) -> Dict[str, float]:
    """``plain`` and ``blockage``: set-up samples, then one worker that
    legalizes for *seconds*; one operation is one ``legalize()`` call."""
    from inputs import VARIANTS

    log_path = os.path.join(work, "worker.log")
    setups = []
    with open(log_path, "a") as log:
        for _ in range(SETUP_SAMPLES - 1):
            proc, setup = spawn_worker(
                ["--design", design, "--variants", variants, "--setup-only"], log
            )
            finish(proc, 60)
            setups.append(setup)
        worker_args = [
            "--design", design, "--variants", variants,
            "--seconds", str(seconds),
            # Traced runs alternate untraced and traced calls: two rounds
            # of variants give each variant one call of each kind.
            "--min-calls", str(VARIANTS * (2 if trace else 1)),
            "--trace", str(int(trace)),
        ]
        if workload.method_properties:
            worker_args.append("--method-properties")
        proc, setup = spawn_worker(worker_args, log)
        setups.append(setup)
        out = finish(proc, 170)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}); see {log_path}")
    report = json.loads(out.strip().splitlines()[-1])
    calls = report["calls"]
    for call in calls:
        outcome.add(call["problems"])
    # The first call of each variant: quality is the median over them.
    firsts = {}
    for call in calls:
        first = firsts.setdefault(call["variant"], call)
        if not call["problems"] and not first["problems"] and (
            call["positions_hash"] != first["positions_hash"]
        ):
            outcome.problems.append(
                f"variant {call['variant']}: repeated calls gave different "
                "placements"
            )
    good = [c for c in firsts.values() if not c["problems"]]
    if workload.method_properties:
        checked = sum(1 for c in calls if c.get("method_checked"))
        print(f"perfbench: method properties checked on {checked} of "
              f"{len(calls)} calls; the others left cells illegal after the QP")
    untraced = [c["seconds"] for c in calls if not c["traced"]]
    if not trace:
        return end_to_end(
            setups, untraced, untraced,
            _median_of(good, "displacement_sites"),
            _median_of(good, "max_displacement_sites"),
            report["peak_rss_mb"],
        )

    traced = [c for c in calls if c["traced"]]
    rows = [c["layers"] for c in traced]
    metrics = layers.flow_medians(rows)
    base = statistics.median(untraced)
    metrics["tracing_overhead_s"] = (
        statistics.median(c["seconds"] for c in traced) - base
    )
    metrics["layer_coverage"] = (
        statistics.median(layers.flow_seconds(r) for r in rows) / base
    )
    session = traced_service(design, variants, seed, PROBE_ROUNDS, work,
                             outcome, untraced_rounds=0)
    metrics.update({
        k: session[k] for k in layers.REQUEST_METRICS + STORE_METRICS
    })
    return metrics


def _median_of(calls, key) -> float:
    return statistics.median(c[key] for c in calls) if calls else float("nan")


def end_to_end(setups, latencies, legalize_seconds, disp, max_disp,
               peak_rss) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "legalize_s": statistics.median(legalize_seconds),
        "latency_s_p50": percentile(latencies, 50),
        "latency_s_p95": percentile(latencies, 95),
        "requests_per_s": len(latencies) / sum(latencies),
        "displacement_sites": disp,
        "max_displacement_sites": max_disp,
        "peak_rss_mb": peak_rss,
    }


def percentile(values, q: float) -> float:
    """The *q*-th percentile (0..100), linearly interpolated."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


#: Per-session metrics of the warm-state store and the setup cache.
STORE_METRICS = (
    "warm_hits", "warm_stale", "warm_sweeps_p50", "stale_sweeps_p50",
    "setup_reuse_hits", "setup_reuse_misses",
)


def _load_client_design(design_path: str, variants_path: str):
    """The client's copy of the design, at the seed's first GP variant,
    and its checker layout."""
    from checker import Layout
    from repro.io import load_design

    with open(design_path) as fh:
        layout = Layout.from_dict(json.load(fh))
    with open(variants_path) as fh:
        layout = layout.with_gp(json.load(fh)[0])
    design = load_design(design_path)
    for cell, gp_x in zip(design.cells, layout.gp_x):
        cell.gp_x = float(gp_x)
    return design, layout


def serve(design, layout, seed: int, rounds: int, seconds: float,
          work: str, outcome: Outcome, dump: Optional[str] = None,
          clock=None):
    """One server session: spawn (``traced_server.py`` when *dump* is
    given), the cold request, ECO rounds, then the server's peak memory
    and ``/metrics`` counters.  With a *clock*, the client codec is
    wrapped and each request numbered as the traced server numbers it
    (decoded requests from 1, the cold one first).  Returns
    ``(setup_s, requests, peak_rss_mb, counters)``."""
    from service import ServerProcess, eco_session, metrics_counters, send

    def number(index):
        clock.op = index + 2

    server = ServerProcess(child_env(), os.path.join(work, "server.log"), dump)
    try:
        setup = server.start()
        outcome.add(send(server.client, design, layout, -1).problems)
        if clock is not None:
            clock.install_client()
        try:
            requests = eco_session(
                server.client, design, layout, seed, rounds, seconds,
                before_send=number if clock is not None else None,
            )
        finally:
            if clock is not None:
                clock.uninstall()
        peak_rss = server.peak_rss_mb()
        counters = metrics_counters(server.client)
    finally:
        server.stop()
    for req in requests:
        outcome.add(req.problems)
    return setup, requests, peak_rss, counters


def run_service(design_path: str, variants_path: str, seconds: float,
                seed: int, work: str, outcome: Outcome) -> Dict[str, float]:
    """``eco_service``: set-up samples (server spawn to ``/healthz``),
    then the cold request and timed ECO rounds against one server."""
    from inputs import ROUND
    from service import ServerProcess

    design, layout = _load_client_design(design_path, variants_path)
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        server = ServerProcess(child_env(), os.path.join(work, "server.log"))
        try:
            setups.append(server.start())
        finally:
            server.stop()
    setup, requests, peak_rss, _ = serve(
        design, layout, seed, MIN_ROUNDS, seconds, work, outcome
    )
    setups.append(setup)
    # Quality over a fixed prefix, so it does not depend on run length.
    quality = requests[: MIN_ROUNDS * ROUND]
    return end_to_end(
        setups,
        [r.latency for r in requests],
        [r.runtime for r in requests],
        statistics.median(r.displacement_sites for r in quality),
        statistics.median(r.max_displacement_sites for r in quality),
        peak_rss,
    )


def traced_service(design_path: str, variants_path: str, seed: int,
                   rounds: int, work: str, outcome: Outcome,
                   untraced_rounds: int) -> Dict[str, float]:
    """Per-layer metrics from a session against ``traced_server.py``,
    preceded by an untraced session (for the tracing overhead) when
    *untraced_rounds* is positive."""
    design, layout = _load_client_design(design_path, variants_path)
    base_p50 = None
    if untraced_rounds:
        _, plain, _, _ = serve(design, layout, seed, untraced_rounds, 0.0,
                               work, outcome)
        base_p50 = statistics.median(r.latency for r in plain)

    dump = os.path.join(work, "layers.json")
    clock = layers.LayerClock()
    _, requests, _, counters = serve(design, layout, seed, rounds, 0.0, work,
                                     outcome, dump=dump, clock=clock)
    with open(dump) as fh:
        server_ops = {int(op): row for op, row in json.load(fh).items()}
    client_ops = clock.per_op()
    rows = []
    for req in requests:
        row = dict(server_ops.get(req.index + 2, {}))
        row.update(client_ops.get(req.index + 2, {}))
        rows.append(row)
    metrics = layers.flow_medians(rows)
    metrics.update(layers.medians(rows, layers.REQUEST_METRICS))
    sweeps = {}
    for req in requests:
        sweeps.setdefault(req.cache, []).append(req.iterations)
    metrics["warm_hits"] = counters.get("repro_service_cache_hits", 0.0)
    metrics["warm_stale"] = counters.get("repro_service_cache_stale", 0.0)
    metrics["warm_sweeps_p50"] = _median_or_zero(sweeps.get("hit", []))
    metrics["stale_sweeps_p50"] = _median_or_zero(sweeps.get("stale", []))
    metrics["setup_reuse_hits"] = counters.get("repro_setup_cache_hit", 0.0)
    metrics["setup_reuse_misses"] = counters.get(
        "repro_setup_cache_miss", 0.0
    ) + counters.get("repro_setup_cache_stale", 0.0)
    traced_p50 = statistics.median(r.latency for r in requests)
    if base_p50 is not None:
        metrics["tracing_overhead_s"] = traced_p50 - base_p50
    request_layers = ("client_codec_s", "request_decode_s", "server_wait_s",
                      "server_solve_s", "response_encode_s")
    metrics["layer_coverage"] = statistics.median(
        sum(r.get(n, 0.0) for n in request_layers) for r in rows
    ) / traced_p50
    return metrics


def _median_or_zero(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def main(argv=None) -> int:
    # Before numpy is first imported, here and in every child.
    os.environ.update(THREAD_ENV)
    from inputs import WORKLOADS, write_inputs

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: program sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = WORKLOADS[args.workload]
    work = os.path.join(
        ROOT, ".perfbench_work", f"{workload.name}-{args.seed}-{os.getpid()}"
    )
    os.makedirs(work)
    outcome = Outcome()
    try:
        design, variants = write_inputs(workload, args.seed, work)
        if not workload.service:
            metrics = run_in_process(workload, design, variants, args.seconds,
                                     bool(args.trace), args.seed, work, outcome)
        elif args.trace:
            metrics = traced_service(design, variants, args.seed, TRACE_ROUNDS,
                                     work, outcome, untraced_rounds=TRACE_ROUNDS)
        else:
            metrics = run_service(design, variants, args.seconds, args.seed,
                                  work, outcome)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))
    units = metric_units(bool(args.trace))
    print("perfbench: threads " + " ".join(
        f"{k}={os.environ[k]}" for k in THREAD_ENV
    ) + f"; nproc={os.cpu_count()}")
    for problem in outcome.problems[:20]:
        print(f"perfbench: problem: {problem}")
    print(json.dumps({
        "correct": outcome.failed == 0 and not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

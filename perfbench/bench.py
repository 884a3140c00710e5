"""One benchmark run: set-up, open-loop phases, checks, metrics.

``--trace 0`` measures the end-to-end metrics: one server serves the
nominal phase, the output checks run on it, then the rate ladder runs
on the same server for ``slo_rps``.  ``--trace 1`` measures the
per-layer metrics: the first half of the nominal phase runs once
untraced and once, on a fresh server, traced; the relative change
in ``step_s_per_token`` is the tracing overhead.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import constants as C
from perfbench.checks import CheckResult, check_outputs
from perfbench.openloop import Phase, attainment, end_to_end, run_phase, slo_rps
from perfbench.report import (
    counters,
    layer_metrics,
    peak_rss_mb,
    storage_bytes_per_token,
)
from perfbench.server import Server, build_server
from perfbench.tracing import Tracer, instrument
from perfbench.workloads import Traffic


@dataclass
class RunResult:
    check: CheckResult
    attempted: int
    failed: int
    values: dict[str, float]
    counts: dict[str, int] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


def _nominal(server, workload: C.Workload, traffic: Traffic, seconds: float, **kw) -> Phase:
    return run_phase(
        server.frontend,
        traffic.stream(workload.rate_rps, seconds, phase=0),
        ttft_limit_s=workload.ttft_limit_s,
        drain_limit_s=C.DRAIN_LIMIT_S,
        **kw,
    )


def _failed(phase: Phase) -> int:
    return sum(1 for r in phase.records if not r.completed)


def _setup(traffic: Traffic) -> tuple[Server, float]:
    """Set up ``SETUP_REPEATS`` times; keep the last server, return the median time."""
    population = traffic.population()
    times = []
    server = None
    for _ in range(C.SETUP_REPEATS):
        if server is not None:
            server.close()
        server = build_server(population)
        times.append(server.setup_s)
    return server, statistics.median(times)


def measure(workload: C.Workload, traffic: Traffic, seconds: float, seed: int) -> RunResult:
    """End-to-end metrics of the nominal phase and the rate ladder."""
    server, setup_s = _setup(traffic)
    try:
        nominal = _nominal(server, workload, traffic, seconds)
        e2e = end_to_end(nominal, workload.ttft_limit_s, workload.itl_limit_s)
        rss_mb = peak_rss_mb()
        bytes_per_token = storage_bytes_per_token(server)
        check = check_outputs(server, nominal.records, seed)
        rungs = [(workload.rate_rps, e2e["slo_attainment"][0])]
        for index, multiple in enumerate(workload.ladder, start=1):
            if rungs[-1][1] < C.SLO_TARGET:
                break
            rate = workload.rate_rps * multiple
            rung = run_phase(
                server.frontend,
                traffic.stream(rate, C.RUNG_SECONDS, phase=index),
                ttft_limit_s=workload.ttft_limit_s,
                drain_limit_s=C.RUNG_DRAIN_S,
            )
            rungs.append((rate, attainment(rung, workload.ttft_limit_s, workload.itl_limit_s)))
    finally:
        server.close()
    values = {name: value for name, (value, _) in e2e.items()}
    counts = {name: n for name, (_, n) in e2e.items()}
    values.update(
        slo_rps=slo_rps(rungs, C.SLO_TARGET),
        storage_bytes_per_token=bytes_per_token,
        setup_s=setup_s,
        peak_rss_mb=rss_mb,
    )
    counts["slo_rps"] = len(rungs)
    ladder = ", ".join(f"{rate:.2f} req/s -> {reached:.2f}" for rate, reached in rungs)
    if rungs[-1][1] >= C.SLO_TARGET:
        ladder += " (every rung met: slo_rps is a lower bound)"
    return RunResult(
        check,
        attempted=len(nominal.records),
        failed=_failed(nominal),
        values=values,
        counts=counts,
        notes=[f"ladder (rate -> attainment): {ladder}"],
    )


def trace(
    workload: C.Workload, traffic: Traffic, seconds: float, seed: int, out_dir: Path
) -> RunResult:
    """Per-layer metrics of a traced nominal phase, plus its trace files."""
    seconds /= 2
    population = traffic.population()
    server = build_server(population)
    try:
        baseline = _nominal(server, workload, traffic, seconds).step_s_per_token()
    finally:
        server.close()

    server = build_server(population)
    tracer = Tracer()
    try:
        instrument(tracer, server)
        before = counters(server)
        phase = _nominal(
            server,
            workload,
            traffic,
            seconds,
            keep_stats=True,
            on_submit=lambda r: tracer.request_of.__setitem__(
                r.arrival.session_id, r.handle.request_id
            ),
        )
        after = counters(server)
        tracer.close()
        overhead = phase.step_s_per_token() / baseline - 1.0
        values = layer_metrics(tracer, phase, before, after, server, overhead)
        check = check_outputs(server, phase.records, seed)
    finally:
        tracer.close()
        server.close()
    stem = f"{workload.name}-seed{seed}"
    tracer.write_chrome_trace(out_dir / f"trace-{stem}.json")
    (out_dir / f"layers-{stem}.json").write_text(json.dumps(tracer.layer_table(), indent=1))
    return RunResult(
        check,
        attempted=len(phase.records),
        failed=_failed(phase),
        values=values,
        notes=[
            f"scheme: {server.hcache.scheme.describe()}",
            f"trace: {out_dir / f'trace-{stem}.json'} ({len(tracer.spans)} spans)",
        ],
    )

"""Metric assembly and printing for one benchmark run."""

from __future__ import annotations

import math
import resource

import numpy as np

from perfbench import constants as C
from perfbench.openloop import Phase
from perfbench.tracing import Tracer, overlap_frac

UNITS = {name: unit for name, unit, *_ in C.END_TO_END + C.REPORTED_ONLY + C.PER_LAYER}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def storage_bytes_per_token(server) -> float:
    """Storage-array bytes in use per saved context token."""
    tokens = sum(server.hcache.saved_tokens(c) for c in server.hcache.context_ids())
    return server.array.total_used_bytes / tokens if tokens else float("nan")


def counters(server) -> dict[str, float]:
    """Cumulative device, emulator and IO-pool counters."""
    reads = writes = 0
    busy = 0.0
    for device in server.array.devices:
        r, w = device.op_counts
        reads += r
        writes += w
        busy += device.busy_seconds
    emulator = server.array.latency_emulator
    return {
        "reads": reads,
        "writes": writes,
        "modelled_busy_s": busy,
        "slept_s": emulator.slept_s if emulator is not None else 0.0,
        "tasks": server.pool.tasks_submitted,
        "dispatch_s": server.pool.dispatch_s,
    }


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer,
    phase: Phase,
    before: dict[str, float],
    after: dict[str, float],
    server,
    overhead: float,
) -> dict[str, float]:
    """Every per-layer metric of the traced phase."""
    table = {row["span"]: row for row in tracer.layer_table()}

    def calls(name: str) -> int:
        return table.get(name, {}).get("calls", 0)

    def busy(name: str) -> float:
        return table.get(name, {}).get("busy_s", 0.0)

    def total(name: str, attr: str) -> float:
        return float(sum(s.attrs.get(attr, 0) for s in tracer.by_name(name)))

    worked = [s for s in phase.stats if s.model_calls]
    responses = [r.response for r in phase.records if r.response is not None]
    restores = [r.restore_seconds for r in responses if r.restore_seconds > 0]
    fused_tokens = total("models.forward_fused", "tokens")
    decode_rows = total("models.decode_batch", "rows")
    restore_tokens = total("core.restore", "tokens")
    token_layers = total("core.restore", "token_layers")
    return {
        "engine.step.calls": calls("engine.step"),
        "engine.step.busy_s": busy("engine.step"),
        "engine.step.self_s": table.get("engine.step", {}).get("self_s", 0.0),
        "engine.step.idle_polls": len(phase.stats) - len(worked),
        "engine.batch.segments_mean": float(np.mean([s.batch_size for s in worked]))
        if worked
        else 0.0,
        "engine.batch.prefill_tokens_mean": float(np.mean([s.prefill_tokens for s in worked]))
        if worked
        else 0.0,
        "engine.queue.wait_p50_s": _pct([r.admitted_at - r.arrival_time for r in responses], 50),
        "engine.queue.wait_p90_s": _pct([r.admitted_at - r.arrival_time for r in responses], 90),
        "engine.queue.depth_max": phase.queue_depth_max,
        "engine.admission.rejected": server.frontend.rejected_requests,
        "models.forward_fused.calls": calls("models.forward_fused"),
        "models.forward_fused.busy_s": busy("models.forward_fused"),
        "models.forward_fused.tokens": fused_tokens,
        "models.forward_fused.us_per_token": 1e6 * _ratio(busy("models.forward_fused"), fused_tokens),
        "models.decode_batch.calls": calls("models.decode_batch"),
        "models.decode_batch.busy_s": busy("models.decode_batch"),
        "models.decode_batch.rows_mean": _ratio(decode_rows, calls("models.decode_batch")),
        "models.decode_batch.us_per_row": 1e6 * _ratio(busy("models.decode_batch"), decode_rows),
        "core.restore.calls": calls("core.restore"),
        "core.restore.busy_s": busy("core.restore"),
        "core.restore.tokens": restore_tokens,
        "core.restore.us_per_token": 1e6 * _ratio(busy("core.restore"), restore_tokens),
        "core.restore.wait_p50_s": _pct(restores, 50),
        "core.restore.wait_p90_s": _pct(restores, 90),
        "core.c_h_us": 1e6 * _ratio(total("core.restore", "projection_s"), token_layers),
        "core.save_states.calls": calls("core.save_states"),
        "core.save_states.busy_s": busy("core.save_states"),
        "core.save_states.rows": total("core.save_states", "rows"),
        "core.seal.calls": calls("core.seal"),
        "core.seal.busy_s": busy("core.seal"),
        "runtime.restores_started": sum(len(s.restores_started) for s in phase.stats),
        "runtime.io_pool.tasks": after["tasks"] - before["tasks"],
        "runtime.io_pool.dispatch_s": after["dispatch_s"] - before["dispatch_s"],
        "runtime.restore.overlap_frac": overlap_frac(tracer),
        "storage.read.calls": calls("storage.read"),
        "storage.read.busy_s": busy("storage.read"),
        "storage.read.bytes": total("storage.read", "bytes"),
        "storage.append.calls": calls("storage.append"),
        "storage.append.busy_s": busy("storage.append"),
        "storage.append.bytes": total("storage.append", "bytes"),
        "storage.device.reads": after["reads"] - before["reads"],
        "storage.device.writes": after["writes"] - before["writes"],
        "storage.device.modelled_busy_s": after["modelled_busy_s"] - before["modelled_busy_s"],
        "storage.emulator.slept_s": after["slept_s"] - before["slept_s"],
        "storage.io_h_us": 1e6 * _ratio(total("core.restore", "modelled_io_s"), token_layers),
        "storage.used_bytes": server.array.total_used_bytes,
        "harness.gen_lag_p90_s": _pct(
            [r.submitted_at - r.due for r in phase.records if not math.isnan(r.submitted_at)],
            90,
        ),
        "harness.trace_overhead_frac": overhead,
    }


def regime(c_h_us: float, io_h_us: float) -> str:
    """Where restores sit in the section 4.1.2 regimes (IO_H vs C_H)."""
    if not c_h_us or not io_h_us:
        return "no restores in this run"
    ratio = io_h_us / c_h_us
    kind = "IO-bound" if ratio > 1.25 else "compute-bound" if ratio < 0.8 else "balanced"
    return f"{kind} (IO_H / C_H = {ratio:.2f})"


def print_metrics(values: dict[str, float], counts: dict[str, int] | None = None) -> None:
    """One line per metric: value, unit, sample count; unbounded ones marked."""
    unbounded = {name for name, _ in C.REPORTED_ONLY}
    for name, value in values.items():
        count = f"  (n={counts[name]})" if counts and name in counts else ""
        mark = "  [no bound]" if name in unbounded else ""
        print(f"  {name:<36} {value:>14.6g} {UNITS[name]}{count}{mark}")


def result_line(correct: bool, attempted: int, failed: int, values: dict[str, float]) -> dict:
    """The JSON result; a metric that could not be measured is null and not correct."""
    finite = all(math.isfinite(v) for v in values.values())
    return {
        "correct": bool(correct) and finite,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value) if math.isfinite(value) else None, "unit": UNITS[name]}
            for name, value in values.items()
        },
    }

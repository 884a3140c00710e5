"""Self-test of the benchmark harness, at a tiny size.

Run from the repository root::

    python3 -m pytest perfbench -q

It drives each workload generator, the metric plumbing and the trace
plumbing, checks that every metric ``BENCHMARK.json`` names is emitted,
and that one seed always produces the same request stream.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import bench, constants as C  # noqa: E402
from perfbench.openloop import slo_rps  # noqa: E402
from perfbench.server import MODEL_CONFIG  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from perfbench.workloads import TRAFFIC  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _stream_key(traffic, phase: int) -> list[tuple]:
    return [
        (a.due_s, a.session_id, tuple(a.prompt.tolist()), a.max_new_tokens)
        for a in traffic.stream(5.0, 3.0, phase)
    ]


@pytest.mark.parametrize("name", sorted(TRAFFIC))
def test_same_seed_same_requests(name):
    make = TRAFFIC[name]
    a, b, other = (make(seed, MODEL_CONFIG.vocab_size) for seed in (7, 7, 8))
    assert _stream_key(a, 0) == _stream_key(b, 0)
    assert _stream_key(a, 0) != _stream_key(other, 0)
    assert _stream_key(a, 0) != _stream_key(a, 1)
    pa, pb = a.population(), b.population()
    assert pa.histories == pb.histories
    assert np.array_equal(pa.base_tokens, pb.base_tokens)
    for arrival in a.stream(5.0, 3.0, 0):
        assert arrival.prompt.size > 0 and arrival.max_new_tokens >= 2
        assert arrival.session_id in pa.histories or not pa.histories


def test_benchmark_json_matches_spec():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == C.benchmark_spec()
    names = [m["name"] for m in committed["end_to_end"] + committed["per_layer"]]
    names += [w["name"] for w in committed["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 for w in committed["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in committed["end_to_end"])
    assert "setup_s" in {m["name"] for m in committed["end_to_end"]}


def test_slo_rps_interpolates_between_last_met_and_first_missed():
    assert slo_rps([(4.0, 1.0), (5.0, 0.95), (6.0, 0.85)], 0.9) == pytest.approx(5.5)
    assert slo_rps([(4.0, 1.0), (5.0, 0.95)], 0.9) == 5.0
    assert slo_rps([(4.0, 0.8)], 0.9) == pytest.approx(2.0)


def test_self_time_subtracts_direct_children():
    class Layer:
        def outer(self):
            self.inner()
            self.inner()

        def inner(self):
            sum(range(20000))

    layer = Layer()
    tracer = Tracer()
    tracer.wrap(layer, "outer", "a.outer")
    tracer.wrap(layer, "inner", "a.inner")
    layer.outer()
    tracer.close()
    assert "outer" not in vars(layer)
    rows = {row["span"]: row for row in tracer.layer_table()}
    assert rows["a.inner"]["calls"] == 2
    assert rows["a.outer"]["self_s"] == pytest.approx(
        rows["a.outer"]["busy_s"] - rows["a.inner"]["busy_s"]
    )
    inner = tracer.by_name("a.inner")
    assert {s.parent for s in inner} == {tracer.by_name("a.outer")[0].span_id}


def test_measured_run_emits_every_end_to_end_metric(monkeypatch):
    monkeypatch.setattr(C, "RUNG_SECONDS", 0.4)
    workload = C.WORKLOADS["cold"]
    result = bench.measure(workload, TRAFFIC["cold"](3, MODEL_CONFIG.vocab_size), 1.0, 3)
    assert result.check.ok, result.check.problems
    assert result.attempted >= 1
    assert {m["name"] for m in C.benchmark_spec()["end_to_end"]} <= set(result.values)


def test_traced_run_emits_every_layer_metric_and_a_chrome_trace(tmp_path):
    workload = C.WORKLOADS["chat"]
    result = bench.trace(workload, TRAFFIC["chat"](3, MODEL_CONFIG.vocab_size), 1.0, 3, tmp_path)
    assert result.check.ok, result.check.problems
    assert {m["name"] for m in C.benchmark_spec()["per_layer"]} == set(result.values)
    assert result.values["core.restore.calls"] > 0
    events = json.loads((tmp_path / "trace-chat-seed3.json").read_text())["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    assert {"engine.step", "core.restore", "storage.read"} <= {e["name"] for e in spans}
    assert all(e["dur"] >= 0 for e in spans)

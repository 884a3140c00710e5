#!/usr/bin/env python3
"""Serving benchmark: open-loop traffic through ``ServingFrontend``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload longctx --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --emit-spec > BENCHMARK.json

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The exit code is 1 when the output check fails and 2 when the program
under test (``src/``) cannot be imported.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import constants as C  # noqa: E402  (needs the path above)

# Pinned before numpy is first imported, so BLAS starts with this many threads.
for _var in C.BLAS_ENV_VARS:
    os.environ[_var] = str(C.BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402

OUT_DIR = Path(__file__).resolve().parent / "out"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(C.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=C.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--emit-spec", action="store_true", help="print BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if not args.emit_spec and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def describe_server(workload: C.Workload) -> None:
    m, ssd = C.MODEL, C.SSD
    print(
        f"model {m['name']}: {m['n_layers']} layers, hidden {m['hidden_size']}, "
        f"{m['n_heads']}x{m['hidden_size'] // m['n_heads']} MHA, FFN {m['ffn_hidden_size']}, "
        f"vocab {m['vocab_size']}"
    )
    print(
        f"storage {ssd['name']}: read {ssd['read_gb_s']} GB/s, write {ssd['write_gb_s']} GB/s, "
        f"latency {ssd['io_latency_s'] * 1e6:g} us, emulated"
    )
    print(
        f"server: KV budget {C.KV_BUDGET_TOKENS} tokens, SplitFuse {C.SPLITFUSE_TOKENS} tokens, "
        f"max running {C.MAX_RUNNING}, evict on finish; threads: BLAS {C.BLAS_THREADS}, "
        f"IO pool {C.IO_POOL_WORKERS}, restore threads {C.RESTORE_THREADS}"
    )
    print(
        f"workload {workload.name}: {workload.rate_rps:g} req/s open loop, ladder x"
        f"{', x'.join(f'{m:g}' for m in workload.ladder)}, SLO TTFT <= "
        f"{workload.ttft_limit_s:g} s and mean ITL <= {workload.itl_limit_s:g} s"
    )


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.emit_spec:
        print(json.dumps(C.benchmark_spec(), indent=2))
        return 0
    try:
        from perfbench import bench, report
        from perfbench.server import MODEL_CONFIG
        from perfbench.workloads import TRAFFIC
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        return 2

    workload = C.WORKLOADS[args.workload]
    traffic = TRAFFIC[workload.name](args.seed, MODEL_CONFIG.vocab_size)
    describe_server(workload)
    if args.trace:
        result = bench.trace(workload, traffic, args.seconds, args.seed, OUT_DIR)
        values = result.values
        print(
            f"regime: C_H {values['core.c_h_us']:.2f} us, IO_H {values['storage.io_h_us']:.2f} us "
            f"per token-layer: {report.regime(values['core.c_h_us'], values['storage.io_h_us'])}"
        )
    else:
        result = bench.measure(workload, traffic, args.seconds, args.seed)
    for note in result.notes:
        print(note)
    print(f"requests: {result.attempted} sent, {result.failed} failed")
    report.print_metrics(result.values, result.counts)
    check = result.check
    print(
        f"check: sessions {', '.join(check.sessions)}; tokens {check.tokens_matched}/"
        f"{check.tokens_checked} match the greedy replay (rate {check.match_rate:.4f}, "
        f"need >= {C.TOKEN_MATCH_MIN}); restored KV bit-exact: "
        f"{'yes' if not any('restored' in p for p in check.problems) else 'NO'}"
    )
    for problem in check.problems:
        print(f"check FAILED: {problem}")
    listed = C.PER_LAYER if args.trace else C.END_TO_END
    metrics = {name: result.values[name] for name, *_ in listed}
    print(json.dumps(report.result_line(check.ok, result.attempted, result.failed, metrics)))
    return 0 if check.ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Output checks run in the same command as the measurement.

1. Every request must end with exactly its ``max_new_tokens`` tokens;
   the rest count as failed.
2. For a few sampled sessions, the stored token log must be the seeded
   history followed by each served round's prompt and tokens.
3. The same sessions' restored KV must be bit-exact: HIDDEN layers
   against the reference projection (``Transformer.project_kv``, the
   operator ``repro.models.reference`` replays layer by layer) of the
   stored hidden states, KV layers against the stored KV rows.
4. Their token streams must match a teacher-forced greedy replay of the
   token log on top of the restored history at the stated match rate;
   a mismatch is allowed only where the served token's replay logit is
   within ``BATCHED_DECODE_ATOL`` of the maximum, because open-loop
   batch composition changes GEMM shapes and so rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from perfbench import constants as C
from perfbench.openloop import Record
from repro.models.kv_cache import KVCache
from repro.models.transformer import BATCHED_DECODE_ATOL
from repro.simulator.pipeline import LayerMethod

REPLAY_CHUNK = 64


@dataclass
class CheckResult:
    sessions: list[str] = field(default_factory=list)
    tokens_checked: int = 0
    tokens_matched: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def match_rate(self) -> float:
        return self.tokens_matched / self.tokens_checked if self.tokens_checked else 1.0

    @property
    def ok(self) -> bool:
        return not self.problems and self.match_rate >= C.TOKEN_MATCH_MIN


def pick_sessions(records: list[Record], seed: int) -> list[str]:
    """The most-served session plus seeded picks among the others.

    Only sessions whose every request completed are eligible.
    """
    rounds: dict[str, int] = {}
    unfinished = {r.arrival.session_id for r in records if not r.completed}
    for record in records:
        sid = record.arrival.session_id
        if sid not in unfinished:
            rounds[sid] = rounds.get(sid, 0) + 1
    if not rounds:
        return []
    ordered = sorted(rounds, key=lambda s: (-rounds[s], s))
    rest = ordered[1:]
    rng = np.random.default_rng(seed)
    extra = rng.choice(len(rest), size=min(len(rest), C.CHECK_SESSIONS - 1), replace=False)
    return [ordered[0]] + [rest[int(i)] for i in sorted(extra)]


def check_restore(server, session_id: str, result: CheckResult) -> KVCache:
    """Restore ``session_id`` and compare it with the reference; return it."""
    model, storage = server.model, server.storage
    cache = server.hcache.restore(session_id)
    positions = np.arange(len(cache))
    for layer, method in enumerate(server.hcache.scheme.methods):
        keys, values = cache.get(layer)
        if method is LayerMethod.HIDDEN:
            ref_k, ref_v = model.project_kv(
                layer, storage.load_layer(session_id, layer, "hidden"), positions
            )
            exact = np.array_equal(keys, ref_k) and np.array_equal(values, ref_v)
        elif method is LayerMethod.KV:
            packed = storage.load_layer(session_id, layer, "kv")
            exact = np.array_equal(cache.packed_rows(layer, 0, len(cache)), packed)
        else:
            continue
        if not exact:
            result.problems.append(
                f"{session_id}: restored layer {layer} ({method.value}) differs from reference"
            )
    return cache


def check_replay(
    server, session_id: str, records: list[Record], cache: KVCache, result: CheckResult
) -> None:
    """Teacher-forced greedy replay of the session's served rounds."""
    seeded = server.histories.get(session_id, 0)
    log = np.asarray(server.hcache.token_log(session_id))
    expected = [log[:seeded]]
    generated: list[int] = []
    at = seeded
    for record in records:
        prompt = record.arrival.prompt
        tokens = np.asarray(record.response.tokens)
        expected += [prompt, tokens]
        at += prompt.size
        generated.extend(range(at, at + tokens.size))
        at += tokens.size
    if not np.array_equal(np.concatenate(expected), log):
        result.problems.append(f"{session_id}: token log is not history + prompts + outputs")
        return
    cache.truncate(seeded)
    cache.reserve(log.size)
    logits = np.concatenate(
        [
            server.model.forward(log[start : min(start + REPLAY_CHUNK, log.size - 1)], cache).logits
            for start in range(seeded, log.size - 1, REPLAY_CHUNK)
        ]
    )
    for index in generated:
        row = logits[index - 1 - seeded]
        served = int(log[index])
        result.tokens_checked += 1
        best = int(np.argmax(row))
        if best == served:
            result.tokens_matched += 1
        elif row[best] - row[served] > BATCHED_DECODE_ATOL:
            result.problems.append(
                f"{session_id}: token {index} is {served}, replay says {best} "
                f"by a logit gap of {row[best] - row[served]:.2e}"
            )


def check_outputs(server, records: list[Record], seed: int) -> CheckResult:
    """Run checks 2-4 on sampled sessions of ``records`` (all finished)."""
    result = CheckResult()
    for session_id in pick_sessions(records, seed):
        result.sessions.append(session_id)
        served = [r for r in records if r.arrival.session_id == session_id and r.completed]
        cache = check_restore(server, session_id, result)
        check_replay(server, session_id, served, cache, result)
    return result

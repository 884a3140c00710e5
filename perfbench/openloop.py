"""Open-loop client: sends requests on their due times, watches tokens.

The client loop is the only caller of ``ServingFrontend.submit``/``step``.
Each request is timed from its due time, not from when the loop got
round to sending it, so a stall shows in every request it delays.  Token
times are observed from outside: after each ``step()`` the loop reads
every live ``RequestHandle.tokens()`` and stamps the new ones.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from perfbench.workloads import Arrival
from repro.engine.api import ServingRequest, ServingResponse
from repro.engine.frontend import RequestHandle, ServingFrontend
from repro.errors import AdmissionError

#: Lead time between building the schedule and its first due time.
START_DELAY_S = 0.01


@dataclass
class Record:
    """What the client saw of one request."""

    arrival: Arrival
    due: float
    submitted_at: float = float("nan")
    #: ``None`` until submitted, and after an ``AdmissionError``.
    handle: RequestHandle | None = None
    token_times: list[float] = field(default_factory=list)
    response: ServingResponse | None = None

    @property
    def completed(self) -> bool:
        return (
            self.response is not None
            and len(self.response.tokens) == self.arrival.max_new_tokens
        )

    @property
    def ttft(self) -> float:
        return self.token_times[0] - self.due

    @property
    def gaps(self) -> np.ndarray:
        return np.diff(self.token_times)


#: ``step_s_per_token`` cuts a phase's model-running steps, in order,
#: into this many groups of about equal generated-token counts and takes
#: the median of the groups' seconds per token, so a few seconds of a
#: slowed host move one group, not the figure.
STEP_GROUPS = 8


@dataclass
class Phase:
    """One open-loop phase: its records and the loop's own counters."""

    records: list[Record]
    #: Seconds of each ``step()`` call that ran the model, in order.
    step_times: list[float]
    #: Tokens the requests gained in each of those calls.
    step_tokens: list[int]
    queue_depth_max: int
    #: Every ``IterationStats`` (only when asked for).
    stats: list = field(default_factory=list)

    def step_s_per_token(self) -> float:
        """Serving-thread seconds of model-running steps per generated token.

        The median over ``STEP_GROUPS`` consecutive groups of steps, each
        group's step seconds over its tokens; every step counts in one group.
        """
        total = sum(self.step_tokens)
        if not total:
            return float("nan")
        seconds = np.zeros(STEP_GROUPS)
        tokens = np.zeros(STEP_GROUPS)
        done = 0
        for step_s, gained in zip(self.step_times, self.step_tokens):
            group = min(STEP_GROUPS - 1, done * STEP_GROUPS // total)
            seconds[group] += step_s
            tokens[group] += gained
            done += gained
        filled = tokens > 0
        return float(np.median(seconds[filled] / tokens[filled]))


def run_phase(
    frontend: ServingFrontend,
    arrivals: list[Arrival],
    *,
    ttft_limit_s: float,
    drain_limit_s: float,
    keep_stats: bool = False,
    on_submit=None,
) -> Phase:
    """Serve ``arrivals`` open loop; stop once drained or past the limit.

    Requests still unfinished ``drain_limit_s`` after the last due time
    are left unfinished and count as failed.  ``on_submit(record)`` runs
    after each submit (the tracer uses it to map sessions to requests).
    """
    clock = time.perf_counter
    start = clock() + START_DELAY_S
    records = [Record(a, start + a.due_s) for a in arrivals]
    last_due = records[-1].due if records else start
    stop_at = last_due + drain_limit_s
    live: list[Record] = []
    nxt = 0
    step_times: list[float] = []
    step_tokens: list[int] = []
    depth_max = 0
    stats = []
    while True:
        now = clock()
        while nxt < len(records) and records[nxt].due <= now:
            record = records[nxt]
            nxt += 1
            arrival = record.arrival
            try:
                record.handle = frontend.submit(
                    ServingRequest(
                        session_id=arrival.session_id,
                        prompt_tokens=arrival.prompt,
                        max_new_tokens=arrival.max_new_tokens,
                        arrival_time=record.due,
                        slo_ttft_s=ttft_limit_s,
                    )
                )
            except AdmissionError:
                pass  # refused: never completes, so it counts as failed
            record.submitted_at = clock()
            if record.handle is not None:
                live.append(record)
                if on_submit is not None:
                    on_submit(record)
        depth_max = max(depth_max, frontend.queue_depth)
        if nxt >= len(records) and not live:
            break
        if now > stop_at:
            break
        if frontend.idle:
            if nxt < len(records):
                time.sleep(max(0.0, min(records[nxt].due - clock(), 0.002)))
            continue
        t0 = clock()
        iteration = frontend.step()
        seen = clock()
        if keep_stats:
            stats.append(iteration)
        gained = 0
        still_live = []
        for record in live:
            handle = record.handle
            produced = len(handle.tokens())
            gained += produced - len(record.token_times)
            while len(record.token_times) < produced:
                record.token_times.append(seen)
            if handle.finished:
                record.response = handle.result()
            else:
                still_live.append(record)
        live = still_live
        if iteration.model_calls:
            step_times.append(seen - t0)
            step_tokens.append(gained)
    return Phase(
        records=records,
        step_times=step_times,
        step_tokens=step_tokens,
        queue_depth_max=depth_max,
        stats=stats,
    )


def attainment(phase: Phase, ttft_limit_s: float, itl_limit_s: float) -> float:
    """Share of sent requests meeting both limits; failures are misses."""
    if not phase.records:
        return 0.0
    met = 0
    for record in phase.records:
        if not record.completed:
            continue
        gaps = record.gaps
        mean_gap = float(gaps.mean()) if gaps.size else 0.0
        if record.ttft <= ttft_limit_s and mean_gap <= itl_limit_s:
            met += 1
    return met / len(phase.records)


def slo_rps(rungs: list[tuple[float, float]], target: float) -> float:
    """Highest rate meeting ``target``, interpolated in attainment.

    ``rungs`` is ``[(rate, attainment), ...]`` in the order they ran,
    starting with the nominal rate; the ladder stopped at the first miss.
    A missed nominal rate interpolates from (0 req/s, attainment 1).
    """
    last_met = (0.0, 1.0)
    for rate, reached in rungs:
        if reached < target:
            met_rate, met_reached = last_met
            share = (met_reached - target) / (met_reached - reached)
            return met_rate + share * (rate - met_rate)
        last_met = (rate, reached)
    return last_met[0]


def end_to_end(phase: Phase, ttft_limit_s: float, itl_limit_s: float) -> dict:
    """The nominal phase's latency metrics, with their sample counts."""
    done = [r for r in phase.records if r.completed]
    ttfts = np.array([r.ttft for r in done])
    gaps = np.concatenate([r.gaps for r in done]) if done else np.zeros(0)
    failed = len(phase.records) - len(done)
    return {
        "ttft_p50_s": (float(np.median(ttfts)) if ttfts.size else float("nan"), ttfts.size),
        "ttft_p90_s": (
            float(np.percentile(ttfts, 90)) if ttfts.size else float("nan"),
            ttfts.size,
        ),
        "itl_p50_s": (float(np.median(gaps)) if gaps.size else float("nan"), gaps.size),
        "itl_p99_s": (
            float(np.percentile(gaps, 99)) if gaps.size else float("nan"),
            gaps.size,
        ),
        "slo_attainment": (attainment(phase, ttft_limit_s, itl_limit_s), len(phase.records)),
        "step_s_per_token": (phase.step_s_per_token(), sum(phase.step_tokens)),
        "failed_frac": (failed / max(1, len(phase.records)), len(phase.records)),
    }

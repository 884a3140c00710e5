"""Seeded traffic for the three workloads, built on ``repro.traces``.

A workload is a session population (histories the server holds before
timing starts) plus open-loop request streams: Poisson due times at a
fixed rate, each request naming a session, a prompt and an output
budget.  The same seed gives the same population and streams; the
server sees only the generated ``ServingRequest`` fields.

Lengths are the paper's traces scaled down for a CPU: ShareGPT rounds
of ~16 prompt and ~32 output tokens over histories of a few hundred
tokens, L-Eval documents of ~1k tokens with ~16-token questions and
~12-token answers, and RAG prompts of 96-192 new tokens.

Seeded histories are prefixes of one base token sequence per workload,
so set-up prefills that sequence once and every session's stored states
are exactly the states the model computes for its own history (states
are causal: a prefix's states do not depend on later tokens).  No
configuration here shares storage between sessions, so the shared
prefixes cost the same to restore as distinct texts would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.traces.arrival import poisson_arrival_times
from repro.traces.leval import LEVAL_TASKS, LEvalGenerator
from repro.traces.sharegpt import ShareGPTGenerator
from repro.traces.zipf import ZipfianSampler

#: chat: population size, Zipf skew, and the least time between two due
#: rounds of one session (a user reads the answer before replying; without
#: it the hottest session's rounds would queue behind each other forever).
CHAT_SESSIONS = 32
CHAT_ZIPF_ALPHA = 0.8
CHAT_ROUND_GAP_S = 3.0
CHAT_PROMPT_MEAN = 16
CHAT_OUTPUT_MEAN = 32
CHAT_ROUND_MAX = 64
CHAT_SIGMA = 0.5
CHAT_HISTORY_MIN = 128
CHAT_HISTORY_MAX = 512

#: longctx: documents, one session each, scaled from L-Eval "quality"
#: (Table 1: 7054-token context, 92-token question, 19-token answer).
LONGCTX_DOCS = 12
LONGCTX_TASK = "quality"
LONGCTX_DOC_MEAN = 900
LONGCTX_DOC_MIN = 768
LONGCTX_DOC_MAX = 1024
LONGCTX_QUESTION_MEAN = 16
LONGCTX_ANSWER_MEAN = 12
LONGCTX_GAP_S = 1.0

#: cold: every request opens a new session.
COLD_PROMPT_MIN = 96
COLD_PROMPT_MAX = 192
COLD_ANSWER_MIN = 8
COLD_ANSWER_MAX = 16


@dataclass(frozen=True)
class Arrival:
    """One request of an open-loop stream, due ``due_s`` after phase start."""

    due_s: float
    session_id: str
    prompt: np.ndarray
    max_new_tokens: int


@dataclass(frozen=True)
class Population:
    """Sessions the server holds before timing starts.

    Session ``s`` has the history ``base_tokens[:histories[s]]``.
    """

    base_tokens: np.ndarray
    histories: dict[str, int]


def _due_times(rate_rps: float, seconds: float, seed: int) -> np.ndarray:
    """The first ``rate * seconds`` Poisson due times: a fixed count per phase."""
    return poisson_arrival_times(rate_rps, max(1, round(rate_rps * seconds)), seed=seed)


def _pick_free(sampler: ZipfianSampler, free_at: np.ndarray, due: float) -> int:
    """Draw a session out of its round gap; else the one free soonest.

    Depends only on the schedule, never on how fast the server ran.
    """
    for _ in range(64):
        index = int(sampler.sample(1)[0])
        if free_at[index] <= due:
            return index
    return int(np.argmin(free_at))


class Traffic:
    """Population and stream generator of one workload."""

    name: str = ""

    def __init__(self, seed: int, vocab_size: int) -> None:
        self.seed = seed
        self.vocab_size = vocab_size

    def population(self) -> Population:
        return Population(np.zeros(0, dtype=np.int64), {})

    def stream(self, rate_rps: float, seconds: float, phase: int) -> list[Arrival]:
        raise NotImplementedError

    def _phase_seed(self, phase: int) -> int:
        return self.seed * 1009 + phase * 7919 + 1

    def _tokens(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.integers(0, self.vocab_size, size=n)


class ChatTraffic(Traffic):
    name = "chat"

    def population(self) -> Population:
        lengths = ShareGPTGenerator(
            seed=self.seed,
            mean_input=CHAT_PROMPT_MEAN,
            mean_output=CHAT_OUTPUT_MEAN,
            mean_rounds=8,
            sigma=CHAT_SIGMA,
            max_history=CHAT_HISTORY_MAX,
            max_round_tokens=CHAT_ROUND_MAX,
        )
        histories = {}
        for i in range(CHAT_SESSIONS):
            sid = f"chat-{i}"
            context = lengths.sample_conversation(sid).final_context
            histories[sid] = int(np.clip(context, CHAT_HISTORY_MIN, CHAT_HISTORY_MAX))
        rng = np.random.default_rng(self.seed)
        return Population(self._tokens(rng, CHAT_HISTORY_MAX), histories)

    def stream(self, rate_rps: float, seconds: float, phase: int) -> list[Arrival]:
        seed = self._phase_seed(phase)
        sampler = ZipfianSampler(CHAT_SESSIONS, CHAT_ZIPF_ALPHA, seed=seed)
        rounds = ShareGPTGenerator(
            seed=seed + 1,
            mean_input=CHAT_PROMPT_MEAN,
            mean_output=CHAT_OUTPUT_MEAN,
            sigma=CHAT_SIGMA,
            max_round_tokens=CHAT_ROUND_MAX,
        )
        rng = np.random.default_rng(seed + 2)
        free_at = np.zeros(CHAT_SESSIONS)
        arrivals = []
        for due in _due_times(rate_rps, seconds, seed + 3):
            index = _pick_free(sampler, free_at, float(due))
            free_at[index] = due + CHAT_ROUND_GAP_S
            prompt, output = rounds.sample_round()
            arrivals.append(
                Arrival(float(due), f"chat-{index}", self._tokens(rng, prompt), max(2, output))
            )
        return arrivals


class LongContextTraffic(Traffic):
    name = "longctx"

    def _scaled(self, request) -> tuple[int, int, int]:
        task = LEVAL_TASKS[LONGCTX_TASK]
        doc = round(request.context_tokens * LONGCTX_DOC_MEAN / task.mean_context)
        question = round(request.input_tokens * LONGCTX_QUESTION_MEAN / task.mean_input)
        answer = round(request.output_tokens * LONGCTX_ANSWER_MEAN / task.mean_output)
        return (
            int(np.clip(doc, LONGCTX_DOC_MIN, LONGCTX_DOC_MAX)),
            int(np.clip(question, 4, 4 * LONGCTX_QUESTION_MEAN)),
            int(np.clip(answer, 2, 4 * LONGCTX_ANSWER_MEAN)),
        )

    def population(self) -> Population:
        docs = LEvalGenerator(seed=self.seed).sample_context_pool(LONGCTX_TASK, LONGCTX_DOCS)
        histories = {f"doc-{i}": self._scaled(doc)[0] for i, doc in enumerate(docs)}
        rng = np.random.default_rng(self.seed)
        return Population(self._tokens(rng, LONGCTX_DOC_MAX), histories)

    def stream(self, rate_rps: float, seconds: float, phase: int) -> list[Arrival]:
        seed = self._phase_seed(phase)
        sampler = ZipfianSampler(LONGCTX_DOCS, None, seed=seed)
        questions = LEvalGenerator(seed=seed + 1)
        rng = np.random.default_rng(seed + 2)
        free_at = np.zeros(LONGCTX_DOCS)
        arrivals = []
        for n, due in enumerate(_due_times(rate_rps, seconds, seed + 3)):
            index = _pick_free(sampler, free_at, float(due))
            free_at[index] = due + LONGCTX_GAP_S
            _, question, answer = self._scaled(
                questions.sample_request(LONGCTX_TASK, f"q{n}")
            )
            arrivals.append(
                Arrival(float(due), f"doc-{index}", self._tokens(rng, question), answer)
            )
        return arrivals


class ColdTraffic(Traffic):
    name = "cold"

    def stream(self, rate_rps: float, seconds: float, phase: int) -> list[Arrival]:
        seed = self._phase_seed(phase)
        rng = np.random.default_rng(seed)
        arrivals = []
        for n, due in enumerate(_due_times(rate_rps, seconds, seed + 3)):
            prompt = int(rng.integers(COLD_PROMPT_MIN, COLD_PROMPT_MAX + 1))
            answer = int(rng.integers(COLD_ANSWER_MIN, COLD_ANSWER_MAX + 1))
            arrivals.append(
                Arrival(float(due), f"cold-p{phase}-{n}", self._tokens(rng, prompt), answer)
            )
        return arrivals


TRAFFIC: dict[str, type[Traffic]] = {
    cls.name: cls for cls in (ChatTraffic, LongContextTraffic, ColdTraffic)
}

"""Fixture: hot-path allocations the rule must reject (6 seeded).

The test injects a manifest listing ``step``, ``attend`` and
``Decoder.advance`` (and
a ``Decoder.gone`` that does not exist, to exercise the staleness guard).
"""

import numpy as np


def step(xs, out):
    joined = np.concatenate(xs)
    dup = out.copy()
    flat = np.ascontiguousarray(out)
    parts = []
    for x in xs:
        parts.append(x)
    return joined, dup, flat, parts


def attend(queries, keys):
    # The unblocked contraction the BLAS attention kernel replaced.
    return np.einsum("qhd,khd->hqk", queries, keys)


class Decoder:
    def advance(self, token):
        return np.vstack([token, token])

"""Seeded input generators for the benchmark workloads.

The library only ever sees the ``NLIExample`` lists built here; the seed is
the sole source of randomness, so one seed always gives the same inputs.
"""

from __future__ import annotations

import math
import string
from statistics import NormalDist

import numpy as np

from nliattn import synth
from nliattn.data import LABELS, NLIExample

# MultiNLI sentence lengths: premises average about 22 tokens and
# hypotheses about 11, both right-skewed with a long tail.
PREMISE_MEAN, PREMISE_SIGMA, PREMISE_CAP = 22.0, 0.55, 80
HYPOTHESIS_MEAN, HYPOTHESIS_SIGMA, HYPOTHESIS_CAP = 11.0, 0.45, 40
ZIPF_EXPONENT = 1.0
_NORMAL = NormalDist()


def stratified_lengths(strata: np.ndarray, mean: float, sigma: float, cap: int) -> list[int]:
    """Log-normal token counts with the given mean, one per stratum.

    ``strata`` is a permutation of range(n).  Sentence i gets the length at
    the middle of stratum ``strata[i]`` of n equal-probability strata, so
    the length histogram, its longest sentence and the total work it
    implies are the same for every seed; only their order changes.
    """
    n = len(strata)
    mu = math.log(mean) - sigma * sigma / 2.0
    return [
        int(min(cap, max(1, round(math.exp(mu + sigma * _NORMAL.inv_cdf((k + 0.5) / n))))))
        for k in strata
    ]


def word_types(n_types: int, rng: np.random.Generator) -> list[str]:
    """Distinct lowercase word types in rank order.  Their lengths are the
    quantiles of a log-normal (median 6 letters), shortest first, so
    frequent words are short as in natural text and the length of each rank
    does not depend on the seed."""
    letters = np.array(list(string.ascii_lowercase))
    quantiles = (_NORMAL.inv_cdf((i + 0.5) / n_types) for i in range(n_types))
    lengths = [int(min(16, max(1, round(6.0 * math.exp(0.4 * z))))) for z in quantiles]
    seen: set[str] = set()
    types: list[str] = []
    for length in lengths:
        word = "".join(rng.choice(letters, size=length))
        while word in seen:
            word = "".join(rng.choice(letters, size=length))
        seen.add(word)
        types.append(word)
    return types


def _pairs(n, group, types, probs, rng, id_prefix) -> list[NLIExample]:
    """n pairs whose premise and hypothesis share a length stratum.  Each
    run of ``group`` consecutive pairs (one batch) is stratified on its
    own, so every full batch has the same lengths, longest included."""
    premise_lens, hypothesis_lens = [], []
    for first in range(0, n, group):
        strata = rng.permutation(min(group, n - first))
        premise_lens += stratified_lengths(strata, PREMISE_MEAN, PREMISE_SIGMA, PREMISE_CAP)
        hypothesis_lens += stratified_lengths(
            strata, HYPOTHESIS_MEAN, HYPOTHESIS_SIGMA, HYPOTHESIS_CAP
        )
    examples = []
    for i in range(n):
        premise = types[rng.choice(len(types), size=premise_lens[i], p=probs)].tolist()
        hypothesis = types[rng.choice(len(types), size=hypothesis_lens[i], p=probs)].tolist()
        examples.append(
            NLIExample(
                pair_id=f"{id_prefix}-{i}",
                genre=synth.MATCHED_GENRES[i % len(synth.MATCHED_GENRES)],
                premise_tokens=premise,
                hypothesis_tokens=hypothesis,
                label=LABELS[i % len(LABELS)],
            )
        )
    return examples


def paper_corpus(
    seed: int, n_train: int, n_dev: int, n_tune: int, n_types: int, batch_size: int
):
    """Train, dev and tune splits of Zipf-distributed word types from one
    shared vocabulary, each with MultiNLI-like sentence lengths in every
    batch.  The tune split is one group of its own, so a small split has
    the same lengths for every seed too."""
    rng = np.random.default_rng([seed, 0])
    types = np.array(word_types(n_types, rng), dtype=object)
    probs = np.arange(1, n_types + 1, dtype=np.float64) ** -ZIPF_EXPONENT
    probs /= probs.sum()
    return (
        _pairs(n_train, batch_size, types, probs, rng, "train"),
        _pairs(n_dev, batch_size, types, probs, rng, "dev"),
        _pairs(n_tune, batch_size, types, probs, rng, "tune"),
    )

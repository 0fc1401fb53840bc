"""Sentence-pair aggregation and the MLP that maps the matching vector to
class logits, and the softmax that turns logits into class probabilities.

The matching vector concatenates both refined representations with their
elementwise product and absolute difference.  The MLP applies three hidden
layers with ReLU, dropout between consecutive layers, and a final affine
projection to the three class logits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DimensionError, UsageError

N_CLASSES = 3


def aggregate(p: Tensor, h: Tensor) -> Tensor:
    """Matching vectors [p ; h ; p*h ; |p-h|] [B x 4d] of two batches of
    refined representations [B x d]."""
    if p.ndim != 2 or p.shape != h.shape:
        raise DimensionError(
            f"aggregate: representations {p.shape} and {h.shape} are not [B x d] each"
        )
    product = ad.mul(p, h)
    difference = ad.absolute(ad.sub(p, h))
    return ad.concat([p, h, product, difference], axis=1)


@dataclass
class PredictionDistribution:
    """Per-class probabilities over (entailment, neutral, contradiction)."""

    probs: np.ndarray
    predicted_class: int  # argmax, lowest index on exact ties


class MLPParams:
    """Affine stack: hidden widths with ReLU + dropout, then a 3-way projection.

    Weights start uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)), unfilled when
    ``rng`` is None; biases at zero.
    """

    def __init__(
        self,
        input_dim: int,
        rng: np.random.Generator | None,
        widths: tuple[int, ...],
        dropout: float,
    ):
        self.input_dim = input_dim
        self.widths = tuple(widths)
        self.dropout = dropout
        self.layers: list[tuple[Tensor, Tensor]] = []
        fan_in = input_dim
        for width in (*self.widths, N_CLASSES):
            bound = 1.0 / math.sqrt(fan_in)
            w = Tensor(ad._uniform(rng, -bound, bound, (width, fan_in)))
            self.layers.append((w, Tensor(np.zeros(width))))
            fan_in = width

    def parameters(self) -> dict[str, Tensor]:
        """Every weight under its checkpoint name, layer by layer."""
        params = {}
        for i, (w, b) in enumerate(self.layers):
            params[f"mlp.{i}.w"] = w
            params[f"mlp.{i}.b"] = b
        return params


def classify(
    r: Tensor,
    params: MLPParams,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Map matching vectors [B x d] to logits [B x 3].

    Every layer is one [B x d_in] GEMM.  Dropout fires only in training
    mode, between consecutive layers of the stack (after each hidden ReLU,
    including before the final projection), with one mask per layer for
    the batch.
    """
    if r.ndim != 2 or r.shape[1] != params.input_dim:
        raise DimensionError(f"classify: input shape {r.shape} is not [B x {params.input_dim}]")
    if training and params.dropout > 0 and rng is None:
        raise UsageError("classify: training with dropout needs a generator")
    x = r
    *hidden, (w_out, b_out) = params.layers
    for w, b in hidden:
        x = ad.relu(ad.affine(x, w, b))
        x = ad.dropout(x, params.dropout, training, rng)
    return ad.affine(x, w_out, b_out)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax of logits [B x 3], in float64 (not taped)."""
    z = np.asarray(logits, dtype=np.float64)
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)

"""Sentence encoder: char-aware embedding, BiLSTM context layer, pooling,
and attention-based refinement.

One encoder instance serves both sentences of a pair: premise and
hypothesis are encoded independently but with the same weights.  All
operations run per sentence on [n x d] tensors with a boolean mask marking
the real (non-PAD) positions; masked rows stay exactly zero and never
influence pooling or attention.

Each LSTM direction runs as one fused ``autodiff.lstm_sequence`` op over
the live rows.  ``lstm_step`` builds the same cell from elementary taped
ops; it is kept as the reference the fused path is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .errors import ConfigError, DataError, DimensionError, InvalidInputError

POOLING_METHODS = ("mean", "sum", "last", "max")


@dataclass
class EncoderConfig:
    """Structural hyperparameters of the encoder.

    ``hidden_per_dir`` defaults to 300 (chars off) or 350 (chars on), so the
    context vectors are 600- or 700-dimensional and the attention matrix is
    square with twice that size on each side.
    """

    use_chars: bool = False
    word_dim: int = 300
    char_dim: int = 20
    char_hidden: int = 50
    hidden_per_dir: int | None = None

    def __post_init__(self):
        if self.hidden_per_dir is None:
            self.hidden_per_dir = 350 if self.use_chars else 300
        for name in ("word_dim", "char_dim", "char_hidden", "hidden_per_dir"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")

    @property
    def input_dim(self) -> int:
        return self.word_dim + (self.char_hidden if self.use_chars else 0)

    @property
    def rep_dim(self) -> int:
        """Width of a context vector h_i and of the sentence representations."""
        return 2 * self.hidden_per_dir

    @property
    def attention_dim(self) -> int:
        """Width of the concatenated [raw; h_i] vector the scorer sees."""
        return 2 * self.rep_dim


class LSTMCellParams:
    """Weights of one LSTM direction; gate order is input, forget, cell, output.

    Matrices start uniform(-1/sqrt(h), 1/sqrt(h)); biases start at zero
    except the forget-gate slots, which start at 1.
    """

    def __init__(self, name: str, input_dim: int, hidden: int, rng: np.random.Generator):
        bound = 1.0 / math.sqrt(hidden)
        self.hidden = hidden
        self.input_dim = input_dim
        self.w_ih = Parameter(
            rng.uniform(-bound, bound, (4 * hidden, input_dim)), name=f"{name}.w_ih"
        )
        self.w_hh = Parameter(
            rng.uniform(-bound, bound, (4 * hidden, hidden)), name=f"{name}.w_hh"
        )
        bias = np.zeros(4 * hidden)
        bias[hidden : 2 * hidden] = 1.0
        self.bias = Parameter(bias, name=f"{name}.bias")

    def parameters(self) -> dict[str, Parameter]:
        return {p.name: p for p in (self.w_ih, self.w_hh, self.bias)}


def lstm_step(params: LSTMCellParams, x_t: Tensor, h_prev: Tensor, c_prev: Tensor):
    """One LSTM cell update from elementary ops; returns (h_t, c_t).

    Reference implementation: the encoder runs ``ad.lstm_sequence``, and
    the tests hold it to this step-by-step unroll.
    """
    h = params.hidden
    if x_t.shape != (params.input_dim,):
        raise DimensionError(
            f"lstm_step: input shape {x_t.shape} != ({params.input_dim},)"
        )
    gates = ad.add(
        ad.add(ad.matmul(params.w_ih.value, x_t), ad.matmul(params.w_hh.value, h_prev)),
        params.bias.value,
    )
    i = ad.sigmoid(ad.narrow(gates, 0, 0, h))
    f = ad.sigmoid(ad.narrow(gates, 0, h, h))
    g = ad.tanh(ad.narrow(gates, 0, 2 * h, h))
    o = ad.sigmoid(ad.narrow(gates, 0, 3 * h, h))
    c_t = ad.add(ad.mul(f, c_prev), ad.mul(i, g))
    h_t = ad.mul(o, ad.tanh(c_t))
    return h_t, c_t


def run_lstm(x: Tensor, cell: LSTMCellParams, reverse: bool = False) -> Tensor:
    """Hidden states [n x h] of one LSTM direction over every row of ``x``."""
    return ad.lstm_sequence(x, cell.w_ih.value, cell.w_hh.value, cell.bias.value, reverse)


def _row(x: Tensor, i: int) -> Tensor:
    return ad.reshape(ad.narrow(x, 0, i, 1), (x.shape[1],))


def char_encode(char_ids, char_embeddings: Parameter, cell: LSTMCellParams) -> Tensor:
    """Final hidden state of a unidirectional LSTM over a word's characters."""
    char_ids = np.asarray(char_ids, dtype=np.int64)
    if char_ids.size == 0:
        raise DataError("char_encode: empty character sequence")
    states = run_lstm(ad.take_rows(char_embeddings.value, char_ids), cell)
    return _row(states, char_ids.size - 1)


@dataclass
class ContextualSequence:
    """Context-aware token vectors [n x d] plus their mask and the final
    per-direction states (used by 'last' pooling)."""

    H: Tensor
    mask: np.ndarray
    final_forward: Tensor  # forward state after the last real token
    final_backward: Tensor  # backward state after the first real token


@dataclass
class SentenceRepresentation:
    raw: Tensor  # pooled representation
    refined: Tensor  # attention-weighted combination of the context vectors
    attention_weights: Tensor  # [n], zero on masked positions


def bilstm(
    x: Tensor,
    mask: np.ndarray | None,
    forward_cell: LSTMCellParams,
    backward_cell: LSTMCellParams,
) -> ContextualSequence:
    """Run both LSTM directions from zero states over the unmasked positions.

    Row i of the result is [forward_i ; backward_i]; masked rows are zero.
    The live rows are gathered once, each direction runs as one fused op
    over them, and the result is scattered back to the masked layout.
    """
    n = x.shape[0]
    if mask is None:
        mask = np.ones(n, dtype=bool)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (n,):
        raise DimensionError(f"bilstm: mask shape {mask.shape} != ({n},)")
    live = np.flatnonzero(mask)
    if live.size == 0:
        raise InvalidInputError("bilstm: all positions are masked")

    holes = live.size < n
    x_live = ad.take_rows(x, live) if holes else x
    forward = run_lstm(x_live, forward_cell)
    backward = run_lstm(x_live, backward_cell, reverse=True)
    H = ad.concat([forward, backward], axis=1)
    return ContextualSequence(
        H=ad.scatter_rows(H, live, n) if holes else H,
        mask=mask,
        final_forward=_row(forward, live.size - 1),
        final_backward=_row(backward, 0),
    )


def pool(seq: ContextualSequence, method: str) -> Tensor:
    """Reduce the context vectors to one fixed-size raw representation."""
    if method == "mean":
        return ad.reduce_mean(seq.H, seq.mask)
    if method == "sum":
        return ad.reduce_sum(seq.H, seq.mask)
    if method == "max":
        return ad.reduce_max(seq.H, seq.mask)
    if method == "last":
        return ad.concat([seq.final_forward, seq.final_backward])
    raise ConfigError(f"unknown pooling method {method!r}; choose from {POOLING_METHODS}")


def inner_attention(
    seq: ContextualSequence, raw: Tensor, W: Parameter, v: Parameter
) -> tuple[Tensor, Tensor]:
    """Refine the raw representation by attending over the context vectors.

    Each position i is scored as v·tanh(W [raw; h_i]), comparing it with
    the raw representation through a tanh bottleneck; the scores pass
    through a masked softmax and the refined vector is the weighted sum of
    the context rows.
    """
    scores = ad.attention_scores(seq.H, raw, W.value, v.value)
    alpha = ad.masked_softmax(scores, seq.mask)
    refined = ad.matmul(alpha, seq.H)
    return refined, alpha


class Encoder:
    """Shared sentence encoder: embedding, context BiLSTM, pooling, attention."""

    def __init__(
        self,
        config: EncoderConfig,
        word_embeddings: Parameter,
        n_chars: int,
        rng: np.random.Generator,
    ):
        self.config = config
        self.word_embeddings = word_embeddings
        if word_embeddings.shape[1] != config.word_dim:
            raise ConfigError(
                f"embedding width {word_embeddings.shape[1]} != word_dim {config.word_dim}"
            )
        if config.use_chars:
            char_matrix = rng.uniform(-0.05, 0.05, (n_chars, config.char_dim))
            char_matrix[0] = 0.0  # PAD character row
            self.char_embeddings = Parameter(char_matrix, name="char_embeddings")
            self.char_cell = LSTMCellParams(
                "char_lstm", config.char_dim, config.char_hidden, rng
            )
        else:
            self.char_embeddings = None
            self.char_cell = None
        self.forward_cell = LSTMCellParams(
            "context_forward", config.input_dim, config.hidden_per_dir, rng
        )
        self.backward_cell = LSTMCellParams(
            "context_backward", config.input_dim, config.hidden_per_dir, rng
        )
        a = config.attention_dim
        self.attention_w = Parameter(rng.uniform(-0.005, 0.005, (a, a)), name="attention.w")
        self.attention_v = Parameter(rng.uniform(-0.005, 0.005, a), name="attention.v")

    def parameters(self) -> dict[str, Parameter]:
        params: dict[str, Parameter] = {
            self.word_embeddings.name: self.word_embeddings
        }
        if self.config.use_chars:
            params[self.char_embeddings.name] = self.char_embeddings
            params.update(self.char_cell.parameters())
        params.update(self.forward_cell.parameters())
        params.update(self.backward_cell.parameters())
        params[self.attention_w.name] = self.attention_w
        params[self.attention_v.name] = self.attention_v
        return params

    def embed_tokens(
        self,
        word_ids,
        mask: np.ndarray | None = None,
        char_ids=None,
        char_mask=None,
    ) -> Tensor:
        """Per-token input vectors: frozen word vector, plus the char-LSTM
        summary when character features are on.  PAD rows come out all-zero."""
        word_ids = np.asarray(word_ids, dtype=np.int64)
        n = word_ids.shape[0]
        if mask is None:
            mask = np.ones(n, dtype=bool)
        if word_ids.min(initial=0) < 0 or word_ids.max(initial=0) >= self.word_embeddings.shape[0]:
            raise InvalidInputError("embed_tokens: token id outside the vocabulary")
        if not self.config.use_chars:
            # frozen lookup: a constant leaf, nothing to backpropagate into
            return Tensor(self.word_embeddings.data[word_ids])

        if char_ids is None or char_mask is None:
            raise ConfigError("embed_tokens: character ids required when use_chars is on")
        live = np.flatnonzero(mask)
        char_vecs = ad.stack([
            char_encode(
                np.asarray(char_ids[j])[np.asarray(char_mask[j], dtype=bool)],
                self.char_embeddings,
                self.char_cell,
            )
            for j in live
        ])
        if live.size < n:
            char_vecs = ad.scatter_rows(char_vecs, live, n)
        words = self.word_embeddings.data[word_ids] * np.asarray(mask, dtype=bool)[:, None]
        return ad.concat([Tensor(words), char_vecs], axis=1)

    def encode_sentence(
        self,
        word_ids,
        method: str,
        mask: np.ndarray | None = None,
        char_ids=None,
        char_mask=None,
    ) -> SentenceRepresentation:
        """Embed, contextualize, pool and refine one sentence."""
        x = self.embed_tokens(word_ids, mask, char_ids, char_mask)
        seq = bilstm(x, mask, self.forward_cell, self.backward_cell)
        raw = pool(seq, method)
        refined, alpha = inner_attention(seq, raw, self.attention_w, self.attention_v)
        return SentenceRepresentation(raw=raw, refined=refined, attention_weights=alpha)

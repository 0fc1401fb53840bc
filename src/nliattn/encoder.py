"""Sentence encoder: char-aware embedding, BiLSTM context layer, pooling,
and attention-based refinement.

One encoder instance serves both sentences of a pair: premise and
hypothesis are encoded independently but with the same weights.  Every
operation runs on all sentences of a batch at once.  A batch of S
sentences comes packed, as in ``data.Batch``: a table of W distinct
words, ``word_index`` [L] naming each token's word, sentence after
sentence, and ``lengths`` [S] saying how many tokens each sentence holds.
There is no padding; one sentence is a batch of one.

``embed_tokens`` embeds each distinct word once: its frozen word vector
and, with characters on, its char-LSTM summary.  The context BiLSTM is
one fused ``autodiff.lstm_sequence`` op with both directions that reads
each token's row of that table through ``word_index``, stepping every
sentence still running with one GEMM per time step and direction, the
directions maybe on two threads.  The char-LSTM is the same op with one
direction over all distinct words' characters, reading the char
embedding table through the char ids.  The tests hold the fused op to a
step-by-step unroll of the same cell built from elementary taped ops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import Batch
from .errors import ConfigError, DataError

POOLING_METHODS = ("mean", "sum", "last", "max")


@dataclass
class EncoderConfig:
    """Structural hyperparameters of the encoder.

    ``hidden_per_dir`` left unset (None) resolves from ``use_chars`` each
    time it is read, as ``context_hidden``: 300 with chars off, 350 with
    chars on, so the context vectors are 600- or 700-dimensional and the
    attention matrix is square with twice that size on each side.
    """

    use_chars: bool = False
    word_dim: int = 300
    char_dim: int = 20
    char_hidden: int = 50
    hidden_per_dir: int | None = None

    def __post_init__(self):
        for name in ("word_dim", "char_dim", "char_hidden", "hidden_per_dir"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigError(f"{name} must be positive, got {value}")

    @property
    def context_hidden(self) -> int:
        """Units per context BiLSTM direction."""
        if self.hidden_per_dir is not None:
            return self.hidden_per_dir
        return 350 if self.use_chars else 300

    @property
    def input_dim(self) -> int:
        return self.word_dim + (self.char_hidden if self.use_chars else 0)

    @property
    def rep_dim(self) -> int:
        """Width of a context vector h_i and of the sentence representations."""
        return 2 * self.context_hidden

    @property
    def attention_dim(self) -> int:
        """Width of the concatenated [raw; h_i] vector the scorer sees."""
        return 2 * self.rep_dim


class LSTMWeights(NamedTuple):
    """Weights of one LSTM direction, the triple ``ad.lstm_sequence`` takes;
    gate order is input, forget, cell, output."""

    w_ih: Tensor  # [4h x d]
    w_hh: Tensor  # [4h x h]
    bias: Tensor  # [4h]

    def named(self, prefix: str) -> dict[str, Tensor]:
        """The three weights under the names ``prefix.w_ih`` and so on."""
        return {f"{prefix}.{k}": t for k, t in self._asdict().items()}


def lstm_weights(input_dim: int, hidden: int, rng: np.random.Generator | None) -> LSTMWeights:
    """Matrices uniform(-1/sqrt(h), 1/sqrt(h)), unfilled when ``rng`` is
    None; biases zero except the forget-gate slots, which start at 1."""
    bound = 1.0 / math.sqrt(hidden)
    w_ih = Tensor(ad._uniform(rng, -bound, bound, (4 * hidden, input_dim)))
    w_hh = Tensor(ad._uniform(rng, -bound, bound, (4 * hidden, hidden)))
    bias = np.zeros(4 * hidden)
    bias[hidden : 2 * hidden] = 1.0
    return LSTMWeights(w_ih, w_hh, Tensor(bias))


def char_encode(char_ids, lengths, char_embeddings: Tensor, cell: LSTMWeights) -> Tensor:
    """Final hidden states [W x h] of a unidirectional LSTM over W words.

    ``char_ids`` holds the words' character ids packed word after word and
    ``lengths`` [W] each word's character count; all words run in one
    ``lstm_sequence`` call, which reads the rows of ``char_embeddings``.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.size == 0 or lengths.min() < 1:
        raise DataError("char_encode: empty character sequence")
    states = ad.lstm_sequence([char_embeddings], char_ids, lengths, cell)
    return ad.take_rows(states, np.cumsum(lengths) - 1)


@dataclass
class ContextualSequence:
    """Context vectors H [L x 2h] of S packed sentences, [forward ; backward]
    per row, and their ``lengths`` [S]."""

    H: Tensor
    lengths: np.ndarray

    @property
    def final_forward(self) -> Tensor:
        """Forward state after each sentence's last token [S x h], taken
        from H (used by 'last' pooling)."""
        h = self.H.shape[1] // 2
        return ad.narrow(ad.take_rows(self.H, np.cumsum(self.lengths) - 1), 1, 0, h)

    @property
    def final_backward(self) -> Tensor:
        """Backward state after each sentence's first token [S x h], taken
        from H."""
        h = self.H.shape[1] // 2
        starts = np.cumsum(self.lengths) - self.lengths
        return ad.narrow(ad.take_rows(self.H, starts), 1, h, h)

    # all-True over the packed rows; read only by perfbench's tracer
    # (encoder.bilstm.steps), and goes once it reads spans from the library
    mask = property(lambda self: np.ones(self.H.shape[0], dtype=bool))


@dataclass
class SentenceRepresentation:
    raw: Tensor  # pooled representations [S x d]
    refined: Tensor  # attention-weighted combinations of the context vectors [S x d]
    attention_weights: Tensor  # [L], packed like the context vectors


def bilstm(
    x: list[Tensor],
    rows,
    lengths,
    forward_cell: LSTMWeights,
    backward_cell: LSTMWeights,
) -> ContextualSequence:
    """Run both LSTM directions from zero states over every sentence.

    ``x`` is a table of input rows as column blocks, as ``embed_tokens``
    returns them; the packed tokens of S sentences read table rows
    ``rows`` [L], sentence after sentence, and ``lengths`` [S] are their
    token counts.  Row i of the result is [forward_i ; backward_i].  The
    backward direction starts at each sentence's last token.  Both
    directions are one ``ad.lstm_sequence`` op, which may run them on two
    threads.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    H = ad.lstm_sequence(x, rows, lengths, forward_cell, backward_cell)
    return ContextualSequence(H=H, lengths=lengths)


def pool(seq: ContextualSequence, method: str) -> Tensor:
    """Reduce each sentence's context vectors to one raw representation [S x d]."""
    if method == "mean":
        return ad.segment_mean(seq.H, seq.lengths)
    if method == "sum":
        return ad.segment_sum(seq.H, seq.lengths)
    if method == "max":
        return ad.segment_max(seq.H, seq.lengths)
    if method == "last":
        return ad.concat([seq.final_forward, seq.final_backward], axis=1)
    raise ConfigError(f"unknown pooling method {method!r}; choose from {POOLING_METHODS}")


def inner_attention(
    seq: ContextualSequence, raw: Tensor, W: Tensor, v: Tensor
) -> tuple[Tensor, Tensor]:
    """Refine each raw representation by attending over its sentence's
    context vectors; returns the refined rows [S x d] and the packed
    attention weights [L].

    Each position i is scored as v·tanh(W [raw; h_i]), comparing it with
    the raw representation through a tanh bottleneck; the scores pass
    through a softmax within the sentence and the refined vector is the
    weighted sum of the sentence's context rows.
    """
    lengths = seq.lengths
    scores = ad.attention_scores(seq.H, lengths, raw, W, v)
    alpha = ad.segment_softmax(scores, lengths)
    return ad.segment_sum(seq.H, lengths, alpha), alpha


class Encoder:
    """Shared sentence encoder: embedding, context BiLSTM, pooling, attention.

    The trainable weights are drawn from ``rng``, or left unfilled when it
    is None."""

    def __init__(
        self,
        config: EncoderConfig,
        word_embeddings: Tensor,
        n_chars: int,
        rng: np.random.Generator | None,
    ):
        self.config = config
        self.word_embeddings = word_embeddings
        if word_embeddings.shape[1] != config.word_dim:
            raise ConfigError(
                f"embedding width {word_embeddings.shape[1]} != word_dim {config.word_dim}"
            )
        if config.use_chars:
            char_matrix = ad._uniform(rng, -0.05, 0.05, (n_chars, config.char_dim))
            char_matrix[0] = 0.0  # PAD character row
            self.char_embeddings = Tensor(char_matrix)
            self.char_cell = lstm_weights(config.char_dim, config.char_hidden, rng)
        else:
            self.char_embeddings = None
            self.char_cell = None
        self.forward_cell = lstm_weights(config.input_dim, config.context_hidden, rng)
        self.backward_cell = lstm_weights(config.input_dim, config.context_hidden, rng)
        a = config.attention_dim
        self.attention_w = Tensor(ad._uniform(rng, -0.005, 0.005, (a, a)))
        self.attention_v = Tensor(ad._uniform(rng, -0.005, 0.005, a))

    def parameters(self) -> dict[str, Tensor]:
        """Every weight under its checkpoint name, in checkpoint order."""
        params = {"word_embeddings": self.word_embeddings}
        if self.config.use_chars:
            params["char_embeddings"] = self.char_embeddings
            params.update(self.char_cell.named("char_lstm"))
        params.update(self.forward_cell.named("context_forward"))
        params.update(self.backward_cell.named("context_backward"))
        params["attention.w"] = self.attention_w
        params["attention.v"] = self.attention_v
        return params

    def embed_tokens(self, batch: Batch) -> list[Tensor]:
        """Column blocks of the input table [W x d] of the batch's W distinct
        words: their frozen word vectors [W x word_dim], then, when
        character features are on, their char-LSTM summaries
        [W x char_hidden], which learn.  Token t reads row
        ``batch.word_index[t]``."""
        # a lookup in the frozen table is a constant: not taped, and no input
        # gradient is formed toward it
        words = ad.take_rows(self.word_embeddings, batch.word_ids)
        if not self.config.use_chars:
            return [words]
        return [
            words,
            char_encode(batch.char_ids, batch.char_lengths, self.char_embeddings, self.char_cell),
        ]

    def encode(self, batch: Batch, method: str) -> SentenceRepresentation:
        """Embed, contextualize, pool and refine every sentence of a batch."""
        x = self.embed_tokens(batch)
        seq = bilstm(x, batch.word_index, batch.lengths, self.forward_cell, self.backward_cell)
        raw = pool(seq, method)
        refined, alpha = inner_attention(seq, raw, self.attention_w, self.attention_v)
        return SentenceRepresentation(raw=raw, refined=refined, attention_weights=alpha)

"""The full sentence-pair model: shared encoder, aggregation, MLP classifier.

A model owns every parameter (container for checkpointing and the
optimizer) plus the vocabulary hashes its inputs were built against, so
mismatched artifacts are caught instead of silently mis-predicting.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from . import classifier as clf
from .autodiff import Tensor
from .data import Batch, CharVocabulary, Vocabulary, pairs_to_batch
from .encoder import Encoder, EncoderConfig, POOLING_METHODS
from .errors import ConfigError


@dataclass
class ModelConfig:
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    pooling: str = "mean"
    mlp_widths: tuple[int, ...] = (2000, 2000, 2000)
    dropout: float = 0.25

    def __post_init__(self):
        if self.pooling not in POOLING_METHODS:
            raise ConfigError(
                f"unknown pooling {self.pooling!r}; choose from {POOLING_METHODS}"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        self.mlp_widths = tuple(int(w) for w in self.mlp_widths)
        if any(w < 1 for w in self.mlp_widths):
            raise ConfigError(f"mlp_widths must be positive, got {self.mlp_widths}")

    def to_dict(self) -> dict:
        """Every field, the encoder's inlined, with ``hidden_per_dir`` resolved."""
        flat = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "encoder"}
        flat.update((f.name, getattr(self.encoder, f.name)) for f in fields(self.encoder))
        flat["hidden_per_dir"] = self.encoder.context_hidden
        return flat

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        encoder = EncoderConfig(**{f.name: d[f.name] for f in fields(EncoderConfig)})
        return cls(encoder, **{f.name: d[f.name] for f in fields(cls) if f.name != "encoder"})


class NLIModel:
    """Inner-attention sentence-pair classifier with tied encoders.

    The trainable weights are drawn from ``rng``.  With ``rng=None`` they
    are left unfilled, for a caller that overwrites every one, as
    ``training.load_checkpoint`` does: nothing is drawn or copied.
    """

    def __init__(
        self,
        config: ModelConfig,
        vocab: Vocabulary,
        char_vocab: CharVocabulary,
        embeddings: Tensor,
        rng: np.random.Generator | None,
    ):
        if embeddings.shape != (len(vocab), config.encoder.word_dim):
            raise ConfigError(
                f"embedding shape {embeddings.shape} does not match vocabulary "
                f"({len(vocab)} x {config.encoder.word_dim})"
            )
        self.config = config
        self.vocab = vocab
        self.char_vocab = char_vocab
        self.vocab_hash = vocab.content_hash()
        self.char_vocab_hash = char_vocab.content_hash()
        self.encoder = Encoder(config.encoder, embeddings, n_chars=len(char_vocab), rng=rng)
        self.mlp = clf.MLPParams(
            input_dim=4 * config.encoder.rep_dim,
            rng=rng,
            widths=config.mlp_widths,
            dropout=config.dropout,
        )

    def parameters(self) -> dict[str, Tensor]:
        """All parameters in a stable declared order (checkpoint blob order)."""
        params = self.encoder.parameters()
        params.update(self.mlp.parameters())
        return params

    # -- forward ------------------------------------------------------------

    def represent(self, batch: Batch) -> tuple[Tensor, Tensor]:
        """Refined premise and hypothesis representations, [B x d] each;
        all 2B sentences of the batch go through the encoder together."""
        refined = self.encoder.encode(batch, self.config.pooling).refined
        b = len(batch)
        return ad.narrow(refined, 0, 0, b), ad.narrow(refined, 0, b, b)

    def batch_logits(
        self,
        batch: Batch,
        training: bool = False,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        """Logits [B x 3] for every pair of a batch; the MLP runs once on
        the B stacked matching vectors."""
        r = clf.aggregate(*self.represent(batch))
        return clf.classify(r, self.mlp, training=training, rng=rng)

    def batch_loss(
        self,
        batch: Batch,
        training: bool = False,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        """Mean cross entropy over a batch."""
        logits = self.batch_logits(batch, training=training, rng=rng)
        return ad.cross_entropy_from_logits(logits, batch.labels)

    def predict_batch(self, batch: Batch) -> list[clf.PredictionDistribution]:
        """Inference-mode distributions for every pair in a batch."""
        probs = clf.softmax(self.batch_logits(batch).data)
        return [
            clf.PredictionDistribution(probs=row, predicted_class=int(predicted))
            for row, predicted in zip(probs, probs.argmax(axis=1))
        ]

    def predict_tokens(
        self, premise_tokens: list[str], hypothesis_tokens: list[str]
    ) -> clf.PredictionDistribution:
        """Distribution for one raw token-list pair (unknown tokens -> UNK)."""
        return self.predict_batch(self.tokens_to_inputs(premise_tokens, hypothesis_tokens))[0]

    def tokens_to_inputs(self, premise_tokens: list[str], hypothesis_tokens: list[str]) -> Batch:
        """The one-pair Batch for a raw token-list pair."""
        return pairs_to_batch([premise_tokens], [hypothesis_tokens], self.vocab, self.char_vocab)

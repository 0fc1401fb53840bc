"""Inner-attention BiLSTM sentence encoders for natural language inference."""

__version__ = "0.1.0"

from .autodiff import Tape, Tensor, precision
from .data import (
    CharVocabulary,
    NLIExample,
    Vocabulary,
    load_dataset,
    load_embeddings,
    make_batches,
    mix_snli,
    normalize_token,
    random_embeddings,
    tokenize,
)
from .encoder import Encoder, EncoderConfig
from .evaluation import (
    confidence_interval,
    ensemble_evaluate,
    evaluate,
    export_representations,
    pooling_sweep,
)
from .model import ModelConfig, NLIModel
from .training import TrainConfig, load_checkpoint, save_checkpoint, train

__all__ = [
    "CharVocabulary",
    "Encoder",
    "EncoderConfig",
    "ModelConfig",
    "NLIExample",
    "NLIModel",
    "Tape",
    "Tensor",
    "TrainConfig",
    "Vocabulary",
    "confidence_interval",
    "ensemble_evaluate",
    "evaluate",
    "export_representations",
    "load_checkpoint",
    "load_dataset",
    "load_embeddings",
    "make_batches",
    "mix_snli",
    "normalize_token",
    "pooling_sweep",
    "precision",
    "random_embeddings",
    "save_checkpoint",
    "tokenize",
    "train",
    "__version__",
]

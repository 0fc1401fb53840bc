"""Corpus ingestion, token normalization, vocabularies, embeddings, batching.

The corpus format is line-delimited JSON with at least ``gold_label``,
``sentence1`` and ``sentence2``; ``sentence{1,2}_binary_parse``, ``genre``
and ``pairID`` are used when present.  Everything here is a pure function
of (files, seed): vocabularies are immutable once built and batches are
reproducible from the shuffle generator handed in.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .autodiff import Tensor, _uniform
from .errors import ConfigError, DataError

LABELS = ("entailment", "neutral", "contradiction")
LABEL_TO_INDEX = {name: i for i, name in enumerate(LABELS)}

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
NUM_TOKEN = "<num>"

# defaults of the snli_fraction and embedding_scale config keys and of the
# functions that take them: the share of the SNLI corpus mixed into
# training, and the bound of uniform random word vectors
SNLI_FRACTION = 0.15
EMBEDDING_SCALE = 0.05

# optional sign, digit groups optionally separated by commas, optional
# single decimal part: "3", "1,200", "3.5", "-7", "+12,345.67"
_NUMERIC_RE = re.compile(r"^[+-]?\d+(?:,\d+)*(?:\.\d+)?$")


def normalize_token(raw: str) -> str:
    """Lowercase a token; collapse anything numeric to the <num> placeholder."""
    if _NUMERIC_RE.match(raw):
        return NUM_TOKEN
    return raw.lower()


def parse_leaves(binary_parse: str) -> list[str]:
    """Leaf tokens of a binary parse string: drop the bracket symbols."""
    return [t for t in binary_parse.split() if t not in ("(", ")")]


def tokenize(record: dict, side: str) -> list[str]:
    """Tokens for one side ("sentence1"/"sentence2") of a corpus record.

    Prefers the binary-parse leaves when the record carries them, otherwise
    whitespace-splits the plain text.  Normalization is applied per token.
    """
    parse = record.get(f"{side}_binary_parse")
    raw = parse_leaves(parse) if parse else str(record.get(side, "")).split()
    return [normalize_token(t) for t in raw if t]


@dataclass
class NLIExample:
    pair_id: str
    genre: str
    premise_tokens: list[str]
    hypothesis_tokens: list[str]
    label: str  # one of LABELS

    @property
    def label_index(self) -> int:
        return LABEL_TO_INDEX[self.label]


@dataclass
class DatasetLoad:
    examples: list[NLIExample]
    dropped_no_label: int = 0
    skipped_empty: int = 0

    def __iter__(self):
        return iter(self.examples)

    def __len__(self):
        return len(self.examples)


def load_dataset(path) -> DatasetLoad:
    """Read a corpus file into NLIExamples.

    Pairs labeled "-" are dropped and counted; records that end up with an
    empty token list on either side are skipped and counted.
    """
    result = DatasetLoad(examples=[])
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{lineno}: not a valid record: {exc}") from exc
            for required in ("gold_label", "sentence1", "sentence2"):
                if required not in record:
                    raise DataError(f"{path}:{lineno}: missing field {required!r}")
            label = record["gold_label"]
            if label == "-":
                result.dropped_no_label += 1
                continue
            if label not in LABEL_TO_INDEX:
                raise DataError(f"{path}:{lineno}: unknown gold_label {label!r}")
            premise = tokenize(record, "sentence1")
            hypothesis = tokenize(record, "sentence2")
            if not premise or not hypothesis:
                result.skipped_empty += 1
                continue
            result.examples.append(
                NLIExample(
                    pair_id=str(record.get("pairID", lineno)),
                    genre=str(record.get("genre", "unknown")),
                    premise_tokens=premise,
                    hypothesis_tokens=hypothesis,
                    label=label,
                )
            )
    return result


def mix_snli(
    multinli_train: Sequence[NLIExample],
    snli_train: Sequence[NLIExample],
    fraction: float = SNLI_FRACTION,
    rng: np.random.Generator | None = None,
) -> list[NLIExample]:
    """Append a seeded uniform sample (without replacement) of the second
    corpus to the first; sample size is floor(fraction * len)."""
    if not 0.0 <= fraction <= 1.0:
        raise ConfigError(f"fraction must be in [0, 1], got {fraction}")
    rng = rng or np.random.default_rng(0)
    k = math.floor(fraction * len(snli_train))
    combined = list(multinli_train)
    if k:
        picked = np.sort(rng.choice(len(snli_train), size=k, replace=False))
        combined.extend(snli_train[int(i)] for i in picked)
    return combined


# ---------------------------------------------------------------------------
# Vocabularies


class Vocabulary:
    """Token -> index map; the reserved tokens take the first indices, in order.

    Index order is insertion order, so a saved file's line n (after the
    header) holds index n.  Tokens are added and looked up as given, so
    the vocabulary and a batch agree on every token; normalization happens
    once, at tokenization.
    """

    reserved: tuple[str, ...] = (PAD_TOKEN, UNK_TOKEN, NUM_TOKEN)

    def __init__(self, dim: int, tokens: Sequence[str] | None = None):
        """A vocabulary holding ``tokens`` in index order, by default the
        reserved tokens alone; a duplicate or misplaced reserved token is
        rejected."""
        tokens = list(self.reserved if tokens is None else tokens)
        self.dim = dim
        self._index: dict[str, int] = {token: i for i, token in enumerate(tokens)}
        if len(self._index) != len(tokens):
            duplicate = next(t for i, t in enumerate(tokens) if self._index[t] != i)
            raise DataError(f"duplicate vocabulary entry {duplicate!r}")
        for i, token in enumerate(self.reserved):
            if self._index.get(token) != i:
                raise DataError(f"reserved token {token!r} misplaced")
        self.pad = self._index[PAD_TOKEN]
        self.unk = self._index[UNK_TOKEN]

    num = property(lambda self: self._index[NUM_TOKEN])

    def __len__(self):
        return len(self._index)

    def __contains__(self, token):
        return token in self._index

    def add(self, token: str) -> int:
        if token not in self._index:
            self._index[token] = len(self._index)
        return self._index[token]

    def lookup(self, token: str) -> int:
        return self._index.get(token, self.unk)

    def tokens(self) -> list[str]:
        return list(self._index)  # insertion order == index order

    @staticmethod
    def _entries(token: str) -> Iterable[str]:
        """What one corpus token adds to the vocabulary."""
        return (token,)

    @classmethod
    def from_examples(cls, examples: Iterable[NLIExample], dim: int) -> "Vocabulary":
        vocab = cls(dim)
        for ex in examples:
            for token in (*ex.premise_tokens, *ex.hypothesis_tokens):
                for entry in cls._entries(token):
                    vocab.add(entry)
        return vocab

    @classmethod
    def _header_prefix(cls) -> str:
        """The saved header up to its dim value: ``#reserved pad=0 unk=1 ... dim=``."""
        reserved = " ".join(f"{token.strip('<>')}={i}" for i, token in enumerate(cls.reserved))
        return f"#reserved {reserved} dim="

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{self._header_prefix()}{self.dim}\n")
            for token in self.tokens():
                fh.write(token + "\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
            tokens = [line.rstrip("\n") for line in fh]
        prefix = cls._header_prefix()
        dim = header[len(prefix):]
        if not header.startswith(prefix) or not dim.isdecimal():
            raise DataError(f"{path}: header does not read '{prefix}<int>'")
        try:
            return cls(int(dim), tokens)
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from exc

    def content_hash(self) -> str:
        payload = f"dim={self.dim}\n" + "\n".join(self.tokens())
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class CharVocabulary(Vocabulary):
    """Character -> index map built from training tokens, first-seen order."""

    reserved = (PAD_TOKEN, UNK_TOKEN)

    @staticmethod
    def _entries(token: str) -> Iterable[str]:
        return token  # its characters


# ---------------------------------------------------------------------------
# Embeddings


def _init_embedding_matrix(
    vocab: Vocabulary, rng: np.random.Generator, scale: float = EMBEDDING_SCALE
) -> np.ndarray:
    # float32 in either precision mode, so a float64 model gets the same vectors
    matrix = _uniform(rng, -scale, scale, (len(vocab), vocab.dim), np.float32)
    matrix[vocab.pad] = 0.0
    return matrix


def random_embeddings(
    vocab: Vocabulary, rng: np.random.Generator, scale: float = EMBEDDING_SCALE
):
    """Frozen embedding matrix with every non-PAD row drawn uniform(-scale, scale).

    Stand-in for pretrained vectors when none are available; the default
    scale matches the unknown-word initialization.
    """
    return Tensor(_init_embedding_matrix(vocab, rng, scale), requires_grad=False)


@dataclass
class EmbeddingLoad:
    parameter: Tensor
    found: int
    skipped_lines: int


def load_embeddings(
    path, vocab: Vocabulary, rng: np.random.Generator, scale: float = EMBEDDING_SCALE
) -> EmbeddingLoad:
    """Load pretrained vectors for the vocabulary.

    File rows are copied verbatim; vocabulary tokens absent from the file
    (UNK and NUM included) keep their uniform(-scale, scale) initialization,
    as in ``random_embeddings``; the PAD row stays zero.  Only a line whose
    token is in the vocabulary is checked: one of another width, or with a
    value that does not parse or is not finite at float32 (nan, inf, or
    past its range, such as 1e39), is skipped and counted, and its token
    keeps its initialization.  Any other line is passed over unparsed.  A
    file whose first vector line, whatever its token, has another width
    than the vocabulary dimension is rejected.  A first line of exactly two
    integers is the ``count dim`` header of the word2vec and fastText
    ``.vec`` format, whose vector lines end with a space: trailing
    whitespace is dropped before a line is split on single spaces.
    The resulting parameter is frozen: these vectors are never fine-tuned.
    """
    matrix = _init_embedding_matrix(vocab, rng, scale)
    found = 0
    skipped = 0
    width_checked = False
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh):
            parts = line.rstrip().split(" ")
            if number == 0 and len(parts) == 2 and all(p.isdecimal() for p in parts):
                if int(parts[1]) != vocab.dim:
                    raise ConfigError(
                        f"{path}: header embedding width {int(parts[1])} "
                        f"!= vocabulary dimension {vocab.dim}"
                    )
                continue
            token, values = parts[0], parts[1:]
            if values and not width_checked:
                if len(values) != vocab.dim:
                    raise ConfigError(
                        f"{path}: embedding width {len(values)} "
                        f"!= vocabulary dimension {vocab.dim}"
                    )
                width_checked = True
            if token not in vocab or token == PAD_TOKEN:
                continue
            vector = None
            if len(values) == vocab.dim:
                try:
                    with np.errstate(over="ignore"):  # a value past float32's range is inf
                        vector = np.array([float(v) for v in values], dtype=np.float32)
                except ValueError:
                    pass
            if vector is None or not np.isfinite(vector).all():
                skipped += 1
                continue
            matrix[vocab.lookup(token)] = vector
            found += 1
    return EmbeddingLoad(Tensor(matrix, requires_grad=False), found, skipped)


# ---------------------------------------------------------------------------
# Batching


@dataclass
class Batch:
    """B sentence pairs as 2B sentences, premises first, packed token after
    token with no padding.

    Token t of the batch has word id ``word_ids[t]`` and is the distinct
    word ``word_index[t]``; distinct words are keyed on the token string,
    in first-seen order, and their characters are packed word after word
    in ``char_ids`` with ``char_lengths`` per word.
    """

    word_ids: np.ndarray  # [L] int64, never PAD
    lengths: np.ndarray  # [2B] int64, tokens per sentence
    word_index: np.ndarray  # [L] int64, into the distinct words
    char_ids: np.ndarray  # [C] int64
    char_lengths: np.ndarray  # [W] int64
    labels: np.ndarray  # [B] int64, -1 for a pair without a gold label
    pair_ids: list[str] = field(default_factory=list)

    def __len__(self):
        return len(self.labels)

    # all-True over the packed rows; read only by perfbench's tracer
    # (data.pad_fraction), and goes once it reads spans from the library
    premise_mask = property(lambda self: np.ones(self.lengths[: len(self)].sum(), dtype=bool))
    hypothesis_mask = property(lambda self: np.ones(self.lengths[len(self) :].sum(), dtype=bool))


def pairs_to_batch(
    premises: Sequence[list[str]],
    hypotheses: Sequence[list[str]],
    vocab: Vocabulary,
    char_vocab: CharVocabulary,
    labels: Sequence[int] | None = None,
    pair_ids: Sequence[str] = (),
) -> Batch:
    """The one mapping from token lists to model input: a packed Batch.

    Unknown tokens and characters fall back to UNK, and so does a literal
    "<pad>", which must not alias the padding id.  An empty token list, an
    empty token, and label or pair-id lists whose count is not the pair
    count are rejected.  Pairs without a gold label carry label -1.
    """
    n = len(premises)
    if len(hypotheses) != n:
        raise DataError(f"{n} premises but {len(hypotheses)} hypotheses")
    if labels is None:
        labels = [-1] * n
    if len(labels) != n:
        raise DataError(f"{len(labels)} labels for {n} pairs")
    if pair_ids and len(pair_ids) != n:
        raise DataError(f"{len(pair_ids)} pair ids for {n} pairs")
    sentences = [*premises, *hypotheses]
    if not all(sentences):
        raise DataError("every sentence needs at least one token")
    words: dict[str, int] = {}
    word_index = np.array(
        [words.setdefault(token, len(words)) for s in sentences for token in s], dtype=np.int64
    )
    if "" in words:
        raise DataError("a token needs at least one character")
    word_ids = np.array([vocab.lookup(word) for word in words], dtype=np.int64)
    word_ids[word_ids == vocab.pad] = vocab.unk
    return Batch(
        word_ids=word_ids[word_index],
        lengths=np.array([len(s) for s in sentences], dtype=np.int64),
        word_index=word_index,
        char_ids=np.array([char_vocab.lookup(c) for word in words for c in word], dtype=np.int64),
        char_lengths=np.array([len(word) for word in words], dtype=np.int64),
        labels=np.array(labels, dtype=np.int64),
        pair_ids=list(pair_ids),
    )


def make_batches(
    examples: Sequence[NLIExample],
    batch_size: int,
    role: str,
    vocab: Vocabulary,
    char_vocab: CharVocabulary,
    max_premise_len: int | None = None,
    rng: np.random.Generator | None = None,
) -> list[Batch]:
    """Assemble packed batches of ``batch_size`` pairs.

    Training drops pairs whose premise exceeds ``max_premise_len`` tokens,
    when given, and draws a fresh seeded shuffle (pass the per-epoch
    generator); dev and test keep every pair in file order.
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    if role == "train":
        kept = [
            ex
            for ex in examples
            if max_premise_len is None or len(ex.premise_tokens) <= max_premise_len
        ]
        order = np.arange(len(kept))
        if rng is not None:
            rng.shuffle(order)
        kept = [kept[int(i)] for i in order]
    else:
        kept = list(examples)

    batches = []
    for start in range(0, len(kept), batch_size):
        chunk = kept[start : start + batch_size]
        batches.append(
            pairs_to_batch(
                [ex.premise_tokens for ex in chunk],
                [ex.hypothesis_tokens for ex in chunk],
                vocab,
                char_vocab,
                labels=[ex.label_index for ex in chunk],
                pair_ids=[ex.pair_id for ex in chunk],
            )
        )
    return batches

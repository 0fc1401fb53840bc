"""Accuracy reports, run statistics, ensembling, and representation export.

The per-genre report follows the standard presentation order for the
matched and mismatched development genres; the pooling sweep trains a grid
of (pooling method x character flag) cells over several seeds and
summarizes them as mean +/- a 95% Student-t interval plus a per-cell best.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .data import (
    EMBEDDING_SCALE,
    LABELS,
    CharVocabulary,
    NLIExample,
    Vocabulary,
    make_batches,
    random_embeddings,
)
from .encoder import POOLING_METHODS
from .errors import ConfigError, DataError, InvalidInputError
from .model import NLIModel

GENRE_DISPLAY_ORDER = (
    ("fiction", "Fiction"),
    ("government", "Government"),
    ("slate", "Slate"),
    ("telephone", "Telephone"),
    ("travel", "Travel"),
    ("nineeleven", "9/11"),
    ("facetoface", "Face-to-face"),
    ("letters", "Letters"),
    ("oup", "Oup"),
    ("verbatim", "Verbatim"),
)
_DISPLAY_NAME = dict(GENRE_DISPLAY_ORDER)

EXPORT_BATCH_SIZE = 32


@dataclass
class EvalReport:
    split: str
    total: int
    correct: int
    confusion: np.ndarray  # [gold x predicted], 3x3 counts
    per_genre: dict[str, tuple[int, int]]  # genre -> (correct, total)

    @property
    def overall_accuracy(self) -> float:
        return self.correct / self.total

    def genre_accuracy(self, genre: str) -> float:
        correct, total = self.per_genre[genre]
        return correct / total

    def to_dict(self) -> dict:
        return {
            "split": self.split,
            "total": self.total,
            "correct": self.correct,
            "overall_accuracy": self.overall_accuracy,
            "labels": list(LABELS),
            "confusion": self.confusion.tolist(),
            "per_genre": {
                genre: {"correct": c, "total": t, "accuracy": c / t}
                for genre, (c, t) in self.per_genre.items()
            },
        }

    def format(self) -> str:
        """Genre-by-genre table in the standard presentation order."""
        known = [g for g, _ in GENRE_DISPLAY_ORDER if g in self.per_genre]
        extra = sorted(g for g in self.per_genre if g not in _DISPLAY_NAME)
        lines = [f"Validation accuracies (%) [{self.split}]"]
        for genre in known + extra:
            display = _DISPLAY_NAME.get(genre, genre)
            lines.append(f"{display:<18s} {100.0 * self.genre_accuracy(genre):6.1f}")
        lines.append(f"{'MultiNLI Overall':<18s} {100.0 * self.overall_accuracy:6.1f}")
        return "\n".join(lines)


def _report(probs: np.ndarray, examples: Sequence[NLIExample], split: str) -> EvalReport:
    """The report of class probabilities [N x 3] against the examples' gold
    labels; a pair's prediction is its argmax, lowest index on ties."""
    confusion = np.zeros((len(LABELS), len(LABELS)), dtype=np.int64)
    per_genre: dict[str, list[int]] = {}
    for predicted, ex in zip(probs.argmax(axis=1), examples):
        gold = ex.label_index
        confusion[gold, predicted] += 1
        bucket = per_genre.setdefault(ex.genre, [0, 0])
        bucket[0] += int(predicted == gold)
        bucket[1] += 1
    return EvalReport(
        split=split,
        total=int(confusion.sum()),
        correct=int(np.trace(confusion)),
        confusion=confusion,
        per_genre={g: (c, t) for g, (c, t) in per_genre.items()},
    )


def _member_probs(
    models: Sequence[NLIModel], examples: Sequence[NLIExample], batch_size: int
) -> np.ndarray:
    """Every member's inference-mode class probabilities [k x N x 3], in
    example order; the batches are built once and serve every member."""
    if not models:
        raise InvalidInputError("ensemble needs at least one model")
    vocabularies = {(m.vocab_hash, m.char_vocab_hash) for m in models}
    if len(vocabularies) > 1:
        raise ConfigError(
            f"ensemble models were built against different vocabularies: {vocabularies}"
        )
    if not len(examples):
        raise InvalidInputError("evaluate: empty dataset")
    batches = make_batches(examples, batch_size, "dev", models[0].vocab, models[0].char_vocab)
    return np.array([
        [dist.probs for batch in batches for dist in model.predict_batch(batch)]
        for model in models
    ])


def _average(probs: np.ndarray) -> np.ndarray:
    """The members' mean [N x 3] of probabilities [k x N x 3].  Where every
    member gives a pair the same row, that row is returned as it is, which
    the mean would not guarantee in floating point."""
    mean = probs.mean(axis=0)
    agree = np.all(probs == probs[0], axis=(0, 2))
    mean[agree] = probs[0, agree]
    return mean


def evaluate(
    model: NLIModel, examples: Sequence[NLIExample], split: str = "matched", batch_size: int = 32
) -> EvalReport:
    """Inference-mode accuracy with per-genre breakdown and confusion counts."""
    return _report(_member_probs([model], examples, batch_size)[0], examples, split)


def ensemble_reports(
    models: Sequence[NLIModel],
    examples: Sequence[NLIExample],
    split: str = "matched",
    batch_size: int = 32,
) -> tuple[list[EvalReport], EvalReport]:
    """Each member's report and the report of the members' averaged class
    probabilities (argmax, lowest index on ties), from one forward pass of
    each member."""
    probs = _member_probs(models, examples, batch_size)
    members = [_report(member, examples, split) for member in probs]
    return members, _report(_average(probs), examples, split)


def ensemble_evaluate(
    models: Sequence[NLIModel],
    examples: Sequence[NLIExample],
    split: str = "matched",
    batch_size: int = 32,
) -> EvalReport:
    """The report of the members' averaged class probabilities."""
    return ensemble_reports(models, examples, split, batch_size)[1]


# ---------------------------------------------------------------------------
# Run statistics


def confidence_interval(accuracies: Sequence[float]) -> tuple[float, float]:
    """Mean and 95% half-width via the two-sided Student-t quantile at n-1 df."""
    values = np.asarray(accuracies, dtype=np.float64)
    n = values.size
    if n < 2:
        raise InvalidInputError("confidence_interval needs at least 2 runs")
    if np.all(values == values[0]):
        return float(values[0]), 0.0
    # imported at its only use: at module level scipy would cost every
    # `import nliattn` about a second and some 70 MB of resident memory
    from scipy import stats

    t_star = float(stats.t.ppf(0.975, n - 1))
    half_width = t_star * values.std(ddof=1) / np.sqrt(n)
    return float(values.mean()), float(half_width)


# ---------------------------------------------------------------------------
# Representation export


def export_representations(model: NLIModel, examples: Sequence[NLIExample], path) -> int:
    """Write one TSV record per sentence role per pair: pair id, role, vector.

    Pairs are encoded in packed batches of ``EXPORT_BATCH_SIZE`` and written
    in input order, premise then hypothesis.  Returns the record count.  The
    file appears atomically: on any failure the partial output is removed.
    """
    path = os.fspath(path)
    tmp_path = path + ".tmp"
    written = 0
    batches = make_batches(examples, EXPORT_BATCH_SIZE, "dev", model.vocab, model.char_vocab)
    try:
        with open(tmp_path, "w", encoding="utf-8") as fh:
            for batch in batches:
                premises, hypotheses = model.represent(batch)
                for pair_id, p, h in zip(batch.pair_ids, premises.data, hypotheses.data):
                    for role, rep in (("premise", p), ("hypothesis", h)):
                        vector = "\t".join(f"{v:.9g}" for v in rep)
                        fh.write(f"{pair_id}\t{role}\t{vector}\n")
                        written += 1
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.remove(tmp_path)
        raise
    return written


# ---------------------------------------------------------------------------
# Pooling sweep


@dataclass
class SweepRun:
    method: str
    use_chars: bool
    seed: int
    best_dev_accuracy: float

    def format(self) -> str:
        return (
            f"method={self.method} chars={'true' if self.use_chars else 'false'} "
            f"seed={self.seed} best_dev_accuracy={self.best_dev_accuracy:.10f}"
        )

    @classmethod
    def parse(cls, line: str) -> "SweepRun":
        """The record ``format`` wrote; a malformed one raises DataError."""
        fields = {}
        for token in line.split():
            key, sep, value = token.partition("=")
            if not sep:
                raise DataError(f"sweep record token {token!r} has no '='")
            fields[key] = value
        missing = [k for k in ("method", "chars", "seed", "best_dev_accuracy") if k not in fields]
        if missing:
            raise DataError(f"sweep record lacks {', '.join(missing)}")
        if fields["chars"] not in ("true", "false"):
            raise DataError(f"sweep record has chars={fields['chars']!r}, not true or false")
        try:
            seed, accuracy = int(fields["seed"]), float(fields["best_dev_accuracy"])
        except ValueError as err:
            raise DataError(f"sweep record has a malformed number: {err}") from None
        return cls(fields["method"], fields["chars"] == "true", seed, accuracy)


@dataclass
class SweepCell:
    accuracies: list[float]
    mean: float
    half_width: float
    best: float


@dataclass
class SweepSummary:
    cells: dict[tuple[str, bool], SweepCell] = field(default_factory=dict)
    methods: tuple[str, ...] = ()

    def _table(self, width: int, cell_text) -> str:
        """Methods as rows, char usage as columns of ``width``; ``cell_text``
        renders one cell."""
        lines = [f"{'Method':<8s} {'w/o chars':>{width}s} {'w. chars':>{width}s}"]
        for method in self.methods:
            row = [cell_text(self.cells[(method, use_chars)]) for use_chars in (False, True)]
            lines.append(" ".join([f"{method:<8s}", *row]))
        return "\n".join(lines)

    def format_mean_table(self) -> str:
        """Mean +/- 95% CI per cell, methods as rows, char usage as columns."""
        return self._table(16, lambda c: f"{100 * c.mean:6.1f} +- {100 * c.half_width:4.1f}")

    def format_best_table(self) -> str:
        """Best accuracy per cell, same layout."""
        return self._table(10, lambda c: f"{100 * c.best:10.1f}")


def write_sweep_records(runs: Sequence[SweepRun], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for run in runs:
            fh.write(run.format() + "\n")


def read_sweep_records(path) -> list[SweepRun]:
    """Every record of a sweep log; a malformed one raises DataError naming
    the file and its 1-based line."""
    runs = []
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                runs.append(SweepRun.parse(line))
            except DataError as err:
                raise DataError(f"{path}, line {number}: {err}") from None
    return runs


def summarize_runs(runs: Sequence[SweepRun]) -> SweepSummary:
    """Pure fold over run records; re-summarizing stored logs reproduces it."""
    methods = []
    grouped: dict[tuple[str, bool], list[float]] = {}
    for run in runs:
        if run.method not in methods:
            methods.append(run.method)
        grouped.setdefault((run.method, run.use_chars), []).append(run.best_dev_accuracy)
    summary = SweepSummary(methods=tuple(methods))
    for key, accuracies in grouped.items():
        mean, half_width = confidence_interval(accuracies)
        summary.cells[key] = SweepCell(accuracies, mean, half_width, max(accuracies))
    return summary


def _sweep_one(
    task, *, train_examples, dev_examples, vocab, chars, base_config, train_config, embedding_scale
) -> SweepRun:
    """Train one (method, use_chars, seed) task; top-level so that a process
    pool can pickle it."""
    from .training import train

    method, use_chars, seed = task
    # an unset hidden_per_dir stays unset, so each cell resolves its own width
    encoder = replace(base_config.encoder, use_chars=use_chars)
    config = replace(base_config, encoder=encoder, pooling=method)
    rng = np.random.default_rng(seed)
    model = NLIModel(config, vocab, chars, random_embeddings(vocab, rng, embedding_scale), rng)
    result = train(model, train_examples, dev_examples, replace(train_config, seed=seed))
    return SweepRun(method, use_chars, seed, best_dev_accuracy=result.best_dev_accuracy)


def pooling_sweep(
    train_examples: Sequence[NLIExample],
    dev_examples: Sequence[NLIExample],
    base_config,
    train_config,
    seeds: Sequence[int],
    embedding_scale: float = EMBEDDING_SCALE,
    jobs: int = 1,
) -> tuple[list[SweepRun], SweepSummary]:
    """Train every (pooling method x chars) cell once per seed (the cell's
    index shifts each seed); collect each run's best dev accuracy and
    summarize.  The vocabularies depend on no cell and are built once."""
    if len(seeds) < 2:
        raise ConfigError("pooling_sweep needs at least 2 seeds for interval estimates")
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")

    grid = [(m, flag) for m in POOLING_METHODS for flag in (False, True)]
    tasks = [
        (method, use_chars, int(seed) + 10_000 * cell_index)
        for cell_index, (method, use_chars) in enumerate(grid)
        for seed in seeds
    ]
    encoder = base_config.encoder
    run = functools.partial(
        _sweep_one,
        train_examples=list(train_examples),
        dev_examples=list(dev_examples),
        vocab=Vocabulary.from_examples(train_examples, dim=encoder.word_dim),
        chars=CharVocabulary.from_examples(train_examples, dim=encoder.char_dim),
        base_config=base_config,
        train_config=train_config,
        embedding_scale=embedding_scale,
    )
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            runs = list(pool.map(run, tasks))
    else:
        runs = [run(task) for task in tasks]
    return runs, summarize_runs(runs)

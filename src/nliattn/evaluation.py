"""Accuracy reports, run statistics, ensembling, and representation export.

The per-genre report follows the standard presentation order for the
matched and mismatched development genres; the pooling sweep trains a grid
of (pooling method x character flag) cells over several seeds and
summarizes them as mean +/- a 95% Student-t interval plus a per-cell best.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np
from scipy import stats

from .classifier import PredictionDistribution
from .data import (
    EMBEDDING_SCALE,
    LABELS,
    CharVocabulary,
    NLIExample,
    Vocabulary,
    make_batches,
    random_embeddings,
)
from .errors import ConfigError, InvalidInputError
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


def _report_from_predictions(predictions, examples, split) -> EvalReport:
    confusion = np.zeros((len(LABELS), len(LABELS)), dtype=np.int64)
    per_genre: dict[str, list[int]] = {}
    for dist, ex in zip(predictions, examples):
        gold = ex.label_index
        confusion[gold, dist.predicted_class] += 1
        bucket = per_genre.setdefault(ex.genre, [0, 0])
        bucket[0] += int(dist.predicted_class == gold)
        bucket[1] += 1
    return EvalReport(
        split=split,
        total=int(confusion.sum()),
        correct=int(np.trace(confusion)),
        confusion=confusion,
        per_genre={g: (c, t) for g, (c, t) in per_genre.items()},
    )


def _batched_predictions(model: NLIModel, examples, batch_size: int):
    ordered = list(examples)
    predictions = []
    for batch in make_batches(ordered, batch_size, "dev", model.vocab, model.char_vocab):
        predictions.extend(model.predict_batch(batch))
    return ordered, predictions


def evaluate(
    model: NLIModel, examples: Sequence[NLIExample], split: str = "matched", batch_size: int = 32
) -> EvalReport:
    """Inference-mode accuracy with per-genre breakdown and confusion counts."""
    if not len(examples):
        raise InvalidInputError("evaluate: empty dataset")
    ordered, predictions = _batched_predictions(model, examples, batch_size)
    return _report_from_predictions(predictions, ordered, split)


# ---------------------------------------------------------------------------
# Ensembling


def _check_compatible(models: Sequence[NLIModel]) -> None:
    if not models:
        raise InvalidInputError("ensemble needs at least one model")
    hashes = {m.vocab_hash for m in models} | {m.char_vocab_hash for m in models}
    if len({m.vocab_hash for m in models}) > 1 or len({m.char_vocab_hash for m in models}) > 1:
        raise ConfigError(f"ensemble models were built against different vocabularies: {hashes}")


def _average(distributions: Sequence[PredictionDistribution]) -> PredictionDistribution:
    rows = [d.probs for d in distributions]
    if all(np.array_equal(rows[0], row) for row in rows[1:]):
        # identical members must reproduce the single model exactly, which
        # summing and dividing would not guarantee in floating point
        probs = rows[0].copy()
    else:
        probs = np.mean(rows, axis=0)
    return PredictionDistribution(probs=probs, predicted_class=int(np.argmax(probs)))


def ensemble_predict(models: Sequence[NLIModel], example: NLIExample) -> PredictionDistribution:
    """Average the per-model class distributions; argmax with lowest-index ties."""
    _check_compatible(models)
    return _average(
        [m.predict_tokens(example.premise_tokens, example.hypothesis_tokens) for m in models]
    )


def ensemble_evaluate(
    models: Sequence[NLIModel],
    examples: Sequence[NLIExample],
    split: str = "matched",
    batch_size: int = 32,
) -> EvalReport:
    _check_compatible(models)
    if not len(examples):
        raise InvalidInputError("evaluate: empty dataset")
    ordered = list(examples)
    per_model = []
    for model in models:
        _, predictions = _batched_predictions(model, ordered, batch_size)
        per_model.append(predictions)
    averaged = [_average(column) for column in zip(*per_model)]
    return _report_from_predictions(averaged, ordered, split)


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
        fields = dict(kv.split("=", 1) for kv in line.split())
        return cls(
            method=fields["method"],
            use_chars=fields["chars"] == "true",
            seed=int(fields["seed"]),
            best_dev_accuracy=float(fields["best_dev_accuracy"]),
        )


@dataclass
class SweepCell:
    method: str
    use_chars: bool
    accuracies: list[float]
    mean: float
    half_width: float
    best: float


@dataclass
class SweepSummary:
    cells: dict[tuple[str, bool], SweepCell] = field(default_factory=dict)
    methods: tuple[str, ...] = ()

    def format_mean_table(self) -> str:
        """Mean +/- 95% CI per cell, methods as rows, char usage as columns."""
        lines = [f"{'Method':<8s} {'w/o chars':>16s} {'w. chars':>16s}"]
        for method in self.methods:
            row = [f"{method:<8s}"]
            for use_chars in (False, True):
                cell = self.cells[(method, use_chars)]
                row.append(f"{100 * cell.mean:6.1f} +- {100 * cell.half_width:4.1f}")
            lines.append(" ".join(row))
        return "\n".join(lines)

    def format_best_table(self) -> str:
        """Best accuracy per cell, same layout."""
        lines = [f"{'Method':<8s} {'w/o chars':>10s} {'w. chars':>10s}"]
        for method in self.methods:
            row = [f"{method:<8s}"]
            for use_chars in (False, True):
                cell = self.cells[(method, use_chars)]
                row.append(f"{100 * cell.best:10.1f}")
            lines.append(" ".join(row))
        return "\n".join(lines)


def write_sweep_records(runs: Sequence[SweepRun], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for run in runs:
            fh.write(run.format() + "\n")


def read_sweep_records(path) -> list[SweepRun]:
    with open(path, "r", encoding="utf-8") as fh:
        return [SweepRun.parse(line) for line in fh if line.strip()]


def summarize_runs(runs: Sequence[SweepRun]) -> SweepSummary:
    """Pure fold over run records; re-summarizing stored logs reproduces it."""
    methods = []
    grouped: dict[tuple[str, bool], list[SweepRun]] = {}
    for run in runs:
        if run.method not in methods:
            methods.append(run.method)
        grouped.setdefault((run.method, run.use_chars), []).append(run)
    summary = SweepSummary(methods=tuple(methods))
    for key, cell_runs in grouped.items():
        accuracies = [r.best_dev_accuracy for r in cell_runs]
        mean, half_width = confidence_interval(accuracies)
        summary.cells[key] = SweepCell(
            method=key[0],
            use_chars=key[1],
            accuracies=accuracies,
            mean=mean,
            half_width=half_width,
            best=max(accuracies),
        )
    return summary


def _sweep_one(args) -> SweepRun:
    # top-level worker so process pools can pickle it
    (
        method,
        use_chars,
        seed,
        train_examples,
        dev_examples,
        base_config,
        train_config,
        embedding_scale,
    ) = args
    from .training import train

    # an unset hidden_per_dir stays unset, so each cell resolves its own width
    encoder = replace(base_config.encoder, use_chars=use_chars)
    config = replace(base_config, encoder=encoder, pooling=method)
    vocab = Vocabulary.from_examples(train_examples, dim=encoder.word_dim)
    chars = CharVocabulary.from_examples(train_examples, dim=encoder.char_dim)
    rng = np.random.default_rng(seed)
    model = NLIModel(config, vocab, chars, random_embeddings(vocab, rng, embedding_scale), rng)
    result = train(model, train_examples, dev_examples, replace(train_config, seed=seed))
    return SweepRun(
        method=method, use_chars=use_chars, seed=seed, best_dev_accuracy=result.best_dev_accuracy
    )


def pooling_sweep(
    train_examples: Sequence[NLIExample],
    dev_examples: Sequence[NLIExample],
    base_config,
    train_config,
    runs_per_cell: int,
    seeds: Sequence[int] | None = None,
    methods: Sequence[str] = ("mean", "sum", "last", "max"),
    embedding_scale: float = EMBEDDING_SCALE,
    jobs: int = 1,
) -> tuple[list[SweepRun], SweepSummary]:
    """Train every (method x chars) cell ``runs_per_cell`` times with distinct
    seeds; collect each run's best dev accuracy and summarize."""
    if runs_per_cell < 2:
        raise ConfigError("pooling_sweep needs runs_per_cell >= 2 for interval estimates")
    if seeds is None:
        seeds = list(range(runs_per_cell))
    if len(seeds) != runs_per_cell:
        raise ConfigError(f"expected {runs_per_cell} seeds, got {len(seeds)}")

    grid = [(m, flag) for m in methods for flag in (False, True)]
    tasks = [
        (
            method,
            use_chars,
            int(seeds[run]) + 10_000 * cell_index,
            list(train_examples),
            list(dev_examples),
            base_config,
            train_config,
            embedding_scale,
        )
        for cell_index, (method, use_chars) in enumerate(grid)
        for run in range(runs_per_cell)
    ]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            runs = list(pool.map(_sweep_one, tasks))
    else:
        runs = [_sweep_one(task) for task in tasks]
    return runs, summarize_runs(runs)

"""Workload definitions and the closed-loop cycles that measure them.

A workload runs as one caller in one process.  It builds two identical
models: the serving model, which never changes and answers ``eval`` and
``predict``, and the trainee, which ``train`` updates.  It then repeats a
cycle, one round of each phase, until the run's seconds are spent.  A
round passes once over the phase's units, each timed on its own:

* ``train``   - per batch of training pairs, one ``training.train`` call of
  one epoch on the trainee, reset to the serving model's weights first
  (with dev eval on the tune split and a checkpoint write)
* ``eval``    - per batch of dev pairs, one ``evaluation.evaluate`` call
* ``predict`` - per dev pair, one ``NLIModel.predict_tokens`` call
* ``setup``   - build the vocabularies, embeddings and model, or load the
  checkpoint, into a copy that is thrown away

Every round of a phase does identical work, so per-round counts repeat
exactly and more rounds only reduce noise.  Every workload runs every
phase, so that every end-to-end metric exists on every workload; the
sizes of its units keep each workload's own regime dominant.

The first cycle is a warm-up and is not timed.  Each unit's time is the
median of its timed repeats, and a phase's figure is built from those.
On a shared host the speed of a process drifts by 10-20% over seconds to
minutes; because every phase runs in every cycle, each figure samples the
whole run rather than one stretch of it.
"""

from __future__ import annotations

import contextlib
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass

import numpy as np

from nliattn import evaluation, training
from nliattn.data import CharVocabulary, Vocabulary, make_batches, random_embeddings
from nliattn.encoder import EncoderConfig
from nliattn.model import ModelConfig, NLIModel

from inputs import paper_corpus
from tracing import PER_LAYER_UNITS, Tracer

END_TO_END_UNITS = {
    "train_pairs_per_s": "pairs/s",
    "infer_pairs_per_s": "pairs/s",
    "predict_ms_p50": "ms",
    "predict_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PROB_SUM_TOL = 1e-5  # a distribution must sum to 1 within this
PATH_TOL = 1e-4  # predict_tokens vs predict_batch, per class probability
PHASES = ("train", "eval", "predict", "setup")  # one round each per cycle, in this order
MIN_PREDICT_CALLS = 100
MIN_TIMED_CYCLES = 2  # every unit is timed at least twice
TUNE_PAIRS = 8  # the tune split: train() evaluates it after each epoch


@dataclass(frozen=True)
class Workload:
    """One workload.  Sizes are fields so that a test can shrink them."""

    name: str
    use_chars: bool
    n_train: int
    n_dev: int
    from_checkpoint: bool  # set-up is load_checkpoint of a saved model
    finetune: bool = False  # train() fits the tune split instead of the train split
    word_dim: int = 300
    hidden_per_dir: int | None = None  # EncoderConfig default: 350 chars on, 300 off
    mlp_width: int = 2000
    char_dim: int = 20
    char_hidden: int = 50
    batch_size: int = 32
    n_types: int = 4000


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train-paper",
            use_chars=True,
            n_train=32,
            n_dev=64,
            from_checkpoint=False,
        ),
        Workload(
            name="infer-paper",
            use_chars=False,
            n_train=64,
            n_dev=64,
            from_checkpoint=True,
            finetune=True,
        ),
    )
}


def _chunks(examples, size: int) -> list:
    return [examples[i : i + size] for i in range(0, len(examples), size)]


def model_config(w: Workload) -> ModelConfig:
    return ModelConfig(
        encoder=EncoderConfig(
            use_chars=w.use_chars,
            word_dim=w.word_dim,
            char_dim=w.char_dim,
            char_hidden=w.char_hidden,
            hidden_per_dir=w.hidden_per_dir,
        ),
        pooling="mean",
        mlp_widths=(w.mlp_width,) * 3,
    )


def build_model(w: Workload, train_examples, seed: int) -> NLIModel:
    """Vocabularies from the train split, frozen random word vectors, model."""
    vocab = Vocabulary.from_examples(train_examples, dim=w.word_dim)
    chars = CharVocabulary.from_examples(train_examples, dim=w.char_dim)
    rng = np.random.default_rng([seed, 1])
    return NLIModel(model_config(w), vocab, chars, random_embeddings(vocab, rng), rng)


@dataclass
class Tally:
    """Operations attempted and failed, with the reason of the first failure."""

    attempted: int = 0
    failed: int = 0
    first_error: str = ""

    def record(self, attempted: int, failed: int, error: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and not self.first_error:
            self.first_error = error


def distribution_error(probs, reference=None) -> str:
    """Why a predicted distribution is wrong, or "" when it passes."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.shape != (3,) or not np.all(np.isfinite(probs)):
        return f"non-finite or malformed probabilities {probs}"
    if abs(probs.sum() - 1.0) > PROB_SUM_TOL:
        return f"probabilities sum to {probs.sum():.8f}"
    if reference is not None:
        gap = float(np.max(np.abs(probs - np.asarray(reference, dtype=np.float64))))
        if gap > PATH_TOL:
            return f"predict_tokens differs from predict_batch by {gap:.2e}"
    return ""


class Runner:
    """One workload run: inputs, set-up, cycles, checks and metrics."""

    def __init__(self, w: Workload, seed: int, seconds: float, trace: bool, workdir):
        self.w = w
        self.seed = seed
        self.seconds = seconds
        self.tracer = Tracer() if trace else None
        self.workdir = workdir
        self.tally = Tally()
        self.walls: dict[str, list[float]] = {}  # per round
        self.untraced_walls: dict[str, float] = {}
        self.timing = False  # whether unit times are kept; off in the warm-up cycle
        self.train_examples, self.dev_examples, self.tune_examples = paper_corpus(
            seed, w.n_train, w.n_dev, TUNE_PAIRS, w.n_types, w.batch_size
        )
        fit = self.tune_examples if w.finetune else self.train_examples
        self.units = {  # the separately timed units of each phase
            "train": _chunks(fit, w.batch_size),
            "eval": _chunks(self.dev_examples, w.batch_size),
            "predict": [[ex] for ex in self.dev_examples],
            "setup": [[]],
        }
        self.samples = {phase: [[] for _ in units] for phase, units in self.units.items()}
        self.checkpoint = None
        if w.from_checkpoint:
            self.checkpoint = os.path.join(workdir, "serving.ckpt")
            training.save_checkpoint(build_model(w, self.train_examples, seed), self.checkpoint)
        self.model = self._build()  # serving model: eval and predict, never trained
        self.trainee = self._build()  # the model train() updates
        self.reference = None  # per eval unit: predict_batch distributions, confusion, error

    def _timed(self, phase: str, i: int, call):
        """Run one unit, keeping its time after the warm-up; exceptions propagate."""
        started = time.perf_counter()
        out = call()
        if self.timing:
            self.samples[phase][i].append(time.perf_counter() - started)
        return out

    def _build(self) -> NLIModel:
        if self.checkpoint is not None:
            return training.load_checkpoint(self.checkpoint).model
        return build_model(self.w, self.train_examples, self.seed)

    # -- rounds -------------------------------------------------------------

    def _setup(self) -> None:
        self._timed("setup", 0, self._build)

    def _train(self) -> None:
        w = self.w
        config = training.TrainConfig(batch_size=w.batch_size, max_epochs=1, seed=self.seed)
        ckpt = os.path.join(self.workdir, "train.ckpt")
        served = self.model.parameters()
        for i, batch in enumerate(self.units["train"]):
            # Every call starts from the serving model's weights, so every
            # call does the same work.  Calls that carried on from the last
            # call's weights drifted in cost: on infer-paper, calls 3 and 4
            # of 6 took 1.8x the CPU time of the others.
            for name, param in self.trainee.parameters().items():
                param.data[...] = served[name].data
            try:
                result = self._timed("train", i, lambda: training.train(
                    self.trainee, batch, self.tune_examples, config, checkpoint_path=ckpt
                ))
            except Exception as exc:  # a failed operation is counted, not fatal
                self.tally.record(1, 1, f"train raised {exc!r}")
                continue
            error = ""
            if result.halted:
                error = f"train halted: {result.halted}"
            elif len(result.epochs) != 1:
                error = f"train ran {len(result.epochs)} epochs, not 1"
            elif not math.isfinite(result.epochs[0].train_loss):
                error = "non-finite training loss"
            elif not os.path.getsize(ckpt):
                error = "empty checkpoint"
            self.tally.record(1, 1 if error else 0, error)

    def _eval(self) -> None:
        for i, (batch, (_, confusion, ref_error)) in enumerate(
            zip(self.units["eval"], self.reference)
        ):
            try:
                report = self._timed("eval", i, lambda: evaluation.evaluate(
                    self.model, batch, batch_size=self.w.batch_size
                ))
            except Exception as exc:
                self.tally.record(1, 1, f"evaluate raised {exc!r}")
                continue
            error = ref_error
            if report.total != len(batch) or not np.array_equal(report.confusion, confusion):
                error = "evaluate disagrees with predict_batch"
            self.tally.record(1, 1 if error else 0, error)

    def _predict(self) -> None:
        references = [dist for dists, _, _ in self.reference for dist in dists]
        for i, ([ex], ref) in enumerate(zip(self.units["predict"], references)):
            try:
                dist = self._timed("predict", i, lambda: self.model.predict_tokens(
                    ex.premise_tokens, ex.hypothesis_tokens
                ))
            except Exception as exc:
                self.tally.record(1, 1, f"predict_tokens raised {exc!r}")
                continue
            error = distribution_error(dist.probs, ref.probs)
            self.tally.record(1, 1 if error else 0, error)

    def _reference_batches(self) -> None:
        """predict_batch of the serving model on each eval unit: its
        distributions (checked one by one), their confusion counts and the
        first failed check."""
        self.reference = []
        for batch in make_batches(
            self.dev_examples, self.w.batch_size, "dev", self.model.vocab, self.model.char_vocab
        ):
            dists = self.model.predict_batch(batch)
            confusion = np.zeros((3, 3), dtype=np.int64)
            for dist, label in zip(dists, batch.labels):
                confusion[int(label), dist.predicted_class] += 1
            errors = [e for e in (distribution_error(d.probs) for d in dists) if e]
            self.reference.append((dists, confusion, errors[0] if errors else ""))

    # -- running ------------------------------------------------------------

    @contextlib.contextmanager
    def _round(self, phase: str, traced: bool):
        """Time one round, tracing it when the run is traced and ``traced``;
        the first round of a phase stays untraced as the overhead reference."""
        wall = [0.0]
        traced = traced and self.tracer is not None
        with self.tracer.recording(phase) if traced else contextlib.nullcontext():
            started = time.perf_counter()
            try:
                yield wall
            finally:
                wall[0] = time.perf_counter() - started
        self.walls.setdefault(phase, []).append(wall[0])
        if self.tracer is not None and not traced:
            self.untraced_walls.setdefault(phase, wall[0])

    def _run_round(self, phase: str) -> None:
        with self._round(phase, traced=phase in self.walls):
            getattr(self, "_" + phase)()

    def run(self) -> dict:
        """Cycle until the seconds are spent; the first cycle is the warm-up
        (and, in a traced run, the untraced reference)."""
        self._reference_batches()
        passes = math.ceil(MIN_PREDICT_CALLS / len(self.dev_examples))
        min_cycles = 1 + max(MIN_TIMED_CYCLES, passes)
        started = time.perf_counter()
        cycles, last = 0, 0.0
        while cycles < min_cycles or time.perf_counter() - started + last <= self.seconds:
            cycle_started = time.perf_counter()
            self.timing = cycles > 0
            for phase in PHASES:
                self._run_round(phase)
            last = time.perf_counter() - cycle_started
            cycles += 1
        return {
            "attempted": self.tally.attempted,
            "failed": self.tally.failed,
            "first_error": self.tally.first_error,
            "metrics": self._metrics(),
        }

    def _metrics(self) -> dict:
        if self.tracer is not None:
            values = self.tracer.per_layer(("train", "eval", "predict"), self.untraced_walls)
            metric_units = PER_LAYER_UNITS
        else:
            median = {
                phase: [statistics.median(times) for times in per_unit]
                for phase, per_unit in self.samples.items()
            }

            def rate(phase: str) -> float:
                return sum(map(len, self.units[phase])) / sum(median[phase])

            latency_ms = [t * 1e3 for t in median["predict"]]
            values = {
                "train_pairs_per_s": rate("train"),
                "infer_pairs_per_s": rate("eval"),
                "predict_ms_p50": statistics.median(latency_ms),
                "predict_ms_p90": statistics.quantiles(latency_ms, n=10)[8],
                "setup_s": median["setup"][0],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metric_units = END_TO_END_UNITS
        return {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in metric_units.items()
        }

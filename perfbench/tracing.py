"""Per-layer spans recorded from outside the library.

``Tracer.recording`` replaces the public functions of the ``nliattn``
modules, at the module or class attribute the library looks them up
through, with thin wrappers that record a span per call; on exit it puts
the original objects back, so untraced code runs the library unmodified.
Spans stay in memory (name, start, end, parent, step id, phase and round)
and are written out once, at the end of the run.

A layer's self time is its span's duration minus the durations of its
direct child spans.  Time inside a phase round that no layer span covers
is the unattributed remainder.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

import numpy as np

from nliattn import autodiff, classifier, data, encoder, evaluation, model, training

# Layer metrics and their units, in report order.  Every ``.s`` metric is
# self time per workload iteration (one round of each measured phase).
PER_LAYER_UNITS = {
    "autodiff.backward.s": "s",
    "autodiff.tape_records": "records/pair",
    "encoder.embed.s": "s",
    "encoder.char_lstm.s": "s",
    "encoder.char_lstm.calls": "count",
    "encoder.char_lstm.records": "count",
    "encoder.char_lstm.unique_ratio": "ratio",
    "encoder.bilstm.s": "s",
    "encoder.bilstm.steps": "count",
    "encoder.bilstm.records": "count",
    "encoder.pool.s": "s",
    "encoder.attention.s": "s",
    "encoder.attention.records": "count",
    "classifier.aggregate.s": "s",
    "classifier.mlp.s": "s",
    "classifier.mlp.records": "count",
    "model.loss.s": "s",
    "model.tokens_to_inputs.s": "s",
    "training.rmsprop.s": "s",
    "training.save_checkpoint.s": "s",
    "training.load_checkpoint.s": "s",
    "data.make_batches.s": "s",
    "data.pad_fraction": "ratio",
    "evaluation.dev.s": "s",
    "trace.unattributed.s": "s",
    "trace.unattributed_share": "ratio",
    "trace.overhead": "ratio",
}

# Layers whose tape-record delta is reported as ``<layer>.records``.
_RECORDED_LAYERS = ("encoder.char_lstm", "encoder.bilstm", "encoder.attention", "classifier.mlp")


def _targets():
    """(owner, attribute, span name) for every wrapped function.

    A function imported into several modules is wrapped at each of them,
    because the library resolves the name in the calling module.
    """
    return [
        (autodiff.Tape, "backward", "autodiff.backward"),
        (encoder.Encoder, "embed_tokens", "encoder.embed"),
        (encoder, "char_encode", "encoder.char_lstm"),
        (encoder, "bilstm", "encoder.bilstm"),
        (encoder, "pool", "encoder.pool"),
        (encoder, "inner_attention", "encoder.attention"),
        (classifier, "aggregate", "classifier.aggregate"),
        (classifier, "classify", "classifier.mlp"),
        (model.NLIModel, "batch_loss", "model.loss"),
        (model.NLIModel, "predict_batch", "model.predict_batch"),
        (model.NLIModel, "predict_tokens", "model.predict_tokens"),
        (model.NLIModel, "tokens_to_inputs", "model.tokens_to_inputs"),
        (training.RMSProp, "step", "training.rmsprop"),
        (training, "save_checkpoint", "training.save_checkpoint"),
        (training, "load_checkpoint", "training.load_checkpoint"),
        (training, "make_batches", "data.make_batches"),
        (evaluation, "make_batches", "data.make_batches"),
        (data, "make_batches", "data.make_batches"),
        (training, "_dev_accuracy", "evaluation.dev"),
        (evaluation, "evaluate", "evaluation.dev"),
    ]


# Spans that open a new step: one training batch, one eval batch or one
# single-pair prediction.
_STEP_SPANS = {"model.loss", "model.predict_batch", "model.predict_tokens"}


def originals() -> dict:
    """The library objects the tracer replaces, keyed by (owner, attribute)."""
    return {(owner, attr): owner.__dict__[attr] for owner, attr, _ in _targets()}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a phase round
    step: int
    phase: str
    round: int
    records: int  # tape records created inside the span (0 without a tape)


class Tracer:
    """Collects spans and counts while ``recording`` is active."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.char_words: dict[tuple[str, int], set] = defaultdict(set)
        self.rounds: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._step = 0
        self._phase = ""
        self._round = 0

    # -- recording ----------------------------------------------------------

    @contextlib.contextmanager
    def recording(self, phase: str):
        """Trace one round of a phase; the library is unpatched on exit."""
        saved = originals()
        self._phase = phase
        self._round = self.rounds[phase]
        self.rounds[phase] += 1
        for owner, attr, name in _targets():
            setattr(owner, attr, self._wrap(name, saved[(owner, attr)]))
        try:
            with self._span(f"phase.{phase}"):
                yield
        finally:
            for (owner, attr), original in saved.items():
                setattr(owner, attr, original)

    @contextlib.contextmanager
    def _span(self, name: str):
        tape = autodiff._active_tape()
        before = len(tape) if tape is not None else 0
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            records = len(tape) - before if tape is not None else 0
            self.spans[index] = Span(
                name, start, end, parent, self._step, self._phase, self._round, records
            )

    def _wrap(self, name: str, fn):
        count = getattr(self, "_count_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in _STEP_SPANS:
                self._step += 1
            with self._span(name):
                out = fn(*args, **kwargs)
            if count is not None:
                count(args, out)
            return out

        return traced

    def _add(self, key: str, amount: float) -> None:
        self.counts[(self._phase, key)] += amount

    # per-layer counters, looked up by span name in ``_wrap``

    def _count_autodiff_backward(self, args, out):
        self._add("tape_records", len(args[0]))

    def _count_model_loss(self, args, out):
        self._add("trained_pairs", len(args[1]))

    def _count_encoder_bilstm(self, args, out):
        self._add("bilstm_steps", 2 * int(np.count_nonzero(out.mask)))

    def _count_encoder_char_lstm(self, args, out):
        self._add("char_calls", 1)
        self.char_words[(self._phase, self._step)].add(tuple(np.asarray(args[0]).tolist()))

    def _count_data_make_batches(self, args, out):
        for batch in out:
            for mask in (batch.premise_mask, batch.hypothesis_mask):
                self._add("pad_slots", int(mask.size - np.count_nonzero(mask)))
                self._add("padded_slots", int(mask.size))

    # -- reporting ----------------------------------------------------------

    def per_layer(self, measured_phases, untraced_walls: dict[str, float]) -> dict[str, float]:
        """Per-layer metrics, each a per-iteration value: the per-round
        mean of every phase, summed over phases."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start

        def per_round(phase: str) -> float:
            return 1.0 / max(self.rounds[phase], 1)

        self_time: dict[str, float] = defaultdict(float)
        records: dict[str, float] = defaultdict(float)
        traced_wall = 0.0
        unattributed = 0.0
        for i, span in enumerate(spans):
            weight = per_round(span.phase)
            own = (span.end - span.start) - child_time[i]
            if span.name.startswith("phase.") or span.name in (
                "model.predict_batch",
                "model.predict_tokens",
            ):
                if span.phase in measured_phases:
                    unattributed += own * weight
                    if span.parent < 0:
                        traced_wall += (span.end - span.start) * weight
                continue
            self_time[span.name] += own * weight
            records[span.name] += span.records * weight

        def count(key: str) -> float:
            return sum(v * per_round(p) for (p, k), v in self.counts.items() if k == key)

        metrics = {name: 0.0 for name in PER_LAYER_UNITS}
        for name in PER_LAYER_UNITS:
            if name.endswith(".s") and name[:-2] in self_time:
                metrics[name] = self_time[name[:-2]]
        for layer in _RECORDED_LAYERS:
            metrics[f"{layer}.records"] = records[layer]
        trained = count("trained_pairs")
        metrics["autodiff.tape_records"] = count("tape_records") / trained if trained else 0.0
        metrics["encoder.bilstm.steps"] = count("bilstm_steps")
        calls = count("char_calls")
        metrics["encoder.char_lstm.calls"] = calls
        unique = sum(
            len(words) * per_round(phase) for (phase, _), words in self.char_words.items()
        )
        metrics["encoder.char_lstm.unique_ratio"] = unique / calls if calls else 0.0
        padded = count("padded_slots")
        metrics["data.pad_fraction"] = count("pad_slots") / padded if padded else 0.0
        metrics["trace.unattributed.s"] = unattributed
        metrics["trace.unattributed_share"] = unattributed / traced_wall if traced_wall else 0.0
        untraced = sum(untraced_walls[p] for p in measured_phases)
        metrics["trace.overhead"] = traced_wall / untraced - 1.0 if untraced else 0.0
        return metrics

    def write(self, path) -> None:
        """Write the spans as JSON lines, one per span, in creation order."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")

"""Finite-difference verification of the analytic gradients.

``numeric_gradient`` is the oracle: central differences, coordinate by
coordinate, mutating the target array in place and restoring it.  It is
intentionally independent of the tape machinery so the two sides of every
check stay separate.  Run these under ``precision("float64")``; float32
differences are dominated by rounding noise.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import autodiff as ad

# Below this magnitude both analytic and numeric gradients are treated as
# zero: central differences of a ~O(1) loss cannot resolve anything smaller.
GRAD_FLOOR = 1e-7


def numeric_gradient(f: Callable[[], float], array: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """d f / d array via central differences (f(x+eps) - f(x-eps)) / 2 eps."""
    grad = np.zeros_like(array, dtype=np.float64)
    flat = array.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + eps
        up = f()
        flat[i] = saved - eps
        down = f()
        flat[i] = saved
        gflat[i] = (up - down) / (2.0 * eps)
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max elementwise relative disagreement, ignoring coordinates where both
    gradients sit below the finite-difference noise floor."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    live = scale > GRAD_FLOOR
    if not live.any():
        return 0.0
    err = np.abs(analytic - numeric)[live] / scale[live]
    return float(err.max())


def gradient_errors(
    forward: Callable[[], ad.Tensor],
    wrt: dict[str, ad.Tensor],
    eps: float = 1e-5,
) -> dict[str, float]:
    """Per-tensor max relative error of taped vs finite-difference gradients.

    ``forward`` must rebuild the scalar loss from the current contents of
    the ``wrt`` tensors each time it is called.  A tensor the tape gives no
    gradient counts as having a zero one.
    """
    with ad.Tape() as tape:
        loss = forward()
    for t in wrt.values():
        t.grad = None
    tape.backward(loss)
    analytic = {
        name: np.zeros(t.shape) if t.grad is None else np.array(t.grad, dtype=np.float64)
        for name, t in wrt.items()
    }

    def loss_value() -> float:
        return forward().item()

    return {
        name: relative_error(analytic[name], numeric_gradient(loss_value, t.data, eps=eps))
        for name, t in wrt.items()
    }


def check_gradient(
    forward: Callable[[], ad.Tensor], wrt: list[ad.Tensor], eps: float = 1e-5
) -> float:
    """The worst of ``gradient_errors`` over the tensors ``wrt``."""
    return max(gradient_errors(forward, dict(enumerate(wrt)), eps=eps).values())


def operation_suite(seed: int = 20240, eps: float = 1e-5) -> dict[str, float]:
    """Finite-difference check of every differentiable operation in isolation.

    Returns op name -> max relative error.  Must run in float64 mode; random
    inputs are kept away from kinks (relu/abs corners, max-pool ties) so the
    central differences are meaningful.
    """
    rng = np.random.default_rng(seed)

    def rand(*shape):
        return ad.Tensor(rng.uniform(-1.2, 1.2, shape))

    def weighted_sum(out: ad.Tensor, weights: ad.Tensor) -> ad.Tensor:
        if out.ndim == 0:
            return out
        return ad.sum_all(ad.mul(out, weights))

    errors: dict[str, float] = {}

    def run(name: str, build, wrt):
        errors[name] = check_gradient(build, wrt, eps=eps)

    x, y = rand(3, 4), rand(3, 4)
    wxy = rand(3, 4)
    run("add", lambda: weighted_sum(ad.add(x, y), wxy), [x, y])
    run("sub", lambda: weighted_sum(ad.sub(x, y), wxy), [x, y])
    run("mul", lambda: weighted_sum(ad.mul(x, y), wxy), [x, y])

    run("tanh", lambda: weighted_sum(ad.tanh(x), wxy), [x])
    run("sigmoid", lambda: weighted_sum(ad.sigmoid(x), wxy), [x])
    run("relu", lambda: weighted_sum(ad.relu(x), wxy), [x])
    run("absolute", lambda: weighted_sum(ad.absolute(x), wxy), [x])

    wn = rand(2, 4)
    run("narrow", lambda: weighted_sum(ad.narrow(x, 0, 1, 2), wn), [x])
    p1, p2 = rand(3), rand(2)
    wc = rand(5)
    run("concat", lambda: weighted_sum(ad.concat([p1, p2]), wc), [p1, p2])
    table = rand(5, 3)
    idx = np.array([0, 2, 2, 4])
    wt = rand(4, 3)
    run("take_rows", lambda: weighted_sum(ad.take_rows(table, idx), wt), [table])

    # packed segments of lengths 2, 1 and 3: every reduction sees a
    # length-1 segment beside longer ones
    lengths = np.array([2, 1, 3])
    scores = rand(6)
    wsm = rand(6)
    run("segment_softmax", lambda: weighted_sum(ad.segment_softmax(scores, lengths), wsm), [scores])

    m = rand(6, 3)
    weights = rand(6)
    wr = rand(3, 3)
    run("segment_sum", lambda: weighted_sum(ad.segment_sum(m, lengths), wr), [m])
    run(
        "segment_sum_weighted",
        lambda: weighted_sum(ad.segment_sum(m, lengths, weights), wr),
        [m, weights],
    )
    run("segment_mean", lambda: weighted_sum(ad.segment_mean(m, lengths), wr), [m])
    run("segment_max", lambda: weighted_sum(ad.segment_max(m, lengths), wr), [m])

    def dropout_forward():
        # identical mask on every call so the finite differences see a fixed function
        drop_rng = np.random.default_rng(7)
        return weighted_sum(ad.dropout(x, 0.25, True, drop_rng), wxy)

    run("dropout", dropout_forward, [x])

    # fused layers, at sizes where every weight gradient is exercised
    w_aff, b_aff = rand(5, 4), rand(5)
    wa = rand(3, 5)
    run("affine", lambda: weighted_sum(ad.affine(x, w_aff, b_aff), wa), [x, w_aff, b_aff])

    # three sequences of unequal lengths, one of them a single step; the two
    # directions have their own weights and widths
    seq_x, seq_lengths = rand(6, 3), [1, 3, 2]
    fwd = (rand(8, 3), rand(8, 2), rand(8))
    bwd = (rand(12, 3), rand(12, 3), rand(12))
    for name, directions, width in (
        ("forward", {"forward": fwd}, 2),
        ("reverse", {"backward": fwd}, 2),
        ("bidirectional", {"forward": fwd, "backward": bwd}, 5),
    ):
        wl = rand(6, width)
        run(
            f"lstm_sequence_{name}",
            lambda directions=directions, wl=wl: weighted_sum(
                ad.lstm_sequence(seq_x, seq_lengths, **directions), wl
            ),
            [seq_x, *(w for weights in directions.values() for w in weights)],
        )

    att_h, att_q = rand(6, 2), rand(3, 2)
    att_w, att_v = rand(3, 4), rand(3)
    run(
        "attention_scores",
        lambda: weighted_sum(ad.attention_scores(att_h, lengths, att_q, att_w, att_v), wsm),
        [att_h, att_q, att_w, att_v],
    )

    logits = rand(4, 3)
    labels = np.array([0, 2, 1, 1])
    run("cross_entropy_from_logits", lambda: ad.cross_entropy_from_logits(logits, labels), [logits])
    run("sum_all", lambda: ad.sum_all(x), [x])

    return errors


TINY_DIMS = {
    "word_dim": 8,
    "char_dim": 4,
    "char_hidden": 5,
    "hidden_per_dir": 6,
    "mlp_width": 7,
}


def model_suite(seed: int = 7, eps: float = 1e-5) -> dict[str, float]:
    """Finite-difference check of the whole composed model at tiny dimensions.

    Builds a character-aware model in float64, computes the batch loss on
    two synthetic pairs, and compares the taped gradient of every trainable
    parameter coordinate against central differences.  Parameters are
    re-drawn at a healthy scale first: the production initialization is so
    small that true gradients would sink below finite-difference noise.
    """
    from .data import CharVocabulary, NLIExample, Vocabulary, make_batches, random_embeddings
    from .encoder import EncoderConfig
    from .model import ModelConfig, NLIModel

    with ad.precision("float64"):
        # short sentences keep the 2 * coordinate-count forward passes cheap
        examples = [
            NLIExample("g0", "g", ["a", "cat", "runs", "far"], ["it", "runs"], "entailment"),
            NLIExample("g1", "g", ["the", "dog", "sat"], ["dogs", "eat", "now"], "neutral"),
        ]
        vocab = Vocabulary.from_examples(examples, dim=TINY_DIMS["word_dim"])
        chars = CharVocabulary.from_examples(examples, dim=TINY_DIMS["char_dim"])
        rng = np.random.default_rng(seed)
        config = ModelConfig(
            encoder=EncoderConfig(
                use_chars=True,
                word_dim=TINY_DIMS["word_dim"],
                char_dim=TINY_DIMS["char_dim"],
                char_hidden=TINY_DIMS["char_hidden"],
                hidden_per_dir=TINY_DIMS["hidden_per_dir"],
            ),
            pooling="mean",
            mlp_widths=(TINY_DIMS["mlp_width"],) * 3,
            dropout=0.25,
        )
        embeddings = random_embeddings(vocab, rng, scale=0.5)
        model = NLIModel(config, vocab, chars, embeddings, rng)
        trainable = {name: p for name, p in model.parameters().items() if p.requires_grad}
        for p in trainable.values():
            p.data[:] = rng.uniform(-0.6, 0.6, p.shape)
        batch = make_batches(examples, 2, "dev", vocab, chars)[0]
        return gradient_errors(lambda: model.batch_loss(batch), trainable, eps=eps)


OPERATION_TOLERANCE = 1e-4
MODEL_TOLERANCE = 1e-3


def run_full_check(seed: int = 7) -> "GradCheckReport":
    """Per-operation and composed-model finite-difference suites in one report."""
    with ad.precision("float64"):
        operations = operation_suite()
    parameters = model_suite(seed=seed)
    return GradCheckReport(operations=operations, parameters=parameters)


class GradCheckReport:
    def __init__(self, operations: dict[str, float], parameters: dict[str, float]):
        self.operations = operations
        self.parameters = parameters

    @property
    def failures(self) -> list[str]:
        bad = [name for name, err in self.operations.items() if err > OPERATION_TOLERANCE]
        bad += [name for name, err in self.parameters.items() if err > MODEL_TOLERANCE]
        return bad

    @property
    def passed(self) -> bool:
        return not self.failures

    def format(self) -> str:
        lines = [f"operation checks (tolerance {OPERATION_TOLERANCE:g}):"]
        for name, err in self.operations.items():
            flag = "ok" if err <= OPERATION_TOLERANCE else "FAIL"
            lines.append(f"  {name:<28s} {err:.3e}  {flag}")
        lines.append(f"model parameter checks (tolerance {MODEL_TOLERANCE:g}):")
        for name, err in self.parameters.items():
            flag = "ok" if err <= MODEL_TOLERANCE else "FAIL"
            lines.append(f"  {name:<28s} {err:.3e}  {flag}")
        verdict = "all gradients within tolerance" if self.passed else (
            "FAILED: " + ", ".join(self.failures)
        )
        lines.append(verdict)
        return "\n".join(lines)


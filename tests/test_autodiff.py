import os
import platform
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from nliattn import autodiff as ad
from nliattn import gradcheck as gc
from nliattn.errors import (
    ConfigError,
    DataError,
    DimensionError,
    InvalidInputError,
    UsageError,
)


class TestElementwise:
    def test_analytic_points(self):
        assert ad.tanh(ad.Tensor(0.0)).item() == 0.0
        assert ad.sigmoid(ad.Tensor(0.0)).item() == 0.5
        assert ad.relu(ad.Tensor(-1.0)).item() == 0.0

    def test_abs_of_x_minus_x_is_zero(self):
        x = ad.Tensor(np.random.default_rng(0).normal(size=(4, 5)))
        out = ad.absolute(ad.sub(x, x))
        np.testing.assert_array_equal(out.data, np.zeros((4, 5), dtype=np.float32))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ad.add(ad.Tensor(np.zeros(3)), ad.Tensor(np.zeros(4)))
        with pytest.raises(DimensionError):
            ad.mul(ad.Tensor(np.zeros((2, 2))), ad.Tensor(np.zeros((2, 3))))

    def test_tanh_gradient_matches_finite_differences(self):
        with ad.precision("float64"):
            x = ad.Tensor(np.random.default_rng(3).normal(size=(5,)))
            err = gc.check_gradient(lambda: ad.sum_all(ad.tanh(x)), [x])
        assert err < 1e-4

    def test_sigmoid_stable_at_extremes(self):
        out = ad.sigmoid(ad.Tensor([-500.0, 500.0]))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("dtype,atol", [(np.float32, 2e-7), (np.float64, 1e-15)])
    def test_sigmoid_matches_expit(self, dtype, atol):
        from scipy.special import expit

        x = np.concatenate([np.linspace(-100.0, 100.0, 20001), [-1e4, 1e4]]).astype(dtype)
        with np.errstate(all="raise"):
            y = ad._sigmoid(x)
            into = np.empty_like(x)
            assert ad._sigmoid(x, out=into) is into
            scalar = ad._sigmoid(np.array(dtype(0.75)))
        assert y.dtype == dtype
        np.testing.assert_allclose(y, expit(x.astype(np.float64)), rtol=0, atol=atol)
        np.testing.assert_array_equal(into, y)
        assert isinstance(scalar, np.ndarray) and scalar.shape == ()
        assert abs(float(scalar) - expit(0.75)) <= atol


class TestMaskedSoftmax:
    """Softmax over the live positions of each packed sentence (``segment_softmax``)."""

    def test_uniform(self):
        out = ad.segment_softmax(ad.Tensor([0.0, 0.0, 0.0]), [3])
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-7)

    def test_masked_position_forced_to_zero(self):
        # the encoder packs the live positions, so a masked one has no slot
        scores = np.array([5.0, 5.0, -999.0])
        mask = np.array([True, True, False])
        out = ad.segment_softmax(ad.Tensor(scores[mask]), [int(mask.sum())])
        probs = np.zeros(3)
        probs[mask] = out.data
        assert probs[2] == 0.0
        np.testing.assert_allclose(probs[:2], [0.5, 0.5], atol=1e-7)

    def test_matches_direct_formula(self):
        # oracle: exponentiate-and-normalize at 64-bit, no max-subtraction
        rng = np.random.default_rng(42)
        scores = rng.normal(size=7)
        expected = np.exp(scores.astype(np.float64))
        expected /= expected.sum()
        out = ad.segment_softmax(ad.Tensor(scores), [7])
        np.testing.assert_allclose(out.data, expected, atol=1e-6)

    def test_all_masked_rejected(self):
        with pytest.raises(InvalidInputError):
            ad.segment_softmax(ad.Tensor([1.0, 2.0]), [2, 0])

    def test_sums_to_one_random(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            mask = rng.random((int(rng.integers(1, 5)), int(rng.integers(1, 12)))) < 0.7
            mask[np.arange(mask.shape[0]), rng.integers(mask.shape[1], size=mask.shape[0])] = True
            lengths = mask.sum(axis=1)
            out = ad.segment_softmax(ad.Tensor(rng.normal(scale=5, size=lengths.sum())), lengths)
            starts = np.cumsum(lengths) - lengths
            np.testing.assert_allclose(np.add.reduceat(out.data, starts), 1.0, atol=1e-6)
            assert np.all(out.data > 0)

    def test_large_scores_do_not_overflow(self):
        out = ad.segment_softmax(ad.Tensor([1000.0, 1000.0, 999.0]), [3])
        assert np.all(np.isfinite(out.data))


SEGMENT_REDUCTIONS = (ad.segment_mean, ad.segment_sum, ad.segment_max)


class TestReduce:
    def test_single_row_degenerate(self):
        row = np.array([[2.0, -3.0, 0.5]])
        x = ad.Tensor(row)
        for fn in SEGMENT_REDUCTIONS:
            np.testing.assert_allclose(fn(x, [1]).data, row, atol=1e-7)

    def test_hand_forced(self):
        x = ad.Tensor([[1.0, 3.0], [5.0, 1.0]])
        np.testing.assert_allclose(ad.segment_mean(x, [2]).data, [[3.0, 2.0]])
        np.testing.assert_allclose(ad.segment_sum(x, [2]).data, [[6.0, 4.0]])
        np.testing.assert_allclose(ad.segment_max(x, [2]).data, [[5.0, 3.0]])

    def test_masked_padding_neutral(self):
        # oracle: the same reductions over the sentence alone; the rows
        # packed after it belong to another segment
        rng = np.random.default_rng(5)
        real = rng.normal(size=(4, 6))
        packed = np.vstack([real, rng.normal(size=(3, 6))])
        for fn in SEGMENT_REDUCTIONS:
            np.testing.assert_array_equal(
                fn(ad.Tensor(packed), [4, 3]).data[0], fn(ad.Tensor(real), [4]).data[0]
            )

    def test_all_masked_rejected(self):
        for fn in SEGMENT_REDUCTIONS:
            with pytest.raises(InvalidInputError):
                fn(ad.Tensor(np.ones((2, 2))), [2, 0])

    def test_max_gradient_routes_to_first_argmax(self):
        x = ad.Tensor([[1.0, 7.0], [1.0, 7.0], [0.0, 2.0], [3.0, 3.0], [3.0, 3.0]])
        with ad.Tape() as tape:
            loss = ad.sum_all(ad.segment_max(x, [3, 2]))
        tape.backward(loss)
        np.testing.assert_array_equal(
            x.grad, [[1.0, 1.0], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [0.0, 0.0]]
        )


class TestDropout:
    def test_inference_identity(self):
        x = ad.Tensor(np.ones((3, 3)))
        out = ad.dropout(x, 0.5, training=False, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(out.data, x.data)

    def test_p_zero_identity(self):
        x = ad.Tensor(np.ones((3, 3)))
        out = ad.dropout(x, 0.0, training=True, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(out.data, x.data)

    def test_inverted_scaling_preserves_mean(self):
        x = ad.Tensor(np.ones(1_000_000))
        out = ad.dropout(x, 0.25, training=True, rng=np.random.default_rng(123))
        assert abs(float(out.data.mean()) - 1.0) < 0.01

    def test_bad_probability_rejected(self):
        x = ad.Tensor(np.ones(3))
        for p in (-0.1, 1.0, 1.5):
            with pytest.raises(ConfigError):
                ad.dropout(x, p, training=True, rng=np.random.default_rng(0))


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss = ad.cross_entropy_from_logits(ad.Tensor([[0.0, 0.0, 0.0]]), [1])
        assert abs(loss.item() - np.log(3.0)) < 1e-6

    def test_confident_logit_drives_loss_to_zero(self):
        loss = ad.cross_entropy_from_logits(ad.Tensor([[50.0, 0.0, 0.0]]), [0])
        assert loss.item() < 1e-6
        milder = ad.cross_entropy_from_logits(ad.Tensor([[5.0, 0.0, 0.0]]), [0])
        assert loss.item() < milder.item()

    def test_label_out_of_range(self):
        with pytest.raises(DataError, match="example 1"):
            ad.cross_entropy_from_logits(ad.Tensor(np.zeros((2, 3))), [0, 3])

    def test_gradient_matches_finite_differences(self):
        with ad.precision("float64"):
            logits = ad.Tensor(np.random.default_rng(9).normal(size=(4, 3)))
            labels = np.array([0, 1, 2, 1])
            err = gc.check_gradient(
                lambda: ad.cross_entropy_from_logits(logits, labels), [logits]
            )
        assert err < 1e-4

    def test_stable_for_huge_logits(self):
        loss = ad.cross_entropy_from_logits(ad.Tensor([[1e4, -1e4, 0.0]]), [0])
        assert np.isfinite(loss.item())


class TestBackward:
    def test_sum_gives_ones(self):
        theta = ad.Tensor(np.random.default_rng(1).normal(size=(3, 4)))
        with ad.Tape() as tape:
            loss = ad.sum_all(theta)
        tape.backward(loss)
        np.testing.assert_array_equal(theta.grad, np.ones((3, 4), dtype=np.float32))

    def test_sum_of_squares_gives_two_theta(self):
        theta = ad.Tensor(np.random.default_rng(2).normal(size=(5,)))
        with ad.Tape() as tape:
            loss = ad.sum_all(ad.mul(theta, theta))
        tape.backward(loss)
        np.testing.assert_allclose(theta.grad, 2 * theta.data, rtol=1e-6)

    def test_non_scalar_loss_rejected(self):
        x = ad.Tensor(np.zeros(3))
        with ad.Tape() as tape:
            y = ad.tanh(x)
        with pytest.raises(UsageError):
            tape.backward(y)

    def test_loss_not_on_tape_rejected(self):
        with ad.Tape() as tape:
            ad.sum_all(ad.Tensor(np.zeros(2)))
        stray = ad.Tensor(1.0)
        with pytest.raises(UsageError):
            tape.backward(stray)

    def test_gradients_accumulate_across_tapes(self):
        theta = ad.Tensor(np.ones(3))
        for _ in range(2):
            with ad.Tape() as tape:
                loss = ad.sum_all(theta)
            tape.backward(loss)
        np.testing.assert_array_equal(theta.grad, 2 * np.ones(3, dtype=np.float32))

    def test_tapes_of_two_threads_do_not_mix(self):
        # both tapes are open while both threads run their forward passes
        barrier = threading.Barrier(2, timeout=30)
        grads, errors = {}, []

        def run(k):
            theta = ad.Tensor(np.full(3, k + 1.0))
            try:
                with ad.Tape() as tape:
                    barrier.wait()
                    loss = ad.sum_all(ad.mul(theta, theta))
                    barrier.wait()
                    tape.backward(loss)
                grads[k] = theta.grad
            except Exception as exc:
                errors.append(exc)
                barrier.abort()

        threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        for k in range(2):
            np.testing.assert_array_equal(grads[k], np.full(3, 2 * (k + 1.0), dtype=np.float32))

    def test_double_backward_rejected(self):
        theta = ad.Tensor(np.ones(3))
        with ad.Tape() as tape:
            loss = ad.sum_all(theta)
        tape.backward(loss)
        with pytest.raises(UsageError):
            tape.backward(loss)

    def test_shared_subexpression(self):
        # loss = sum(x*x + x) => grad 2x + 1
        x = ad.Tensor(np.array([1.0, -2.0, 3.0]))
        with ad.Tape() as tape:
            loss = ad.sum_all(ad.add(ad.mul(x, x), x))
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, 2 * x.data + 1, rtol=1e-6)

    def test_repeated_use_through_aliased_gradients(self):
        # add hands the same gradient array to both inputs; accumulating x's
        # three contributions must not write through into b's gradient
        x = ad.Tensor(np.array([1.0, -2.0]))
        b = ad.Tensor(np.array([0.5, 4.0]))
        with ad.Tape() as tape:
            loss = ad.sum_all(ad.add(ad.add(ad.add(x, b), x), x))
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [3.0, 3.0])
        np.testing.assert_array_equal(b.grad, [1.0, 1.0])

    @staticmethod
    def _separate_leaf_grads(op):
        x = ad.Tensor(np.array([1.0, -2.0]))
        y = ad.Tensor(np.array([0.5, 4.0]))
        with ad.Tape() as tape:
            loss = ad.sum_all(op(x, y))
        tape.backward(loss)
        expected = y.grad.copy()
        x.grad += 100.0
        np.testing.assert_array_equal(y.grad, expected)
        return x, y

    def test_add_of_two_leaves_gives_each_its_own_grad(self):
        # add hands its upstream gradient straight through, to both leaves
        x, y = self._separate_leaf_grads(ad.add)
        assert not np.shares_memory(x.grad, y.grad)

    def test_concat_slices_give_each_leaf_its_own_grad(self):
        # concat hands each leaf a view of one gradient array
        x, y = self._separate_leaf_grads(lambda a, b: ad.concat([a, b]))
        np.testing.assert_array_equal(y.grad, [1.0, 1.0])
        assert x.grad.base is None and y.grad.base is None

    def test_one_fresh_array_for_two_leaves_is_copied_once(self):
        shared = []

        def doubled(a, b):
            out = ad.Tensor(a.data + b.data)

            def back(g):
                shared.append(2.0 * g)
                return shared[0], shared[0]

            return ad._emit(out, (a, b), back)

        x, y = self._separate_leaf_grads(doubled)
        assert (x.grad is shared[0]) != (y.grad is shared[0])

    def test_fresh_leaf_gradient_kept_without_a_copy(self):
        x = ad.Tensor(np.array([1.0, -2.0]))
        made = []

        def back(g):
            made.append(3.0 * g)
            return (made[0],)

        with ad.Tape() as tape:
            loss = ad.sum_all(ad._emit(ad.Tensor(3.0 * x.data), (x,), back))
        tape.backward(loss)
        assert x.grad is made[0]
        np.testing.assert_array_equal(x.grad, [3.0, 3.0])

    def test_walk_lets_go_of_an_intermediate_gradient_once_used(self):
        x = ad.Tensor(np.array([1.0, -2.0]))
        handed = []  # a weak reference to the gradient handed back for b
        alive_at_first_rule = []

        def first(g):
            alive_at_first_rule.append(handed[0]() is not None)
            return (g,)

        def last(g):
            made = np.full(2, 3.0 * g)
            handed.append(weakref.ref(made))
            return (made,)

        with ad.Tape() as tape:
            a = ad._emit(ad.Tensor(x.data), (x,), first)
            b = ad._emit(ad.Tensor(a.data), (a,), lambda g: (2.0 * g,))
            loss = ad._emit(ad.Tensor(b.data.sum()), (b,), last)
        tape.backward(loss)
        assert alive_at_first_rule == [False]
        np.testing.assert_array_equal(x.grad, [6.0, 6.0])


class TestRequiresGrad:
    def test_constant_gets_no_grad_and_its_ops_are_not_taped(self):
        c = ad.Tensor(np.array([0.5, -1.0]), requires_grad=False)
        theta = ad.Tensor(np.array([2.0, 3.0]))
        with ad.Tape() as tape:
            y = ad.tanh(c)
            assert not ad.concat([c, y]).requires_grad
            assert len(tape) == 0 and not y.requires_grad
            loss = ad.sum_all(ad.mul(y, theta))
        assert len(tape) == 2 and loss.requires_grad
        tape.backward(loss)
        assert c.grad is None and y.grad is None
        np.testing.assert_array_equal(theta.grad, np.tanh(c.data))

    def test_loss_of_constants_rejected(self):
        c = ad.Tensor(np.ones(2), requires_grad=False)
        with ad.Tape() as tape:
            loss = ad.sum_all(c)
        with pytest.raises(UsageError, match="needs a gradient"):
            tape.backward(loss)

    @staticmethod
    def _lstm_rule_dxs(x, concurrent, monkeypatch):
        """The input gradients of the blocks of x, each of whose 8 rows is
        read once: the sums of the two directions' gradients that
        ``lstm_sequence``'s rule hands back, as the tape's walk forms them."""
        monkeypatch.setattr(ad, "_use_worker", lambda: concurrent)
        rng = np.random.default_rng(41)
        lengths = [3, 1, 4]
        d = sum(block.shape[1] for block in x)
        forward = tuple(ad.Tensor(rng.normal(size=s)) for s in ((12, d), (12, 3), (12,)))
        backward = tuple(ad.Tensor(rng.normal(size=s)) for s in ((16, d), (16, 4), (16,)))
        with ad.Tape() as tape:
            out = ad.lstm_sequence(x, np.arange(8), lengths, forward, backward)
        (record_out, _, rule), = tape._records
        assert record_out is out
        grads = rule(rng.normal(size=out.shape).astype(out.data.dtype))
        k = len(x)
        return tuple(
            None if f is None else f + b for f, b in zip(grads[:k], grads[k + 3 : 2 * k + 3])
        )

    @pytest.mark.parametrize("concurrent", [True, False])
    def test_lstm_forms_no_dx_for_a_constant_input(self, monkeypatch, concurrent):
        x = ad.Tensor(np.random.default_rng(42).normal(size=(8, 5)), requires_grad=False)
        assert self._lstm_rule_dxs([x], concurrent, monkeypatch) == (None,)

    @pytest.mark.parametrize("concurrent", [True, False])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_lstm_dx_of_the_needed_columns_equals_the_full_dx(
        self, monkeypatch, concurrent, dtype
    ):
        rng = np.random.default_rng(43)
        words, chars = rng.normal(size=(8, 6)), rng.normal(size=(8, 3))
        with ad.precision(dtype):
            (full,) = self._lstm_rule_dxs(
                [ad.Tensor(np.hstack([words, chars]))], concurrent, monkeypatch
            )
            no_words, narrow = self._lstm_rule_dxs(
                [ad.Tensor(words, requires_grad=False), ad.Tensor(chars)], concurrent, monkeypatch
            )
        # float32 keeps the bits on the bundled OpenBLAS; at float64 the
        # narrower GEMM may round its last bit differently
        if dtype == "float32":
            assert np.array_equal(narrow, full[:, 6:])
        np.testing.assert_allclose(narrow, full[:, 6:], rtol=1e-13, atol=1e-15)
        assert no_words is None and narrow.shape == chars.shape

    def test_lstm_gradients_of_a_learned_block_beside_a_constant(self):
        rng = np.random.default_rng(44)

        def rand(*shape, requires_grad=True):
            return ad.Tensor(rng.uniform(-1.0, 1.0, shape), requires_grad=requires_grad)

        with ad.precision("float64"):
            # a 5-row table whose rows 0 and 3 are read twice
            words, chars = rand(5, 4, requires_grad=False), rand(5, 2)
            forward = (rand(12, 6), rand(12, 3), rand(12))
            backward = (rand(8, 6), rand(8, 2), rand(8))
            weights = rand(7, 5)

            def loss():
                rows = [0, 3, 1, 3, 4, 2, 0]
                out = ad.lstm_sequence([words, chars], rows, [3, 1, 3], forward, backward)
                return ad.sum_all(ad.mul(out, weights))

            error = gc.check_gradient(loss, [chars, *forward, *backward])
        assert error <= 1e-6
        assert chars.grad.shape == chars.shape and words.grad is None


class TestDeferredGradients:
    """Weight gradients formed on the worker, and failures there."""

    @staticmethod
    def _grads(build, leaves, concurrent, monkeypatch):
        monkeypatch.setattr(ad, "_use_worker", lambda: concurrent)
        for leaf in leaves:
            leaf.grad = None
        with ad.Tape() as tape:
            loss = build()
        tape.backward(loss)
        return [leaf.grad for leaf in leaves]

    def test_deferred_weight_of_an_op_output_gets_its_gradient(self, monkeypatch):
        rng = np.random.default_rng(45)
        x, raw, b = (ad.Tensor(rng.normal(size=s)) for s in ((4, 3), (5, 3), (5,)))
        weights = ad.Tensor(rng.normal(size=(4, 5)))

        def build():  # the weight is tanh(raw), not a leaf
            return ad.sum_all(ad.mul(ad.affine(x, ad.tanh(raw), b), weights))

        deferred = self._grads(build, [x, raw, b], True, monkeypatch)
        inline = self._grads(build, [x, raw, b], False, monkeypatch)
        for got, ref in zip(deferred, inline):
            assert np.array_equal(got, ref)
        expected = (weights.data.T @ x.data) * (1.0 - np.tanh(raw.data) ** 2)
        np.testing.assert_allclose(deferred[1], expected, rtol=1e-5)

    def test_exception_in_a_deferred_gemm_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(ad, "_use_worker", lambda: True)
        theta = ad.Tensor(np.ones(3))

        def boom():
            raise FloatingPointError("deferred GEMM failed")

        def ok():
            return np.ones(3)

        with ad.Tape() as tape:
            y = ad._emit(
                ad.Tensor(2.0 * theta.data), (theta,), lambda g: (ad._split([ok, boom])[1],)
            )
            loss = ad.sum_all(y)
        with pytest.raises(FloatingPointError, match="deferred GEMM failed"):
            tape.backward(loss)
        assert theta.grad is None
        # the worker is free again
        assert ad._worker.submit(lambda: 7).result(timeout=10) == 7


class TestSplit:
    """``_split`` and the forward GEMMs it splits by weight rows."""

    @staticmethod
    def _in_halves(w):
        assert len(ad._row_blocks(w)) == 2

    @pytest.mark.parametrize("d_in", [2000, 2400, 2800])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_affine_split_matches_the_whole_gemm(self, worker, d_in, dtype):
        rng = np.random.default_rng(d_in)
        w = rng.uniform(-0.05, 0.05, size=(2000, d_in))
        b = rng.normal(size=2000)
        for rows in (1, 2, 8, 32, 64):
            x = rng.normal(size=(rows, d_in))
            with ad.precision(dtype):
                xt, wt, bt = (ad.Tensor(a) for a in (x, w, b))
                self._in_halves(wt.data)
                out = ad.affine(xt, wt, bt).data
            whole = (wt.data @ xt.data.T).T + bt.data
            if dtype == "float32":
                assert np.array_equal(out, whole), rows
            np.testing.assert_allclose(out, whole, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", [600, 700])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_attention_split_matches_the_whole_gemm(self, worker, d, dtype):
        rng = np.random.default_rng(d)
        a = 2 * d
        w, v = rng.uniform(-0.05, 0.05, size=(a, a)), rng.uniform(-0.05, 0.05, size=a)
        for sentences, length in ((2, 17), (16, 16), (64, 16)):
            lengths = np.full(sentences, length)
            lengths[0] += 1  # L = 35, 257 and 1025 rows
            H, query = rng.normal(size=(lengths.sum(), d)), rng.normal(size=(sentences, d))
            with ad.precision(dtype):
                H, query, w_t, v_t = (ad.Tensor(x) for x in (H, query, w, v))
                self._in_halves(w_t.data[:, d:])
                out = ad.attention_scores(H, lengths, query, w_t, v_t).data
            w_q, w_h = w_t.data[:, :d], w_t.data[:, d:]
            u = np.tanh(
                (w_h @ H.data.T).T + np.repeat((w_q @ query.data.T).T, lengths, axis=0)
            )
            whole = u @ v_t.data
            if dtype == "float32":
                assert np.array_equal(out, whole), sentences
            np.testing.assert_allclose(out, whole, rtol=0, atol=1e-12)

    def test_small_gemms_stay_whole(self):
        # the 3-row output layer
        assert len(ad._row_blocks(np.zeros((3, 2000)))) == 1

    def test_a_call_the_worker_has_not_started_is_taken_back(self, monkeypatch):
        monkeypatch.setattr(ad, "_use_worker", lambda: True)
        started, release = threading.Event(), threading.Event()

        def slow():
            started.set()
            release.wait(10)
            return "slow"

        queued = ad._worker.submit(slow)
        try:
            assert started.wait(10)
            threads = []

            def call():
                threads.append(threading.get_ident())
                return len(threads)

            assert ad._split([call, call]) == [1, 2]
            assert threads == [threading.get_ident()] * 2
            assert not queued.done()
        finally:
            release.set()
        assert queued.result(timeout=10) == "slow"

    @pytest.mark.parametrize("failing", [0, 1])
    def test_exception_in_either_call_reaches_the_caller_after_the_other(
        self, monkeypatch, failing
    ):
        monkeypatch.setattr(ad, "_use_worker", lambda: True)
        started, finished = threading.Event(), threading.Event()

        def slow():
            started.set()
            time.sleep(0.2)
            finished.set()

        def boom():
            started.wait(10)  # the other call is running
            raise FloatingPointError("half failed")

        calls = [slow, slow]
        calls[failing] = boom
        with pytest.raises(FloatingPointError, match="half failed"):
            ad._split(calls)
        assert finished.is_set()

    def test_worker_keeps_the_callers_error_state(self, monkeypatch):
        monkeypatch.setattr(ad, "_use_worker", lambda: True)
        big = np.full(4, 1e30, dtype=np.float32)
        started = threading.Event()
        threads = []

        def wait():  # keeps the other call from being taken back
            assert started.wait(10)

        def overflow():
            threads.append(threading.get_ident())
            started.set()
            return big * big

        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                ad._split([wait, overflow])
        assert len(threads) == 1 and threads[0] != threading.get_ident()


class TestLayout:
    """Every block layout is a function of shapes alone, so the worker on
    and off run the same GEMMs and draws, and give the same bits on any
    BLAS kernels: a GEMM over part of a weight need not have the bits of
    the same part of the whole GEMM (OpenBLAS's Haswell kernels)."""

    # the MLP's weights, and w_h of the attention at 300 and 350 per direction
    SHAPES = [(2000, 2000), (2000, 2800), (1200, 600), (1400, 700)]
    BELOW = (3, 2000)  # the output layer: below every floor

    @classmethod
    def _layouts(cls, draws: list) -> dict:
        layouts = {}
        for rows, cols in [*cls.SHAPES, cls.BELOW]:
            layouts[rows, cols, "rows"] = ad._row_blocks(np.zeros((rows, cols)))
            factors = ad._Factored(np.zeros((32, rows)), np.zeros((32, cols)))
            layouts[rows, cols, "factored"] = factors.row_blocks()
            draws.clear()
            ad._uniform(np.random.default_rng(0), -1.0, 1.0, (rows, cols))
            layouts[rows, cols, "uniform"] = list(draws)
        # the scorer at 300 units per direction, over a pair of two 1-token
        # sentences scored alone and over a batch
        w, v = ad.Tensor(np.zeros((1200, 1200))), ad.Tensor(np.zeros(1200))
        for lengths in ((1, 1), (16,) * 64):
            H = ad.Tensor(np.zeros((sum(lengths), 600)))
            draws.clear()
            ad.attention_scores(H, lengths, ad.Tensor(np.zeros((len(lengths), 600))), w, v)
            layouts["scores", lengths] = list(draws)
        sizes = {f"w{i}": rows * cols for i, (rows, cols) in enumerate(cls.SHAPES)}
        layouts["groups"] = ad._size_groups(sizes)
        layouts["one name"] = ad._size_groups({"w": 1})
        return layouts

    def test_layouts_equal_with_and_without_the_worker(self, monkeypatch):
        draws, split = [], ad._split
        monkeypatch.setattr(ad, "_split", lambda calls: draws.append(len(calls)) or split(calls))
        layouts = {}
        for on in (True, False):
            monkeypatch.setattr(ad, "_use_worker", lambda: on)
            layouts[on] = self._layouts(draws)
        assert layouts[True] == layouts[False]
        got = layouts[False]
        assert len(got[2000, 2800, "rows"]) == len(got[1200, 600, "rows"]) == 2
        assert len(got[3, 2000, "rows"]) == 1
        assert got["scores", (1, 1)] == got["scores", (16,) * 64] == [2]
        assert len(got[2000, 2800, "factored"]) > 1 and len(got[3, 2000, "factored"]) == 1
        assert got[2000, 2800, "uniform"] == [2] and got[3, 2000, "uniform"] == []
        assert len(got["groups"]) == 2 and got["one name"] == [["w"]]


class TestUniform:
    """``_uniform`` against ``rng.uniform``: the same values, and the same
    next draws from the generator."""

    SIZES = [
        1,
        1000,  # below the split floor
        ad._SPLIT_MIN_WEIGHT + 1,
        2 * ad._SPLIT_MIN_WEIGHT + ad._UNIFORM_BLOCK + 7,
    ]
    BIT_GENERATORS = [np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.MT19937]

    @staticmethod
    def _split_calls(monkeypatch):
        """The number of calls of each ``_split`` the test makes."""
        seen, split = [], ad._split

        def counted(calls):
            seen.append(len(calls))
            return split(calls)

        monkeypatch.setattr(ad, "_split", counted)
        return seen

    @staticmethod
    def _pair(bit_generator, seed):
        return [np.random.Generator(bit_generator(seed)) for _ in range(2)]

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda b: b.__name__)
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_values_and_next_draws_equal_rng_uniform(
        self, worker, monkeypatch, n, bit_generator, dtype
    ):
        splits = self._split_calls(monkeypatch)
        rng, reference = self._pair(bit_generator, n)
        with ad.precision(dtype):
            values = ad._uniform(rng, -0.3, 0.7, (n,))
            expected = ad.Tensor(reference.uniform(-0.3, 0.7, (n,))).data
        assert values.dtype == expected.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(values, expected)
        np.testing.assert_array_equal(rng.uniform(size=5), reference.uniform(size=5))
        halves = n >= ad._SPLIT_MIN_WEIGHT and bit_generator in ad._JUMPABLE
        assert splits == ([2] if halves else [])

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.PCG64DXSM])
    def test_buffered_32_bit_half_is_kept(self, worker, bit_generator):
        rng, reference = self._pair(bit_generator, 11)
        for generator in (rng, reference):
            generator.integers(0, 2**32, dtype=np.uint32)  # leaves half of a 64-bit draw
        n = ad._SPLIT_MIN_WEIGHT + 3
        np.testing.assert_array_equal(
            ad._uniform(rng, -1.0, 1.0, n), reference.uniform(-1.0, 1.0, n).astype(np.float32)
        )
        assert rng.integers(0, 2**32, dtype=np.uint32) == reference.integers(
            0, 2**32, dtype=np.uint32
        )
        assert rng.random() == reference.random()
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_shape_and_a_float32_array_in_float64_mode(self, worker):
        rng, reference = self._pair(np.random.PCG64, 12)
        with ad.precision("float64"):
            values = ad._uniform(rng, -0.05, 0.05, (600, 700), np.float32)
        assert values.shape == (600, 700) and values.dtype == np.float32
        np.testing.assert_array_equal(
            values, reference.uniform(-0.05, 0.05, (600, 700)).astype(np.float32)
        )

    def test_no_generator_draws_nothing(self, monkeypatch):
        monkeypatch.setattr(ad, "_fill_uniform", None)  # would fail if called
        values = ad._uniform(None, -1.0, 1.0, (3, 4))
        assert values.shape == (3, 4) and values.dtype == ad.default_dtype()


class TestWorkerRegime:
    def test_blas_thread_count_is_read_and_decides_the_worker(self):
        # a numpy whose bundled OpenBLAS renames its thread-count symbol would
        # leave _blas_threads() None and the worker silently off; the
        # kernels' name is read through the same library lookup
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        if "openblas" not in blas.lower():
            pytest.skip(f"numpy is built against {blas}, not OpenBLAS")
        src = str(Path(ad.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        script = (
            "import os\n"
            "from nliattn import autodiff as ad\n"
            "assert ad._blas_threads() == 1, ad._blas_threads()\n"
            "assert ad._use_worker() == (len(os.sched_getaffinity(0)) >= 2)\n"
            "kernels = ad._blas_kernels()\n"
            "assert kernels and kernels == os.environ.get('OPENBLAS_CORETYPE', kernels), kernels\n"
        )
        env = {"PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
        if platform.machine() == "x86_64":  # kernels that every x86-64 CPU since 2008 runs
            env["OPENBLAS_CORETYPE"] = "Nehalem"
        result = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, **env},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr


class TestAffine:
    @pytest.mark.parametrize("rows", [1, 8, 32])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_matches_float64_reference(self, rows, dtype):
        rng = np.random.default_rng(rows)
        x = rng.normal(size=(rows, 300))
        w = rng.uniform(-0.06, 0.06, size=(200, 300))
        b = rng.normal(size=200)
        expected = x @ w.T + b
        with ad.precision(dtype):
            out = ad.affine(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b))
        assert out.data.dtype == dtype and out.data.flags.c_contiguous
        tolerance = 1e-5 if dtype == "float32" else 1e-12
        np.testing.assert_allclose(out.data, expected, rtol=tolerance, atol=tolerance)


class TestFactoredGradients:
    """An ``affine`` weight gets its gradient as the two factors g and x
    (``_Factored``) when they are its only contribution; every ``.grad``
    read has the bits of the gradient formed in the rule."""

    @staticmethod
    def _tensors(seed, rows=4, d_in=600, d_out=512):
        rng = np.random.default_rng(seed)
        x = ad.Tensor(rng.normal(size=(rows, d_in)))
        w = ad.Tensor(rng.uniform(-0.05, 0.05, size=(d_out, d_in)))
        b = ad.Tensor(rng.normal(size=d_out))
        return rng, x, w, b

    @staticmethod
    def _grads(build, leaves, preset):
        """Each leaf's ``.grad`` after one backward, starting from ``preset``
        (leaf index -> array) or None."""
        for i, leaf in enumerate(leaves):
            leaf.grad = preset[i].copy() if i in preset else None
        with ad.Tape() as tape:
            loss = build()
        tape.backward(loss)
        return [leaf.grad for leaf in leaves]

    def _check(self, build, leaves, preset=()):
        """The gradients equal those of a walk in which every weight
        gradient is formed in its rule (``_Factored.form()``), and each
        formed one is gᵀ·x at float64 to float32's rounding."""
        preset = dict(preset)
        factored, made = ad._Factored, []

        class Formed(factored):  # hands back the array in place of the factors
            def __new__(cls, g, x):
                made.append((g, x))
                return factored(g, x).form()

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ad, "_Factored", Formed)
            formed = self._grads(build, leaves, preset)
        assert made
        for g, x in made:
            expected = g.astype(np.float64).T @ x.astype(np.float64)
            np.testing.assert_allclose(factored(g, x).form(), expected, rtol=1e-5, atol=1e-6)
        for got, ref in zip(self._grads(build, leaves, preset), formed):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)

    @pytest.mark.parametrize("d_out,d_in", [(512, 600), (3, 2000)])  # (3, 2000): the output layer
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_sole_contribution_stays_factored_until_read(self, worker, dtype, d_out, d_in):
        with ad.precision(dtype):
            _, x, w, b = self._tensors(50, d_in=d_in, d_out=d_out)
            with ad.Tape() as tape:
                out = ad.affine(x, w, b)
                loss = ad.sum_all(ad.tanh(out))
            tape.backward(loss)
            assert isinstance(w._grad, ad._Factored)
            g = 1.0 - np.tanh(out.data) ** 2
            expected = np.matmul(g.T, x.data)
            assert w.grad is w.grad  # formed once, on the first read
            assert w.grad.dtype == dtype and np.array_equal(w.grad, expected)

    def test_weight_used_twice_in_one_tape(self, worker):
        rng, x, w, b = self._tensors(51)
        x2 = ad.Tensor(rng.normal(size=x.shape))

        def build():
            return ad.add(ad.sum_all(ad.tanh(ad.affine(x, w, b))), ad.sum_all(ad.affine(x2, w, b)))

        self._check(build, [x, w, b, x2])
        assert isinstance(w._grad, np.ndarray)  # the two contributions were summed

    def test_added_onto_an_existing_grad(self, worker):
        rng, x, w, b = self._tensors(52)
        earlier = rng.normal(size=w.shape).astype(np.float32)
        self._check(lambda: ad.sum_all(ad.tanh(ad.affine(x, w, b))), [x, w, b], {1: earlier})

    def test_flowing_into_a_non_leaf(self, worker):
        _, x, raw, b = self._tensors(53)

        def build():  # the weight is tanh(raw), not a leaf
            return ad.sum_all(ad.tanh(ad.affine(x, ad.tanh(raw), b)))

        self._check(build, [x, raw, b])


class TestLstmSequenceDirections:
    """The two-direction op against two one-direction calls side by side."""

    LENGTHS = np.array([4, 1, 4, 7])
    ROWS = np.arange(16)  # each table row read once

    def _case(self, table_rows=16):
        rng = np.random.default_rng(40)
        n, d = self.LENGTHS.sum(), 5

        def rand(*shape):
            return ad.Tensor(rng.normal(size=shape))

        x = rand(table_rows, d)
        forward = (rand(12, d), rand(12, 3), rand(12))
        backward = (rand(16, d), rand(16, 4), rand(16))
        return x, forward, backward, rand(n, 7)

    def _run(self, build, x, forward, backward, weights):
        leaves = (x, *forward, *backward)
        for leaf in leaves:
            leaf.grad = None
        with ad.Tape() as tape:
            out = build()
            loss = ad.sum_all(ad.mul(out, weights))
        tape.backward(loss)
        return out.data, [leaf.grad for leaf in leaves]

    @pytest.mark.parametrize("concurrent", [True, False])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize(
        "table_rows, rows",
        [(16, ROWS), (6, np.array([0, 3, 5, 3, 1, 0, 2, 4, 0, 5, 3, 3, 1, 2, 0, 4]))],
        ids=["each-row-once", "rows-repeat"],
    )
    def test_bit_identical_to_one_direction_calls(
        self, monkeypatch, concurrent, dtype, table_rows, rows
    ):
        monkeypatch.setattr(ad, "_use_worker", lambda: concurrent)
        with ad.precision(dtype):
            x, forward, backward, weights = self._case(table_rows)
            assert x.data.dtype == dtype
            out, grads = self._run(
                lambda: ad.lstm_sequence([x], rows, self.LENGTHS, forward, backward),
                x, forward, backward, weights,
            )
            ref_out, ref_grads = self._run(
                lambda: ad.concat(
                    [
                        ad.lstm_sequence([x], rows, self.LENGTHS, forward),
                        ad.lstm_sequence([x], rows, self.LENGTHS, backward=backward),
                    ],
                    axis=1,
                ),
                x, forward, backward, weights,
            )
        assert out.shape == (self.LENGTHS.sum(), 7)
        assert np.array_equal(out, ref_out)
        assert len(grads) == 7
        for grad, ref in zip(grads, ref_grads):
            assert np.array_equal(grad, ref)

    def test_worker_exception_reaches_caller(self, monkeypatch):
        monkeypatch.setattr(ad, "_use_worker", lambda: True)
        x, forward, backward, _ = self._case()
        run_direction = ad._lstm_direction

        def failing(*args):
            if args[-2]:  # the reverse direction, which runs on the worker
                raise FloatingPointError("worker failed")
            return run_direction(*args)

        monkeypatch.setattr(ad, "_lstm_direction", failing)
        with pytest.raises(FloatingPointError, match="worker failed"):
            ad.lstm_sequence([x], self.ROWS, self.LENGTHS, forward, backward)
        monkeypatch.setattr(ad, "_lstm_direction", run_direction)
        out = ad.lstm_sequence([x], self.ROWS, self.LENGTHS, forward, backward)
        ref = ad.lstm_sequence([x], self.ROWS, self.LENGTHS, backward=backward)
        assert np.array_equal(out.data[:, 3:], ref.data)

    def test_needs_a_direction(self):
        with pytest.raises(UsageError):
            ad.lstm_sequence([ad.Tensor(np.zeros((2, 3)))], [0, 1], [2])

    def test_blocks_are_matrices_with_the_same_rows(self):
        _, forward, _, _ = self._case()
        n = self.LENGTHS.sum()
        for blocks in ([], [ad.Tensor(np.zeros((n, 3))), ad.Tensor(np.zeros((n - 1, 2)))],
                       [ad.Tensor(np.zeros(n))]):
            with pytest.raises(DimensionError):
                ad.lstm_sequence(blocks, self.ROWS, self.LENGTHS, forward)

    def test_rows_index_the_table_once_per_packed_row(self):
        x, forward, _, _ = self._case()
        with pytest.raises(DimensionError):  # not 1-D
            ad.lstm_sequence([x], self.ROWS.reshape(2, 8), self.LENGTHS, forward)
        with pytest.raises(DimensionError):  # fewer rows than the lengths hold
            ad.lstm_sequence([x], self.ROWS[:-1], self.LENGTHS, forward)
        for bad in (-1, x.shape[0]):
            rows = self.ROWS.copy()
            rows[3] = bad
            with pytest.raises(InvalidInputError):
                ad.lstm_sequence([x], rows, self.LENGTHS, forward)


class TestOperationSuite:
    def test_every_operation_within_tolerance(self):
        with ad.precision("float64"):
            errors = gc.operation_suite()
        assert errors, "suite produced no checks"
        for name, err in errors.items():
            assert err <= 1e-4, f"{name}: relative error {err:.3e}"


class TestDeterminismAndPrecision:
    def test_forward_is_bitwise_deterministic(self):
        def run():
            rng = np.random.default_rng(77)
            x = ad.Tensor(rng.normal(size=(6, 4)))
            w, b = ad.Tensor(rng.normal(size=(3, 4))), ad.Tensor(rng.normal(size=3))
            wa, va = ad.Tensor(rng.normal(size=(5, 6))), ad.Tensor(rng.normal(size=5))
            h = ad.tanh(ad.affine(x, w, b))
            pooled = ad.segment_mean(h, [2, 4])
            out = ad.segment_softmax(ad.attention_scores(h, [2, 4], pooled, wa, va), [2, 4])
            return out.data.tobytes()

        assert run() == run()

    def test_backward_leaves_forward_unchanged(self):
        # walking the tape must not disturb values: re-running the same
        # forward afterwards reproduces identical outputs
        rng = np.random.default_rng(21)
        x = ad.Tensor(rng.normal(size=(4, 3)))
        w = ad.Tensor(rng.normal(size=(2, 3)))
        b = ad.Tensor(rng.normal(size=2))

        def forward():
            return ad.sum_all(ad.tanh(ad.affine(x, w, b)))

        first = forward().item()
        with ad.Tape() as tape:
            loss = forward()
        tape.backward(loss)
        assert forward().item() == first

    def test_precision_mode_switches_dtype(self):
        assert ad.Tensor(1.0).data.dtype == np.float32
        with ad.precision("float64"):
            assert ad.Tensor(1.0).data.dtype == np.float64
        assert ad.Tensor(1.0).data.dtype == np.float32

    def test_parameter_gradient_shape_tracks_value(self):
        p = ad.Tensor(np.zeros((3, 2)))
        assert p.requires_grad and p.grad is None
        with ad.Tape() as tape:
            loss = ad.sum_all(p)
        tape.backward(loss)
        assert p.grad.shape == p.shape

    def test_finite_outputs_on_finite_inputs(self):
        rng = np.random.default_rng(13)
        x = ad.Tensor(rng.uniform(-80, 80, size=(8, 5)))
        for fn in (ad.tanh, ad.sigmoid, ad.relu, ad.absolute):
            assert np.all(np.isfinite(fn(x).data))

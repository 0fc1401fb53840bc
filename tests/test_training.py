import builtins
import ctypes
import errno
import json
import os
import shutil
import struct
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nliattn import autodiff, synth, training
from nliattn.cli import main
from nliattn.autodiff import Tensor, precision
from nliattn.data import CharVocabulary, Vocabulary, make_batches, random_embeddings
from nliattn.encoder import EncoderConfig
from nliattn.errors import IntegrityError, InvalidInputError, NumericError
from nliattn.model import ModelConfig, NLIModel
from nliattn.training import (
    CHUNK,
    RMSProp,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    train,
)


def build_model(
    examples, seed=0, use_chars=False, pooling="mean", hidden=4, mlp=8, word_dim=6,
    emb_scale=0.05, extra_words=0,
):
    vocab = Vocabulary.from_examples(examples, dim=word_dim)
    for i in range(extra_words):  # rows of the frozen embedding no example uses
        vocab.add(f"unseen{i}")
    chars = CharVocabulary.from_examples(examples, dim=2)
    rng = np.random.default_rng(seed)
    config = ModelConfig(
        encoder=EncoderConfig(
            use_chars=use_chars,
            word_dim=word_dim,
            char_dim=2,
            char_hidden=2,
            hidden_per_dir=hidden,
        ),
        pooling=pooling,
        mlp_widths=(mlp, mlp, mlp),
        dropout=0.1,
    )
    embeddings = random_embeddings(vocab, rng, scale=emb_scale)
    model = NLIModel(config, vocab, chars, embeddings, rng)
    return model


def whole_array_rmsprop(thetas, grads, square_avgs, learning_rate, rho=0.9, eps=1e-8):
    """The reference update: the in-place ufunc sequence of RMSProp.step,
    run over each whole array at once."""
    for theta, g, s in zip(thetas, grads, square_avgs):
        term, denom = np.empty_like(g), np.empty_like(g)
        s *= rho
        np.multiply(g, 1.0 - rho, out=term)
        term *= g
        s += term
        np.multiply(g, learning_rate, out=term)
        np.sqrt(s, out=denom)
        denom += eps
        term /= denom
        theta -= term


def spread_gradient(rng, shape, dtype):
    """Gradient entries of magnitude 1e-4 to 1e2, either sign."""
    mag = 10.0 ** rng.uniform(-4.0, 2.0, size=shape)
    return (mag * rng.choice([-1.0, 1.0], size=shape)).astype(dtype)


class FileWrapper:
    """An open file that passes everything through to ``fh``."""

    def __init__(self, fh):
        self.fh = fh

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


class TestRMSProp:
    def _check_against_whole_array(self, make_grad, steps):
        rng = np.random.default_rng(5)
        shapes = {"one": (1,), "chunk": (256, CHUNK // 256), "chunk_plus_one": (CHUNK + 1,),
                  "three_chunks_plus_7": (3 * CHUNK + 7,)}
        params = {name: Tensor(rng.normal(size=shape)) for name, shape in shapes.items()}
        params["frozen"] = Tensor(rng.normal(size=(3, 4)), requires_grad=False)
        frozen_before = params["frozen"].data.copy()
        live = {name: p for name, p in params.items() if p.requires_grad}
        ref_thetas = [p.data.copy() for p in live.values()]
        ref_avgs = [np.zeros_like(p.data) for p in live.values()]
        opt = RMSProp(params, learning_rate=0.003)
        for _ in range(steps):
            opt.zero_grads()
            grads = [make_grad(rng, p.shape, p.data.dtype) for p in live.values()]
            for p, g in zip(live.values(), grads):
                p.grad = g
            params["frozen"].grad = np.ones_like(frozen_before)
            opt.step()
            whole_array_rmsprop(ref_thetas, grads, ref_avgs, learning_rate=0.003)
        for (name, p), theta, s in zip(live.items(), ref_thetas, ref_avgs):
            assert p.data.dtype == theta.dtype
            assert np.array_equal(p.data, theta), name
            assert np.array_equal(opt.square_avg[name], s), name
        np.testing.assert_array_equal(params["frozen"].data, frozen_before)
        return opt

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_blocked_update_bit_identical_to_whole_array(self, dtype):
        with precision(dtype):
            self._check_against_whole_array(spread_gradient, steps=20)

    def test_finite_gradient_whose_square_overflows_is_accepted(self):
        def huge(rng, shape, dt):
            g = rng.normal(size=shape).astype(dt)
            g.flat[0] = 1e20  # finite in float32; its square is not
            return g

        # the square average overflows to inf in both updates, and the step is 0
        with np.errstate(over="ignore"):
            self._check_against_whole_array(huge, steps=2)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_two_groups_bit_identical_to_whole_array(self, worker, dtype):
        with precision(dtype):
            opt = self._check_against_whole_array(spread_gradient, steps=20)
        assert all(opt._groups)  # both groups hold parameters

    def test_zero_gradient_is_fixed_point(self):
        p = Tensor(np.array([1.0, -2.0]))
        opt = RMSProp({"theta": p}, learning_rate=0.001)
        before = p.data.copy()
        opt.step()
        np.testing.assert_array_equal(p.data, before)
        np.testing.assert_array_equal(opt.square_avg["theta"], np.zeros(2))

    def test_first_step_closed_form(self):
        p = Tensor(np.array([0.5]))
        opt = RMSProp({"theta": p}, learning_rate=0.001, rho=0.9, eps=1e-8)
        p.grad = np.array([2.0], dtype=np.float32)
        opt.step()
        expected_s = 0.1 * 4.0  # (1-rho) * g^2
        expected_delta = 0.001 * 2.0 / (np.sqrt(expected_s) + 1e-8)
        np.testing.assert_allclose(opt.square_avg["theta"], [expected_s], rtol=1e-6)
        np.testing.assert_allclose(p.data, [0.5 - expected_delta], rtol=1e-5)
        assert abs(expected_delta - 0.0031623) < 1e-6

    def test_frozen_parameter_untouched_over_many_steps(self):
        frozen = Tensor(np.full((3, 2), 0.25), requires_grad=False)
        live = Tensor(np.ones(2))
        opt = RMSProp({"emb": frozen, "w": live}, learning_rate=0.001)
        before = frozen.data.copy()
        for _ in range(100):
            live.grad = np.ones(2, dtype=np.float32)
            frozen.grad = np.ones((3, 2), dtype=np.float32)
            opt.step()
            opt.zero_grads()
        np.testing.assert_array_equal(frozen.data, before)
        assert not np.array_equal(live.data, np.ones(2))

    def test_nan_gradient_names_parameter(self):
        # the finite parameter comes first: it must not move either
        q = Tensor(np.ones(2))
        p = Tensor(np.ones(2))
        opt = RMSProp({"bias": q, "w_ih": p}, learning_rate=0.001)
        q.grad = np.array([1.0, -1.0], dtype=np.float32)
        for bad in (np.nan, np.inf, -np.inf):
            p.grad = np.array([bad, 0.0], dtype=np.float32)
            with pytest.raises(NumericError, match="w_ih"):
                opt.step()
            for name, param in opt.params.items():
                np.testing.assert_array_equal(param.data, np.ones(2))
                np.testing.assert_array_equal(opt.square_avg[name], np.zeros(2))

    def test_single_step_decreases_loss_at_small_lr(self):
        examples = synth.synthetic_examples(2, seed=3)
        model = build_model(examples, seed=4)
        batch = make_batches(examples[:1], 1, "dev", model.vocab, model.char_vocab)[0]
        opt = RMSProp(model.parameters(), learning_rate=1e-4)
        from nliattn.autodiff import Tape

        opt.zero_grads()
        with Tape() as tape:
            loss = model.batch_loss(batch, training=False)
        before = loss.item()
        tape.backward(loss)
        opt.step()
        after = model.batch_loss(batch, training=False).item()
        assert after < before


class TestFactoredStep:
    """``RMSProp.step`` on a weight whose gradient is still its two
    factors (``autodiff._Factored``): the update forms gᵀ·x a row block at
    a time, with the bits of an update from the formed ``.grad``."""

    @staticmethod
    def _model(seed, hidden=512):
        """A two-layer MLP, [hidden x 600] and [3 x hidden]: both weights
        get factors."""
        rng = np.random.default_rng(seed)
        params = {
            "w1": Tensor(rng.uniform(-0.05, 0.05, size=(hidden, 600))),
            "b1": Tensor(np.zeros(hidden)),
            "w2": Tensor(rng.uniform(-0.05, 0.05, size=(3, hidden))),
            "b2": Tensor(np.zeros(3)),
        }
        x = Tensor(rng.normal(size=(8, 600)), requires_grad=False)
        labels = rng.integers(0, 3, size=8)

        def loss():
            hidden = autodiff.relu(autodiff.affine(x, params["w1"], params["b1"]))
            return autodiff.cross_entropy_from_logits(
                autodiff.affine(hidden, params["w2"], params["b2"]), labels
            )

        return params, loss

    @staticmethod
    def _backward(loss):
        with autodiff.Tape() as tape:
            value = loss()
        tape.backward(value)

    # [3 x 2000] and [3 x 2800]: the output layer after the MLP's 2000-wide layers
    @pytest.mark.parametrize("hidden", [512, 2000, 2800])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_twenty_steps_bit_identical_to_the_formed_gradient(self, worker, dtype, hidden):
        with precision(dtype):
            (factored, loss), (formed, formed_loss) = (self._model(60, hidden) for _ in range(2))
            opt, formed_opt = RMSProp(factored, 1e-3), RMSProp(formed, 1e-3)
            for _ in range(20):
                self._backward(loss)
                self._backward(formed_loss)
                for name in ("w1", "w2"):
                    assert isinstance(factored[name]._grad, autodiff._Factored), name
                for p in formed.values():
                    p.grad  # forms the array: the step takes it as any other
                opt.step()
                formed_opt.step()
                opt.zero_grads()
                formed_opt.zero_grads()
        for name, p in factored.items():
            assert p.data.dtype == dtype
            assert np.array_equal(p.data, formed[name].data), name
            assert np.array_equal(opt.square_avg[name], formed_opt.square_avg[name]), name

    @pytest.mark.parametrize("d_in", [1400, 2000, 2400, 2800])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_row_blocks_match_the_whole_gemm(self, d_in, dtype):
        rng = np.random.default_rng(d_in)
        row = np.empty(CHUNK, dtype=dtype)
        for rows in (1, 2, 8, 32):
            g = rng.normal(size=(rows, 2000)).astype(dtype)
            x = rng.normal(size=(rows, d_in)).astype(dtype)
            grad = autodiff._Factored(g, x)
            blocks = [block.copy() for _, _, block in training._gradient_blocks(grad, row)]
            assert len(blocks) > 1
            assert np.array_equal(np.concatenate(blocks), grad.form().reshape(-1)), rows

    def _two_params(self, g, x):
        """A small parameter with a finite gradient and a [512 x 600] one
        whose gradient is the factors g and x, after one good step."""
        rng = np.random.default_rng(61)
        params = {"bias": Tensor(np.ones(4)), "w": Tensor(rng.normal(size=(512, 600)))}
        opt = RMSProp(params, learning_rate=1e-3)
        params["bias"].grad = np.ones(4, dtype=np.float32)
        params["w"].grad = autodiff._Factored(
            rng.normal(size=g.shape).astype(g.dtype), rng.normal(size=x.shape).astype(x.dtype)
        )
        opt.step()
        params["w"].grad = autodiff._Factored(g, x)
        return params, opt

    @pytest.mark.parametrize(
        "bad", [("g", np.nan), ("g", np.inf), ("g", -np.inf), ("x", np.nan), ("x", np.inf),
                ("x", -np.inf), ("both", 1e20)],
    )
    def test_bad_factors_name_the_weight_and_change_nothing(self, worker, bad):
        rng = np.random.default_rng(62)
        factors = {"g": rng.normal(size=(8, 512)), "x": rng.normal(size=(8, 600))}
        factors = {k: v.astype(np.float32) for k, v in factors.items()}
        which, value = bad
        for name in ("g", "x") if which == "both" else (which,):
            # "both": finite factors, one product of 1e40, past float32's max
            factors[name][3, 7] = value
        params, opt = self._two_params(factors["g"], factors["x"])
        before = {name: p.data.copy() for name, p in params.items()}
        averages = {name: s.copy() for name, s in opt.square_avg.items()}
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="'w'"):
                opt.step()
        for name, p in params.items():
            np.testing.assert_array_equal(p.data, before[name])
            np.testing.assert_array_equal(opt.square_avg[name], averages[name])

    def test_factors_past_the_bound_with_a_finite_product_step_as_the_array(self, worker):
        # B·max|g|·max|x| overflows, but the large entries sit in different
        # rows b, so no product does: the step forms the array and goes on
        with precision("float64"):
            rng = np.random.default_rng(63)
            g, x = rng.normal(size=(8, 512)), rng.normal(size=(8, 600))
            g[0, 5] = x[1, 9] = 1e200
            steps = []
            for form in (False, True):
                params, opt = self._two_params(g, x)
                if form:
                    params["w"].grad  # forms the array
                with np.errstate(over="ignore"):
                    opt.step()
                assert isinstance(params["w"]._grad, np.ndarray)
                steps.append((params["w"].data.copy(), opt.square_avg["w"]))
        assert np.isfinite(steps[0][0]).all()
        for got, ref in zip(*steps):
            assert np.array_equal(got, ref)

    def test_factor_sharing_a_parameter_is_formed_before_the_update(self, worker):
        # x is itself trained: a block formed after x's update would differ
        results = []
        for form in (False, True):
            rng = np.random.default_rng(64)
            x = Tensor(rng.normal(size=(8, 600)))
            w = Tensor(rng.normal(size=(512, 600)))
            opt = RMSProp({"x": x, "w": w}, learning_rate=1e-2)
            self._backward(lambda: autodiff.sum_all(autodiff.affine(x, w, Tensor(np.zeros(512)))))
            assert isinstance(w._grad, autodiff._Factored)
            if form:
                w.grad  # forms the array
            opt.step()
            results.append(w.data)
        assert np.array_equal(*results)


class TestTrainLoop:
    def test_equal_seeds_reproduce_epoch_one_loss(self):
        examples = synth.synthetic_examples(12, seed=5)
        config = TrainConfig(batch_size=4, max_epochs=1, seed=42)
        first = train(build_model(examples, seed=6), examples, examples, config)
        second = train(build_model(examples, seed=6), examples, examples, config)
        assert first.epochs[0].train_loss == second.epochs[0].train_loss

    def test_best_checkpoint_matches_reevaluation(self, tmp_path):
        examples = synth.synthetic_examples(18, seed=7)
        dev = synth.synthetic_examples(9, seed=8)
        model = build_model(examples, seed=9)
        ckpt = tmp_path / "best.ckpt"
        result = train(
            model, examples, dev, TrainConfig(batch_size=6, max_epochs=3, seed=1), ckpt
        )
        loaded = load_checkpoint(ckpt)
        accuracy = training._dev_accuracy(loaded.model, dev, batch_size=6)
        assert abs(accuracy - result.best_dev_accuracy) < 1e-9
        assert loaded.manifest["epoch"] == result.best_epoch

    def test_epoch_log_lines(self, tmp_path):
        examples = synth.synthetic_examples(6, seed=10)
        log = tmp_path / "train.log"
        train(
            build_model(examples, seed=11),
            examples,
            examples,
            TrainConfig(batch_size=3, max_epochs=2, seed=2),
            log_path=log,
        )
        lines = log.read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("epoch=1 train_loss=")
        assert "dev_accuracy=" in lines[0] and "wall_time_s=" in lines[0]

    def test_overfits_small_synthetic_set(self):
        examples = synth.synthetic_examples(32, seed=12)
        model = build_model(examples, seed=13, hidden=8, mlp=16, word_dim=10, emb_scale=0.5)
        config = TrainConfig(learning_rate=0.002, batch_size=8, max_epochs=300, seed=3)
        result = train(model, examples, examples, config, target_dev_accuracy=1.0)
        assert result.best_dev_accuracy == 1.0

    def test_empty_dev_set_rejected_before_the_first_step(self, tmp_path):
        examples = synth.synthetic_examples(6, seed=16)
        model = build_model(examples, seed=17)
        before = {name: p.data.copy() for name, p in model.parameters().items()}
        ckpt = tmp_path / "best.ckpt"
        with pytest.raises(InvalidInputError, match="dev"):
            train(model, examples, [], TrainConfig(batch_size=3, max_epochs=1, seed=5), ckpt)
        assert not ckpt.exists()
        for name, p in model.parameters().items():
            np.testing.assert_array_equal(p.data, before[name])

    @pytest.mark.parametrize("case", ["no pairs", "every premise too long"])
    def test_nothing_to_train_on_rejected_before_the_first_step(self, tmp_path, case):
        examples = synth.synthetic_examples(6, seed=18)  # premises of 11 tokens
        model = build_model(examples, seed=19)
        train_examples, cap = ([], 200) if case == "no pairs" else (examples, 10)
        config = TrainConfig(batch_size=3, max_epochs=1, seed=5, max_premise_len=cap)
        ckpt = tmp_path / "best.ckpt"
        with pytest.raises(InvalidInputError, match="max_premise_len"):
            train(model, train_examples, examples, config, ckpt)
        assert not ckpt.exists()

    def test_snapshot_without_checkpoint_leaves_frozen_parameters_out(self):
        examples = synth.synthetic_examples(9, seed=20)
        model = build_model(examples, seed=21, extra_words=20_000)
        params = model.parameters()
        embedding_bytes = model.encoder.word_embeddings.data.nbytes
        assert embedding_bytes > sum(p.data.nbytes for p in params.values() if p.requires_grad)
        tracemalloc.start()
        try:
            result = train(model, examples, examples, TrainConfig(batch_size=3, max_epochs=2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.best_epoch >= 1
        assert peak < embedding_bytes

    def test_frozen_embeddings_bit_identical_after_training(self):
        examples = synth.synthetic_examples(9, seed=14)
        model = build_model(examples, seed=15)
        before = model.encoder.word_embeddings.data.copy()
        train(model, examples, examples, TrainConfig(batch_size=3, max_epochs=2, seed=4))
        np.testing.assert_array_equal(model.encoder.word_embeddings.data, before)


class TestCheckpoint:
    def _trained(self, tmp_path, seed=16):
        examples = synth.synthetic_examples(9, seed=seed)
        model = build_model(examples, seed=seed + 1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, epoch=3, dev_accuracy=0.5, seed=seed)
        return model, path, examples

    def test_round_trip_bit_exact(self, tmp_path):
        model, path, _ = self._trained(tmp_path)
        loaded = load_checkpoint(path)
        for name, p in model.parameters().items():
            np.testing.assert_array_equal(loaded.model.parameters()[name].data, p.data)

    def test_float64_model_saves_the_bytes_of_its_float32_cast(self, tmp_path):
        examples = synth.synthetic_examples(9, seed=21)
        with precision("float64"):
            model = build_model(examples, seed=22)
        assert all(p.data.dtype == np.float64 for p in model.parameters().values())
        save_checkpoint(model, tmp_path / "wide.ckpt", epoch=1)
        for p in model.parameters().values():
            p.data = p.data.astype(np.float32)
        save_checkpoint(model, tmp_path / "narrow.ckpt", epoch=1)
        assert (tmp_path / "wide.ckpt").read_bytes() == (tmp_path / "narrow.ckpt").read_bytes()

    def test_save_load_save_byte_identical(self, tmp_path):
        model, path, _ = self._trained(tmp_path)
        loaded = load_checkpoint(path)
        second = tmp_path / "again.ckpt"
        save_checkpoint(
            loaded.model,
            second,
            epoch=loaded.manifest["epoch"],
            dev_accuracy=loaded.manifest["dev_accuracy"],
            seed=loaded.manifest["seed"],
        )
        assert path.read_bytes() == second.read_bytes()

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        model, path, _ = self._trained(tmp_path)
        saved = {name: p.data.copy() for name, p in model.parameters().items()}

        class DiskFullAfterHeader:
            """File that accepts the header, then fails like a full disk."""

            def __init__(self, fh):
                self.fh = fh
                self.writes = 0

            def write(self, data):
                self.writes += 1
                if self.writes > 2:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return self.fh.write(data)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        for p in model.parameters().values():
            p.data[...] += 1.0
        with monkeypatch.context() as patch:
            patch.setattr(
                training, "open",
                lambda *args, **kwargs: DiskFullAfterHeader(builtins.open(*args, **kwargs)),
                raising=False,
            )
            with pytest.raises(OSError):
                save_checkpoint(model, path, epoch=4)
        assert sorted(os.listdir(tmp_path)) == ["model.ckpt"]
        loaded = load_checkpoint(path)
        assert loaded.manifest["epoch"] == 3
        for name, p in loaded.model.parameters().items():
            np.testing.assert_array_equal(p.data, saved[name])

    def test_truncated_file_rejected(self, tmp_path):
        _, path, _ = self._trained(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 64])
        with pytest.raises(IntegrityError):
            load_checkpoint(path)

    @pytest.mark.parametrize("change", [-1, -64, 1], ids=["1-short", "64-short", "1-long"])
    def test_blob_of_wrong_size_rejected(self, tmp_path, change):
        _, path, _ = self._trained(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:change] if change < 0 else blob + b"\x00" * change)
        with pytest.raises(IntegrityError, match="blob holds"):
            load_checkpoint(path)

    def _blob_offsets(self, path) -> dict[str, int]:
        """Each parameter's byte offset in the file, from the manifest."""
        header = self._manifest_bytes(path)
        offsets, offset = {}, 8 + len(header)
        for entry in json.loads(header)["parameters"]:
            offsets[entry["name"]] = offset
            offset += 4 * int(np.prod(entry["shape"]))
        return offsets

    @staticmethod
    def _wrap_open(monkeypatch, wrapper) -> None:
        monkeypatch.setattr(
            training, "open",
            lambda *args, **kwargs: wrapper(builtins.open(*args, **kwargs)),
            raising=False,
        )

    def test_short_read_names_the_parameter(self, tmp_path, monkeypatch, worker):
        _, path, _ = self._trained(tmp_path)
        victim = json.loads(self._manifest_bytes(path))["parameters"][2]["name"]
        victim_offset = self._blob_offsets(path)[victim]

        class ShortVictimRead(FileWrapper):
            """File whose read of the victim stops half-way, as if cut under the reader."""

            def readinto(self, buffer):
                view = memoryview(buffer).cast("B")
                cut = self.fh.tell() == victim_offset
                return self.fh.readinto(view[: len(view) // 2] if cut else view)

        self._wrap_open(monkeypatch, ShortVictimRead)
        with pytest.raises(IntegrityError, match=f"parameter {victim}$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_split_load_equals_one_handle_read(self, tmp_path, monkeypatch, worker, dtype):
        _, path, _ = self._trained(tmp_path)
        raw = path.read_bytes()
        offsets = self._blob_offsets(path)
        shapes = {
            entry["name"]: tuple(entry["shape"])
            for entry in json.loads(self._manifest_bytes(path))["parameters"]
        }
        opened = []
        self._wrap_open(monkeypatch, lambda fh: opened.append(fh) or fh)
        with precision(dtype):
            loaded = load_checkpoint(path)
        assert len(opened) == 2
        assert all(fh.closed for fh in opened)
        for name, p in loaded.model.parameters().items():
            expected = np.frombuffer(
                raw, dtype="<f4", count=int(np.prod(shapes[name])), offset=offsets[name]
            ).reshape(shapes[name])
            assert p.data.dtype == dtype
            assert np.array_equal(p.data, expected), name

    def test_failed_group_closes_both_handles_after_the_other_ends(self, tmp_path, monkeypatch):
        _, path, _ = self._trained(tmp_path)
        monkeypatch.setattr(autodiff, "_use_worker", lambda: True)
        other_reading = threading.Event()
        handles = []

        class FirstHandleFails(FileWrapper):
            """The first handle's first read ends the file once the second
            handle is reading; the second handle's reads are slow."""

            def __init__(self, fh):
                super().__init__(fh)
                self.reads = 0
                handles.append(self)

            def readinto(self, buffer):
                if self is handles[0]:
                    assert other_reading.wait(timeout=10)
                    return 0
                other_reading.set()
                time.sleep(0.02)
                self.reads += 1
                return self.fh.readinto(buffer)

        self._wrap_open(monkeypatch, FirstHandleFails)
        with pytest.raises(IntegrityError, match="file ends inside parameter"):
            load_checkpoint(path)
        reads_when_raised = handles[1].reads
        time.sleep(0.1)
        assert len(handles) == 2
        assert all(h.fh.closed for h in handles)
        # the second group had read all it would before the error arrived
        assert handles[1].reads == reads_when_raised > 0

    def test_path_replaced_during_load_reads_the_first_file(self, tmp_path, monkeypatch):
        model, path, examples = self._trained(tmp_path)
        newer = tmp_path / "newer.ckpt"
        other = build_model(examples, seed=40)
        save_checkpoint(other, newer, epoch=4)
        monkeypatch.setattr(autodiff, "_use_worker", lambda: True)
        opens = []

        def open_replaced(file, *args, **kwargs):
            # every open after the first finds the path replaced by ``newer``
            opens.append(file)
            return builtins.open(newer if len(opens) > 1 else file, *args, **kwargs)

        monkeypatch.setattr(training, "open", open_replaced, raising=False)
        loaded = load_checkpoint(path)
        assert len(opens) == 2
        assert loaded.manifest["epoch"] == 3
        for name, p in loaded.model.parameters().items():
            np.testing.assert_array_equal(p.data, model.parameters()[name].data)

    def test_float64_load_equals_float32_values(self, tmp_path):
        model, path, _ = self._trained(tmp_path)
        with precision("float64"):
            loaded = load_checkpoint(path)
        for name, p in loaded.model.parameters().items():
            assert p.data.dtype == np.float64
            np.testing.assert_array_equal(p.data, model.parameters()[name].data)

    @staticmethod
    def _manifest_bytes(path) -> bytes:
        raw = path.read_bytes()
        (header_len,) = struct.unpack("<Q", raw[:8])
        return raw[8 : 8 + header_len]

    def _rewrite_manifest(self, path, edit) -> None:
        raw = path.read_bytes()
        header = self._manifest_bytes(path)
        manifest = json.loads(header)
        edit(manifest)
        new = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
        path.write_bytes(struct.pack("<Q", len(new)) + new + raw[8 + len(header) :])

    @pytest.mark.parametrize("key", ["parameters", "vocab"])
    def test_manifest_without_key_rejected(self, tmp_path, key):
        _, path, _ = self._trained(tmp_path)
        self._rewrite_manifest(path, lambda manifest: manifest.pop(key))
        with pytest.raises(IntegrityError, match=f"no '{key}' entry"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda manifest: manifest["parameters"][0].pop("shape"),
            lambda manifest: manifest["config"].pop("pooling"),
            lambda manifest: manifest.update(parameters="x"),
            lambda manifest: manifest["vocab"].pop("tokens"),
        ],
        ids=["entry-without-shape", "config-without-pooling", "parameters-not-a-list",
             "vocab-without-tokens"],
    )
    def test_malformed_manifest_rejected_naming_the_file(self, tmp_path, edit, capsys):
        path = tmp_path / "tiny.ckpt"
        shutil.copy(Path(__file__).parent / "fixtures" / "golden" / "tiny.ckpt", path)
        self._rewrite_manifest(path, edit)
        with pytest.raises(IntegrityError, match="tiny.ckpt: malformed manifest"):
            load_checkpoint(path)
        assert main(["predict", "--checkpoint", str(path)]) == 2
        assert "tiny.ckpt" in capsys.readouterr().err

    def test_unknown_manifest_version_rejected(self, tmp_path):
        _, path, _ = self._trained(tmp_path)
        self._rewrite_manifest(path, lambda manifest: manifest.update(version=2))
        with pytest.raises(IntegrityError, match="unknown checkpoint version 2"):
            load_checkpoint(path)

    def test_repeated_saves_leave_one_file_and_no_descriptor(self, tmp_path):
        model, path, _ = self._trained(tmp_path)
        fd_dir = "/proc/self/fd"
        if not os.path.isdir(fd_dir):
            pytest.skip("needs /proc/self/fd to count open descriptors")
        before = len(os.listdir(fd_dir))
        for epoch in range(20):
            save_checkpoint(model, path, epoch=epoch)
        assert sorted(os.listdir(tmp_path)) == ["model.ckpt", "model.ckpt.standby"]
        assert len(os.listdir(fd_dir)) == before
        assert load_checkpoint(path).manifest["epoch"] == 19

    def test_failed_rename_keeps_previous_checkpoint_and_closes(self, tmp_path, monkeypatch):
        model, path, _ = self._trained(tmp_path)
        fd_dir = "/proc/self/fd"
        before = len(os.listdir(fd_dir)) if os.path.isdir(fd_dir) else None

        def no_exchange(a, b):
            raise OSError(errno.EXDEV, "Invalid cross-device link")

        with monkeypatch.context() as patch:
            patch.setattr(training, "_exchange", no_exchange)
            with pytest.raises(OSError):
                save_checkpoint(model, path, epoch=4)
        assert sorted(os.listdir(tmp_path)) == ["model.ckpt"]
        assert load_checkpoint(path).manifest["epoch"] == 3
        if before is not None:
            assert len(os.listdir(fd_dir)) == before

    @staticmethod
    def _one_shot(model, directory, epoch):
        """The bytes of a save to a path nothing was saved to before."""
        directory.mkdir()
        fresh = directory / "model.ckpt"
        save_checkpoint(model, fresh, epoch=epoch)
        assert sorted(os.listdir(directory)) == ["model.ckpt"]
        return fresh.read_bytes()

    @staticmethod
    def _shift(model, by):
        for p in model.parameters().values():
            p.data[...] += by

    def test_each_save_equals_a_one_shot_write_and_keeps_the_last(self, tmp_path):
        model, path, _ = self._trained(tmp_path)
        path.unlink()
        standby = tmp_path / "model.ckpt.standby"
        saved = []
        for k in range(3):
            self._shift(model, 0.25)
            save_checkpoint(model, path, epoch=k)
            saved.append(self._one_shot(model, tmp_path / f"fresh{k}", epoch=k))
            assert path.read_bytes() == saved[k]
        assert standby.read_bytes() == saved[1]

    def test_larger_standby_is_truncated(self, tmp_path):
        model, path, _ = self._trained(tmp_path)
        previous = path.read_bytes()
        standby = tmp_path / "model.ckpt.standby"
        standby.write_bytes(previous + b"\x7f" * 4096)
        self._shift(model, 0.5)
        save_checkpoint(model, path, epoch=5)
        assert path.read_bytes() == self._one_shot(model, tmp_path / "fresh", epoch=5)
        assert load_checkpoint(path).manifest["epoch"] == 5
        assert standby.read_bytes() == previous

    def test_hard_linked_standby_is_not_written_through(self, tmp_path):
        model, path, _ = self._trained(tmp_path)
        save_checkpoint(model, path, epoch=4)
        keep = tmp_path / "keep"
        os.link(tmp_path / "model.ckpt.standby", keep)
        kept = keep.read_bytes()
        for epoch in (5, 6):
            self._shift(model, 0.5)
            save_checkpoint(model, path, epoch=epoch)
        assert keep.read_bytes() == kept
        assert load_checkpoint(path).manifest["epoch"] == 6

    def test_hard_linked_checkpoint_is_not_written_through(self, tmp_path):
        model, path, _ = self._trained(tmp_path)
        keep = tmp_path / "keep.ckpt"
        os.link(path, keep)
        kept = keep.read_bytes()
        for epoch in (4, 5):
            self._shift(model, 0.5)
            save_checkpoint(model, path, epoch=epoch)
        assert keep.read_bytes() == kept
        assert load_checkpoint(keep).manifest["epoch"] == 3

    @pytest.mark.parametrize(
        "code", [None, errno.ENOSYS, errno.EINVAL], ids=["missing", "ENOSYS", "EINVAL"]
    )
    def test_exchange_missing_or_refused_falls_back_to_replace(self, tmp_path, monkeypatch, code):
        model, path, _ = self._trained(tmp_path)
        calls = []

        def refused(*args):
            calls.append(args)
            ctypes.set_errno(code)
            return -1

        # None: the C library has no renameat2
        monkeypatch.setattr(training, "_renameat2", lambda: None if code is None else refused)
        for epoch in (4, 5):
            self._shift(model, 0.5)
            save_checkpoint(model, path, epoch=epoch)
            assert sorted(os.listdir(tmp_path)) == ["model.ckpt"]
        assert path.read_bytes() == self._one_shot(model, tmp_path / "fresh", epoch=5)
        assert len(calls) == (0 if code is None else 2)

    def test_failed_write_into_the_standby_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        model, path, _ = self._trained(tmp_path)
        save_checkpoint(model, path, epoch=4)
        assert sorted(os.listdir(tmp_path)) == ["model.ckpt", "model.ckpt.standby"]
        saved = {name: p.data.copy() for name, p in model.parameters().items()}
        modes = []

        class FailsMidBlob(FileWrapper):
            writes = 0

            def write(self, data):
                self.writes += 1
                if self.writes == 4:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return self.fh.write(data)

        def failing_open(file, mode="r", *args, **kwargs):
            modes.append(mode)
            return FailsMidBlob(builtins.open(file, mode, *args, **kwargs))

        self._shift(model, 1.0)
        with monkeypatch.context() as patch:
            patch.setattr(training, "open", failing_open, raising=False)
            with pytest.raises(OSError, match="No space"):
                save_checkpoint(model, path, epoch=5)
        assert modes == ["r+b"]
        assert sorted(os.listdir(tmp_path)) == ["model.ckpt"]
        loaded = load_checkpoint(path)
        assert loaded.manifest["epoch"] == 4
        for name, p in loaded.model.parameters().items():
            np.testing.assert_array_equal(p.data, saved[name])

    def test_remove_standby_leaves_the_checkpoint(self, tmp_path):
        model, path, _ = self._trained(tmp_path)
        save_checkpoint(model, path, epoch=4)
        for _ in range(2):  # a second call finds nothing to remove
            training.remove_standby(path)
            assert sorted(os.listdir(tmp_path)) == ["model.ckpt"]
        assert load_checkpoint(path).manifest["epoch"] == 4

    def test_save_starts_no_thread(self, tmp_path, monkeypatch):
        model, path, _ = self._trained(tmp_path)
        before = threading.active_count()
        started = []
        monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
        for epoch in (4, 5):
            save_checkpoint(model, path, epoch=epoch)
        assert started == []
        assert threading.active_count() == before

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"\x02\x00\x00\x00\x00\x00\x00\x00{}")
        with pytest.raises(IntegrityError):
            load_checkpoint(path)

    def test_edited_char_vocabulary_rejected(self, tmp_path):
        _, path, _ = self._trained(tmp_path)
        raw = path.read_bytes()
        (header_len,) = struct.unpack("<Q", raw[:8])
        manifest = json.loads(raw[8 : 8 + header_len])
        chars = manifest["char_vocab"]["chars"]
        chars[2], chars[3] = chars[3], chars[2]  # same size, different mapping
        header = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
        path.write_bytes(struct.pack("<Q", len(header)) + header + raw[8 + header_len :])
        with pytest.raises(IntegrityError, match="char vocabulary"):
            load_checkpoint(path)

    def test_load_then_evaluate_equals_presave(self, tmp_path):
        model, path, examples = self._trained(tmp_path)
        batch = make_batches(examples, 4, "dev", model.vocab, model.char_vocab)[0]
        before = [d.probs for d in model.predict_batch(batch)]
        loaded = load_checkpoint(path)
        after = [d.probs for d in loaded.model.predict_batch(batch)]
        for x, y in zip(before, after):
            np.testing.assert_array_equal(x, y)

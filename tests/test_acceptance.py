"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The slow capacity checks (overfit, small-corpus smoke run) are part
of the contract and run by default; expect the module to take a few minutes.
"""

import time

import numpy as np
import pytest

from nliattn import autodiff as ad
from nliattn import encoder as enc
from nliattn import evaluation as ev
from nliattn import gradcheck as gc
from nliattn import synth
from nliattn.autodiff import Tensor
from nliattn.classifier import aggregate
from nliattn.data import (
    CharVocabulary,
    Vocabulary,
    load_dataset,
    make_batches,
    normalize_token,
    random_embeddings,
)
from nliattn.encoder import EncoderConfig
from nliattn.errors import IntegrityError
from nliattn.model import ModelConfig, NLIModel
from test_encoder import batch_bilstm, token_batch
from nliattn.training import RMSProp, TrainConfig, load_checkpoint, save_checkpoint, train


def _pass(name):
    print(f"\nACCEPTANCE PASS: {name}")


def small_model(examples, seed, use_chars=False, word_dim=10, hidden=8, mlp=16,
                pooling="mean", dropout=0.0):
    vocab = Vocabulary.from_examples(examples, dim=word_dim)
    chars = CharVocabulary.from_examples(examples, dim=2)
    rng = np.random.default_rng(seed)
    config = ModelConfig(
        encoder=EncoderConfig(
            use_chars=use_chars, word_dim=word_dim, char_dim=2, char_hidden=2,
            hidden_per_dir=hidden,
        ),
        pooling=pooling,
        mlp_widths=(mlp, mlp, mlp),
        dropout=dropout,
    )
    return NLIModel(config, vocab, chars, random_embeddings(vocab, rng, scale=0.5), rng)


class TestGradientSuite:
    def test_finite_differences_per_operation_and_composed(self):
        started = time.perf_counter()
        report = gc.run_full_check()
        elapsed = time.perf_counter() - started
        for name, err in report.operations.items():
            assert err <= 1e-4, f"operation {name}: {err:.3e}"
        assert report.parameters, "composed model produced no parameter checks"
        for name, err in report.parameters.items():
            assert err <= 1e-3, f"parameter {name}: {err:.3e}"
        assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
        _pass(f"gradient suite ({len(report.operations)} ops, "
              f"{len(report.parameters)} parameter groups, {elapsed:.1f}s)")


class TestAttentionInvariants:
    def test_thousand_random_sentences(self):
        examples = synth.synthetic_examples(40, seed=0)
        vocab = Vocabulary.from_examples(examples, dim=8)
        rng = np.random.default_rng(1)
        config = EncoderConfig(use_chars=False, word_dim=8, char_dim=2, char_hidden=2,
                               hidden_per_dir=4)
        embeddings = random_embeddings(vocab, rng, scale=0.5)
        model = enc.Encoder(config, embeddings, n_chars=4, rng=rng)
        model.attention_v.data[:] = rng.uniform(-0.3, 0.3, model.attention_v.shape)
        zero_v = enc.Encoder(config, embeddings, n_chars=4, rng=np.random.default_rng(2))
        zero_v.attention_w.data[:] = model.attention_w.data
        zero_v.attention_v.data[:] = 0.0
        zero_v.forward_cell.w_ih.data[:] = model.forward_cell.w_ih.data
        zero_v.forward_cell.w_hh.data[:] = model.forward_cell.w_hh.data
        zero_v.forward_cell.bias.data[:] = model.forward_cell.bias.data
        zero_v.backward_cell.w_ih.data[:] = model.backward_cell.w_ih.data
        zero_v.backward_cell.w_hh.data[:] = model.backward_cell.w_hh.data
        zero_v.backward_cell.bias.data[:] = model.backward_cell.bias.data

        for trial in range(1000):
            case = np.random.default_rng(trial)
            n = int(case.integers(1, 31))
            ids = case.integers(3, len(vocab), size=n)

            seq = batch_bilstm(model, token_batch(ids))
            raw = enc.pool(seq, "mean")
            refined, alpha = enc.inner_attention(
                seq, raw, model.attention_w, model.attention_v
            )
            # one weight per token
            assert alpha.shape == (n,)
            assert abs(float(alpha.data.sum()) - 1.0) <= 1e-6
            assert np.all(alpha.data >= 0.0)
            live = seq.H.data
            assert np.all(refined.data >= live.min(axis=0) - 1e-6)
            assert np.all(refined.data <= live.max(axis=0) + 1e-6)

            if trial % 20 == 0:  # v = 0 collapses to mean pooling
                seq0 = batch_bilstm(zero_v, token_batch(ids))
                raw0 = enc.pool(seq0, "mean")
                refined0, _ = enc.inner_attention(
                    seq0, raw0, zero_v.attention_w, zero_v.attention_v
                )
                np.testing.assert_allclose(refined0.data, raw0.data, atol=1e-5)
        _pass("attention invariants (1000 sentences, lengths 1-30)")


class TestPoolingDegeneracy:
    def _seq(self, model, ids, lengths=None):
        return batch_bilstm(model, token_batch(ids, lengths))

    def _encoder(self):
        examples = synth.synthetic_examples(30, seed=3)
        vocab = Vocabulary.from_examples(examples, dim=8)
        rng = np.random.default_rng(4)
        config = EncoderConfig(use_chars=False, word_dim=8, char_dim=2, char_hidden=2,
                               hidden_per_dir=4)
        return enc.Encoder(config, random_embeddings(vocab, rng, scale=0.5), 4, rng), vocab

    def test_length_one_exact_agreement(self):
        model, vocab = self._encoder()
        for token_id in range(3, min(len(vocab), 20)):
            seq = self._seq(model, np.array([token_id]))
            outputs = [enc.pool(seq, m).data for m in enc.POOLING_METHODS]
            for out in outputs[1:]:
                np.testing.assert_array_equal(out, outputs[0])
        _pass("pooling degeneracy: length-1 agreement is exact")

    def test_mean_length_sum_identity(self):
        model, vocab = self._encoder()
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 24))
            ids = rng.integers(3, len(vocab), size=n)
            seq = self._seq(model, ids)
            np.testing.assert_allclose(
                enc.pool(seq, "mean").data * n, enc.pool(seq, "sum").data, atol=1e-5
            )
        _pass("pooling degeneracy: mean x length == sum within 1e-5")

    def test_padding_neutrality_all_methods(self):
        model, vocab = self._encoder()
        rng = np.random.default_rng(6)
        # no padding in the packed layout: a sentence packed before a longer
        # batch-mate pools as it does alone
        for _ in range(50):
            n = int(rng.integers(1, 16))
            longer = n + int(rng.integers(1, 6))
            ids = rng.integers(3, len(vocab), size=n)
            mate = rng.integers(3, len(vocab), size=longer)
            plain_seq = self._seq(model, ids)
            packed_seq = self._seq(model, np.concatenate([ids, mate]), [n, longer])
            for method in enc.POOLING_METHODS:
                np.testing.assert_allclose(
                    enc.pool(plain_seq, method).data,
                    enc.pool(packed_seq, method).data[:1],
                    atol=1e-6,
                )
        _pass("pooling degeneracy: padding neutrality within 1e-6 for all methods")


class TestDimensionConformance:
    def test_reference_dimensions_exact(self):
        rng = np.random.default_rng(7)
        vocab_size = 40
        embeddings = Tensor(
            rng.uniform(-0.05, 0.05, (vocab_size, 300)).astype(np.float32), requires_grad=False
        )

        chars_cfg = EncoderConfig(use_chars=True)  # 350 per direction
        with_chars = enc.Encoder(chars_cfg, embeddings, n_chars=10, rng=rng)
        assert with_chars.attention_w.shape == (1400, 1400)
        assert with_chars.attention_v.shape == (1400,)
        batch = token_batch([3, 4, 5], None, None, [1, 2, 2, 1, 1, 1], [2, 2, 2])
        seq = batch_bilstm(with_chars, batch)
        assert seq.H.shape == (3, 700)  # h_i has 700 components
        rep = with_chars.encode(batch, "mean")
        assert rep.refined.shape == (1, 700)
        r = aggregate(rep.refined, rep.refined)
        assert r.shape == (1, 4 * 700)

        plain_cfg = EncoderConfig(use_chars=False)  # 300 per direction
        without = enc.Encoder(plain_cfg, embeddings, n_chars=10, rng=rng)
        rep = without.encode(batch, "mean")
        assert rep.refined.shape == (1, 600)
        assert aggregate(rep.refined, rep.refined).shape == (1, 4 * 600)
        _pass("dimension conformance: 700/1400x1400/1400 with chars, 600 without, r = 4x")


class TestOverfitCapacity:
    def test_all_pooling_methods_reach_perfect_training_accuracy(self):
        examples = synth.synthetic_examples(32, seed=12)
        started = time.perf_counter()
        for pooling in enc.POOLING_METHODS:
            model = small_model(examples, seed=13, pooling=pooling)
            result = train(
                model,
                examples,
                examples,
                TrainConfig(learning_rate=0.002, batch_size=8, max_epochs=300, seed=3),
                target_dev_accuracy=1.0,
            )
            assert result.best_dev_accuracy == 1.0, (
                f"{pooling}: reached only {result.best_dev_accuracy:.3f} "
                f"(epoch {result.best_epoch})"
            )
        elapsed = time.perf_counter() - started
        assert elapsed < 300.0, f"overfit suite took {elapsed:.0f}s"
        _pass(f"overfit capacity: 4/4 pooling methods at 100% ({elapsed:.0f}s)")


class TestSmokeRun:
    def test_small_corpus_learns_above_chance(self, tmp_path):
        started = time.perf_counter()
        train_path = tmp_path / "train.jsonl"
        dev_path = tmp_path / "dev.jsonl"
        synth.write_jsonl(synth.synthetic_records(10_000, np.random.default_rng(100)), train_path)
        synth.write_jsonl(synth.synthetic_records(2_000, np.random.default_rng(200)), dev_path)
        train_examples = load_dataset(train_path).examples
        dev_examples = load_dataset(dev_path).examples
        assert len(train_examples) == 10_000 and len(dev_examples) == 2_000

        vocab = Vocabulary.from_examples(train_examples, dim=50)
        chars = CharVocabulary.from_examples(train_examples, dim=2)
        rng = np.random.default_rng(7)
        config = ModelConfig(
            encoder=EncoderConfig(use_chars=False, word_dim=50, char_dim=2,
                                  char_hidden=2, hidden_per_dir=16),
            pooling="mean",
            mlp_widths=(32, 32, 32),
            dropout=0.1,
        )
        model = NLIModel(config, vocab, chars, random_embeddings(vocab, rng, scale=0.5), rng)
        result = train(
            model,
            train_examples,
            dev_examples,
            TrainConfig(learning_rate=0.002, batch_size=32, max_epochs=10, seed=11),
            target_dev_accuracy=0.45,
        )
        elapsed = time.perf_counter() - started
        assert result.best_dev_accuracy >= 0.45, (
            f"dev accuracy {result.best_dev_accuracy:.3f} below the 45% floor"
        )
        assert elapsed < 1800.0, f"smoke run took {elapsed:.0f}s"
        _pass(
            f"smoke run: {100 * result.best_dev_accuracy:.1f}% dev accuracy "
            f"in {len(result.epochs)} epoch(s), {elapsed:.0f}s"
        )


class TestProtocolFidelity:
    def test_preprocessing_optimizer_and_frozen_embeddings(self, tmp_path):
        # lowercasing and the numeric token
        assert normalize_token("The") == "the"
        assert normalize_token("1,200") == "<num>"
        assert normalize_token("3.5") == "<num>"

        # placeholder labels are dropped at load time
        corpus = tmp_path / "c.jsonl"
        records = synth.synthetic_records(4, np.random.default_rng(0))
        records.append({**records[0], "gold_label": "-", "pairID": "drop-me"})
        synth.write_jsonl(records, corpus)
        load = load_dataset(corpus)
        assert len(load) == 4 and load.dropped_no_label == 1

        # premises beyond 200 tokens vanish from training batches only
        examples = synth.synthetic_examples(4, seed=1)
        long_ex = examples[0].__class__("long", "g", ["w"] * 201, ["x"], "neutral")
        vocab = Vocabulary.from_examples(examples, dim=6)
        chars = CharVocabulary.from_examples(examples, dim=20)
        total = lambda role: sum(
            len(b) for b in make_batches(examples + [long_ex], 8, role, vocab, chars, 200)
        )
        assert total("train") == 4 and total("dev") == 5

        # first RMSProp step matches the closed form
        p = Tensor(np.array([0.5]))
        opt = RMSProp({"theta": p}, learning_rate=0.001)
        p.grad = np.array([2.0], dtype=np.float32)
        opt.step()
        expected = 0.5 - 0.001 * 2.0 / (np.sqrt(0.4) + 1e-8)
        np.testing.assert_allclose(p.data, [expected], rtol=1e-5)

        # frozen embeddings stay bit-identical through training
        model = small_model(examples, seed=2)
        before = model.encoder.word_embeddings.data.copy()
        train(model, examples, examples, TrainConfig(batch_size=4, max_epochs=3, seed=5))
        np.testing.assert_array_equal(model.encoder.word_embeddings.data, before)
        _pass("protocol fidelity: preprocessing, RMSProp closed form, frozen embeddings")


class TestEnsembleContract:
    def test_identical_members_and_four_seed_ensemble(self, reported_probs):
        examples = synth.synthetic_examples(24, seed=20)
        dev = synth.synthetic_examples(12, seed=21)

        single = small_model(examples, seed=22)
        lone = ev.evaluate(single, dev)
        lone_probs = reported_probs[-1]
        for k in (2, 3, 5):
            combined = ev.ensemble_evaluate([single] * k, dev)
            # the average is the last report; each member's comes before it
            np.testing.assert_array_equal(reported_probs[-1], lone_probs)
            assert combined.to_dict() == lone.to_dict()

        members = []
        for seed in (31, 32, 33, 34):
            model = small_model(examples, seed=seed)
            train(model, examples, dev, TrainConfig(
                learning_rate=0.002, batch_size=8, max_epochs=2, seed=seed))
            members.append(model)
        report = ev.ensemble_evaluate(members, dev)
        assert report.total == len(dev)
        assert 0.0 <= report.overall_accuracy <= 1.0
        _pass("ensemble contract: k-identical exactness and 4-seed ensemble end-to-end")


class TestSweepProtocol:
    def test_eight_cell_sweep_summaries_match_recomputation(self):
        train_examples = synth.synthetic_examples(16, seed=40)
        dev_examples = synth.synthetic_examples(8, seed=41)
        base = ModelConfig(
            encoder=EncoderConfig(use_chars=False, word_dim=6, char_dim=2,
                                  char_hidden=2, hidden_per_dir=3),
            pooling="mean",
            mlp_widths=(6, 6, 6),
            dropout=0.0,
        )
        runs, summary = ev.pooling_sweep(
            train_examples,
            dev_examples,
            base,
            TrainConfig(learning_rate=0.002, batch_size=8, max_epochs=1, seed=0),
            seeds=[0, 1],
            embedding_scale=0.5,
        )
        assert len(summary.cells) == 8 and len(runs) == 16

        t_one_df = 12.706204736  # two-sided 95% Student-t quantile, 1 degree of freedom
        for cell in summary.cells.values():
            values = np.array(cell.accuracies, dtype=np.float64)
            assert abs(cell.mean - values.mean()) <= 1e-6
            if np.all(values == values[0]):
                expected_half = 0.0
            else:
                expected_half = t_one_df * values.std(ddof=1) / np.sqrt(len(values))
            assert abs(cell.half_width - expected_half) <= 1e-6
            assert cell.best == values.max()
            assert cell.best >= cell.mean

        mean_table = summary.format_mean_table()
        best_table = summary.format_best_table()
        for method in ("mean", "sum", "last", "max"):
            assert method in mean_table and method in best_table
        _pass("sweep protocol: 8 cells, mean+-CI and best tables match recomputation")


class TestCheckpointRoundTrip:
    def test_save_load_evaluate_identical_and_corruption_rejected(self, tmp_path):
        examples = synth.synthetic_examples(15, seed=50)
        model = small_model(examples, seed=51)
        train(model, examples, examples, TrainConfig(batch_size=8, max_epochs=1, seed=52))

        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, epoch=1, dev_accuracy=0.5, seed=52)
        before = ev.evaluate(model, examples)
        loaded = load_checkpoint(path)
        after = ev.evaluate(loaded.model, examples)
        assert before.overall_accuracy == after.overall_accuracy
        np.testing.assert_array_equal(before.confusion, after.confusion)
        batch = make_batches(examples, 8, "dev", model.vocab, model.char_vocab)[0]
        for x, y in zip(model.predict_batch(batch), loaded.model.predict_batch(batch)):
            np.testing.assert_array_equal(x.probs, y.probs)

        truncated = tmp_path / "truncated.ckpt"
        truncated.write_bytes(path.read_bytes()[:-100])
        with pytest.raises(IntegrityError):
            load_checkpoint(truncated)
        garbage = tmp_path / "garbage.ckpt"
        garbage.write_bytes(b"not a checkpoint at all")
        with pytest.raises(IntegrityError):
            load_checkpoint(garbage)
        _pass("checkpoint round trip: exact re-evaluation, corruption rejected")

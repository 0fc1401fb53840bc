import numpy as np
import pytest

from nliattn import autodiff as ad
from nliattn import classifier as clf
from nliattn import encoder as enc
from nliattn import evaluation as ev
from nliattn import gradcheck as gc
from nliattn.autodiff import Tensor
from nliattn.data import (
    CharVocabulary,
    NLIExample,
    Vocabulary,
    make_batches,
    pairs_to_batch,
    random_embeddings,
)
from nliattn.encoder import EncoderConfig
from nliattn.errors import DataError, DimensionError
from nliattn.model import ModelConfig, NLIModel
from test_encoder import joined, unrolled_bilstm, unrolled_embed_tokens


class TestAggregate:
    def test_equal_inputs(self):
        p = Tensor(np.array([[1.0, -2.0, 0.5]]))
        r = clf.aggregate(p, Tensor(p.data.copy()))
        np.testing.assert_array_equal(r.data[:, 9:], np.zeros((1, 3), dtype=np.float32))  # |p-h|
        np.testing.assert_allclose(r.data[:, 6:9], p.data * p.data, rtol=1e-6)  # p*h

    def test_swap_symmetry(self):
        rng = np.random.default_rng(0)
        p = Tensor(rng.normal(size=(2, 4)))
        h = Tensor(rng.normal(size=(2, 4)))
        r_ph = clf.aggregate(p, h).data
        r_hp = clf.aggregate(h, p).data
        np.testing.assert_array_equal(r_ph[:, :4], r_hp[:, 4:8])
        np.testing.assert_array_equal(r_ph[:, 4:8], r_hp[:, :4])
        np.testing.assert_array_equal(r_ph[:, 8:], r_hp[:, 8:])

    def test_hand_forced(self):
        r = clf.aggregate(Tensor([[1.0, -2.0]]), Tensor([[3.0, 4.0]]))
        np.testing.assert_array_equal(r.data, [[1, -2, 3, 4, 3, -8, 2, 6]])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            clf.aggregate(Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 4))))
        with pytest.raises(DimensionError):  # rows only
            clf.aggregate(Tensor(np.zeros(3)), Tensor(np.zeros(3)))

    def test_width_is_four_times_input(self):
        p = Tensor(np.ones((2, 7)))
        assert clf.aggregate(p, p).shape == (2, 28)


class TestClassify:
    def _params(self, input_dim=6, widths=(4, 4, 4), seed=1):
        return clf.MLPParams(input_dim, np.random.default_rng(seed), widths=widths, dropout=0.25)

    def test_zero_network_gives_uniform_and_class_zero(self):
        params = self._params()
        for p in params.parameters().values():
            p.data[:] = 0.0
        logits = clf.classify(Tensor(np.ones((1, 6))), params)
        np.testing.assert_array_equal(logits.data, np.zeros((1, 3), dtype=np.float32))
        probs = clf.softmax(logits.data)
        np.testing.assert_allclose(probs[0], [1 / 3] * 3, atol=1e-9)
        assert probs[0].argmax() == 0

    def test_inference_deterministic(self):
        params = self._params(seed=2)
        r = Tensor(np.random.default_rng(3).normal(size=(1, 6)))
        a = clf.classify(r, params, training=False)
        b = clf.classify(r, params, training=False)
        np.testing.assert_array_equal(a.data, b.data)

    def test_matches_hand_composed_chain(self):
        # oracle: the affine/ReLU stack evaluated directly in float64
        with ad.precision("float64"):
            params = self._params(seed=4)
            r = np.random.default_rng(5).normal(size=(1, 6))
            logits = clf.classify(Tensor(r), params, training=False)
            x = r[0]
            for w, b in params.layers[:-1]:
                x = np.maximum(w.data @ x + b.data, 0.0)
            w_out, b_out = params.layers[-1]
            expected = w_out.data @ x + b_out.data
        np.testing.assert_allclose(logits.data[0], expected, atol=1e-6)

    def test_probs_form_distribution(self):
        params = self._params(seed=6)
        rng = np.random.default_rng(7)
        for _ in range(20):
            probs = clf.softmax(clf.classify(Tensor(rng.normal(size=(4, 6))), params).data)
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)
            assert np.all(probs >= 0) and np.all(probs <= 1)

    def test_shift_invariance(self):
        # every row moves by its own shift, so the row-wise max must be used
        logits = np.random.default_rng(20).normal(size=(3, 3))
        base = clf.softmax(logits)
        for shift in (-250.0, 1.0, 1e4):
            shifts = np.array([[shift], [0.0], [-shift]])
            np.testing.assert_allclose(clf.softmax(logits + shifts), base, atol=1e-6)

    def test_softmax_equals_per_row_form_bitwise(self):
        # oracle: the stable softmax of one row at a time, as float64
        def per_row(z):
            z = np.asarray(z, dtype=np.float64)
            e = np.exp(z - z.max())
            return e / e.sum()

        rng = np.random.default_rng(21)
        for scale in (0.01, 0.1, 1.0, 10.0, 100.0):
            for b in (1, 2, 7, 32, 64):
                logits = (scale * rng.normal(size=(b, 3))).astype(np.float32)
                probs = clf.softmax(logits)
                assert probs.dtype == np.float64
                np.testing.assert_array_equal(probs, [per_row(row) for row in logits])

    def test_shift_invariance_through_classifier(self):
        with ad.precision("float64"):
            params = self._params(seed=8)
            r = Tensor(np.random.default_rng(9).normal(size=(1, 6)))
            before = clf.softmax(clf.classify(r, params).data)
            w_out, b_out = params.layers[-1]
            b_out.data[:] += 100.0  # shifts every logit equally
            after = clf.softmax(clf.classify(r, params).data)
        np.testing.assert_allclose(before, after, atol=1e-6)
        assert before.argmax() == after.argmax()

    def test_dropout_only_in_training(self):
        params = self._params(seed=10)
        r = Tensor(np.random.default_rng(11).normal(size=(1, 6)))
        base = clf.classify(r, params, training=False)
        rng = np.random.default_rng(12)
        seen_different = any(
            not np.array_equal(clf.classify(r, params, training=True, rng=rng).data, base.data)
            for _ in range(8)
        )
        assert seen_different

    def test_wrong_input_width(self):
        params = self._params(input_dim=6)
        with pytest.raises(DimensionError):
            clf.classify(Tensor(np.zeros((1, 5))), params)


def tiny_model(seed=0, use_chars=True, pooling="mean"):
    examples = [
        NLIExample("a", "g", ["a", "cat", "runs"], ["a", "cat", "moves"], "entailment"),
        NLIExample("b", "g", ["dogs", "sleep"], ["dogs", "play", "chess"], "neutral"),
    ]
    vocab = Vocabulary.from_examples(examples, dim=4)
    chars = CharVocabulary.from_examples(examples, dim=2)
    rng = np.random.default_rng(seed)
    config = ModelConfig(
        encoder=EncoderConfig(
            use_chars=use_chars, word_dim=4, char_dim=2, char_hidden=2, hidden_per_dir=3
        ),
        pooling=pooling,
        mlp_widths=(5, 5, 5),
        dropout=0.25,
    )
    embeddings = random_embeddings(vocab, rng)
    model = NLIModel(config, vocab, chars, embeddings, rng)
    return model, examples, vocab, chars


class TestModel:
    def test_parameter_names_unique_and_stable(self):
        model, *_ = tiny_model()
        names = list(model.parameters())
        assert len(names) == len(set(names))
        assert names == list(tiny_model()[0].parameters())
        assert "word_embeddings" in names and "attention.w" in names

    def test_matching_vector_width(self):
        model, *_ = tiny_model()
        assert model.mlp.input_dim == 4 * model.config.encoder.rep_dim

    def test_batch_loss_and_prediction(self):
        model, examples, vocab, chars = tiny_model()
        batch = make_batches(examples, 2, "dev", vocab, chars)[0]
        loss = model.batch_loss(batch)
        assert np.isfinite(loss.item())
        dists = model.predict_batch(batch)
        assert len(dists) == 2
        for d in dists:
            assert abs(d.probs.sum() - 1.0) < 1e-6
            assert d.predicted_class == int(np.argmax(d.probs))

    def test_predict_tokens_handles_unknowns(self):
        model, *_ = tiny_model()
        dist = model.predict_tokens(["utterly", "novel", "words"], ["cat"])
        assert abs(dist.probs.sum() - 1.0) < 1e-6

    @pytest.mark.parametrize("use_chars", [True, False])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_gradients_bit_identical_with_and_without_the_worker(
        self, monkeypatch, use_chars, dtype
    ):
        def grads(concurrent):
            monkeypatch.setattr(ad, "_use_worker", lambda: concurrent)
            with ad.precision(dtype):
                model, examples, vocab, chars = tiny_model(seed=15, use_chars=use_chars)
                batch = make_batches(examples, 2, "dev", vocab, chars)[0]
                with ad.Tape() as tape:
                    loss = model.batch_loss(batch, training=True, rng=np.random.default_rng(16))
                tape.backward(loss)
            return {name: p.grad for name, p in model.parameters().items() if p.requires_grad}

        deferred, inline = grads(True), grads(False)
        assert len(deferred) == len(inline) > 10
        for name, grad in deferred.items():
            assert grad.dtype == dtype and np.array_equal(grad, inline[name]), name

    @pytest.mark.parametrize("use_chars", [True, False])
    def test_word_lookup_is_a_constant_without_grad(self, monkeypatch, use_chars):
        model, examples, vocab, chars = tiny_model(seed=17, use_chars=use_chars)
        batch = make_batches(examples, 2, "dev", vocab, chars)[0]
        context = []
        lstm_sequence = ad.lstm_sequence

        def spy(x, lengths, forward=None, backward=None):
            out = lstm_sequence(x, lengths, forward, backward)
            if forward is not None and backward is not None:
                context.append((x, out))
            return out

        monkeypatch.setattr(ad, "lstm_sequence", spy)
        with ad.Tape() as tape:
            loss = model.batch_loss(batch)
        ((blocks, out),) = context
        # the word block is a constant, the char block (chars on) learns
        assert [block.requires_grad for block in blocks] == [False] + [True] * use_chars
        (rule,) = [rule for record_out, _, rule in tape._records if record_out is out]
        grads = rule(np.ones_like(out.data))
        assert grads[0] is None
        if use_chars:
            assert grads[1].shape == blocks[1].shape
        tape.backward(loss)
        assert blocks[0].grad is None and model.encoder.word_embeddings.grad is None

    def test_context_lstm_record_takes_the_word_and_char_blocks(self):
        model, examples, vocab, chars = tiny_model(seed=18, use_chars=True)
        batch = make_batches(examples, 2, "dev", vocab, chars)[0]
        with ad.Tape() as tape:
            model.batch_loss(batch)
        encoder = model.encoder
        (inputs,) = [
            inputs for _, inputs, _ in tape._records
            if any(t is encoder.forward_cell.w_ih for t in inputs)
        ]
        words, char_block, *weights = inputs
        assert weights == [*encoder.forward_cell, *encoder.backward_cell]
        config = model.config.encoder
        assert words.shape == (len(batch.word_ids), config.word_dim)
        assert char_block.shape == (len(batch.word_ids), config.char_hidden)
        made_by = {id(out): rule.__qualname__ for out, _, rule in tape._records}
        assert id(words) not in made_by  # a frozen lookup is not taped
        assert made_by[id(char_block)].startswith("take_rows.")
        assert not any(made_by.get(id(t), "").startswith("concat.") for t in inputs)

    def test_full_pipeline_gradient_check(self):
        with ad.precision("float64"):
            model, examples, vocab, chars = tiny_model(seed=13)
            rng = np.random.default_rng(14)
            trainable = {name: p for name, p in model.parameters().items() if p.requires_grad}
            for p in trainable.values():
                p.data[:] = rng.uniform(-0.5, 0.5, p.shape)
            batch = make_batches(examples, 2, "dev", vocab, chars)[0]

            errors = gc.gradient_errors(lambda: model.batch_loss(batch), trainable)
        assert len(errors) > 10
        for name, err in errors.items():
            assert err <= 1e-3, f"{name}: relative error {err:.3e}"


def _probs_of(model, examples, pair_id):
    batch = make_batches(examples, len(examples), "dev", model.vocab, model.char_vocab)[0]
    return model.predict_batch(batch)[batch.pair_ids.index(pair_id)].probs


def _large_weights(model, seed):
    rng = np.random.default_rng(seed)
    for p in model.parameters().values():
        if p.requires_grad:
            p.data[:] = ad._uniform(rng, -0.5, 0.5, p.shape)


def unrolled_represent(model, batch):
    """Refined premise and hypothesis rows [B x d] with every sentence
    encoded on its own: a per-token char unroll, an ``lstm_step`` unroll of
    both directions, then pooling and attention over that one sentence."""
    encoder = model.encoder
    rows = []
    ends = np.cumsum(batch.lengths)
    for start, end in zip(ends - batch.lengths, ends):
        tokens = slice(start, end)
        x = unrolled_embed_tokens(
            encoder, batch.word_ids[tokens], batch.word_index[tokens],
            batch.char_ids, batch.char_lengths,
        )
        H, _ = unrolled_bilstm(encoder, x, [end - start])
        seq = enc.ContextualSequence(H, np.array([end - start]))
        raw = enc.pool(seq, model.config.pooling)
        rows.append(enc.inner_attention(seq, raw, encoder.attention_w, encoder.attention_v)[0])
    b = len(batch)
    return ad.concat(rows[:b]), ad.concat(rows[b:])


class TestBatchPaths:
    """A pair's output must not depend on its batch-mates, padding or path."""

    TARGET = NLIExample("t", "g", ["a", "cat", "runs"], ["dogs", "sleep"], "neutral")
    SHORT = NLIExample("s", "g", ["cat"], ["a"], "entailment")
    LONG = NLIExample(
        "l", "g", ["dogs", "play", "chess", "a", "cat", "runs", "far", "away"],
        ["a", "cat", "moves", "and", "dogs", "sleep"], "contradiction",
    )
    # the lengths of TARGET's sentences, so the length sort must break ties
    TIE = NLIExample("e", "g", ["dogs", "sleep", "now"], ["cat", "runs"], "contradiction")
    # a 1-token premise, shorter than its hypothesis
    ONE = NLIExample("o", "g", ["cat"], ["a", "cat", "runs", "far"], "entailment")

    @pytest.mark.parametrize("pooling", enc.POOLING_METHODS)
    def test_batched_logits_and_gradients_match_step_unroll(self, pooling):
        examples = [self.ONE, self.TARGET, self.LONG, self.TIE]
        with ad.precision("float64"):
            model, *_ = tiny_model(seed=45, pooling=pooling)
            _large_weights(model, seed=46)
            # word vectors of unit scale, so the encoder's outputs are too
            words = model.encoder.word_embeddings.data
            words[1:] = np.random.default_rng(47).uniform(-1.0, 1.0, words[1:].shape)
            batch = make_batches(examples, len(examples), "dev", model.vocab, model.char_vocab)[0]

            def unrolled_logits():
                return clf.classify(clf.aggregate(*unrolled_represent(model, batch)), model.mlp)

            def grads(loss_of):
                for p in model.parameters().values():
                    p.grad = None
                with ad.Tape() as tape:
                    loss = loss_of()
                tape.backward(loss)
                return {name: p.grad.copy() for name, p in model.parameters().items()
                        if p.requires_grad}

            rows = [r.data for r in model.represent(batch)]
            ref_rows = [r.data for r in unrolled_represent(model, batch)]
            logits = model.batch_logits(batch).data
            ref_logits = unrolled_logits().data
            batched = grads(lambda: model.batch_loss(batch))
            unrolled = grads(lambda: ad.cross_entropy_from_logits(unrolled_logits(), batch.labels))
        for row, ref in zip(rows, ref_rows):
            np.testing.assert_allclose(row, ref, atol=1e-6)
        np.testing.assert_allclose(logits, ref_logits, atol=1e-6)
        for name, grad in batched.items():
            # relative to the gradient's own size, which the MLP makes small
            size = np.abs(unrolled[name]).max()
            np.testing.assert_allclose(grad / size, unrolled[name] / size, atol=1e-6, err_msg=name)

    def test_batch_composition_invariance(self):
        with ad.precision("float64"):
            model, *_ = tiny_model(seed=40)
            # nonzero biases, so a padded step could not pass for a no-op
            _large_weights(model, seed=43)
            alone = _probs_of(model, [self.TARGET], "t")
            for mates in (
                [self.SHORT], [self.LONG], [self.LONG, self.SHORT],
                [self.TIE], [self.ONE, self.TIE], [self.LONG, self.TIE, self.SHORT, self.ONE],
            ):
                for examples in ([self.TARGET, *mates], [*mates, self.TARGET]):
                    np.testing.assert_allclose(
                        _probs_of(model, examples, "t"), alone, atol=1e-6
                    )

    def test_literal_pad_token_agrees_across_paths(self, reported_probs, tmp_path):
        # predict, eval, ensemble and export all see the pair through a Batch;
        # LONG is longer on both sides, so the pair's rows are padded there
        pair = NLIExample("p", "g", ["a", "<pad>", "cat"], ["<pad>", "runs"], "neutral")
        padded = [pair, self.LONG]
        with ad.precision("float64"):
            model, *_ = tiny_model(seed=41)
            assert model.config.encoder.use_chars
            # weights large enough that 1e-6 is a tight bound on every value
            _large_weights(model, seed=44)
            one = make_batches([pair], 1, "dev", model.vocab, model.char_vocab)[0]
            single = model.predict_tokens(pair.premise_tokens, pair.hypothesis_tokens).probs
            np.testing.assert_array_equal(single, model.predict_batch(one)[0].probs)
            batched = _probs_of(model, padded, "p")
            ev.evaluate(model, padded)
            ev.ensemble_evaluate([model], padded)
            ev.ensemble_evaluate([model, model], [pair])
            ev.export_representations(model, padded, tmp_path / "reps.tsv")
            premise, hypothesis = model.represent(one)
        # evaluate's report, then each ensemble's member reports and average
        assert len(reported_probs) == 1 + (1 + 1) + (2 + 1)
        for probs in (batched, *(probs[0] for probs in reported_probs)):
            np.testing.assert_allclose(probs, single, atol=1e-6)
        rows = [line.split("\t") for line in (tmp_path / "reps.tsv").read_text().splitlines()]
        assert [row[:2] for row in rows[:2]] == [["p", "premise"], ["p", "hypothesis"]]
        np.testing.assert_allclose(np.array(rows[0][2:], dtype=float), premise.data[0], atol=1e-6)
        np.testing.assert_allclose(np.array(rows[1][2:], dtype=float), hypothesis.data[0], atol=1e-6)

    @pytest.mark.parametrize("use_chars", [False, True])
    def test_tape_records_do_not_grow_with_sentence_length(self, use_chars):
        model, *_ = tiny_model(seed=42, use_chars=use_chars)

        def records(length, size):
            # mixed lengths, so every batch pads its shorter sentences
            examples = [
                NLIExample(str(i), "g", ["a", "cat"] * length * (1 + i % 3), ["dogs"] * length,
                           "neutral")
                for i in range(size)
            ]
            batch = make_batches(examples, size, "train", model.vocab, model.char_vocab)[0]
            with ad.Tape() as tape:
                model.batch_loss(batch, training=True, rng=np.random.default_rng(0))
            return len(tape)

        counts = {(n, b): records(n, b) for n in (1, 4, 20) for b in (1, 4, 32)}
        assert len(set(counts.values())) == 1, counts


class TestCharHalf:
    """The char half of ``embed_tokens`` (each distinct word encoded once,
    gathered back to its tokens) against a per-token ``lstm_step`` unroll."""

    # "dog" repeats inside a premise and across premise and hypothesis;
    # "dog"/"dogs" and "a"/"at" are prefix pairs; "a" has one character
    PREMISES = [["dog", "dogs", "a", "dog"], ["a", "sat"]]
    HYPOTHESES = [["dog", "at", "a", "dogs"], ["dog", "sat", "a"]]

    def _batch(self, model, premises=PREMISES, hypotheses=HYPOTHESES):
        return pairs_to_batch(
            premises, hypotheses, model.vocab, model.char_vocab, labels=[0] * len(premises)
        )

    def test_values_and_gradients_match_per_token_unroll(self, monkeypatch):
        with ad.precision("float64"):
            model, *_ = tiny_model(seed=50)
            _large_weights(model, seed=51)
            batch = self._batch(model)
            inputs = batch.word_ids, batch.word_index, batch.char_ids, batch.char_lengths
            fast = joined(model.encoder.embed_tokens(*inputs))
            slow = unrolled_embed_tokens(model.encoder, *inputs).data

            def char_grads():
                for p in model.parameters().values():
                    p.grad = None
                with ad.Tape() as tape:
                    loss = model.batch_loss(batch)
                tape.backward(loss)
                return {name: p.grad.copy() for name, p in model.parameters().items()
                        if name.startswith("char_")}

            batched = char_grads()
            monkeypatch.setattr(
                model.encoder, "embed_tokens",
                lambda *inputs: unrolled_embed_tokens(model.encoder, *inputs),
            )
            unrolled = char_grads()
        assert fast.shape == (sum(map(len, self.PREMISES + self.HYPOTHESES)), 4 + 2)
        np.testing.assert_allclose(fast, slow, atol=1e-6)
        assert sorted(batched) == [
            "char_embeddings", "char_lstm.bias", "char_lstm.w_hh", "char_lstm.w_ih"
        ]
        for name, grad in batched.items():
            size = np.abs(unrolled[name]).max()
            assert size > 0, name
            np.testing.assert_allclose(grad / size, unrolled[name] / size, atol=1e-6, err_msg=name)

    def test_word_vector_independent_of_batch_mates(self):
        with ad.precision("float64"):
            model, *_ = tiny_model(seed=52)
            _large_weights(model, seed=53)

            def char_half(premises, hypotheses):
                batch = self._batch(model, premises, hypotheses)
                _, char_block = model.encoder.embed_tokens(
                    batch.word_ids, batch.word_index, batch.char_ids, batch.char_lengths
                )
                return char_block.data

            full = char_half(self.PREMISES, self.HYPOTHESES)
            tokens = [t for sentence in self.PREMISES + self.HYPOTHESES for t in sentence]
            alone = {word: char_half([[word]], [[word]])[0] for word in set(tokens)}
        for row, word in zip(full, tokens):
            np.testing.assert_allclose(row, alone[word], rtol=0, atol=1e-12, err_msg=word)

    def test_distinct_word_table(self, monkeypatch):
        # "dog" repeats inside a premise and across premise and hypothesis;
        # "dogz" and "dogq" differ only in characters the model does not know
        model, _, _, chars = tiny_model(seed=55)
        premises = [["dog", "dogz", "dog"], ["a"]]
        hypotheses = [["dogq", "dog"], ["a", "cat"]]
        batch = self._batch(model, premises, hypotheses)
        tokens = [t for sentence in premises + hypotheses for t in sentence]
        words = list(dict.fromkeys(tokens))
        assert len(batch.char_lengths) == len(words) == 5
        assert [words[w] for w in batch.word_index] == tokens
        np.testing.assert_array_equal(batch.char_lengths, [len(w) for w in words])
        ends = np.cumsum(batch.char_lengths)
        spelled = [batch.char_ids[e - n : e].tolist() for e, n in zip(ends, batch.char_lengths)]
        assert spelled == [[chars.lookup(c) for c in w] for w in words]
        assert spelled[words.index("dogz")] == spelled[words.index("dogq")]

        calls = []
        char_encode = enc.char_encode
        monkeypatch.setattr(enc, "char_encode", lambda *a: calls.append(a) or char_encode(*a))
        model.batch_loss(batch)
        assert len(calls) == 1

    def test_token_without_characters_rejected(self):
        model, *_ = tiny_model(seed=54)
        batch = self._batch(model)
        lengths = batch.char_lengths.copy()
        lengths[1] = 0  # "dogs" keeps its word id only
        with pytest.raises(DataError):
            model.encoder.embed_tokens(batch.word_ids, batch.word_index, batch.char_ids, lengths)

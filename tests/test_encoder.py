import multiprocessing
import os
import signal
import threading
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from nliattn import autodiff as ad
from nliattn import encoder as enc
from nliattn import gradcheck as gc
from nliattn.autodiff import Tensor
from nliattn.errors import ConfigError, DataError, DimensionError, InvalidInputError


# -- independent oracle: the gate formulas evaluated directly in float64 ----


def np_sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def np_lstm_step(w_ih, w_hh, bias, x, h_prev, c_prev):
    h = h_prev.shape[0]
    gates = w_ih @ x + w_hh @ h_prev + bias
    i = np_sigmoid(gates[:h])
    f = np_sigmoid(gates[h : 2 * h])
    g = np.tanh(gates[2 * h : 3 * h])
    o = np_sigmoid(gates[3 * h :])
    c = f * c_prev + i * g
    return o * np.tanh(c), c


def lstm_step(weights: enc.LSTMWeights, x_t: Tensor, h_prev: Tensor, c_prev: Tensor):
    """One LSTM cell update of k rows from elementary taped ops: inputs x_t
    [k x d] and states [k x h]; returns (h_t, c_t), each [k x h].  The
    reference the fused ``ad.lstm_sequence`` is held to, step by step."""
    h = weights.w_hh.shape[1]
    gates = ad.add(
        ad.affine(x_t, weights.w_ih, weights.bias),
        ad.affine(h_prev, weights.w_hh, Tensor(np.zeros(4 * h), requires_grad=False)),
    )
    i = ad.sigmoid(ad.narrow(gates, 1, 0, h))
    f = ad.sigmoid(ad.narrow(gates, 1, h, h))
    g = ad.tanh(ad.narrow(gates, 1, 2 * h, h))
    o = ad.sigmoid(ad.narrow(gates, 1, 3 * h, h))
    c_t = ad.add(ad.mul(f, c_prev), ad.mul(i, g))
    h_t = ad.mul(o, ad.tanh(c_t))
    return h_t, c_t


def tiny_encoder(use_chars=False, word_dim=5, hidden=3, n_vocab=9, n_chars=7, seed=0):
    rng = np.random.default_rng(seed)
    config = enc.EncoderConfig(
        use_chars=use_chars,
        word_dim=word_dim,
        char_dim=2,
        char_hidden=2,
        hidden_per_dir=hidden,
    )
    matrix = rng.uniform(-0.5, 0.5, (n_vocab, word_dim)).astype(np.float32)
    matrix[0] = 0.0
    embeddings = Tensor(matrix, requires_grad=False)
    return enc.Encoder(config, embeddings, n_chars=n_chars, rng=rng)


def joined(blocks) -> np.ndarray:
    """The input rows [L x d] that ``embed_tokens``' column blocks make."""
    return np.concatenate([block.data for block in blocks], axis=1)


class TestLstmStep:
    def test_zero_params_zero_state(self):
        rng = np.random.default_rng(0)
        cell = enc.lstm_weights(4, 3, rng)
        for p in cell:
            p.data[:] = 0.0
        zero = Tensor(np.zeros((1, 3)))
        h, c = lstm_step(cell, Tensor(rng.normal(size=(1, 4))), zero, zero)
        np.testing.assert_array_equal(h.data, np.zeros((1, 3), dtype=np.float32))
        np.testing.assert_array_equal(c.data, np.zeros((1, 3), dtype=np.float32))

    def test_gate_saturation_carries_cell_state(self):
        rng = np.random.default_rng(1)
        cell = enc.lstm_weights(2, 3, rng)
        cell.w_ih.data[:] = 0.0
        cell.w_hh.data[:] = 0.0
        bias = np.full(12, -50.0, dtype=np.float32)
        bias[3:6] = 50.0  # forget slots
        cell.bias.data[:] = bias
        c_prev = Tensor(np.array([[0.3, -0.7, 1.1]]))
        h, c = lstm_step(cell, Tensor(np.ones((1, 2))), Tensor(np.zeros((1, 3))), c_prev)
        np.testing.assert_allclose(c.data, c_prev.data, atol=1e-6)
        np.testing.assert_allclose(h.data, np.zeros((1, 3)), atol=1e-6)

    def test_matches_direct_formula(self):
        # k = 3 rows, each an independent cell update
        with ad.precision("float64"):
            rng = np.random.default_rng(2)
            cell = enc.lstm_weights(2, 3, rng)
            x = rng.normal(size=(3, 2))
            h0 = rng.normal(size=(3, 3))
            c0 = rng.normal(size=(3, 3))
            h, c = lstm_step(cell, Tensor(x), Tensor(h0), Tensor(c0))
        assert h.shape == c.shape == (3, 3)
        for row in range(3):
            exp_h, exp_c = np_lstm_step(
                cell.w_ih.data, cell.w_hh.data, cell.bias.data, x[row], h0[row], c0[row]
            )
            np.testing.assert_allclose(h.data[row], exp_h, atol=1e-6)
            np.testing.assert_allclose(c.data[row], exp_c, atol=1e-6)

    def test_forget_bias_initialized_to_one(self):
        cell = enc.lstm_weights(2, 4, np.random.default_rng(3))
        np.testing.assert_array_equal(cell.bias.data[4:8], np.ones(4, dtype=np.float32))
        np.testing.assert_array_equal(cell.bias.data[:4], np.zeros(4, dtype=np.float32))


def np_char_unroll(cell, emb, ids):
    """Final hidden state of the char-LSTM over one word, by ``np_lstm_step``."""
    h = c = np.zeros(cell.w_hh.shape[1])
    for i in ids:
        h, c = np_lstm_step(cell.w_ih.data, cell.w_hh.data, cell.bias.data, emb.data[i], h, c)
    return h


class TestCharEncode:
    def _char_model(self, rng):
        emb = Tensor(rng.uniform(-0.5, 0.5, (6, 2)))
        cell = enc.lstm_weights(2, 2, rng)
        return emb, cell

    def test_single_char_equals_one_step(self):
        rng = np.random.default_rng(4)
        emb, cell = self._char_model(rng)
        out = enc.char_encode([3], [1], emb, cell)
        expected, _ = lstm_step(
            cell, Tensor(emb.data[3:4]), Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 2)))
        )
        assert out.shape == (1, 2)
        np.testing.assert_array_equal(out.data, expected.data)

    def test_purity(self):
        rng = np.random.default_rng(5)
        emb, cell = self._char_model(rng)
        ids = np.array([1, 2, 3, 4, 1])
        a = enc.char_encode(ids, [3, 2], emb, cell)
        b = enc.char_encode(ids, [3, 2], emb, cell)
        np.testing.assert_array_equal(a.data, b.data)
        np.testing.assert_array_equal(ids, [1, 2, 3, 4, 1])

    def test_matches_manual_unroll(self):
        with ad.precision("float64"):
            rng = np.random.default_rng(6)
            emb, cell = self._char_model(rng)
            ids = [2, 0, 4]  # "cat" as char ids
            out = enc.char_encode(ids, [3], emb, cell)
            expected = np_char_unroll(cell, emb, ids)
        np.testing.assert_allclose(out.data[0], expected, atol=1e-6)

    def test_multiple_words_unequal_lengths(self):
        # one packed call: a 1-char word, a prefix pair, a length tie and
        # words shorter than their predecessors, each against its own unroll
        words = [[2, 0, 4], [1], [3, 5, 5, 1], [3, 5], [4, 4, 1], [1]]
        with ad.precision("float64"):
            rng = np.random.default_rng(8)
            emb, cell = self._char_model(rng)
            out = enc.char_encode(
                np.concatenate(words), [len(w) for w in words], emb, cell
            )
            expected = np.stack([np_char_unroll(cell, emb, w) for w in words])
        assert out.shape == (len(words), 2)
        np.testing.assert_allclose(out.data, expected, atol=1e-6)

    def test_empty_word_rejected(self):
        rng = np.random.default_rng(7)
        emb, cell = self._char_model(rng)
        with pytest.raises(DataError):
            enc.char_encode([], [0], emb, cell)
        with pytest.raises(DataError):  # an empty word among others
            enc.char_encode([1, 2, 3], [2, 0, 1], emb, cell)


class TestEmbedTokens:
    def test_lookup_without_chars(self):
        model = tiny_encoder(use_chars=False)
        ids = np.array([2, 5, 2])
        (out,) = model.embed_tokens(ids)
        np.testing.assert_array_equal(out.data, model.word_embeddings.data[ids])

    def test_word_half_matches_lookup_with_chars(self):
        model = tiny_encoder(use_chars=True)
        ids = np.array([3, 4])
        out = joined(model.embed_tokens(ids, [0, 1], [1, 2, 3], [2, 1]))
        np.testing.assert_array_equal(out[:, :5], model.word_embeddings.data[ids])
        assert out.shape == (2, 5 + 2)

    def test_rows_follow_word_index(self):
        # token t gets the char row of its distinct word, whatever the
        # other words of the table
        model = tiny_encoder(use_chars=True)
        words = [[1, 2], [3], [2, 1]]
        word_index = np.array([0, 2, 0, 1])
        out = joined(
            model.embed_tokens([3, 5, 3, 4], word_index, np.concatenate(words), [2, 1, 2])
        )
        alone = [joined(model.embed_tokens([3], [0], words[w], [len(words[w])]))[0, 5:]
                 for w in word_index]
        np.testing.assert_array_equal(out[0], out[2])
        np.testing.assert_allclose(out[:, 5:], np.vstack(alone), atol=1e-6)

    def test_out_of_range_id_rejected(self):
        model = tiny_encoder()
        with pytest.raises(InvalidInputError):
            model.embed_tokens(np.array([99]))
        model = tiny_encoder(use_chars=True)
        for bad in (-1, -2, 7):  # character ids outside the 7-char vocabulary
            with pytest.raises(InvalidInputError):
                model.embed_tokens(np.array([3, 4]), [0, 1], [1, bad, 3], [2, 1])
        with pytest.raises(InvalidInputError):  # a word index outside the table
            model.embed_tokens(np.array([3, 4]), [0, 2], [1, 2, 3], [2, 1])

    def test_word_table_required_with_chars(self):
        model = tiny_encoder(use_chars=True)
        with pytest.raises(ConfigError):
            model.embed_tokens(np.array([3, 4]))
        with pytest.raises(DimensionError):  # one word index per token
            model.embed_tokens(np.array([3, 4]), [0], [1, 2, 3], [2, 1])


class TestBilstm:
    def test_single_position(self):
        model = tiny_encoder()
        x = Tensor(np.random.default_rng(8).normal(size=(1, 5)))
        seq = enc.bilstm(x, [1], model.forward_cell, model.backward_cell)
        zero = Tensor(np.zeros((1, 3)))
        fh, _ = lstm_step(model.forward_cell, x, zero, zero)
        bh, _ = lstm_step(model.backward_cell, x, zero, zero)
        np.testing.assert_array_equal(seq.H.data, np.hstack([fh.data, bh.data]))

    def test_reversal_symmetry_with_tied_weights(self):
        # oracle: with tied cells, the forward pass over a sequence equals the
        # backward pass over its reversal
        model = tiny_encoder(seed=9)
        for name in ("w_ih", "w_hh", "bias"):
            getattr(model.backward_cell, name).data[:] = getattr(model.forward_cell, name).data
        x = np.random.default_rng(10).normal(size=(3, 5)).astype(np.float32)
        seq = enc.bilstm(Tensor(x), [3], model.forward_cell, model.backward_cell)
        seq_rev = enc.bilstm(Tensor(x[::-1]), [3], model.forward_cell, model.backward_cell)
        h = model.forward_cell.w_hh.shape[1]
        for i in range(3):
            np.testing.assert_allclose(
                seq.H.data[i, :h], seq_rev.H.data[2 - i, h:], atol=1e-6
            )

    def test_padding_neutrality(self):
        # no padding in the packed layout: a sentence packed before a longer
        # batch-mate gets the states it gets alone
        model = tiny_encoder(seed=11)
        rng = np.random.default_rng(12)
        x_real = rng.normal(size=(3, 5)).astype(np.float32)
        x_mate = rng.normal(size=(5, 5)).astype(np.float32)
        plain = enc.bilstm(Tensor(x_real), [3], model.forward_cell, model.backward_cell)
        packed = enc.bilstm(
            Tensor(np.vstack([x_real, x_mate])), [3, 5], model.forward_cell, model.backward_cell
        )
        np.testing.assert_allclose(plain.H.data, packed.H.data[:3], atol=1e-6)
        for final in ("final_forward", "final_backward"):
            np.testing.assert_allclose(
                getattr(plain, final).data, getattr(packed, final).data[:1], atol=1e-6
            )
        np.testing.assert_array_equal(packed.lengths, [3, 5])

    def test_all_masked_rejected(self):
        # a sentence of no tokens
        model = tiny_encoder()
        with pytest.raises(InvalidInputError):
            enc.bilstm(Tensor(np.zeros((2, 5))), [2, 0], model.forward_cell, model.backward_cell)


def _bilstm_after_fork(x):
    # a hang here ends the process, which the parent sees as a broken pool
    signal.alarm(60)
    model = tiny_encoder(seed=13)
    return enc.bilstm(Tensor(x), [2, 3], model.forward_cell, model.backward_cell).H.data


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_bilstm_runs_in_forked_child(monkeypatch):
    # the child inherits the parent's worker but not its thread
    monkeypatch.setattr(ad, "_use_worker", lambda: True)
    x = np.random.default_rng(14).normal(size=(5, 5)).astype(np.float32)
    model = tiny_encoder(seed=13)
    expected = enc.bilstm(Tensor(x), [2, 3], model.forward_cell, model.backward_cell).H.data
    assert any(t.name.startswith("nliattn-worker") for t in threading.enumerate())
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
        child = pool.submit(_bilstm_after_fork, x).result(timeout=120)
    np.testing.assert_array_equal(child, expected)


def unrolled_bilstm(model, x: Tensor, lengths):
    """Per-sentence ``lstm_step`` unroll of both directions over packed rows,
    one row at a time: H [L x 2h] and, per sentence, the forward state
    after its last row and the backward state after its first, each [1 x h]."""
    rows = [ad.narrow(x, 0, i, 1) for i in range(x.shape[0])]
    hidden = model.forward_cell.w_hh.shape[1]
    H, finals = [], []
    start = 0
    for n in lengths:
        states = {}
        ends = []
        for cell, order in (
            (model.forward_cell, range(start, start + n)),
            (model.backward_cell, range(start + n - 1, start - 1, -1)),
        ):
            h, c = Tensor(np.zeros((1, hidden))), Tensor(np.zeros((1, hidden)))
            for i in order:
                h, c = lstm_step(cell, rows[i], h, c)
                states[(i, cell)] = h
            ends.append(h)
        H += [
            ad.concat([states[(i, model.forward_cell)], states[(i, model.backward_cell)]], axis=1)
            for i in range(start, start + n)
        ]
        finals.append(ends)
        start += n
    return ad.concat(H), finals


def unrolled_embed_tokens(model, word_ids, word_index, char_ids, char_lengths):
    """Input rows [L x d] of the packed tokens with the char half run token
    by token: every token's characters, read from the distinct-word table,
    through its own ``lstm_step`` unroll, repeated words included."""
    words = Tensor(model.word_embeddings.data[np.asarray(word_ids)])
    ends = np.cumsum(char_lengths)
    cell = model.char_cell
    hidden = cell.w_hh.shape[1]
    rows = []
    for w in word_index:
        h, c = Tensor(np.zeros((1, hidden))), Tensor(np.zeros((1, hidden)))
        for i in char_ids[ends[w] - char_lengths[w] : ends[w]]:
            h, c = lstm_step(cell, ad.take_rows(model.char_embeddings, [i]), h, c)
        rows.append(h)
    return ad.concat([words, ad.concat(rows)], axis=1)


class TestFusedBilstm:
    """The fused, batched sequence op against the step-by-step ``lstm_step`` oracle."""

    # a 1-token sentence, a length tie, and sentences shorter and longer
    # than their predecessors
    LENGTHS = np.array([4, 1, 4, 7])

    def _fused(self, model, x):
        seq = enc.bilstm(x, self.LENGTHS, model.forward_cell, model.backward_cell)
        return seq.H, enc.pool(seq, "last")

    def _unroll(self, model, x):
        H, finals = unrolled_bilstm(model, x, self.LENGTHS)
        last = ad.concat([ad.concat([f, b], axis=1) for f, b in finals], axis=0)
        return H, last

    def test_matches_step_unroll(self):
        with ad.precision("float64"):
            model = tiny_encoder(seed=30)
            x = Tensor(np.random.default_rng(31).normal(size=(self.LENGTHS.sum(), 5)))
            H, last = self._fused(model, x)
            ref_H, ref_last = self._unroll(model, x)
            np.testing.assert_allclose(H.data, ref_H.data, atol=1e-6)
            np.testing.assert_allclose(last.data, ref_last.data, atol=1e-6)

    def test_gradients_match_step_unroll(self):
        with ad.precision("float64"):
            model = tiny_encoder(seed=32)
            rng = np.random.default_rng(33)
            x = Tensor(rng.normal(size=(self.LENGTHS.sum(), 5)))
            weights = Tensor(rng.normal(size=(self.LENGTHS.sum(), 6)))
            params = {
                **model.forward_cell.named("context_forward"),
                **model.backward_cell.named("context_backward"),
            }

            def grads(build):
                for t in (*params.values(), x):
                    t.grad = None
                with ad.Tape() as tape:
                    H, last = build()
                    loss = ad.add(ad.sum_all(ad.mul(H, weights)), ad.sum_all(last))
                tape.backward(loss)
                return {name: p.grad.copy() for name, p in params.items()}, x.grad.copy()

            fused_grads, fused_x = grads(lambda: self._fused(model, x))
            step_grads, step_x = grads(lambda: self._unroll(model, x))
        for name in params:
            np.testing.assert_allclose(fused_grads[name], step_grads[name], atol=1e-6)
        np.testing.assert_allclose(fused_x, step_x, atol=1e-6)


    def test_deferred_contributions_to_one_weight_match_inline(self, monkeypatch):
        # the unroll calls affine on the same w_ih and w_hh at every step, so
        # each weight sums several deferred gradients
        model = tiny_encoder(seed=34)
        rng = np.random.default_rng(35)
        x = Tensor(rng.normal(size=(self.LENGTHS.sum(), 5)))
        weights = Tensor(rng.normal(size=(self.LENGTHS.sum(), 6)))
        cells = (model.forward_cell, model.backward_cell)
        params = [*(p for cell in cells for p in cell), x]

        def grads(concurrent):
            monkeypatch.setattr(ad, "_use_worker", lambda: concurrent)
            for t in params:
                t.grad = None
            with ad.Tape() as tape:
                H, _ = self._unroll(model, x)
                loss = ad.sum_all(ad.mul(H, weights))
            tape.backward(loss)
            return [t.grad for t in params]

        for deferred, inline in zip(grads(True), grads(False)):
            assert np.array_equal(deferred, inline)


class TestPool:
    def _seq(self, n=4, seed=13):
        model = tiny_encoder(seed=seed)
        x = Tensor(np.random.default_rng(seed).normal(size=(n, 5)).astype(np.float32))
        return enc.bilstm(x, [n], model.forward_cell, model.backward_cell)

    def test_length_one_all_methods_agree(self):
        seq = self._seq(n=1)
        outputs = [enc.pool(seq, m).data for m in enc.POOLING_METHODS]
        for out in outputs[1:]:
            np.testing.assert_allclose(out, outputs[0], atol=1e-7)
        np.testing.assert_allclose(outputs[0], seq.H.data, atol=1e-7)

    def test_mean_times_length_equals_sum(self):
        seq = self._seq(n=5)
        mean = enc.pool(seq, "mean").data
        total = enc.pool(seq, "sum").data
        np.testing.assert_allclose(mean * 5, total, atol=1e-5)

    def test_masked_rows_match_truncation_oracle(self):
        # a sentence pooled inside a batch, beside a longer mate, equals the
        # sentence pooled alone
        model = tiny_encoder(seed=14)
        rng = np.random.default_rng(15)
        x_real = rng.normal(size=(3, 5)).astype(np.float32)
        x_mate = rng.normal(size=(4, 5)).astype(np.float32)
        seq_full = enc.bilstm(
            Tensor(np.vstack([x_real, x_mate])), [3, 4], model.forward_cell, model.backward_cell
        )
        seq_trunc = enc.bilstm(Tensor(x_real), [3], model.forward_cell, model.backward_cell)
        for method in enc.POOLING_METHODS:
            np.testing.assert_allclose(
                enc.pool(seq_full, method).data[:1],
                enc.pool(seq_trunc, method).data,
                atol=1e-6,
            )

    def test_last_concatenates_directional_finals(self):
        seq = self._seq(n=3)
        out = enc.pool(seq, "last")
        np.testing.assert_array_equal(
            out.data, np.concatenate([seq.final_forward.data, seq.final_backward.data], axis=1)
        )

    def test_unknown_method_rejected(self):
        seq = self._seq(n=2)
        with pytest.raises(ConfigError):
            enc.pool(seq, "median")


class TestInnerAttention:
    def test_zero_v_collapses_to_mean(self):
        model = tiny_encoder(seed=16)
        model.attention_v.data[:] = 0.0
        seq = self._random_seq(model, 4)
        raw = enc.pool(seq, "mean")
        refined, alpha = enc.inner_attention(seq, raw, model.attention_w, model.attention_v)
        np.testing.assert_allclose(alpha.data, np.full(4, 0.25), atol=1e-6)
        np.testing.assert_allclose(
            refined.data, ad.segment_mean(seq.H, seq.lengths).data, atol=1e-5
        )

    def test_length_one_degenerate(self):
        model = tiny_encoder(seed=17)
        seq = self._random_seq(model, 1)
        raw = enc.pool(seq, "max")
        refined, alpha = enc.inner_attention(seq, raw, model.attention_w, model.attention_v)
        np.testing.assert_allclose(alpha.data, [1.0], atol=1e-7)
        np.testing.assert_allclose(refined.data, seq.H.data, atol=1e-6)

    def test_matches_direct_formula(self):
        # oracle: score/softmax/weighted-sum evaluated directly in float64
        with ad.precision("float64"):
            model = tiny_encoder(seed=18, hidden=2)
            rng = np.random.default_rng(19)
            model.attention_w.data[:] = rng.normal(size=model.attention_w.shape)
            model.attention_v.data[:] = rng.normal(size=model.attention_v.shape)
            seq = self._random_seq(model, 3)
            raw = enc.pool(seq, "mean")
            refined, alpha = enc.inner_attention(
                seq, raw, model.attention_w, model.attention_v
            )
            H, W, v = seq.H.data, model.attention_w.data, model.attention_v.data
            u = np.array([v @ np.tanh(W @ np.concatenate([raw.data[0], H[i]])) for i in range(3)])
            e = np.exp(u - u.max())
            a = e / e.sum()
            expected = (a[:, None] * H).sum(axis=0)
        np.testing.assert_allclose(alpha.data, a, atol=1e-6)
        np.testing.assert_allclose(refined.data[0], expected, atol=1e-6)

    def test_refined_inside_convex_hull(self):
        model = tiny_encoder(seed=20)
        rng = np.random.default_rng(21)
        model.attention_v.data[:] = rng.normal(size=model.attention_v.shape)
        for n in (1, 2, 5, 9):
            seq = self._random_seq(model, n)
            raw = enc.pool(seq, "mean")
            refined, _ = enc.inner_attention(seq, raw, model.attention_w, model.attention_v)
            lo = seq.H.data.min(axis=0)
            hi = seq.H.data.max(axis=0)
            assert np.all(refined.data >= lo - 1e-6)
            assert np.all(refined.data <= hi + 1e-6)

    @staticmethod
    def _random_seq(model, n, seed=22):
        x = Tensor(
            np.random.default_rng(seed + n).normal(size=(n, 5)).astype(np.float32)
        )
        return enc.bilstm(x, [n], model.forward_cell, model.backward_cell)


class TestEncodeSentence:
    def test_purity(self):
        model = tiny_encoder(use_chars=False)
        ids = np.array([2, 3, 4])
        a = model.encode(ids, [3], "mean")
        b = model.encode(ids, [3], "mean")
        np.testing.assert_array_equal(a.refined.data, b.refined.data)
        np.testing.assert_array_equal(a.raw.data, b.raw.data)

    def test_swapping_sentences_swaps_representations(self):
        model = tiny_encoder()
        p = np.array([2, 3])
        h = np.array([4, 5, 6])
        first = (model.encode(p, [2], "mean").refined.data,
                 model.encode(h, [3], "mean").refined.data)
        swapped = (model.encode(h, [3], "mean").refined.data,
                   model.encode(p, [2], "mean").refined.data)
        np.testing.assert_array_equal(first[0], swapped[1])
        np.testing.assert_array_equal(first[1], swapped[0])

    def test_padding_neutrality_end_to_end(self):
        # no padding in the packed layout: a sentence packed before a longer
        # batch-mate is encoded as it is alone
        model = tiny_encoder(seed=23)
        ids = np.array([2, 3, 4])
        plain = model.encode(ids, [3], "mean")
        packed = model.encode(np.array([2, 3, 4, 5, 6, 7, 8, 2]), [3, 5], "mean")
        np.testing.assert_allclose(plain.raw.data, packed.raw.data[:1], atol=1e-6)
        np.testing.assert_allclose(plain.refined.data, packed.refined.data[:1], atol=1e-6)
        # one attention weight per token, each sentence's own
        assert packed.attention_weights.shape == (8,)
        np.testing.assert_allclose(
            plain.attention_weights.data, packed.attention_weights.data[:3], atol=1e-6
        )

    def test_full_scale_dimensions(self):
        rng = np.random.default_rng(24)
        with_chars = enc.EncoderConfig(use_chars=True)
        assert with_chars.rep_dim == 700
        assert with_chars.attention_dim == 1400
        without = enc.EncoderConfig(use_chars=False)
        assert without.rep_dim == 600

        emb = Tensor(rng.uniform(-0.05, 0.05, (12, 300)).astype(np.float32), requires_grad=False)
        model = enc.Encoder(with_chars, emb, n_chars=8, rng=rng)
        assert model.attention_w.shape == (1400, 1400)
        assert model.attention_v.shape == (1400,)
        rep = model.encode(np.array([2, 3]), [2], "mean", [0, 1], [1, 2, 3], [2, 1])
        assert rep.refined.shape == (1, 700)

        model_nc = enc.Encoder(without, emb, n_chars=8, rng=rng)
        rep = model_nc.encode(np.array([2, 3, 4]), [2, 1], "mean")
        assert rep.refined.shape == (2, 600)


class TestEncoderGradients:
    def test_finite_difference_flow_through_all_parameters(self):
        with ad.precision("float64"):
            model = tiny_encoder(use_chars=True, word_dim=3, hidden=2, seed=25)
            # healthy magnitudes so the finite differences resolve every weight
            rng = np.random.default_rng(26)
            trainable = {name: p for name, p in model.parameters().items() if p.requires_grad}
            for p in trainable.values():
                p.data[:] = rng.uniform(-0.6, 0.6, p.shape)
            ids = np.array([2, 3, 4])
            weights = ad.Tensor(rng.normal(size=(1, 4)))

            def loss():
                rep = model.encode(ids, [3], "mean", [0, 1, 2], [1, 2, 3, 2, 2], [2, 1, 2])
                return ad.sum_all(ad.mul(rep.refined, weights))

            errors = gc.gradient_errors(loss, trainable)
        assert errors, "no trainable parameters checked"
        for name, err in errors.items():
            assert err <= 1e-3, f"{name}: relative error {err:.3e}"

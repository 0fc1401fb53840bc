import json
import warnings

import numpy as np
import pytest

from nliattn import data
from nliattn.errors import ConfigError, DataError


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def record(label="entailment", s1="A man is walking .", s2="Someone moves .", **extra):
    base = {"gold_label": label, "sentence1": s1, "sentence2": s2}
    base.update(extra)
    return base


class TestNormalizeToken:
    def test_lowercasing(self):
        assert data.normalize_token("The") == "the"
        assert data.normalize_token("ÉCOLE") == "école"

    def test_numeric_tokens_collapse(self):
        for token in ("3", "1,200", "3.5", "-7", "+12,345.67"):
            assert data.normalize_token(token) == "<num>"

    def test_non_numeric_untouched(self):
        assert data.normalize_token("don't") == "don't"
        assert data.normalize_token("3rd") == "3rd"
        assert data.normalize_token("U.S.") == "u.s."

    def test_idempotent(self):
        for token in ("The", "1,200", "don't", "<num>", "x9"):
            once = data.normalize_token(token)
            assert data.normalize_token(once) == once


class TestTokenize:
    def test_parse_leaves(self):
        rec = {"sentence1_binary_parse": "( ( A man ) ( is ( walking ) ) )", "sentence1": "ignored"}
        assert data.tokenize(rec, "sentence1") == ["a", "man", "is", "walking"]

    def test_plain_text_fallback(self):
        assert data.tokenize({"sentence2": "Two dogs run ."}, "sentence2") == [
            "two",
            "dogs",
            "run",
            ".",
        ]

    def test_composes_with_normalization(self):
        assert data.tokenize({"sentence1": "He has 3 cats"}, "sentence1") == [
            "he",
            "has",
            "<num>",
            "cats",
        ]


class TestLoadDataset:
    def test_placeholder_label_dropped(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [record(label="-"), record(label="entailment")])
        load = data.load_dataset(path)
        assert len(load) == 1
        assert load.dropped_no_label == 1
        assert load.examples[0].label == "entailment"

    def test_three_lines_one_placeholder(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [record(), record(label="-"), record(label="contradiction")])
        load = data.load_dataset(path)
        assert len(load) == 2

    def test_fields_carried_through(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [record(genre="fiction", pairID="42-e")])
        ex = data.load_dataset(path).examples[0]
        assert ex.genre == "fiction"
        assert ex.pair_id == "42-e"
        assert ex.label_index == 0

    def test_missing_field_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        write_jsonl(path, [record(), {"gold_label": "neutral", "sentence1": "Hi"}])
        with pytest.raises(DataError, match=":2"):
            data.load_dataset(path)

    def test_unknown_label_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        write_jsonl(path, [record(label="maybe")])
        with pytest.raises(DataError, match="maybe"):
            data.load_dataset(path)

    def test_unreadable_file_raises_io_error(self, tmp_path):
        with pytest.raises(OSError):
            data.load_dataset(tmp_path / "nope.jsonl")

    def test_empty_sentence_skipped_and_counted(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [record(s2="   "), record()])
        load = data.load_dataset(path)
        assert len(load) == 1
        assert load.skipped_empty == 1


class TestMixSnli:
    def _examples(self, n, tag):
        return [
            data.NLIExample(f"{tag}{i}", "g", ["a"], ["b"], "neutral") for i in range(n)
        ]

    def test_fraction_zero(self):
        multi = self._examples(5, "m")
        assert data.mix_snli(multi, self._examples(10, "s"), 0.0) == multi

    def test_fraction_one(self):
        combined = data.mix_snli(self._examples(5, "m"), self._examples(10, "s"), 1.0)
        assert len(combined) == 15

    def test_seeded_sample_reproducible(self):
        multi = self._examples(3, "m")
        snli = self._examples(1000, "s")
        first = data.mix_snli(multi, snli, 0.15, np.random.default_rng(99))
        second = data.mix_snli(multi, snli, 0.15, np.random.default_rng(99))
        assert len(first) == 3 + 150
        assert [e.pair_id for e in first] == [e.pair_id for e in second]
        sampled = {e.pair_id for e in first[3:]}
        assert len(sampled) == 150  # without replacement


class TestVocabulary:
    def test_reserved_indices_distinct(self):
        vocab = data.Vocabulary(dim=300)
        assert len({vocab.pad, vocab.unk, vocab.num}) == 3

    def test_build_and_lookup(self):
        exs = [data.NLIExample("1", "g", ["the", "cat"], ["a", "cat"], "neutral")]
        vocab = data.Vocabulary.from_examples(exs, dim=50)
        assert vocab.lookup("cat") == vocab.lookup("cat")
        assert vocab.lookup("zebra") == vocab.unk
        assert vocab.dim == 50

    def test_round_trip(self, tmp_path):
        exs = [data.NLIExample("1", "g", ["the", "héllo", "<num>"], ["cat"], "neutral")]
        vocab = data.Vocabulary.from_examples(exs, dim=25)
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        loaded = data.Vocabulary.load(path)
        assert loaded.tokens() == vocab.tokens()
        assert loaded.dim == vocab.dim
        assert loaded.content_hash() == vocab.content_hash()
        assert (loaded.pad, loaded.unk, loaded.num) == (vocab.pad, vocab.unk, vocab.num)

    def test_char_vocab_round_trip(self, tmp_path):
        exs = [data.NLIExample("1", "g", ["abc"], ["dé"], "neutral")]
        chars = data.CharVocabulary.from_examples(exs, dim=20)
        path = tmp_path / "chars.txt"
        chars.save(path)
        loaded = data.CharVocabulary.load(path)
        assert loaded.tokens() == chars.tokens()
        assert loaded.content_hash() == chars.content_hash()
        assert loaded.lookup("é") == chars.lookup("é")
        assert loaded.lookup("°") == loaded.unk

    def test_duplicate_entry_rejected(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("#reserved pad=0 unk=1 num=2 dim=4\n<pad>\n<unk>\n<num>\ncat\ncat\ndog\n")
        with pytest.raises(DataError, match="'cat'"):
            data.Vocabulary.load(path)
        with pytest.raises(DataError, match="'a'"):
            data.CharVocabulary(3, ["<pad>", "<unk>", "a", "b", "a"])

    def test_char_vocab_unk_must_be_in_place(self, tmp_path):
        path = tmp_path / "chars.txt"
        path.write_text("#reserved pad=0 unk=1 dim=3\n<pad>\na\n<unk>\n")
        with pytest.raises(DataError, match="<unk>"):
            data.CharVocabulary.load(path)
        with pytest.raises(DataError, match="<unk>"):
            data.CharVocabulary(3, ["<pad>", "a"])

    def test_header_must_list_the_files_reserved_tokens(self, tmp_path):
        words = data.Vocabulary.from_examples(
            [data.NLIExample("1", "g", ["cat"], ["dog"], "neutral")], dim=4
        )
        path = tmp_path / "vocab.txt"
        words.save(path)
        with pytest.raises(DataError, match="header"):
            data.CharVocabulary.load(path)


class TestEmbeddings:
    def _vocab(self, dim=4):
        exs = [data.NLIExample("1", "g", ["cat", "dog"], ["bird"], "neutral")]
        return data.Vocabulary.from_examples(exs, dim=dim)

    def test_file_rows_copied_verbatim(self, tmp_path):
        vocab = self._vocab()
        path = tmp_path / "emb.txt"
        path.write_text("cat 0.25 -0.5 1.0 2.0\n")
        load = data.load_embeddings(path, vocab, np.random.default_rng(0))
        np.testing.assert_array_equal(
            load.parameter.data[vocab.lookup("cat")],
            np.array([0.25, -0.5, 1.0, 2.0], dtype=np.float32),
        )
        assert load.found == 1
        assert not load.parameter.requires_grad

    def test_out_of_file_rows_in_init_range(self, tmp_path):
        vocab = self._vocab()
        path = tmp_path / "emb.txt"
        path.write_text("cat 1 1 1 1\n")
        matrix = data.load_embeddings(path, vocab, np.random.default_rng(0)).parameter.data
        others = [i for i in range(len(vocab)) if i not in (vocab.pad, vocab.lookup("cat"))]
        for i in others:
            assert np.all(matrix[i] > -0.05) and np.all(matrix[i] < 0.05)

    def test_pad_row_zero(self, tmp_path):
        vocab = self._vocab()
        path = tmp_path / "emb.txt"
        path.write_text("cat 1 1 1 1\n")
        matrix = data.load_embeddings(path, vocab, np.random.default_rng(0)).parameter.data
        np.testing.assert_array_equal(matrix[vocab.pad], np.zeros(4, dtype=np.float32))

    def test_malformed_lines_skipped(self, tmp_path):
        vocab = self._vocab()
        path = tmp_path / "emb.txt"
        path.write_text("cat 1 1 1 1\ndog 1 2\nbird a b c d\n")
        load = data.load_embeddings(path, vocab, np.random.default_rng(0))
        assert load.found == 1
        assert load.skipped_lines == 2

    def test_only_vocabulary_lines_are_checked_and_counted(self, tmp_path):
        exs = [data.NLIExample("1", "g", ["cat", "dog"], ["eel"], "neutral")]
        vocab = data.Vocabulary.from_examples(exs, dim=3)
        path = tmp_path / "emb.vec"
        path.write_text("cat 1 2 3\ndog 1 2\neel a b c\nzzz 1 2\nyyy a b c\n")
        load = data.load_embeddings(path, vocab, np.random.default_rng(0))
        assert load.found == 1 and load.skipped_lines == 2

    def test_non_finite_lines_skipped(self, tmp_path):
        exs = [data.NLIExample("1", "g", ["cat", "dog"], ["eel"], "neutral")]
        vocab = data.Vocabulary.from_examples(exs, dim=3)
        initial = tmp_path / "none.vec"
        initial.write_text("")
        expected = data.load_embeddings(initial, vocab, np.random.default_rng(0)).parameter.data
        path = tmp_path / "emb.vec"
        path.write_text("cat nan 0 0\ndog 1e39 0 0\neel inf -inf 1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # 1e39 must not overflow into the matrix
            load = data.load_embeddings(path, vocab, np.random.default_rng(0))
        assert load.found == 0 and load.skipped_lines == 3
        assert np.isfinite(load.parameter.data).all()
        np.testing.assert_array_equal(load.parameter.data, expected)

    def test_vec_header_skipped(self, tmp_path):
        vocab = self._vocab(dim=4)
        path = tmp_path / "emb.vec"
        # fastText and word2vec end every vector line with a space
        for end in ("", " "):
            path.write_text(f"2 4\ncat 0.25 -0.5 1.0 2.0{end}\ndog 1 1 1 1{end}\n")
            load = data.load_embeddings(path, vocab, np.random.default_rng(0))
            assert load.found == 2 and load.skipped_lines == 0, repr(end)
            np.testing.assert_array_equal(
                load.parameter.data[vocab.lookup("cat")],
                np.array([0.25, -0.5, 1.0, 2.0], dtype=np.float32),
            )

    def test_vec_header_of_another_width_rejected(self, tmp_path):
        vocab = self._vocab(dim=4)
        path = tmp_path / "emb.vec"
        path.write_text("2000000 300\ncat 0.25 -0.5 1.0 2.0\n")
        with pytest.raises(ConfigError, match="300 != vocabulary dimension 4"):
            data.load_embeddings(path, vocab, np.random.default_rng(0))

    def test_wrong_width_rejected(self, tmp_path):
        vocab = self._vocab(dim=4)
        path = tmp_path / "emb.txt"
        path.write_text("cat 1 1 1\n")
        with pytest.raises(ConfigError):
            data.load_embeddings(path, vocab, np.random.default_rng(0))

    def test_random_embeddings(self):
        vocab = self._vocab(dim=8)
        param = data.random_embeddings(vocab, np.random.default_rng(1))
        assert param.data.shape == (len(vocab), 8)
        assert not param.requires_grad
        np.testing.assert_array_equal(param.data[vocab.pad], 0.0)


class TestMakeBatches:
    def _fixtures(self):
        exs = [
            data.NLIExample(str(i), "g", ["tok"] * (i + 1), ["x", "y"], "neutral")
            for i in range(5)
        ]
        vocab = data.Vocabulary.from_examples(exs, dim=4)
        chars = data.CharVocabulary.from_examples(exs, dim=20)
        return exs, vocab, chars

    def test_long_premise_dropped_in_train_only(self):
        exs, vocab, chars = self._fixtures()
        long_ex = data.NLIExample("long", "g", ["w"] * 201, ["x"], "neutral")
        batches = data.make_batches(exs + [long_ex], 16, "train", vocab, chars, 200)
        assert sum(len(b) for b in batches) == 5
        batches = data.make_batches(exs + [long_ex], 16, "dev", vocab, chars)
        assert sum(len(b) for b in batches) == 6

    def test_batch_sizes(self):
        exs, vocab, chars = self._fixtures()
        batches = data.make_batches(exs, 2, "dev", vocab, chars)
        assert [len(b) for b in batches] == [2, 2, 1]

    def test_lengths_equal_token_counts(self):
        exs, vocab, chars = self._fixtures()
        batches = data.make_batches(exs, 3, "dev", vocab, chars)
        for batch, chunk in zip(batches, (exs[:3], exs[3:])):
            counts = [len(ex.premise_tokens) for ex in chunk]
            counts += [len(ex.hypothesis_tokens) for ex in chunk]
            np.testing.assert_array_equal(batch.lengths, counts)
            assert len(batch.word_ids) == sum(counts)
            assert vocab.pad not in batch.word_ids

    def test_shuffle_is_permutation(self):
        exs, vocab, chars = self._fixtures()
        batches = data.make_batches(exs, 2, "train", vocab, chars, rng=np.random.default_rng(4))
        seen = [pid for b in batches for pid in b.pair_ids]
        assert sorted(seen) == sorted(ex.pair_id for ex in exs)

    def test_shuffle_reproducible(self):
        exs, vocab, chars = self._fixtures()
        a = data.make_batches(exs, 2, "train", vocab, chars, rng=np.random.default_rng(8))
        b = data.make_batches(exs, 2, "train", vocab, chars, rng=np.random.default_rng(8))
        assert [x.pair_ids for x in a] == [x.pair_ids for x in b]

    def test_unknown_tokens_fall_back_to_unk(self):
        exs, vocab, chars = self._fixtures()
        # a literal "<pad>" in running text is unknown too, never the PAD id
        novel = data.NLIExample("n", "g", ["zebra", "<pad>"], ["x"], "neutral")
        batch = data.make_batches([novel], 1, "dev", vocab, chars)[0]
        assert batch.word_ids[:2].tolist() == [vocab.unk, vocab.unk]

    def test_vocabulary_tokens_read_as_themselves(self):
        # the vocabulary and the batch see a token the same way, even one
        # that was never normalized: none of these reads as UNK
        ex = data.NLIExample("1", "g", ["The", "cat", "sat", "3"], ["A", "cat"], "neutral")
        vocab = data.Vocabulary.from_examples([ex], dim=4)
        chars = data.CharVocabulary.from_examples([ex], dim=2)
        batch = data.make_batches([ex], 1, "dev", vocab, chars)[0]
        assert vocab.unk not in batch.word_ids
        assert chars.unk not in batch.char_ids

    def test_char_lengths_equal_token_lengths(self):
        exs, vocab, chars = self._fixtures()
        batch = data.make_batches(exs[:2], 2, "dev", vocab, chars)[0]
        # the distinct words "tok", "x" and "y", each spelled once
        np.testing.assert_array_equal(batch.char_lengths, [3, 1, 1])
        np.testing.assert_array_equal(
            batch.char_ids, [chars.lookup(c) for c in "tokxy"]
        )
        assert len(batch.word_index) == len(batch.word_ids)

    def test_bad_batch_size(self):
        exs, vocab, chars = self._fixtures()
        with pytest.raises(ConfigError):
            data.make_batches(exs, 0, "dev", vocab, chars)


class TestPairsToBatch:
    def _vocabs(self):
        ex = data.NLIExample("0", "g", ["a", "cat"], ["dogs"], "neutral")
        return data.Vocabulary.from_examples([ex], 4), data.CharVocabulary.from_examples([ex], 2)

    def test_premise_and_hypothesis_counts_differ(self):
        with pytest.raises(DataError, match="2 premises but 1 hypotheses"):
            data.pairs_to_batch([["a"], ["cat"]], [["dogs"]], *self._vocabs())

    def test_label_count_differs(self):
        with pytest.raises(DataError, match="2 labels for 1 pairs"):
            data.pairs_to_batch([["a"]], [["cat"]], *self._vocabs(), labels=[0, 1])

    def test_pair_id_count_differs(self):
        with pytest.raises(DataError, match="1 pair ids for 2 pairs"):
            data.pairs_to_batch(
                [["a"], ["a"]], [["cat"], ["dogs"]], *self._vocabs(), pair_ids=["x"]
            )

    def test_empty_token_rejected(self):
        with pytest.raises(DataError):
            data.pairs_to_batch([["a", ""]], [["cat"]], *self._vocabs())

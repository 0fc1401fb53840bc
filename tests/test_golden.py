"""Byte-for-byte checks against files written by an earlier build.

``fixtures/golden`` holds artifacts written before the vocabulary classes
and the config keys were merged: ``vocab.txt``, ``char_vocab.txt`` and
``config.effective`` of ``nliattn train --config golden.cfg --epochs 1
--lr 0.003`` run next to copies of ``train.jsonl`` and ``dev.jsonl``, and
``tiny.ckpt``, the ``save_checkpoint`` of the untrained model that
``tiny_model`` builds.  Each must be written identically and load back.
"""

import shutil

import numpy as np

from nliattn.cli import main
from nliattn.data import CharVocabulary, Vocabulary, load_dataset, random_embeddings
from nliattn.encoder import EncoderConfig
from nliattn.model import ModelConfig, NLIModel
from nliattn.training import load_checkpoint, save_checkpoint
from conftest import FIXTURES, find_run_dir

GOLDEN = FIXTURES / "golden"


def tiny_model() -> NLIModel:
    examples = load_dataset(FIXTURES / "train.jsonl").examples
    vocab = Vocabulary.from_examples(examples, dim=5)
    chars = CharVocabulary.from_examples(examples, dim=3)
    rng = np.random.default_rng(2024)
    config = ModelConfig(
        encoder=EncoderConfig(
            use_chars=True, word_dim=5, char_dim=3, char_hidden=2, hidden_per_dir=3
        ),
        pooling="last",
        mlp_widths=(4, 4, 4),
        dropout=0.0,
    )
    return NLIModel(config, vocab, chars, random_embeddings(vocab, rng), rng)


def save_tiny(model, path) -> None:
    save_checkpoint(model, path, epoch=1, dev_accuracy=0.5, seed=2024)


class TestGoldenFiles:
    def test_cli_run_writes_golden_config_and_vocabularies(self, tmp_path, monkeypatch, capsys):
        for name in ("train.jsonl", "dev.jsonl"):
            shutil.copy(FIXTURES / name, tmp_path / name)
        shutil.copy(GOLDEN / "golden.cfg", tmp_path / "golden.cfg")
        monkeypatch.chdir(tmp_path)
        argv = ["train", "--config", "golden.cfg", "--epochs", "1", "--lr", "0.003"]
        assert main(argv) == 0
        run_dir = find_run_dir(tmp_path / "runs")
        for name in ("config.effective", "vocab.txt", "char_vocab.txt"):
            assert (run_dir / name).read_bytes() == (GOLDEN / name).read_bytes(), name

    def test_vocabularies_load_back_and_resave_identically(self, tmp_path):
        examples = load_dataset(FIXTURES / "train.jsonl").examples
        for cls, name in ((Vocabulary, "vocab.txt"), (CharVocabulary, "char_vocab.txt")):
            loaded = cls.load(GOLDEN / name)
            built = cls.from_examples(examples, dim=loaded.dim)
            assert loaded.tokens() == built.tokens()
            assert loaded.content_hash() == built.content_hash()
            loaded.save(tmp_path / name)
            assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()

    def test_checkpoint_written_identically(self, tmp_path):
        save_tiny(tiny_model(), tmp_path / "tiny.ckpt")
        assert (tmp_path / "tiny.ckpt").read_bytes() == (GOLDEN / "tiny.ckpt").read_bytes()

    def test_checkpoint_loads_back(self, tmp_path):
        built = tiny_model()
        loaded = load_checkpoint(GOLDEN / "tiny.ckpt").model
        assert loaded.config.to_dict() == built.config.to_dict()
        assert loaded.vocab.tokens() == built.vocab.tokens()
        assert loaded.char_vocab.tokens() == built.char_vocab.tokens()
        for (name, p), (other, q) in zip(
            loaded.parameters().items(), built.parameters().items()
        ):
            assert name == other
            np.testing.assert_array_equal(p.data, q.data)
        save_tiny(loaded, tmp_path / "again.ckpt")
        assert (tmp_path / "again.ckpt").read_bytes() == (GOLDEN / "tiny.ckpt").read_bytes()

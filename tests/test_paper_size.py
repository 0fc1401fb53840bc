"""Paper-size models: the worker's split GEMMs and a checkpoint round trip
change no bit.

Every other model-level test runs at tiny dimensions, where no GEMM is
large enough to split (``autodiff._SPLIT_MIN_WEIGHT``).  Here the context
BiLSTM, the attention scorer and the 2000-wide MLP split whenever the
worker runs.  The pairs have the benchmark's sentence lengths, plus one
pair of two 1-token sentences: alone, its attention GEMM at 300 units per
direction is [1200 x 600] against 2 columns.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from nliattn import autodiff as ad
from nliattn.data import CharVocabulary, NLIExample, Vocabulary, make_batches, random_embeddings
from nliattn.encoder import EncoderConfig
from nliattn.model import ModelConfig, NLIModel
from nliattn.training import load_checkpoint, save_checkpoint

from test_classifier import _large_weights

BENCH_INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
N_PAIRS = 12
N_TYPES = 300


def _bench_pairs(seed: int) -> list[NLIExample]:
    """Pairs with the sentence lengths and Zipf word draws of the benchmark."""
    spec = importlib.util.spec_from_file_location("perfbench_inputs", BENCH_INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    pairs, _, _ = inputs.paper_corpus(seed, N_PAIRS, 0, 0, N_TYPES, N_PAIRS)
    return pairs


@pytest.fixture(scope="module", params=[(True, 350), (False, 300)], ids=["chars", "words"])
def paper_model(request):
    """A paper-size model with weights of unit scale, a batch of the bench
    pairs and the 1-token pair, and that pair alone."""
    use_chars, hidden = request.param
    examples = _bench_pairs(seed=3)
    first = examples[0]
    tiny = NLIExample(
        "tiny", "fiction", first.premise_tokens[:1], first.hypothesis_tokens[:1], "neutral"
    )
    examples.append(tiny)
    vocab = Vocabulary.from_examples(examples, dim=300)
    chars = CharVocabulary.from_examples(examples, dim=20)
    rng = np.random.default_rng(4)
    config = ModelConfig(
        encoder=EncoderConfig(
            use_chars=use_chars, word_dim=300, char_dim=20, char_hidden=50, hidden_per_dir=hidden
        ),
        pooling="mean",
        mlp_widths=(2000, 2000, 2000),
    )
    model = NLIModel(config, vocab, chars, random_embeddings(vocab, rng), rng)
    _large_weights(model, seed=5)
    batch = make_batches(examples, len(examples), "dev", vocab, chars)[0]
    alone = make_batches([tiny], 1, "dev", vocab, chars)[0]
    return model, batch, alone


def _outputs(model, batch, alone):
    """Batch logits, the 1-token pair's logits alone, and every trainable
    gradient of a dropout-on batch loss."""
    logits = model.batch_logits(batch).data
    alone_logits = model.batch_logits(alone).data
    params = model.parameters()
    with ad.Tape() as tape:
        loss = model.batch_loss(batch, training=True, rng=np.random.default_rng(6))
    tape.backward(loss)
    grads = {name: p.grad for name, p in params.items() if p.requires_grad}
    for p in params.values():
        p.grad = None
    return logits, alone_logits, grads


@pytest.fixture(scope="module")
def serial_outputs(paper_model):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ad, "_use_worker", lambda: False)
        return _outputs(*paper_model)


def test_logits_and_gradients_bit_identical_with_and_without_the_worker(
    paper_model, serial_outputs, worker
):
    logits, alone_logits, grads = _outputs(*paper_model)
    ref_logits, ref_alone, ref_grads = serial_outputs
    assert logits.dtype == alone_logits.dtype == np.float32
    np.testing.assert_array_equal(logits, ref_logits)
    np.testing.assert_array_equal(alone_logits, ref_alone)
    assert list(grads) == list(ref_grads)
    for name, grad in grads.items():
        assert grad.dtype == np.float32, name
        np.testing.assert_array_equal(grad, ref_grads[name], err_msg=name)


def test_checkpoint_round_trip_bit_exact(paper_model, tmp_path, worker):
    model = paper_model[0]
    path = tmp_path / "paper.ckpt"
    save_checkpoint(model, path, epoch=1)
    save_checkpoint(model, path, epoch=2)  # the second save writes into the standby
    loaded = load_checkpoint(path)
    assert loaded.manifest["epoch"] == 2
    params = model.parameters()
    for name, p in loaded.model.parameters().items():
        np.testing.assert_array_equal(p.data, params[name].data, err_msg=name)

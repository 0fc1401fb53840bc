"""Paper-size models: the worker's split GEMMs and initial draws, the
optimizer's split step and a checkpoint round trip change no bit; a pair's
prediction depends neither on its place in a batch nor on the code path.

Every other model-level test runs at tiny dimensions, where no weight is
large enough to split (``autodiff._SPLIT_MIN_WEIGHT``).  Here the context
BiLSTM, the attention scorer and the 2000-wide MLP split, on the worker
when it runs and in turn when not, and so do the initial draws of every
weight above that floor.  The pairs have the benchmark's sentence
lengths, plus one pair of two 1-token sentences: alone, its attention
GEMM at 300 units per direction is [1200 x 600] against 2 columns, split
as a batch's is.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from nliattn import autodiff as ad
from nliattn import evaluation
from nliattn.classifier import N_CLASSES, aggregate, classify, softmax
from nliattn.data import (
    EMBEDDING_SCALE,
    CharVocabulary,
    NLIExample,
    Vocabulary,
    make_batches,
    random_embeddings,
)
from nliattn.encoder import EncoderConfig
from nliattn.model import ModelConfig, NLIModel
from nliattn.training import RMSProp, load_checkpoint, save_checkpoint

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
def paper_setup(request):
    """The config of a workload (chars on at 350 per direction, or off at
    300), the vocabularies of the bench pairs, the pairs, and the 1-token
    pair."""
    use_chars, hidden = request.param
    examples = _bench_pairs(seed=3)
    first = examples[0]
    tiny = NLIExample(
        "tiny", "fiction", first.premise_tokens[:1], first.hypothesis_tokens[:1], "neutral"
    )
    examples.append(tiny)
    vocab = Vocabulary.from_examples(examples, dim=300)
    chars = CharVocabulary.from_examples(examples, dim=20)
    config = ModelConfig(
        encoder=EncoderConfig(
            use_chars=use_chars, word_dim=300, char_dim=20, char_hidden=50, hidden_per_dir=hidden
        ),
        pooling="mean",
        mlp_widths=(2000, 2000, 2000),
    )
    return config, vocab, chars, examples, tiny


def _built(config, vocab, chars, seed):
    """A model built as the benchmark builds one, and its generator."""
    rng = np.random.default_rng(seed)
    return NLIModel(config, vocab, chars, random_embeddings(vocab, rng), rng), rng


@pytest.fixture(scope="module")
def paper_model(paper_setup):
    """A paper-size model with weights of unit scale, a batch of the bench
    pairs and the 1-token pair, and that pair alone."""
    config, vocab, chars, examples, tiny = paper_setup
    model, _ = _built(config, vocab, chars, seed=4)
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


def test_every_backward_rule_hands_back_arrays_none_or_factors(paper_model, worker):
    """The walk meets no gradient it has to wait for: whatever a rule
    hands to the worker, it has back before it returns.  The 1-token pair
    runs every rule of the batch, the worker's included, at little cost."""
    model, _, alone = paper_model
    with ad.Tape() as tape:
        loss = model.batch_loss(alone, training=True, rng=np.random.default_rng(6))
    kinds = set()

    def checked(rule):
        def run(g):
            grads = tuple(rule(g))
            kinds.update(type(grad) for grad in grads)
            return grads

        return run

    tape._records = [(out, inputs, checked(rule)) for out, inputs, rule in tape._records]
    tape.backward(loss)
    for p in model.parameters().values():
        p.grad = None
    assert kinds <= {np.ndarray, type(None), ad._Factored}, kinds
    assert {np.ndarray, ad._Factored} <= kinds


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


def _replayed(config, vocab, chars, seed):
    """Every parameter a build from ``default_rng(seed)`` should hold, drawn
    as whole-size ``rng.uniform`` calls in the order of the constructors,
    each cast by ``Tensor``; and the generator's state after the last draw."""
    rng = np.random.default_rng(seed)
    enc = config.encoder
    words = rng.uniform(-EMBEDDING_SCALE, EMBEDDING_SCALE, (len(vocab), vocab.dim))
    words = words.astype(np.float32)
    words[vocab.pad] = 0.0
    params = {"word_embeddings": words}

    def uniform(bound, shape):
        return rng.uniform(-bound, bound, shape)

    def cell(prefix, input_dim, hidden):
        bound = 1.0 / math.sqrt(hidden)
        params[f"{prefix}.w_ih"] = uniform(bound, (4 * hidden, input_dim))
        params[f"{prefix}.w_hh"] = uniform(bound, (4 * hidden, hidden))
        params[f"{prefix}.bias"] = np.zeros(4 * hidden)
        params[f"{prefix}.bias"][hidden : 2 * hidden] = 1.0

    if enc.use_chars:
        params["char_embeddings"] = uniform(0.05, (len(chars), enc.char_dim))
        params["char_embeddings"][0] = 0.0
        cell("char_lstm", enc.char_dim, enc.char_hidden)
    cell("context_forward", enc.input_dim, enc.context_hidden)
    cell("context_backward", enc.input_dim, enc.context_hidden)
    params["attention.w"] = uniform(0.005, (enc.attention_dim, enc.attention_dim))
    params["attention.v"] = uniform(0.005, enc.attention_dim)
    fan_in = 4 * enc.rep_dim
    for i, width in enumerate((*config.mlp_widths, N_CLASSES)):
        params[f"mlp.{i}.w"] = uniform(1.0 / math.sqrt(fan_in), (width, fan_in))
        params[f"mlp.{i}.b"] = np.zeros(width)
        fan_in = width
    return {name: ad.Tensor(p).data for name, p in params.items()}, rng.bit_generator.state


@pytest.fixture(scope="module")
def replayed(paper_setup):
    """``_replayed`` from seed 8, by dtype: drawn at float64, then cast.
    ``Tensor`` casts a draw once in either mode, and the word vectors are
    float32 values in both, so a float32 build holds the cast values."""
    config, vocab, chars, _, _ = paper_setup
    with ad.precision("float64"):
        params, state = _replayed(config, vocab, chars, seed=8)
    float32 = {name: p.astype(np.float32) for name, p in params.items()}
    return {np.float64: params, np.float32: float32}, state


def _check_build(model, rng, replayed):
    """The built model holds the replayed values at its dtype, and its
    generator is where the replay's is."""
    expected, state = replayed[0][ad.default_dtype()], replayed[1]
    params = model.parameters()
    assert list(params) == list(expected)
    for name, p in params.items():
        assert p.data.dtype == expected[name].dtype, name
        assert np.array_equal(p.data, expected[name]), name
    assert rng.bit_generator.state == state


def test_build_draws_the_whole_size_uniform_stream(paper_setup, replayed, worker):
    _check_build(*_built(*paper_setup[:3], seed=8), replayed)


def _after_steps(model, examples, worker: bool):
    """Every parameter after three RMSProp steps on a dropout-on batch of
    two pairs, with the worker on or off; the model's own values are put
    back."""
    params = model.parameters()
    saved = {name: p.data.copy() for name, p in params.items()}
    batch = make_batches(examples[:2], 2, "dev", model.vocab, model.char_vocab)[0]
    optimizer = RMSProp(params, learning_rate=1e-3)
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ad, "_use_worker", lambda: worker)
            for step in range(3):
                with ad.Tape() as tape:
                    loss = model.batch_loss(batch, training=True, rng=np.random.default_rng(step))
                tape.backward(loss)
                optimizer.step()
                optimizer.zero_grads()
        return {name: p.data.copy() for name, p in params.items()}
    finally:
        for name, p in params.items():
            p.data[...] = saved[name]


@pytest.mark.parametrize("paper_setup", [(True, 350)], ids=["chars"], indirect=True)
def test_rmsprop_steps_bit_identical_with_and_without_the_worker(paper_setup, paper_model):
    model, examples = paper_model[0], paper_setup[3]
    serial = _after_steps(model, examples, worker=False)
    stepped = _after_steps(model, examples, worker=True)
    assert list(stepped) == list(serial)
    params = model.parameters()
    for name, value in stepped.items():
        assert np.array_equal(value, params[name].data) != params[name].requires_grad, name
        assert np.array_equal(value, serial[name]), name


def test_float64_build_and_logits_with_and_without_the_worker(
    paper_setup, replayed, monkeypatch
):
    config, vocab, chars, examples, _ = paper_setup
    monkeypatch.setattr(ad, "_use_worker", lambda: True)
    with ad.precision("float64"):
        model, rng = _built(config, vocab, chars, seed=8)
        _check_build(model, rng, replayed)
        _large_weights(model, seed=10)
        pairs = [*examples[:4], examples[-1]]  # and the 1-token pair
        batch = make_batches(pairs, len(pairs), "dev", vocab, chars)[0]
        logits = {}
        for on in (True, False):
            monkeypatch.setattr(ad, "_use_worker", lambda: on)
            logits[on] = model.batch_logits(batch).data
    assert logits[True].dtype == np.float64
    np.testing.assert_array_equal(logits[True], logits[False])


@pytest.fixture(scope="module")
def float64_model(paper_setup):
    """A float64 paper-size model with weights of unit scale, and four bench
    pairs with the 1-token pair."""
    config, vocab, chars, examples, _ = paper_setup
    with ad.precision("float64"):
        model, _ = _built(config, vocab, chars, seed=11)
        _large_weights(model, seed=12)
    return model, [*examples[:4], examples[-1]]


def test_float64_pair_alone_matches_its_row_at_every_position(float64_model):
    model, pairs = float64_model
    vocab, chars = model.vocab, model.char_vocab
    with ad.precision("float64"):
        alone = {
            ex.pair_id: model.batch_logits(make_batches([ex], 1, "dev", vocab, chars)[0]).data[0]
            for ex in pairs
        }
        for shift in range(len(pairs)):  # every pair at every position once
            batch = make_batches(pairs[shift:] + pairs[:shift], len(pairs), "dev", vocab, chars)[0]
            for pair_id, row in zip(batch.pair_ids, model.batch_logits(batch).data):
                gap = np.abs(row - alone[pair_id]).max()
                assert gap <= 1e-6, (pair_id, shift, gap)


def _exported_distributions(model, path) -> np.ndarray:
    """The class distributions of the representations an export wrote,
    pair by pair in file order, through the model's own MLP."""
    rows = [line.split("\t") for line in path.read_text().splitlines()]
    vectors = np.array([[float(v) for v in row[2:]] for row in rows])
    assert [row[1] for row in rows] == ["premise", "hypothesis"] * (len(rows) // 2)
    r = aggregate(ad.Tensor(vectors[0::2]), ad.Tensor(vectors[1::2]))
    return softmax(classify(r, model.mlp).data)


def test_predict_eval_export_and_ensemble_give_one_distribution(
    float64_model, tmp_path, monkeypatch
):
    model, pairs = float64_model
    reported = []  # the probabilities each report is made from
    report = evaluation._report
    monkeypatch.setattr(
        evaluation, "_report", lambda probs, *args: reported.append(probs) or report(probs, *args)
    )
    # the output layer scaled down: logits of a few units, where the
    # distributions are far from one-hot and show any gap between the paths
    w, b = model.mlp.layers[-1]
    saved = w.data.copy(), b.data.copy()
    w.data *= 1e-3
    b.data *= 1e-3
    try:
        with ad.precision("float64"):
            predicted = np.array(
                [model.predict_tokens(ex.premise_tokens, ex.hypothesis_tokens).probs for ex in pairs]
            )
            evaluation.evaluate(model, pairs, batch_size=len(pairs))
            evaluation.ensemble_reports([model, model], pairs, batch_size=len(pairs))
            evaluation.export_representations(model, pairs, tmp_path / "reps.tsv")
            exported = _exported_distributions(model, tmp_path / "reps.tsv")
    finally:
        w.data[...], b.data[...] = saved
    evaluated, *members, ensembled = reported
    assert predicted.min() > 1e-3  # no distribution is near one-hot
    np.testing.assert_array_equal(ensembled, evaluated)  # the members agree: no averaging
    for probs in (evaluated, *members, exported):
        np.testing.assert_allclose(probs, predicted, rtol=0, atol=1e-6)

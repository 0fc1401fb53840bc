import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nliattn import evaluation as ev
from nliattn import synth
from nliattn.classifier import PredictionDistribution
from nliattn.data import CharVocabulary, Vocabulary, random_embeddings
from nliattn.encoder import EncoderConfig
from nliattn.errors import ConfigError, DataError, InvalidInputError
from nliattn.model import ModelConfig, NLIModel
from nliattn.training import TrainConfig


def tiny_model(examples, seed=0, use_chars=False, hidden=3, word_dim=4):
    vocab = Vocabulary.from_examples(examples, dim=word_dim)
    chars = CharVocabulary.from_examples(examples, dim=2)
    rng = np.random.default_rng(seed)
    config = ModelConfig(
        encoder=EncoderConfig(
            use_chars=use_chars, word_dim=word_dim, char_dim=2, char_hidden=2,
            hidden_per_dir=hidden,
        ),
        pooling="mean",
        mlp_widths=(6, 6, 6),
        dropout=0.0,
    )
    return NLIModel(config, vocab, chars, random_embeddings(vocab, rng), rng)


class OracleStub:
    """Duck-typed stand-in that predicts every gold label by construction."""

    def __init__(self, examples):
        self.vocab = Vocabulary.from_examples(examples, dim=4)
        self.char_vocab = CharVocabulary.from_examples(examples, dim=20)
        self.vocab_hash = self.vocab.content_hash()
        self.char_vocab_hash = self.char_vocab.content_hash()

    def predict_batch(self, batch):
        out = []
        for label in batch.labels:
            probs = np.full(3, 0.05)
            probs[int(label)] = 0.9
            out.append(PredictionDistribution(probs=probs, predicted_class=int(label)))
        return out


class TestEvaluate:
    def test_oracle_stub_scores_perfectly(self):
        examples = synth.synthetic_examples(12, seed=0)
        report = ev.evaluate(OracleStub(examples), examples)
        assert report.overall_accuracy == 1.0
        assert report.total == 12
        np.testing.assert_array_equal(np.diag(report.confusion), [4, 4, 4])

    def test_single_genre_matches_overall(self):
        examples = synth.synthetic_examples(9, seed=1, genres=("travel",))
        model = tiny_model(examples, seed=2)
        report = ev.evaluate(model, examples)
        assert list(report.per_genre) == ["travel"]
        assert report.genre_accuracy("travel") == report.overall_accuracy

    def test_report_layout(self):
        examples = synth.synthetic_examples(30, seed=3)
        report = ev.evaluate(OracleStub(examples), examples)
        text = report.format()
        assert "MultiNLI Overall" in text
        # genre rows appear in the fixed presentation order
        positions = [text.find(name) for name in ("Fiction", "Government", "Slate")]
        assert all(p >= 0 for p in positions) and positions == sorted(positions)

    def test_confusion_consistency(self):
        examples = synth.synthetic_examples(15, seed=4)
        model = tiny_model(examples, seed=5)
        report = ev.evaluate(model, examples)
        assert report.confusion.sum() == len(examples)
        assert report.correct == np.trace(report.confusion)
        genre_total = sum(t for _, t in report.per_genre.values())
        assert genre_total == report.total

    def test_empty_dataset_rejected(self):
        examples = synth.synthetic_examples(3, seed=6)
        model = tiny_model(examples)
        with pytest.raises(InvalidInputError):
            ev.evaluate(model, [])


class TestConfidenceInterval:
    def test_identical_runs_zero_width(self):
        mean, half = ev.confidence_interval([0.7, 0.7, 0.7])
        assert mean == pytest.approx(0.7)
        assert half == 0.0

    def test_two_run_closed_form(self):
        mean, half = ev.confidence_interval([70.0, 72.0])
        assert mean == pytest.approx(71.0)
        assert half == pytest.approx(12.706204736, rel=1e-8)

    def test_matches_independent_t_table(self):
        # oracle: published two-sided 95% t quantile for 9 degrees of freedom
        rng = np.random.default_rng(7)
        runs = rng.uniform(0.6, 0.8, size=10)
        mean, half = ev.confidence_interval(runs)
        t_9 = 2.262157163
        expected = t_9 * np.std(runs, ddof=1) / np.sqrt(10)
        assert mean == pytest.approx(runs.mean(), abs=1e-12)
        assert half == pytest.approx(expected, abs=1e-6)

    def test_single_run_rejected(self):
        with pytest.raises(InvalidInputError):
            ev.confidence_interval([0.5])

    def test_importing_the_package_leaves_scipy_unloaded(self):
        # scipy serves only the interval above; the package must not pay
        # its import time and memory on every start
        src = str(Path(ev.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        result = subprocess.run(
            [sys.executable, "-c", "import sys, nliattn; print('scipy' in sys.modules)"],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"


class FixedModel:
    """Stub giving every pair one fixed distribution, or the one
    ``per_pair`` holds for the pair's id."""

    vocab = Vocabulary(dim=2)
    char_vocab = CharVocabulary(dim=2)

    def __init__(self, probs, vocab_hash="h", char_vocab_hash="c", per_pair=None):
        self.probs = np.asarray(probs, dtype=np.float64)
        self.per_pair = per_pair or {}
        self.vocab_hash = vocab_hash
        self.char_vocab_hash = char_vocab_hash

    def predict_batch(self, batch):
        out = []
        for pair_id in batch.pair_ids:
            probs = np.array(self.per_pair.get(pair_id, self.probs), dtype=np.float64)
            out.append(PredictionDistribution(probs=probs, predicted_class=int(np.argmax(probs))))
        return out


class TestEnsemble:
    def _examples(self, n=1):
        return synth.synthetic_examples(n, seed=8)

    def test_identical_members_reproduce_single_model_exactly(self, reported_probs):
        member = FixedModel([0.61, 0.29, 0.1])
        ev.ensemble_evaluate([member, member, member], self._examples(3))
        np.testing.assert_array_equal(reported_probs[-1], [member.probs] * 3)

    def test_hand_forced_average_with_tie_break(self, reported_probs):
        models = [FixedModel([0.6, 0.3, 0.1]), FixedModel([0.2, 0.5, 0.3])]
        [example] = self._examples()
        report = ev.ensemble_evaluate(models, [example])
        np.testing.assert_allclose(reported_probs[-1], [[0.4, 0.4, 0.2]], atol=1e-12)
        assert report.confusion[example.label_index, 0] == 1  # lowest index wins the tie

    def test_average_is_distribution(self, reported_probs):
        rng = np.random.default_rng(9)
        for _ in range(25):
            raw = rng.random((3, 3)) + 1e-3
            models = [FixedModel(row / row.sum()) for row in raw]
            ev.ensemble_evaluate(models, self._examples())
            assert reported_probs[-1].sum() == pytest.approx(1.0, abs=1e-6)

    def test_agreeing_pair_keeps_member_row_exactly(self, reported_probs):
        agreed = np.array([0.1, 0.2, 0.7])
        # the mean of three copies is not the row itself in floating point
        assert not np.array_equal(np.mean([agreed] * 3, axis=0), agreed)
        examples = self._examples(2)
        other = examples[1].pair_id
        rows = [[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.3, 0.3, 0.4]]
        models = [FixedModel(agreed, per_pair={other: row}) for row in rows]
        ev.ensemble_evaluate(models, examples)
        combined = reported_probs[-1]  # the members' reports come first
        np.testing.assert_array_equal(combined[0], agreed)
        np.testing.assert_array_equal(combined[1], np.mean(rows, axis=0))

    def test_vocab_mismatch_rejected(self):
        models = [FixedModel([1, 0, 0]), FixedModel([1, 0, 0], vocab_hash="other")]
        with pytest.raises(ConfigError):
            ev.ensemble_evaluate(models, self._examples())

    def test_ensemble_evaluate_single_model_equals_evaluate(self):
        examples = synth.synthetic_examples(9, seed=10)
        model = tiny_model(examples, seed=11)
        alone = ev.evaluate(model, examples)
        combined = ev.ensemble_evaluate([model], examples)
        assert combined.overall_accuracy == alone.overall_accuracy
        np.testing.assert_array_equal(combined.confusion, alone.confusion)


class TestExport:
    def test_record_count_and_width(self, tmp_path):
        examples = synth.synthetic_examples(5, seed=12)
        model = tiny_model(examples, seed=13)
        path = tmp_path / "reps.tsv"
        written = ev.export_representations(model, examples, path)
        lines = path.read_text().strip().splitlines()
        assert written == len(lines) == 2 * len(examples)
        for line in lines:
            fields = line.split("\t")
            assert fields[1] in ("premise", "hypothesis")
            assert len(fields) == 2 + model.config.encoder.rep_dim

    def test_re_export_byte_identical(self, tmp_path):
        examples = synth.synthetic_examples(4, seed=14)
        model = tiny_model(examples, seed=15)
        first = tmp_path / "a.tsv"
        second = tmp_path / "b.tsv"
        ev.export_representations(model, examples, first)
        ev.export_representations(model, examples, second)
        assert first.read_bytes() == second.read_bytes()

    def test_failure_leaves_no_partial_file(self, tmp_path):
        examples = synth.synthetic_examples(3, seed=16)
        model = tiny_model(examples, seed=17)
        target = tmp_path / "out.tsv"

        broken = examples[:2] + [
            synth.synthetic_examples(1, seed=18)[0].__class__(
                "bad", "g", [], [], "neutral"
            )
        ]
        with pytest.raises(Exception):
            ev.export_representations(model, broken, target)
        assert not target.exists()
        assert not (tmp_path / "out.tsv.tmp").exists()


class TestSweep:
    def _sweep(self, jobs=1):
        train_examples = synth.synthetic_examples(12, seed=19)
        dev_examples = synth.synthetic_examples(6, seed=20)
        base = ModelConfig(
            encoder=EncoderConfig(
                use_chars=False, word_dim=4, char_dim=2, char_hidden=2, hidden_per_dir=2
            ),
            pooling="mean",
            mlp_widths=(4, 4, 4),
            dropout=0.0,
        )
        config = TrainConfig(learning_rate=0.002, batch_size=6, max_epochs=1, seed=0)
        return ev.pooling_sweep(
            train_examples, dev_examples, base, config, seeds=[0, 1], jobs=jobs
        )

    def test_grid_has_eight_cells(self):
        runs, summary = self._sweep()
        assert len(summary.cells) == 8
        assert len(runs) == 16
        assert {(m, c) for m, c in summary.cells} == {
            (m, c) for m in ("mean", "sum", "last", "max") for c in (False, True)
        }

    def test_statistics_match_independent_recomputation(self):
        runs, summary = self._sweep()
        t_1 = 12.706204736  # two-sided 95% quantile at 1 df
        for cell in summary.cells.values():
            values = np.array(cell.accuracies)
            assert cell.mean == pytest.approx(values.mean(), abs=1e-9)
            expected_half = t_1 * values.std(ddof=1) / np.sqrt(2)
            assert cell.half_width == pytest.approx(expected_half, abs=1e-6)
            assert cell.best == max(cell.accuracies)
            assert cell.best >= cell.mean

    def test_records_round_trip_and_resummarize(self, tmp_path):
        runs, summary = self._sweep()
        path = tmp_path / "runs.log"
        ev.write_sweep_records(runs, path)
        reread = ev.read_sweep_records(path)
        resummary = ev.summarize_runs(reread)
        for key, cell in summary.cells.items():
            assert resummary.cells[key].mean == pytest.approx(cell.mean, abs=1e-6)
            assert resummary.cells[key].half_width == pytest.approx(cell.half_width, abs=1e-6)
            assert resummary.cells[key].best == pytest.approx(cell.best, abs=1e-6)

    def test_summary_tables_render(self):
        _, summary = self._sweep()
        mean_table = summary.format_mean_table()
        best_table = summary.format_best_table()
        for method in ("mean", "sum", "last", "max"):
            assert method in mean_table and method in best_table
        assert "+-" in mean_table

    def test_parallel_jobs_reproduce_sequential_results(self):
        sequential_runs, _ = self._sweep(jobs=1)
        parallel_runs, _ = self._sweep(jobs=2)
        as_key = lambda runs: sorted(
            (r.method, r.use_chars, r.seed, r.best_dev_accuracy) for r in runs
        )
        assert as_key(sequential_runs) == as_key(parallel_runs)

    def test_runs_per_cell_floor(self):
        examples = synth.synthetic_examples(6, seed=21)
        base = ModelConfig(
            encoder=EncoderConfig(
                use_chars=False, word_dim=4, char_dim=2, char_hidden=2, hidden_per_dir=2
            ),
            mlp_widths=(4, 4, 4),
        )
        with pytest.raises(ConfigError):
            ev.pooling_sweep(
                examples, examples, base, TrainConfig(max_epochs=1), seeds=[0]
            )

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_floor(self, jobs):
        examples = synth.synthetic_examples(6, seed=21)
        with pytest.raises(ConfigError, match="jobs"):
            ev.pooling_sweep(examples, examples, ModelConfig(), TrainConfig(), [0, 1], jobs=jobs)

    @pytest.mark.parametrize(
        "bad,reason",
        [
            ("method=mean chars=false seed=7", "best_dev_accuracy"),
            ("method=mean chars=false seed=x best_dev_accuracy=0.5", "malformed number"),
            ("method=mean chars=false seed=7 best_dev_accuracy", "no '='"),
            ("method=mean chars=yes seed=7 best_dev_accuracy=0.5", "chars"),
        ],
    )
    def test_malformed_record_names_file_and_line(self, tmp_path, bad, reason):
        good = ev.SweepRun("sum", True, 3, 0.25).format()
        path = tmp_path / "sweep_runs.log"
        path.write_text(f"{good}\n\n{bad}\n{good}\n", encoding="utf-8")
        with pytest.raises(DataError, match=reason) as caught:
            ev.read_sweep_records(path)
        assert f"{path}, line 3:" in str(caught.value)

import inspect
import io
import json
import struct
from dataclasses import fields

import numpy as np
import pytest

from nliattn import autodiff as ad
from nliattn import cli, evaluation, gradcheck, training
from nliattn.cli import CONFIG_ENV_VAR, main
from nliattn.data import load_dataset
from nliattn.errors import InvalidInputError
from nliattn.encoder import EncoderConfig
from nliattn.model import ModelConfig, NLIModel
from nliattn.training import TrainConfig
from conftest import FIXTURES, find_run_dir, write_tiny_config


class TestConfigHandling:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        for key in ("wat", "dev_mismatched_file"):
            config.write_text(f"train_file=x\n{key}=1\n")
            assert main(["train", "--config", str(config)]) == 1
            assert key in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert main(["train", "--config", "/nonexistent/nli.cfg"]) == 1
        assert "nli.cfg" in capsys.readouterr().err

    def test_missing_required_paths(self, tmp_path, capsys):
        config = tmp_path / "c.cfg"
        config.write_text("out_dir=" + str(tmp_path) + "\n")
        assert main(["train", "--config", str(config)]) == 1

    def test_missing_embeddings_file_names_it(self, tmp_path, capsys):
        config = write_tiny_config(tmp_path, embeddings_file=tmp_path / "ghost.txt")
        code = main(["train", "--config", str(config)])
        assert code == 1
        assert "ghost.txt" in capsys.readouterr().err

    def test_env_var_supplies_default_config(self, tmp_path, capsys, monkeypatch):
        config = write_tiny_config(tmp_path)
        monkeypatch.setenv(CONFIG_ENV_VAR, str(config))
        assert main(["train"]) == 0
        assert "effective seed: 7" in capsys.readouterr().out

    def test_usage_error_exit_code(self, capsys):
        assert main(["definitely-not-a-command"]) == 1

    def test_known_keys_pinned(self):
        # a new key must be added here on purpose
        assert cli.KNOWN_KEYS == {
            "train_file", "dev_file", "snli_file", "embeddings_file", "out_dir",
            "snli_fraction", "embedding_scale",
            "use_chars", "word_dim", "char_dim", "char_hidden", "hidden_per_dir",
            "pooling", "mlp_widths", "dropout",
            "learning_rate", "batch_size", "max_epochs", "seed", "max_premise_len",
        }

    def test_cli_only_defaults_follow_the_data_constants(self):
        # the command line and the functions that take these values share
        # one default each, so changing it in data.py moves them all
        from nliattn import data, evaluation

        defaults = {f.name: f.default for f in fields(cli.RunConfig)}
        assert defaults["snli_fraction"] == data.SNLI_FRACTION == 0.15
        assert defaults["embedding_scale"] == data.EMBEDDING_SCALE == 0.05
        for function, name, constant in [
            (data.mix_snli, "fraction", data.SNLI_FRACTION),
            (data.random_embeddings, "scale", data.EMBEDDING_SCALE),
            (data._init_embedding_matrix, "scale", data.EMBEDDING_SCALE),
            (evaluation.pooling_sweep, "embedding_scale", data.EMBEDDING_SCALE),
        ]:
            assert inspect.signature(function).parameters[name].default == constant

    @pytest.mark.parametrize(
        "key,value",
        [
            ("learning_rate", "abc"),
            ("learning_rate", "nan"),
            ("use_chars", "maybe"),
            ("pooling", "median"),
            ("dropout", "1.5"),
            ("hidden_per_dir", "0"),
            ("mlp_widths", "8,x"),
            ("seed", "-1"),
            ("snli_fraction", "2"),
        ],
    )
    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_malformed_value_exits_1_before_run_dir(self, tmp_path, capsys, key, value, command):
        config = write_tiny_config(tmp_path, **{key: value})
        assert main([command, "--config", str(config)]) == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_malformed_flag_exits_1_before_run_dir(self, tmp_path, capsys):
        config = write_tiny_config(tmp_path)
        assert main(["train", "--config", str(config), "--lr", "-1"]) == 1
        assert "learning_rate" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_sweep_runs_per_cell_below_two_exits_1_before_run_dir(self, tmp_path, capsys):
        config = write_tiny_config(tmp_path)
        assert main(["sweep", "--config", str(config), "--runs-per-cell", "1"]) == 1
        assert "runs_per_cell" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_sweep_jobs_below_one_exits_1_before_run_dir(self, tmp_path, capsys, jobs):
        config = write_tiny_config(tmp_path)
        assert main(["sweep", "--config", str(config), "--jobs", jobs]) == 1
        assert "jobs" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()


class TestTrain:
    def test_fixture_corpus_trains_and_writes_artifacts(self, trained_run):
        run_dir = trained_run["run_dir"]
        for name in ("best.ckpt", "vocab.txt", "char_vocab.txt", "train.log", "config.effective"):
            assert (run_dir / name).exists(), name
        log_lines = (run_dir / "train.log").read_text().strip().splitlines()
        assert len(log_lines) == 2  # one record per epoch
        assert not list(run_dir.glob("*.standby"))  # the run saves no more

    def test_standby_removed_once_training_returns(self, tmp_path, monkeypatch):
        standbys = []

        def train_saving_twice(model, *args, checkpoint_path, **kwargs):
            result = training.train(model, *args, checkpoint_path=checkpoint_path, **kwargs)
            training.save_checkpoint(model, checkpoint_path, epoch=result.best_epoch)
            standbys.extend(checkpoint_path.parent.glob("*.standby"))
            return result

        monkeypatch.setattr(cli, "train", train_saving_twice)
        config = write_tiny_config(tmp_path, max_epochs=1)
        assert main(["train", "--config", str(config)]) == 0
        run_dir = find_run_dir(tmp_path / "runs")
        assert [p.name for p in standbys] == ["best.ckpt.standby"]
        assert (run_dir / "best.ckpt").exists()
        assert not list(run_dir.glob("*.standby"))

    def test_standby_removed_when_training_raises(self, tmp_path, monkeypatch):
        # dev accuracy rises in epochs 1 and 2, so each saves; epoch 3 raises
        accuracies = iter([0.25, 0.5])

        def dev_accuracy(*args):
            accuracy = next(accuracies, None)
            if accuracy is None:
                raise InvalidInputError("dev set unreadable in epoch 3")
            return accuracy

        monkeypatch.setattr(training, "_dev_accuracy", dev_accuracy)
        config = write_tiny_config(tmp_path, max_epochs=3)
        assert main(["train", "--config", str(config)]) == 2
        run_dir = find_run_dir(tmp_path / "runs")
        payload = json.loads((run_dir / "error.json").read_text())
        assert payload["error"] == "InvalidInputError"
        assert (run_dir / "best.ckpt").exists()
        assert not list(run_dir.glob("*.standby"))

    def test_snli_mixing(self, tmp_path, capsys):
        from nliattn import synth
        import numpy as np

        snli = tmp_path / "snli.jsonl"
        records = synth.synthetic_records(20, np.random.default_rng(77))
        for r in records:
            del r["genre"]  # that corpus carries no genre field
        synth.write_jsonl(records, snli)
        config = write_tiny_config(tmp_path, snli_file=snli, snli_fraction=0.5, max_epochs=1)
        assert main(["train", "--config", str(config)]) == 0
        assert "mixed in 10 extra pairs" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_failure_after_run_dir_writes_error_log(self, tmp_path, capsys, command):
        if command == "train":
            bad_emb = tmp_path / "emb.txt"
            bad_emb.write_text("cat 1.0 2.0\n")  # width 2 != word_dim 12
            config = write_tiny_config(tmp_path, embeddings_file=bad_emb)
            code, error = 1, "ConfigError"
        else:
            bad_dev = tmp_path / "dev.jsonl"
            bad_dev.write_text((FIXTURES / "dev.jsonl").read_text() + "{not a record\n")
            config = write_tiny_config(tmp_path, dev_file=bad_dev)
            code, error = 2, "DataError"
        assert main([command, "--config", str(config)]) == code
        run_dir = find_run_dir(tmp_path / "runs")
        payload = json.loads((run_dir / "error.json").read_text())
        assert payload["error"] == error

    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize(
        "blas,kernels", [(1, "Haswell"), (None, None)], ids=["one-blas-thread", "blas-unknown"]
    )
    def test_worker_regime_printed_once_after_the_seed(
        self, tmp_path, capsys, monkeypatch, worker, command, blas, kernels
    ):
        monkeypatch.setattr(ad, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(ad, "_blas_threads", lambda: blas)
        monkeypatch.setattr(ad, "_blas_kernels", lambda: kernels)
        if command == "train":
            config, code = write_tiny_config(tmp_path, max_epochs=1), 0
        else:  # the regime is printed before the sweep reads its data
            bad_dev = tmp_path / "dev.jsonl"
            bad_dev.write_text("{not a record\n")
            config, code = write_tiny_config(tmp_path, dev_file=bad_dev), 2
        assert main([command, "--config", str(config)]) == code
        lines = capsys.readouterr().out.splitlines()
        seed = next(i for i, line in enumerate(lines) if line.startswith("effective seed:"))
        assert lines[seed + 1] == (
            f"worker: {'on' if worker else 'off'}, usable CPUs: 2, "
            f"BLAS threads per call: {'unknown' if blas is None else blas}, "
            f"BLAS kernels: {kernels or 'unknown'}"
        )
        assert sum(line.startswith("worker:") for line in lines) == 1

    def test_every_dropped_pair_is_reported(self, tmp_path, capsys):
        # the fixture corpus holds one pair labeled "-"; add one with an empty hypothesis
        train = tmp_path / "train.jsonl"
        empty = {"gold_label": "neutral", "sentence1": "a dog runs .", "sentence2": ""}
        train.write_text((FIXTURES / "train.jsonl").read_text() + json.dumps(empty) + "\n")
        config = write_tiny_config(tmp_path, train_file=train, max_epochs=1)
        assert main(["train", "--config", str(config)]) == 0
        assert (
            "train: kept 25 (dropped 1 unlabeled, 1 with an empty sentence); "
            "dev: kept 12 (dropped 0 unlabeled, 0 with an empty sentence)"
        ) in capsys.readouterr().out.splitlines()

    def test_rows_missing_from_the_embeddings_file_follow_embedding_scale(
        self, tmp_path, capsys, monkeypatch
    ):
        vec = tmp_path / "emb.vec"
        vec.write_text("1 12\nthe " + "0.25 " * 12 + "\n")  # .vec: header, trailing space
        models = []

        def capture(model, *args, **kwargs):
            models.append(model)
            return training.train(model, *args, **kwargs)

        monkeypatch.setattr(cli, "train", capture)
        config = write_tiny_config(tmp_path, embeddings_file=vec, max_epochs=1)
        assert "embedding_scale=0.5" in config.read_text()
        assert main(["train", "--config", str(config)]) == 0
        assert "embeddings: 1 from file" in capsys.readouterr().out
        (model,) = models
        vocab, matrix = model.vocab, model.encoder.word_embeddings.data
        np.testing.assert_array_equal(matrix[vocab.lookup("the")], 0.25)
        missing = np.abs(np.delete(matrix, [vocab.pad, vocab.lookup("the")], axis=0))
        assert missing.max() > 0.05 and missing.max() <= 0.5

    def test_nothing_to_train_on_exits_2_with_error_log(self, tmp_path, capsys):
        config = write_tiny_config(tmp_path, max_premise_len=1)
        assert main(["train", "--config", str(config)]) == 2
        assert "max_premise_len" in capsys.readouterr().err
        run_dir = find_run_dir(tmp_path / "runs")
        payload = json.loads((run_dir / "error.json").read_text())
        assert payload["error"] == "InvalidInputError"
        assert not (run_dir / "best.ckpt").exists()

    def test_flag_overrides_config(self, tmp_path, capsys):
        config = write_tiny_config(tmp_path)
        assert main(["train", "--config", str(config), "--epochs", "1", "--seed", "9"]) == 0
        out = capsys.readouterr().out
        assert "effective seed: 9" in out
        run_dir = find_run_dir(tmp_path / "runs")
        assert len((run_dir / "train.log").read_text().strip().splitlines()) == 1
        effective = (run_dir / "config.effective").read_text()
        assert "max_epochs=1" in effective and "seed=9" in effective

    @pytest.mark.parametrize(
        "flags,key,value,text",
        [
            (["--pooling", "max"], "pooling", "max", "max"),
            (["--seed", "3"], "seed", 3, "3"),
            (["--batch-size", "4"], "batch_size", 4, "4"),
            (["--epochs", "1"], "max_epochs", 1, "1"),
            (["--lr", "0.005"], "learning_rate", 0.005, "0.005"),
            (["--out-dir", "elsewhere"], "out_dir", "elsewhere", "elsewhere"),
            (["--chars"], "use_chars", True, "true"),
        ],
    )
    def test_flag_lands_in_its_key(self, tmp_path, capsys, monkeypatch, flags, key, value, text):
        monkeypatch.chdir(tmp_path)  # a relative --out-dir lands here
        config = write_tiny_config(tmp_path)
        argv = ["train", "--config", str(config), *flags]
        run_config = cli.build_run_config(cli.build_parser().parse_args(argv))
        owner = {
            cli.RunConfig: run_config,
            ModelConfig: run_config.model,
            EncoderConfig: run_config.model.encoder,
            TrainConfig: run_config.train,
        }[cli._KEYS[key][0]]
        assert getattr(owner, key) == value
        assert main(argv) == 0
        run_dir = find_run_dir(tmp_path / run_config.out_dir)
        assert f"{key}={text}" in (run_dir / "config.effective").read_text().splitlines()

    def test_default_no_chars_exports_600_dim(self, tmp_path, capsys):
        # default dimensions, mean pooling, no char features: 600-wide representations
        config = write_tiny_config(tmp_path)
        text = config.read_text().splitlines()
        kept = [
            line
            for line in text
            if not any(
                line.startswith(k + "=")
                for k in ("word_dim", "hidden_per_dir", "mlp_widths", "max_epochs")
            )
        ]
        config.write_text("\n".join(kept) + "\nmlp_widths=32,32,32\nmax_epochs=1\n")
        assert main(
            ["train", "--config", str(config), "--pooling", "mean", "--no-chars"]
        ) == 0
        run_dir = find_run_dir(tmp_path / "runs")
        out_tsv = tmp_path / "reps.tsv"
        assert main(
            [
                "export",
                "--checkpoint",
                str(run_dir / "best.ckpt"),
                "--data",
                str(FIXTURES / "dev.jsonl"),
                "--output",
                str(out_tsv),
            ]
        ) == 0
        first = out_tsv.read_text().splitlines()[0].split("\t")
        assert len(first) == 2 + 600


class TestEval:
    def test_report_printed_and_json_written(self, trained_run, capsys, tmp_path):
        code = main(
            [
                "eval",
                "--checkpoint",
                str(trained_run["checkpoint"]),
                "--data",
                str(trained_run["dev"]),
                "--split",
                "matched",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "MultiNLI Overall" in out
        payload = json.loads((tmp_path / "eval_matched.json").read_text())
        assert payload["total"] == 12
        assert 0.0 <= payload["overall_accuracy"] <= 1.0

    def test_out_dir_made_before_evaluating(self, trained_run, capsys, tmp_path):
        argv = ["eval", "--checkpoint", str(trained_run["checkpoint"]),
                "--data", str(trained_run["dev"]), "--out-dir"]
        out_dir = tmp_path / "new" / "reports"
        assert main([*argv, str(out_dir)]) == 0
        assert json.loads((out_dir / "eval_matched.json").read_text())["total"] == 12
        capsys.readouterr()
        # an out-dir that cannot be made fails before any evaluation is printed
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        assert main([*argv, str(blocker / "reports")]) == 2
        assert "MultiNLI Overall" not in capsys.readouterr().out

    def test_evaluating_twice_is_identical(self, trained_run, capsys, tmp_path):
        argv = [
            "eval",
            "--checkpoint",
            str(trained_run["checkpoint"]),
            "--data",
            str(trained_run["dev"]),
            "--out-dir",
            str(tmp_path),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_corrupt_checkpoint_exits_2(self, trained_run, tmp_path, capsys):
        broken = tmp_path / "broken.ckpt"
        blob = trained_run["checkpoint"].read_bytes()
        broken.write_bytes(blob[:-32])
        code = main(
            ["eval", "--checkpoint", str(broken), "--data", str(trained_run["dev"])]
        )
        assert code == 2

    def test_malformed_manifest_exits_2(self, trained_run, tmp_path, capsys):
        raw = trained_run["checkpoint"].read_bytes()
        (header_len,) = struct.unpack("<Q", raw[:8])
        manifest = json.loads(raw[8 : 8 + header_len])
        del manifest["parameters"]
        header = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
        broken = tmp_path / "broken.ckpt"
        broken.write_bytes(struct.pack("<Q", len(header)) + header + raw[8 + header_len :])
        code = main(
            ["eval", "--checkpoint", str(broken), "--data", str(trained_run["dev"])]
        )
        assert code == 2
        assert "'parameters'" in capsys.readouterr().err


class TestEnsemble:
    def test_single_checkpoint_matches_eval(self, trained_run, capsys, tmp_path):
        ckpt = str(trained_run["checkpoint"])
        data = str(trained_run["dev"])
        assert main(["eval", "--checkpoint", ckpt, "--data", data, "--out-dir", str(tmp_path)]) == 0
        eval_out = capsys.readouterr().out
        assert main(["ensemble", "--checkpoints", ckpt, "--data", data]) == 0
        ens_out = capsys.readouterr().out
        eval_overall = [l for l in eval_out.splitlines() if "MultiNLI Overall" in l][0]
        ens_overall = [l for l in ens_out.splitlines() if "MultiNLI Overall" in l][0]
        assert eval_overall == ens_overall

    def test_two_checkpoints_run_each_member_once(
        self, four_seed_checkpoints, tmp_path, capsys, monkeypatch
    ):
        # 36 pairs: two batches of at most 32
        dev = tmp_path / "dev.jsonl"
        dev.write_text((FIXTURES / "dev.jsonl").read_text(encoding="utf-8") * 3, encoding="utf-8")
        paths = [str(p) for p in four_seed_checkpoints[:2]]
        examples = load_dataset(dev).examples
        models = [training.load_checkpoint(p).model for p in paths]
        # the lines the command printed before it shared one pass: each
        # member's evaluate, then the ensemble's report
        expected = [
            f"{p}: {100 * evaluation.evaluate(m, examples).overall_accuracy:.1f}"
            for p, m in zip(paths, models)
        ]
        expected.append("ensemble of 2:")
        expected += evaluation.ensemble_evaluate(models, examples).format().splitlines()

        calls = []
        predict_batch = NLIModel.predict_batch
        monkeypatch.setattr(
            NLIModel, "predict_batch",
            lambda model, batch: calls.append((model, len(batch))) or predict_batch(model, batch),
        )
        built = []
        make_batches = evaluation.make_batches
        monkeypatch.setattr(
            evaluation, "make_batches", lambda *a, **k: built.append(a) or make_batches(*a, **k)
        )
        assert main(["ensemble", "--checkpoints", *paths, "--data", str(dev)]) == 0
        assert capsys.readouterr().out.splitlines() == expected
        assert len(built) == 1
        assert [size for _, size in calls] == [32, 4, 32, 4]
        assert calls[0][0] is calls[1][0] and calls[2][0] is calls[3][0]
        assert calls[0][0] is not calls[2][0]

    def test_four_seed_ensemble(self, four_seed_checkpoints, trained_run, capsys):
        argv = ["ensemble", "--checkpoints"] + [str(p) for p in four_seed_checkpoints]
        argv += ["--data", str(trained_run["dev"])]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "ensemble of 4:" in out
        member_lines = [l for l in out.splitlines() if l.startswith("/")]
        assert len(member_lines) == 4
        member_accs = [float(l.rsplit(" ", 1)[1]) for l in member_lines]
        overall = [l for l in out.splitlines() if "MultiNLI Overall" in l][0]
        ensemble_acc = float(overall.split()[-1])
        assert ensemble_acc >= min(member_accs)


class TestPredict:
    def test_distribution_printed(self, trained_run, capsys, monkeypatch):
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO("the man is buying the car .\nthe man is buying the car .\n"),
        )
        assert main(["predict", "--checkpoint", str(trained_run["checkpoint"])]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        probs = [float(l.split()[1]) for l in lines[:3]]
        assert abs(sum(probs) - 1.0) < 1e-5
        assert lines[3].startswith("predicted: ")

    def test_missing_hypothesis_is_usage_error(self, trained_run, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("only one line\n"))
        assert main(["predict", "--checkpoint", str(trained_run["checkpoint"])]) == 1

    def test_empty_sentence_is_data_error(self, trained_run, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("   \nthe man .\n"))
        assert main(["predict", "--checkpoint", str(trained_run["checkpoint"])]) == 2
        assert "at least one token" in capsys.readouterr().err


class TestGradcheck:
    def test_clean_report_exits_zero(self, capsys, monkeypatch):
        monkeypatch.setattr(
            gradcheck,
            "run_full_check",
            lambda seed=7: gradcheck.GradCheckReport(
                operations={"matmul": 1e-9}, parameters={"attention.w": 1e-6}
            ),
        )
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "matmul" in out and "attention.w" in out

    def test_each_parameter_group_listed_once(self, capsys, monkeypatch):
        report = gradcheck.GradCheckReport(
            operations={}, parameters={"a.w": 1e-8, "a.b": 1e-8}
        )
        monkeypatch.setattr(gradcheck, "run_full_check", lambda seed=7: report)
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert out.count("a.w") == 1 and out.count("a.b") == 1

    def test_corrupted_backward_rule_detected(self, capsys, monkeypatch):
        # fault injection: tanh pretends its derivative is the identity
        real_tanh = ad.tanh

        def corrupt_tanh(x):
            out = ad.Tensor(np.tanh(x.data))
            return ad._emit(out, (x,), lambda g: (g,))

        monkeypatch.setattr(ad, "tanh", corrupt_tanh)
        monkeypatch.setattr(gradcheck, "model_suite", lambda seed=7, eps=1e-5: {})
        assert main(["gradcheck"]) == 3
        err = capsys.readouterr().err
        assert "tanh" in err

    def test_unsupported_dims(self, capsys):
        assert main(["gradcheck", "--dims", "huge"]) == 1


class TestSweepAndExport:
    def test_sweep_writes_records_and_tables(self, tmp_path, capsys):
        config = write_tiny_config(tmp_path, max_epochs=1)
        assert main(
            ["sweep", "--config", str(config), "--runs-per-cell", "2", "--jobs", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "16 runs over 8 cells" in out
        run_dir = find_run_dir(tmp_path / "runs")
        records = (run_dir / "sweep_runs.log").read_text().strip().splitlines()
        assert len(records) == 16
        assert (run_dir / "sweep_mean.txt").exists()
        assert (run_dir / "sweep_best.txt").exists()
        for method in ("mean", "sum", "last", "max"):
            assert method in (run_dir / "sweep_mean.txt").read_text()

    @pytest.mark.parametrize(
        "keep_hidden,use_chars,widths",
        [
            (False, "false", {False: 600, True: 700}),
            (False, "true", {False: 600, True: 700}),
            (True, "true", {False: 8, True: 8}),
        ],
    )
    def test_sweep_cell_width(self, tmp_path, capsys, monkeypatch, keep_hidden, use_chars, widths):
        # unset hidden_per_dir: each cell resolves it from its own use_chars,
        # whatever the base use_chars; an explicit value holds in every cell
        seen = {}

        def fake_train(model, *args, **kwargs):
            encoder = model.config.encoder
            seen.setdefault(encoder.use_chars, set()).add(encoder.rep_dim)
            return training.TrainResult(best_epoch=1, best_dev_accuracy=0.5)

        monkeypatch.setattr(training, "train", fake_train)
        config = write_tiny_config(tmp_path, max_epochs=1, use_chars=use_chars)
        lines = config.read_text().splitlines()
        if not keep_hidden:
            lines = [line for line in lines if not line.startswith("hidden_per_dir=")]
        config.write_text("\n".join(lines) + "\n")
        assert main(["sweep", "--config", str(config), "--runs-per-cell", "2"]) == 0
        assert seen == {flag: {width} for flag, width in widths.items()}

    @pytest.mark.parametrize("flag", ["--pooling=max", "--chars", "--no-chars"])
    def test_sweep_has_no_pooling_or_chars_flag(self, tmp_path, capsys, flag):
        # every cell sets its own pooling and use_chars
        config = write_tiny_config(tmp_path)
        assert main(["sweep", "--config", str(config), flag]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("key", ["snli_file", "embeddings_file"])
    def test_sweep_rejects_unsupported_key(self, tmp_path, capsys, key):
        config = write_tiny_config(tmp_path, **{key: FIXTURES / "train.jsonl"})
        assert main(["sweep", "--config", str(config)]) == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_export_row_width_matches_checkpoint(self, trained_run, tmp_path):
        out_tsv = tmp_path / "r.tsv"
        assert main(
            [
                "export",
                "--checkpoint",
                str(trained_run["checkpoint"]),
                "--data",
                str(trained_run["dev"]),
                "--output",
                str(out_tsv),
            ]
        ) == 0
        lines = out_tsv.read_text().strip().splitlines()
        assert len(lines) == 24  # 2 per pair
        for line in lines:
            assert len(line.split("\t")) == 2 + 8  # rep_dim = 2 * hidden_per_dir = 8

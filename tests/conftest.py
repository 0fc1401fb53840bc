from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"

TINY_CONFIG = """\
# tiny end-to-end configuration for the bundled fixture corpus
train_file={train}
dev_file={dev}
out_dir={out}
use_chars=false
word_dim=12
char_dim=3
char_hidden=3
hidden_per_dir=4
pooling=mean
mlp_widths=8,8,8
dropout=0.1
learning_rate=0.002
batch_size=8
max_epochs=2
seed=7
embedding_scale=0.5
"""


def write_tiny_config(directory: Path, **overrides) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    values = {
        "train": FIXTURES / "train.jsonl",
        "dev": FIXTURES / "dev.jsonl",
        "out": directory / "runs",
    }
    text = TINY_CONFIG.format(**values)
    for key, value in overrides.items():
        text += f"{key}={value}\n"
    path = directory / "tiny.cfg"
    path.write_text(text, encoding="utf-8")
    return path


def find_run_dir(out_root: Path) -> Path:
    runs = sorted(out_root.glob("run-*"))
    assert runs, f"no run directory under {out_root}"
    return runs[-1]


@pytest.fixture(scope="session")
def trained_run(tmp_path_factory):
    """One tiny CLI training run shared by the read-only CLI tests."""
    from nliattn.cli import main

    base = tmp_path_factory.mktemp("cli-train")
    config = write_tiny_config(base)
    assert main(["train", "--config", str(config)]) == 0
    run_dir = find_run_dir(base / "runs")
    return {
        "config": config,
        "run_dir": run_dir,
        "checkpoint": run_dir / "best.ckpt",
        "dev": FIXTURES / "dev.jsonl",
    }


@pytest.fixture(scope="session")
def four_seed_checkpoints(tmp_path_factory):
    """Four tiny models trained with different seeds on the fixture corpus."""
    from nliattn.cli import main

    base = tmp_path_factory.mktemp("cli-ensemble")
    checkpoints = []
    for seed in (1, 2, 3, 4):
        config = write_tiny_config(base / f"s{seed}", seed=seed)
        assert main(["train", "--config", str(config)]) == 0
        run_dir = find_run_dir(base / f"s{seed}" / "runs")
        checkpoints.append(run_dir / "best.ckpt")
    return checkpoints


@pytest.fixture
def reported_probs(monkeypatch):
    """The class probabilities [N x 3] behind every report that
    ``evaluation`` builds while the test runs, in call order."""
    from nliattn import evaluation

    seen = []
    report = evaluation._report

    def spy(probs, examples, split):
        seen.append(probs)
        return report(probs, examples, split)

    monkeypatch.setattr(evaluation, "_report", spy)
    return seen


@pytest.fixture(params=[True, False], ids=["worker", "serial"])
def worker(request, monkeypatch):
    """Runs the test with the library's worker forced on, then off
    (``autodiff._use_worker``); the value says which.  With the host's
    own BLAS threads the worker may be off, and no split would run."""
    from nliattn import autodiff

    monkeypatch.setattr(autodiff, "_use_worker", lambda: request.param)
    return request.param

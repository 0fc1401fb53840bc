"""Command-line entry point: train, eval, ensemble, predict, gradcheck,
sweep, and export, driven by a flat key=value config file plus flag
overrides (flags win).

All outputs of train and sweep land under a fresh timestamped directory
below the configured output root, together with a copy of the effective
configuration.  Exit codes: 0 success, 1 usage/config error, 2 data error,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import evaluation, gradcheck
from .data import (
    EMBEDDING_SCALE,
    LABELS,
    SNLI_FRACTION,
    CharVocabulary,
    Vocabulary,
    load_dataset,
    load_embeddings,
    mix_snli,
    normalize_token,
    random_embeddings,
)
from .encoder import EncoderConfig, POOLING_METHODS
from .errors import (
    ConfigError,
    DataError,
    IntegrityError,
    InvalidInputError,
    NumericError,
    UsageError,
)
from .model import ModelConfig, NLIModel
from .training import TrainConfig, load_checkpoint, remove_standby, train

CONFIG_ENV_VAR = "NLIATTN_CONFIG"


@dataclass
class RunConfig:
    """One run's settings: the model and training configs, plus the keys
    only the command line reads (data and output paths, SNLI mixing and
    the scale of random word vectors)."""

    model: ModelConfig
    train: TrainConfig
    train_file: str | None = None
    dev_file: str | None = None
    snli_file: str | None = None
    embeddings_file: str | None = None
    out_dir: str = "runs"
    snli_fraction: float = SNLI_FRACTION
    embedding_scale: float = EMBEDDING_SCALE

    def __post_init__(self):
        if not 0.0 <= self.snli_fraction <= 1.0:
            raise ConfigError(f"snli_fraction must be in [0, 1], got {self.snli_fraction}")
        if not 0.0 <= self.embedding_scale < math.inf:
            raise ConfigError(
                f"embedding_scale must be non-negative and finite, got {self.embedding_scale}"
            )

    def effective_text(self) -> str:
        """One sorted key=value line per key that has a value."""
        owners = {
            RunConfig: self,
            ModelConfig: self.model,
            EncoderConfig: self.model.encoder,
            TrainConfig: self.train,
        }
        lines = []
        for key in sorted(_KEYS):
            value = getattr(owners[_KEYS[key][0]], key)
            if value is None:
                continue
            if isinstance(value, bool):
                value = "true" if value else "false"
            elif isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            lines.append(f"{key}={value}")
        return "\n".join(lines) + "\n"


def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(raw)


# A key's parser follows the annotation of its field.
_PARSERS = {
    "bool": _parse_bool,
    "int": int,
    "int | None": int,
    "float": float,
    "str": str,
    "str | None": str,
    "tuple[int, ...]": lambda raw: tuple(int(w) for w in raw.split(",")),
}

# Config key -> (owning dataclass, annotation, parser): every field of
# these dataclasses except the ones that hold another config.
_KEYS = {
    f.name: (owner, f.type, _PARSERS[f.type])
    for owner in (RunConfig, EncoderConfig, ModelConfig, TrainConfig)
    for f in fields(owner)
    if f.name not in ("model", "train", "encoder")
}
KNOWN_KEYS = frozenset(_KEYS)


def _parse_value(key: str, raw: str):
    _, annotation, parse = _KEYS[key]
    try:
        return parse(raw)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: expected {annotation}, got {raw!r}") from exc


def parse_config_file(path) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            key = key.strip()
            if key not in KNOWN_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = value.strip()
    return values


def build_run_config(args) -> RunConfig:
    """Merge the config file and the flags (flags win), then build the
    configs, which check every value before anything is written."""
    values = {}
    config_path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV_VAR)
    if config_path:
        if not os.path.exists(config_path):
            raise ConfigError(f"config file not found: {config_path}")
        for key, raw in parse_config_file(config_path).items():
            values[key] = _parse_value(key, raw)
    # a flag's argparse dest is the config key it overrides
    for key in KNOWN_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            values[key] = value

    def owned_by(owner) -> dict:
        return {key: value for key, value in values.items() if _KEYS[key][0] is owner}

    model = ModelConfig(EncoderConfig(**owned_by(EncoderConfig)), **owned_by(ModelConfig))
    return RunConfig(model, TrainConfig(**owned_by(TrainConfig)), **owned_by(RunConfig))


def make_run_dir(config: RunConfig) -> Path:
    stamp = datetime.datetime.now().strftime("%Y%m%d-%H%M%S-%f")
    run_dir = Path(config.out_dir) / f"run-{stamp}"
    run_dir.mkdir(parents=True, exist_ok=False)
    (run_dir / "config.effective").write_text(config.effective_text(), encoding="utf-8")
    return run_dir


def _require_files(*paths) -> None:
    for path in paths:
        if path is not None and not os.path.exists(path):
            raise ConfigError(f"required file does not exist: {path}")


@contextlib.contextmanager
def _run_dir(config: RunConfig, command: str):
    """The run directory of a command that trains: the data files are
    checked before it is made, and a failure inside it leaves error.json."""
    if config.train_file is None or config.dev_file is None:
        raise ConfigError(f"{command} needs train_file and dev_file (config file or flags)")
    _require_files(config.train_file, config.dev_file, config.snli_file, config.embeddings_file)
    run_dir = make_run_dir(config)
    print(f"run directory: {run_dir}")
    print(f"effective seed: {config.train.seed}")
    blas = ad._blas_threads()
    print(
        f"worker: {'on' if ad._use_worker() else 'off'}, usable CPUs: {ad._usable_cpus()}, "
        f"BLAS threads per call: {'unknown' if blas is None else blas}, "
        f"BLAS kernels: {ad._blas_kernels() or 'unknown'}"
    )
    try:
        yield run_dir
    except Exception as exc:
        with contextlib.suppress(OSError):
            (run_dir / "error.json").write_text(
                json.dumps({"error": type(exc).__name__, "message": str(exc)}, indent=2),
                encoding="utf-8",
            )
        raise


# ---------------------------------------------------------------------------
# Commands


def cmd_train(args) -> int:
    config = build_run_config(args)
    with _run_dir(config, "train") as run_dir:
        train_load = load_dataset(config.train_file)
        dev_load = load_dataset(config.dev_file)
        print(
            "; ".join(
                f"{name}: kept {len(load)} (dropped {load.dropped_no_label} unlabeled, "
                f"{load.skipped_empty} with an empty sentence)"
                for name, load in (("train", train_load), ("dev", dev_load))
            )
        )
        train_examples = train_load.examples
        if config.snli_file:
            train_examples = mix_snli(
                train_examples,
                load_dataset(config.snli_file).examples,
                config.snli_fraction,
                np.random.default_rng([config.train.seed, 15]),
            )
            print(f"mixed in {len(train_examples) - len(train_load)} extra pairs")

        encoder = config.model.encoder
        vocab = Vocabulary.from_examples(train_examples, dim=encoder.word_dim)
        char_vocab = CharVocabulary.from_examples(train_examples, dim=encoder.char_dim)
        vocab.save(run_dir / "vocab.txt")
        char_vocab.save(run_dir / "char_vocab.txt")

        emb_rng = np.random.default_rng([config.train.seed, 14])
        if config.embeddings_file:
            emb_load = load_embeddings(
                config.embeddings_file, vocab, emb_rng, config.embedding_scale
            )
            embeddings = emb_load.parameter
            print(f"embeddings: {emb_load.found} from file, {emb_load.skipped_lines} lines skipped")
        else:
            embeddings = random_embeddings(vocab, emb_rng, scale=config.embedding_scale)
            print(f"embeddings: random, scale {config.embedding_scale}")

        model_rng = np.random.default_rng([config.train.seed, 13])
        model = NLIModel(config.model, vocab, char_vocab, embeddings, model_rng)
        try:
            result = train(
                model,
                train_examples,
                dev_load.examples,
                config.train,
                checkpoint_path=run_dir / "best.ckpt",
                log_path=run_dir / "train.log",
            )
        finally:
            remove_standby(run_dir / "best.ckpt")  # the run saves no more, even after a failure
        for record in result.epochs:
            print(record.format())
        if result.halted:
            raise NumericError(f"training halted: {result.halted}")
        print(
            f"best dev accuracy {result.best_dev_accuracy:.4f} at epoch {result.best_epoch}; "
            f"checkpoint {result.checkpoint_path}"
        )
        return 0


def cmd_eval(args) -> int:
    _require_files(args.checkpoint, args.data)
    out_dir = Path(args.out_dir) if args.out_dir else Path(args.checkpoint).parent
    out_dir.mkdir(parents=True, exist_ok=True)
    examples = load_dataset(args.data).examples
    loaded = load_checkpoint(args.checkpoint)
    report = evaluation.evaluate(loaded.model, examples, split=args.split)
    print(report.format())
    out_path = out_dir / f"eval_{args.split}.json"
    out_path.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True), encoding="utf-8")
    print(f"machine-readable report: {out_path}")
    return 0


def cmd_ensemble(args) -> int:
    _require_files(*args.checkpoints, args.data)
    examples = load_dataset(args.data).examples
    models = [load_checkpoint(path).model for path in args.checkpoints]
    members, report = evaluation.ensemble_reports(models, examples, split=args.split)
    for path, single in zip(args.checkpoints, members):
        print(f"{path}: {100 * single.overall_accuracy:.1f}")
    print(f"ensemble of {len(models)}:")
    print(report.format())
    return 0


def cmd_predict(args) -> int:
    _require_files(args.checkpoint)
    loaded = load_checkpoint(args.checkpoint)
    lines = sys.stdin.read().splitlines()
    if len(lines) < 2:
        raise UsageError("predict reads two lines from stdin: premise, then hypothesis")
    premise = [normalize_token(t) for t in lines[0].split() if t]
    hypothesis = [normalize_token(t) for t in lines[1].split() if t]
    dist = loaded.model.predict_tokens(premise, hypothesis)

    for label, p in zip(LABELS, dist.probs):
        print(f"{label} {p:.6f}")
    print(f"predicted: {LABELS[dist.predicted_class]}")
    return 0


def cmd_gradcheck(args) -> int:
    print(f"effective seed: {args.seed}")
    report = gradcheck.run_full_check(seed=args.seed)
    print(report.format())
    if not report.passed:
        raise NumericError(
            "gradient check failed for: " + ", ".join(report.failures)
        )
    return 0


def cmd_sweep(args) -> int:
    config = build_run_config(args)
    for key in ("snli_file", "embeddings_file"):
        if getattr(config, key) is not None:
            raise ConfigError(f"sweep does not support {key}; remove it from the config")
    if args.runs_per_cell < 2:
        raise ConfigError(
            f"runs_per_cell must be at least 2 for interval estimates, got {args.runs_per_cell}"
        )
    if args.jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {args.jobs}")
    with _run_dir(config, "sweep") as run_dir:
        runs, summary = evaluation.pooling_sweep(
            load_dataset(config.train_file).examples,
            load_dataset(config.dev_file).examples,
            config.model,
            config.train,
            seeds=[config.train.seed + i for i in range(args.runs_per_cell)],
            embedding_scale=config.embedding_scale,
            jobs=args.jobs,
        )
        evaluation.write_sweep_records(runs, run_dir / "sweep_runs.log")
        mean_table = summary.format_mean_table()
        best_table = summary.format_best_table()
        (run_dir / "sweep_mean.txt").write_text(mean_table + "\n", encoding="utf-8")
        (run_dir / "sweep_best.txt").write_text(best_table + "\n", encoding="utf-8")
        print(f"{len(runs)} runs over {len(summary.cells)} cells")
        print("mean +- 95% CI per cell:")
        print(mean_table)
        print("best per cell:")
        print(best_table)
        return 0


def cmd_export(args) -> int:
    _require_files(args.checkpoint, args.data)
    examples = load_dataset(args.data).examples
    loaded = load_checkpoint(args.checkpoint)
    count = evaluation.export_representations(loaded.model, examples, args.output)
    print(f"wrote {count} records to {args.output}")
    return 0


# ---------------------------------------------------------------------------
# Parser and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nliattn",
        description="Train and evaluate inner-attention NLI sentence encoders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        # each flag's dest is the config key it overrides
        p.add_argument("--config", help=f"key=value config file (or ${CONFIG_ENV_VAR})")
        p.add_argument("--out-dir", dest="out_dir", help="output root directory")
        p.add_argument("--seed", type=int, help="master random seed")
        p.add_argument("--batch-size", dest="batch_size", type=int)
        p.add_argument("--epochs", dest="max_epochs", type=int)
        p.add_argument("--lr", dest="learning_rate", type=float)

    p_train = sub.add_parser("train", help="train a model and keep the best checkpoint")
    add_common(p_train)
    # sweep has neither: each of its cells sets its own pooling and use_chars
    p_train.add_argument("--pooling", choices=POOLING_METHODS)
    p_train.add_argument(
        "--chars",
        dest="use_chars",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="use character features (--no-chars disables)",
    )
    p_train.set_defaults(fn=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--split", choices=("matched", "mismatched"), default="matched")
    p_eval.add_argument("--out-dir", dest="out_dir")
    p_eval.set_defaults(fn=cmd_eval)

    p_ens = sub.add_parser("ensemble", help="evaluate an ensemble of checkpoints")
    p_ens.add_argument("--checkpoints", nargs="+", required=True)
    p_ens.add_argument("--data", required=True)
    p_ens.add_argument("--split", choices=("matched", "mismatched"), default="matched")
    p_ens.set_defaults(fn=cmd_ensemble)

    p_pred = sub.add_parser("predict", help="classify one premise/hypothesis pair from stdin")
    p_pred.add_argument("--checkpoint", required=True)
    p_pred.set_defaults(fn=cmd_predict)

    p_grad = sub.add_parser("gradcheck", help="finite-difference verification suite")
    p_grad.add_argument("--seed", type=int, default=7)
    p_grad.set_defaults(fn=cmd_gradcheck)

    p_sweep = sub.add_parser("sweep", help="pooling-method sweep over seeds")
    add_common(p_sweep)
    p_sweep.add_argument("--runs-per-cell", dest="runs_per_cell", type=int, default=2)
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.set_defaults(fn=cmd_sweep)

    p_exp = sub.add_parser("export", help="export refined sentence representations as TSV")
    p_exp.add_argument("--checkpoint", required=True)
    p_exp.add_argument("--data", required=True)
    p_exp.add_argument("--output", required=True)
    p_exp.set_defaults(fn=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.fn(args)
    except (ConfigError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, IntegrityError, InvalidInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

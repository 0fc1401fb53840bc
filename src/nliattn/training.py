"""RMSProp training loop with per-epoch dev selection and checkpointing.

Every source of randomness (shuffling, dropout) derives from the single
configured seed, so a (seed, data, config) triple fixes the whole
trajectory.  The best checkpoint by matched-dev accuracy is retained; a
non-finite loss or gradient halts training with the last good checkpoint
intact.

Checkpoint file layout: an 8-byte little-endian length, a canonical JSON
manifest (config, vocabularies, hashes, parameter order), then the raw
little-endian float32 parameter blob in manifest order.  The blob moves
straight between the file and each parameter's own array, in both
directions.  A load reads the parameters in two groups on two threads when
the library's worker runs, each through its own handle on the file; a save
writes on one thread, because the file system serialises buffered writes
to one file, and two writers of disjoint ranges were no faster.  A save
writes into the blocks of the file the previous save to the same path
replaced, kept beside it as ``<path>.standby``, and swaps the two names
(``save_checkpoint``).
"""

from __future__ import annotations

import contextlib
import ctypes
import errno
import functools
import json
import math
import os
import stat
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from .autodiff import CHUNK, Tape, Tensor, _Factored, _size_groups, _split, default_dtype
from .data import CharVocabulary, Vocabulary, make_batches
from .errors import ConfigError, IntegrityError, InvalidInputError, NumericError
from .evaluation import evaluate
from .model import ModelConfig, NLIModel

CHECKPOINT_MAGIC = "nliattn-checkpoint"
CHECKPOINT_VERSION = 1
# what load_checkpoint reads of a manifest, besides "format"
_MANIFEST_KEYS = (
    "version", "config", "vocab", "char_vocab", "vocab_hash", "char_vocab_hash", "parameters",
)
# the file the last save to a checkpoint path replaced, kept beside it
_STANDBY_SUFFIX = ".standby"
# renameat2's arguments for "relative to the working directory" and "swap"
_AT_FDCWD = -100
_RENAME_EXCHANGE = 2


@dataclass
class TrainConfig:
    """Knobs of the optimization loop (model structure lives in ModelConfig)."""

    learning_rate: float = 0.001
    batch_size: int = 32
    max_epochs: int = 10
    seed: int = 0
    max_premise_len: int = 200

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be positive and finite: {self.learning_rate}")
        for name in ("batch_size", "max_epochs", "max_premise_len"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


class RMSProp:
    """Plain RMSProp: s <- rho*s + (1-rho)*g^2; theta <- theta - lr*g/(sqrt(s)+eps).

    No momentum, no centering.  Frozen parameters are never updated.  A
    step works in place, in flat blocks of ``CHUNK`` elements, on the
    parameter groups of ``autodiff._size_groups`` through ``_split``, each
    with its own work rows made here, so a step allocates nothing.  Every
    element sees the operations of a whole-array update in the same order,
    so the result has its bits.

    ``square_avg`` is made unfilled and reads as zeros until a step writes
    it: a parameter's first step stores (1-rho)*g*g straight, which has the
    bits of rho*0 + (1-rho)*g*g, since 0 + t is t for every t >= +0.

    An ``affine`` weight's gradient may still be its two factors g
    [B x d_out] and x [B x d_in] (``autodiff._Factored``).  The step then
    forms gᵀ·x one of its row blocks at a time, into a third work row, and
    updates that block, so no gradient array is made.  A formed ``.grad``
    is made of the same blocks, so the result is the one it would give.
    The step forms the whole array instead (through ``.grad``) when a row
    does not fit a work row, the factors have another dtype than the
    group's work rows, or one may share memory with a trainable parameter,
    which the step overwrites.

    Before anything is written, every gradient is checked with one
    ``dot(g, g)``, which is NaN or infinite whenever an entry is; both
    groups are checked, in the same split, before either is updated.  Only
    a non-finite dot falls back to min and max, because a finite float32
    entry above about 1.8e19 also squares to infinity.  Factors are
    checked first, on the calling thread: finite ones with
    B·max|g|·max|x| <= max/2 of their dtype give a finite product, since
    each entry sums B products of at most max|g|·max|x|.  Any other
    factors are formed into the array and checked as one.
    """

    def __init__(
        self,
        params: dict[str, Tensor],
        learning_rate: float,
        rho: float = 0.9,
        eps: float = 1e-8,
    ):
        self.params = params
        self.learning_rate = learning_rate
        self.rho = rho
        self.eps = eps
        # left unfilled: a parameter's first step writes its average
        # before reading it (``_unwritten`` holds those not yet written)
        self._square_avg = {
            name: np.empty_like(p.data) for name, p in params.items() if p.requires_grad
        }
        self._unwritten = set(self._square_avg)
        sizes = {name: s.size for name, s in self._square_avg.items()}
        self._groups = _size_groups(sizes)
        # two rows for the intermediate terms, one for a block formed from factors
        self._work = [
            np.empty(
                (3, min(CHUNK, max(map(sizes.get, group), default=0))),
                dtype=np.result_type(*(self._square_avg[n] for n in group))
                if group
                else default_dtype(),
            )
            for group in self._groups
        ]

    @property
    def square_avg(self) -> dict[str, np.ndarray]:
        """Each trainable parameter's running average of g*g; zeros until
        a step has written it."""
        return {
            name: np.zeros_like(s) if name in self._unwritten else s
            for name, s in self._square_avg.items()
        }

    def step(self) -> None:
        """Update every trainable parameter; a non-finite gradient raises
        ``NumericError`` naming its parameter before anything changes."""
        trainable = [p.data for p in self.params.values() if p.requires_grad]
        grads = {}
        for group, work in zip(self._groups, self._work):
            for name in group:
                p = self.params[name]
                if isinstance(p._grad, _Factored) and _blockwise(p._grad, work, trainable):
                    grads[name] = p._grad
                else:  # the array; one that no gradient reached updates as with zeros
                    grads[name] = (np.zeros_like(p.data) if p.grad is None else p.grad).reshape(-1)
        flagged = _split([functools.partial(_first_nonfinite, g, grads) for g in self._groups])
        for name in self._square_avg:  # in registry order
            if name in flagged:
                raise NumericError(f"non-finite gradient in parameter {name!r}")
        _split(
            [
                functools.partial(self._update, group, grads, work)
                for group, work in zip(self._groups, self._work)
            ]
        )

    def _update(self, names: list[str], grads: dict[str, object], work: np.ndarray) -> None:
        for name in names:
            # flat views: parameter data and square_avg are C-contiguous
            s = self._square_avg[name].reshape(-1)
            theta = self.params[name].data.reshape(-1)
            first = name in self._unwritten
            for lo, hi, gc in _gradient_blocks(grads[name], work[2]):
                sc = s[lo:hi]
                term, denom = (w[: hi - lo] for w in work[:2])
                # the operations of s*rho + (1-rho)*g*g and lr*g / (sqrt(s) + eps),
                # in that order, so the result is the same to the last bit
                if first:  # from s = 0: 0*rho + t is t for every t >= +0
                    np.multiply(gc, 1.0 - self.rho, out=sc)
                    sc *= gc
                else:
                    sc *= self.rho
                    np.multiply(gc, 1.0 - self.rho, out=term)
                    term *= gc
                    sc += term
                np.multiply(gc, self.learning_rate, out=term)
                np.sqrt(sc, out=denom)
                denom += self.eps
                term /= denom
                theta[lo:hi] -= term
            self._unwritten.discard(name)

    def zero_grads(self) -> None:
        for p in self.params.values():
            p.grad = None


def _blockwise(grad: _Factored, work: np.ndarray, trainable: list[np.ndarray]) -> bool:
    """Whether a step may form ``grad`` a row block at a time in ``work``
    (see ``RMSProp``): the factors are finite, their product is too, a
    gradient row fits a work row, they have the work rows' dtype, and no
    parameter the step overwrites shares their memory."""
    if grad.dtype != work.dtype or grad.shape[1] > work.shape[1]:
        return False
    if any(np.may_share_memory(f, data) for f in (grad.g, grad.x) for data in trainable):
        return False
    bound = float(grad.g.shape[0])
    for f in (grad.g, grad.x):
        bound *= float(np.max(np.abs(f), initial=0.0))
    # a NaN bound fails the comparison too
    return bound <= np.finfo(work.dtype).max / 2


def _gradient_blocks(grad, row: np.ndarray):
    """(lo, hi, block) over the flat gradient ``grad``: views of ``CHUNK``
    elements of an array, or for factors, each of their row blocks
    (``_Factored.row_blocks``), formed in ``row``."""
    if isinstance(grad, _Factored):
        width = grad.shape[1]
        for rows in grad.row_blocks():
            lo, hi = rows.start * width, rows.stop * width
            block = row[: hi - lo]
            grad.form_rows(rows, block.reshape(-1, width))
            yield lo, hi, block
    else:
        for lo in range(0, grad.size, CHUNK):
            hi = min(lo + CHUNK, grad.size)
            yield lo, hi, grad[lo:hi]


def _first_nonfinite(names: list[str], grads: dict[str, object]) -> str | None:
    """The first of ``names`` whose gradient array holds a NaN or an
    infinity; factors were checked before (``_blockwise``)."""
    for name in names:
        g = grads[name]
        if isinstance(g, _Factored):
            continue
        with np.errstate(over="ignore"):  # an overflowing square is told apart below
            squared_norm = np.dot(g, g)
        if not np.isfinite(squared_norm) and not (np.isfinite(g.min()) and np.isfinite(g.max())):
            return name
    return None


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    dev_accuracy: float
    wall_time_s: float

    def format(self) -> str:
        return (
            f"epoch={self.epoch} train_loss={self.train_loss:.6f} "
            f"dev_accuracy={self.dev_accuracy:.6f} wall_time_s={self.wall_time_s:.3f}"
        )


@dataclass
class TrainResult:
    best_epoch: int
    best_dev_accuracy: float
    epochs: list[EpochRecord] = field(default_factory=list)
    checkpoint_path: str | None = None
    halted: str | None = None  # reason, when training stopped on a numeric failure


def _dev_accuracy(model: NLIModel, dev_examples, batch_size: int) -> float:
    return evaluate(model, dev_examples, batch_size=batch_size).overall_accuracy


def train(
    model: NLIModel,
    train_examples,
    dev_examples,
    config: TrainConfig,
    checkpoint_path=None,
    log_path=None,
    target_dev_accuracy: float | None = None,
) -> TrainResult:
    """Optimize the model, keeping the checkpoint with best dev accuracy.

    Writes one key=value record per epoch to ``log_path`` when given.
    ``target_dev_accuracy`` stops early once the best accuracy reaches it.
    An empty dev set is rejected: there would be nothing to select on.  So
    is a training set in which no premise fits ``max_premise_len``: every
    epoch would take no step.
    """
    if not len(dev_examples):
        raise InvalidInputError("train: empty dev set")
    if not any(len(ex.premise_tokens) <= config.max_premise_len for ex in train_examples):
        raise InvalidInputError(
            f"train: no training pair has a premise within max_premise_len="
            f"{config.max_premise_len} tokens"
        )
    optimizer = RMSProp(model.parameters(), learning_rate=config.learning_rate)
    result = TrainResult(best_epoch=0, best_dev_accuracy=-1.0)
    best_snapshot: dict[str, np.ndarray] | None = None

    for epoch in range(1, config.max_epochs + 1):
        started = time.perf_counter()
        shuffle_rng = np.random.default_rng([config.seed, epoch, 1])
        dropout_rng = np.random.default_rng([config.seed, epoch, 2])
        batches = make_batches(
            train_examples,
            config.batch_size,
            "train",
            model.vocab,
            model.char_vocab,
            max_premise_len=config.max_premise_len,
            rng=shuffle_rng,
        )
        loss_sum = 0.0
        seen = 0
        try:
            for batch in batches:
                optimizer.zero_grads()
                with Tape() as tape:
                    loss = model.batch_loss(batch, training=True, rng=dropout_rng)
                loss_value = loss.item()
                if not np.isfinite(loss_value):
                    raise NumericError(f"non-finite training loss in epoch {epoch}")
                tape.backward(loss)
                optimizer.step()
                loss_sum += loss_value * len(batch)
                seen += len(batch)
        except NumericError as exc:
            result.halted = str(exc)
            break

        dev_accuracy = _dev_accuracy(model, dev_examples, config.batch_size)
        record = EpochRecord(
            epoch=epoch,
            train_loss=loss_sum / max(seen, 1),
            dev_accuracy=dev_accuracy,
            wall_time_s=time.perf_counter() - started,
        )
        result.epochs.append(record)
        if log_path is not None:
            with open(log_path, "a", encoding="utf-8") as fh:
                fh.write(record.format() + "\n")

        if dev_accuracy > result.best_dev_accuracy:
            result.best_dev_accuracy = dev_accuracy
            result.best_epoch = epoch
            if checkpoint_path is not None:
                save_checkpoint(
                    model,
                    checkpoint_path,
                    epoch=epoch,
                    dev_accuracy=dev_accuracy,
                    seed=config.seed,
                )
                result.checkpoint_path = str(checkpoint_path)
            else:  # frozen parameters never change: only the trained ones are kept
                best_snapshot = {
                    name: p.data.copy()
                    for name, p in model.parameters().items()
                    if p.requires_grad
                }
        if target_dev_accuracy is not None and result.best_dev_accuracy >= target_dev_accuracy:
            break

    # leave the model holding its best parameters when nothing was written to disk
    if checkpoint_path is None and best_snapshot is not None:
        params = model.parameters()
        for name, data in best_snapshot.items():
            params[name].data[:] = data
    return result


# ---------------------------------------------------------------------------
# Checkpoints


def _manifest_for(model: NLIModel, epoch, dev_accuracy, seed) -> dict:
    return {
        "format": CHECKPOINT_MAGIC,
        "version": CHECKPOINT_VERSION,
        "config": model.config.to_dict(),
        "vocab": {"dim": model.vocab.dim, "tokens": model.vocab.tokens()},
        "char_vocab": {"dim": model.char_vocab.dim, "chars": model.char_vocab.tokens()},
        "vocab_hash": model.vocab_hash,
        "char_vocab_hash": model.char_vocab_hash,
        "epoch": epoch,
        "dev_accuracy": dev_accuracy,
        "seed": seed,
        "parameters": [
            {"name": name, "shape": list(p.shape), "trainable": p.requires_grad}
            for name, p in model.parameters().items()
        ],
    }


def save_checkpoint(model: NLIModel, path, epoch=None, dev_accuracy=None, seed=None) -> None:
    """Write manifest + float32 parameter blob; the round trip is bit-exact.

    The new checkpoint is written under ``<path>.standby`` and then takes
    the name ``path`` in one step, so ``path`` always names a complete
    checkpoint, and a failed save leaves the previous one in place and no
    standby behind.

    The standby is the file the previous save replaced.  A save writes into
    its blocks (opened ``r+b``, then truncated to the new length) and swaps
    the two names with ``renameat2(RENAME_EXCHANGE)``, so afterwards the
    standby holds the previous checkpoint.  Such a save neither frees a
    whole file's blocks nor renames a file over another, which ext4
    answers by flushing the new file to disk.  A standby that is
    not a regular file, or that has another hard link, is unlinked and
    created afresh, so a save never writes through another name.  Where
    ``path`` is not yet a regular file, or the exchange is missing or
    refused (``ENOSYS``, ``EINVAL``), the new file is renamed over ``path``
    and no standby is kept.

    Costs: a second file per checkpoint path, until ``remove_standby``; a
    reader that holds a checkpoint open across two saves sees it rewritten;
    and nothing is synced to disk, so after a power loss ``path`` may be
    torn.
    """
    manifest = _manifest_for(model, epoch, dev_accuracy, seed)
    header = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path = os.fspath(path)
    standby = path + _STANDBY_SUFFIX
    fh = open(standby, _standby_mode(standby))
    try:
        with fh:
            fh.write(struct.pack("<Q", len(header)))
            fh.write(header)
            for p in model.parameters().values():
                # written from the array's own buffer: no bytes copy
                fh.write(np.ascontiguousarray(p.data, dtype="<f4"))
            fh.truncate()
        _swap_in(standby, path)
    except BaseException:
        remove_standby(path)
        raise


def remove_standby(path) -> None:
    """Delete the standby kept beside the checkpoint at ``path``; for a
    caller that saves to ``path`` no more."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(os.fspath(path) + _STANDBY_SUFFIX)


def _standby_mode(standby: str) -> str:
    """``r+b`` when a save may write into ``standby``'s blocks: a regular
    file with no other name.  Anything else there is unlinked, and ``xb``
    creates the file afresh."""
    try:
        st = os.lstat(standby)
    except FileNotFoundError:
        return "xb"
    if stat.S_ISREG(st.st_mode) and st.st_nlink == 1:
        return "r+b"
    os.remove(standby)
    return "xb"


def _swap_in(standby: str, path: str) -> None:
    """Give the file at ``standby`` the name ``path``: exchange the two
    names when ``path`` is a regular file, else rename over ``path``."""
    try:
        exchange = stat.S_ISREG(os.lstat(path).st_mode)
    except FileNotFoundError:
        exchange = False
    if exchange:
        try:
            _exchange(standby, path)
            return
        except OSError as exc:
            if exc.errno not in (errno.ENOSYS, errno.EINVAL):
                raise
    os.replace(standby, path)


def _exchange(a: str, b: str) -> None:
    """Swap the files named ``a`` and ``b`` in one step: Linux's
    ``renameat2(RENAME_EXCHANGE)``, which the os module does not wrap.
    Raises ``OSError(ENOSYS)`` where the C library has no such call."""
    renameat2 = _renameat2()
    if renameat2 is None:
        raise OSError(errno.ENOSYS, "renameat2 is not available", a)
    if renameat2(_AT_FDCWD, os.fsencode(a), _AT_FDCWD, os.fsencode(b), _RENAME_EXCHANGE):
        code = ctypes.get_errno()
        raise OSError(code, os.strerror(code), a, None, b)


@functools.cache
def _renameat2():
    """The C library's ``renameat2``, typed, or None where it has none."""
    try:
        call = ctypes.CDLL(None, use_errno=True).renameat2
    except (AttributeError, OSError, TypeError):
        return None
    call.argtypes = (ctypes.c_int, ctypes.c_char_p, ctypes.c_int, ctypes.c_char_p, ctypes.c_uint)
    call.restype = ctypes.c_int
    return call


@dataclass
class LoadedCheckpoint:
    model: NLIModel
    manifest: dict


def load_checkpoint(path) -> LoadedCheckpoint:
    """Reconstruct a model from a checkpoint file.

    The manifest carries the vocabularies and their hashes, so the file is
    self-contained.  The blob's size is checked against the manifest before
    the model is built; each parameter's values are then read straight into
    its array, with no copy of the whole blob.  A manifest entry that is
    missing or of the wrong kind raises ``IntegrityError`` too.

    The parameters are read in the two groups of about equal size of
    ``autodiff._size_groups`` through ``autodiff._split``, each through its
    own handle on the file, each parameter with one ``readinto`` at its
    offset into the array made here.
    """
    with open(path, "rb") as fh:
        try:
            manifest = _read_manifest(fh, path)
            model = _model_for(manifest, path)
            declared = [(entry["name"], entry["shape"]) for entry in manifest["parameters"]]
        except (KeyError, TypeError, ValueError, ConfigError) as exc:
            raise IntegrityError(
                f"{path}: malformed manifest: {type(exc).__name__}: {exc}"
            ) from exc
        params = model.parameters()
        if [name for name, _ in declared] != list(params):
            raise IntegrityError(f"{path}: parameter order does not match this build")
        reads, offset = {}, fh.tell()  # name -> (name, array, blob offset)
        for name, shape in declared:
            p = params[name]
            if list(p.shape) != shape:
                raise IntegrityError(
                    f"{path}: parameter {name} has shape {shape}, expected {list(p.shape)}"
                )
            reads[name] = (name, p.data, offset)
            offset += 4 * p.size
        groups = _size_groups({name: p.size for name, p in params.items()})
        with contextlib.ExitStack() as opened:
            handles = [fh]
            for _ in groups[1:]:
                other = opened.enter_context(open(path, "rb"))
                if not os.path.samestat(os.fstat(other.fileno()), os.fstat(fh.fileno())):
                    # the path was replaced since the manifest was read
                    groups, handles = [list(params)], [fh]
                    break
                handles.append(other)
            _split(
                [
                    functools.partial(_read_group, handle, path, [reads[n] for n in group])
                    for handle, group in zip(handles, groups)
                ]
            )
    return LoadedCheckpoint(model=model, manifest=manifest)


def _model_for(manifest: dict, path) -> NLIModel:
    """The model a checked manifest describes, its parameters not yet filled."""
    saved_vocab = Vocabulary(int(manifest["vocab"]["dim"]), manifest["vocab"]["tokens"])
    saved_chars = CharVocabulary(
        int(manifest["char_vocab"]["dim"]), manifest["char_vocab"]["chars"]
    )
    if saved_vocab.content_hash() != manifest["vocab_hash"]:
        raise IntegrityError(f"{path}: vocabulary does not match its recorded hash")
    if saved_chars.content_hash() != manifest["char_vocab_hash"]:
        raise IntegrityError(f"{path}: char vocabulary does not match its recorded hash")

    config = ModelConfig.from_dict(manifest["config"])
    embeddings = Tensor(
        np.empty((len(saved_vocab), saved_vocab.dim), dtype=default_dtype()),
        requires_grad=False,
    )
    return NLIModel(config, saved_vocab, saved_chars, embeddings, rng=None)


def _read_manifest(fh, path) -> dict:
    """Read and check the length prefix and manifest of an open checkpoint,
    leaving ``fh`` at the start of the blob, whose size must be the
    manifest's float32 count."""
    file_size = os.fstat(fh.fileno()).st_size
    raw_len = fh.read(8)
    if len(raw_len) != 8:
        raise IntegrityError(f"{path}: too short for a checkpoint header")
    (header_len,) = struct.unpack("<Q", raw_len)
    if header_len > file_size - 8:
        raise IntegrityError(f"{path}: declared manifest length exceeds the file")
    header = fh.read(header_len)
    if len(header) != header_len:
        raise IntegrityError(f"{path}: truncated manifest")
    try:
        manifest = json.loads(header.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IntegrityError(f"{path}: manifest is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != CHECKPOINT_MAGIC:
        raise IntegrityError(f"{path}: not a checkpoint file")
    for key in _MANIFEST_KEYS:
        if key not in manifest:
            raise IntegrityError(f"{path}: manifest has no {key!r} entry")
    if manifest["version"] != CHECKPOINT_VERSION:
        raise IntegrityError(
            f"{path}: unknown checkpoint version {manifest['version']!r}; "
            f"this build reads version {CHECKPOINT_VERSION}"
        )
    expected = 4 * sum(int(np.prod(entry["shape"])) for entry in manifest["parameters"])
    blob_size = file_size - 8 - header_len
    if blob_size != expected:
        raise IntegrityError(
            f"{path}: parameter blob holds {blob_size} bytes, manifest declares {expected}"
        )
    return manifest


def _read_group(fh, path, reads: list[tuple[str, np.ndarray, int]]) -> None:
    """Fill each array of ``reads`` (name, array, blob offset) from ``fh``:
    read in place when it is native little-endian float32, cast otherwise."""
    for name, data, offset in reads:
        fh.seek(offset)
        target = data if data.dtype == np.dtype("<f4") else np.empty(data.shape, dtype="<f4")
        if fh.readinto(target) != target.nbytes:
            raise IntegrityError(f"{path}: file ends inside parameter {name}")
        if target is not data:
            data[...] = target

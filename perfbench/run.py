"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-paper --seed 1 --seconds 40 --trace 0

Run from the repository root.  The library is imported from ``src/`` next
to this directory, never from an installed copy.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give every
metric by name and unit, and ``error_rate`` with its counts.  With
``--trace 1`` the metrics are the per-layer ones and the spans are written
to ``.perfbench/trace-<workload>-seed<n>.jsonl``.

``--workload all`` runs every workload in turn, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("train-paper", "infer-paper")


def _single_blas_thread() -> None:
    """Run BLAS on one thread; must run before numpy is imported.

    On the 2-CPU host the benchmark was tuned on, a second BLAS thread made
    paper-size runs 12-21% faster but widened their run-to-run spread:
    train_pairs_per_s on train-paper spread 6% over five seeds with one
    thread and 13-17% with two.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _run_all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "nliattn" / "__init__.py").is_file():
        print(f"perfbench: no library source at {SRC}", file=sys.stderr)
        return 2
    _single_blas_thread()
    if args.workload == "all":
        return _run_all(args)

    sys.path[:0] = [str(SRC), str(HERE)]
    import nliattn

    if Path(nliattn.__file__).resolve().parent != SRC / "nliattn":
        print(f"perfbench: imported nliattn from {nliattn.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Runner

    # a terminated run still removes its working files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir)
        result = runner.run()
        if runner.tracer is not None:
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
            runner.tracer.write(trace_path)
            print(f"spans: {trace_path.relative_to(ROOT)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = result["attempted"], result["failed"]
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"error_rate {failed / attempted if attempted else 1.0:.6g} ratio "
          f"({failed} failed / {attempted} attempted)")
    if result["first_error"]:
        print(f"first failure: {result['first_error']}")
    print(json.dumps({
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

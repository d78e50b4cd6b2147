#!/usr/bin/env python3
"""Round benchmark: seconds per Group-FEL global round, end to end.

    python3 roundbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a repository checkout; the program is imported
from the checkout's ``src/``. Each workload (``workloads.py``, ``NOTES.md``)
is a closed loop of one trainer: the next global round starts only when
the previous one, with its due evaluation and checkpoint, has finished.

``--trace 0`` times S × (the workload's nominal rounds per second) rounds
of a build from ``--seed`` for the end-to-end round metrics; ``setup_s`` is
the median of four more builds from a fixed trainer seed, two before that
window and two after it. ``--trace 1`` times half as
many rounds twice from the same seed, untraced and then traced, and
reports the per-layer budget (``layers.py``); the traced run's spans are
written as JSONL to ``roundbench/_out/<workload>.trace.jsonl``.

Outputs are checked (``checks.py``). The last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``, where an
operation is one timed global round; the line before it is the run
manifest; a metric table goes to stderr. Exit code 1 means a check
failed, 2 that the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Group-FEL round benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"roundbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from bench import measure, stop_processes
    from workloads import WORKLOADS

    spec = WORKLOADS.get(args.workload)
    if spec is None:
        print(
            f"roundbench: unknown workload {args.workload!r}; "
            f"known: {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    work = HERE / "_work"
    work.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=work)
    try:
        result, info = measure(
            spec, args.seed, args.seconds, bool(args.trace), workdir,
            out_dir=HERE / "_out",
        )
    finally:
        stop_processes()
        shutil.rmtree(workdir, ignore_errors=True)
    for name, m in result["metrics"].items():
        print(f"{name:28s} {m['value']!s:>24s} {m['unit']}", file=sys.stderr)
    for reason in info["failures"]:
        print(f"roundbench: FAILED: {reason}", file=sys.stderr)
    print(json.dumps({"manifest": info}, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Tiny-size self-test of the round benchmark (about a minute on 2 cores).

    python3 roundbench/selftest.py

Checks, on every workload shrunk to a tiny population:

* untraced and traced runs print every end-to-end and per-layer metric
  with its unit, pass their output checks, and load the layers the
  workload exists for;
* two runs of one seed produce the same history digest;
* a diverging input (the fast image workload at ``lr=50``, which reaches
  NaN within its warm-up) is reported as failed operations with a
  non-finite-output reason, never as a fast run.

Exit code 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from bench import END_TO_END, measure, stop_processes  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: per-layer metrics each workload must load (non-zero in its traced run)
LOADED = {
    "mlp-process": ["parallel.map_s", "parallel.tasks", "core.trainer.eval_s"],
    "resnet-paper": ["nn.conv2d.fwd_s", "nn.col2im_s", "nn.batchnorm.bwd_s",
                     "core.client.update_s", "grouping.form_s"],
    "audio-secure": ["nn.conv1d.bwd_s", "secure.secagg_s", "population.step_s",
                     "checkpoint.save_s", "checkpoint.bytes", "faults.injected",
                     "core.client.useful_frac"],
}


def _check(cond: bool, what: str, problems: list[str]) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        problems.append(what)


def _metrics_ok(result: dict, expected: list[tuple[str, str]]) -> bool:
    json.dumps(result, allow_nan=False)  # the result line must be strict JSON
    got = [(name, m["unit"]) for name, m in result["metrics"].items()]
    return got == expected and all(
        isinstance(m["value"], float) for m in result["metrics"].values()
    )


def main() -> int:
    problems: list[str] = []
    work = Path(tempfile.mkdtemp(prefix="roundbench-selftest-", dir=HERE))
    per_layer = [(name, unit) for name, unit, _, _ in PER_LAYER]
    try:
        for name, spec in WORKLOADS.items():
            first, info = measure(spec, 3, 1, False, str(work), tiny=True)
            _check(first["correct"] and _metrics_ok(first, END_TO_END),
                   f"{name}: end-to-end metrics, units and checks", problems)
            again, info_again = measure(spec, 3, 1, False, str(work), tiny=True)
            _check(info["digest"] == info_again["digest"] and again["correct"],
                   f"{name}: one seed, one history digest", problems)
            traced, _ = measure(spec, 3, 1, True, str(work), out_dir=work, tiny=True)
            _check(traced["correct"] and _metrics_ok(traced, per_layer),
                   f"{name}: per-layer metrics, units and checks", problems)
            idle = [m for m in LOADED[name] if not traced["metrics"][m]["value"]]
            _check(not idle, f"{name}: loads {', '.join(LOADED[name])}"
                   + (f" (idle: {idle})" if idle else ""), problems)
            _check((work / f"{name}.trace.jsonl").is_file(),
                   f"{name}: trace written as JSONL", problems)

        spec = WORKLOADS["mlp-process"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # overflow on the way to NaN
            diverged, info = measure(spec, 0, 1, False, str(work),
                                     trainer_overrides={"lr": 50.0})
        _check(not diverged["correct"] and diverged["failed"] == diverged["attempted"],
               f"diverging input: {diverged['failed']}/{diverged['attempted']} "
               "operations failed", problems)
        _check(any("non-finite" in reason for reason in info["failures"]),
               "diverging input: non-finite-output reason "
               f"({info['failures'][:1]})", problems)
        _check(diverged["metrics"]["rounds_per_s"]["value"] == 0.0,
               "diverging input: no throughput reported", problems)
    finally:
        stop_processes()
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(problems)} failed" if problems else "all checks passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

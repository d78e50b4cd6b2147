"""Measurement loop of the round benchmark (see ``run.py`` for the CLI).

An operation is one timed global round. Set-up (workload construction,
grouping, trainer build, pool start and the warm-up rounds) is timed
separately as ``setup_s``; warm-up rounds absorb pool spawn, first-call
allocation and OpenBLAS thread wake-up so they never reach round metrics.
The set-ups behind ``setup_s`` use the fixed trainer seed
:data:`SETUP_SEED`, so their warm-up rounds sample the same groups whatever
``--seed`` is; the timed window runs on one more set-up, from ``--seed``,
between the first and the second half of them.
"""

from __future__ import annotations

import ctypes
import gc
import math
import multiprocessing
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

from checks import history_digest, round_failures, round_samples
from layers import PER_LAYER, instrumented, instrumented_run, layer_metrics, self_time_table
from repro.checkpoint.state import config_fingerprint
from repro.core.callbacks import Callback
from repro.core.group import resolve_engine
from repro.telemetry import Telemetry
from workloads import POPULATION_SEED, build

__all__ = ["END_TO_END", "measure", "stop_processes"]

ROOT = Path(__file__).resolve().parent.parent

#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 4
#: trainer seed of those set-ups: which groups the warm-up rounds train is
#: then the same in every run, and ``setup_s`` does not follow ``--seed``
SETUP_SEED = POPULATION_SEED
#: fewest timed rounds of an untraced window (the tail percentile needs
#: more than ten); a traced run times half as many, twice
MIN_TIMED_ROUNDS = 20

END_TO_END: list[tuple[str, str]] = [
    ("setup_s", "s"),
    ("rounds_per_s", "1/s"),
    ("round_s_p50", "s"),
    ("round_s_tail", "s"),
    ("client_samples_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("final_test_loss", "nats"),
]


# ------------------------------------------------------------------ helpers
def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of ``n`` samples above it."""
    return max(0, math.floor(100 * (n - 10) / n))


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100 * len(ordered))) - 1]


def aligned(trainer, n: int) -> int:
    """``n`` rounded up so a window of ``n`` more rounds ends on an
    evaluation round, and no extra final evaluation runs inside it."""
    return n + (-(trainer.round_idx + n)) % trainer.config.eval_every


def _pool_pids() -> list[int]:
    """Pids of this process's pool workers (not the resource tracker)."""
    return [p.pid for p in multiprocessing.active_children()]


def stop_processes() -> None:
    """Stop every process this run started and wait for each to end: any
    pool worker still alive, then multiprocessing's resource tracker, which
    the shared-memory layer starts and which would otherwise outlive the
    run by the time it takes to notice its parent has gone."""
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()


def _peak_rss_mb(pid: int | str) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    return 0.0


def _commit() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas() -> dict:
    info: dict = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        pass
    libs = {
        line.split()[-1]
        for line in Path("/proc/self/maps").read_text().splitlines()
        if "openblas" in line.lower() and line.split()[-1].startswith("/")
    }
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
        ):
            if hasattr(handle, sym):
                info["threads"] = int(getattr(handle, sym)())
                return info
    return info


def _shm_segments() -> int:
    """Shared-memory segments mapped into this process right now."""
    maps = Path("/proc/self/maps").read_text().splitlines()
    return len({line.split()[-1] for line in maps if "/dev/shm/" in line})


class _RoundClock(Callback):
    """Stamps the end of every round (after its evaluation and checkpoint)
    and whether the global parameters are still all finite."""

    def __init__(self):
        self.stamps: list[float] = []
        self.finite: dict[int, bool] = {}

    def on_round_end(self, trainer, round_idx):
        self.stamps.append(time.perf_counter())
        self.finite[round_idx] = bool(np.isfinite(trainer.global_params).all())
        return False


# ------------------------------------------------------------------ windows
class Window:
    """One timed closed-loop window: ``n`` more rounds of a built trainer."""

    def __init__(self, setup, n: int):
        trainer = setup.trainer
        first = trainer.round_idx + 1
        self.rounds = range(first, first + n)
        clock = _RoundClock()
        trainer.callbacks.append(clock)
        error = None
        self.t0 = time.perf_counter()
        try:
            trainer.run(max_rounds=self.rounds.stop - 1)
        except Exception as exc:  # a raising round is a failed operation
            traceback.print_exc(file=sys.stderr)
            error = f"{type(exc).__name__}: {exc}"
        self.t1 = time.perf_counter()
        trainer.callbacks.remove(clock)
        self.wall = self.t1 - self.t0
        stamps = clock.stamps
        self.times = [b - a for a, b in zip([self.t0] + stamps[:-1], stamps)]
        done = range(first, first + len(stamps))
        self.failures = round_failures(
            trainer, setup.workload.cost_model, clock.finite, done
        )
        for r in self.rounds[len(stamps):]:
            self.failures[r] = (
                f"round {r} raised {error}" if r == done.stop else f"round {r} not run"
            )

    @property
    def ok_rounds(self) -> list[int]:
        return [r for r in self.rounds if r not in self.failures]

    def latencies(self) -> list[float]:
        """Per-round seconds; a failed round misses every latency limit."""
        times = self.times + [math.inf] * (len(self.rounds) - len(self.times))
        return [
            math.inf if r in self.failures else t for r, t in zip(self.rounds, times)
        ]


def build_and_warm(spec, seed, workdir, telemetry=None, span=None, **build_kw):
    """Set-up as ``setup_s`` measures it: build, then the warm-up rounds."""
    ckpt = tempfile.mkdtemp(prefix="ckpt-", dir=workdir)
    t0 = time.perf_counter()
    setup = build(spec, seed, telemetry=telemetry, checkpoint_dir=ckpt, span=span, **build_kw)
    setup.trainer.run(max_rounds=spec.warmup_rounds)
    return setup, time.perf_counter() - t0


def _manifest(spec, seed, setup, window: Window, extra: dict) -> dict:
    trainer = setup.trainer
    cfg = trainer.config
    batched = resolve_engine(cfg.engine, trainer.model, trainer.strategy)
    pmap = setup.pmap
    return {
        "workload": spec.name,
        "seed": seed,
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "backend": pmap.backend if pmap is not None else "serial",
        "live_workers": len(_pool_pids()) if pmap is not None else 0,
        "shared_memory": {
            "requested": cfg.shared_memory,
            "mapped_segments": _shm_segments(),
        },
        "engine": "batched" if batched else "reference",
        "sampling": trainer.history.extra.get("sampling"),
        "config_fingerprint": config_fingerprint(cfg, grouper=trainer.grouper),
        "warmup_rounds": spec.warmup_rounds,
        "timed_rounds": len(window.rounds),
        "tail_percentile": tail_percentile(len(window.rounds)),
        **extra,
    }


def _result(attempted, failures: dict, values: dict, units) -> dict:
    """The result line. A failure keyed by something other than an
    attempted round is a run-level check, and fails every round."""
    attempted = list(attempted)
    failed = sum(1 for k in attempted if k in failures)
    if len(failures) > failed:
        failed = len(attempted)
    metrics = {}
    for name, unit in units:
        v = float(values[name])
        metrics[name] = {"value": v if math.isfinite(v) else None, "unit": unit}
    return {
        "correct": failed == 0,
        "attempted": len(attempted),
        "failed": failed,
        "metrics": metrics,
    }


# ------------------------------------------------------------------ modes
def measure(spec, seed: int, seconds: float, trace: bool, workdir: str,
            out_dir: Path | None = None, **build_kw) -> tuple[dict, dict]:
    """Run one workload; returns (result line, manifest).

    The window holds ``seconds`` × the workload's nominal rounds per second
    rounds, so one seed always runs the same rounds whatever the machine.
    """
    n = max(MIN_TIMED_ROUNDS, round(seconds * spec.rounds_per_second))
    if trace:
        return _measure_traced(spec, seed, n // 2, workdir, out_dir, build_kw)
    setup_times, warm_digests = [], []

    def timed_setups(count: int) -> None:
        for _ in range(count):
            setup, took = build_and_warm(spec, SETUP_SEED, workdir, **build_kw)
            setup_times.append(took)
            warm_digests.append(history_digest(setup.trainer))
            setup.close()
            del setup  # the next set-up's pool then forks from a parent without it
            gc.collect()

    # Half the timed set-ups run before the window and half after it, so
    # their median spans the run's machine-speed swings, not a few seconds.
    timed_setups(SETUP_REPEATS // 2)
    setup, run_setup_s = build_and_warm(spec, seed, workdir, **build_kw)
    try:
        gc.collect()
        window = Window(setup, aligned(setup.trainer, n))
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rss += sum(_peak_rss_mb(pid) for pid in _pool_pids())
        trainer = setup.trainer
        samples = round_samples(trainer, window.ok_rounds)
        final_loss = trainer.history.test_loss[-1]
        info = _manifest(spec, seed, setup, window, {
            "run_setup_s": run_setup_s,
            "digest": history_digest(trainer),
        })
    finally:
        setup.close()
    del setup, trainer
    gc.collect()
    timed_setups(SETUP_REPEATS - SETUP_REPEATS // 2)
    failures = dict(window.failures)
    if len(set(warm_digests)) != 1:
        failures["setup"] = "warm-up histories differ between set-ups of one seed"
    # a failed run-level check fails every round: no throughput at all
    run_failed = not set(failures) <= set(window.rounds)
    latencies = [math.inf] * len(window.rounds) if run_failed else window.latencies()
    values = {
        "setup_s": statistics.median(setup_times),
        "rounds_per_s": (0 if run_failed else len(window.ok_rounds)) / window.wall,
        "round_s_p50": statistics.median(latencies),
        "round_s_tail": nearest_rank(latencies, tail_percentile(len(latencies))),
        "client_samples_per_s": (0 if run_failed else samples) / window.wall,
        "peak_rss_mb": rss,
        "final_test_loss": final_loss,
    }
    info.update(setup_s_samples=setup_times, failures=sorted(set(failures.values())))
    return _result(window.rounds, failures, values, END_TO_END), info


def _measure_traced(spec, seed, n, workdir, out_dir, build_kw):
    """The same ``n`` rounds from one seed, untraced and then traced: the
    traced run gives the layer budget, the pair gives the trace overhead,
    and their histories must be identical."""
    setup, _ = build_and_warm(spec, seed, workdir, **build_kw)
    try:
        gc.collect()
        plain = Window(setup, aligned(setup.trainer, n))
        plain_digest = history_digest(setup.trainer)
    finally:
        setup.close()
    del setup
    gc.collect()
    tel = Telemetry(label=f"roundbench/{spec.name}/seed{seed}")
    with instrumented(tel):
        t_setup = time.perf_counter()
        setup, _ = build_and_warm(spec, seed, workdir, telemetry=tel, span=tel.span,
                                  **build_kw)
        try:
            with instrumented_run(tel, setup):
                gc.collect()
                before = tel.metrics.snapshot()
                traced = Window(setup, len(plain.rounds))
            values, table = layer_metrics(
                tel, (t_setup, traced.t0), (traced.t0, traced.t1), len(traced.rounds), before,
                overhead=traced.wall / plain.wall - 1.0,
            )
            failures = {("untraced", r): why for r, why in plain.failures.items()}
            failures.update({("traced", r): why for r, why in traced.failures.items()})
            if history_digest(setup.trainer) != plain_digest:
                failures["digest"] = "traced history differs from the untraced one"
            info = _manifest(spec, seed, setup, traced, {
                "digest": plain_digest,
                "failures": sorted(set(failures.values())),
            })
        finally:
            setup.close()
    print(self_time_table(table, values["round.wall_s"], values["round.unattributed_s"]),
          file=sys.stderr)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        tel.meta.update(info, self_time=table)
        tel.to_jsonl(str(out_dir / f"{spec.name}.trace.jsonl"))
    attempted = [("untraced", r) for r in plain.rounds] + [
        ("traced", r) for r in traced.rounds
    ]
    units = [(name, unit) for name, unit, _, _ in PER_LAYER]
    return _result(attempted, failures, values, units), info

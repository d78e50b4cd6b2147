"""Per-layer time budget of a traced run.

The program's own ``repro.telemetry`` spans and counters cover the round,
population, sampling, group, client-update, SecAgg, backdoor, aggregation
and checkpoint layers. Layers with no span get benchmark-side timing
wrappers around their public functions (:func:`instrumented`); the
wrappers record into the same tracer, so every layer lands in one span
tree. Worker processes run with telemetry off, so the wrappers skip
themselves there and process-backend local training shows only inside
``parallel.map``.

Every ``*_s`` metric is inclusive busy seconds per timed round (per set-up
for the set-up layers); ``*.self_s`` subtracts the time covered by child
spans. Counts are per timed round.
"""

from __future__ import annotations

import functools
import os
from contextlib import ExitStack, contextmanager
from unittest import mock

__all__ = ["PER_LAYER", "instrumented", "layer_metrics", "self_time_table"]

#: (metric, unit, source kind, source name). Kinds: ``setup`` = a span in
#: the traced set-up; ``span`` / ``self`` = inclusive / self time of a span
#: in the timed window; ``counter`` / ``hist`` = a telemetry counter or
#: histogram total accrued in the timed window; ``gauge`` = its last value;
#: ``derived`` = computed in :func:`layer_metrics`.
PER_LAYER: list[tuple[str, str, str, str]] = [
    ("data.synth_s", "s", "setup", "data.synth"),
    ("grouping.form_s", "s", "setup", "grouping.form"),
    ("core.trainer.build_s", "s", "setup", "core.trainer.build"),
    ("parallel.pool_start_s", "s", "setup", "parallel.pool_start"),
    ("round.wall_s", "s/round", "derived", ""),
    ("round.unattributed_s", "s/round", "derived", ""),
    ("trace.overhead_frac", "ratio", "derived", ""),
    ("parallel.map_s", "s/round", "span", "parallel.map"),
    ("parallel.dispatch_s", "s/round", "hist", "pool.dispatch_s"),
    ("parallel.tasks", "count/round", "counter", "pool.tasks"),
    ("population.step_s", "s/round", "span", "population"),
    ("population.step.self_s", "s/round", "self", "population"),
    ("population.maintain_s", "s/round", "span", "population_maintain"),
    ("population.joins", "count/round", "counter", "population.joins"),
    ("population.leaves", "count/round", "counter", "population.leaves"),
    ("population.drifts", "count/round", "counter", "population.drifts"),
    ("population.regroups_full", "count/round", "counter", "population.regroups_full"),
    ("sampling.sample_s", "s/round", "span", "sample"),
    ("sampling.gamma_p", "1", "gauge", "gamma_p"),
    ("core.group.round_s", "s/round", "span", "group"),
    ("core.group.self_s", "s/round", "self", "group"),
    ("core.client.update_s", "s/round", "span", "client_update"),
    ("core.client.update.self_s", "s/round", "self", "client_update"),
    ("core.client.updates", "count/round", "counter", "client_updates"),
    ("core.client.samples", "count/round", "counter", "samples_trained"),
    ("core.client.local_steps", "count/round", "counter", "local_steps"),
    ("core.client.useful_frac", "ratio", "derived", ""),
    ("nn.conv2d.fwd_s", "s/round", "span", "nn.conv2d.fwd"),
    ("nn.conv2d.fwd.self_s", "s/round", "self", "nn.conv2d.fwd"),
    ("nn.conv2d.bwd_s", "s/round", "span", "nn.conv2d.bwd"),
    ("nn.conv2d.bwd.self_s", "s/round", "self", "nn.conv2d.bwd"),
    ("nn.im2col_s", "s/round", "span", "nn.im2col"),
    ("nn.col2im_s", "s/round", "span", "nn.col2im"),
    ("nn.batchnorm.fwd_s", "s/round", "span", "nn.batchnorm.fwd"),
    ("nn.batchnorm.bwd_s", "s/round", "span", "nn.batchnorm.bwd"),
    ("nn.conv1d.fwd_s", "s/round", "span", "nn.conv1d.fwd"),
    ("nn.conv1d.fwd.self_s", "s/round", "self", "nn.conv1d.fwd"),
    ("nn.conv1d.bwd_s", "s/round", "span", "nn.conv1d.bwd"),
    ("nn.conv1d.bwd.self_s", "s/round", "self", "nn.conv1d.bwd"),
    ("nn.im2col_1d_s", "s/round", "span", "nn.im2col_1d"),
    ("nn.col2im_1d_s", "s/round", "span", "nn.col2im_1d"),
    ("nn.pool.fwd_s", "s/round", "span", "nn.pool.fwd"),
    ("nn.pool.bwd_s", "s/round", "span", "nn.pool.bwd"),
    ("nn.dense.fwd_s", "s/round", "span", "nn.dense.fwd"),
    ("nn.dense.bwd_s", "s/round", "span", "nn.dense.bwd"),
    ("nn.optim.step_s", "s/round", "span", "nn.optim.step"),
    ("nn.batched.local_rounds_s", "s/round", "span", "nn.batched.local_rounds"),
    ("core.trainer.eval_s", "s/round", "span", "core.trainer.eval"),
    ("core.trainer.eval.self_s", "s/round", "self", "core.trainer.eval"),
    ("secure.secagg_s", "s/round", "span", "secagg"),
    ("secure.backdoor_s", "s/round", "span", "backdoor"),
    ("secure.reconstructions", "count/round", "counter", "secagg.reconstructions"),
    ("secure.bytes_masked", "B/round", "counter", "secagg_bytes_masked"),
    ("secure.clients_banned", "count/round", "counter", "clients_banned"),
    ("faults.injected", "count/round", "counter", "faults.injected"),
    ("core.aggregation.group_s", "s/round", "span", "aggregate"),
    ("core.aggregation.cloud_s", "s/round", "span", "cloud_aggregate"),
    ("costs.charge_s", "s/round", "span", "costs.charge"),
    ("checkpoint.save_s", "s/round", "span", "checkpoint_save"),
    ("checkpoint.save.self_s", "s/round", "self", "checkpoint_save"),
    ("checkpoint.capture_s", "s/round", "span", "checkpoint.capture"),
    ("checkpoint.bytes", "B/round", "counter", "checkpoint.bytes"),
]

#: counter the aggregation wrappers feed: client updates that reached an
#: aggregate (the numerator of ``core.client.useful_frac``)
AGGREGATED = "roundbench.aggregated_updates"


def _timed(fn, name: str, tel, pid: int):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if os.getpid() != pid:  # a forked pool worker: telemetry is off there
            return fn(*args, **kwargs)
        with tel.span(name):
            return fn(*args, **kwargs)

    return wrapper


def _counting(fn, rows, tel, pid: int):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if os.getpid() == pid:
            tel.inc(AGGREGATED, float(rows(*args, **kwargs)))
        return fn(*args, **kwargs)

    return wrapper


@contextmanager
def instrumented(tel):
    """Install every benchmark-side wrapper, recording into ``tel``, for
    the duration of the block (process-wide: layer classes are shared)."""
    from repro.baselines import registry
    from repro.core import group, trainer
    from repro.nn import extra_layers, layers, optim
    from repro.secure import dropout, secagg

    pid = os.getpid()
    timed = [
        (layers.Conv2d, "forward", "nn.conv2d.fwd"),
        (layers.Conv2d, "backward", "nn.conv2d.bwd"),
        (layers.Conv1d, "forward", "nn.conv1d.fwd"),
        (layers.Conv1d, "backward", "nn.conv1d.bwd"),
        (layers, "im2col", "nn.im2col"),
        (layers, "col2im", "nn.col2im"),
        (layers, "im2col_1d", "nn.im2col_1d"),
        (layers, "col2im_1d", "nn.col2im_1d"),
        (layers._BatchNormBase, "forward", "nn.batchnorm.fwd"),
        (layers._BatchNormBase, "backward", "nn.batchnorm.bwd"),
        (layers.BatchNorm1d, "forward", "nn.batchnorm.fwd"),
        (layers.Dense, "forward", "nn.dense.fwd"),
        (layers.Dense, "backward", "nn.dense.bwd"),
        (optim.SGD, "step", "nn.optim.step"),
        (group, "batched_local_rounds", "nn.batched.local_rounds"),
        (trainer, "capture_state", "checkpoint.capture"),
        (trainer.GroupFELTrainer, "__init__", "core.trainer.build"),
        (trainer.GroupFELTrainer, "evaluate", "core.trainer.eval"),
        (registry, "group_clients_per_edge", "grouping.form"),
    ]
    for cls in (
        layers.MaxPool1d,
        layers.MaxPool2d,
        layers.GlobalAvgPool1d,
        layers.GlobalAvgPool2d,
        extra_layers.AvgPool1d,
        extra_layers.AvgPool2d,
    ):
        timed += [(cls, "forward", "nn.pool.fwd"), (cls, "backward", "nn.pool.bwd")]
    counted = [
        (group, "weighted_average", lambda params, *a, **k: len(params)),
        (
            secagg.SecureAggregator,
            "aggregate_weighted",
            lambda self, vectors, *a, **k: len(vectors),
        ),
        (
            dropout.DropoutTolerantAggregator,
            "aggregate",
            lambda self, vectors, dropped=(), *a, **k: len(vectors) - len(dropped),
        ),
    ]
    with ExitStack() as stack:
        for obj, attr, name in timed:
            stack.enter_context(
                mock.patch.object(obj, attr, _timed(getattr(obj, attr), name, tel, pid))
            )
        for obj, attr, rows in counted:
            stack.enter_context(
                mock.patch.object(obj, attr, _counting(getattr(obj, attr), rows, tel, pid))
            )
        yield


@contextmanager
def instrumented_run(tel, setup):
    """Per-instance wrappers of one built trainer: cost charging and the
    parent's wait inside ``ParallelMap.map``."""
    pid = os.getpid()
    with ExitStack() as stack:
        ledger = setup.trainer.ledger
        stack.enter_context(
            mock.patch.object(
                ledger, "charge_round", _timed(ledger.charge_round, "costs.charge", tel, pid)
            )
        )
        if setup.pmap is not None:
            pmap = setup.pmap
            stack.enter_context(
                mock.patch.object(pmap, "map", _timed(pmap.map, "parallel.map", tel, pid))
            )
        yield


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _span_times(spans, t0: float, t1: float):
    """``name -> (count, inclusive s, self s)`` over spans starting in
    [t0, t1]; a span directly inside one of its own name counts once."""
    by_id = {s.span_id: s for s in spans}
    children: dict[int, list] = {}
    for s in spans:
        if s.parent_id is not None:
            children.setdefault(s.parent_id, []).append(s)
    out: dict[str, list[float]] = {}
    for s in spans:
        if not t0 <= s.t_start <= t1:
            continue
        parent = by_id.get(s.parent_id)
        kids = [(c.t_start, c.t_end) for c in children.get(s.span_id, ())]
        row = out.setdefault(s.name, [0, 0.0, 0.0])
        row[2] += s.duration - _covered(kids)
        if parent is not None and parent.name == s.name:
            continue
        row[0] += 1
        row[1] += s.duration
    return {k: tuple(v) for k, v in out.items()}


def _unattributed(spans, t0: float, t1: float) -> float:
    """Timed wall time not inside any layer span: gaps between rounds,
    evaluations and checkpoints plus the round span's own self time."""
    by_id = {s.span_id: s for s in spans}
    top = []
    for s in spans:
        if not t0 <= s.t_start <= t1:
            continue
        parent = by_id.get(s.parent_id)
        if parent is None and s.name != "round":
            top.append((s.t_start, s.t_end))
        elif parent is not None and parent.name == "round" and parent.parent_id is None:
            top.append((s.t_start, s.t_end))
    return (t1 - t0) - _covered(top)


def layer_metrics(
    tel, setup_window, timed_window, rounds: int, before: dict, overhead: float
) -> tuple[dict[str, float], dict]:
    """Every :data:`PER_LAYER` metric, plus the full self-time table.

    ``before`` is the telemetry metrics snapshot taken at the start of the
    timed window; counters and histograms report what accrued after it.
    """
    spans = tel.tracer.spans()
    setup_times = _span_times(spans, *setup_window)
    times = _span_times(spans, *timed_window)
    after = tel.metrics.snapshot()

    def accrued(kind: str, name: str) -> float:
        if kind == "counter":
            return after["counters"].get(name, 0.0) - before["counters"].get(name, 0.0)
        old = before["histograms"].get(name, {}).get("sum", 0.0)
        return after["histograms"].get(name, {}).get("sum", 0.0) - old

    wall = timed_window[1] - timed_window[0]
    updates = accrued("counter", "client_updates")
    derived = {
        "round.wall_s": wall / rounds,
        "round.unattributed_s": _unattributed(spans, *timed_window) / rounds,
        "trace.overhead_frac": overhead,
        "core.client.useful_frac": (
            accrued("counter", AGGREGATED) / updates if updates else 0.0
        ),
    }
    values: dict[str, float] = {}
    for metric, _unit, kind, source in PER_LAYER:
        if kind == "derived":
            values[metric] = derived[metric]
        elif kind == "setup":
            values[metric] = setup_times.get(source, (0, 0.0, 0.0))[1]
        elif kind == "span":
            values[metric] = times.get(source, (0, 0.0, 0.0))[1] / rounds
        elif kind == "self":
            values[metric] = times.get(source, (0, 0.0, 0.0))[2] / rounds
        elif kind == "gauge":
            values[metric] = after["gauges"].get(source, 0.0)
        else:
            values[metric] = accrued(kind, source) / rounds
    table = {
        name: {
            "count": count / rounds,
            "inclusive_s": incl / rounds,
            "self_s": self_s / rounds,
            "self_share": self_s / wall,
        }
        for name, (count, incl, self_s) in times.items()
    }
    return values, table


def self_time_table(table: dict, wall_per_round: float, unattributed: float) -> str:
    """Human-readable per-layer self-time budget, largest first."""
    lines = [f"{'span':28s} {'calls/rnd':>10s} {'incl s/rnd':>11s} {'self s/rnd':>11s} {'self %':>7s}"]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        if name == "round":
            continue  # its self time is part of the unattributed residual
        lines.append(
            f"{name:28s} {row['count']:10.1f} {row['inclusive_s']:11.5f} "
            f"{row['self_s']:11.5f} {100 * row['self_share']:6.1f}%"
        )
    lines.append(
        f"{'(unattributed)':28s} {'':10s} {'':11s} {unattributed:11.5f} "
        f"{100 * unattributed / wall_per_round:6.1f}%"
    )
    return "\n".join(lines)

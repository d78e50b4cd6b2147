"""Output checks on a finished run and the history digest.

A round fails when anything it produced is wrong: non-finite global
parameters after it, a non-finite loss or accuracy recorded at it, or a
ledger charge that differs from the Eq. 5 cost recomputed independently
from ``trainer.sampled_history`` through ``repro.costs``. Failed rounds are
reported as failed operations, never as throughput.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

__all__ = ["round_failures", "history_digest", "round_samples"]


def _eq5_costs(trainer, cost_model) -> list[float]:
    """Eq. 5 per-round cost of every sampled round, from first principles."""
    sizes = np.asarray(trainer.fed.client_sizes(), dtype=np.int64)
    cfg = trainer.config
    return [
        cost_model.global_round_cost(
            [g.size for g in groups],
            [sizes[g.members] for g in groups],
            cfg.group_rounds,
            cfg.local_rounds,
        )
        for groups in trainer.sampled_history
    ]


def round_failures(
    trainer, cost_model, params_finite: dict[int, bool], rounds: range
) -> dict[int, str]:
    """``{round: reason}`` for every round in ``rounds`` that failed a check.

    Rounds are numbered as ``trainer.round_idx`` after the round (1-based);
    ``params_finite`` maps each to whether the global parameters were all
    finite right after it.
    """
    failures: dict[int, str] = {}
    for r in rounds:
        if not params_finite.get(r, False):
            failures[r] = f"non-finite global parameters after round {r}"
    hist = trainer.history
    for r, loss, acc in zip(hist.rounds, hist.test_loss, hist.test_acc):
        if r in rounds and not (math.isfinite(loss) and math.isfinite(acc)):
            failures.setdefault(r, f"non-finite test loss/accuracy at round {r}")
    charged = trainer.ledger.round_costs
    expected = _eq5_costs(trainer, cost_model)
    for r in rounds:
        if r > min(len(charged), len(expected)):
            failures.setdefault(r, f"no ledger charge or sampled groups for round {r}")
            continue
        got, want = charged[r - 1], expected[r - 1]
        if not math.isclose(got, want, rel_tol=1e-12):
            failures.setdefault(
                r, f"ledger charged {got!r} at round {r}, Eq. 5 gives {want!r}"
            )
    return failures


def round_samples(trainer, rounds: range) -> int:
    """Σ n_i·K·E over the members of the groups sampled in ``rounds``."""
    sizes = np.asarray(trainer.fed.client_sizes(), dtype=np.int64)
    cfg = trainer.config
    members = sum(
        int(sizes[g.members].sum())
        for r in rounds
        for g in trainer.sampled_history[r - 1]
    )
    return members * cfg.group_rounds * cfg.local_rounds


def history_digest(trainer) -> str:
    """SHA-256 over everything one seed must reproduce exactly: per-round
    ledger cost and sampled group ids, every recorded (round, acc, loss),
    and the fault and population trace signatures."""
    h = hashlib.sha256()
    for cost, groups in zip(trainer.ledger.round_costs, trainer.sampled_history):
        ids = ",".join(str(g.group_id) for g in groups)
        h.update(f"cost={cost!r};groups={ids}\n".encode())
    hist = trainer.history
    for r, acc, loss in zip(hist.rounds, hist.test_acc, hist.test_loss):
        h.update(f"eval={r}:{acc!r}:{loss!r}\n".encode())
    h.update(f"faults={trainer.fault_trace.signature()}\n".encode())
    h.update(f"population={trainer.population_trace.signature()}\n".encode())
    return h.hexdigest()

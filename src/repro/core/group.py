"""Edge-side group round (Algorithm 1, Lines 8–14).

One call = the K group rounds for one sampled group: every client starts
from the current group model, runs E local rounds, and the edge server
aggregates the client models weighted by n_i/n_g. Optionally, the group
aggregation actually runs through secure aggregation + backdoor detection
(the group operations the cost model charges for), and a
:class:`repro.faults.FaultPlan` injects client dropouts, stragglers, and
lossy uplinks into the round.
"""

from __future__ import annotations

import numpy as np

from repro.core.aggregation import weighted_average
from repro.core.client import run_local_rounds
from repro.core.strategies import (
    FedProxStrategy,
    LocalStrategy,
    PlainSGDStrategy,
    ScaffoldStrategy,
)
from repro.data.client_data import ClientDataset
from repro.faults.trace import FaultEvent
from repro.grouping.base import Group
from repro.nn.batched import batched_local_rounds, supports_batched_training
from repro.nn.model import Model
from repro.nn.optim import SGD
from repro.rng import make_rng
from repro.secure.backdoor import BackdoorDetector
from repro.secure.dropout import DropoutTolerantAggregator
from repro.secure.secagg import SecureAggregator
from repro.telemetry import Telemetry, resolve as resolve_telemetry

__all__ = ["run_group_round", "resolve_engine"]

#: strategies whose batched hooks are verified bit-identical to the scalar
#: path — ``engine="auto"`` only batches these; custom strategies must opt
#: in explicitly with ``engine="batched"`` (their default
#: ``batched_grad_offset`` delegates row-by-row, but ``after_local``
#: ordering moves to after the lockstep loop, which a cross-client-coupled
#: strategy could observe).
_AUTO_BATCHED_STRATEGIES = (PlainSGDStrategy, FedProxStrategy, ScaffoldStrategy)

#: Shamir threshold of the SecAgg recovery path: reconstructing a lost
#: client's masks takes seed shares from two live shareholders
_RECOVERY_THRESHOLD = 2


def resolve_engine(
    engine: str, model: Model, strategy: LocalStrategy | None
) -> bool:
    """Decide whether the batched engine replaces the per-client loop.

    ``"reference"`` → never; ``"batched"`` → always (raises if the model
    has layers the engine cannot stack); ``"auto"`` → only when the model
    is stackable *and* the strategy is one of the in-tree trio.
    """
    if engine == "reference":
        return False
    if engine == "batched":
        if not supports_batched_training(model):
            raise ValueError(
                "engine='batched' requires a Dense/ReLU/LeakyReLU model; "
                "use engine='auto' or 'reference' for other architectures"
            )
        return True
    if engine != "auto":
        raise ValueError(
            f"engine must be 'auto', 'batched' or 'reference', got {engine!r}"
        )
    return supports_batched_training(model) and (
        strategy is None or type(strategy) in _AUTO_BATCHED_STRATEGIES
    )


def _narrow(
    weights: np.ndarray, alive: np.ndarray, keep: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Shrink the survivor mask to ``keep``; when that removes anyone, the
    weights renormalize over the new survivors (zero elsewhere)."""
    if np.array_equal(keep, alive):
        return weights, alive
    out = np.zeros_like(weights)
    out[keep] = weights[keep] / weights[keep].sum()
    return out, keep


def run_group_round(
    model: Model,
    optimizer: SGD,
    group: Group,
    clients: list[ClientDataset],
    global_params: np.ndarray,
    group_rounds: int,
    local_rounds: int,
    batch_size: int,
    rng: np.random.Generator | int | None = None,
    strategy: LocalStrategy | None = None,
    step_mode: str = "epoch",
    secure_aggregator: SecureAggregator | None = None,
    backdoor_detector: BackdoorDetector | None = None,
    round_id: int = 0,
    compressor=None,
    update_transforms: dict | None = None,
    telemetry: Telemetry | None = None,
    parent_span_id: int | None = None,
    fault_plan=None,
    fault_events: list | None = None,
    engine: str = "auto",
) -> np.ndarray:
    """Run the K×(clients×E) loop for one group; returns the group model.

    Each group round is one pipeline over a boolean survivor mask indexed
    by member: fault-plan decisions → local training → attacks and
    compression on the uploads → stragglers and uplink loss → the session
    ban list → the backdoor defense → one aggregation.

    Parameters
    ----------
    clients:
        The full client list, indexed by the group's member ids.
    secure_aggregator:
        When set, each group aggregation is performed through pairwise-
        masked secure aggregation (clients pre-scale by their weight)
        instead of a plain weighted average — functionally identical up to
        fixed-point rounding, but exercising the real group operation. When
        an upload is lost after masking, the round runs the dropout-
        tolerant protocol instead (:class:`repro.secure.DropoutTolerantAggregator`,
        Shamir threshold 2): survivors' seed shares reconstruct and cancel
        the lost clients' masks. Every client that uploaded stays in that
        session as a shareholder; banned and flagged ones send a zero vector.
    backdoor_detector:
        When set, client *updates* (delta from the group model) pass the
        clustering defense before aggregation; flagged clients are dropped
        from this group round and banned for the rest of the session.
    compressor:
        Optional update compressor (``repro.compression``): each client's
        update is compressed (lossy) before leaving the device, and the
        decoded reconstruction is what the edge aggregates. An
        ``ErrorFeedback`` wrapper is also accepted (keyed by client id).
    telemetry / parent_span_id:
        Optional :class:`repro.telemetry.Telemetry`: the whole call is
        timed as a ``group`` span with ``client_update`` / ``secagg`` /
        ``backdoor`` / ``aggregate`` children. ``parent_span_id`` stitches
        the span under the trainer's ``round`` span when this call runs on
        a pool worker thread (thread-local nesting covers the serial path).
    fault_plan / fault_events:
        Optional :class:`repro.faults.FaultPlan`: every group round asks
        the plan (pure, keyed decisions) which clients drop — ``before``
        (no compute), ``mid`` (compute burned, no upload) or ``after``
        (upload masked then lost) — which uploads straggle, and which are
        lost on the uplink after retries. Injected faults are appended to
        ``fault_events`` (a plain list; the trainer merges and meters).
    engine:
        ``"auto"`` (default) trains the whole group through the stacked
        :func:`repro.nn.batched.batched_local_rounds` engine whenever the
        model and strategy support it — bit-identical to the per-client
        loop; ``"batched"`` forces it (raising on unsupported models);
        ``"reference"`` keeps the per-client loop (the retained slow path
        differential tests compare against).
    """
    use_batched = resolve_engine(engine, model, strategy)
    tel = resolve_telemetry(telemetry)
    rng = make_rng(rng)
    events = fault_events if fault_events is not None else []
    members = [clients[int(cid)] for cid in group.members]
    n = len(members)
    n_i = np.array([c.n for c in members], dtype=np.float64)
    n_g = n_i.sum()
    if n_g <= 0:
        raise ValueError(f"group {group.group_id} has no data")
    data_weights = n_i / n_g
    gid = group.group_id

    # A caller-supplied optimizer may have been used before; clear any
    # momentum/step state up front so nothing leaks into this group's first
    # client update (run_local_rounds also resets per client — this guards
    # direct call sites and custom strategies that bypass it).
    optimizer.reset_state()

    group_params = global_params.copy()  # Line 8: x^g_{t,0} = x_t
    client_params = np.empty((n, group_params.shape[0]))
    client_rngs = rng.spawn(n)
    recovery = None
    if secure_aggregator is not None:
        recovery = DropoutTolerantAggregator(
            threshold=_RECOVERY_THRESHOLD, codec=secure_aggregator.codec
        )
    #: fewest members that must deliver an update: one to aggregate, or
    #: the Shamir threshold when SecAgg may have to recover lost uploads
    min_alive = 1 if recovery is None else min(_RECOVERY_THRESHOLD, n)
    #: members the defense flagged earlier in this group session
    banned = np.zeros(n, dtype=bool)

    with tel.span(
        "group",
        parent_id=parent_span_id,
        group_id=gid,
        edge_id=group.edge_id,
        size=n,
    ):
        for k in range(group_rounds):
            # 1. Fault-plan decisions (pure, keyed by ids), taken before
            # training so a 'before' dropout skips compute.
            drop_phase: dict[int, str] = {}
            if fault_plan is not None:
                for idx, client in enumerate(members):
                    phase = fault_plan.client_dropout(
                        round_id, gid, k, client.client_id
                    )
                    if phase is not None:
                        drop_phase[idx] = phase
                # Never let dropouts kill the whole aggregation: spare
                # clients (lowest member index first — deterministic on any
                # backend) until min_alive can deliver.
                while n - len(drop_phase) < min_alive and drop_phase:
                    del drop_phase[min(drop_phase)]

            # 2. Local training. 'before'-drops never train (and never
            # touch their RNG); 'mid'-drops train, then upload nothing.
            train_idx = [i for i in range(n) if drop_phase.get(i) != "before"]
            if use_batched:
                if train_idx:
                    with tel.span(
                        "client_update", k=k, clients=len(train_idx),
                        batched=True,
                    ):
                        client_params[train_idx] = batched_local_rounds(
                            model,
                            optimizer,
                            [members[i] for i in train_idx],
                            start_params=group_params,
                            local_rounds=local_rounds,
                            batch_size=batch_size,
                            rngs=[client_rngs[i] for i in train_idx],
                            strategy=strategy,
                            anchor=group_params,
                            step_mode=step_mode,
                            telemetry=tel,
                        )
            else:
                for i in train_idx:
                    with tel.span(
                        "client_update", client_id=members[i].client_id, k=k
                    ):
                        client_params[i], _ = run_local_rounds(
                            model,
                            optimizer,
                            members[i],
                            start_params=group_params,
                            local_rounds=local_rounds,
                            batch_size=batch_size,
                            rng=client_rngs[i],
                            strategy=strategy,
                            anchor=group_params,
                            step_mode=step_mode,
                            telemetry=tel,
                        )
            # 'before'/'mid' drops upload nothing (a zero update keeps the
            # buffers well-defined); their events land in member order.
            uploaded = np.ones(n, dtype=bool)
            for idx, phase in drop_phase.items():
                if phase != "after":
                    uploaded[idx] = False
                    client_params[idx] = group_params
                    events.append(FaultEvent(
                        "dropout", round_id, gid, members[idx].client_id,
                        k, phase,
                    ))

            # 3. Adversarial clients manipulate their upload
            # (repro.attacks), then it is compressed before leaving the
            # device.
            params_k = client_params
            updates = client_params - group_params
            senders = np.flatnonzero(uploaded)
            if update_transforms:
                for idx in senders:
                    attack = update_transforms.get(members[idx].client_id)
                    if attack is not None:
                        updates[idx] = attack.transform_update(updates[idx], rng=rng)
                params_k = group_params + updates
            if compressor is not None:
                from repro.compression.error_feedback import ErrorFeedback

                for idx in senders:
                    if isinstance(compressor, ErrorFeedback):
                        out = compressor.compress(
                            members[idx].client_id, updates[idx], rng=rng
                        )
                    else:
                        out = compressor.compress(updates[idx], rng=rng)
                    updates[idx] = out.decoded
                params_k = group_params + updates

            # 4. Stragglers and uplink loss. An 'after' dropout and an upload
            # lost on every retry both vanish after masking.
            lost = np.array(
                [drop_phase.get(i) == "after" for i in range(n)], dtype=bool
            )
            if fault_plan is not None:
                for idx in np.flatnonzero(uploaded & ~lost):
                    cid = members[idx].client_id
                    delay = fault_plan.straggler_delay(round_id, gid, k, cid)
                    if delay > 0.0:
                        events.append(FaultEvent(
                            "straggler", round_id, gid, cid, k, delay_s=delay,
                        ))
                    up = fault_plan.uplink(round_id, gid, k, cid)
                    if up.retries or not up.delivered:
                        events.append(FaultEvent(
                            "message_loss", round_id, gid, cid, k,
                            phase="lost" if not up.delivered else "retried",
                            delay_s=up.delay_s,
                            retries=up.retries,
                        ))
                    if not up.delivered:
                        # All retries exhausted: the masked upload is gone.
                        lost[idx] = True
                for idx, phase in drop_phase.items():
                    if phase == "after":
                        events.append(FaultEvent(
                            "dropout", round_id, gid, members[idx].client_id,
                            k, "after",
                        ))
                # Keep the aggregation (and Shamir reconstruction) viable.
                while (uploaded & ~lost).sum() < min_alive and lost.any():
                    lost[np.flatnonzero(lost)[0]] = False

            # 5. The session ban list: clients flagged in an earlier group
            # round stay out (re-admitting a detected attacker at k+1 would
            # re-implant whatever the defense just removed), unless that
            # leaves nobody. Each stage that removes someone renormalizes
            # the weights over who is left.
            delivered = uploaded & ~lost
            unbanned = delivered & ~banned
            if not unbanned.any():
                unbanned = delivered
            weights, alive = data_weights, np.ones(n, dtype=bool)
            for keep in (uploaded, delivered, unbanned):
                weights, alive = _narrow(weights, alive, keep)
            ids = np.flatnonzero(alive)
            rows = slice(None) if ids.size == n else ids
            vecs, w = updates[rows], weights[rows]

            # 6. The backdoor defense over the clients still alive; flagged
            # clients are banned for the rest of the session.
            defended = backdoor_detector is not None and ids.size > 1
            if defended:
                with tel.span("backdoor", k=k, clients=int(ids.size)):
                    report = backdoor_detector.detect(vecs, rng=rng)
                banned[ids[report.flagged]] = True
                if tel.enabled and len(report.flagged):
                    tel.inc("clients_banned", float(len(report.flagged)))
                # Aggregate the defended (clipped) updates of admitted
                # clients.
                ids = ids[report.admitted]
                w = w[report.admitted]
                w = w / w.sum()
                vecs = report.filtered

            # 7. One aggregation.
            secagg_round = round_id * group_rounds + k
            if recovery is None:
                with tel.span("aggregate", k=k):
                    if defended:
                        group_params = group_params + weighted_average(vecs, w)
                    else:
                        # Line 14: x^g_{t,k+1} = Σ_i (n_i/n_g) x^i.
                        group_params = weighted_average(params_k[rows], w)
            elif not lost.any():
                with tel.span("secagg", k=k, clients=int(ids.size)):
                    agg_update = secure_aggregator.aggregate_weighted(
                        vecs, w, round_id=secagg_round
                    )
                group_params = group_params + agg_update
            else:
                # Someone dropped after masking: reconstruct their masks
                # from the live shareholders' seed shares and cancel them.
                session = np.flatnonzero(uploaded)
                vectors = np.zeros((session.size, vecs.shape[1]))
                vectors[np.searchsorted(session, ids)] = vecs * w[:, None]
                with tel.span("secagg", k=k, recovery=True):
                    res = recovery.aggregate(
                        vectors,
                        dropped=np.flatnonzero(lost[session]),
                        round_id=secagg_round,
                        rng=rng,
                    )
                events.append(FaultEvent(
                    "secagg_recovery", round_id, gid, None, k,
                    retries=res.reconstructed_pairs,
                ))
                group_params = group_params + res.total
    return group_params

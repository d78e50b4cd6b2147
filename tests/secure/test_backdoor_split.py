"""Tests for the 'split' (coordination-guard) detection criterion."""

import numpy as np
import pytest

from repro.secure import BackdoorDetector


def coordinated_attack_setting(num_honest=8, num_attackers=3, dim=150, seed=0):
    """Honest updates: mutually near-orthogonal (independent shards).
    Attackers: tight cluster around a shared poisoned direction."""
    rng = np.random.default_rng(seed)
    honest = rng.normal(size=(num_honest, dim))  # near-orthogonal in high dim
    poison_dir = rng.normal(size=dim)
    attackers = poison_dir + 0.1 * rng.normal(size=(num_attackers, dim))
    return np.vstack([honest, attackers]), num_honest


class TestSplitCriterion:
    def test_flags_coordinated_minority(self):
        updates, n_honest = coordinated_attack_setting()
        det = BackdoorDetector(criterion="split", separation_factor=1.5)
        report = det.detect(updates, rng=0)
        assert set(report.flagged.tolist()) == {8, 9, 10}

    def test_honest_only_admits_all(self):
        rng = np.random.default_rng(1)
        honest = rng.normal(size=(10, 150))
        det = BackdoorDetector(criterion="split", separation_factor=1.5)
        report = det.detect(honest, rng=0)
        assert report.flagged.size == 0

    def test_majority_attackers_not_flagged(self):
        """If attackers are the majority, the (minority) honest side is
        looser — the guard refuses to flag it."""
        rng = np.random.default_rng(2)
        poison_dir = rng.normal(size=100)
        attackers = poison_dir + 0.1 * rng.normal(size=(6, 100))
        honest = rng.normal(size=(3, 100))
        det = BackdoorDetector(criterion="split", separation_factor=1.5)
        report = det.detect(np.vstack([attackers, honest]), rng=0)
        # Honest minority is LOOSE, so it must not be flagged; the
        # coordinated majority cannot be flagged either (majority rule).
        assert not set(report.flagged.tolist()) & {6, 7, 8} or report.flagged.size == 0

    def test_even_split_admits_all(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=100) + 0.05 * rng.normal(size=(4, 100))
        b = -a[0] + 0.05 * rng.normal(size=(4, 100))
        det = BackdoorDetector(criterion="split")
        report = det.detect(np.vstack([a, b]), rng=0)
        assert report.flagged.size == 0  # 4 vs 4 is ambiguous

    def test_validation(self):
        with pytest.raises(ValueError):
            BackdoorDetector(criterion="hdbscan")
        with pytest.raises(ValueError):
            BackdoorDetector(criterion="split", separation_factor=1.0)

    def test_clipping_still_applies(self):
        updates, _ = coordinated_attack_setting()
        updates[0] *= 50.0  # an honest client with a huge update
        det = BackdoorDetector(criterion="split", separation_factor=1.5)
        report = det.detect(updates, rng=0)
        norms = np.linalg.norm(report.filtered, axis=1)
        assert norms.max() <= report.clip_norm * (1 + 1e-9)


class _Recorder:
    """An update transform that remembers each client's latest upload
    (wrapping the client's real attack, if it has one)."""

    def __init__(self, client_id, uploads, attack=None):
        self.client_id = client_id
        self.uploads = uploads
        self.attack = attack

    def transform_update(self, update, rng=None):
        if self.attack is not None:
            update = self.attack.transform_update(update, rng=rng)
        self.uploads[self.client_id] = update.copy()
        return update


def _owners(vectors, uploads):
    """Client ids whose latest upload each nonzero row is a positive
    multiple of (the defense clips and SecAgg pre-weights, neither turns
    a row)."""
    owners = []
    for row in vectors:
        norm = np.linalg.norm(row)
        if norm == 0.0:
            continue
        match = [
            cid for cid, u in uploads.items()
            if row @ u > (1 - 1e-9) * norm * np.linalg.norm(u)
        ]
        assert len(match) == 1, "aggregated row matches no single upload"
        owners.append(match[0])
    return owners


@pytest.fixture(scope="module")
def poisoned_fed():
    from repro.attacks import TriggerBackdoorAttack, poison_federation
    from repro.data import FederatedDataset, SyntheticImage

    data = SyntheticImage(noise_std=2.0, seed=0)
    train, test = data.train_test(2500, 300)
    fed = FederatedDataset.from_dataset(
        train, test, num_clients=8, alpha=0.5, size_low=40, size_high=60, rng=0
    )
    attack = TriggerBackdoorAttack(target_class=0, poison_fraction=0.9, boost=6.0)
    transforms = poison_federation(fed, [0, 1, 2], attack, rng=0)
    return fed, transforms


class TestSessionBan:
    @pytest.mark.parametrize(
        "recovery", [False, True], ids=["plain", "secagg-recovery"]
    )
    def test_flagged_client_stays_banned_within_group_session(
        self, poisoned_fed, monkeypatch, recovery
    ):
        """A detected attacker must not be re-admitted at later group
        rounds of the same session (run_group_round's ban set) — also when
        uploads lost after masking send SecAgg through Shamir recovery.
        The defense runs in every group round that leaves two or more
        clients to compare."""
        import repro.core.group as group_module
        from repro.core import GroupFELTrainer, TrainerConfig
        from repro.grouping import Group
        from repro.nn import make_mlp
        from repro.secure import DropoutTolerantAggregator, SecureAggregator

        fed, attacks = poisoned_fed
        uploads: dict[int, np.ndarray] = {}
        transforms = {
            cid: _Recorder(cid, uploads, attacks.get(cid)) for cid in range(8)
        }
        log = []  # ("detect", input ids, flagged ids) / ("aggregate", ids)
        original_detect = BackdoorDetector.detect

        def detect(self, updates, rng=None):
            report = original_detect(self, updates, rng)
            ids = _owners(updates, uploads)
            log.append(("detect", ids, [ids[int(f)] for f in report.flagged]))
            return report

        def spy(original, aggregated_rows):
            def wrapper(*args, **kwargs):
                log.append(("aggregate", aggregated_rows(*args, **kwargs)))
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(BackdoorDetector, "detect", detect)
        monkeypatch.setattr(group_module, "weighted_average", spy(
            group_module.weighted_average, lambda m, w: _owners(m, uploads)
        ))
        monkeypatch.setattr(SecureAggregator, "aggregate_weighted", spy(
            SecureAggregator.aggregate_weighted,
            lambda self, v, w, **kw: _owners(v, uploads),
        ))
        monkeypatch.setattr(DropoutTolerantAggregator, "aggregate", spy(
            DropoutTolerantAggregator.aggregate,
            lambda self, v, dropped=(), **kw: _owners(
                np.delete(v, list(dropped), axis=0), uploads
            ),
        ))

        group_rounds = 4
        trainer = GroupFELTrainer(
            lambda: make_mlp(192, 10, hidden=(16,), seed=1),
            fed,
            [Group(0, 0, np.arange(8), fed.L.sum(axis=0))],
            TrainerConfig(
                group_rounds=group_rounds, local_rounds=2, num_sampled=1,
                batch_size=16, lr=0.1, momentum=0.9, max_rounds=1, seed=0,
                use_secure_aggregation=recovery,
                faults="dropout:0.3@after" if recovery else None,
            ),
            attackers=transforms,
            backdoor_detector=BackdoorDetector(
                criterion="split", separation_factor=1.5
            ),
        )
        trainer.run()
        trace = trainer.fault_trace.counts()
        assert (trace["secagg_recovery"] >= 1) == recovery

        dropped = {
            k: {e.client_id for e in trainer.fault_trace.events
                if e.kind == "dropout" and e.k == k}
            for k in range(group_rounds)
        }
        banned: set[int] = set()
        entries = iter(log)
        for k in range(group_rounds):
            delivered = set(range(8)) - dropped[k]
            alive = (delivered - banned) or delivered
            if len(alive) >= 2:
                entry = next(entries)
                assert entry[0] == "detect", f"group round {k} skipped the defense"
                _, ids, flagged = entry
                assert set(ids) == alive
                banned |= set(flagged)
            kind, contributors = next(entries)
            assert kind == "aggregate"
            assert not banned & set(contributors)
        assert next(entries, None) is None
        assert banned, "the coordinated trio was never flagged"

    def test_recovery_round_survives_defense_admitting_one(self, poisoned_fed):
        """Flagged clients stay in a recovery session as zero-vector
        shareholders, so the Shamir threshold still counts them: a defense
        that admits a single survivor leaves a decodable round whose
        aggregate is exactly that client's update."""
        from repro.core import run_group_round
        from repro.faults import FaultPlan
        from repro.grouping import Group
        from repro.nn import SGD, make_mlp
        from repro.secure import DefenseReport, SecureAggregator

        class AdmitFirst(BackdoorDetector):
            def detect(self, updates, rng=None):
                self.inputs = updates.shape[0]
                self.admitted_update = updates[0].copy()
                return DefenseReport(
                    admitted=np.array([0]),
                    flagged=np.arange(1, updates.shape[0]),
                    clip_norm=float("inf"),
                    filtered=updates[:1],
                )

        fed, _ = poisoned_fed
        model = make_mlp(192, 10, hidden=(16,), seed=1)
        start = model.get_params()
        detector = AdmitFirst()
        events = []
        params = run_group_round(
            model, SGD(model, lr=0.1), Group(0, 0, np.arange(8), fed.L.sum(axis=0)),
            fed.clients, start, group_rounds=1, local_rounds=1, batch_size=16,
            rng=0, secure_aggregator=SecureAggregator(),
            backdoor_detector=detector,
            fault_plan=FaultPlan.from_spec("dropout:0.5@after", seed=0),
            fault_events=events,
        )
        assert any(e.kind == "secagg_recovery" for e in events)
        assert detector.inputs >= 2  # the defense flagged someone
        np.testing.assert_allclose(
            params, start + detector.admitted_update, rtol=0, atol=1e-6
        )

"""Integration: training under simulated client dropouts.

Dropouts come from the fault plan: ``dropout:p@after`` clients train, mask
their upload, then vanish — with SecAgg on, the round recovers their masks
through Shamir reconstruction.
"""

import numpy as np
import pytest

from repro.core import GroupFELTrainer, TrainerConfig
from repro.data import FederatedDataset, SyntheticImage
from repro.grouping import CoVGrouping, group_clients_per_edge
from repro.nn import make_mlp


@pytest.fixture(scope="module")
def setting():
    data = SyntheticImage(noise_std=2.5, seed=0)
    train, test = data.train_test(3000, 400)
    fed = FederatedDataset.from_dataset(
        train, test, num_clients=16, alpha=0.3, size_low=20, size_high=50, rng=0
    )
    groups = group_clients_per_edge(
        CoVGrouping(4, 0.5), fed.L, [np.arange(16)], rng=0
    )
    return fed, groups


def train(setting, dropout, secure=False, rounds=5):
    fed, groups = setting
    cfg = TrainerConfig(group_rounds=2, local_rounds=1, num_sampled=2,
                        lr=0.1, momentum=0.9, max_rounds=rounds,
                        faults=f"dropout:{dropout}@after" if dropout else None,
                        use_secure_aggregation=secure, seed=0)
    trainer = GroupFELTrainer(
        lambda: make_mlp(192, 10, hidden=(16,), seed=3), fed, groups, cfg,
    )
    return trainer, trainer.run()


class TestDropoutTraining:
    def test_moderate_dropout_still_learns(self, setting):
        trainer, history = train(setting, dropout=0.3)
        assert trainer.fault_trace.counts()["dropout"] >= 1
        assert history.final_accuracy > 0.35

    def test_dropout_with_secure_recovery(self, setting):
        """Dropouts + SecAgg route through the reconstruction protocol."""
        trainer, history = train(setting, dropout=0.3, secure=True)
        assert trainer.fault_trace.counts()["secagg_recovery"] >= 1
        assert history.final_accuracy > 0.3

    def test_zero_dropout_is_baseline(self, setting):
        _, h0 = train(setting, dropout=0.0)
        _, h0_again = train(setting, dropout=0.0)
        assert h0.test_acc == h0_again.test_acc  # deterministic

    def test_heavy_dropout_slows_but_survives(self, setting):
        _, h_heavy = train(setting, dropout=0.7, rounds=5)
        # Still finite and above chance.
        assert 0.1 < h_heavy.final_accuracy <= 1.0

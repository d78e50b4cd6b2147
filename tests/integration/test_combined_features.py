"""Integration: all optional system features engaged at once.

The full stack — secure aggregation, backdoor defense, update compression,
client dropout, wall-clock simulation, callbacks, regrouping — must
compose without interfering; this is the configuration an actual
deployment would resemble.
"""

import numpy as np
import pytest

from repro.compression import QuantizeCompressor
from repro.core import (
    Checkpointer,
    GroupFELTrainer,
    MetricTracker,
    TrainerConfig,
)
from repro.costs import CostModel, LinearCost, QuadraticCost, paper_cost_model
from repro.costs.wallclock import WallClockSimulator
from repro.data import FederatedDataset, SyntheticImage
from repro.grouping import CoVGrouping, group_clients_per_edge
from repro.nn import make_mlp
from repro.topology import CommModel, HierarchicalTopology


@pytest.fixture(scope="module")
def everything_on():
    data = SyntheticImage(noise_std=2.5, seed=0)
    train, test = data.train_test(3000, 400)
    fed = FederatedDataset.from_dataset(
        train, test, num_clients=16, alpha=0.3, size_low=25, size_high=50, rng=0
    )
    topo = HierarchicalTopology(16, 2)
    grouper = CoVGrouping(4, 0.6)
    groups = group_clients_per_edge(grouper, fed.L, topo.edge_assignment(), rng=0)
    model_fn = lambda: make_mlp(192, 10, hidden=(16,), seed=3)
    cost_model = paper_cost_model("cifar", "secagg+backdoor")
    comm = CommModel.for_model(topo, num_params=model_fn().num_params)
    checkpointer = Checkpointer(every=2)
    tracker = MetricTracker({"cost": lambda tr: tr.ledger.total})
    trainer = GroupFELTrainer(
        model_fn,
        fed,
        groups,
        TrainerConfig(
            group_rounds=2, local_rounds=1, num_sampled=2, lr=0.1, momentum=0.9,
            sampling_method="esrcov", aggregation_mode="stabilized", min_prob=0.02,
            max_rounds=6, use_secure_aggregation=True, use_backdoor_defense=True,
            faults="dropout:0.15@after", regroup_every=3, seed=0,
        ),
        cost_model=cost_model,
        grouper=grouper,
        edge_assignment=topo.edge_assignment(),
        callbacks=[checkpointer, tracker],
        compressor=QuantizeCompressor(bits=10),
        wallclock=WallClockSimulator(topo, cost_model, comm),
    )
    history = trainer.run()
    return trainer, history, checkpointer, tracker


class TestFullStack:
    def test_learns(self, everything_on):
        _, history, _, _ = everything_on
        assert history.final_accuracy > 0.3

    def test_cost_and_time_recorded(self, everything_on):
        trainer, history, _, tracker = everything_on
        assert history.total_cost > 0
        assert len(history.extra["wall_clock_s"]) == 6
        assert all(t > 0 for t in history.extra["wall_clock_s"])
        assert tracker.records["cost"] == sorted(tracker.records["cost"])

    def test_checkpoints_taken(self, everything_on):
        _, _, checkpointer, _ = everything_on
        assert set(checkpointer.snapshots) == {2, 4, 6}
        assert checkpointer.best_params is not None

    def test_regrouping_happened(self, everything_on):
        trainer, _, _, _ = everything_on
        # After 6 rounds with regroup_every=3, the sampler was rebuilt.
        assert trainer.round_idx == 6
        assert len(trainer.sampled_history) == 6

    def test_secure_and_dropout_protocols_active(self, everything_on):
        trainer, _, _, _ = everything_on
        assert trainer.secure_aggregator is not None
        assert trainer.backdoor_detector is not None
        assert trainer.fault_trace.counts()["secagg_recovery"] >= 1

    def test_deterministic_full_stack(self):
        """The everything-on configuration reproduces bit-identically."""
        def one_run():
            data = SyntheticImage(noise_std=2.5, seed=0)
            train, test = data.train_test(1500, 200)
            fed = FederatedDataset.from_dataset(
                train, test, num_clients=10, alpha=0.3,
                size_low=20, size_high=40, rng=0,
            )
            groups = group_clients_per_edge(
                CoVGrouping(3, 0.6), fed.L, [np.arange(10)], rng=0
            )
            trainer = GroupFELTrainer(
                lambda: make_mlp(192, 10, hidden=(8,), seed=3),
                fed, groups,
                TrainerConfig(group_rounds=1, local_rounds=1, num_sampled=2,
                              max_rounds=3, use_secure_aggregation=True,
                              faults="dropout:0.2@after", seed=0),
                compressor=QuantizeCompressor(bits=12),
            )
            return trainer.run().test_acc

        assert one_run() == one_run()

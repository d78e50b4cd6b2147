"""The benchmark's closed-loop workloads.

Each workload is one ``group_fel`` trainer (CoV-Grouping + ESRCoV) built
only through repro's public API: ``make_image_workload`` /
``make_audio_workload`` with ``dataclasses.replace`` overrides on
``ExperimentScale`` / ``TrainerConfig``, then ``build_method``. Why each
workload exists and which layers it loads is in ``NOTES.md``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

from repro.baselines import build_method
from repro.experiments.configs import SCALES, make_audio_workload, make_image_workload
from repro.faults import FaultPlan
from repro.parallel import ParallelMap
from repro.population import PopulationModel
from repro.rng import derive_seed

__all__ = ["WorkloadSpec", "WORKLOADS", "Setup", "build"]


#: Seed of each workload's population: synthetic data, Dirichlet partition,
#: CoV groups, model initialisation, and the fault and churn/drift plans.
#: The population is the workload's fixed input, as the paper trains on one
#: partition; the benchmark's ``--seed`` drives the run instead (group
#: sampling, minibatch order, SecAgg masks). Seeding the partition or the
#: fault and churn plans too makes the work per round itself vary from seed
#: to seed by 20-30% (NOTES.md).
POPULATION_SEED = 0


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str
    task: str  # "image" | "audio"
    base_scale: str  # "fast" | "paper"
    scale: dict  # ExperimentScale overrides
    trainer: dict  # TrainerConfig overrides
    backend: str = "serial"
    workers: int = 1
    checkpoint: bool = False
    #: rounds run inside set-up, before the timed window (the window uses
    #: the last of several set-ups in one process, so code paths are warm)
    warmup_rounds: int = 1
    #: timed rounds per requested second: fixes the amount of work from
    #: ``--seconds`` alone, so one seed always runs the same rounds (and
    #: the history digest and final loss are reproducible)
    rounds_per_second: float = 1.0
    #: ExperimentScale overrides of the self-test's tiny size
    tiny: dict = field(default_factory=dict)


WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="mlp-process",
            why=(
                "fast MLP image task on 2 worker processes with shared memory: "
                "dispatch, sampling, aggregation and evaluation dominate"
            ),
            task="image",
            base_scale="fast",
            scale={},
            trainer={"shared_memory": True},
            backend="process",
            workers=2,
            warmup_rounds=5,
            rounds_per_second=13.0,
            tiny={"num_clients": 24, "train_samples": 3_000, "test_samples": 300},
        ),
        WorkloadSpec(
            name="resnet-paper",
            why=(
                "paper population and ResNetLite, S=2 K=1 E=1, serial: Conv2d and "
                "BatchNorm on the per-client path plus a 5000-sample evaluation"
            ),
            task="image",
            base_scale="paper",
            scale={"num_sampled": 2, "group_rounds": 1, "local_rounds": 1},
            trainer={},
            warmup_rounds=1,
            # 54 timed rounds, 11 of them evaluating: the ten rounds above
            # the tail percentile are then all evaluation rounds
            rounds_per_second=1.8,
            tiny={
                "num_clients": 30,
                "train_samples": 4_000,
                "test_samples": 200,
                "size_high": 60,
            },
        ),
        WorkloadSpec(
            name="audio-secure",
            why=(
                "AudioCNN with SecAgg, backdoor defense, dropouts, churn and drift, "
                "checkpoint every round: the write-heavy group round"
            ),
            task="audio",
            base_scale="paper",
            scale={
                "num_clients": 120,
                "min_group_size": 15,
                "num_sampled": 2,
                "group_rounds": 2,
                "local_rounds": 1,
            },
            trainer={
                "use_secure_aggregation": True,
                "use_backdoor_defense": True,
                "faults": "dropout:0.1",
                "population": "start:0.8,join:0.6,leave:0.005,drift:0.1:0.3",
                "checkpoint_every": 1,
            },
            checkpoint=True,
            warmup_rounds=1,
            rounds_per_second=1.5,
            tiny={
                "num_clients": 40,
                "min_group_size": 6,
                "train_samples": 4_000,
                "test_samples": 200,
                "size_high": 60,
            },
        ),
    )
}


def _worker_pid(_):
    return os.getpid()


@dataclass
class Setup:
    """A built trainer plus what the benchmark owns alongside it."""

    spec: WorkloadSpec
    workload: object  # repro.experiments.configs.Workload
    trainer: object  # GroupFELTrainer
    pmap: ParallelMap | None

    def close(self) -> None:
        self.trainer.close()
        if self.pmap is not None:
            self.pmap.close()


def build(
    spec: WorkloadSpec,
    seed: int,
    telemetry=None,
    checkpoint_dir: str | None = None,
    tiny: bool = False,
    trainer_overrides: dict | None = None,
    span=None,
) -> Setup:
    """Construct the workload and its trainer, and start its worker pool.

    ``seed`` is the trainer seed; the population, and the fault and
    churn/drift plans given as spec strings, are built from
    :data:`POPULATION_SEED`.

    ``span(name)`` (a context-manager factory) wraps the benchmark's own
    calls into the data and pool layers when tracing.
    """
    if span is None:
        from contextlib import nullcontext

        span = lambda name: nullcontext()  # noqa: E731
    scale_overrides = dict(spec.scale, **(spec.tiny if tiny else {}))
    scale = replace(SCALES[spec.base_scale], **scale_overrides)
    make = make_image_workload if spec.task == "image" else make_audio_workload
    with span("data.synth"):
        workload = make(scale, seed=POPULATION_SEED)
    overrides = {**spec.trainer, **(trainer_overrides or {})}
    for key, plan in (("faults", FaultPlan), ("population", PopulationModel)):
        if isinstance(overrides.get(key), str):
            overrides[key] = plan.from_spec(
                overrides[key], seed=derive_seed(POPULATION_SEED, key)
            )
    cfg = replace(
        workload.trainer_config,
        seed=seed,
        cost_budget=None,
        parallel_backend=spec.backend,
        **overrides,
    )
    pmap = None
    if spec.backend != "serial":
        pmap = ParallelMap(spec.backend, max_workers=spec.workers, telemetry=telemetry)
    trainer = build_method(
        "group_fel",
        workload.model_fn,
        workload.fed,
        workload.edge_assignment,
        cfg,
        cost_model=workload.cost_model,
        group_size_knob=scale.min_group_size,
        max_cov=scale.max_cov,
        rng=derive_seed(POPULATION_SEED, "grouping", "group_fel"),
        telemetry=telemetry,
        parallel=pmap,
        checkpoint_dir=checkpoint_dir if spec.checkpoint else None,
    )
    if pmap is not None:
        # Spawn every worker now (the trainer registered its state above),
        # so process start-up lands in set-up rather than in round one.
        with span("parallel.pool_start"):
            pmap.map(_worker_pid, range(spec.workers))
    return Setup(spec, workload, trainer, pmap)

"""Ablations beyond the paper: update compression and client dropouts.

§2.3 cites compression ([26, 27]) as the third efficiency axis; the
robustness literature motivates dropout tolerance. These benches verify
the Group-FEL stack degrades gracefully along both axes:

* 8-bit quantization ≈ full precision; aggressive top-k without error
  feedback loses accuracy, error feedback recovers most of it.
* 30 % client dropout costs little; the SecAgg recovery path works in-loop.
"""

import numpy as np

from _util import SCALE, run_once
from repro.compression import ErrorFeedback, QuantizeCompressor, TopKCompressor
from repro.core.trainer import GroupFELTrainer
from repro.experiments.configs import get_scale, make_image_workload
from repro.grouping import CoVGrouping, group_clients_per_edge


def _train(wl, groups, compressor=None, dropout=0.0, secure=False):
    from dataclasses import replace

    cfg = replace(
        wl.trainer_config,
        sampling_method="esrcov",
        faults=f"dropout:{dropout}@after" if dropout else None,
        use_secure_aggregation=secure,
        max_rounds=min(wl.trainer_config.max_rounds, 15),
    )
    trainer = GroupFELTrainer(
        wl.model_fn, wl.fed, groups, cfg, cost_model=wl.cost_model,
        compressor=compressor,
    )
    trainer.run()
    return trainer


def run_compression_ablation():
    s = get_scale(SCALE)
    wl = make_image_workload(s, alpha=0.1, seed=0)
    groups = group_clients_per_edge(
        CoVGrouping(s.min_group_size, s.max_cov), wl.fed.L, wl.edge_assignment, rng=0
    )
    num_params = wl.model_fn().num_params
    return {
        "full": _train(wl, groups).history.final_accuracy,
        "q8": _train(wl, groups, QuantizeCompressor(bits=8)).history.final_accuracy,
        "top5%": _train(wl, groups, TopKCompressor(0.05)).history.final_accuracy,
        "top5%+EF": _train(
            wl, groups, ErrorFeedback(TopKCompressor(0.05), num_params)
        ).history.final_accuracy,
    }


def test_compression_ablation(benchmark):
    accs = run_once(benchmark, run_compression_ablation)
    print(f"\ncompression ablation: { {k: round(v, 3) for k, v in accs.items()} }")
    # 8-bit quantization is near-lossless.
    assert accs["q8"] > accs["full"] - 0.05
    # Error feedback recovers most of aggressive sparsification's loss.
    assert accs["top5%+EF"] >= accs["top5%"] - 0.03
    assert accs["top5%+EF"] > accs["full"] - 0.12


def run_dropout_ablation():
    s = get_scale(SCALE)
    out = {"recoveries": 0}
    for label, dropout, secure in [
        ("no-dropout", 0.0, False),
        ("drop30%", 0.3, False),
        ("drop30%+secagg", 0.3, True),
    ]:
        wl = make_image_workload(s, alpha=0.1, seed=0)
        groups = group_clients_per_edge(
            CoVGrouping(s.min_group_size, s.max_cov), wl.fed.L,
            wl.edge_assignment, rng=0,
        )
        trainer = _train(wl, groups, dropout=dropout, secure=secure)
        out[label] = trainer.history.final_accuracy
        out["recoveries"] += trainer.fault_trace.counts()["secagg_recovery"]
    return out


def test_dropout_ablation(benchmark):
    accs = run_once(benchmark, run_dropout_ablation)
    print(f"\ndropout ablation: { {k: round(v, 3) for k, v in accs.items()} }")
    assert accs["drop30%"] > accs["no-dropout"] - 0.1, "graceful degradation"
    # The secure recovery path runs in-loop and matches the plain dropout
    # path.
    assert accs["recoveries"] >= 1
    assert abs(accs["drop30%+secagg"] - accs["drop30%"]) < 0.1

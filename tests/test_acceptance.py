"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The directional criteria run on two frozen synthetic benchmarks:

* SEQ_BENCH -- a 10-evaluation-task sequence (14 timestamps x 20 vertices,
  4 initial + 2 emerging classes, Zipf-skewed) for restart/history effects.
* DET_BENCH -- a larger, harder sequence (80 vertices/timestamp, 10 initial
  classes + 2 emerging at one timestamp, strong weight decay regime) where
  unweighted binary cross-entropy collapses on minority classes, which is
  the failure mode the class-weighted variant exists to fix.

Expensive run batches are built once per module and shared across criteria.
"""

import json
import math
import time
from collections import defaultdict

import numpy as np
import pytest

import evograph as eg
from evograph.cli import main as cli_main

SEEDS = tuple(range(10))

SEQ_BENCH = eg.SynthConfig(
    num_timestamps=14,
    vertices_per_timestamp=20,
    num_initial_classes=4,
    new_class_schedule={6: 1, 9: 1},
    class_skew=1.3,
    feature_dim=16,
    feature_noise=0.5,
    intra_class_edge_prob=0.08,
    inter_class_edge_prob=0.01,
    window_back=3,
    seed=20,
)

DET_BENCH = eg.SynthConfig(
    num_timestamps=14,
    vertices_per_timestamp=80,
    num_initial_classes=10,
    new_class_schedule={7: 2},
    class_skew=0.8,
    feature_dim=16,
    feature_noise=0.4,
    intra_class_edge_prob=0.15,
    inter_class_edge_prob=0.015,
    window_back=3,
    seed=20,
)


def verdict(n: int, ok: bool, detail: str) -> None:
    print(f"[criterion {n:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


@pytest.fixture(scope="module")
def seq_graph():
    return eg.generate(SEQ_BENCH)


@pytest.fixture(scope="module")
def det_graph():
    return eg.generate(DET_BENCH)


@pytest.fixture(scope="module")
def seq_runs(seq_graph):
    """Per-seed reports for history x restart on the sequence benchmark."""
    t0 = time.time()
    c_med = max(1, eg.percentile(eg.k_hop_time_diffs(seq_graph, 2), 50))
    runs = defaultdict(list)
    for c in {1, c_med, eg.FULL}:
        for restart in ("warm", "cold"):
            for s in SEEDS:
                cfg = eg.ExperimentConfig(
                    model="sage", epochs=200, history_size=c, restart=restart,
                    learning_rate=0.01, seeds=(s,),
                )
                runs[(c, restart)].append(eg.run_sequence(seq_graph, cfg, seed=s))
    return {"runs": runs, "c_med": c_med, "elapsed": time.time() - t0}


@pytest.fixture(scope="module")
def det_runs(det_graph):
    """DOC baseline plus the weighted variant across the alpha sweep.

    Training depends on the detector only through its loss mode, so each
    seed trains once for DOC (BCE) and once for the four gDOC settings
    (weighted BCE); ``run_sequences`` scores every detector of a group on
    that one training and gives each the report ``run_sequence`` would.
    """
    t0 = time.time()
    detectors = {
        "doc": eg.DetectorConfig(variant="doc", tau_min=0.5),
        "gdoc_a0": eg.DetectorConfig(variant="gdoc", tau_min=0.75),
        "gdoc_a1": eg.DetectorConfig(variant="gdoc", tau_min=0.75, alpha=1.0, use_risk_reduction=True),
        "gdoc_a2": eg.DetectorConfig(variant="gdoc", tau_min=0.75, alpha=2.0, use_risk_reduction=True),
        "gdoc_a3": eg.DetectorConfig(variant="gdoc", tau_min=0.75, alpha=3.0, use_risk_reduction=True),
    }
    out = {name: {"reports": [], "cfg": det} for name, det in detectors.items()}
    for names in (["doc"], ["gdoc_a0", "gdoc_a1", "gdoc_a2", "gdoc_a3"]):
        for s in SEEDS:
            cfgs = [
                eg.ExperimentConfig(
                    model="sage", epochs=200, history_size=3, restart="warm",
                    learning_rate=0.02, weight_decay=5e-3, seeds=(s,), detector=detectors[name],
                )
                for name in names
            ]
            reports, _ = eg.run_sequences(det_graph, cfgs, seed=s)
            for name, report in zip(names, reports):
                out[name]["reports"].append(report)
    out["elapsed"] = time.time() - t0
    return out


def test_criterion_01_gradient_suite():
    t0 = time.time()
    from test_models import assert_grads_close, fd_gradients

    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed + 40)
        n = int(rng.integers(5, 11))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
        g = eg.TemporalGraph(
            n, np.asarray(pairs, dtype=np.int64).reshape(-1, 2),
            rng.integers(0, 3, n), rng.normal(size=(n, 3)).astype(np.float32),
            rng.integers(0, 3, n), 3,
        )
        mask = np.ones(n, bool)
        for kind in ("mlp", "sgc", "sage"):
            model = eg.init_model(kind, 3, 4, 3, seed=seed)
            for loss_mode in (eg.CATEGORICAL, eg.BCE, eg.WEIGHTED_BCE):
                _, analytic = eg.loss_and_grad(model, g, g.labels, mask, loss_mode)
                numeric = fd_gradients(model, g, g.labels, mask, loss_mode)
                assert_grads_close(analytic, numeric)
                for (aw, ab), (nw, nb) in zip(analytic, numeric):
                    denom_w = np.maximum(np.maximum(np.abs(aw), np.abs(nw)), 1e-2)
                    denom_b = np.maximum(np.maximum(np.abs(ab), np.abs(nb)), 1e-2)
                    worst = max(worst, float(np.max(np.abs(aw - nw) / denom_w)))
                    worst = max(worst, float(np.max(np.abs(ab - nb) / denom_b)))
    elapsed = time.time() - t0
    verdict(
        1,
        elapsed < 30,
        f"gradients of 3 models x 3 losses x 10 instances match finite differences "
        f"(worst scaled error {worst:.2e}, tolerance 1e-4 relative) in {elapsed:.1f}s (< 30s)",
    )


def test_criterion_02_tdiff_equivariance():
    t0 = time.time()
    violations = 0
    checked = 0
    for i in range(50):
        rng = np.random.default_rng(1000 + i)
        cfg = eg.SynthConfig(
            num_timestamps=int(rng.integers(6, 14)),
            vertices_per_timestamp=int(rng.integers(10, 30)),
            num_initial_classes=int(rng.integers(2, 5)),
            class_skew=float(rng.uniform(0, 1.5)),
            feature_dim=8,
            window_back=int(rng.integers(1, 5)),
            intra_class_edge_prob=float(rng.uniform(0.05, 0.15)),
            inter_class_edge_prob=float(rng.uniform(0.005, 0.03)),
            seed=i,
        )
        g = eg.generate(cfg)
        h = eg.k_hop_time_diffs(g, 2)
        for a in (2, 12):
            fine_time = a * g.time + rng.integers(0, a, g.num_vertices)
            g_fine = eg.TemporalGraph(
                g.num_vertices, g.edges, fine_time, g.features, g.labels, g.num_classes
            )
            h_fine = eg.k_hop_time_diffs(g_fine, 2)
            for p in (25, 50, 75, 100):
                coarse = a * eg.percentile(h, p)
                fine = eg.percentile(h_fine, p)
                checked += 1
                if not (fine - a < coarse < fine + a):
                    violations += 1
    elapsed = time.time() - t0
    verdict(
        2,
        violations == 0 and elapsed < 60,
        f"granularity equivariance bound held for {checked - violations}/{checked} "
        f"percentiles over 50 graphs x a in {{2,12}} in {elapsed:.1f}s (< 60s)",
    )


def test_criterion_03_tdiff_oracle_equivalence(graph_factory):
    from test_tdiff import bounded_pairs_oracle

    mismatches = 0
    for seed in range(20):
        g = graph_factory(seed + 200, n_max=30)
        for k in (1, 2, 3):
            if eg.k_hop_time_diffs(g, k).counts != bounded_pairs_oracle(g, k):
                mismatches += 1
    verdict(
        3,
        mismatches == 0,
        f"k-hop time differences matched the brute-force bounded-path oracle on "
        f"20 graphs (<= 30 vertices) x k in {{1,2,3}} ({mismatches} mismatches)",
    )


def test_criterion_04_warm_restart_direction(seq_runs):
    runs, c_med = seq_runs["runs"], seq_runs["c_med"]
    fwt_c1 = np.array(
        [
            eg.forward_transfer(w.accuracies(), c.accuracies())
            for w, c in zip(runs[(1, "warm")], runs[(1, "cold")])
        ]
    )
    fwt_full = np.array(
        [
            eg.forward_transfer(w.accuracies(), c.accuracies())
            for w, c in zip(runs[(eg.FULL, "warm")], runs[(eg.FULL, "cold")])
        ]
    )
    positive = int(np.sum(fwt_c1 > 0))
    elapsed = seq_runs["elapsed"]
    ok = (
        fwt_c1.mean() > 0
        and fwt_c1.mean() > fwt_full.mean()
        and positive > len(SEEDS) // 2
        and elapsed < 300
    )
    verdict(
        4,
        ok,
        f"mean FWT at c=1 is {fwt_c1.mean():+.4f} ({positive}/{len(SEEDS)} seeds positive) "
        f"vs {fwt_full.mean():+.4f} at c=FULL; batch took {elapsed:.0f}s (< 300s)",
    )


def test_criterion_05_history_size_relative_accuracy(seq_runs):
    runs, c_med = seq_runs["runs"], seq_runs["c_med"]
    acc = {
        key: float(np.mean([r.avg_accuracy() for r in reports]))
        for key, reports in runs.items()
    }
    best_med = max(acc[(c_med, "warm")], acc[(c_med, "cold")])
    best_full = max(acc[(eg.FULL, "warm")], acc[(eg.FULL, "cold")])
    ratio = best_med / best_full
    elapsed = seq_runs["elapsed"]
    verdict(
        5,
        ratio >= 0.90 and elapsed < 600,
        f"best-of-restart accuracy at c=median(dt2)={c_med} is {best_med:.4f}, "
        f"{ratio:.1%} of the full-history {best_full:.4f} (needs >= 90%); "
        f"batch took {elapsed:.0f}s (< 600s)",
    )


def test_criterion_06_gdoc_beats_doc(det_runs):
    doc = det_runs["doc"]["reports"]
    gdoc = det_runs["gdoc_a0"]["reports"]
    mcc_doc = float(np.mean([r.mcc() for r in doc]))
    mcc_gdoc = float(np.mean([r.mcc() for r in gdoc]))
    f1_doc = float(np.mean([r.open_macro_f1() for r in doc]))
    f1_gdoc = float(np.mean([r.open_macro_f1() for r in gdoc]))
    elapsed = det_runs["elapsed"]
    ok = mcc_gdoc > mcc_doc and f1_gdoc > f1_doc and elapsed < 600
    verdict(
        6,
        ok,
        f"gDOC (weighted, tau=0.75) MCC {mcc_gdoc:.4f} / Open-F1 {f1_gdoc:.4f} vs "
        f"DOC (unweighted, tau=0.5) {mcc_doc:.4f} / {f1_doc:.4f} over {len(SEEDS)} seeds; "
        f"batch took {elapsed:.0f}s (< 600s)",
    )


def test_criterion_07_risk_reduction_changes_little(det_runs):
    means = {
        a: float(np.mean([r.mcc() for r in det_runs[f"gdoc_a{a}"]["reports"]]))
        for a in (0, 1, 2, 3)
    }
    spread = max(means.values()) - min(means.values())

    # the floor tau_i = max(tau_min, 1 - alpha*SD_i) must bind exactly when
    # alpha*SD_i >= 1 - tau_min; at alpha=3 it binds for every fitted class
    tau_min = 0.75
    floor_violations = 0
    above_at_3 = 0
    total_at_3 = 0
    for a in (1, 2, 3):
        for report in det_runs[f"gdoc_a{a}"]["reports"]:
            for entry in report.events:
                for tau_i, sd_i in zip(entry["thresholds"], entry["sd"]):
                    if math.isnan(sd_i):
                        continue
                    binds = a * sd_i >= 1 - tau_min - 1e-12
                    if binds != (abs(tau_i - tau_min) < 1e-12):
                        floor_violations += 1
                    if a == 3:
                        total_at_3 += 1
                        if tau_i > tau_min + 1e-12:
                            above_at_3 += 1
    ok = spread < 0.02 and floor_violations == 0 and above_at_3 <= 0.01 * total_at_3
    verdict(
        7,
        ok,
        f"MCC spread over alpha in {{0,1,2,3}} is {spread:.4f} (< 0.02); threshold floor "
        f"consistent in {floor_violations} violations; at alpha=3, {above_at_3}/{total_at_3} "
        f"thresholds above tau_min",
    )


def test_criterion_08_two_task_plateau():
    g = eg.generate(
        eg.SynthConfig(
            num_timestamps=2, vertices_per_timestamp=200, num_initial_classes=4,
            class_skew=0.7, feature_dim=12, feature_noise=0.3,
            intra_class_edge_prob=0.06, inter_class_edge_prob=0.008,
            window_back=1, seed=30,
        )
    )
    cfg = eg.ExperimentConfig(model="sage", learning_rate=0.01, seeds=(0,))

    worst_spread = 0.0
    rises = []
    for seed in range(5):
        pre = eg.two_task_experiment(g, cfg, 200, 35, seed=seed)
        naive = eg.two_task_experiment(g, cfg, 0, 35, seed=seed)
        worst_spread = max(worst_spread, max(pre) - min(pre))
        rises.append(naive[0] < pre[0] and max(naive[10:]) > naive[0] + 0.1)
    ok = worst_spread < 0.02 and all(rises)
    verdict(
        8,
        ok,
        f"pre-trained accuracy varied by at most {worst_spread:.3f} (< 0.02) over 35 "
        f"inference epochs; un-pre-trained runs started lower and rose in 5/5 seeds"
        if all(rises)
        else f"plateau spread {worst_spread:.3f}; rise pattern {rises}",
    )


def test_criterion_09_manifest_reproducibility(tmp_path):
    ds = tmp_path / "ds"
    assert cli_main([
        "generate", str(ds), "--num-timestamps", "8", "--vertices-per-timestamp", "20",
        "--new-class-schedule", "4:1", "--feature-dim", "8", "--seed", "3", "--quiet",
    ]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"format_version=1\ndataset={ds}\nmodel=sage\nepochs=20\nhistory_size=1\n"
        "restart=warm\ndetector=gdoc\nseeds=0,1\n"
    )
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli_main(["run", "--config", str(cfg), "--output-dir", str(out1), "--quiet"]) == 0
    assert cli_main([
        "run", "--from-manifest", str(out1 / "manifest.json"),
        "--output-dir", str(out2), "--quiet",
    ]) == 0
    names = ["report_seed0.jsonl", "report_seed1.jsonl", "summary.json"]
    identical = [(out1 / n).read_bytes() == (out2 / n).read_bytes() for n in names]
    verdict(
        9,
        all(identical),
        f"re-running from the manifest reproduced {sum(identical)}/{len(names)} "
        "report files byte-identically",
    )


def test_criterion_10_metric_unit_fixtures():
    checks = []

    # MCC from accumulated counts
    oracle_mcc = (10 * 80 - 5 * 5) / math.sqrt(15 * 15 * 85 * 85)
    checks.append(("mcc", abs(eg.mcc(10, 80, 5, 5) - oracle_mcc), abs(oracle_mcc - 0.60784) < 1e-5))

    # symmetrized KL divergence
    kl_pq = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)
    kl_qp = 0.25 * math.log(0.25 / 0.5) + 0.75 * math.log(0.75 / 0.5)
    oracle_div = 0.5 * kl_pq + 0.5 * kl_qp
    got = eg.symmetric_divergence({0: 0.5, 1: 0.5}, {0: 0.25, 1: 0.75})
    checks.append(("divergence", abs(got - oracle_div), abs(oracle_div - 0.13733) < 1e-5))

    # risk-reduction threshold from the mirrored set
    mirrored = [0.8, 0.9, 1.0, 1.0, 1.1, 1.2]
    sd = math.sqrt(sum((x - 1) ** 2 for x in mirrored) / len(mirrored))
    oracle_tau = max(0.5, 1 - 3 * sd)
    det = eg.DetectorConfig(variant="gdoc", tau_min=0.5, alpha=3.0, use_risk_reduction=True)
    thr = eg.fit_thresholds(
        np.array([[0.8], [0.9], [1.0]]), np.zeros(3, dtype=int), np.ones(3, bool), det
    )
    checks.append(("tau", abs(float(thr.tau[0]) - oracle_tau), abs(oracle_tau - 0.61270) < 1e-5))

    # open macro-F1 on the three-vertex example
    got_f1 = eg.open_macro_f1([0, 1, 7], [0, eg.UNSEEN, eg.UNSEEN], {0, 1})
    checks.append(("open_f1", abs(got_f1 - 5 / 9), True))

    worst = max(err for _, err, _ in checks)
    ok = worst < 1e-5 and all(confirmed for _, _, confirmed in checks)
    verdict(
        10,
        ok,
        "metric fixtures (MCC 0.60784, divergence 0.13733, tau 0.61270, Open-F1 5/9) "
        f"all within 1e-5 of their oracles (worst error {worst:.2e})",
    )

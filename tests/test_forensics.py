"""Tests for repro.forensics: deviation probes, aggregation, rendering."""

import numpy as np
import pytest

from repro import evaluate_defect_accuracy, nn, telemetry
from repro.core import evaluate_one_draw, layer_sensitivity
from repro.core.evaluate import FaultDrawSpec
from repro.datasets import ArrayDataset, DataLoader
from repro.forensics import (
    DeviationProbe,
    ForensicsConfig,
    aggregate_events,
    aggregate_payloads,
    deviation_matrix,
    finalize_layer,
    forensics_summary,
    named_leaf_modules,
    render_forensics,
)
from repro.models import MLP


@pytest.fixture(autouse=True)
def _no_leaked_run():
    yield
    telemetry.end_run()


def setup(rng, n=40, shuffle=False):
    images = rng.normal(size=(n, 1, 2, 4))
    labels = rng.integers(0, 3, size=n)
    loader = DataLoader(
        ArrayDataset(images, labels), 20, shuffle=shuffle, seed=5
    )
    model = MLP(8, [8], 3, rng=rng)
    return model, loader


# -- config / leaf discovery -------------------------------------------------
def test_config_validation():
    with pytest.raises(ValueError):
        ForensicsConfig(threshold=0.0)
    with pytest.raises(ValueError):
        ForensicsConfig(tol=-1.0)


def test_named_leaf_modules_order(rng):
    model = MLP(8, [8], 3, rng=rng)
    names = [name for name, _ in named_leaf_modules(model)]
    assert len(names) == len(set(names))
    assert all("." in name or name for name in names)
    # A childless root gets the sentinel name.
    leaf = nn.Linear(4, 2, rng=rng)
    assert named_leaf_modules(leaf) == [("(root)", leaf)]


# -- the probe ---------------------------------------------------------------
def test_probe_zero_fault_draw_is_all_zero_deviation(rng):
    model, loader = setup(rng)
    probe = DeviationProbe(model)
    pristine = {n: p.data.copy() for n, p in model.named_parameters()}
    accuracy, payload = probe.compare(loader, pristine)
    assert payload["num_flipped"] == 0
    assert payload["undiverged_flips"] == 0
    for entry in payload["layers"]:
        assert entry["sum_sq_dev"] == 0.0
        assert entry["rel_l2"] == 0.0
        assert entry["frac_perturbed"] == 0.0
        assert entry["snr_db"] is None  # infinite SNR reported as None
        assert entry["cosine"] == pytest.approx(1.0)


def test_probe_accuracy_matches_evaluate_one_draw(rng):
    model, loader = setup(rng)
    cfg = FaultDrawSpec(p_sa=0.1)
    expected = evaluate_one_draw(model, loader, cfg, 42)
    # Re-materialise the same draw and hand it to the probe.
    from repro.core.injector import FaultInjector
    from repro.reram.deploy import crossbar_parameters

    injector = FaultInjector(model, rng=np.random.default_rng(42))
    injector.inject(0.1)
    faulted = {n: p.data.copy() for n, p in crossbar_parameters(model)}
    injector.restore()
    accuracy, payload = DeviationProbe(model).compare(loader, faulted)
    assert accuracy == expected
    assert payload["accuracy"] == expected


def test_probe_restores_model_and_mode(rng):
    model, loader = setup(rng)
    model.train()
    pristine = {n: p.data.copy() for n, p in model.named_parameters()}
    faulted = {n: v * 1.5 for n, v in pristine.items() if n.endswith("weight")}
    DeviationProbe(model).compare(loader, faulted)
    assert model.training
    for n, p in model.named_parameters():
        np.testing.assert_array_equal(p.data, pristine[n])
    # No hooks left behind on any module.
    assert all(not m._forward_hooks for m in model.modules())


def test_probe_unknown_parameter_raises(rng):
    model, loader = setup(rng)
    with pytest.raises(KeyError):
        DeviationProbe(model).compare(loader, {"nope.weight": np.zeros(1)})


def test_probe_shape_mismatch_raises(rng):
    model, loader = setup(rng)
    name = next(n for n, _ in model.named_parameters())
    with pytest.raises(ValueError):
        DeviationProbe(model).compare(loader, {name: np.zeros((1, 1))})


def test_first_divergence_counts_are_consistent(rng):
    model, loader = setup(rng, n=60)
    from repro.core.injector import FaultInjector
    from repro.reram.deploy import crossbar_parameters

    injector = FaultInjector(model, rng=np.random.default_rng(3))
    injector.inject(0.3)
    faulted = {n: p.data.copy() for n, p in crossbar_parameters(model)}
    injector.restore()
    _, payload = DeviationProbe(model).compare(loader, faulted)
    attributed = sum(e["first_divergence"] for e in payload["layers"])
    assert attributed + payload["undiverged_flips"] == payload["num_flipped"]
    assert payload["num_samples"] == 60


def test_probe_flags_shuffled_loader_once(rng):
    model, loader = setup(rng, shuffle=True)
    sink = telemetry.MemorySink()
    telemetry.start_run(sink=sink)
    pristine = {n: p.data.copy() for n, p in model.named_parameters()}
    probe = DeviationProbe(model)
    probe.compare(loader, pristine)
    probe.compare(loader, pristine)
    warnings = [
        e for e in sink.events if e["kind"] == "forensics_shuffled_loader"
    ]
    assert len(warnings) == 1


# -- aggregation -------------------------------------------------------------
def test_finalize_layer_degenerate_denominators():
    zeros = {k: 0 for k in (
        "sum_sq_dev", "sum_sq_clean", "sum_dot", "sum_sq_fault",
        "perturbed", "elements", "first_divergence",
    )}
    out = finalize_layer(zeros)
    assert out["rel_l2"] is None
    assert out["cosine"] is None
    assert out["snr_db"] is None
    assert out["frac_perturbed"] is None


def test_aggregate_payloads_sums_in_order():
    layer = {
        "layer": "fc", "sum_sq_dev": 1.0, "sum_sq_clean": 4.0,
        "sum_dot": 2.0, "sum_sq_fault": 4.0, "perturbed": 5,
        "elements": 10, "first_divergence": 1,
    }
    payload = {
        "num_samples": 20, "num_flipped": 2, "undiverged_flips": 1,
        "layers": [layer],
    }
    aggregate = aggregate_payloads([payload, payload])
    assert aggregate["num_draws"] == 2
    assert aggregate["num_samples"] == 40
    assert aggregate["num_flipped"] == 4
    (entry,) = aggregate["layers"]
    assert entry["sum_sq_dev"] == 2.0
    assert entry["rel_l2"] == pytest.approx((2.0 / 8.0) ** 0.5)
    assert entry["frac_perturbed"] == 0.5
    assert entry["first_divergence"] == 2


def test_deviation_matrix_pivots_whole_model_only():
    def agg(p_sa, target, value):
        return {
            "p_sa": p_sa, "target": target,
            "layers": [{"layer": "fc", "rel_l2": value}],
        }

    layers, rates, cells = deviation_matrix(
        [agg(0.1, None, 0.5), agg(0.05, None, 0.2), agg(0.1, "fc.weight", 9.9)]
    )
    assert layers == ["fc"]
    assert rates == [0.05, 0.1]
    assert cells[("fc", 0.1)] == 0.5
    assert ("fc", 0.1) in cells and len(cells) == 2


# -- end-to-end through evaluate_defect_accuracy -----------------------------
def test_forensics_does_not_change_accuracy(rng):
    model, loader = setup(rng)
    plain = evaluate_defect_accuracy(model, loader, 0.1, num_runs=3, seed=7)
    forensic = evaluate_defect_accuracy(
        model, loader, 0.1, num_runs=3, seed=7, forensics=ForensicsConfig()
    )
    assert forensic.run_accuracies == plain.run_accuracies
    assert plain.forensics is None
    assert forensic.forensics is not None
    assert forensic.forensics["num_draws"] == 3
    assert forensic.forensics["p_sa"] == 0.1
    assert forensic.forensics["target"] is None


def test_forensics_skipped_at_zero_rate(rng):
    model, loader = setup(rng)
    result = evaluate_defect_accuracy(
        model, loader, 0.0, num_runs=3, seed=7, forensics=ForensicsConfig()
    )
    assert result.forensics is None


def test_forensics_bit_identical_across_worker_counts(rng):
    model, loader = setup(rng)
    aggregates = []
    for workers in (0, 2, 8):
        result = evaluate_defect_accuracy(
            model, loader, 0.15, num_runs=4, seed=11,
            workers=workers, forensics=ForensicsConfig(),
        )
        aggregates.append((result.run_accuracies, result.forensics))
    assert aggregates[0] == aggregates[1] == aggregates[2]


def test_forensics_events_rebuild_live_aggregate(rng):
    model, loader = setup(rng)
    sink = telemetry.MemorySink()
    telemetry.start_run(sink=sink)
    result = evaluate_defect_accuracy(
        model, loader, 0.1, num_runs=3, seed=7, forensics=ForensicsConfig()
    )
    draws = [e for e in sink.events if e["kind"] == "forensics_draw"]
    assert len(draws) == 3
    assert {e["draw"] for e in draws} == {0, 1, 2}
    (offline,) = aggregate_events(sink.events)
    assert offline["layers"] == result.forensics["layers"]
    assert offline["num_samples"] == result.forensics["num_samples"]
    evals = [e for e in sink.events if e["kind"] == "forensics_eval"]
    assert len(evals) == 1
    assert evals[0]["layers"] == result.forensics["layers"]


def test_layer_sensitivity_forensics(rng):
    model, loader = setup(rng)
    sink = telemetry.MemorySink()
    telemetry.start_run(sink=sink)
    plain = layer_sensitivity(model, loader, 0.2, num_runs=2, seed=13)
    forensic = layer_sensitivity(
        model, loader, 0.2, num_runs=2, seed=13, forensics=ForensicsConfig()
    )
    assert [s.mean_accuracy for s in forensic] == [
        s.mean_accuracy for s in plain
    ]
    assert all(s.num_runs == 2 for s in forensic)
    assert all(s.std_accuracy >= 0.0 for s in forensic)
    targets = {
        e["target"] for e in sink.events if e["kind"] == "forensics_draw"
    }
    assert targets == {s.name for s in forensic}
    evals = [e for e in sink.events if e["kind"] == "forensics_eval"]
    assert {e["target"] for e in evals} == targets


def test_layer_sensitivity_forensics_parallel_identical(rng):
    model, loader = setup(rng)
    serial = layer_sensitivity(
        model, loader, 0.2, num_runs=2, seed=13, forensics=ForensicsConfig()
    )
    pooled = layer_sensitivity(
        model, loader, 0.2, num_runs=2, seed=13, workers=2,
        forensics=ForensicsConfig(),
    )
    assert serial == pooled


# -- rendering ---------------------------------------------------------------
def _recorded_events(rng):
    model, loader = setup(rng)
    sink = telemetry.MemorySink()
    telemetry.start_run(sink=sink)
    for rate in (0.05, 0.15):
        evaluate_defect_accuracy(
            model, loader, rate, num_runs=2, seed=3,
            forensics=ForensicsConfig(),
        )
    layer_sensitivity(
        model, loader, 0.1, num_runs=2, seed=3, forensics=ForensicsConfig()
    )
    telemetry.end_run()
    return sink.events


def test_render_forensics_text(rng):
    events = _recorded_events(rng)
    text = render_forensics(aggregate_events(events))
    assert "Per-layer deviation heatmap" in text
    assert "0.05" in text and "0.15" in text
    assert "First-divergence attribution" in text
    summary = forensics_summary(aggregate_events(events))
    assert summary["draws"] == 4 + 2 * len(
        {e["target"] for e in events if e.get("target")}
    )
    assert summary["aggregates"] >= 2


def test_render_forensics_rejects_unknown_metric(rng):
    events = _recorded_events(rng)
    with pytest.raises(ValueError):
        render_forensics(aggregate_events(events), metric="bogus")

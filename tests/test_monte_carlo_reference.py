"""The three Monte Carlo entry points against a plain reference loop.

``evaluate_defect_accuracy``, ``simulate_fleet`` and ``layer_sensitivity``
run their draws through ``ParallelMap.map``.  The reference here is the
seed-driven draw loop written out serially from public pieces:
``draw_streams`` for the per-draw streams, a ``FaultInjector`` on
``default_rng(stream)`` followed by ``evaluate_accuracy`` (or a
``DeviationProbe`` replay for forensics), and ``fault_model.apply`` on a
single tensor for sensitivity.  Every number must match it bit for bit,
at any worker count, with and without forensics.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.core import (
    FaultInjector,
    evaluate_accuracy,
    evaluate_defect_accuracy,
    layer_sensitivity,
    simulate_fleet,
)
from repro.datasets import DataLoader, make_synthetic_pair
from repro.forensics import DeviationProbe, ForensicsConfig, aggregate_payloads
from repro.models import resnet8
from repro.reram import WeightSpaceFaultModel
from repro.reram.deploy import crossbar_parameters
from repro.seeding import draw_streams
from repro.telemetry import MemorySink

P_SA = 0.05
RUNS = 4
SEED = 321


@pytest.fixture(scope="module")
def model():
    return resnet8(num_classes=4, base_width=4, rng=np.random.default_rng(3))


@pytest.fixture(scope="module")
def loader():
    _, test = make_synthetic_pair(
        num_classes=4, image_size=8, train_size=8, test_size=24,
        seed=1, bandwidth=1, channels=3,
    )
    return DataLoader(test, 12, shuffle=False)


@pytest.fixture(autouse=True)
def _no_leaked_run():
    yield
    telemetry.end_run()


def reference_draws(model, loader, p_sa, num_runs, seed, forensics=None):
    """Whole-model fault draws, one after another: accuracies, payloads."""
    accuracies, payloads = [], []
    for stream in draw_streams(seed, num_runs):
        injector = FaultInjector(model, rng=np.random.default_rng(stream))
        if forensics is None:
            with injector.faults(p_sa):
                accuracies.append(evaluate_accuracy(model, loader))
            continue
        injector.inject(p_sa)
        try:
            faulted = {
                name: param.data.copy()
                for name, param in crossbar_parameters(model)
            }
        finally:
            injector.restore()
        accuracy, payload = DeviationProbe(model, forensics).compare(
            loader, faulted
        )
        accuracies.append(accuracy)
        payloads.append(payload)
    return accuracies, payloads


def reference_layer_cells(model, loader, p_sa, num_runs, seed, forensics=None):
    """Single-tensor fault draws, layer-major: accuracies, payloads per layer."""
    fault_model = WeightSpaceFaultModel()
    targets = crossbar_parameters(model)
    streams = draw_streams(seed, len(targets) * num_runs)
    cells = {}
    for i, (name, param) in enumerate(targets):
        pristine = param.data.copy()
        accuracies, payloads = [], []
        for j in range(num_runs):
            rng = np.random.default_rng(streams[i * num_runs + j])
            faulted = fault_model.apply(pristine, p_sa, rng)
            if forensics is None:
                param.data = faulted
                try:
                    accuracies.append(evaluate_accuracy(model, loader))
                finally:
                    param.data = pristine
            else:
                accuracy, payload = DeviationProbe(model, forensics).compare(
                    loader, {name: faulted}
                )
                accuracies.append(accuracy)
                payloads.append(payload)
        cells[name] = (accuracies, payloads)
    return cells


@pytest.mark.parametrize("workers", [0, 2])
@pytest.mark.parametrize("forensic", [False, True], ids=["plain", "forensics"])
def test_defect_evaluation_matches_reference(model, loader, workers, forensic):
    forensics = ForensicsConfig() if forensic else None
    accuracies, payloads = reference_draws(
        model, loader, P_SA, RUNS, SEED, forensics
    )
    evaluation = evaluate_defect_accuracy(
        model, loader, P_SA, num_runs=RUNS, seed=SEED, workers=workers,
        forensics=forensics,
    )
    assert evaluation.run_accuracies == accuracies
    assert evaluation.mean_accuracy == float(np.mean(accuracies))
    assert evaluation.std_accuracy == float(np.std(accuracies))
    assert evaluation.seed == SEED
    if forensic:
        expected = aggregate_payloads(payloads)
        expected.update(p_sa=P_SA, target=None)
        assert evaluation.forensics == expected
    else:
        assert evaluation.forensics is None


@pytest.mark.parametrize("workers", [0, 2])
def test_fleet_matches_reference(model, loader, workers):
    accuracies, _ = reference_draws(model, loader, P_SA, RUNS, SEED)
    report = simulate_fleet(
        model, loader, P_SA, num_devices=RUNS, seed=SEED, workers=workers
    )
    assert report.accuracies == accuracies
    assert report.seed == SEED


@pytest.mark.parametrize("workers", [0, 2])
@pytest.mark.parametrize("forensic", [False, True], ids=["plain", "forensics"])
def test_layer_sensitivity_matches_reference(model, loader, workers, forensic):
    forensics = ForensicsConfig() if forensic else None
    clean = evaluate_accuracy(model, loader)
    cells = reference_layer_cells(model, loader, 0.1, 2, SEED, forensics)
    sink = MemorySink()
    with telemetry.session(sink=sink):
        results = layer_sensitivity(
            model, loader, 0.1, num_runs=2, seed=SEED, workers=workers,
            forensics=forensics,
        )
    assert sorted(r.name for r in results) == sorted(cells)
    for result in results:
        accuracies, _ = cells[result.name]
        assert result.mean_accuracy == float(np.mean(accuracies))
        assert result.std_accuracy == float(np.std(accuracies))
        assert result.accuracy_drop == clean - result.mean_accuracy
    aggregates = {
        event["target"]: event
        for event in sink.events
        if event["kind"] == "forensics_eval"
    }
    if not forensic:
        assert aggregates == {}
        return
    assert list(aggregates) == [name for name, _ in crossbar_parameters(model)]
    for name, (_, payloads) in cells.items():
        expected = aggregate_payloads(payloads)
        expected.update(p_sa=0.1, target=name)
        event = aggregates[name]
        assert {key: event[key] for key in expected} == expected


@pytest.mark.parametrize("forensic", [False, True], ids=["plain", "forensics"])
def test_serial_evaluation_event_order_matches_reference(
    model, loader, forensic
):
    # The reference loop's per-draw order: the injector's fault_inject,
    # then defect_draw, then (with forensics) forensics_draw.  Heartbeats
    # are rate-limited by the wall clock, so they are left out.
    forensics = ForensicsConfig() if forensic else None
    per_draw = ["fault_inject", "defect_draw"]
    closing = ["defect_eval"]
    if forensic:
        per_draw.append("forensics_draw")
        closing.insert(0, "forensics_eval")
    expected = ["model_cost"] + per_draw * RUNS + closing
    sink = MemorySink()
    with telemetry.session(sink=sink):
        evaluate_defect_accuracy(
            model, loader, P_SA, num_runs=RUNS, seed=SEED, workers=0,
            forensics=forensics,
        )
    kinds = [
        event["kind"]
        for event in sink.events
        if event["kind"] not in ("run_start", "run_end", "heartbeat")
    ]
    assert kinds == expected
    heartbeats = [e for e in sink.events if e["kind"] == "heartbeat"]
    assert heartbeats
    assert {e["label"] for e in heartbeats} == {f"defect_eval p_sa={P_SA:g}"}
    assert heartbeats[-1]["completed"] == RUNS

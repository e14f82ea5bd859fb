"""Tests of the end-to-end benchmark harness itself (no real workload).

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

import json
import os
import re

import pytest

import child
import run
import tracer

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


def _declared(section):
    with open(BENCHMARK) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


# -- self time ----------------------------------------------------------------
def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        # id, parent, op, name, start, end
        [0, None, 0, "root", 0.0, 10.0],
        [1, 0, 0, "a", 1.0, 4.0],
        [2, 0, 0, "b", 5.0, 9.0],
        [3, 2, 0, "a", 6.0, 7.0],
        [4, 0, 0, "c", 3.0, 6.0],  # overlaps a and b: covered once
    ]
    own = tracer.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 8.0)
    assert own[2] == pytest.approx(3.0)
    assert [own[1], own[3], own[4]] == pytest.approx([3.0, 1.0, 3.0])
    table = tracer.summarize(spans)
    assert table["a"] == {"calls": 2, "busy_s": 4.0, "self_s": 4.0}
    assert table["root"]["busy_s"] == 10.0


# -- golden comparison and failure accounting ---------------------------------
class _Doubler:
    """A stand-in workload whose op k outputs 2k."""

    def check(self, outputs):
        return {index: [] for index in outputs}

    def fingerprint(self, output):
        return {"value": output}

    def matches(self, fingerprint, golden):
        return fingerprint == golden


def _fake_child(trace=False, problems=None):
    done = run.ChildRun()
    done.started, done.ready_at, done.ended = 0.0, 0.5, 20.0
    done.maxrss_kb = 2048
    phases = ("untraced", "traced") if trace else ("untraced",)
    done.ops = [
        {"phase": phase, "index": i, "start": 1.0 + i + 10 * (phase == "traced"),
         "seconds": 0.1 + 0.01 * i, "items": 10, "problems": []}
        for phase in phases for i in range(3)
    ]
    done.result = {
        "problems": problems or {"0": [], "1": [], "2": []},
        "golden_checked": 3,
        "env": {},
    }
    if trace:
        done.result["traced_problems"] = {}
        done.result["trace"] = {
            "ops": 3,
            "table": {
                "e2e.op": {"calls": 3, "busy_s": 0.4, "self_s": 0.05},
                "nn.conv2d.forward": {"calls": 6, "busy_s": 0.2, "self_s": 0.1},
            },
            "counts": {"reram.cells_drawn": 300},
        }
    return done


def _main(monkeypatch, capsys, argv, done):
    monkeypatch.setattr(run, "run_child", lambda *args, **kwargs: done)
    monkeypatch.setattr(run, "_become_subreaper", lambda: None)
    for name, value in run.PINNED.items():  # restored after the test
        monkeypatch.setenv(name, value)
    status = run.main(["--workload", "eval_resnet", "--seconds", "1", *argv])
    return status, capsys.readouterr().out.splitlines()


def test_perturbed_golden_value_fails_the_op_and_the_run(monkeypatch, capsys):
    outputs = {0: 0, 1: 2, 2: 4}
    golden = [{"value": 0}, {"value": 3}, {"value": 4}]  # op 1 perturbed
    checks = child.check_outputs(_Doubler(), outputs, golden)
    assert checks["golden_checked"] == 3
    assert checks["problems"][1] == ["output differs from golden.json"]
    assert checks["problems"][0] == checks["problems"][2] == []

    problems = {str(k): v for k, v in checks["problems"].items()}
    status, lines = _main(monkeypatch, capsys, [], _fake_child(problems=problems))
    result = json.loads(lines[-1])
    assert status == 1
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 3, 1)


def test_clean_run_exits_zero_with_raw_times(monkeypatch, capsys):
    status, lines = _main(monkeypatch, capsys, [], _fake_child())
    assert status == 0
    result = json.loads(lines[-1])
    assert result["correct"] is True
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics == {"setup_s": 0.5, "peak_rss_mb": 2.0}
    # Ops of 0.10, 0.11 and 0.12 s; the first is a warm-up and not timed.
    stats = run.op_stats(_fake_child().ops[1:])
    assert stats["op_p50_s"] == pytest.approx(0.115)
    assert stats["items_per_s"] == pytest.approx(20 / 0.23)
    assert any(line.startswith("# timed ops") and "n=2 " in line for line in lines)


def test_deadline_counts_every_op_failed():
    assert run.failed_ops([{"phase": "untraced", "index": 0, "problems": []}], None) == (2, 2)


# -- metric names -------------------------------------------------------------
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_the_declared_ones(monkeypatch, capsys, trace, section):
    status, lines = _main(
        monkeypatch, capsys, ["--trace", str(trace)], _fake_child(trace=bool(trace))
    )
    assert status == 0
    declared = _declared(section)
    printed = {}
    for line in lines[:-1]:
        if line.startswith("#"):
            continue
        name, value, unit = line.split(" ")
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
        float(value)
        printed[name] = unit
    assert printed == declared
    metrics = json.loads(lines[-1])["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == declared


def test_trace_overhead_leaves_out_the_warm_up_op():
    ops = [
        {"phase": phase, "seconds": seconds}
        for phase in ("untraced", "traced")
        for seconds in (0.5, 0.1, 0.2)
    ]
    assert run.trace_overhead(ops) == pytest.approx(0.0)
    # Op 0 is left out: ops 1 and 2 then take 0.4 s traced, 0.3 s untraced.
    ops[-1]["seconds"] = 0.3
    assert run.trace_overhead(ops) == pytest.approx(1 / 3)


def test_layer_times_are_shares_of_the_op_busy_time():
    stats = {"items_per_s": 10.0, "op_p50_s": 0.5}
    metrics = run.layer_metrics(_fake_child(trace=True).result["trace"], stats, 0.25)
    assert metrics["trace_overhead"] == 0.25
    assert (metrics["e2e.items_per_s"], metrics["e2e.op_p50_s"]) == (10.0, 0.5)
    assert metrics["e2e.op.busy_ms"] == pytest.approx(400.0 / 3)
    assert metrics["e2e.op.self_share"] == pytest.approx(0.125)
    assert metrics["nn.conv2d.forward.calls"] == 2.0
    assert metrics["nn.conv2d.forward.busy_share"] == pytest.approx(0.5)
    assert metrics["nn.conv2d.forward.self_share"] == pytest.approx(0.25)
    # A call the workload never makes reads 0 as a share.
    assert metrics["nn.conv2d.backward.self_share"] == 0.0
    assert metrics["reram.cells_drawn"] == 100.0


def test_benchmark_json_lists_every_per_layer_metric():
    assert _declared("per_layer") == run.per_layer_units()
    assert _declared("end_to_end") == run.END_TO_END


# -- tracer ---------------------------------------------------------------------
def _attribute_state():
    """Every (owner, name) -> own attribute the tracer may replace."""
    import importlib

    state = {}
    for target in tracer.TARGETS:
        module = importlib.import_module(target.module)
        owner_name, _, attr = target.attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            state[(owner, attr)] = vars(owner).get(attr, "<inherited>")
        else:
            original = getattr(module, attr)
            for holder, name in tracer._bindings(original):
                state[(holder, name)] = original
    return state


def test_tracer_restores_every_attribute_it_wrapped():
    import numpy as np
    import repro  # noqa: F401  (loads every module the targets name)

    before = _attribute_state()
    spans = tracer.Tracer().install()
    try:
        assert _attribute_state() != before
        data = repro.datasets.ArrayDataset(np.zeros((3, 1, 2, 2)), np.zeros(3))
        loader = repro.datasets.DataLoader(data, batch_size=2, shuffle=False)
        with spans.op(0):
            repro.nn.conv.im2col(np.zeros((1, 1, 3, 3)), 3, 1, 1)
            for _ in range(2):  # the second pass repeats both batches
                assert len(list(loader)) == 2
        repro.nn.conv.im2col(np.zeros((1, 1, 3, 3)), 3, 1, 1)  # between ops
        batch = "datasets.loader.batch"
        assert [s[3] for s in spans.spans] == [
            tracer.OP_SPAN, "nn.im2col", batch, batch, batch, batch
        ]
        assert spans.counts["datasets.loader.repeat_batches"] == 2
    finally:
        spans.restore()
    assert _attribute_state() == before
    assert "forward" not in vars(repro.nn.BatchNorm2d)

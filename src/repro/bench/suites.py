"""The default benchmark suite: the repo's real hot paths.

Importing this module registers every case on the default registry (the
CLI and the pytest-benchmark wrappers both import it).  Cases cover the
kernels the paper's pipeline spends its time in:

* ``conv2d/forward`` / ``conv2d/train_step`` — the numpy convolution
  every model forward/backward bottoms out in (a backward consumes its
  forward's saved state, so the training case times the pair);
* ``batchnorm2d/train_step`` / ``relu/train_step`` — the layers between
  convolutions, fed a conv output's NHWC memory;
* ``faults/sample_fault_map`` / ``faults/apply`` — the per-step fault
  draw that stochastic fault-tolerant training performs on *every*
  forward pass;
* ``crossbar/map_matrix`` / ``crossbar/matvec`` — differential-pair
  weight programming and the Kirchhoff MVM;
* ``adc/bit_serial_mvm`` — the bit-serial input-DAC/column-ADC MVM;
* ``eval/defect_draw`` — one full draw of the paper's testing protocol
  (inject → evaluate → restore), the unit repeated 100× per reported
  accuracy;
* ``forensics/probe_overhead`` — one forensic deviation-probe draw
  (clean + faulted forwards with activation taps on every leaf), the
  extra work each Monte Carlo draw pays when forensics is enabled —
  compare against ``eval/defect_draw`` for the tap overhead;
* ``parallel/defect_eval_serial`` / ``parallel/defect_eval_workers2`` —
  the same multi-draw evaluation serial vs. through a 2-worker
  ``repro.parallel`` pool, so BENCH comparisons track the
  parallelisation overhead/speedup (pool start-up is inside the timed
  region; the speedup needs at least two free cores);
* ``train/resnet8_epoch`` — one epoch of standard training on synthetic
  data, the unit pretraining repeats for 160 epochs;
* ``telemetry/trace_export`` — rendering a pooled run's event log to
  Chrome trace-event JSON, the work every session close performs;
* ``telemetry/report_render`` — aggregating a synthetic multi-run
  ledger into the self-contained HTML dashboard, the work
  ``python -m repro.telemetry report`` performs;
* ``telemetry/profile_collapse`` — collapsing a sampled-stack aggregate
  into its collapsed-text / speedscope / flamegraph-SVG exports, the
  work ``python -m repro.telemetry flame`` performs;
* ``sweep/plan_and_validate`` — fail-fast sweep-spec validation plus
  deterministic grid expansion with per-cell config digests, the fixed
  cost every ``repro.sweep`` invocation (and resume) pays;
* ``startup/import_repro`` — a fresh interpreter running ``import
  repro``, the start-up every CLI command, benchmark child and spawned
  worker pays before any work.

The ``fast`` tier sizes each case for CI (whole suite well under two
minutes); ``full`` uses the microbenchmark sizes for real optimisation
work.  Input sizes live in each case's ``params`` and are recorded in
the BENCH document, so files measured at different sizes refuse to
compare.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np

from .. import nn
from ..core.evaluate import evaluate_defect_accuracy
from ..core.training import Trainer
from ..datasets import DataLoader, make_synthetic_pair
from ..lint import lint_paths
from ..models import resnet8
from ..reram import (
    ADCModel,
    BitSerialMVM,
    BitSlicedMapper,
    CrossbarMapper,
    ReRAMDeviceModel,
    StuckAtFaultSpec,
    WeightSpaceFaultModel,
    sample_fault_map,
)
from .registry import benchmark

__all__: list = []


def _conv_setup(params: dict, rng: np.random.Generator) -> dict:
    layer = nn.Conv2d(
        params["cin"], params["cout"], 3, padding=1, rng=rng
    )
    x = rng.normal(size=(params["batch"], params["cin"], params["size"], params["size"]))
    return {"layer": layer, "x": x}


def _nhwc_normal(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Standard normals of NCHW ``shape`` in NHWC memory, as a conv
    output and BatchNorm2d's backward hold them."""
    nhwc = rng.normal(size=shape).transpose(0, 2, 3, 1)
    return np.ascontiguousarray(nhwc).transpose(0, 3, 1, 2)


def _conv_train_setup(params: dict, rng: np.random.Generator) -> dict:
    """As a training step sees it: the gradient is NHWC memory behind an
    NCHW view, the layout BatchNorm2d backward returns for a conv output."""
    state = _conv_setup(params, rng)
    state["grad"] = _nhwc_normal(rng, state["layer"](state["x"]).shape)
    return state


@benchmark(
    "conv2d/forward",
    params={
        "fast": {"batch": 4, "cin": 8, "cout": 16, "size": 10},
        # The bench ResNet-8 stage-1 conv on a test batch: 17 image blocks.
        "full": {"batch": 100, "cin": 16, "cout": 16, "size": 12},
    },
    setup=_conv_setup,
    description="Conv2d forward pass (3x3, padded)",
)
def _conv_forward(state):
    return state["layer"](state["x"])


@benchmark(
    "conv2d/train_step",
    params={
        "fast": {"batch": 4, "cin": 8, "cout": 16, "size": 10},
        # The bench ResNet-8 stage-1 conv on a training batch: the data
        # gradient runs in several image blocks.
        "full": {"batch": 50, "cin": 16, "cout": 16, "size": 12},
    },
    setup=_conv_train_setup,
    description="Conv2d forward + backward pass (input + weight gradients)",
)
def _conv_train_step(state):
    state["layer"](state["x"])
    return state["layer"].backward(state["grad"])


def _activation_setup(make_layer):
    """Setup for a layer fed a Conv2d output: the input is NHWC memory, and
    the gradient NCHW memory, as ``col2im`` and ReLU backward return it."""

    def setup(params: dict, rng: np.random.Generator) -> dict:
        shape = (params["batch"], params["channels"], params["size"], params["size"])
        x = _nhwc_normal(rng, shape)
        return {"layer": make_layer(params), "x": x, "grad": rng.normal(size=shape)}

    return setup


def _forward_backward(state):
    state["layer"](state["x"])
    return state["layer"].backward(state["grad"])


#: Small maps for CI; the bench ResNet-8's stage-1 activation on a
#: training batch for real work.
_ACTIVATION_PARAMS = {
    "fast": {"batch": 8, "channels": 8, "size": 8},
    "full": {"batch": 50, "channels": 16, "size": 12},
}

benchmark(
    "batchnorm2d/train_step",
    params=_ACTIVATION_PARAMS,
    setup=_activation_setup(lambda params: nn.BatchNorm2d(params["channels"])),
    description="BatchNorm2d training forward + backward on a conv output",
)(_forward_backward)

benchmark(
    "relu/train_step",
    params=_ACTIVATION_PARAMS,
    setup=_activation_setup(lambda params: nn.ReLU()),
    description="ReLU forward + backward on a conv output",
)(_forward_backward)


def _fault_map_setup(params: dict, rng: np.random.Generator) -> dict:
    return {
        "shape": tuple(params["shape"]),
        "spec": StuckAtFaultSpec(params["p_sa"]),
        "rng": rng,
    }


@benchmark(
    "faults/sample_fault_map",
    params={
        "fast": {"shape": [128, 128], "p_sa": 0.05},
        "full": {"shape": [256, 256], "p_sa": 0.05},
    },
    setup=_fault_map_setup,
    description="Stuck-at fault-map draw over a crossbar tile",
)
def _sample_fault_map(state):
    return sample_fault_map(state["shape"], state["spec"], state["rng"])


def _fault_apply_setup(params: dict, rng: np.random.Generator) -> dict:
    return {
        "model": WeightSpaceFaultModel(),
        "w": rng.normal(size=tuple(params["shape"])),
        "p_sa": params["p_sa"],
        "rng": rng,
    }


@benchmark(
    "faults/apply",
    params={
        "fast": {"shape": [32, 32, 3, 3], "p_sa": 0.05},
        "full": {"shape": [64, 64, 3, 3], "p_sa": 0.05},
    },
    setup=_fault_apply_setup,
    description="WeightSpaceFaultModel.apply on a conv weight tensor",
)
def _fault_apply(state):
    return state["model"].apply(state["w"], state["p_sa"], state["rng"])


def _mapper_setup(params: dict, rng: np.random.Generator) -> dict:
    device = ReRAMDeviceModel(g_off=1e-6, g_on=1e-4, levels=256)
    mapper = CrossbarMapper(device=device, tile_size=params["tile"])
    w = rng.normal(size=(params["rows"], params["cols"]))
    mapped = mapper.map_matrix(w)
    x = rng.normal(size=(params["batch"], params["rows"]))
    return {"mapper": mapper, "w": w, "mapped": mapped, "x": x}


@benchmark(
    "crossbar/map_matrix",
    params={
        "fast": {"rows": 128, "cols": 64, "tile": 64, "batch": 8},
        "full": {"rows": 256, "cols": 128, "tile": 128, "batch": 16},
    },
    setup=_mapper_setup,
    description="Differential-pair tiled weight mapping",
)
def _map_matrix(state):
    return state["mapper"].map_matrix(state["w"])


@benchmark(
    "crossbar/matvec",
    params={
        "fast": {"rows": 128, "cols": 64, "tile": 64, "batch": 8},
        "full": {"rows": 256, "cols": 128, "tile": 128, "batch": 16},
    },
    setup=_mapper_setup,
    description="Kirchhoff MVM through the mapped crossbar tiles",
)
def _matvec(state):
    return state["mapped"].matvec(state["x"])


def _bit_serial_setup(params: dict, rng: np.random.Generator) -> dict:
    device = ReRAMDeviceModel(g_off=1e-6, g_on=1e-4, levels=256)
    mapper = CrossbarMapper(device=device, tile_size=params["tile"])
    mapped = mapper.map_matrix(
        rng.normal(size=(params["rows"], params["cols"]))
    )
    mvm = BitSerialMVM(
        mapped,
        input_bits=params["input_bits"],
        adc=ADCModel(bits=8, full_scale=50.0),
    )
    return {"mvm": mvm, "x": rng.normal(size=(params["batch"], params["rows"]))}


@benchmark(
    "adc/bit_serial_mvm",
    params={
        "fast": {"rows": 64, "cols": 32, "tile": 64, "batch": 4, "input_bits": 4},
        "full": {"rows": 128, "cols": 64, "tile": 128, "batch": 8, "input_bits": 4},
    },
    setup=_bit_serial_setup,
    description="Bit-serial MVM with input DAC and column ADC",
)
def _bit_serial_mvm(state):
    return state["mvm"].matvec(state["x"])


def _bitslice_setup(params: dict, rng: np.random.Generator) -> dict:
    device = ReRAMDeviceModel(g_off=1e-6, g_on=1e-4, levels=4)
    mapper = BitSlicedMapper(
        device=device,
        bits_per_slice=params["bits_per_slice"],
        num_slices=params["num_slices"],
    )
    mapped = mapper.map_matrix(
        rng.normal(size=(params["rows"], params["cols"]))
    )
    return {"mapped": mapped}


@benchmark(
    "bitslice/read_back",
    params={
        "fast": {"rows": 64, "cols": 64, "bits_per_slice": 2, "num_slices": 4},
        "full": {"rows": 128, "cols": 128, "bits_per_slice": 2, "num_slices": 4},
    },
    setup=_bitslice_setup,
    description="Bit-sliced weight readback and recombination",
)
def _bitslice_read_back(state):
    return state["mapped"].read_back()


def _resnet_forward_setup(params: dict, rng: np.random.Generator) -> dict:
    model = resnet8(
        num_classes=params["classes"], base_width=params["width"], rng=rng
    )
    model.eval()
    x = rng.normal(
        size=(params["batch"], 3, params["image"], params["image"])
    )
    return {"model": model, "x": x}


@benchmark(
    "model/resnet8_forward",
    params={
        "fast": {"classes": 10, "width": 8, "image": 8, "batch": 8},
        "full": {"classes": 10, "width": 16, "image": 12, "batch": 16},
    },
    setup=_resnet_forward_setup,
    description="ResNet-8 inference forward pass",
)
def _resnet8_forward(state):
    return state["model"](state["x"])


def _eval_setup(params: dict, rng: np.random.Generator) -> dict:
    model = resnet8(
        num_classes=params["classes"], base_width=params["width"], rng=rng
    )
    model.eval()
    _, test = make_synthetic_pair(
        num_classes=params["classes"],
        image_size=params["image"],
        train_size=params["samples"],
        test_size=params["samples"],
        seed=0,
    )
    loader = DataLoader(test, params["samples"], shuffle=False)
    return {"model": model, "loader": loader, "p_sa": params["p_sa"]}


@benchmark(
    "eval/defect_draw",
    params={
        "fast": {"classes": 10, "width": 8, "image": 8, "samples": 32, "p_sa": 0.05},
        "full": {"classes": 10, "width": 16, "image": 12, "samples": 128, "p_sa": 0.05},
    },
    setup=_eval_setup,
    description="One defect-evaluation draw: inject, evaluate, restore",
)
def _defect_draw(state):
    return evaluate_defect_accuracy(
        state["model"],
        state["loader"],
        state["p_sa"],
        num_runs=1,
        seed=0,
    )


def _probe_setup(params: dict, rng: np.random.Generator) -> dict:
    from ..forensics import DeviationProbe
    from ..reram.deploy import crossbar_parameters
    from ..reram.faults import WeightSpaceFaultModel

    state = _eval_setup(params, rng)
    fault_model = WeightSpaceFaultModel()
    faulted = {
        name: fault_model.apply(param.data.copy(), params["p_sa"], rng)
        for name, param in crossbar_parameters(state["model"])
    }
    state["probe"] = DeviationProbe(state["model"])
    state["faulted"] = faulted
    return state


@benchmark(
    "forensics/probe_overhead",
    params={
        "fast": {"classes": 10, "width": 8, "image": 8, "samples": 32, "p_sa": 0.05},
        "full": {"classes": 10, "width": 16, "image": 12, "samples": 128, "p_sa": 0.05},
    },
    setup=_probe_setup,
    description="One forensic deviation-probe draw: clean + faulted "
    "forwards with activation taps on every leaf module",
)
def _probe_overhead(state):
    return state["probe"].compare(state["loader"], state["faulted"])


def _parallel_eval_setup(params: dict, rng: np.random.Generator) -> dict:
    state = _eval_setup(params, rng)
    state["runs"] = params["runs"]
    state["workers"] = params["workers"]
    return state


def _defect_eval_at_workers(state):
    """Shared body: a full multi-draw defect evaluation at a worker count.

    The pool (when ``workers > 1``) is created and torn down inside the
    timed region — that is the honest per-call cost a caller pays, and
    exactly what the serial case amortises away.
    """
    return evaluate_defect_accuracy(
        state["model"],
        state["loader"],
        state["p_sa"],
        num_runs=state["runs"],
        seed=0,
        workers=state["workers"],
    )


@benchmark(
    "parallel/defect_eval_serial",
    params={
        "fast": {"classes": 10, "width": 8, "image": 8, "samples": 32,
                 "p_sa": 0.05, "runs": 6, "workers": 0},
        "full": {"classes": 10, "width": 16, "image": 12, "samples": 128,
                 "p_sa": 0.05, "runs": 12, "workers": 0},
    },
    setup=_parallel_eval_setup,
    description="Multi-draw defect evaluation, serial in-process baseline",
)
def _defect_eval_serial(state):
    return _defect_eval_at_workers(state)


@benchmark(
    "parallel/defect_eval_workers2",
    params={
        "fast": {"classes": 10, "width": 8, "image": 8, "samples": 32,
                 "p_sa": 0.05, "runs": 6, "workers": 2},
        "full": {"classes": 10, "width": 16, "image": 12, "samples": 128,
                 "p_sa": 0.05, "runs": 12, "workers": 2},
    },
    setup=_parallel_eval_setup,
    description="Same evaluation through a 2-worker repro.parallel pool "
    "(pool start-up included; the speedup needs >= 2 free cores)",
)
def _defect_eval_workers2(state):
    return _defect_eval_at_workers(state)


def _train_setup(params: dict, rng: np.random.Generator) -> dict:
    model = resnet8(
        num_classes=params["classes"], base_width=params["width"], rng=rng
    )
    train, _ = make_synthetic_pair(
        num_classes=params["classes"],
        image_size=params["image"],
        train_size=params["samples"],
        test_size=params["classes"],
        seed=0,
    )
    loader = DataLoader(train, params["batch"], shuffle=True, seed=0)
    optimizer = nn.SGD(model.parameters(), lr=0.05, momentum=0.9)
    return {"trainer": Trainer(model, optimizer), "loader": loader}


@benchmark(
    "train/resnet8_epoch",
    params={
        "fast": {"classes": 10, "width": 8, "image": 8, "samples": 64, "batch": 32},
        "full": {"classes": 10, "width": 16, "image": 12, "samples": 256, "batch": 64},
    },
    setup=_train_setup,
    description="One standard training epoch of resnet8 on synthetic data",
)
def _train_epoch(state):
    return state["trainer"].train_epoch(state["loader"])


def _lint_setup(params: dict, rng: np.random.Generator) -> dict:
    # Resolve the analysis root from this file's location so the case
    # works from any cwd: src/ for the whole tree, a subpackage for the
    # fast tier.
    src_root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    scope = params["scope"]
    path = src_root if scope == "all" else os.path.join(src_root, "repro", scope)
    from ..lint import rules as _rules  # noqa: F401  (register once, untimed)

    return {"paths": [path]}


@benchmark(
    "lint/analyze_tree",
    params={"fast": {"scope": "nn"}, "full": {"scope": "all"}},
    setup=_lint_setup,
    description="repro.lint self-check: parse + every rule over the tree",
)
def _lint_analyze(state):
    return lint_paths(state["paths"])


def _lint_flow_setup(params: dict, rng: np.random.Generator) -> dict:
    state = _lint_setup(params, rng)
    from ..lint.engine import load_project

    project, _ = load_project(state["paths"])
    return {"project": project}


@benchmark(
    "lint/flow_analyze",
    params={"fast": {"scope": "telemetry"}, "full": {"scope": "all"}},
    setup=_lint_flow_setup,
    description="Cross-module dataflow rules (RL011-RL015): call-graph "
    "build + event-schema, RNG-taint, worker-purity and dead-code passes "
    "over a pre-parsed tree",
)
def _lint_flow_analyze(state):
    from ..lint.flow.callgraph import _CACHE_ATTR
    from ..lint.engine import lint_sources

    project = state["project"]
    # Drop the per-project call-graph cache so every iteration measures
    # the graph build, not just the rule passes over a memoised graph.
    if hasattr(project, _CACHE_ATTR):
        delattr(project, _CACHE_ATTR)
    return lint_sources(
        project, select=["RL011", "RL012", "RL013", "RL014", "RL015"]
    )


def _trace_export_setup(params: dict, rng: np.random.Generator) -> dict:
    # A synthetic event log shaped like a pooled run: nested spans on
    # the main process, worker_chunk spans on worker lanes, and a
    # sprinkling of instant-kind milestones.
    events = [
        {"kind": "run_start", "run_id": "bench", "seq": 0, "ts": 0.0,
         "pid": 1, "config": {}}
    ]
    seq = 1
    for i in range(params["spans"]):
        ts = 0.001 * (i + 1)
        event = {
            "kind": "span_end", "run_id": "bench", "seq": seq, "ts": ts,
            "name": f"s{i % 7}", "path": f"outer/s{i % 7}",
            "depth": 1, "seconds": 0.0005,
        }
        if i % 3 == 0:  # every third span came from a pool worker
            event["worker_pid"] = 100 + (i % 2)
            event["worker_ts"] = ts - 0.0001
        events.append(event)
        seq += 1
        if i % 10 == 0:
            events.append({
                "kind": "epoch_end", "run_id": "bench", "seq": seq,
                "ts": ts, "epoch": i // 10, "loss": 1.0,
            })
            seq += 1
    return {"events": events}


@benchmark(
    "telemetry/trace_export",
    params={"fast": {"spans": 2000}, "full": {"spans": 20000}},
    setup=_trace_export_setup,
    description="Render a pooled run's event log to Chrome trace-event JSON",
)
def _trace_export(state):
    from ..telemetry.trace import build_trace

    return build_trace(state["events"])


def _report_setup(params: dict, rng: np.random.Generator) -> dict:
    # A synthetic ledger: several finished runs, each with method_report
    # rows (the dashboard's curve/ranking raw material), defect_eval
    # sweeps and a resource-sample stream.
    import json
    import shutil  # noqa: F401  (teardown uses it; import checked here)
    import tempfile

    directory = tempfile.mkdtemp(prefix="repro-bench-report-")
    rates = [0.0, 0.005, 0.01, 0.02]
    for r in range(params["runs"]):
        run_id = f"run-2026010{r}-00000{r}"
        run_dir = os.path.join(directory, run_id)
        os.makedirs(run_dir)
        events = [
            {"kind": "run_start", "run_id": run_id, "seq": 0, "ts": 0.0,
             "pid": 1, "config": {"experiment": "bench"}}
        ]
        seq = 1
        for m in range(params["methods"]):
            events.append({
                "kind": "method_report", "run_id": run_id, "seq": seq,
                "ts": 0.1 * seq, "method": f"method_{m}",
                "acc_pretrain": 80.0, "acc_retrain": 79.0 - m,
                "defect": {str(rate): 78.0 - m - 100 * rate
                           for rate in rates},
                "metadata": {},
            })
            seq += 1
            for rate in rates:
                events.append({
                    "kind": "defect_eval", "run_id": run_id, "seq": seq,
                    "ts": 0.1 * seq, "p_sa": rate, "runs": 10,
                    "mean_accuracy": 78.0 - m - 100 * rate,
                })
                seq += 1
        for i in range(params["samples"]):
            events.append({
                "kind": "resource_sample", "run_id": run_id, "seq": seq,
                "ts": 0.01 * seq, "rss_bytes": 10_000_000 + 1000 * i,
                "cpu_seconds": 0.01 * i, "num_fds": 16,
            })
            seq += 1
        with open(os.path.join(run_dir, "events.jsonl"), "w") as f:
            for event in events:
                f.write(json.dumps(event) + "\n")
        with open(os.path.join(run_dir, "run.json"), "w") as f:
            json.dump({
                "run_id": run_id, "config": {"experiment": "bench"},
                "provenance": {"git_sha": None, "pid": 1,
                               "python": "3", "started_at": 0.0,
                               "finished_at": 1.0,
                               "duration_seconds": 1.0},
            }, f)
        with open(os.path.join(run_dir, "metrics.json"), "w") as f:
            json.dump({"counters": {}, "gauges": {}, "histograms": {}}, f)
    return {"directory": directory}


def _report_teardown(state) -> None:
    import shutil

    shutil.rmtree(state["directory"], ignore_errors=True)


@benchmark(
    "telemetry/report_render",
    params={
        "fast": {"runs": 2, "methods": 5, "samples": 100},
        "full": {"runs": 6, "methods": 10, "samples": 1000},
    },
    setup=_report_setup,
    teardown=_report_teardown,
    description="Aggregate a synthetic multi-run ledger into the "
    "self-contained HTML dashboard",
)
def _report_render(state):
    from ..telemetry.report import build_report, render_report

    return render_report(build_report(state["directory"]))


def _profile_collapse_setup(params: dict, rng: np.random.Generator) -> dict:
    # A synthetic sample multiset shaped like a profiled pooled run:
    # span-path roots, a repo-like module tree, and counts drawn once
    # from the setup generator (deterministic per seed).
    from ..telemetry.profiling import StackAggregate

    aggregate = StackAggregate()
    modules = [f"repro/nn/mod{m}.py" for m in range(8)]
    for i in range(params["stacks"]):
        depth = 2 + int(rng.integers(0, 10))
        stack = (f"span:phase{i % 3}",) + tuple(
            f"{modules[int(rng.integers(0, len(modules)))]}:fn{level}"
            for level in range(depth)
        )
        aggregate.add(stack, int(rng.integers(1, 50)))
    return {"aggregate": aggregate}


@benchmark(
    "telemetry/profile_collapse",
    params={"fast": {"stacks": 2000}, "full": {"stacks": 20000}},
    setup=_profile_collapse_setup,
    description="Collapse a sampled-stack aggregate into its three "
    "deterministic exports: collapsed text, speedscope JSON, flamegraph SVG",
)
def _profile_collapse(state):
    from ..telemetry.profiling import (
        build_speedscope,
        render_collapsed,
        render_flamegraph_svg,
    )

    aggregate = state["aggregate"]
    return (
        render_collapsed(aggregate),
        build_speedscope(aggregate),
        render_flamegraph_svg(aggregate),
    )


def _sweep_plan_setup(params: dict, rng: np.random.Generator) -> dict:
    # A grid shaped like a real study: rates x variants x training rates
    # x seeds, with profile overrides to validate too.
    rates = [round(0.005 * (i + 1), 4) for i in range(params["rates"])]
    raw = {
        "name": "bench",
        "axes": {
            "arch": ["mlp", "simple_cnn"],
            "p_sa": rates,
            "variant": ["baseline", "one_shot", "progressive"],
            "p_sa_train": [0.01, 0.05, 0.1],
        },
        "seeds": list(range(params["seeds"])),
        "profiles": {"full": {"pretrain_epochs": 8, "defect_runs": 10}},
        "max_cells": 65536,
    }
    return {"raw": raw}


@benchmark(
    "sweep/plan_and_validate",
    params={
        "fast": {"rates": 4, "seeds": 2},
        "full": {"rates": 10, "seeds": 5},
    },
    setup=_sweep_plan_setup,
    description="Fail-fast spec validation plus deterministic grid "
    "expansion with per-cell config digests (the fixed cost every "
    "sweep invocation pays before and after training)",
)
def _sweep_plan_and_validate(state):
    from ..sweep import build_spec, expand_plan

    spec = build_spec(state["raw"], strict=True)
    return expand_plan(spec, "full")


def _startup_setup(params: dict, rng: np.random.Generator) -> dict:
    # The interpreter imports the same source tree this process runs.
    src = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    return {
        "argv": [sys.executable, "-c", "import repro"],
        "env": {**os.environ, "PYTHONPATH": src},
    }


@benchmark(
    "startup/import_repro",
    params={"fast": {}, "full": {}},
    setup=_startup_setup,
    description="A fresh interpreter running `import repro` (process "
    "start included)",
)
def _startup_import_repro(state):
    subprocess.run(state["argv"], env=state["env"], check=True)

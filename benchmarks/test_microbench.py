"""Microbenchmarks of the performance-critical primitives.

Thin pytest-benchmark wrappers over the cases registered in
``repro.bench.suites`` — the same bodies ``python -m repro.bench run``
measures, so pytest-benchmark's statistics and the ``BENCH_*.json``
regression tracking always describe identical code.  Each test runs its
case at the ``full`` tier (the original microbenchmark sizes).
"""

import numpy as np
import pytest

import repro.bench.suites  # noqa: F401 — registers the default suite
from repro.bench import default_registry

SUITE = "full"


def _run_registered(benchmark, name: str) -> None:
    case = default_registry().get(name)
    state = case.build(SUITE, rng=np.random.default_rng(0))
    try:
        benchmark(lambda: case.run_once(state))
    finally:
        case.cleanup(state)


def test_apply_fault_throughput(benchmark):
    """Fault injection on a ResNet-20-sized weight tensor."""
    _run_registered(benchmark, "faults/apply")


def test_sample_fault_map_throughput(benchmark):
    _run_registered(benchmark, "faults/sample_fault_map")


def test_conv_forward_throughput(benchmark):
    _run_registered(benchmark, "conv2d/forward")


def test_conv_train_step_throughput(benchmark):
    _run_registered(benchmark, "conv2d/train_step")


def test_resnet8_forward_throughput(benchmark):
    _run_registered(benchmark, "model/resnet8_forward")


def test_crossbar_matvec_throughput(benchmark):
    _run_registered(benchmark, "crossbar/matvec")


def test_crossbar_map_matrix_latency(benchmark):
    _run_registered(benchmark, "crossbar/map_matrix")


def test_bitsliced_readback_throughput(benchmark):
    _run_registered(benchmark, "bitslice/read_back")


def test_bit_serial_mvm_throughput(benchmark):
    _run_registered(benchmark, "adc/bit_serial_mvm")


def test_defect_draw_latency(benchmark):
    _run_registered(benchmark, "eval/defect_draw")


def test_train_epoch_latency(benchmark):
    _run_registered(benchmark, "train/resnet8_epoch")

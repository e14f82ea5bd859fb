"""The process-wide heap policy (``repro._heap``).

The policy moves no value, only where the bytes live, so the guard is a
count: a steady-state training step of the bench ResNet-8 must not fault
its freed buffers back in.  Without the policy glibc trims them off the
top of the heap after every step (3,600-4,100 minor faults per step at
batch 50); with it a step takes about 8.
"""

import logging
import os
import platform
import subprocess
import sys

import pytest

from repro import _heap

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
GLIBC = platform.libc_ver()[0] == "glibc"


class _FakeMallopt:
    def __init__(self, result=1):
        self.calls = []
        self.result = result

    def __call__(self, param, value):
        self.calls.append((param, value))
        return self.result


class _FakeLibc:
    def __init__(self, result=1):
        self.mallopt = _FakeMallopt(result)


def test_policy_sets_both_thresholds_and_is_idempotent():
    libc = _FakeLibc()
    assert _heap.keep_heap_mapped(libc) is True
    assert _heap.keep_heap_mapped(libc) is True
    expected = [
        (_heap.M_MMAP_THRESHOLD, _heap.THRESHOLD),
        (_heap.M_TRIM_THRESHOLD, _heap.THRESHOLD),
    ]
    assert libc.mallopt.calls == expected * 2
    assert _heap.THRESHOLD == 32 * 1024 * 1024


def test_policy_is_a_noop_without_mallopt(monkeypatch):
    """A C library without ``mallopt`` (macOS, musl) is left alone."""
    monkeypatch.setattr(_heap.ctypes, "CDLL", lambda name: object())
    assert _heap.keep_heap_mapped() is False


def test_policy_reports_a_refused_setting(caplog):
    libc = _FakeLibc(result=0)
    with caplog.at_level(logging.WARNING, logger="repro._heap"):
        assert _heap.keep_heap_mapped(libc) is False
    assert len(libc.mallopt.calls) == 2
    assert "mallopt" in caplog.text


@pytest.mark.skipif(not GLIBC, reason="mallopt is glibc's")
def test_policy_applies_on_glibc():
    assert _heap.keep_heap_mapped() is True


_STEPS = """
import resource
import numpy as np
from repro import nn
from repro.experiments import get_scale
from repro.experiments.runner import build_backbone

scale = get_scale("bench")
model = build_backbone(scale, 10, np.random.default_rng(scale.seed + 10))
optimizer = nn.SGD(
    model.parameters(), lr=scale.lr, momentum=scale.momentum,
    weight_decay=scale.weight_decay,
)
loss_fn = nn.CrossEntropyLoss()
rng = np.random.default_rng(5)
images = rng.normal(size=(50, 3, scale.image_size, scale.image_size))
labels = rng.integers(0, 10, size=50)


def step():
    optimizer.zero_grad()
    _, grad = loss_fn(model(images), labels)
    model.backward(grad)
    optimizer.step()


for _ in range(3):
    step()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    step()
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print((after - before) / 10)
"""


@pytest.mark.skipif(not GLIBC, reason="the policy is glibc's mallopt")
def test_training_step_keeps_its_heap_mapped():
    """Steady-state SGD steps of the bench ResNet-8 (batch 50) reuse the
    heap the previous step freed instead of faulting it back in."""
    out = subprocess.run(
        [sys.executable, "-c", _STEPS],
        capture_output=True,
        text=True,
        check=True,
        env={
            **os.environ,
            "PYTHONPATH": os.path.join(ROOT, "src"),
            "OPENBLAS_NUM_THREADS": "1",
        },
    ).stdout
    faults_per_step = float(out.split()[-1])
    assert faults_per_step <= 100, f"{faults_per_step} minor faults per step"

"""No ``repro`` module first loads inside a pool worker.

``ParallelMap`` forks a fresh pool per call, so a module a task imports
for the first time is imported again by every worker of every pool.  The
leaf-import rule (DESIGN.md §7) keeps that from happening: ``import
repro`` loads the pipeline, and a caller whose tasks reach a deferred
import loads it before its pool forks.  This test drives the pooled entry
points from a fresh interpreter that ran only ``import repro`` and
records, inside each worker, the modules a chunk loaded.
"""

import json
import os
import subprocess
import sys

SCRIPT = r"""
import json, os, sys
import numpy as np
import repro
import repro.sweep
from repro.parallel import executor, worker


def run_chunk_recording_loads(fn, indexed_tasks):
    before = set(sys.modules)
    payload = worker.run_chunk(fn, indexed_tasks)
    loaded = sorted(
        m for m in set(sys.modules) - before if m.split(".")[0] == "repro"
    )
    # One write per chunk: lines from concurrent workers do not interleave.
    os.write(1, ("LOADED " + json.dumps(loaded) + "\n").encode())
    return payload


executor.run_chunk = run_chunk_recording_loads
out = sys.argv[1]
spec = {
    "name": "worker-imports",
    "axes": {
        "arch": ["mlp"],
        "p_sa": [0.05],
        "variant": ["baseline"],
        "sparsity": [0.0, 0.5],
        "quant_bits": [0, 4],
    },
    "seeds": [0],
    "profiles": {
        "smoke": {
            "train_size": 32, "train_size_large": 32, "test_size": 16,
            "batch_size": 16, "defect_runs": 2,
            "num_classes_small": 4, "num_classes_large": 4,
        }
    },
}
repro.sweep.run_sweep(
    spec, sweep_dir=os.path.join(out, "sweep"), profile="smoke", workers=2
)
model = repro.models.MLP(48, [16], 4, rng=np.random.default_rng(7))
_, test = repro.datasets.make_synthetic_pair(
    num_classes=4, image_size=4, train_size=8, test_size=24,
    seed=0, bandwidth=1, channels=3,
)
loader = repro.datasets.DataLoader(test, 24, shuffle=False)
with repro.telemetry.session(os.path.join(out, "telemetry")):
    repro.core.simulate_fleet(model, loader, 0.05, num_devices=4, seed=1, workers=2)
    repro.core.evaluate_defect_accuracy(
        model, loader, 0.05, num_runs=4, seed=1, workers=2
    )
"""


def test_pooled_tasks_load_no_repro_module(tmp_path):
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    stdout = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        capture_output=True,
        text=True,
        check=True,
        env={
            **os.environ,
            "PYTHONPATH": os.path.join(root, "src"),
            "OPENBLAS_NUM_THREADS": "1",
        },
    ).stdout
    chunks = [
        json.loads(line[len("LOADED "):])
        for line in stdout.splitlines()
        if line.startswith("LOADED ")
    ]
    # Fleet and defect evaluation: at least one chunk per worker each;
    # the sweep: one chunk per cell.
    assert len(chunks) >= 8
    loaded = sorted({name for chunk in chunks for name in chunk})
    assert not loaded, f"modules first loaded inside a worker: {loaded}"

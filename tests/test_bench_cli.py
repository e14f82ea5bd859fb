"""Tests for the `python -m repro.bench` CLI and `summary --top N`."""

import json
import os
import re
import subprocess

import pytest

from repro.bench import load_bench
from repro.bench.cli import build_parser, main as bench_main
from repro.bench.provenance import git_dirty, git_sha
from repro.bench.report import format_seconds, format_table


# -- parser -----------------------------------------------------------------


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_run_defaults():
    args = build_parser().parse_args(["run"])
    assert args.suite == "fast"
    assert args.output is None


def test_parser_rejects_unknown_suite():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--suite", "nightly"])


# -- list -------------------------------------------------------------------


def test_list_shows_default_suite(capsys):
    assert bench_main(["list"]) == 0
    out = capsys.readouterr().out
    for name in (
        "conv2d/forward",
        "conv2d/train_step",
        "faults/sample_fault_map",
        "faults/apply",
        "crossbar/map_matrix",
        "crossbar/matvec",
        "adc/bit_serial_mvm",
        "eval/defect_draw",
        "train/resnet8_epoch",
    ):
        assert name in out


# -- run --------------------------------------------------------------------


def test_run_writes_schema_valid_bench_file(tmp_path, capsys):
    out = str(tmp_path / "BENCH_0.json")
    code = bench_main(
        [
            "run",
            "--suite",
            "fast",
            "--filter",
            "faults/sample_fault_map",
            "-o",
            out,
            "--warmup",
            "1",
            "--min-repeats",
            "3",
            "--max-repeats",
            "3",
            "--min-time",
            "0",
            "--quiet",
        ]
    )
    assert code == 0
    doc = load_bench(out)  # validates on read
    case = doc["cases"]["faults/sample_fault_map"]
    assert case["repeats"] == 3
    assert case["stats"]["median"] > 0.0
    assert "mad" in case["stats"] and "p95" in case["stats"]
    # None outside a git checkout (an exported tree), else a full SHA-1.
    sha = doc["provenance"]["git_sha"]
    assert sha == git_sha()
    assert sha is None or re.fullmatch(r"[0-9a-f]{40}", sha)
    assert doc["provenance"]["numpy"]
    captured = capsys.readouterr().out
    assert "faults/sample_fault_map" in captured


def test_git_provenance_names_the_loaded_checkout(tmp_path, monkeypatch):
    """Started from another working directory, ``git_sha()`` still names
    the checkout the ``repro`` package was loaded from."""
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    head = subprocess.run(
        ["git", "-C", root, "rev-parse", "HEAD"],
        capture_output=True, text=True,
    )
    if head.returncode != 0:
        pytest.skip("not a git checkout")
    monkeypatch.chdir(tmp_path)
    assert git_sha() == head.stdout.strip()
    assert isinstance(git_dirty(), bool)
    # An explicit working directory still wins.
    assert git_sha(cwd=str(tmp_path)) is None


def test_run_profile_stores_function_digests(tmp_path, capsys):
    out = str(tmp_path / "BENCH_p.json")
    code = bench_main(
        [
            "run",
            "--suite",
            "fast",
            "--filter",
            "telemetry/profile_collapse",
            "-o",
            out,
            "--warmup",
            "1",
            "--min-repeats",
            "3",
            "--min-time",
            "0.3",
            "--profile",
            "--quiet",
        ]
    )
    assert code == 0
    doc = load_bench(out)  # profile block must validate
    case = doc["cases"]["telemetry/profile_collapse"]
    profile = case["profile"]
    assert profile["interval"] > 0
    assert profile["repeats"] == case["repeats"]
    # 0.3s of measured work at 100 Hz lands a healthy sample count.
    assert profile["samples"] > 5
    assert profile["functions"]
    assert all(
        entry["total"] >= entry["self"] >= 0
        for entry in profile["functions"].values()
    )


def test_run_without_profile_omits_digest(tmp_path, capsys):
    out = str(tmp_path / "BENCH_np.json")
    code = bench_main(
        [
            "run",
            "--filter",
            "faults/sample_fault_map",
            "-o",
            out,
            "--warmup",
            "1",
            "--min-repeats",
            "3",
            "--max-repeats",
            "3",
            "--min-time",
            "0",
            "--quiet",
        ]
    )
    assert code == 0
    case = load_bench(out)["cases"]["faults/sample_fault_map"]
    assert "profile" not in case


def test_run_unknown_filter_exits_2(capsys):
    assert bench_main(["run", "--filter", "zzz", "--quiet"]) == 2
    assert "no benchmark cases" in capsys.readouterr().err


# -- report helpers ---------------------------------------------------------


def test_format_seconds_scales():
    assert format_seconds(None) == "-"
    assert format_seconds(90.0) == "1.5m"
    assert format_seconds(1.5) == "1.50s"
    assert format_seconds(0.0015).endswith("ms")
    assert format_seconds(1.5e-6).endswith("µs")
    assert format_seconds(5e-9).endswith("ns")


def test_format_table_alignment_and_validation():
    text = format_table(["name", "n"], [["a", 1], ["bb", 22]])
    lines = text.splitlines()
    assert lines[0].startswith("name")
    assert lines[1].startswith("--")
    assert lines[2].split() == ["a", "1"]
    with pytest.raises(ValueError):
        format_table(["a"], [["x", "y"]])
    with pytest.raises(ValueError):
        format_table(["a", "b"], [], aligns=["l"])


# -- summary --top ----------------------------------------------------------


def _record_run(tmp_path):
    import numpy as np

    from repro import telemetry
    from repro.models import MLP
    from repro.telemetry import ModuleProfiler

    rng = np.random.default_rng(0)
    with telemetry.session(str(tmp_path)) as run:
        with run.span("pretrain"):
            with run.span("epoch"):
                pass
        with run.span("ft_train"):
            with run.span("epoch"):
                pass
        model = MLP(8, [4], 3, rng=rng)
        with ModuleProfiler(run.metrics).profile(model):
            model(rng.normal(size=(5, 1, 2, 4)))
        return run.directory


def test_summary_top_tables(tmp_path, capsys):
    from repro.experiments.cli import main as experiments_main

    run_dir = _record_run(tmp_path)
    code = experiments_main(
        ["summary", "--run", run_dir, "--top", "3", "--quiet"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Slowest spans" in out
    assert "Per-layer forward/backward" in out
    # Span paths are full paths, not collapsed leaves.
    assert "pretrain/epoch" in out
    assert "fwd total" in out


def test_summary_top_rejects_non_positive(tmp_path, capsys):
    from repro.experiments.cli import main as experiments_main

    run_dir = _record_run(tmp_path)
    assert (
        experiments_main(["summary", "--run", run_dir, "--top", "0"]) == 2
    )


def test_summary_without_top_unchanged(tmp_path, capsys):
    from repro.experiments.cli import main as experiments_main

    run_dir = _record_run(tmp_path)
    assert experiments_main(["summary", "--run", run_dir]) == 0
    out = capsys.readouterr().out
    assert "Slowest spans" not in out

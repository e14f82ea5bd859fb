"""Tests for repro.telemetry.report: golden determinism, content, CLI."""

import json
import os

import pytest

from repro import telemetry
from repro.experiments.cli import main as experiments_main
from repro.telemetry.cli import main as cli_main
from repro.telemetry.report import (
    REPORT_FILENAME,
    build_report,
    find_bench_files,
    render_report,
    write_report,
)


@pytest.fixture(autouse=True)
def _no_leaked_run():
    yield
    telemetry.end_run()


def _make_run(directory, seed, methods):
    """One synthetic finished run with method_report + monitor events."""
    with telemetry.session(
        str(directory), config={"experiment": "table1", "seed": seed}
    ) as run:
        for m, (name, retrain) in enumerate(methods):
            run.emit(
                "method_report",
                method=name,
                acc_pretrain=80.0,
                acc_retrain=retrain,
                defect={"0.0": retrain, "0.01": retrain - 3.0,
                        "0.02": retrain - 6.0 - m},
                metadata={},
            )
            for rate, acc in ((0.01, retrain - 3.0), (0.02, retrain - 6.0 - m)):
                run.emit(
                    "defect_eval", p_sa=rate, num_runs=4, mean_accuracy=acc
                )
        run.emit(
            "model_cost", model="MLP", params=100, macs=200, flops=420,
            activation_bytes=800, crossbar_cells=180,
        )
        for i in range(3):
            run.emit(
                "resource_sample", rss_bytes=1_000_000 + i, cpu_seconds=0.1 * i,
                num_fds=8,
            )
        run.emit("heartbeat", label="t", completed=4, total=4,
                 elapsed_seconds=1.0, rate_per_second=4.0, eta_seconds=0.0)
        with run.span("evaluate"):
            pass
        return run.directory


@pytest.fixture()
def ledger(tmp_path):
    parent = tmp_path / "runs"
    a = _make_run(parent, 1, [("one_shot", 78.0), ("progressive", 79.0)])
    b = _make_run(parent, 2, [("baseline", 74.0)])
    return str(parent), a, b


# -- document ----------------------------------------------------------------


def test_build_report_aggregates_runs_and_ranks_stability(ledger):
    parent, _, _ = ledger
    report = build_report(parent)
    assert report["num_runs"] == 2
    assert len(report["runs"]) == 2
    # One curve per (run, method).
    assert len(report["curves"]) == 3
    for curve in report["curves"]:
        assert [r for r, _ in curve["points"]] == [0.0, 0.01, 0.02]
    # Ranked best-first; progressive (smallest degradation) wins.
    scores = [e["stability_score"] for e in report["stability"]]
    assert scores == sorted(scores, reverse=True)
    assert report["stability"][0]["method"] == "progressive"
    assert all(e["p_sa"] == 0.02 for e in report["stability"])


def test_report_includes_resources_costs_and_spans(ledger):
    parent, _, _ = ledger
    report = build_report(parent)
    run = report["runs"][0]
    assert run["resources"]["samples"] == 3
    assert run["resources"]["heartbeats"] == 1
    assert run["model_cost"][0]["crossbar_cells"] == 180
    assert any(s["path"] == "evaluate" for s in run["spans"])


def test_build_report_on_single_run_dir(ledger):
    _, a, _ = ledger
    assert build_report(a)["num_runs"] == 1


def test_build_report_empty_directory_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        build_report(str(tmp_path))
    with pytest.raises(FileNotFoundError):
        build_report(str(tmp_path / "missing"))


# -- rendering ---------------------------------------------------------------


def test_render_is_deterministic_and_self_contained(ledger):
    parent, _, _ = ledger
    first = render_report(build_report(parent))
    second = render_report(build_report(parent))
    assert first == second  # byte-identical golden property
    # Self-contained: one HTML document, no external fetches.
    assert first.startswith("<!DOCTYPE html>")
    for marker in ("http://", "https://", "<script src", "<link "):
        assert marker not in first
    # The three headline sections all rendered.
    assert "Accuracy vs P<sub>sa</sub>" in first
    assert "Stability-Score ranking" in first
    assert "<svg" in first
    assert "progressive" in first and "one_shot" in first


def test_write_report_creates_html(ledger):
    parent, _, _ = ledger
    path = write_report(parent)
    assert path == os.path.join(parent, REPORT_FILENAME)
    with open(path) as fh:
        assert "<svg" in fh.read()


def test_bench_sparklines_render(ledger, tmp_path):
    parent, _, _ = ledger
    bench_dir = tmp_path / "bench"
    bench_dir.mkdir()
    for n, mean in enumerate((0.010, 0.012)):
        doc = {
            "suite": "fast",
            "cases": {
                "conv2d/forward": {"stats": {"mean": mean}},
            },
        }
        (bench_dir / f"BENCH_{n}.json").write_text(json.dumps(doc))
    assert find_bench_files(str(bench_dir)) == [
        str(bench_dir / "BENCH_0.json"),
        str(bench_dir / "BENCH_1.json"),
    ]
    report = build_report(parent, bench_dir=str(bench_dir))
    assert report["bench"]
    html = render_report(report)
    assert "conv2d/forward" in html


# -- forensics section -------------------------------------------------------


def _layer_entry(layer, dev, clean):
    return {
        "layer": layer, "sum_sq_dev": dev, "sum_sq_clean": clean,
        "sum_dot": clean, "sum_sq_fault": clean + dev, "perturbed": 10,
        "elements": 100, "first_divergence": 1,
    }


@pytest.fixture()
def forensics_run(tmp_path):
    parent = tmp_path / "fruns"
    with telemetry.session(
        str(parent), config={"experiment": "table1", "seed": 3}
    ) as run:
        for p_sa in (0.01, 0.05):
            for draw in range(2):
                run.emit(
                    "forensics_draw", p_sa=p_sa, draw=draw, seed=draw,
                    num_samples=40, num_flipped=4, undiverged_flips=1,
                    accuracy=70.0,
                    layers=[
                        _layer_entry("net.layer1", 1.0 * (1 + draw), 50.0),
                        _layer_entry("net.layer3", 4.0 * (1 + draw), 50.0),
                    ],
                )
        run_dir = run.directory
    return str(parent), run_dir


def test_report_renders_forensics_heatmap(forensics_run):
    parent, _ = forensics_run
    report = build_report(parent)
    assert report["runs"][0]["forensics"]
    html = render_report(report)
    assert "Fault forensics" in html
    assert "net.layer1" in html and "net.layer3" in html
    assert "class='cell'" in html  # heatmap rects rendered
    assert "(below threshold)" in html
    assert render_report(build_report(parent)) == html  # still deterministic


def test_report_without_forensics_has_empty_state(ledger):
    parent, _, _ = ledger
    html = render_report(build_report(parent))
    assert "Fault forensics" in html
    assert "class='cell'" not in html


def test_cli_forensics_renders_heatmap(forensics_run, capsys):
    _, run_dir = forensics_run
    assert cli_main(["forensics", run_dir]) == 0
    out = capsys.readouterr().out
    assert "Per-layer deviation heatmap" in out
    assert "First-divergence attribution" in out
    assert "p_sa=0.05" in out


def test_cli_forensics_json_mode(forensics_run, capsys):
    _, run_dir = forensics_run
    assert cli_main(["forensics", run_dir, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc) == 2  # one aggregate per rate
    assert {a["p_sa"] for a in doc} == {0.01, 0.05}
    assert all(a["num_draws"] == 2 for a in doc)


def test_cli_forensics_without_events_reports_empty(ledger, capsys):
    _, a, _ = ledger
    assert cli_main(["forensics", a]) == 0
    assert "no forensics events recorded" in capsys.readouterr().out


def test_cli_forensics_missing_run_exits_2(tmp_path, capsys):
    assert cli_main(["forensics", str(tmp_path / "missing")]) == 2
    assert "error:" in capsys.readouterr().err


# -- CLI ---------------------------------------------------------------------


def test_cli_report_writes_and_prints_path(ledger, capsys, tmp_path):
    parent, _, _ = ledger
    out = str(tmp_path / "out" / "dash.html")
    assert cli_main(
        ["report", parent, "-o", out, "--bench-dir", str(tmp_path)]
    ) == 0
    assert capsys.readouterr().out.strip() == out
    assert os.path.isfile(out)


def test_cli_report_json_mode(ledger, capsys, tmp_path):
    parent, _, _ = ledger
    assert cli_main(
        ["report", parent, "--json", "--bench-dir", str(tmp_path)]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["num_runs"] == 2


def test_cli_report_empty_directory_exits_2(tmp_path, capsys):
    assert cli_main(["report", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


# -- degenerate run dirs exit 2 everywhere (bugfix) --------------------------


def test_cli_show_and_trace_reject_empty_events(tmp_path, capsys):
    run_dir = tmp_path / "run-empty"
    run_dir.mkdir()
    (run_dir / "events.jsonl").write_text("")
    assert cli_main(["show", str(run_dir)]) == 2
    assert "no readable events" in capsys.readouterr().err
    assert cli_main(["trace", str(run_dir)]) == 2
    assert "no readable events" in capsys.readouterr().err
    assert experiments_main(["summary", "--run", str(run_dir)]) == 2
    assert "no readable events" in capsys.readouterr().err


def test_cli_show_rejects_fully_corrupt_events(tmp_path, capsys):
    run_dir = tmp_path / "run-corrupt"
    run_dir.mkdir()
    (run_dir / "events.jsonl").write_text("not json\n{broken\n")
    assert cli_main(["show", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert "no readable events" in err
    assert experiments_main(["summary", "--run", str(run_dir)]) == 2
    assert "no readable events" in capsys.readouterr().err


def test_cli_file_path_exits_2(tmp_path, capsys):
    target = tmp_path / "file.txt"
    target.write_text("x")
    assert cli_main(["show", str(target)]) == 2


def test_report_renders_sweep_leaderboards(tmp_path):
    with telemetry.session(
        str(tmp_path), run_id="sweep-report-smoke",
        config={"sweep": "s", "sweep_profile": "smoke"},
    ) as run:
        run.emit(
            "sweep_report", sweep="s", profile="smoke", cells=2,
            entries=[
                {"rank": 1, "arch": "mlp", "variant": "one_shot",
                 "p_sa": 0.1, "p_sa_train": 0.05, "sparsity": 0.0,
                 "quant_bits": 0, "seeds": [0], "acc_pretrain": 80.0,
                 "acc_retrain": 78.0, "acc_defect": 70.0,
                 "stability_score": 7.8},
                {"rank": 2, "arch": "mlp", "variant": "baseline",
                 "p_sa": 0.1, "p_sa_train": None, "sparsity": 0.0,
                 "quant_bits": 0, "seeds": [0], "acc_pretrain": 80.0,
                 "acc_retrain": 80.0, "acc_defect": 40.0,
                 "stability_score": 2.0},
            ],
        )
    report = build_report(str(tmp_path))
    assert len(report["sweeps"]) == 1
    html_text = render_report(report)
    assert "Sweep leaderboards" in html_text
    assert "one_shot" in html_text and "7.8000" in html_text


def test_report_without_sweeps_shows_hint(tmp_path):
    with telemetry.session(str(tmp_path)) as run:
        run.emit("heartbeat", label="t", completed=1, total=1,
                 elapsed_seconds=1.0, rate_per_second=1.0, eta_seconds=0.0)
    html_text = render_report(build_report(str(tmp_path)))
    assert "No sweep leaderboards recorded" in html_text

"""Golden tests for the offline run model behind every telemetry view.

``tests/data/run-golden/`` is a hand-written run directory: a parent
process plus two pool workers (``worker_pid``-stamped events) that
recorded spans, epochs, defect draws, fault injections, a model cost,
resource samples, a heartbeat, two profile aggregates,
forensics draws, method reports and a sweep leaderboard, followed by
one truncated line.  ``tests/data/run-golden.json`` pins what
``summarize_run``, the dashboard's per-run dicts and the ledger record
make of it, key order included.
"""

import collections
import json
import os
import shutil
import sys

import numpy as np
import pytest

from repro import telemetry
from repro.core.evaluate import evaluate_defect_accuracy
from repro.datasets import DataLoader, make_synthetic_pair
from repro.experiments.cli import main as experiments_main
from repro.models import MLP
from repro.telemetry import events as events_module
from repro.telemetry.cli import main as telemetry_main

DATA = os.path.join(os.path.dirname(__file__), "data")


@pytest.fixture()
def golden_run(tmp_path):
    """A private copy of the fixture (views may write next to a run)."""
    run_dir = str(tmp_path / "run-golden")
    shutil.copytree(os.path.join(DATA, "run-golden"), run_dir)
    return run_dir


def _normalised(doc, run_dir):
    return json.loads(json.dumps(doc).replace(run_dir, "<run_dir>"))


def _golden():
    with open(os.path.join(DATA, "run-golden.json")) as handle:
        return json.load(handle)


@pytest.mark.parametrize(
    "view",
    ["summarize_run", "report_runs", "run_record"],
)
def test_views_match_golden(golden_run, view):
    produce = {
        "summarize_run": lambda: telemetry.summarize_run(golden_run),
        "report_runs": lambda: telemetry.build_report(golden_run)["runs"],
        "run_record": lambda: telemetry.RunRecord.from_run_dir(
            golden_run
        ).as_dict(),
    }[view]
    actual = _normalised(produce(), golden_run)
    expected = _golden()[view]
    assert actual == expected
    # Key-for-key: the JSON documents keep their key order too.
    assert json.dumps(actual) == json.dumps(expected)


def test_show_json_and_index_carry_the_ledger_record(golden_run, capsys):
    assert telemetry_main(["show", golden_run, "--json"]) == 0
    shown = json.loads(capsys.readouterr().out)
    assert _normalised(shown, golden_run) == _golden()["run_record"]
    index = telemetry.build_index(golden_run, write=False)
    assert [_normalised(r, golden_run) for r in index["runs"]] == [
        _golden()["run_record"]
    ]


# -- every view parses each run's log exactly once ---------------------------


@pytest.fixture()
def parses(monkeypatch):
    """Counter of ``events.jsonl`` parses, keyed by run directory."""
    real = events_module.read_events_with_errors
    calls = collections.Counter()

    def counting(path):
        calls[os.path.dirname(path)] += 1
        return real(path)

    for module in list(sys.modules.values()):
        if (
            getattr(module, "__name__", "").startswith("repro.")
            and getattr(module, "read_events_with_errors", None) is real
        ):
            monkeypatch.setattr(module, "read_events_with_errors", counting)
    return calls


_COMMANDS = [
    (["ls", "{parent}"], 2),
    (["show", "{run}"], 1),
    (["show", "{run}", "--json"], 1),
    (["show", "{run}", "--top", "3"], 1),
    (["diff", "{run}", "{other}"], 2),
    (["trace", "{run}"], 1),
    (["flame", "{run}", "-o", "{parent}/flame.svg"], 1),
    (["forensics", "{run}"], 1),
    (["forensics", "{run}", "--json"], 1),
    (["validate", "{run}"], 1),
    (["report", "{parent}", "-o", "{parent}/report.html"], 2),
    (["report", "{parent}", "--json"], 2),
    (["experiments-summary", "{run}"], 1),
    (["experiments-summary", "{run}", "--json"], 1),
]


@pytest.mark.parametrize(
    "argv, runs", _COMMANDS, ids=[" ".join(argv) for argv, _ in _COMMANDS]
)
def test_each_command_parses_each_log_once(
    golden_run, parses, capsys, argv, runs
):
    parent = os.path.dirname(golden_run)
    other = os.path.join(parent, "run-golden-copy")
    shutil.copytree(golden_run, other)
    argv = [
        arg.format(parent=parent, run=golden_run, other=other) for arg in argv
    ]
    if argv[0] == "experiments-summary":
        code = experiments_main(["summary", "--run", *argv[1:], "--quiet"])
    else:
        code = telemetry_main(argv)
    capsys.readouterr()
    assert code == 0
    expected = {golden_run: 1, other: 1} if runs == 2 else {golden_run: 1}
    assert dict(parses) == expected


# -- one definition of a run's peak RSS, CPU time and page faults ------------


def test_peak_rss_and_cpu_agree_across_views(tmp_path):
    model = MLP(48, [16], 4, rng=np.random.default_rng(7))
    _, test = make_synthetic_pair(
        num_classes=4, image_size=4, train_size=8, test_size=24,
        seed=0, bandwidth=1, channels=3,
    )
    loader = DataLoader(test, 24, shuffle=False)
    with telemetry.session(str(tmp_path), resources=True) as run:
        evaluate_defect_accuracy(
            model, loader, 0.05, num_runs=4, seed=11, workers=2
        )
        run_dir = run.directory
    shown = telemetry.summarize_run(run_dir)["resources"]
    dashboard = telemetry.build_report(run_dir)["runs"][0]["resources"]
    assert shown["worker_samples"] > 0
    assert shown["max_rss_bytes"] == dashboard["max_rss_bytes"]
    assert shown["cpu_seconds"] == dashboard["cpu_seconds"]
    assert shown["minor_faults"] == dashboard["minor_faults"]
    # The peak is the largest per-process ru_maxrss high-water mark over
    # parent and worker samples; CPU and faults are the parent's last
    # sample.
    samples = [
        e for e in telemetry.read_events(os.path.join(run_dir, "events.jsonl"))
        if e["kind"] == "resource_sample"
    ]
    assert shown["max_rss_bytes"] == max(e["max_rss_bytes"] for e in samples)
    parent = [e for e in samples if "worker_pid" not in e]
    assert shown["cpu_seconds"] == parent[-1]["cpu_seconds"]
    assert shown["minor_faults"] == parent[-1]["minor_faults"]
    text = telemetry.render_summary(telemetry.summarize_run(run_dir))
    assert f"{shown['minor_faults']} minor page faults" in text

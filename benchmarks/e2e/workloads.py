"""The benchmark's four workloads: set-up, one op, and output checks.

Every workload derives all of its inputs from the ``--seed`` it is given
and the op index, so op ``k`` of a seed computes the same thing in every
run and on every commit.  Ops are a closed loop: one caller, each op
starts after the previous one returned.

Each workload calls the public ``repro`` API through module attributes
(``repro.core.simulate_fleet(...)``), never through names bound at import
time, so the tracer's attribute replacement sees every call.

Checks run outside the timed region:

* ``after_op`` right after each op: cheap invariants (inputs unchanged,
  sweep resume hygiene) and clean-up of files the op wrote;
* ``check`` after the timed loop: every output against a reference the
  harness computes independently of the measured call (one re-drawn fault
  pattern per op, a re-run op, a serial re-run of a pooled sweep cell);
* ``matches`` against ``golden.json`` for the seeds recorded there.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import tempfile
from typing import Any, Dict, List, Tuple

import numpy as np

import repro
import repro.experiments.runner
import repro.sweep

#: ``bench``-scale overrides for the ResNet-8 that eval_resnet and
#: ft_train pretrain in set-up: four epochs keep set-up near 2 s and 100
#: test images keep one 100-draw op near 2 s, so a 15 s run covers every
#: testing rate.
RESNET_SCALE = dict(pretrain_epochs=4, test_size=100)


def derive_seed(seed: int, *keys: int) -> int:
    """A 32-bit seed that depends on ``seed`` and ``keys`` only."""
    state = np.random.SeedSequence([seed, *keys]).generate_state(1)
    return int(state[0])


def array_digest(arrays) -> str:
    """SHA-256 over float64 arrays, in order."""
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return digest.hexdigest()


def model_digest(model) -> str:
    state = model.state_dict()
    return array_digest(state[name] for name in sorted(state))


def _accuracy_problems(values: List[float], expected: int) -> List[str]:
    problems = []
    if len(values) != expected:
        problems.append(f"{len(values)} accuracies, expected {expected}")
    if not all(0.0 <= value <= 100.0 for value in values):
        problems.append("accuracy outside [0, 100]")
    return problems


def _redraw(model, loader, p_sa: float, draw_seed: int) -> float:
    """Reference for one fault draw, built from the documented contract:
    draw ``i`` of a seed-driven evaluation uses ``SeedSequence(seed + i)``
    to inject faults, evaluates, and restores the weights."""
    rng = np.random.default_rng(np.random.SeedSequence(draw_seed))
    injector = repro.core.FaultInjector(model, rng=rng)
    injector.inject(p_sa)
    try:
        return repro.core.evaluate_accuracy(model, loader)
    finally:
        injector.restore()


class Workload:
    """Base class: subclasses set ``name`` and fill in the hooks.

    ``scratch`` is a directory for files the ops write; the harness
    deletes it after the run.
    """

    name = ""
    #: Ops per seed recorded in ``golden.json`` by ``--record-golden``.
    golden_ops = 0

    def __init__(self, seed: int, scratch: str) -> None:
        self.seed = seed
        self.scratch = scratch

    def setup(self) -> None:
        raise NotImplementedError

    def run_op(self, index: int) -> Tuple[int, Any]:
        """Run op ``index``; return (work items done, output)."""
        raise NotImplementedError

    def after_op(self, index: int, output: Any) -> Tuple[Any, List[str]]:
        """Untimed: (what ``check`` keeps of the output, problems found).

        Keeping less than the output holds memory flat however many ops
        a run completes, so ``peak_rss_mb`` does not grow with speed.
        """
        return output, []

    def check(self, outputs: Dict[int, Any]) -> Dict[int, List[str]]:
        """Problems per op index, against references computed here."""
        raise NotImplementedError

    def fingerprint(self, output: Any) -> Any:
        """The JSON form of an output that ``golden.json`` stores."""
        raise NotImplementedError

    def matches(self, fingerprint: Any, golden: Any) -> bool:
        return fingerprint == golden


def _pretrained_resnet(seed: int):
    scale = repro.experiments.get_scale("bench").with_overrides(
        seed=derive_seed(seed, 0), **RESNET_SCALE
    )
    classes = scale.num_classes_small
    train_loader, test_loader = repro.experiments.make_loaders(scale, classes)
    model, _ = repro.experiments.pretrain_model(
        scale, classes, train_loader, test_loader
    )
    return scale, train_loader, test_loader, model


class EvalResnet(Workload):
    """The paper's testing protocol: Acc_defect over 100 fault draws."""

    name = "eval_resnet"
    golden_ops = 12
    RATES = (0.005, 0.01, 0.02, 0.05)
    DRAWS = 100

    def setup(self) -> None:
        _, _, self.loader, self.model = _pretrained_resnet(self.seed)
        self.digest = model_digest(self.model)

    def _op_args(self, index: int) -> Tuple[float, int]:
        return self.RATES[index % len(self.RATES)], derive_seed(self.seed, 1, index)

    def run_op(self, index):
        p_sa, base = self._op_args(index)
        result = repro.core.evaluate_defect_accuracy(
            self.model, self.loader, p_sa, num_runs=self.DRAWS, seed=base,
            workers=0,
        )
        return self.DRAWS, result

    def after_op(self, index, output):
        if model_digest(self.model) != self.digest:
            return output, ["evaluation left the model's weights changed"]
        return output, []

    def check(self, outputs):
        problems = {}
        for index, result in outputs.items():
            p_sa, base = self._op_args(index)
            found = _accuracy_problems(result.run_accuracies, self.DRAWS)
            if result.seed != base:
                found.append(f"result seed {result.seed} != {base}")
            if result.mean_accuracy != float(np.mean(result.run_accuracies)):
                found.append("mean is not the mean of the draws")
            draw = (37 * index) % self.DRAWS
            reference = _redraw(self.model, self.loader, p_sa, base + draw)
            if not found and result.run_accuracies[draw] != reference:
                found.append(
                    f"draw {draw}: {result.run_accuracies[draw]} != "
                    f"reference {reference}"
                )
            problems[index] = found
        return problems

    def fingerprint(self, result):
        return {
            "sha256": array_digest([result.run_accuracies]),
            "mean": result.mean_accuracy,
        }


class FtTrain(Workload):
    """Stochastic fault-tolerant retraining (Algorithm 1), telemetry on."""

    name = "ft_train"
    golden_ops = 30
    OPS = (("one_shot", 0.01), ("one_shot", 0.05), ("progressive", 0.05))
    EPOCHS = 3

    def setup(self) -> None:
        scale, train_loader, self.test_loader, self.model = _pretrained_resnet(
            self.seed
        )
        # Progressive: three levels of one epoch, so every op trains the
        # same number of samples.
        self.scale = scale.with_overrides(
            ft_epochs=self.EPOCHS,
            progressive_levels=self.EPOCHS,
            progressive_epoch_fraction=1.0 / self.EPOCHS,
        )
        self.train_set = train_loader.dataset
        self.digest = model_digest(self.model)

    def run_op(self, index):
        method, p_sa = self.OPS[index % len(self.OPS)]
        # A fresh loader per op: op k never depends on which ops ran before.
        loader = repro.datasets.DataLoader(
            self.train_set, self.scale.batch_size, shuffle=True,
            seed=derive_seed(self.seed, 2, index),
        )
        rng = np.random.default_rng(derive_seed(self.seed, 3, index))
        run_root = tempfile.mkdtemp(prefix="telemetry-", dir=self.scratch)
        with repro.telemetry.session(run_root):
            model = repro.experiments.train_fault_tolerant(
                self.model, method, p_sa, self.scale, loader, rng=rng
            )
        return len(self.train_set) * self.EPOCHS, (model, run_root)

    def after_op(self, index, output):
        model, run_root = output
        problems = []
        if model_digest(self.model) != self.digest:
            problems.append("retraining changed the pretrained model")
        runs = os.listdir(run_root)
        written = set(os.listdir(os.path.join(run_root, runs[0]))) if runs else set()
        missing = {"events.jsonl", "metrics.json", "run.json"} - written
        if len(runs) != 1 or missing:
            problems.append(f"telemetry run incomplete: {sorted(missing)}")
        shutil.rmtree(run_root)
        # The trained model holds its layers' im2col caches; keep a summary.
        kept = {
            "digest": model_digest(model),
            "finite": all(np.isfinite(p.data).all() for p in model.parameters()),
            "clean_acc": repro.core.evaluate_accuracy(model, self.test_loader),
            "weight_sum": float(sum(p.data.sum() for p in model.parameters())),
        }
        return kept, problems

    def check(self, outputs):
        problems = {}
        for index, kept in outputs.items():
            found = []
            if not kept["finite"]:
                found.append("non-finite weights")
            if kept["digest"] == self.digest:
                found.append("retraining did not change the weights")
            problems[index] = found
        if 0 in outputs:
            # Determinism: op 0 run again must give the same bits.
            again, found = self.after_op(0, self.run_op(0)[1])
            problems[0] += found
            if again["digest"] != outputs[0]["digest"]:
                problems[0].append("op 0 is not reproducible")
        return problems

    def fingerprint(self, kept):
        return {"clean_acc": kept["clean_acc"], "weight_sum": kept["weight_sum"]}

    def matches(self, fingerprint, golden):
        # Accuracies compare exactly.  The weight sum allows 1e-9 relative:
        # OpenBLAS picks its GEMM kernel by CPU model, which moves the
        # last bits of trained weights from one host type to another.
        return fingerprint["clean_acc"] == golden["clean_acc"] and math.isclose(
            fingerprint["weight_sum"], golden["weight_sum"], rel_tol=1e-9
        )


class FleetPooled(Workload):
    """Many cheap fault draws through a process pool: fixed costs dominate."""

    name = "fleet_pooled"
    golden_ops = 80
    DEVICES = 2000
    RATE = 0.02

    def setup(self) -> None:
        scale = repro.experiments.get_scale("ci").with_overrides(
            seed=derive_seed(self.seed, 0)
        )
        classes = scale.num_classes_small
        train_loader, self.loader = repro.experiments.make_loaders(scale, classes)
        self.model, _ = repro.experiments.pretrain_model(
            scale, classes, train_loader, self.loader
        )
        self.digest = model_digest(self.model)

    def run_op(self, index):
        report = repro.core.simulate_fleet(
            self.model, self.loader, self.RATE, num_devices=self.DEVICES,
            seed=derive_seed(self.seed, 1, index), workers=2,
        )
        return self.DEVICES, report

    def after_op(self, index, output):
        if model_digest(self.model) != self.digest:
            return output, ["fleet simulation left the model's weights changed"]
        return output, []

    def check(self, outputs):
        problems = {}
        for index, report in outputs.items():
            base = derive_seed(self.seed, 1, index)
            found = _accuracy_problems(report.accuracies, self.DEVICES)
            if report.seed != base:
                found.append(f"report seed {report.seed} != {base}")
            device = (37 * index) % self.DEVICES
            reference = _redraw(self.model, self.loader, self.RATE, base + device)
            if not found and report.accuracies[device] != reference:
                found.append(
                    f"device {device}: {report.accuracies[device]} != "
                    f"reference {reference}"
                )
            problems[index] = found
        return problems

    def fingerprint(self, report):
        return {
            "sha256": array_digest([report.accuracies]),
            "mean": float(np.mean(report.accuracies)),
        }


class SweepPooled(Workload):
    """A Table-I grid through the sweep engine, cells on a process pool."""

    name = "sweep_pooled"
    golden_ops = 10
    #: The ``full`` profile at the paper's 100-draw testing protocol.
    FULL = {"defect_runs": 100, "train_size": 200, "test_size": 100}

    def spec(self, index: int) -> dict:
        return {
            "name": "e2e",
            "axes": {
                "arch": ["resnet8"],
                "p_sa": [0.02, 0.05],
                "variant": ["one_shot", "progressive"],
            },
            "seeds": [derive_seed(self.seed, 1, index)],
            "profiles": {"full": dict(self.FULL)},
        }

    def setup(self) -> None:
        # Fail fast on a spec the engine would refuse.
        repro.sweep.load_spec(self.spec(0), strict=True)

    def run_op(self, index):
        # A fresh directory per op: a reused one resumes and skips cells.
        sweep_dir = tempfile.mkdtemp(prefix="sweep-", dir=self.scratch)
        outcome = repro.sweep.run_sweep(
            self.spec(index), sweep_dir=sweep_dir, profile="full", workers=2
        )
        return sum(o.executed for o in outcome.outcomes), (outcome, sweep_dir)

    def after_op(self, index, output):
        outcome, sweep_dir = output
        shutil.rmtree(sweep_dir)
        problems = []
        for run in outcome.outcomes:
            if run.executed != len(run.plan.cells) or run.skipped:
                problems.append(
                    f"{run.plan.profile}: executed {run.executed} of "
                    f"{len(run.plan.cells)} cells, skipped {run.skipped}"
                )
        if [o.plan.profile for o in outcome.outcomes] != ["smoke", "full"]:
            problems.append("expected a smoke pass and a full pass")
        if outcome.leaderboard is None:
            problems.append("no leaderboard")
        return outcome, problems

    @staticmethod
    def _cells(outcome) -> List[dict]:
        return [result for run in outcome.outcomes for result in run.results]

    def check(self, outputs):
        problems = {}
        for index, outcome in outputs.items():
            found = []
            pretrains: Dict[tuple, float] = {}
            for result in self._cells(outcome):
                point, metrics = result["point"], result["metrics"]
                accuracies = [
                    metrics[key]
                    for key in ("acc_pretrain", "acc_retrain", "acc_defect")
                ]
                found += _accuracy_problems(accuracies, 3)
                score = repro.core.stability_score(*accuracies)
                if metrics["stability_score"] != score:
                    found.append(f"stability score of {point} != {score}")
                # Cells of a pass pretrain from (arch, seed) alone, in
                # different worker processes: the bits must agree.
                key = (result["profile"], point["arch"], point["seed"])
                if pretrains.setdefault(key, metrics["acc_pretrain"]) != (
                    metrics["acc_pretrain"]
                ):
                    found.append(f"pretrain accuracy differs within {key}")
            problems[index] = found
        if 0 in outputs:
            problems[0] += self._rerun_serial(outputs[0], self.spec(0))
        return problems

    @staticmethod
    def _rerun_serial(outcome, raw_spec) -> List[str]:
        """The first full-pass cell, recomputed in this process."""
        spec = repro.sweep.load_spec(raw_spec, strict=True)
        result = outcome.outcomes[-1].results[0]
        point = result["point"]
        metrics = repro.experiments.runner.run_pipeline_cell(
            spec.scale_for("full", point["arch"], point["seed"]),
            variant=point["variant"],
            p_sa=point["p_sa"],
            p_sa_train=point["p_sa_train"],
            sparsity=point["sparsity"],
            quant_bits=point["quant_bits"],
        )
        if metrics != result["metrics"]:
            return ["pooled cell differs from its serial re-run"]
        return []

    def fingerprint(self, outcome):
        return [
            {
                "acc_defect": result["metrics"]["acc_defect"],
                "stability_score": result["metrics"]["stability_score"],
            }
            for result in self._cells(outcome)
        ]


WORKLOADS = {
    cls.name: cls for cls in (EvalResnet, FtTrain, SweepPooled, FleetPooled)
}

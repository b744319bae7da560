"""The benchmark's workloads: inputs built from a seed, the timed CLI calls,
and the output checks and oracle metrics of each.

Every path handed to the program is relative to the workload's input
directory, which is the working directory while set-up and operations run, so
the program's outputs do not depend on where the checkout lives.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checks import (
    CheckFailed,
    check_cells,
    check_ope_curve,
    check_probabilities,
    check_results_csv,
    expected_ope_curve,
    load_without_duration,
    output_digests,
)


@contextlib.contextmanager
def working_dir(path: Path):
    old = Path.cwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def run_cli(argv: list[str]) -> None:
    """Run one ``seqpol`` subcommand in-process; a non-zero exit raises."""
    from seqpol import cli

    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    if code != 0:
        raise CheckFailed(f"seqpol {argv[0]} exited with {code}")


def write_json(path: str | Path, data) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def sample_cohort(generator: dict, n_train: int, n_heldout: int, seed: int) -> float:
    """Write ``train.jsonl`` and ``heldout.jsonl`` (plus its oracle.csv).

    ``seqpol generate`` samples a pool of patients from the policy that the
    generator config (its own seed included) fixes; ``seed`` then draws two
    disjoint sets of patients from the pool. Holding the policy fixed keeps
    the work of an operation and the oracle metrics from varying with the
    policy's difficulty from one seed to the next. Returns the wall time of
    ``seqpol generate``.
    """
    write_json("generator_config.json", generator)
    t0 = time.perf_counter()
    run_cli(["generate", "--config", "generator_config.json", "--out", "pool"])
    generate_s = time.perf_counter() - t0
    with open("pool/episodes.jsonl", encoding="utf-8") as fh:
        lines = fh.readlines()
    if n_train + n_heldout > len(lines):
        raise ValueError("pool smaller than the patients drawn from it")
    order = np.random.default_rng(seed).permutation(len(lines))
    train = sorted(order[:n_train])
    heldout = sorted(order[n_train:n_train + n_heldout])
    Path("train.jsonl").write_text("".join(lines[i] for i in train), encoding="utf-8")
    Path("heldout.jsonl").write_text("".join(lines[i] for i in heldout), encoding="utf-8")
    keep = {json.loads(lines[i])["patient_id"] for i in heldout}
    with open("pool/oracle.csv", encoding="utf-8") as src, \
            open("oracle.csv", "w", encoding="utf-8") as dst:
        for i, line in enumerate(src):
            if i == 0 or line.split(",", 1)[0] in keep:
                dst.write(line)
    shutil.copy("pool/schema.json", "schema.json")
    shutil.rmtree("pool")
    return generate_s


def read_oracle(path: str | Path):
    """OracleTable from the oracle.csv that ``seqpol generate`` writes."""
    from seqpol.synthgen import OracleTable

    rows: dict[str, list] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        labels = [h[len("p_true_"):] for h in header[2:]]
        for rec in reader:
            rows.setdefault(rec[0], []).append([float(v) for v in rec[2:]])
    return OracleTable({pid: np.asarray(p) for pid, p in rows.items()}, labels)


class BundleScorer:
    """Applies saved model bundles to one cohort, as ``seqpol ope`` does.

    The cohort is loaded once and encoded once per distinct preprocessor.
    """

    def __init__(self, data_path: str, schema_path: str):
        from seqpol.dataset import load_episodes
        from seqpol.schema import CohortSchema

        self.episodes = load_episodes(data_path, CohortSchema.from_json(schema_path))
        self._encoded: dict[str, object] = {}

    def predict(self, bundle: dict):
        """(probabilities, state matrix) of a bundle on the cohort."""
        from seqpol.dataset import Preprocessor, apply_preprocessor
        from seqpol.models import model_from_dict
        from seqpol.staterep import StateSpec, assemble_state

        key = json.dumps(bundle["preprocessor"], sort_keys=True)
        if key not in self._encoded:
            prep = Preprocessor.from_dict(bundle["preprocessor"])
            self._encoded[key] = apply_preprocessor(self.episodes, prep)
        matrix = assemble_state(self._encoded[key], StateSpec.from_dict(bundle["state_spec"]))
        probs = model_from_dict(bundle["model"]).predict_proba(matrix)
        return probs, matrix


def bundle_oracle_metrics(bundles: list[dict]) -> tuple[float, float, list]:
    """(AUROC gap to Bayes, probability MAE, scored pairs) on the held-out set.

    The gap is the Bayes AUROC of the oracle probabilities minus the mean
    AUROC of the bundles, on the same rows; the absolute error is averaged
    over rows and actions, then over bundles.
    """
    from seqpol.metrics import auroc_multiclass

    scorer = BundleScorer("heldout.jsonl", "schema.json")
    oracle = read_oracle("oracle.csv")
    scored = [scorer.predict(b) for b in bundles]
    bayes, aurocs, maes = None, [], []
    for probs, matrix in scored:
        truth = oracle.aligned_with(matrix)
        check_probabilities(truth, "oracle")
        check_probabilities(probs, "bundle")
        if bayes is None:
            bayes = auroc_multiclass(truth, matrix.y)
        aurocs.append(auroc_multiclass(probs, matrix.y))
        maes.append(float(np.abs(probs - truth).mean()))
    return bayes - float(np.mean(aurocs)), float(np.mean(maes)), scored


@dataclass(frozen=True)
class Workload:
    """Inputs drawn from one generator config, and a CLI operation on them.

    ``why`` is the one-line reason recorded in BENCHMARK.json.
    ``oracle_kinds`` limits the oracle metrics to the
    bundles of those model kinds (empty: every bundle).
    """

    name: str
    why: str
    generator: dict
    n_train: int
    n_heldout: int
    experiment: dict
    oracle_kinds: tuple[str, ...] = ()


class ProtocolWorkload(Workload):
    """One ``seqpol experiment`` run, including rendering, per operation."""

    input_files = ("train.jsonl", "heldout.jsonl", "schema.json", "oracle.csv",
                   "experiment.json")

    def setup(self, seed: int) -> dict[str, float]:
        gen_s = sample_cohort(self.generator, self.n_train, self.n_heldout, seed)
        write_json("experiment.json", {
            **self.experiment,
            "name": self.name,
            "data_path": "train.jsonl",
            "schema_path": "schema.json",
        })
        return {"synthgen.generate_s": gen_s}

    def commands(self, out: str) -> list[list[str]]:
        return [["experiment", "--config", "experiment.json", "--out", out]]

    def fingerprint(self, out: Path) -> dict:
        report = load_without_duration(out / "report.json")
        check_cells(report)
        return {
            "files": output_digests(out),
            "report.json": report,
            "run_manifest.json": load_without_duration(out / "run_manifest.json"),
        }

    def reference(self, out: Path) -> tuple[dict[str, float], list[str]]:
        """Oracle metrics of the split-0 bundles, and consistency problems."""
        report = load_without_duration(out / "report.json")
        bundles = [json.loads(p.read_text()) for p in sorted((out / "models").glob("*.json"))]
        if self.oracle_kinds:
            bundles = [b for b in bundles if b["model_kind"] in self.oracle_kinds]
        if not bundles:
            raise CheckFailed("no split-0 model bundles of the scored kinds written")
        gap, mae, _ = bundle_oracle_metrics(bundles)
        meta = report["metadata"]
        quality = {
            "auroc_gap_bayes": gap,
            "prob_mae_oracle": mae,
            "models.fit_fail_frac": len(meta["failures"]) / meta["fits_attempted"],
        }
        try:
            check_results_csv(report, (out / "results.csv").read_text(encoding="utf-8"))
        except CheckFailed as exc:
            return quality, [str(exc)]
        return quality, []


# State specs of the scored bundles, in StateSpec.to_dict form.
SCORED_STATES = {
    "window2+agg_sum": {"window_k": 2, "agg": "sum"},
    "window0+agg_sum": {"window_k": 0, "agg": "sum"},
    "prev_action": {"prev_action": True},
}
SCORED_BUNDLES = (
    ("window2+agg_sum", "tree"),
    ("window0+agg_sum", "logreg"),
    ("prev_action", "tree"),
)


class ScoringWorkload(Workload):
    """``seqpol ope`` once per fitted bundle on a large cohort, per operation.

    Set-up fits the bundles on the training patients with ``seqpol
    experiment``; the operation scores the held-out patients.
    """

    input_files = ("heldout.jsonl", "schema.json", "oracle.csv", "bundles", "specs")

    def setup(self, seed: int) -> dict[str, float]:
        gen_s = sample_cohort(self.generator, self.n_train, self.n_heldout, seed)
        write_json("fit_experiment.json", {
            **self.experiment,
            "name": self.name,
            "data_path": "train.jsonl",
            "schema_path": "schema.json",
            "states": list(SCORED_STATES.values()),
            "model_kinds": sorted({kind for _, kind in SCORED_BUNDLES}),
        })
        run_cli(["experiment", "--config", "fit_experiment.json", "--out", "fit_out"])
        os.mkdir("bundles")
        os.mkdir("specs")
        for state, kind in SCORED_BUNDLES:
            stem = f"{state}__{kind}"
            bundle = json.loads(Path(f"fit_out/models/{stem}.json").read_text())
            write_json(f"bundles/{stem}.json", bundle)
            write_json(f"specs/{stem}.json", bundle["state_spec"])
        shutil.rmtree("fit_out")
        return {"synthgen.generate_s": gen_s}

    def commands(self, out: str) -> list[list[str]]:
        return [
            ["ope", "--model", f"bundles/{state}__{kind}.json", "--data", "heldout.jsonl",
             "--spec", f"specs/{state}__{kind}.json", "--out", f"{out}/{state}__{kind}"]
            for state, kind in SCORED_BUNDLES
        ]

    def fingerprint(self, out: Path) -> dict:
        files = output_digests(out, ("*.csv", "*.svg"))
        for state, kind in SCORED_BUNDLES:
            for suffix in ("csv", "svg"):
                if f"{state}__{kind}/ope_curve.{suffix}" not in files:
                    raise CheckFailed(f"{state}__{kind}: ope_curve.{suffix} missing")
        return {"files": files}

    def reference(self, out: Path) -> tuple[dict[str, float], list[str]]:
        """Oracle metrics of the scored bundles, and OPE curve problems."""
        stems = [f"{state}__{kind}" for state, kind in SCORED_BUNDLES]
        bundles = [json.loads(Path(f"bundles/{stem}.json").read_text()) for stem in stems]
        gap, mae, scored = bundle_oracle_metrics(bundles)
        problems = []
        for stem, (probs, matrix) in zip(stems, scored):
            picked = probs[np.arange(matrix.n_rows), matrix.y]
            expected = expected_ope_curve([picked[r] for r in matrix.patient_groups()])
            try:
                check_ope_curve((out / stem / "ope_curve.csv").read_text(encoding="utf-8"),
                                expected)
            except CheckFailed as exc:
                problems.append(f"{stem}: {exc}")
        quality = {"auroc_gap_bayes": gap, "prob_mae_oracle": mae, "models.fit_fail_frac": 0.0}
        return quality, problems


# Each generator config fixes the policy (its seed is part of the workload);
# the benchmark's --seed draws the patients.
WORKLOADS = {
    w.name: w
    for w in (
        ProtocolWorkload(
            "protocol-3action",
            "the paper's multiclass protocol (7 states x logreg/tree/MLP); stresses "
            "bootstrap and model fitting, bypasses the risk score",
            generator={"n_patients": 2000, "n_actions": 3, "t_fixed": 8, "seed": 7895},
            n_train=500,
            n_heldout=1000,
            experiment={
                "model_kinds": ["logreg", "tree", "mlp"],
                "profile": "ra-like",
                "n_candidates": 2,
                "n_splits": 1,
                "bootstrap_B": 30,
            },
        ),
        ProtocolWorkload(
            "riskscore-binary",
            "binary actions, so the integer risk score is fitted; stresses its "
            "intercept solver, bootstrap and data layers stay small",
            generator={"n_patients": 1000, "n_actions": 2, "t_fixed": 6, "seed": 7895},
            n_train=600,
            n_heldout=400,
            experiment={
                "states": [{"current": True}, {"window_k": 1}],
                "model_kinds": ["logreg", "tree", "riskscore"],
                "profile": "ra-like",
                "n_candidates": 1,
                "n_splits": 1,
                "bootstrap_B": 20,
                "tree_sweep_n": 10,
            },
            oracle_kinds=("riskscore",),
        ),
        ScoringWorkload(
            "ope-scoring",
            "fitted policies scored on a large cohort of variable-length episodes; "
            "stresses loading, state assembly and tree predict, bypasses fitting",
            generator={"n_patients": 4200, "n_actions": 3, "t_kind": "geometric",
                       "t_p": 0.15, "t_min": 2, "t_max": 20, "seed": 7895},
            n_train=1200,
            n_heldout=3000,
            experiment={"profile": "ra-like", "n_candidates": 3, "n_splits": 1,
                        "bootstrap_B": 10},
        ),
    )
}

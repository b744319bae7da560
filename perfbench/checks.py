"""Output checks applied to every timed operation.

An operation passes when the program exited with 0, every configured
(state, model) cell has a result or a skip reason, and its output files match
those of the first operation of the run byte for byte. ``report.json`` and
``run_manifest.json`` are compared with ``metadata.duration_seconds`` taken
out: the program writes its own wall time there, so those two files differ
between identical runs (a known non-determinism defect of the program, not
something the benchmark hides; see NOTES.md).
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

# Files whose bytes must repeat exactly across repetitions of an operation.
DIGEST_PATTERNS = ("*.csv", "*.svg", "models/*.json")


class CheckFailed(Exception):
    """An operation's output is missing, inconsistent or not reproducible."""


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def output_digests(outdir: Path, patterns=DIGEST_PATTERNS) -> dict[str, str]:
    """Relative path -> sha256 of every file matching ``patterns``."""
    found = {}
    for pattern in patterns:
        for path in sorted(outdir.rglob(pattern)):
            found[path.relative_to(outdir).as_posix()] = file_digest(path)
    if not found:
        raise CheckFailed(f"no output files in {outdir}")
    return dict(sorted(found.items()))


def combined_digest(digests: dict[str, str]) -> str:
    """One sha256 over the sorted (path, digest) pairs."""
    h = hashlib.sha256()
    for rel, d in sorted(digests.items()):
        h.update(f"{rel}\0{d}\n".encode())
    return h.hexdigest()


def load_without_duration(path: Path) -> dict:
    """A report or manifest with ``metadata.duration_seconds`` removed."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckFailed(f"unreadable {path.name}: {exc}") from exc
    data.get("metadata", {}).pop("duration_seconds", None)
    return data


def compare_fingerprints(reference: dict, current: dict) -> None:
    """Raise CheckFailed naming the first part that differs."""
    ref_files, cur_files = reference["files"], current["files"]
    if ref_files.keys() != cur_files.keys():
        missing = sorted(ref_files.keys() ^ cur_files.keys())
        raise CheckFailed(f"output file set differs: {missing}")
    for rel in ref_files:
        if ref_files[rel] != cur_files[rel]:
            raise CheckFailed(f"{rel} differs from the first repetition")
    for key in sorted(reference.keys() - {"files"}):
        if reference[key] != current.get(key):
            raise CheckFailed(f"{key} differs from the first repetition")


def check_cells(report: dict) -> None:
    """Every configured (state, model) pair has a result or a skip reason."""
    cells = {(c["state"], c["model"]): c for c in report.get("cells", [])}
    for state in report["states"]:
        for model in report["model_kinds"]:
            cell = cells.get((state, model))
            if cell is None:
                raise CheckFailed(f"cell ({state}, {model}) missing from report")
            if cell.get("skip_reason"):
                continue
            auroc = (cell.get("auroc") or {}).get("value")
            if auroc is None or not 0.0 <= auroc <= 1.0:
                raise CheckFailed(f"cell ({state}, {model}) has no valid AUROC")


def check_results_csv(report: dict, csv_text: str) -> None:
    """results.csv carries the same pooled AUROC as report.json."""
    lines = csv_text.strip().splitlines()
    header = lines[0].split(",")
    if header != ["state"] + report["model_kinds"]:
        raise CheckFailed(f"results.csv header {header}")
    cells = {(c["state"], c["model"]): c for c in report["cells"]}
    for line, state in zip(lines[1:], report["states"]):
        row = line.split(",")
        if row[0] != state:
            raise CheckFailed(f"results.csv row {row[0]!r}, expected {state!r}")
        for model, text in zip(report["model_kinds"], row[1:]):
            est = cells[(state, model)].get("auroc")
            want = f"{est['value']:.6f}" if est else ""
            if text != want:
                raise CheckFailed(f"results.csv ({state}, {model}) {text!r} != {want!r}")


def check_probabilities(probs, what: str) -> None:
    """Rows are finite, within [0, 1] and sum to one."""
    if not np.all(np.isfinite(probs)) or probs.min() < 0.0 or probs.max() > 1.0:
        raise CheckFailed(f"{what}: probabilities outside [0, 1]")
    if np.abs(probs.sum(axis=1) - 1.0).max() > 1e-9:
        raise CheckFailed(f"{what}: probability rows do not sum to one")


def expected_ope_curve(picked_by_patient: list, max_stage: int = 10,
                       floor: float = 1e-6) -> list[tuple[int, float, int, int]]:
    """Reference (stage, median, n, floored) rows of the inverse-product curve.

    ``picked_by_patient`` holds, per patient, the model probability of each
    observed action in stage order.
    """
    floored = sum(int((p < floor).sum()) for p in picked_by_patient)
    series = [np.cumprod(1.0 / np.maximum(p, floor)) for p in picked_by_patient]
    rows = []
    for t in range(1, max_stage + 1):
        active = [s[t - 1] for s in series if len(s) >= t]
        if not active:
            break
        rows.append((t, float(np.median(active)), len(active), floored))
    return rows


def check_ope_curve(csv_text: str, expected: list) -> None:
    """ope_curve.csv matches the reference rows to its printed precision."""
    lines = csv_text.strip().splitlines()
    if lines[0] != "stage,median,n,floored_events":
        raise CheckFailed(f"ope_curve.csv header {lines[0]!r}")
    if len(lines) - 1 != len(expected):
        raise CheckFailed(f"ope_curve.csv has {len(lines) - 1} stages, expected {len(expected)}")
    for line, (t, median, n, floored) in zip(lines[1:], expected):
        st, med, cnt, fl = line.split(",")
        if (int(st), int(cnt), int(fl)) != (t, n, floored):
            raise CheckFailed(f"ope_curve.csv row {line!r} != {(t, n, floored)}")
        if not math.isclose(float(med), median, rel_tol=1e-6, abs_tol=1e-6):
            raise CheckFailed(f"ope_curve.csv stage {t} median {med} != {median:.6f}")

"""Output checks for one benchmark op.

Every check reads the ``<experiment>-<seed>.{json,csv}`` files an ``llo-sim``
command wrote, raises :class:`CheckError` on the first problem, and returns
the number of pulse pairs the op simulated (0 for closed-form commands).
The numeric ranges are those of the repository's acceptance gate.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path


class CheckError(Exception):
    """An op's outputs are missing, unreadable or out of range."""


def load_result(out_dir: Path, name: str, seed: int) -> dict:
    """Parse ``<name>-<seed>.json`` and ``.csv``; return the JSON document."""
    stem = Path(out_dir) / f"{name}-{seed}"
    try:
        doc = json.loads(stem.with_suffix(".json").read_text(encoding="utf-8"))
        with stem.with_suffix(".csv").open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except (OSError, ValueError) as exc:
        raise CheckError(f"{name}: {exc}") from exc
    if not rows or any(len(row) != len(rows[0]) for row in rows):
        raise CheckError(f"{name}: CSV is empty or ragged")
    if not isinstance(doc, dict) or not isinstance(doc.get("metrics"), dict):
        raise CheckError(f"{name}: JSON has no metrics object")
    return doc


def metric(doc: dict, key: str) -> float:
    try:
        value = float(doc["metrics"][key]["value"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckError(f"{doc.get('name')}: metric {key} missing or not a number") from exc
    if not math.isfinite(value):
        raise CheckError(f"{doc.get('name')}: metric {key} = {value} is not finite")
    return value


def in_range(doc: dict, key: str, lo: float, hi: float, *, open_interval=False) -> float:
    value = metric(doc, key)
    ok = lo < value < hi if open_interval else lo <= value <= hi
    if not ok:
        bracket = "()" if open_interval else "[]"
        raise CheckError(
            f"{doc['name']}: {key} = {value!r} outside {bracket[0]}{lo}, {hi}{bracket[1]}"
        )
    return value


def n_pairs(doc: dict, multiplier: int = 1) -> int:
    try:
        return int(doc["metadata"]["config"]["n_pairs"]) * multiplier
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckError(f"{doc.get('name')}: metadata.config.n_pairs missing") from exc


def check_phase_exp(out_dir: Path, seed: int) -> int:
    doc = load_result(out_dir, "phase-exp", seed)
    in_range(doc, "residual_variance_pooled", 0.034, 0.046)
    return n_pairs(doc)


def check_remap_exp(out_dir: Path, seed: int) -> int:
    doc = load_result(out_dir, "remap-exp", seed)
    in_range(doc, "x_noise_variance_snu", 1.83 - 0.15, 1.83 + 0.15)
    return n_pairs(doc)


def _positive_rate(doc: dict, key: str) -> None:
    if not metric(doc, key) > 0.0:
        raise CheckError(f"{doc['name']}: {key} = {metric(doc, key)!r} is not > 0")


def check_keyrate_asymptotic(out_dir: Path, seed: int) -> int:
    _positive_rate(load_result(out_dir, "keyrate-asymptotic", seed), "asymptotic_rate")
    return 0


def check_keyrate_finite(out_dir: Path, seed: int) -> int:
    _positive_rate(load_result(out_dir, "keyrate-finite", seed), "finite_size_rate")
    return 0


def check_sweep_distance(out_dir: Path, seed: int) -> int:
    doc = load_result(out_dir, "sweep-distance", seed)
    in_range(doc, "secure_range_km", 110.0, 140.0, open_interval=True)
    return 0


def check_sweep_n(out_dir: Path, seed: int) -> int:
    doc = load_result(out_dir, "sweep-n", seed)
    in_range(doc, "n_threshold", 10**10.5, 10**11.5)
    return 0


ALL_EXPERIMENTS = (
    "phase-exp", "weak-ref", "remap-exp", "laser-noise",
    "keyrate-asymptotic", "keyrate-finite", "sweep-distance", "sweep-n",
)


def check_all_reference(out_dir: Path, seed: int) -> int:
    """Checks for a ``--threads 1`` run of ``all`` at the reference defaults:
    every file parses, and the Monte Carlo studies land in their gate ranges.
    Returns the pulse pairs one ``all`` run simulates."""
    docs = {name: load_result(out_dir, name, seed) for name in ALL_EXPERIMENTS}
    in_range(docs["phase-exp"], "residual_variance_pooled", 0.034, 0.046)
    in_range(docs["remap-exp"], "x_noise_variance_snu", 1.83 - 0.15, 1.83 + 0.15)
    in_range(docs["sweep-distance"], "secure_range_km", 110.0, 140.0, open_interval=True)
    try:
        weak_points = len(docs["weak-ref"]["metadata"]["config"]["photon_numbers"])
    except (KeyError, TypeError) as exc:
        raise CheckError("weak-ref: metadata.config.photon_numbers missing") from exc
    return (n_pairs(docs["phase-exp"]) + n_pairs(docs["weak-ref"], weak_points)
            + n_pairs(docs["remap-exp"]))


def check_identical(out_dir: Path, ref_dir: Path) -> None:
    """Every file of ``ref_dir`` exists in ``out_dir`` with the same bytes,
    and ``out_dir`` holds no extra file."""
    ref_names = sorted(p.name for p in Path(ref_dir).iterdir())
    out_names = sorted(p.name for p in Path(out_dir).iterdir())
    if ref_names != out_names:
        raise CheckError(f"output files {out_names} differ from reference {ref_names}")
    for name in ref_names:
        if (Path(out_dir) / name).read_bytes() != (Path(ref_dir) / name).read_bytes():
            raise CheckError(f"{name} differs from the --threads 1 reference")


def judge(returncode: int, check, out_dir: Path, seed: int) -> tuple[str | None, int]:
    """Return ``(failure reason or None, pulse pairs)`` for one finished op."""
    if returncode != 0:
        return f"exit code {returncode}", 0
    try:
        return None, check(out_dir, seed)
    except CheckError as exc:
        return str(exc), 0

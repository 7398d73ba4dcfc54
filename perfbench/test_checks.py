"""Tests of the benchmark's own output checks and trace arithmetic.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import tracing

ROOT = Path(__file__).resolve().parent.parent
SEED = 7


def _cli(out_dir: Path, *argv: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, "-m", "llo_sim.cli", *argv,
         "--seed", str(SEED), "--output-dir", str(out_dir)],
        check=True, env=env, capture_output=True, timeout=120,
    )


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> Path:
    """Clean outputs of one phase-exp op and of ``all`` at 1 and 2 threads."""
    base = tmp_path_factory.mktemp("ops")
    _cli(base / "phase", "phase-exp", "--threads", "1")
    _cli(base / "t1", "all", "--threads", "1")
    _cli(base / "t2", "all", "--threads", "2")
    return base


def _copy(src: Path, tmp_path: Path) -> Path:
    return Path(shutil.copytree(src, tmp_path / "op"))


def _same_as(ref: Path):
    def check(out_dir, seed):
        checks.check_identical(out_dir, ref)
        return 0
    return check


def test_clean_ops_pass(outputs):
    assert checks.judge(0, checks.check_phase_exp, outputs / "phase", SEED) == (None, 25000)
    assert checks.judge(0, checks.check_all_reference, outputs / "t1", SEED) == (None, 124000)
    assert checks.judge(0, _same_as(outputs / "t1"), outputs / "t2", SEED) == (None, 0)


def test_pooled_variance_out_of_range_fails(outputs, tmp_path):
    op = _copy(outputs / "phase", tmp_path)
    path = op / f"phase-exp-{SEED}.json"
    doc = json.loads(path.read_text())
    doc["metrics"]["residual_variance_pooled"]["value"] = 0.05
    path.write_text(json.dumps(doc))
    failure, _ = checks.judge(0, checks.check_phase_exp, op, SEED)
    assert failure is not None and "residual_variance_pooled" in failure


def test_one_byte_csv_difference_from_reference_fails(outputs, tmp_path):
    op = _copy(outputs / "t2", tmp_path)
    path = op / f"remap-exp-{SEED}.csv"
    data = bytearray(path.read_bytes())
    last_digit = max(i for i, b in enumerate(data) if chr(b).isdigit())
    data[last_digit] = ord("1") if data[last_digit] != ord("1") else ord("2")
    path.write_bytes(bytes(data))
    failure, _ = checks.judge(0, _same_as(outputs / "t1"), op, SEED)
    assert failure is not None and f"remap-exp-{SEED}.csv" in failure


def test_nonzero_exit_fails(outputs):
    failure, _ = checks.judge(1, checks.check_phase_exp, outputs / "phase", SEED)
    assert failure == "exit code 1"


def test_missing_csv_fails(outputs, tmp_path):
    op = _copy(outputs / "phase", tmp_path)
    (op / f"phase-exp-{SEED}.csv").unlink()
    failure, _ = checks.judge(0, checks.check_phase_exp, op, SEED)
    assert failure is not None and "phase-exp" in failure


def test_summarize_self_time_and_runner_coverage():
    # name, start, end, id, parent, thread, work, cpu
    spans = [
        ("cli.main", 0.0, 10.0, 1, None, 1, 0, 10.0),
        (tracing.RUNNER, 1.0, 9.0, 2, 1, 1, 0, 2.0),
        ("link_sim.simulate_run", 2.0, 6.0, 3, None, 2, 100, 3.0),
        ("noise_models.sample_phase_trajectory", 2.0, 3.0, 4, 3, 2, 100, 1.0),
        ("phase_recovery.recover_run", 5.0, 8.0, 5, None, 3, 100, 2.0),
    ]
    out = tracing.summarize(spans)
    assert out["cli.main.self_s"] == 2.0
    assert out["link_sim.simulate_run.self_s"] == 3.0
    assert out["link_sim.simulate_run.work"] == 100
    assert out[f"{tracing.RUNNER}.uncovered_s"] == 2.0  # [1, 2) and [8, 9)
    assert out["busy_s"] == 5.0
    assert out["mc_runner_s"] == 8.0


def test_parse_importtime_attributes_nested_imports_to_scipy():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | site",
        "import time:       300 |        300 |       numpy.linalg",
        "import time:       200 |        500 |     scipy.special",
        "import time:       400 |        900 |   scipy.stats",
        "import time:        50 |        950 | llo_sim.cli",
    ])
    import_s, scipy_s, breakdown = run.parse_importtime(text)
    assert import_s == pytest.approx(950e-6)
    assert scipy_s == pytest.approx(900e-6)
    assert breakdown[0] == ("cumulative", "scipy.stats", pytest.approx(900e-6))


def test_tail_keeps_ops_beyond_it():
    walls = [float(i) for i in range(1, 101)]
    assert run.tail(walls) == (90.0, 90.0, 10)
    assert run.tail(walls[:24]) == (21.0, 87.5, 3)

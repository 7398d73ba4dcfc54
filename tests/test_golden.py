"""Golden-output manifest: the SHA-256 of every file and of stdout for a fixed
set of commands, committed in ``golden.json`` and compared byte for byte.

The closed-form outputs use only ``math`` and ``json``, so they are checked on
every host: those of the four ``keyrate-cli`` benchmark commands, and the
files the closed-form commands write within ``all``.  The Monte Carlo outputs
go through numpy ufuncs whose SIMD paths may differ in the last bit between
numpy versions and CPUs.  They are compared on every host: a match passes,
a mismatch fails on a host with the numpy version and CPU feature set the
manifest records, and elsewhere the test skips and says why.  On any host,
``all`` at 2 threads must write the bytes it writes at 1.

A change that means to move output bytes regenerates the manifest with

    PYTHONPATH=src python tests/test_golden.py

which prints on stderr every entry whose hash moved from the committed
manifest, and any change of ``monte_carlo_host``, before it overwrites it.
"""

import contextlib
import functools
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import pytest

from llo_sim.cli import main

MANIFEST = Path(__file__).with_name("golden.json")

#: The four closed-form commands of the ``keyrate-cli`` benchmark, at its seed.
CLOSED_FORM = {
    "keyrate-asymptotic": ["keyrate-asymptotic", "--fiber-length", "50", "--seed", "1"],
    "keyrate-finite": ["keyrate-finite", "--fiber-length", "10",
                       "--n-pulses", "1000000000000", "--seed", "1"],
    "sweep-distance": ["sweep-distance", "--set", "experiments.distance_sweep.points=3001",
                       "--seed", "1"],
    "sweep-n": ["sweep-n", "--fiber-length", "10",
                "--set", "channel.detector_efficiency=1.0",
                "--set", "channel.electronic_noise_snu=0.0",
                "--set", "experiments.n_sweep.points=4000", "--seed", "1"],
}
#: The full reproduction; its Monte Carlo outputs go through numpy.
MONTE_CARLO = {"all": ["all", "--seed", "7", "--threads", "1"]}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@functools.cache
def _hashes(argv: tuple[str, ...]) -> dict[str, str]:
    """The SHA-256 of stdout and of every file that one in-process run of
    ``llo-sim argv`` writes."""
    with tempfile.TemporaryDirectory() as out:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main([*argv, "--output-dir", out])
        assert code == 0, argv
        hashes = {"stdout": _sha256(stdout.getvalue().encode())}
        for path in sorted(Path(out).iterdir()):
            hashes[path.name] = _sha256(path.read_bytes())
    return hashes


def _run(name: str) -> tuple[dict[str, str], dict[str, str]]:
    """``(closed_form, monte_carlo)``: the hashes of command ``name``'s run,
    split by whether a closed-form command wrote the file (stdout goes with
    the command)."""
    hashes = _hashes(tuple({**CLOSED_FORM, **MONTE_CARLO}[name]))
    if name in CLOSED_FORM:
        return hashes, {}
    closed = {k: v for k, v in hashes.items() if k.rsplit("-", 1)[0] in CLOSED_FORM}
    return closed, {k: v for k, v in hashes.items() if k not in closed}


def _host() -> dict:
    """The numpy version and the CPU features numpy detected at run time."""
    import numpy

    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return {
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "cpu_features": sorted(name for name, on in __cpu_features__.items() if on),
    }


def _manifest() -> dict:
    return {
        "closed_form": {name: _run(name)[0] for name in (*CLOSED_FORM, *MONTE_CARLO)},
        "monte_carlo_host": _host(),
        "monte_carlo": {name: _run(name)[1] for name in MONTE_CARLO},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(MANIFEST.read_text())


@pytest.mark.parametrize("name", [*CLOSED_FORM, *MONTE_CARLO])
def test_closed_form_outputs_match_the_manifest(golden, name):
    assert _run(name)[0] == golden["closed_form"][name]


@pytest.mark.parametrize("name", MONTE_CARLO)
def test_monte_carlo_outputs_match_the_manifest(golden, name):
    recorded, host = golden["monte_carlo_host"], _host()
    hashes = _run(name)[1]
    if hashes != golden["monte_carlo"][name] and host != recorded:
        moved = {k: (recorded.get(k), host[k]) for k in host if recorded.get(k) != host[k]}
        pytest.skip(f"outputs differ; manifest recorded on another numpy or CPU: {moved}")
    assert hashes == golden["monte_carlo"][name]


def test_two_threads_write_the_bytes_of_one():
    two = _hashes(("all", "--seed", "7", "--threads", "2"))
    assert two == _hashes(tuple(MONTE_CARLO["all"]))


def _moved(old: dict, new: dict) -> list[str]:
    """One line per manifest entry that differs from ``old`` to ``new``: a
    file's or stdout's hash, by group and command, or a ``monte_carlo_host``
    field."""

    def entries(manifest: dict) -> dict:
        host = manifest.get("monte_carlo_host", {})
        flat = {f"monte_carlo_host.{key}": value for key, value in host.items()}
        for group in ("closed_form", "monte_carlo"):
            for command, hashes in manifest.get(group, {}).items():
                flat.update({f"{group}.{command}.{name}": h for name, h in hashes.items()})
        return flat

    was, now = entries(old), entries(new)
    return [
        f"{key}: {was.get(key)} -> {now.get(key)}"
        for key in sorted(was.keys() | now.keys()) if was.get(key) != now.get(key)
    ]


def test_regeneration_names_each_moved_entry(golden):
    moved = json.loads(json.dumps(golden))
    moved["monte_carlo"]["all"]["remap-exp-7.json"] = "new"
    moved["monte_carlo_host"]["numpy"] = "0.0"
    was = golden["monte_carlo"]["all"]["remap-exp-7.json"]
    assert _moved(golden, golden) == []
    assert _moved(golden, moved) == [
        f"monte_carlo.all.remap-exp-7.json: {was} -> new",
        f"monte_carlo_host.numpy: {golden['monte_carlo_host']['numpy']} -> 0.0",
    ]


if __name__ == "__main__":
    committed = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}
    manifest = _manifest()
    for line in _moved(committed, manifest):
        print(f"moved: {line}", file=sys.stderr)
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {MANIFEST}", file=sys.stderr)

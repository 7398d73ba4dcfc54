"""Span tracing for one ``llo-sim`` op, and the per-layer figures from it.

Run as a script, this file is the traced child::

    python3 perfbench/tracing.py SPANS.json <llo-sim arguments...>

It imports ``llo_sim.cli``, replaces each traced public function by a
wrapper in the module that calls it (``experiments`` imports
``simulate_run`` by name, so the wrapper goes on
``llo_sim.experiments.simulate_run``), runs ``llo_sim.cli.main`` with the
given arguments and writes every span to ``SPANS.json``.  A span records its
name, start, end, id, parent (the enclosing span on the same thread), thread,
an amount of work (samples, pulses or bytes) and the thread's CPU time.
Names missing from the program are skipped, so their figures read 0.

Imported as a module, it only aggregates spans; it never imports llo_sim.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter, thread_time

RUNNER = "experiments.runner"
CLI_MAIN = "cli.main"


def _len(obj) -> int:
    try:
        return len(obj)
    except TypeError:
        return 0


def _file_bytes(paths) -> int:
    return sum(Path(p).stat().st_size for p in paths)


# (module the call is made from, attribute, span name, work(args, result))
TRACED = (
    ("llo_sim.link_sim", "sample_phase_trajectory",
     "noise_models.sample_phase_trajectory", lambda a, r: _len(a[1])),
    ("llo_sim.noise_models", "sample_phase_trajectory",
     "noise_models.sample_phase_trajectory", lambda a, r: _len(a[1])),
    ("llo_sim.experiments", "simulate_self_interference",
     "noise_models.simulate_self_interference", None),
    ("llo_sim.experiments", "simulate_run",
     "link_sim.simulate_run", lambda a, r: 2 * a[0].n_pairs),
    ("llo_sim.experiments", "recover_run",
     "phase_recovery.recover_run", lambda a, r: _len(a[0])),
    ("llo_sim.experiments", "residual_variance", "phase_recovery.residual_variance", None),
    ("llo_sim.experiments", "sigma_phi_from_quadratures",
     "phase_recovery.sigma_phi_from_quadratures", None),
    ("llo_sim.experiments", "finite_size_key_rate", "security.finite_size_key_rate", None),
    ("llo_sim.cli", "finite_size_key_rate", "security.finite_size_key_rate", None),
    ("llo_sim.experiments", "asymptotic_key_rate", "security.asymptotic_key_rate", None),
    ("llo_sim.cli", "key_rate_components", "security.key_rate_components", None),
    ("llo_sim.experiments", "uniformity_pvalue", "experiments.uniformity_pvalue", None),
    ("llo_sim.cli", "write_result", "experiments.write_result",
     lambda a, r: _file_bytes(r)),
    ("llo_sim.cli", "parse_config", "config.parse_config", None),
) + tuple(
    ("llo_sim.cli", runner, RUNNER, None)
    for runner in (
        "run_bpsk_phase_experiment", "run_weak_reference_sweep",
        "run_quantum_remap_experiment", "run_laser_noise_sweep",
        "run_keyrate_distance_sweep", "run_finite_size_sweep",
    )
)


class Recorder:
    """Collects spans from every thread of the traced process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, fn, name: str, work=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            with self._lock:
                span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            cpu = thread_time()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                cpu = thread_time() - cpu
                stack.pop()
            amount = work(args, result) if work is not None else 0
            with self._lock:
                self.spans.append((name, start, end, span_id, parent,
                                   threading.get_ident(), amount, cpu))
            return result

        return wrapper

    def install(self) -> None:
        for module_name, attr, name, work in TRACED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if callable(fn):
                setattr(module, attr, self.wrap(fn, name, work))


def _traced_main(spans_path: str, argv: list[str]) -> int:
    import llo_sim.cli

    recorder = Recorder()
    recorder.install()
    try:
        return recorder.wrap(llo_sim.cli.main, CLI_MAIN)(argv)
    finally:
        Path(spans_path).write_text(json.dumps(recorder.spans), encoding="utf-8")


# ---------------------------------------------------------------------------
# Aggregation (benchmark side)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans) -> dict[str, float]:
    """Per-name totals for one op's spans.

    Keys are ``<name>.calls``, ``<name>.wall_s``, ``<name>.self_s`` (duration
    minus direct children on the same thread) and ``<name>.work``, plus
    ``experiments.runner.uncovered_s`` (runner time no other span covers, on
    any thread), ``busy_s`` (summed simulate_run + recover_run thread CPU
    time, which excludes waiting for the interpreter lock) and
    ``mc_runner_s`` (wall time of runners that simulated pulses).
    """
    out: dict[str, float] = defaultdict(float)
    child_time: dict[int, float] = defaultdict(float)
    for name, start, end, _id, parent, *_ in spans:
        if parent is not None:
            child_time[parent] += end - start
    for name, start, end, span_id, _parent, _thread, work, _cpu in spans:
        out[f"{name}.calls"] += 1
        out[f"{name}.wall_s"] += end - start
        out[f"{name}.self_s"] += end - start - child_time[span_id]
        out[f"{name}.work"] += work

    out["busy_s"] = sum(span[7] for span in spans if span[0] in (
        "link_sim.simulate_run", "phase_recovery.recover_run"))
    sims = [s for n, s, e, *_ in spans if n == "link_sim.simulate_run"]
    others = [(s, e) for n, s, e, *_ in spans if n not in (RUNNER, CLI_MAIN)]
    for name, start, end, *_ in spans:
        if name != RUNNER:
            continue
        out[f"{RUNNER}.uncovered_s"] += end - start - _covered(others, start, end)
        if any(start <= s <= end for s in sims):
            out["mc_runner_s"] += end - start
    return dict(out)


def load_spans(path) -> list[tuple]:
    return [tuple(s) for s in json.loads(Path(path).read_text(encoding="utf-8"))]


if __name__ == "__main__":
    sys.exit(_traced_main(sys.argv[1], sys.argv[2:]))

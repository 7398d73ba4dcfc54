"""End-to-end benchmark of the ``llo-sim`` command line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload keyrate-cli --seed 1 --seconds 50 --trace 0

A single client runs a closed loop: it starts one fresh ``llo-sim`` child
process per op (``python -m llo_sim.cli`` with ``src/`` on the path), waits
for it with ``os.wait4``, checks the op's result files, and only then starts
the next op.  Ops are timed from spawn to exit; checks are not timed.  No
child runs more than two worker threads (BLAS is held to one).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate run in which untraced and traced ops alternate (see
``tracing.py``).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report and a ``record`` line with the environment.
See NOTES.md for the workloads, metrics and limits.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
import tracing

HERE = Path(__file__).resolve().parent
SETUP_CHILDREN = 5  # import-only children per run; setup_s is their median
IMPORTTIME_CHILDREN = 3
CHILD_TIMEOUT_S = 100.0
TAIL_BEYOND = 10  # ops that must lie beyond the tail percentile
IMPORT_ARGV = ("-c", "import llo_sim.cli")


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    check: Callable[[Path, int], int] | None  # None: compare with the reference


@dataclass(frozen=True)
class Workload:
    ops: tuple[Op, ...]  # cycled in order
    reference: Op | None = None  # run once before timing; traced in --trace 1
    grid: tuple[tuple[str, Op], ...] = ()  # (cell, op) traced only, in --trace 1


PHASE_250K = ("phase-exp", "--set", "train.n_pairs=250000")
WORKLOADS = {
    "keyrate-cli": Workload(
        ops=(
            Op(("keyrate-asymptotic", "--fiber-length", "50"),
               checks.check_keyrate_asymptotic),
            Op(("keyrate-finite", "--fiber-length", "10",
                "--n-pulses", "1000000000000"), checks.check_keyrate_finite),
            Op(("sweep-distance", "--set", "experiments.distance_sweep.points=3001"),
               checks.check_sweep_distance),
            Op(("sweep-n", "--fiber-length", "10",
                "--set", "channel.detector_efficiency=1.0",
                "--set", "channel.electronic_noise_snu=0.0",
                "--set", "experiments.n_sweep.points=4000"), checks.check_sweep_n),
        ),
    ),
    "reproduce-all-t2": Workload(
        ops=(Op(("all", "--threads", "2"), None),),
        reference=Op(("all", "--threads", "1"), checks.check_all_reference),
        grid=(("250k_t1", Op(PHASE_250K + ("--threads", "1"), checks.check_phase_exp)),
              ("250k_t2", Op(PHASE_250K + ("--threads", "2"), checks.check_phase_exp))),
    ),
}
OPS_CELL = "25k_t2"  # the reproduce-all-t2 ops; its reference run is REFERENCE_CELL
REFERENCE_CELL = "25k_t1"
GRID_CELLS = (REFERENCE_CELL, "250k_t1", "250k_t2")


@dataclass
class OpResult:
    index: int  # position in the workload's op cycle
    wall_s: float
    cpu_s: float
    failure: str | None
    pairs: int
    traced: bool
    layers: dict = field(default_factory=dict)


class Bench:
    """Starts, times and checks the child processes of one benchmark run."""

    def __init__(self, root: Path, work: Path, seed: int):
        self.root = root
        self.work = work
        self.seed = seed
        self.maxrss_kb = 0
        self.grid: dict[str, dict] = {}  # cell -> span summary, --trace 1
        self.env = dict(os.environ)
        self.env.pop("LLO_SIM_THREADS", None)
        path = [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        self.env["PYTHONPATH"] = os.pathsep.join(path)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"

    def child(self, args) -> tuple[float, float, int]:
        """Run ``python args...``; return (wall s, CPU s, exit code).
        Standard output and error go to ``work/child.out`` and ``.err``."""
        argv = [sys.executable, *args]
        with open(self.work / "child.out", "wb") as out, \
                open(self.work / "child.err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env,
                                    cwd=self.root)
            timer = threading.Timer(CHILD_TIMEOUT_S, _kill, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                _kill(proc.pid)
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.maxrss_kb = max(self.maxrss_kb, usage.ru_maxrss)
        return wall, usage.ru_utime + usage.ru_stime, proc.returncode

    def op(self, index: int, op: Op, check, traced: bool, out_dir: Path) -> OpResult:
        shutil.rmtree(out_dir, ignore_errors=True)
        spans = self.work / "spans.json"
        cli = [*op.argv, "--seed", str(self.seed), "--output-dir", str(out_dir)]
        if traced:
            spans.unlink(missing_ok=True)
            args = [str(HERE / "tracing.py"), str(spans), *cli]
        else:
            args = ["-m", "llo_sim.cli", *cli]
        wall, cpu, code = self.child(args)
        failure, pairs = checks.judge(code, check, out_dir, self.seed)
        if failure is not None:
            err = (self.work / "child.err").read_text(errors="replace").strip()
            failure += f" ({err.splitlines()[-1]})" if err else ""
        result = OpResult(index, wall, cpu, failure, pairs, traced)
        if traced and failure is None:
            result.layers = tracing.summarize(tracing.load_spans(spans))
        return result

    def importtime(self) -> tuple[float, float, list]:
        _, _, code = self.child(("-X", "importtime", *IMPORT_ARGV))
        if code != 0:
            raise RuntimeError("import llo_sim.cli failed")
        return parse_importtime((self.work / "child.err").read_text())


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def parse_importtime(text: str) -> tuple[float, float, list]:
    """From ``python -X importtime`` output, return the import time of
    ``llo_sim.cli`` (s), the time of every import made on behalf of scipy (s)
    and the scipy breakdown: each outermost scipy import with its cumulative
    time, then the five scipy modules with the largest self time."""
    nodes = []  # (depth, name, self s, cumulative s), in completion order
    for line in text.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        name = parts[2].strip()
        depth = (len(parts[2]) - len(parts[2].lstrip(" ")) - 1) // 2
        nodes.append((depth, name, int(parts[0]) * 1e-6, int(parts[1]) * 1e-6))
    # Children complete before their parent, so in reverse order a node's
    # parent is the latest node seen one level up.
    in_scipy = [False] * len(nodes)
    outermost = [False] * len(nodes)
    latest: dict[int, int] = {}
    for i in range(len(nodes) - 1, -1, -1):
        depth, name, _, _ = nodes[i]
        parent = latest.get(depth - 1) if depth else None
        inherited = parent is not None and in_scipy[parent]
        own = name == "scipy" or name.startswith("scipy.")
        in_scipy[i] = inherited or own
        outermost[i] = own and not inherited
        latest[depth] = i
    import_s = sum(c for d, n, _, c in nodes
                   if d == 0 and (n == "llo_sim" or n.startswith("llo_sim.")))
    scipy_s = sum(nodes[i][3] for i in range(len(nodes)) if outermost[i])
    heavy = sorted((i for i in range(len(nodes)) if in_scipy[i]),
                   key=lambda i: -nodes[i][2])[:5]
    breakdown = ([("cumulative", nodes[i][1], nodes[i][3])
                  for i in range(len(nodes)) if outermost[i]]
                 + [("self", nodes[i][1], nodes[i][2]) for i in heavy])
    return import_s, scipy_s, breakdown


def run_cycles(cycle, seconds: float) -> float:
    """Call ``cycle`` while another call, as long as the last one, would end
    nearer to ``seconds`` than stopping now; it runs at least once.  Whole
    cycles keep the mix of commands the same in every run.  Returns the
    loop's wall time."""
    start = time.perf_counter()
    last = 0.0
    while True:
        elapsed = time.perf_counter() - start
        if last and elapsed + last / 2 > seconds:
            return elapsed
        cycle()
        last = time.perf_counter() - start - elapsed


def tail(walls: list[float]) -> tuple[float, float, int]:
    """The highest percentile with ``TAIL_BEYOND`` ops beyond it or, in a run
    of fewer than ``8 * TAIL_BEYOND`` ops, with an eighth of them beyond it.
    Returns (value, percentile, ops beyond)."""
    n = len(walls)
    beyond = min(TAIL_BEYOND, n // 8)
    return sorted(walls)[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def environment(root: Path, seed: int) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    commit = None
    if (root / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "seed": seed,
    }


def _value(v, unit):
    return {"value": v, "unit": unit}


def timed_run(bench: Bench, wl: Workload, seconds: float, report: list,
              record: dict) -> tuple[list, dict]:
    cycle, failures = _prepare(bench, wl, traced=False, report=report)
    results: list[OpResult] = []
    setup: list[float] = []
    ops_s = 0.0

    def full_cycle():
        nonlocal ops_s
        # Spreading the import-only children over the run keeps one burst of
        # load on the shared host from setting setup_s.
        if len(setup) < SETUP_CHILDREN:
            setup.append(bench.child(IMPORT_ARGV)[0])
        start = time.perf_counter()
        for k, op in enumerate(wl.ops):
            results.append(bench.op(k, op, cycle[k], False, bench.work / "op"))
        ops_s += time.perf_counter() - start

    loop_s = run_cycles(full_cycle, seconds)
    while len(setup) < SETUP_CHILDREN:
        setup.append(bench.child(IMPORT_ARGV)[0])
    walls = [r.wall_s for r in results]
    tail_s, pct, beyond = tail(walls)
    report.append(f"ops: {len(results)} in {ops_s:.3f} s of a {loop_s:.3f} s loop; "
                  f"op_wall_s_tail is p{pct:.1f} with {beyond} ops beyond it")
    record.update(tail_percentile=pct, tail_ops_beyond=beyond)
    report.append(f"op walls (s): {', '.join(f'{w:.4f}' for w in walls)}")
    report.append(f"setup children (s): {', '.join(f'{s:.4f}' for s in setup)}")
    metrics = {
        "op_wall_s_p50": _value(statistics.median(walls), "s"),
        "op_wall_s_tail": _value(tail_s, "s"),
        "op_cpu_s_p50": _value(statistics.median(r.cpu_s for r in results), "s"),
        "ops_per_s": _value(len(results) / ops_s, "1/s"),
        "setup_s": _value(statistics.median(setup), "s"),
        "peak_rss_mb": _value(bench.maxrss_kb / 1024.0, "MB"),
    }
    return _fail_all(results, failures), metrics


def _prepare(bench: Bench, wl: Workload, traced: bool, report: list):
    """Run the reference op if the workload has one; return the check of each
    op in the cycle, and the failure that every op inherits from a broken
    reference (or None)."""
    if wl.reference is None:
        return [op.check for op in wl.ops], None
    ref_dir = bench.work / "ref"
    ref = bench.op(-1, wl.reference, wl.reference.check, traced, ref_dir)
    if ref.failure is not None:
        report.append(f"reference run failed: {ref.failure}")
        return [None] * len(wl.ops), f"reference run failed: {ref.failure}"
    if traced:
        bench.grid[REFERENCE_CELL] = ref.layers

    def same_as_reference(out_dir, seed):
        checks.check_identical(out_dir, ref_dir)
        return ref.pairs

    return [op.check or same_as_reference for op in wl.ops], None


def _fail_all(results: list[OpResult], failure: str | None) -> list[OpResult]:
    if failure is not None:
        for r in results:
            r.failure = failure
    return results


def _sum(dicts) -> dict[str, float]:
    total: dict[str, float] = {}
    for d in dicts:
        for k, v in d.items():
            total[k] = total.get(k, 0.0) + v
    return total


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


TRAJECTORY = "noise_models.sample_phase_trajectory"
SIMULATE = "link_sim.simulate_run"
RECOVER = "phase_recovery.recover_run"
# Work-normalised self time: (span name, metric suffix); work is samples or pulses.
NS_PER_WORK = ((TRAJECTORY, "ns_per_sample"), (SIMULATE, "ns_per_pulse"),
               (RECOVER, "ns_per_pulse"))
# Means per traced op: (metric, unit, key of tracing.summarize).
PER_OP = (
    (f"{TRAJECTORY}.calls", "count", f"{TRAJECTORY}.calls"),
    (f"{TRAJECTORY}.self_s", "s", f"{TRAJECTORY}.self_s"),
    ("noise_models.simulate_self_interference.self_s", "s",
     "noise_models.simulate_self_interference.self_s"),
    (f"{SIMULATE}.calls", "count", f"{SIMULATE}.calls"),
    (f"{SIMULATE}.pulses", "count", f"{SIMULATE}.work"),
    (f"{SIMULATE}.self_s", "s", f"{SIMULATE}.self_s"),
    (f"{RECOVER}.calls", "count", f"{RECOVER}.calls"),
    (f"{RECOVER}.self_s", "s", f"{RECOVER}.self_s"),
    ("phase_recovery.residual_variance.self_s", "s",
     "phase_recovery.residual_variance.self_s"),
    ("phase_recovery.sigma_phi_from_quadratures.self_s", "s",
     "phase_recovery.sigma_phi_from_quadratures.self_s"),
    ("security.finite_size_key_rate.calls", "count", "security.finite_size_key_rate.calls"),
    ("security.asymptotic_key_rate.calls", "count", "security.asymptotic_key_rate.calls"),
    ("experiments.runner.self_s", "s", f"{tracing.RUNNER}.uncovered_s"),
    ("experiments.uniformity_pvalue.self_s", "s", "experiments.uniformity_pvalue.self_s"),
    ("experiments.write_result.calls", "count", "experiments.write_result.calls"),
    ("experiments.write_result.self_s", "s", "experiments.write_result.self_s"),
    ("experiments.write_result.bytes", "B", "experiments.write_result.work"),
    ("config.parse_config.self_s", "s", "config.parse_config.self_s"),
    ("cli.main.self_s", "s", f"{tracing.CLI_MAIN}.self_s"),
)
US_PER_CALL = ("security.finite_size_key_rate", "security.asymptotic_key_rate",
               "security.key_rate_components")


def _ns_per_work(t: dict, span: str) -> float:
    return _ratio(t.get(f"{span}.self_s", 0.0), t.get(f"{span}.work", 0.0), 1e9)


def traced_run(bench: Bench, wl: Workload, seconds: float, report: list,
               record: dict) -> tuple[list, dict]:
    imports = sorted((bench.importtime() for _ in range(IMPORTTIME_CHILDREN)),
                     key=lambda t: t[1])
    cycle, failures = _prepare(bench, wl, traced=True, report=report)
    results: list[OpResult] = []
    loop_start = time.perf_counter()
    for cell, op in wl.grid:
        results.append(bench.op(-1, op, op.check, True, bench.work / "op"))
        bench.grid[cell] = results[-1].layers

    def full_cycle():
        for k, op in enumerate(wl.ops):
            for traced in (False, True):
                results.append(bench.op(k, op, cycle[k], traced, bench.work / "op"))

    run_cycles(full_cycle, seconds - (time.perf_counter() - loop_start))
    plain = [r for r in results if not r.traced]
    traced_ops = [r for r in results if r.traced and r.index >= 0]
    t = _sum(r.layers for r in traced_ops)
    overhead = (statistics.median(r.wall_s for r in traced_ops)
                - statistics.median(r.wall_s for r in plain))
    import_s, scipy_s, breakdown = imports[len(imports) // 2]

    values = {name: (t.get(key, 0.0) / len(traced_ops), unit) for name, unit, key in PER_OP}
    values.update({f"{span}.{suffix}": (_ns_per_work(t, span), "ns")
                   for span, suffix in NS_PER_WORK})
    values.update({f"{span}.us_per_call": (
        _ratio(t.get(f"{span}.wall_s", 0.0), t.get(f"{span}.calls", 0.0), 1e6), "us")
        for span in US_PER_CALL})
    values.update({
        "experiments.thread_busy_ratio":
            (_ratio(t.get("busy_s", 0.0), t.get("mc_runner_s", 0.0)), "ratio"),
        "cli.import_s": (import_s, "s"),
        "cli.import_scipy_s": (scipy_s, "s"),
        "trace.overhead_s": (overhead, "s"),
        "pulse_pairs_per_s": (_ratio(sum(r.pairs for r in plain),
                                     sum(r.wall_s for r in plain)), "1/s"),
    })
    for cell in GRID_CELLS:
        layers = bench.grid.get(cell, {})
        values.update({f"grid.{cell}.{span}.{suffix}": (_ns_per_work(layers, span), "ns")
                       for span, suffix in NS_PER_WORK})
    metrics = {name: _value(v, unit) for name, (v, unit) in values.items()}

    report.append(f"ops: {len(plain)} untraced + {len(traced_ops)} traced; trace "
                  f"overhead on op_wall_s_p50: {overhead:+.4f} s")
    report.append(f"cli.import_scipy_s = {scipy_s:.4f} s of cli.import_s = "
                  f"{import_s:.4f} s; breakdown (-X importtime):")
    report.extend(f"  {kind:>10} {secs:.4f} s  {name}" for kind, name, secs in breakdown)
    if bench.grid:
        report.append("ns/pulse grid, self time (trajectory per sample / "
                      "simulate_run / recover_run):")
        for cell, layers in [(OPS_CELL, t)] + [(c, bench.grid[c]) for c in GRID_CELLS
                                               if c in bench.grid]:
            report.append(f"  {cell}: " + " / ".join(
                f"{_ns_per_work(layers, span):.1f}" for span, _ in NS_PER_WORK))
    return _fail_all(results, failures), metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "llo_sim" / "cli.py").is_file():
        print(f"perfbench: no llo-sim source under {root / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    work = root / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    bench = Bench(root, work, args.seed)
    record = environment(root, args.seed)
    report = [f"workload {args.workload}, seed {args.seed}, "
              f"{args.seconds:g} s, trace {args.trace}"]
    try:
        run = traced_run if args.trace else timed_run
        results, metrics = run(bench, wl, args.seconds, report, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    failed = [r for r in results if r.failure is not None]
    report.append(f"failed_op_ratio = {len(failed)}/{len(results)}")
    report.extend(f"  failed op {r.index}: {r.failure}" for r in failed[:5])
    report.extend(f"{k} = {v['value']:.6g} {v['unit']}" for k, v in metrics.items())
    record.update(workload=args.workload, seconds=args.seconds, trace=args.trace,
                  ops=len(results), failed=len(failed))
    print("\n".join(report))
    print("record " + json.dumps(record))
    print(json.dumps({"correct": not failed, "attempted": len(results),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

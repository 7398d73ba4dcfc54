import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import llo_sim
from llo_sim.cli import main
from llo_sim.config import parse_config
from llo_sim.errors import ConfigError
from llo_sim.experiments import CSV_CHUNK_ROWS


class TestParseConfig:
    def test_empty_config_gives_reference_defaults(self):
        cfg = parse_config()
        assert cfg.security.channel.attenuation_db_per_km == 0.2
        assert cfg.security.channel.electronic_noise_snu == 0.1
        assert cfg.security.channel.detector_efficiency == 0.5
        assert cfg.security.reconciliation_efficiency == 0.95
        assert cfg.security.modulation_variance == 1.0
        assert cfg.security.sigma_phi == 0.04
        assert cfg.security.discretization == 5
        assert cfg.phase_exp.repetition_period_s == 20e-9
        assert cfg.laser_noise.laser_s.coherence_time_s == pytest.approx(2 * 20e-9 / 0.035)
        assert cfg.laser_noise.laser_l.coherence_time_s == pytest.approx(2 * 20e-9 / 0.044)
        # Bench detector for the Monte Carlo experiments
        assert cfg.phase_exp.detector.electronic_noise_snu == 0.83
        assert cfg.phase_exp.detector.transmittance == 1.0

    def test_zero_fiber_length_unit_transmittance(self):
        cfg = parse_config(overrides={"channel.fiber_length_km": 0.0})
        assert cfg.security.channel.transmittance == 1.0

    def test_unknown_key_rejected_with_path(self):
        with pytest.raises(ConfigError, match=r"config\.channel.*bogus"):
            parse_config(overrides={"channel.bogus": 1})

    def test_negative_linewidth_rejected_naming_field(self):
        with pytest.raises(ConfigError, match="linewidth"):
            parse_config(overrides={"laser_s.linewidth_hz": -1.0})

    def test_conflicting_laser_spec_rejected(self):
        with pytest.raises(ConfigError, match="laser_s"):
            parse_config(
                overrides={
                    "laser_s.linewidth_hz": 1e5,
                    "laser_s.coherence_time_s": 1.0,
                }
            )

    def test_malformed_json_reports_line(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"seed": 1,,}')
        with pytest.raises(ConfigError, match="line 1"):
            parse_config(bad)

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(tmp_path / "nope.json")

    def test_file_and_overrides_compose(self, tmp_path):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps({"channel": {"fiber_length_km": 25.0}}))
        cfg = parse_config(path, overrides={"seed": 7})
        assert cfg.security.channel.fiber_length_km == 25.0
        assert cfg.seed == 7

    def test_seed_range_validated(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config(overrides={"seed": -1})
        parse_config(overrides={"seed": 2**64 - 1})

    def test_grids_resolved(self):
        cfg = parse_config()
        assert cfg.distance_sweep.grid()[0] == 0.0
        assert cfg.distance_sweep.grid()[-1] == 150.0
        assert cfg.n_sweep.grid()[0] == pytest.approx(1e6)
        assert cfg.n_sweep.grid()[-1] == pytest.approx(1e13)


class TestCliContract:
    def test_keyrate_asymptotic_prints_rate(self, tmp_path, capsys):
        code = main(
            [
                "keyrate-asymptotic",
                "--fiber-length",
                "50",
                "--output-dir",
                str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        line = [l for l in out.splitlines() if ".asymptotic_rate = " in l]
        assert len(line) == 1
        assert float(line[0].split(" = ")[1]) > 0.0
        assert (tmp_path / "keyrate-asymptotic-1.json").exists()

    def test_keyrate_finite_with_n_pulses(self, tmp_path, capsys):
        code = main(
            [
                "keyrate-finite",
                "--n-pulses",
                str(10**12),
                "--output-dir",
                str(tmp_path),
                "--set",
                "channel.detector_efficiency=1.0",
                "--set",
                "channel.electronic_noise_snu=0.0",
                "--set",
                "channel.fiber_length_km=10.0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        rate = float(out.split(" = ")[1])
        assert rate > 0.0

    def test_unknown_command_exits_2_with_usage(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_config_error_exit_code(self, capsys):
        code = main(["keyrate-asymptotic", "--set", "channel.bogus=1"])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_run_out_of_memory_exits_2_naming_the_command(self, tmp_path, capsys, monkeypatch):
        # numpy raises MemoryError for an array it cannot allocate; raised
        # here, so that no test asks the host for that memory.
        def oversized(config):
            raise MemoryError("Unable to allocate 1.42 PiB")

        monkeypatch.setitem(llo_sim.cli._RUNNERS, "remap-exp", oversized)
        code = main(["remap-exp", "--output-dir", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == (
            "config error: remap-exp: the run does not fit in memory: "
            "Unable to allocate 1.42 PiB\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("target", ["a-file", "a-file/sub"])
    def test_unwritable_output_dir_exits_2(self, tmp_path, capsys, target):
        (tmp_path / "a-file").write_text("")
        code = main(["keyrate-asymptotic", "--output-dir", str(tmp_path / target)])
        assert code == 2
        assert "config error: config.output_dir: cannot write" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            # A signal too faint to resolve leaves the remap estimator
            # ill-conditioned (a zero one is a config error, in BAD_CONFIGS).
            [
                "remap-exp", "--seed", "3",
                "--set", "experiments.remap.signal_photons=1e-4",
                "--set", "experiments.remap.n_pairs=2000",
                "--set", "experiments.remap.uniformity_stride=20",
            ],
            # Key-rate terms that overflow a float.
            ["keyrate-asymptotic", "--set", "security.modulation_variance=1e200"],
            ["keyrate-finite", "--set", "security.sigma_phi=1e300"],
            [
                "keyrate-asymptotic",
                "--set", "channel.detector_efficiency=1e-300",
                "--set", "security.modulation_variance=1e10",
            ],
            ["sweep-distance", "--set", "security.modulation_variance=1e200"],
            [
                "keyrate-asymptotic",
                "--set", "security.modulation_variance=1e200",
                "--set", "security.sigma_phi=1e200",
            ],
            # Parameter-estimation bounds that overflow a float.
            ["keyrate-finite", "--set", "security.pe_radius_scale=1e300"],
            ["keyrate-finite", "--set", "security.pe_radius_scale=1e308"],
            ["keyrate-finite", "--set", "security.sigma_phi=1e308"],
            ["sweep-n", "--set", "security.sigma_phi=1e308"],
            # A subnormal efficiency: t_low * eta / 2 underflows to 0.
            ["keyrate-finite", "--set", "channel.detector_efficiency=5e-324"],
            ["sweep-n", "--set", "channel.detector_efficiency=5e-324"],
            # An eps far below eps_sm turns the finite-size correction negative;
            # at 1e-300 eps**2 once underflowed to a ZeroDivisionError.
            ["keyrate-finite", "--set", "security.epsilons.eps=1e-30"],
            ["keyrate-finite", "--set", "security.epsilons.eps=1e-300"],
            ["sweep-n", "--set", "security.epsilons.eps=1e-40"],
            # Delays whose squares underflow leave the line fit singular.
            [
                "laser-noise",
                "--set", "experiments.laser_noise.delays_s=[1e-300,2e-300]",
                "--set", "experiments.laser_noise.n_samples=100",
            ],
            # The LO's 2.3 MHz detuning over such delays overflows the variance
            # of one batch, or the spread of the batch variances.
            [
                "laser-noise",
                "--set", "experiments.laser_noise.delays_s=[1e200,2e200]",
                "--set", "experiments.laser_noise.n_samples=100",
            ],
            [
                "laser-noise",
                "--set", "experiments.laser_noise.delays_s=[1e150,2e150]",
                "--set", "experiments.laser_noise.n_samples=100",
            ],
        ],
        ids=[
            "remap-faint-signal", "asymptotic-huge-variance", "finite-huge-sigma-phi",
            "asymptotic-huge-variance-over-tiny-efficiency", "distance-sweep-huge-variance",
            "asymptotic-infinite-excess-noise", "finite-huge-radius-scale", "finite-overflowing-radius-scale",
            "finite-overflowing-sigma-phi", "n-sweep-overflowing-sigma-phi",
            "finite-subnormal-efficiency", "n-sweep-subnormal-efficiency",
            "finite-eps-far-below-eps-sm", "finite-tiny-eps",
            "n-sweep-eps-far-below-eps-sm",
            "laser-noise-tiny-delays", "laser-noise-huge-delays", "laser-noise-large-delays",
        ],
    )
    def test_numerical_error_exit_code(self, args, tmp_path, capsys):
        code = main([*args, "--output-dir", str(tmp_path)])
        assert code == 1
        assert "numerical error:" in capsys.readouterr().err

    def test_inverted_pe_rectangle_exits_1_naming_the_point(self, tmp_path, capsys):
        # At 700 km T is 1e-14; over 1e20 pulses the upper T bound falls
        # below the 1e-12 floor that lifts the lower one.
        code = main(["keyrate-finite", "--fiber-length", "700", "--n-pulses", str(10**20),
                     "--output-dir", str(tmp_path / "out")])
        assert code == 1
        assert (
            "numerical error: parameter-estimation bounds invert at T = 1e-14, "
            "excess noise = 0.04 SNU, over 50000000000000000000 estimation samples: "
            "T_low floored to 1e-12 exceeds T_high = 7.44348e-13"
        ) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--threads", "0"], "config: threads must be >= 1, got 0"),
            (["--set", "novalue"], "--set expects KEY=VALUE, got 'novalue'"),
            (["--set", "=3"], "--set expects a non-empty key, got '=3'"),
        ],
        ids=["zero-threads", "set-without-equals", "set-without-key"],
    )
    def test_bad_argument_exits_2(self, args, message, tmp_path, capsys):
        assert main(["keyrate-asymptotic", *args, "--output-dir", str(tmp_path / "out")]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_file_must_hold_an_object(self, tmp_path, capsys):
        config_file = tmp_path / "conf.json"
        config_file.write_text("[1, 2]")
        args = ["keyrate-asymptotic", "--config", str(config_file),
                "--output-dir", str(tmp_path / "out")]
        assert main(args) == 2
        assert f"config error: {config_file}: top level must be an object" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_overflowing_n_pulses_is_a_config_error(self, tmp_path, capsys):
        # Pulse counts whose finite-size correction overflows a float are
        # rejected when the configuration is read, before any rate runs.
        for n_pulses in (10**304, 10**307):
            code = main(["keyrate-finite", "--n-pulses", str(n_pulses),
                         "--output-dir", str(tmp_path / "out")])
            assert code == 2
            err = capsys.readouterr().err
            assert f"config.security: n_pulses {n_pulses:.6g} overflows" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "eta, sigma_phi, expected",
        [("1e-14", "1e12", -34.29), ("1e-10", "1e9", -35.87)],
    )
    def test_huge_excess_noise_over_tiny_efficiency_is_valid(
        self, eta, sigma_phi, expected, tmp_path, capsys
    ):
        # Excess noise far above 1/T: chi_tot stays finite and the rate negative.
        code = main([
            "keyrate-finite", "--output-dir", str(tmp_path),
            "--set", f"channel.detector_efficiency={eta}",
            "--set", f"security.sigma_phi={sigma_phi}",
        ])
        assert code == 0
        rate = float(capsys.readouterr().out.split(" = ")[1])
        assert rate == pytest.approx(expected, abs=0.01)

    @pytest.mark.parametrize(
        "args",
        [
            # The PE rectangle clamped to T = 1 and no excess noise, where
            # lambda_3/4 are a double root at 1 (once lam^2 = 0.99999998).
            ["sweep-n", "--fiber-length", "25", "--set", "security.modulation_variance=1.7"],
            # T just below 1 with no excess noise: lambda_1/2 nearly a double root.
            [
                "keyrate-asymptotic", "--fiber-length", "1e-5",
                "--set", "security.modulation_variance=20", "--set", "security.sigma_phi=0",
            ],
            # Closer still, with a large V_A: the discriminant once rounded
            # to -4.8e-8.
            [
                "keyrate-asymptotic", "--fiber-length", "1e-9",
                "--set", "security.modulation_variance=10000", "--set", "security.sigma_phi=0",
            ],
        ],
        ids=["n-sweep-clamped-pe-corner", "asymptotic-near-lossless", "asymptotic-nearer-lossless"],
    )
    def test_near_double_root_is_valid(self, args, tmp_path, capsys):
        assert main([*args, "--output-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""

    def test_tiny_efficiency_is_valid(self, tmp_path, capsys):
        # chi_het = 2.2e300 at T = 1 and V_A = 1 gives I_AB = 1/(chi_het*ln 2);
        # chi_het**2 once overflowed.
        code = main([
            "keyrate-asymptotic", "--output-dir", str(tmp_path),
            "--set", "channel.detector_efficiency=1e-300",
        ])
        assert code == 0
        out = capsys.readouterr().out
        i_ab = float(out.split("mutual_information = ")[1].split()[0])
        assert i_ab == pytest.approx(1.0 / (2.2e300 * math.log(2.0)), rel=1e-8)

    @pytest.mark.parametrize(
        "budget, expected", [("eps_sm=1e-300", -0.0599), ("eps_bar=5e-324", 0.0437)]
    )
    def test_tiny_epsilon_is_valid(self, budget, expected, tmp_path, capsys):
        # eps_sm**2 once underflowed to a ZeroDivisionError and 1/(2*eps_bar)
        # overflowed to inf; in log space each costs key and no more.
        code = main([
            "keyrate-finite", "--output-dir", str(tmp_path),
            "--set", f"security.epsilons.{budget}",
        ])
        assert code == 0
        rate = float(capsys.readouterr().out.split(" = ")[1])
        assert rate == pytest.approx(expected, abs=1e-4)


SMALL_ALL_ARGS = [
    "--set", "train.n_pairs=2000",
    "--set", "experiments.phase_exp.uniformity_stride=20",
    "--set", "experiments.remap.n_pairs=2000",
    "--set", "experiments.remap.uniformity_stride=20",
    "--set", "experiments.laser_noise.n_samples=10000",
    "--set", "experiments.n_sweep.points=8",
    "--set", "experiments.distance_sweep.points=16",
]


def _outputs(argv, out_dir, capsys) -> tuple[str, str, dict[str, bytes]]:
    """Stdout, stderr and every file written by one in-process run of ``argv``."""
    assert main([*argv, "--output-dir", str(out_dir)]) == 0
    captured = capsys.readouterr()
    return captured.out, captured.err, {p.name: p.read_bytes() for p in out_dir.iterdir()}


class TestDeterminism:
    def test_many_chunk_scatter_same_at_one_and_two_threads(self, tmp_path, capsys):
        argv = ["remap-exp", "--seed", "7", "--set", "experiments.remap.n_pairs=10000",
                "--set", "experiments.remap.scatter_rows=10000"]
        one, two = (
            _outputs([*argv, "--threads", t], tmp_path / t, capsys) for t in ("1", "2")
        )
        assert one == two
        # One row per usable signal, 9,990, in more than two CSV chunks.
        assert one[2]["remap-exp-7.csv"].count(b"\n") - 1 > 2 * CSV_CHUNK_ROWS

    def test_noiseless_lasers_same_at_one_and_two_threads(self, tmp_path, capsys):
        argv = ["all", "--seed", "7", *SMALL_ALL_ARGS,
                "--set", "laser_s.linewidth_hz=0", "--set", "laser_l.linewidth_hz=0"]
        one, two = (
            _outputs([*argv, "--threads", t], tmp_path / t, capsys) for t in ("1", "2")
        )
        assert one == two
        assert len(one[2]) == 16

    def test_all_twice_is_byte_identical(self, tmp_path, capsys):
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        for out_dir, threads in ((dir_a, "1"), (dir_b, "3")):
            code = main(
                ["all", "--seed", "42", "--output-dir", str(out_dir),
                 "--threads", threads, *SMALL_ALL_ARGS]
            )
            assert code == 0
        files_a = sorted(p.name for p in dir_a.iterdir())
        files_b = sorted(p.name for p in dir_b.iterdir())
        assert files_a == files_b
        assert len(files_a) == 16  # 8 commands x (json + csv)
        for name in files_a:
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def _child_env() -> dict:
    """The environment of a fresh interpreter that imports this ``llo_sim``."""
    src = str(Path(llo_sim.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def _run_child(code: str, *args: str, options=()) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter, started with the interpreter
    ``options``, that imports this ``llo_sim``."""
    return subprocess.run(
        [sys.executable, *options, "-c", code, *args],
        env=_child_env(), capture_output=True, text=True, timeout=300,
    )


CLOSED_FORM_COMMANDS = ("keyrate-asymptotic", "keyrate-finite", "sweep-distance", "sweep-n")
RUN_MAIN = "from llo_sim.cli import main\nsys.exit(main(sys.argv[1:]))\n"
BLOCK_NUMPY = "sys.modules['numpy'] = None  # any import of numpy now raises\n"
BLOCK_HASHLIB = "sys.modules['hashlib'] = None\n"
NUMPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')"


class TestWithoutNumpy:
    @pytest.mark.parametrize("command", CLOSED_FORM_COMMANDS)
    def test_closed_form_command_runs_with_numpy_blocked(self, tmp_path, command):
        blocked = _run_child(
            "import sys\n" + BLOCK_NUMPY + RUN_MAIN, command, "--output-dir", str(tmp_path / "a")
        )
        assert blocked.returncode == 0, blocked.stderr
        loaded = _run_child("import sys\n" + RUN_MAIN, command, "--output-dir", str(tmp_path / "b"))
        assert loaded.returncode == 0, loaded.stderr
        assert blocked.stdout == loaded.stdout
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
        assert len(names) == 2
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize(
        "args",
        [
            "keyrate-asymptotic --fiber-length 50",
            "keyrate-finite --fiber-length 10 --n-pulses 1000000000000",
            "sweep-distance --set experiments.distance_sweep.points=3001",
            "sweep-n --set experiments.n_sweep.points=10000",
            "sweep-n --fiber-length 10 --set channel.detector_efficiency=1.0 "
            "--set channel.electronic_noise_snu=0.0 --set experiments.n_sweep.points=4000",
            "sweep-n --fiber-length 25 --set security.modulation_variance=1.7",
            "keyrate-asymptotic --fiber-length 1e-9 --set security.modulation_variance=10000 "
            "--set security.sigma_phi=0",
        ],
    )
    def test_closed_form_run_needs_neither_numpy_nor_hashlib(self, tmp_path, args):
        # Large grids, a clamped PE corner and a near-double root: no path of
        # the closed forms imports numpy or hashlib, loads the CSV kernel or
        # the thread pool, or warns.
        code = (
            "import sys\n" + BLOCK_NUMPY + BLOCK_HASHLIB
            + "from llo_sim.cli import main\n"
            "status = main(sys.argv[1:])\n"
            "assert 'llo_sim._csv_format' not in sys.modules\n"
            "assert 'concurrent.futures' not in sys.modules\n"
            "sys.exit(status)\n"
        )
        child = _run_child(
            code, *args.split(), "--output-dir", str(tmp_path), options=("-W", "error")
        )
        assert child.returncode == 0, child.stderr

    def test_cli_import_executes_no_numpy(self):
        child = _run_child(f"import sys\nimport llo_sim.cli\nprint({NUMPY_MODULES})\n")
        assert child.returncode == 0, child.stderr
        assert child.stdout.strip() == "[]"

    def test_writing_a_result_imports_no_numpy(self, tmp_path):
        code = (
            "import sys\n"
            "from llo_sim.experiments import ExperimentResult, Metric, write_result\n"
            "result = ExperimentResult({'m': Metric(0.5, 0.1)}, {'a': [1.5, float('nan')], 'b': [2, 3]},\n"
            "                          {'experiment': 'w', 'seed': 0, 'g': [1.0]})\n"
            "write_result(result, sys.argv[1])\n"
            f"print({NUMPY_MODULES})\n"
        )
        child = _run_child(code, str(tmp_path))
        assert child.returncode == 0, child.stderr
        assert child.stdout.strip() == "[]"
        assert (tmp_path / "w-0.csv").read_text() == "a,b\n1.5,2\nnan,3\n"


class TestChildFootprint:
    def test_phase_experiment_imports_no_numpy_ma(self):
        code = (
            "import sys\n"
            "from llo_sim.experiments import PhaseExperimentConfig, run_bpsk_phase_experiment\n"
            "run_bpsk_phase_experiment(PhaseExperimentConfig(n_pairs=2000, uniformity_stride=20))\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        child = _run_child(code)
        assert child.returncode == 0, child.stderr
        assert child.stdout.strip() == "False"

    @pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4 for ru_maxrss")
    def test_scatter_rows_do_not_raise_peak_memory(self, tmp_path):
        """The remap scatter CSV is streamed, so writing 100k rows peaks at
        about the memory of writing none (it was +44 MB when the whole CSV
        was built as one string)."""
        kib = 1 if sys.platform == "darwin" else 1024  # ru_maxrss unit: bytes / KiB
        peaks = []
        for rows in (100_000, 0):
            child = subprocess.Popen(
                [sys.executable, "-c", "import sys\n" + RUN_MAIN, "remap-exp",
                 "--output-dir", str(tmp_path / str(rows)),
                 "--set", "experiments.remap.n_pairs=100000",
                 "--set", f"experiments.remap.scatter_rows={rows}"],
                env=_child_env(), stdout=subprocess.DEVNULL,
            )
            _, status, usage = os.wait4(child.pid, 0)
            child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
            assert child.returncode == 0
            peaks.append(usage.ru_maxrss * kib / 2**20)
        assert peaks[0] <= peaks[1] + 8.0, peaks


class TestImportLayering:
    """A module loads only the layers below it: the config states the run
    without the runners, and a closed-form command starts no thread pool."""

    @pytest.mark.parametrize(
        "code,prefixes",
        [
            ("import llo_sim.config\nllo_sim.config.parse_config()\n",
             ("llo_sim.experiments", "llo_sim.phase_recovery", "concurrent.futures")),
            ("import llo_sim.security\n", ("llo_sim.phase_recovery",)),
            ("import llo_sim\n", ("llo_sim.",)),
            ("from llo_sim.cli import main\n"
             "assert main(['keyrate-asymptotic', '--output-dir', sys.argv[1]]) == 0\n",
             ("concurrent.futures",)),
            ("from llo_sim.cli import main\n"
             "assert main(['keyrate-asymptotic', '--output-dir', sys.argv[1]]) == 0\n",
             ("hashlib", "_hashlib")),
        ],
        ids=["config", "security", "package", "keyrate-asymptotic", "keyrate-asymptotic-hashlib"],
    )
    def test_import_loads_no_module_it_does_not_need(self, tmp_path, code, prefixes):
        child = _run_child(
            f"import sys\n{code}"
            f"print(sorted(m for m in sys.modules if m.startswith({prefixes!r})))\n",
            str(tmp_path),
        )
        assert child.returncode == 0, child.stderr
        assert child.stdout.splitlines()[-1] == "[]"


class TestWithoutScipy:
    def test_all_runs_with_scipy_blocked(self, tmp_path):
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None  # any import of scipy now raises\n"
            "from llo_sim.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        child = _run_child(code, "all", "--output-dir", str(tmp_path), *SMALL_ALL_ARGS)
        assert child.returncode == 0, child.stderr
        assert len(list(tmp_path.iterdir())) == 16

    def test_cli_import_loads_no_scipy(self):
        code = (
            "import sys\n"
            "import llo_sim.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        child = _run_child(code)
        assert child.returncode == 0, child.stderr
        assert child.stdout.strip() == "[]"


BAD_CONFIGS = [
    # (command, config file contents or None, --set overrides, path on stderr)
    ("phase-exp", None, ["experiments.phase_exp.n_batches=0"],
     "config.experiments.phase_exp: n_batches"),
    ("weak-ref", None, ["experiments.weak_ref.n_batches=0"],
     "config.experiments.weak_ref: n_batches"),
    ("laser-noise", None, ["experiments.laser_noise.n_batches=0"],
     "config.experiments.laser_noise: n_batches"),
    ("phase-exp", None, ["experiments.phase_exp.n_batches=1"],
     "config.experiments.phase_exp: n_batches"),
    ("remap-exp", None, ["experiments.remap.n_batches=-1"],
     "config.experiments.remap: n_batches"),
    ("remap-exp", None, ["experiments.remap.n_pairs=19"],
     "config.experiments.remap: n_batches"),
    ("phase-exp", None, ["experiments.phase_exp.uniformity_stride=0"],
     "config.experiments.phase_exp: uniformity_stride"),
    ("remap-exp", None, ["experiments.remap.uniformity_stride=0"],
     "config.experiments.remap: uniformity_stride"),
    ("phase-exp", None, ["experiments.phase_exp.histogram_bins=0"],
     "config.experiments.phase_exp: histogram_bins"),
    ("phase-exp", None, ["experiments.phase_exp.uniformity_bins=0"],
     "config.experiments.phase_exp: uniformity_bins"),
    ("remap-exp", None, ["experiments.remap.uniformity_bins=0"],
     "config.experiments.remap: uniformity_bins"),
    ("phase-exp", None, ["experiments.phase_exp.uniformity_bins=1"],
     "config.experiments.phase_exp: uniformity_bins"),
    ("remap-exp", None, ["experiments.remap.uniformity_bins=1"],
     "config.experiments.remap: uniformity_bins"),
    ("phase-exp", None, ["train.n_pairs=2000"],
     "config.experiments.phase_exp: uniformity_stride"),
    ("remap-exp", None, ["experiments.remap.n_pairs=2000"],
     "config.experiments.remap: uniformity_stride"),
    ("remap-exp", None, ["experiments.remap.scatter_rows=-1"],
     "config.experiments.remap: scatter_rows"),
    ("weak-ref", None, ["experiments.weak_ref.photon_numbers=[]"],
     "config.experiments.weak_ref: photon_numbers"),
    ("laser-noise", None, ["experiments.laser_noise.delays_s=[2e-8]"],
     "config.experiments.laser_noise: delays_s"),
    ("weak-ref", None, ["experiments.weak_ref.photon_numbers=[100,100]"],
     "config.experiments.weak_ref: photon_numbers"),
    ("weak-ref", None, ["experiments.weak_ref.photon_numbers=[-1,100]"],
     "config.experiments.weak_ref: photon_numbers"),
    ("laser-noise", None, ["experiments.laser_noise.delays_s=[2e-8,2e-8]"],
     "config.experiments.laser_noise: delays_s"),
    ("laser-noise", None, ["experiments.laser_noise.delays_s=[-2e-8,2e-8]"],
     "config.experiments.laser_noise: delays_s"),
    ("laser-noise", None, ["experiments.laser_noise.delays_s=[1e300,1.5e300]"],
     "config.experiments.laser_noise: delays_s: 1e+300 has no finite metric label"),
    ("laser-noise", None, ["experiments.laser_noise.delays_s=[1e300,2e-8]"],
     "config.experiments.laser_noise: delays_s: 1e+300 has no finite metric label"),
    ("keyrate-finite", None, ["security.discretization=true"],
     "config.security.discretization:"),
    ("phase-exp", None, ['experiments.phase_exp.bpsk_phases=["a",1]'],
     "config.experiments.phase_exp.bpsk_phases[0]:"),
    ("keyrate-asymptotic", None, ["channel.fiber_length_km=NaN"],
     "config.channel.fiber_length_km:"),
    ("keyrate-asymptotic", None, ["channel.detector_efficiency=-Infinity"],
     "config.channel.detector_efficiency:"),
    ("laser-noise", None, ["laser_s.coherence_time_s=Infinity"],
     "config.laser_s.coherence_time_s:"),
    ("keyrate-asymptotic", {"seed": 3}, ["seed.x=1"], "config.seed:"),
    ("sweep-distance", None, ["experiments.distance_sweep.min_km=-5"],
     "config.experiments.distance_sweep: min_km"),
    ("phase-exp", None, ["laser_l.center_detuning_hz=2e7"], "config.experiments."),
    ("remap-exp", None, ["laser_l.drift_rate_hz_per_s=1e11"], "config.experiments."),
    ("phase-exp", None, ["laser_l.coherence_time_s=1e-320"],
     "config.experiments.phase_exp: the beat's phase-noise rate"),
    ("keyrate-finite", None, ["security.n_pulses=10"], "config.security: n_pulses"),
    ("keyrate-asymptotic", None, ["security.n_pulses=999"], "config.security: n_pulses"),
    ("keyrate-finite", None, ["security.n_pulses=null"], "config.security.n_pulses:"),
    ("sweep-n", None, ["experiments.n_sweep.log10_min=2"],
     "config.experiments.n_sweep: log10_min"),
    ("keyrate-finite", None, ["security.n_pulses=1" + "0" * 320],
     "config.security: n_pulses must convert to a finite float"),
    ("sweep-n", None, ["security.pe_fraction=1e-8"],
     "config.experiments.n_sweep: log10_min: at n = 1000000, pe_fraction"),
    ("sweep-n", None, ["security.pe_fraction=1e-300"], "config.security: pe_fraction"),
    ("sweep-n", None, ["experiments.n_sweep.log10_max=400"],
     "config.experiments.n_sweep: grid must be finite"),
    ("sweep-n", None, ["experiments.n_sweep.log10_max=307"],
     "config.experiments.n_sweep: log10_max: at n = 1e+307, n_pulses"),
    ("sweep-n", None, ["experiments.n_sweep.log10_max=300"],
     "config.experiments.n_sweep: log10_max: at n = 1e+300, n_pulses"),
    ("keyrate-asymptotic", None, ["security.discretization=1" + "0" * 200],
     "config.security: discretization overflows the finite-size correction"),
    ("keyrate-asymptotic", None, ["channel.fiber_length_km=1e5"],
     "config.channel: fiber length"),
    ("phase-exp", None, ["channel.fiber_length_km=1e5"], "config.channel: fiber length"),
    ("sweep-distance", None, ["experiments.distance_sweep.max_km=1.7e308"],
     "config.experiments.distance_sweep: max_km"),
    # The smallest batch must hold what its estimator needs: 5 pairs for two
    # signals per bit, 101 pairs for 100 remapped signals.
    ("phase-exp", None,
     ["train.n_pairs=40", "experiments.phase_exp.uniformity_stride=1",
      "experiments.phase_exp.uniformity_bins=2"],
     "config.experiments.phase_exp: n_batches"),
    ("weak-ref", None,
     ["train.n_pairs=45", "experiments.phase_exp.n_batches=5",
      "experiments.phase_exp.uniformity_stride=1", "experiments.phase_exp.uniformity_bins=2"],
     "config.experiments.weak_ref: n_batches"),
    ("remap-exp", None,
     ["experiments.remap.n_pairs=1000", "experiments.remap.uniformity_stride=10"],
     "config.experiments.remap: n_batches"),
    ("keyrate-finite", None, ["security.modulation_variance=0"],
     "config.security: modulation_variance"),
    ("sweep-n", None, ["security.modulation_variance=0"],
     "config.security: modulation_variance"),
    ("all", None, ["security.modulation_variance=0"], "config.security: modulation_variance"),
    # The pulse trains are checked when their sections are built, so no batch
    # divides by a zero photon number or writes a result before a bad one.
    ("phase-exp", None, ["train.signal_photons=0"],
     "config.experiments.phase_exp: photon numbers must be > 0"),
    ("phase-exp", None, ["train.reference_photons=0"],
     "config.experiments.phase_exp: photon numbers must be > 0"),
    ("remap-exp", None, ["experiments.remap.signal_photons=-1"],
     "config.experiments.remap: photon numbers must be >= 0"),
    ("all", None, ["experiments.remap.reference_photons=-1"],
     "config.experiments.remap: photon numbers must be >= 0"),
    # The remap estimate needs a signal mean and a phase reference.
    ("remap-exp", None, ["experiments.remap.signal_photons=0"],
     "config.experiments.remap: photon numbers must be > 0"),
    ("remap-exp", None, ["experiments.remap.reference_photons=0"],
     "config.experiments.remap: photon numbers must be > 0"),
    ("all", None, ["experiments.remap.signal_photons=0"],
     "config.experiments.remap: photon numbers must be > 0"),
    # A squared mean amplitude at Bob, 2*T*eta*n, that underflows to 0.
    ("phase-exp", None, ["experiments.detector.transmittance_override=5e-324"],
     "config.experiments.phase_exp: squared detected amplitudes"),
    ("phase-exp", None,
     ["train.signal_photons=1e-300", "experiments.detector.transmittance_override=1e-300"],
     "config.experiments.phase_exp: squared detected amplitudes"),
    ("remap-exp", None,
     ["experiments.remap.signal_photons=1e-300",
      "experiments.detector.transmittance_override=1e-300"],
     "config.experiments.remap: squared detected amplitudes"),
    # The weak-reference sweep corrects its signals with each of its reference
    # photon numbers in turn, so each obeys the same two rules.
    ("weak-ref", None, ["experiments.weak_ref.photon_numbers=[1000,0]"],
     "config.experiments.weak_ref: photon numbers must be > 0 for the weak-reference sweep"),
    ("weak-ref", None,
     ["experiments.weak_ref.photon_numbers=[1000,1e-300]",
      "experiments.detector.transmittance_override=1e-300"],
     "config.experiments.weak_ref: squared detected amplitudes"),
    # Each rule of SecurityParams, through the parser.
    ("keyrate-finite", None, ["security.modulation_variance=-1"],
     "config.security: V_A must be >= 0, got -1.0"),
    ("keyrate-finite", None, ["security.sigma_phi=-0.1"],
     "config.security: sigma_phi must be >= 0"),
    ("keyrate-finite", None, ["security.discretization=0"],
     "config.security: discretization must be >= 1"),
    ("keyrate-finite", None, ["security.robustness=1"],
     "config.security: robustness must be in [0, 1)"),
    ("keyrate-finite", None, ["security.pe_fraction=0"],
     "config.security: pe_fraction must be in (0, 1)"),
    ("keyrate-finite", None, ["security.pe_radius_scale=0"],
     "config.security: pe_radius_scale must be > 0"),
    ("phase-exp", None, ["experiments.phase_exp.bpsk_phases=[0.0]"],
     "config.experiments.phase_exp.bpsk_phases: expected 2 items, got 1"),
    # Batches whose float64 arrays numpy cannot index.
    ("phase-exp", None, ["train.n_pairs=100000000000000000000"],
     "config.experiments.phase_exp: 100000000000000000000 items in 10 batches"),
    ("laser-noise", None, ["experiments.laser_noise.n_samples=100000000000000000000"],
     "config.experiments.laser_noise: 100000000000000000000 items in 10 batches"),
]


@pytest.mark.parametrize(
    "command,file_config,sets,path", BAD_CONFIGS, ids=[" ".join(c[2]) for c in BAD_CONFIGS]
)
def test_bad_config_exits_2_naming_its_path(
    tmp_path, capsys, command, file_config, sets, path
):
    args = [command, "--output-dir", str(tmp_path / "out")]
    if file_config is not None:
        config_file = tmp_path / "conf.json"
        config_file.write_text(json.dumps(file_config))
        args += ["--config", str(config_file)]
    for value in sets:
        args += ["--set", value]
    assert main(args) == 2
    assert path in capsys.readouterr().err
    assert not (tmp_path / "out").exists()

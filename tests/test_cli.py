import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import llo_sim
from llo_sim.cli import main
from llo_sim.config import parse_config
from llo_sim.errors import ConfigError


class TestParseConfig:
    def test_empty_config_gives_reference_defaults(self):
        cfg = parse_config()
        assert cfg.channel.attenuation_db_per_km == 0.2
        assert cfg.channel.electronic_noise_snu == 0.1
        assert cfg.channel.detector_efficiency == 0.5
        assert cfg.security.reconciliation_efficiency == 0.95
        assert cfg.security.modulation_variance == 1.0
        assert cfg.security.sigma_phi == 0.04
        assert cfg.security.discretization == 5
        assert cfg.train.repetition_period_s == 20e-9
        assert cfg.laser_s.coherence_time_s == pytest.approx(2 * 20e-9 / 0.035)
        assert cfg.laser_l.coherence_time_s == pytest.approx(2 * 20e-9 / 0.044)
        # Bench detector for the Monte Carlo experiments
        assert cfg.phase_exp.detector.electronic_noise_snu == 0.83
        assert cfg.phase_exp.detector.transmittance == 1.0

    def test_zero_fiber_length_unit_transmittance(self):
        cfg = parse_config(overrides={"channel.fiber_length_km": 0.0})
        assert cfg.channel.transmittance == 1.0

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
        assert cfg.channel.fiber_length_km == 25.0
        assert cfg.seed == 7

    def test_seed_range_validated(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config(overrides={"seed": -1})
        parse_config(overrides={"seed": 2**64 - 1})

    def test_grids_resolved(self):
        cfg = parse_config()
        assert cfg.distance_grid_km[0] == 0.0
        assert cfg.distance_grid_km[-1] == 150.0
        assert cfg.n_pulse_grid[0] == pytest.approx(1e6)
        assert cfg.n_pulse_grid[-1] == pytest.approx(1e13)


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

    def test_numerical_error_exit_code(self, tmp_path, capsys):
        # Zero-amplitude signals make the remap estimator ill-conditioned.
        code = main(
            [
                "remap-exp",
                "--output-dir",
                str(tmp_path),
                "--seed",
                "3",
                "--set",
                "experiments.remap.signal_photons=0",
                "--set",
                "experiments.remap.n_pairs=2000",
                "--set",
                "experiments.remap.uniformity_stride=20",
            ]
        )
        assert code == 1
        assert "numerical error" in capsys.readouterr().err

    def test_bad_threads_env_rejected(self, monkeypatch, capsys):
        monkeypatch.setenv("LLO_SIM_THREADS", "lots")
        code = main(["keyrate-asymptotic"])
        assert code == 2

    def test_threads_env_fallback(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("LLO_SIM_THREADS", "2")
        code = main(["keyrate-asymptotic", "--output-dir", str(tmp_path)])
        assert code == 0


SMALL_ALL_ARGS = [
    "--set", "train.n_pairs=2000",
    "--set", "experiments.phase_exp.uniformity_stride=20",
    "--set", "experiments.remap.n_pairs=2000",
    "--set", "experiments.remap.uniformity_stride=20",
    "--set", "experiments.laser_noise.n_samples=10000",
    "--set", "experiments.n_sweep.points=8",
    "--set", "experiments.distance_sweep.points=16",
]


class TestDeterminism:
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


def _run_child(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this ``llo_sim``."""
    src = str(Path(llo_sim.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=300,
    )


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
    ("keyrate-finite", None, ['security.swap_delta_terms="false"'],
     "config.security.swap_delta_terms:"),
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
    ("keyrate-finite", None, ["security.n_pulses=10"], "config.security: n_pulses"),
    ("keyrate-asymptotic", None, ["security.n_pulses=999"], "config.security: n_pulses"),
    ("sweep-n", None, ["experiments.n_sweep.log10_min=2"],
     "config.experiments.n_sweep: log10_min"),
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

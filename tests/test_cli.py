import json
import re
from pathlib import Path

import numpy as np
import pytest

from fhdlab.cli import build_parser, main, resolve_config
from fhdlab.core import Field, SolitonParams, make_grid
from fhdlab.evolution import EvolveConfig, evolve
from fhdlab.output import (
    format_float,
    read_csv,
    write_csv,
    write_frames_csv,
)
from fhdlab.profiles import profile_by_shooting

SPECIAL = [-0.0, 5e-324, 1e300, 1.0 / 3.0, 5.0]


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out.strip()
    summary = json.loads(out.splitlines()[-1]) if code == 0 and out else None
    return code, summary


class TestOutputHelpers:
    def test_csv_round_trips_doubles_exactly(self, tmp_path):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(64) * 10.0 ** rng.integers(-8, 8, size=64)
        y = rng.standard_normal(64)
        path = write_csv(tmp_path / "t.csv", ["x", "y"], [x, y])
        back = read_csv(path)
        assert np.array_equal(back["x"], x)
        assert np.array_equal(back["y"], y)

    def test_format_float_17_digits(self):
        assert format_float(1.0 / 3.0) == "0.33333333333333331"

    @pytest.mark.parametrize("rows", [0, 1, 4095, 4096, 4097])
    def test_csv_text_matches_format_float(self, tmp_path, rows):
        # block formatting must give the bytes of per-value format_float
        special = [-0.0, 5e-324, 1e300, 1.0 / 3.0, 5.0]
        rng = np.random.default_rng(rows)
        columns = [
            np.resize(special, rows),
            rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, size=rows),
            np.resize(special[::-1], rows),
        ]
        path = write_csv(tmp_path / "t.csv", ["a", "b", "c"], columns)
        expected = "a,b,c\n" + "".join(
            ",".join(format_float(x) for x in row) + "\n" for row in zip(*columns)
        )
        assert path.read_text() == expected

    @pytest.mark.parametrize("frames", [1, 5])
    @pytest.mark.parametrize("n", [1, 4097])
    def test_frames_csv_matches_write_csv(self, tmp_path, frames, n):
        # the frame writer must give the bytes of write_csv on the
        # expanded long-format columns t, x, v
        rng = np.random.default_rng(frames * n)
        times = np.resize(SPECIAL, frames)
        x = np.resize(SPECIAL[::-1], n)
        v = rng.standard_normal((frames, n)) * 10.0 ** rng.integers(
            -300, 300, size=(frames, n))
        v[:, : len(SPECIAL)] = SPECIAL[:n]
        meta = {"config": {"n": n}}
        written = write_frames_csv(tmp_path / "f.csv", times, x, v, meta=meta)
        expected = write_csv(
            tmp_path / "e.csv", ["t", "x", "v"],
            [np.repeat(times, n), np.tile(x, frames), v.ravel()], meta=meta,
        )
        assert written.read_bytes() == expected.read_bytes()
        assert (tmp_path / "f.meta.json").read_bytes() == (
            tmp_path / "e.meta.json").read_bytes()

    def test_frames_csv_validation(self, tmp_path):
        for v in (np.ones(2), np.ones(4)):
            with pytest.raises(TypeError):
                write_frames_csv(tmp_path / "f.csv", [0.0], np.ones(3), [v])
        with pytest.raises(ValueError):
            write_frames_csv(tmp_path / "f.csv", [0.0, 1.0], np.ones(3), [np.ones(3)])

    def test_column_validation(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", ["a"], [np.ones(3), np.ones(3)])
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", ["a", "b"], [np.ones(3), np.ones(4)])


class TestUsageAndExitCodes:
    def test_unknown_command_exits_64(self, capsys):
        assert main(["frobnicate"]) == 64
        assert "usage" in capsys.readouterr().err

    def test_no_arguments_exits_64(self, capsys):
        assert main([]) == 64

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "scan-existence" in capsys.readouterr().out

    def test_existence_violation_exits_2(self, tmp_path, capsys):
        code = main(
            ["profile", "--lambda", "1.5", "--v0", "1.0",
             "--output-dir", str(tmp_path)]
        )
        assert code == 2
        assert "existence" in capsys.readouterr().err

    def test_numerical_failure_exits_3(self, tmp_path, capsys):
        # positivity floor above the soliton minimum aborts the run
        config = {
            "params": {"lambda": 0.5, "v0": 1.0},
            "grid": {"x_min": -40.0, "x_max": 40.0, "n": 256},
            "evolve": {"t_final": 0.5, "cfl_constant": 0.4,
                       "output_stride": 50, "positivity_floor": 0.9},
            "output_dir": str(tmp_path / "out"),
        }
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        code = main(["evolve", "--config", str(cfg)])
        assert code == 3
        assert "positivity" in capsys.readouterr().err


    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        code = main(["profile", "--config", str(tmp_path / "absent.json"),
                     "--output-dir", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: cannot read config file")

    def test_malformed_config_file_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"params": {"lambda": 0.5},\n')
        code = main(["profile", "--config", str(cfg), "--output-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {cfg} is not valid JSON: ")
        assert err.rstrip().endswith("(line 2 column 1)")

    @pytest.mark.parametrize("document, key", [
        ({"t_finall": 3.0}, "t_finall"),
        ({"evolve": {"t_finall": 3.0}}, "evolve.t_finall"),
        ({"grid": {"n": 256, "dx": 0.1}}, "grid.dx"),
    ])
    def test_unknown_config_key_exits_2(self, tmp_path, capsys, document, key):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(document))
        code = main(["evolve", "--config", str(cfg), "--output-dir", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == f"error: unknown config key {key}\n"
        assert not (tmp_path / "summary.json").exists()

    def test_readme_config_example_resolves(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        example = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
        cfg = tmp_path / "run.json"
        cfg.write_text(example)
        document = json.loads(example)
        args = build_parser(document["command"]).parse_args(["--config", str(cfg)])
        config = resolve_config(document["command"], args)
        assert config.n == document["grid"]["n"]
        assert config.output_stride == document["evolve"]["output_stride"]
        assert config.emit_plots is True

    def test_non_numeric_config_value_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"params": {"lambda": "abc", "v0": 1.0}}))
        code = main(["profile", "--config", str(cfg), "--output-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config value params.lambda must be a number")


class TestScanExistence:
    def test_boundary_localised_between_samples(self, tmp_path, capsys):
        code, summary = run_cli(
            ["scan-existence", "--v0", "1.0", "--lambda-min", "0",
             "--lambda-max", "2", "--steps", "21",
             "--output-dir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        table = read_csv(tmp_path / "existence.csv")
        flags = dict(zip(table["lambda"], table["admissible"]))
        assert flags[0.9] == 1.0
        assert flags[1.1] == 0.0
        assert summary["n_admissible"] == 9


class TestProfileCommand:
    def test_outputs_and_anchors(self, tmp_path, capsys):
        code, summary = run_cli(
            ["profile", "--lambda", "0.5", "--v0", "1.0",
             "--output-dir", str(tmp_path), "--emit-plots"],
            capsys,
        )
        assert code == 0
        table = read_csv(tmp_path / "profile.csv")
        assert abs(table["v"].min() - 0.5) < 1e-6
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        methods = {record["method"] for record in metrics}
        assert methods == {"quadrature", "shooting"}
        for record in metrics:
            assert record["depth"] == pytest.approx(0.5, abs=1e-6)
        assert (tmp_path / "plot_profile.py").exists()
        assert summary["min_v"] == pytest.approx(0.5, abs=1e-6)

    def test_meta_sidecars_embed_config(self, tmp_path, capsys):
        code, _ = run_cli(
            ["profile", "--lambda", "0.5", "--v0", "1.0",
             "--output-dir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        for stem in ("profile", "profile_shooting", "metrics"):
            meta = json.loads((tmp_path / f"{stem}.meta.json").read_text())
            assert meta["config"]["lambda_speed"] == 0.5
            assert meta["config"]["command"] == "profile"


class TestDeterminism:
    def test_identical_config_gives_identical_bytes(self, tmp_path, capsys):
        args = ["potential", "--lambda", "0.4", "--v0", "1.1"]
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--output-dir", str(dir_a)]) == 0
        assert main(args + ["--output-dir", str(dir_b)]) == 0
        capsys.readouterr()
        for name in ("potential.csv", "phase.csv"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


class TestConfigResolution:
    def test_flags_override_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "params": {"lambda": 0.2, "v0": 1.0},
            "output_dir": str(tmp_path / "fromfile"),
        }))
        code, summary = run_cli(
            ["profile", "--config", str(cfg), "--lambda", "0.5"],
            capsys,
        )
        assert code == 0
        # lambda flag wins; output_dir from file is honored
        assert summary["min_v"] == pytest.approx(0.5, abs=1e-6)
        assert (tmp_path / "fromfile" / "profile.csv").exists()

    def test_env_var_fallback_for_output_dir(self, tmp_path, capsys, monkeypatch):
        target = tmp_path / "via_env"
        monkeypatch.setenv("FHD_OUTPUT_DIR", str(target))
        code, _ = run_cli(
            ["scan-existence", "--steps", "11", "--lambda-max", "1.0"],
            capsys,
        )
        assert code == 0
        assert (target / "existence.csv").exists()


class TestEvolveCommand:
    def test_summary_fields_present(self, tmp_path, capsys):
        code, summary = run_cli(
            ["evolve", "--lambda", "0.5", "--v0", "1.0", "--n", "256",
             "--t-final", "0.5", "--cfl", "0.4", "--output-stride", "50",
             "--output-dir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        stored = json.loads((tmp_path / "summary.json").read_text())
        for key in ("lambda", "v0", "n", "dt_mean", "speed_measured",
                    "conservation_drift", "shape_error"):
            assert key in stored
        assert stored["speed_measured"] == pytest.approx(0.5, rel=0.02)
        table = read_csv(tmp_path / "trajectory.csv")
        assert set(table) == {"t", "x", "v"}

    def test_per_frame_export(self, tmp_path, capsys):
        code, _ = run_cli(
            ["evolve", "--lambda", "0.5", "--v0", "1.0", "--n", "256",
             "--t-final", "0.2", "--cfl", "0.4", "--output-stride", "100",
             "--per-frame", "--output-dir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        frames = sorted(tmp_path.glob("frame_*.csv"))
        assert len(frames) >= 2
        assert not (tmp_path / "trajectory.csv").exists()

    def test_trajectory_files_match_write_csv(self, tmp_path, capsys):
        # oracle: the same run through the library, written by write_csv
        argv = ["evolve", "--lambda", "0.5", "--v0", "1.0", "--n", "256",
                "--xmin", "-40", "--xmax", "40", "--t-final", "0.2",
                "--cfl", "0.4", "--output-stride", "10"]
        assert main(argv + ["--output-dir", str(tmp_path / "long")]) == 0
        assert main(argv + ["--per-frame", "--output-dir", str(tmp_path / "each")]) == 0
        capsys.readouterr()
        grid = make_grid(-40.0, 40.0, 256)
        initial = Field(grid, profile_by_shooting(SolitonParams(0.5, 1.0), grid).v)
        trajectory = evolve(initial, EvolveConfig(
            t_final=0.2, cfl_constant=0.4, output_stride=10))
        oracle = tmp_path / "oracle.csv"
        frames = sorted((tmp_path / "each").glob("frame_*.csv"))
        assert len(frames) == len(trajectory.times) >= 3
        for path, t, frame in zip(frames, trajectory.times, trajectory.frames):
            write_csv(oracle, ["t", "x", "v"],
                      [np.full(grid.n, t), grid.x, frame.values])
            assert path.read_bytes() == oracle.read_bytes()
        write_csv(oracle, ["t", "x", "v"], [
            np.repeat(trajectory.times, grid.n),
            np.tile(grid.x, len(trajectory.times)),
            trajectory.values.ravel(),
        ])
        assert (tmp_path / "long" / "trajectory.csv").read_bytes() == (
            oracle.read_bytes())


class TestVerifyLaxCommand:
    def test_report_written_and_passing(self, tmp_path, capsys):
        code, summary = run_cli(
            ["verify-lax", "--lambda", "0.5", "--v0", "1.0",
             "--lambda-spec", "2.0", "--n", "512",
             "--output-dir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        report = json.loads((tmp_path / "lax_report.json").read_text())
        assert report["pass"] is True
        assert report["lambda_spec"] == 2.0
        assert summary["convergence_order"] >= 2.0


    def test_failed_check_is_reported_not_raised(self, tmp_path, capsys):
        # an odd n cannot be coarsened, so the order is undefined and the
        # check fails; the report must still serialize, and the failed
        # verification is a numerical failure (exit 3)
        code = main(["verify-lax", "--lambda", "0.5", "--v0", "1", "--n", "513",
                     "--output-dir", str(tmp_path)])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical failure: verify-lax check failed")
        assert '"convergence_order": null' in captured.err
        report = json.loads((tmp_path / "lax_report.json").read_text())
        assert report["pass"] is False
        assert report["convergence_order"] is None

    def test_under_resolved_check_exits_3(self, tmp_path, capsys):
        code = main(["verify-lax", "--lambda", "0.5", "--v0", "1", "--n", "64",
                     "--output-dir", str(tmp_path)])
        assert code == 3
        assert '"pass": false' in capsys.readouterr().err
        report = json.loads((tmp_path / "lax_report.json").read_text())
        assert report["pass"] is False
        assert report["convergence_order"] < 2.0


class TestReduceCheckCommand:
    def test_report_passes_with_failing_control(self, tmp_path, capsys):
        code, summary = run_cli(
            ["reduce-check", "--v0", "1.0", "--lambda-spec", "1.0",
             "--n", "256", "--output-dir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        report = json.loads((tmp_path / "reduce_report.json").read_text())
        assert report["pass"] is True
        assert report["control_pass"] is False
        assert report["control_discrepancy"] > 1e-2

    def test_zero_spectral_parameter_exits_2(self, tmp_path, capsys):
        code = main(["reduce-check", "--lambda-spec", "0", "--n", "64",
                     "--output-dir", str(tmp_path)])
        assert code == 2
        assert "lambda_spec must be finite and nonzero" in capsys.readouterr().err
        assert not (tmp_path / "reduce_report.json").exists()


def _reject_constant(name):
    raise AssertionError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("argv, code", [
    (["scan-existence", "--steps", "11"], 0),
    (["potential", "--lambda", "0.5"], 0),
    (["profile", "--lambda", "0.5"], 0),
    (["evolve", "--n", "256", "--t-final", "0.2", "--cfl", "0.4",
      "--output-stride", "100"], 0),
    (["verify-lax", "--n", "512"], 0),
    (["reduce-check", "--n", "256"], 0),
    (["verify-lax", "--n", "513"], 3),
])
def test_outputs_are_standard_json(tmp_path, capsys, argv, code):
    # NaN and Infinity are not JSON; every file and stdout line must parse
    # without them
    assert main(argv + ["--output-dir", str(tmp_path)]) == code
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == (1 if code == 0 else 0)
    documents = lines + [p.read_text() for p in sorted(tmp_path.glob("*.json"))]
    assert len(documents) >= 2
    for text in documents:
        json.loads(text, parse_constant=_reject_constant)

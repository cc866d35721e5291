import argparse
import dataclasses
import errno
import json
import os
import re
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import fhdlab
from fhdlab import output, profiles
from fhdlab.cli import (
    COMMANDS,
    USAGE,
    _OPTIONS,
    RunConfig,
    _kind,
    build_parser,
    main,
    resolve_config,
)
from fhdlab.core import MAX_VALUES, SolitonParams, make_grid
from fhdlab.evolution import EvolveConfig, evolve
from fhdlab.output import (
    write_csv,
    write_frame_files,
    write_frames_csv,
    write_json,
)
from fhdlab.profiles import closed_form_field, solve_shooting

SPECIAL = [-0.0, 5e-324, 1e300, 1.0 / 3.0, 5.0]
BLOCK_N = 97
BLOCK_FRAMES = output._FRAME_BLOCK_VALUES // BLOCK_N


def percent_csv(header, columns):
    """Oracle for the CSV writers: the bytes of ``"%.17g" % x`` value by value."""
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
    lines = [",".join(header)] + [",".join("%.17g" % x for x in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def assert_frames_match_write_csv(tmp_path, times, x, v):
    """write_frames_csv and write_csv on the long columns both give the
    oracle's bytes, and the same side-car; so do frames from a generator,
    and the bodies of the frame files, concatenated."""
    n, frames = len(x), len(times)
    meta = {"config": {"n": n}}
    columns = [np.repeat(times, n), np.tile(x, frames), np.ravel(v)]
    written = write_frames_csv(tmp_path / "f.csv", times, x, v, meta=meta)
    expected = write_csv(tmp_path / "e.csv", ["t", "x", "v"], columns, meta=meta)
    assert written.read_bytes() == percent_csv(["t", "x", "v"], columns)
    assert expected.read_bytes() == written.read_bytes()
    assert (tmp_path / "f.meta.json").read_bytes() == (
        tmp_path / "e.meta.json").read_bytes()
    lazy = write_frames_csv(tmp_path / "g.csv", times, x, (row for row in v))
    assert lazy.read_bytes() == written.read_bytes()
    texts = [path.read_bytes() for path in write_frame_files(tmp_path, times, x, v)]
    assert len(texts) == frames and all(t.startswith(b"t,x,v\n") for t in texts)
    assert b"".join(t[6:] for t in texts) == written.read_bytes()[6:]


def read_csv(path):
    """Read a CSV file the CLI wrote back into named columns."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


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

    def test_format_float_17_digits(self, tmp_path):
        # both writers' formatters give "%.17g": 17 significant digits
        third = np.array([1.0 / 3.0])
        assert "%.17g" % third[0] == "0.33333333333333331"
        path = write_csv(tmp_path / "t.csv", ["x"], [third])
        assert path.read_text() == "x\n0.33333333333333331\n"
        assert output._format_g17(third).tobytes().rstrip(b"\0") == (
            b"0.33333333333333331")

    @pytest.mark.parametrize("rows", [0, 1, 4095, 4096, 4097])
    def test_csv_text_matches_format_float(self, tmp_path, rows):
        # block formatting must give the bytes of "%.17g" % x value by value
        special = [-0.0, 5e-324, 1e300, 1.0 / 3.0, 5.0]
        rng = np.random.default_rng(rows)
        columns = [
            np.resize(special, rows),
            rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, size=rows),
            np.resize(special[::-1], rows),
        ]
        path = write_csv(tmp_path / "t.csv", ["a", "b", "c"], columns)
        assert path.read_bytes() == percent_csv(["a", "b", "c"], columns)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda k: st.lists(
        st.lists(st.floats(), min_size=k, max_size=k), max_size=40)))
    @example([[0.0, -0.0, 5e-324, -5e-324, float("nan"), float("inf"),
               float("-inf"), 1.7976931348623157e308, -1e300, 1e14]])
    @example([])
    def test_csv_matches_the_percent_oracle(self, tmp_path_factory, rows):
        # +-0, subnormals, nan, inf and huge values; 0 rows; 1 to 4 columns
        k = len(rows[0]) if rows else 1
        columns = [np.array([row[j] for row in rows]) for j in range(k)]
        header = [f"c{j}" for j in range(k)]
        path = write_csv(tmp_path_factory.mktemp("csv") / "t.csv", header, columns)
        assert path.read_bytes() == percent_csv(header, columns)

    @pytest.mark.parametrize("n_columns", [1, 3])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_csv_across_the_block_size(self, tmp_path, n_columns, offset):
        # write_csv formats about _FRAME_BLOCK_VALUES values per block
        rows = output._FRAME_BLOCK_VALUES // n_columns + offset
        rng = np.random.default_rng(rows)
        columns = [np.resize(SPECIAL, rows) * rng.standard_normal(rows)
                   for _ in range(n_columns)]
        header = list("abc"[:n_columns])
        path = write_csv(tmp_path / "t.csv", header, columns)
        assert path.read_bytes() == percent_csv(header, columns)

    @pytest.mark.parametrize("frames", [1, 5])
    @pytest.mark.parametrize("n", [1, 4097, output._FRAME_BLOCK_VALUES + 1])
    def test_frames_csv_matches_write_csv(self, tmp_path, frames, n):
        # the frame writer must give the bytes of write_csv on the
        # expanded long-format columns t, x, v; above _FRAME_BLOCK_VALUES
        # points a block holds one frame
        rng = np.random.default_rng(frames * n)
        times = np.resize(SPECIAL, frames)
        x = np.resize(SPECIAL[::-1], n)
        v = rng.standard_normal((frames, n)) * 10.0 ** rng.integers(
            -300, 300, size=(frames, n))
        v[:, : len(SPECIAL)] = SPECIAL[:n]
        assert_frames_match_write_csv(tmp_path, times, x, v)

    @pytest.mark.parametrize("frames", [1, BLOCK_FRAMES - 1, BLOCK_FRAMES,
                                        BLOCK_FRAMES + 1, 2 * BLOCK_FRAMES + 3])
    def test_frames_csv_across_the_block_size(self, tmp_path, frames):
        # v is formatted and laid out a block of BLOCK_FRAMES frames at a time
        rng = np.random.default_rng(frames)
        x = np.linspace(-40.0, 40.0, BLOCK_N, endpoint=False)
        times = np.cumsum(rng.uniform(0.0, 0.1, frames))
        v = 1.0 - 0.5 * rng.uniform(size=(frames, BLOCK_N))
        v[:, 0] = rng.choice([0.0, -0.0, 1e-300, -1e20, np.nan, 1.0], frames)
        assert_frames_match_write_csv(tmp_path, times, x, v)

    def test_frame_files_hold_the_rows_of_each_frame(self, tmp_path):
        rng = np.random.default_rng(3)
        x = np.linspace(-1.0, 1.0, 5)
        times = [0.0, 0.25, 1e-5]
        v = rng.standard_normal((3, 5))
        meta = {"config": {"n": 5}}
        paths = write_frame_files(tmp_path, times, x, v, meta=meta)
        assert [p.name for p in paths] == [
            "frame_00000.csv", "frame_00001.csv", "frame_00002.csv"]
        for path, t, row in zip(paths, times, v):
            columns = [np.full(5, t), x, row]
            write_csv(tmp_path / "e.csv", ["t", "x", "v"], columns, meta=meta)
            assert path.read_bytes() == percent_csv(["t", "x", "v"], columns)
            assert path.with_name(path.stem + ".meta.json").read_bytes() == (
                tmp_path / "e.meta.json").read_bytes()

    def test_frames_csv_validation(self, tmp_path):
        for v in (np.ones(2), np.ones(4)):
            with pytest.raises(TypeError):
                write_frames_csv(tmp_path / "f.csv", [0.0], np.ones(3), [v])
        with pytest.raises(ValueError):
            write_frames_csv(tmp_path / "f.csv", [0.0, 1.0], np.ones(3), [np.ones(3)])

    @pytest.mark.parametrize("per_frame", [False, True])
    def test_frame_errors_are_raised_at_the_offending_frame(self, tmp_path, per_frame):
        count = 2 * BLOCK_FRAMES
        times, x = np.arange(float(count)), np.linspace(0.0, 1.0, BLOCK_N)
        drawn = []

        def write(frames):
            drawn.clear()
            supply = (drawn.append(k) or frame for k, frame in enumerate(frames))
            if per_frame:
                return write_frame_files(tmp_path, times, x, supply)
            return write_frames_csv(tmp_path / "f.csv", times, x, supply)

        frames = [np.ones(BLOCK_N)] * count
        bad = BLOCK_FRAMES + 2  # inside the second block
        frames[bad] = np.ones(BLOCK_N + 1)
        with pytest.raises(TypeError, match=f"frame {bad} has shape"):
            write(frames)
        assert drawn[-1] == bad
        # one frame short: raised when frame count - 1 is missing; one frame
        # over: raised on drawing frame count, which has no time
        for supplied, last in ((count - 1, count - 2), (count + 1, count)):
            with pytest.raises(ValueError):
                write([np.ones(BLOCK_N)] * supplied)
            assert drawn[-1] == last

    def test_column_validation(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", ["a"], [np.ones(3), np.ones(3)])
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", ["a", "b"], [np.ones(3), np.ones(4)])

    @staticmethod
    def _write_all(directory, rows, frames, n):
        """Write a CSV, a trajectory, frame files and a JSON document, each
        with its side-car, whose lengths grow with the arguments."""
        meta = {"config": {"n": n, "rows": rows}}
        x = np.linspace(-1.0, 1.0, n)
        times = np.arange(frames) / 3.0
        v = 1.0 - np.outer(np.ones(frames), np.exp(-x * x)) / 7.0
        write_csv(directory / "t.csv", ["a", "b"],
                  [np.arange(rows) / 7.0, -np.arange(rows) / 3.0], meta=meta)
        write_frames_csv(directory / "trajectory.csv", times, x, v, meta=meta)
        write_frame_files(directory, times, x, v, meta=meta)
        write_json(directory / "r.json", {"rows": list(range(rows))}, meta=meta)

    def test_rewriting_a_longer_file_leaves_the_bytes_of_a_fresh_write(
            self, tmp_path):
        # every writer writes over the bytes of a longer file of an earlier
        # run and cuts it where it stops, in place
        used, fresh = tmp_path / "used", tmp_path / "fresh"
        used.mkdir(), fresh.mkdir()
        self._write_all(used, rows=5000, frames=4, n=300)
        inodes = {p.name: p.stat().st_ino for p in used.iterdir()}
        self._write_all(used, rows=10, frames=2, n=5)
        self._write_all(fresh, rows=10, frames=2, n=5)
        written = sorted(p.name for p in fresh.iterdir())
        assert len(written) == 10
        for name in written:
            assert (used / name).read_bytes() == (fresh / name).read_bytes(), name
            assert (used / name).stat().st_ino == inodes[name], name

    def test_new_files_get_the_mode_of_open_wb(self, tmp_path):
        with open(tmp_path / "reference", "wb"):
            pass
        path = write_json(tmp_path / "r.json", [1], meta={"config": {}})
        for written in (path, tmp_path / "r.meta.json"):
            assert written.stat().st_mode == (tmp_path / "reference").stat().st_mode

    @pytest.mark.skipif(os.name != "posix", reason="needs /dev/null")
    def test_a_device_is_written_as_open_wb_writes_it(self, tmp_path):
        # ftruncate fails on a device, which holds nothing to cut
        (tmp_path / "r.json").symlink_to("/dev/null")
        write_json(tmp_path / "r.json", {"a": 1})
        assert (tmp_path / "r.json").is_symlink()

    def test_a_failed_frame_leaves_the_blocks_written_before_it(self, tmp_path):
        count, bad = 2 * BLOCK_FRAMES, BLOCK_FRAMES + 2  # inside the second block
        times, x = np.arange(float(count)), np.linspace(0.0, 1.0, BLOCK_N)
        frames = [np.full(BLOCK_N, 1.0 + k) for k in range(count)]
        path = tmp_path / "f.csv"
        write_frames_csv(path, times, x, frames)  # longer than what is left
        frames[bad] = np.ones(BLOCK_N + 1)
        with pytest.raises(TypeError, match=f"frame {bad} has shape"):
            write_frames_csv(path, times, x, frames)
        first = write_frames_csv(tmp_path / "e.csv", times[:BLOCK_FRAMES], x,
                                 frames[:BLOCK_FRAMES])
        assert path.read_bytes() == first.read_bytes()

    @pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="needs RLIMIT_FSIZE")
    def test_a_failed_flush_cuts_a_longer_file_where_the_kernel_stopped(
            self, tmp_path):
        # the file size limit makes the kernel write the first `limit` bytes
        # and then fail with EFBIG, in the flush that precedes the cut
        import resource

        path = write_json(tmp_path / "r.json", list(range(5000)))
        text = json.dumps(list(range(300)), indent=2).encode()
        limit = 1000
        assert limit < len(text) < 4096  # one buffered write, flushed on exit
        soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
        handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, hard))
        try:
            with pytest.raises(OSError) as raised:
                write_json(path, list(range(300)))
        finally:
            resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
            signal.signal(signal.SIGXFSZ, handler)
        assert raised.value.errno == errno.EFBIG
        assert raised.value.filename == str(path)
        assert path.read_bytes() == text[:limit]


def assert_formats_as_percent(values):
    """_format_g17 gives the bytes of "%.17g" % x, NUL-padded to 24."""
    values = np.asarray(values, dtype=float)
    rows = output._format_g17(values)
    assert rows.shape == (values.size, 24) and rows.dtype == np.uint8
    expected = [("%.17g" % x).encode().ljust(24, b"\0") for x in values.tolist()]
    assert [row.tobytes() for row in rows] == expected


class TestFormatG17:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=64))
    @example([0.0, -0.0, 5e-324, -5e-324, float("nan"), float("inf"),
              float("-inf"), 1.7976931348623157e308])
    def test_floats(self, values):
        assert_formats_as_percent(values)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(1e-4, 1e14) | st.floats(-1e14, -1e-4),
                    min_size=1, max_size=64))
    def test_positional_range(self, values):
        assert_formats_as_percent(values)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    def test_bit_patterns(self, bits):
        assert_formats_as_percent(np.array(bits, dtype=np.uint64).view(float))

    def test_random_bit_patterns_in_bulk(self):
        rng = np.random.default_rng(9)
        assert_formats_as_percent(
            rng.integers(0, 2**64, size=50_000, dtype=np.uint64).view(float))

    def test_positional_values_in_bulk(self):
        # 200k values with 1e-4 <= |x| < 1e14, where the digits come from the
        # two-product: log-uniform magnitudes, binary fractions k 2^-j (among
        # them halfway cases), and the neighbours of each power of ten
        rng = np.random.default_rng(16)
        magnitudes = 10.0 ** rng.uniform(-4.0, 14.0, 150_000)
        powers = np.array([float(f"1e{e}") for e in range(-4, 14)])
        up = np.nextafter(powers, np.inf)
        down = np.nextafter(powers, 0.0)
        neighbours = np.concatenate([powers, up, np.nextafter(up, np.inf), down,
                                     np.nextafter(down, 0.0)])
        neighbours = neighbours[neighbours >= 1e-4]
        k = rng.integers(1, 2**53, 60_000).astype(float)
        fractions = np.ldexp(k, -rng.integers(0, 64, k.size))
        fractions = fractions[(fractions >= 1e-4) & (fractions < 1e14)]
        values = np.concatenate(
            [magnitudes, neighbours, fractions[: 50_000 - neighbours.size]])
        assert values.size == 200_000
        assert_formats_as_percent(values * rng.choice([-1.0, 1.0], values.size))

    def test_powers_of_ten_and_their_neighbours(self):
        # log10 can round to the wrong side of these, which moves E by one
        values = 10.0 ** np.arange(-5, 16)
        for _ in range(3):
            values = np.concatenate([np.nextafter(values, 0.0), values,
                                     np.nextafter(values, np.inf)])
        assert_formats_as_percent(np.concatenate([values, -values]))

    def test_edges_of_the_positional_range(self):
        edges = np.array([1e-4, 1e14])
        values = np.concatenate([edges, np.nextafter(edges, 0.0),
                                 np.nextafter(edges, np.inf)])
        assert_formats_as_percent(np.concatenate([values, -values]))

    def test_halfway_cases_round_to_even(self):
        # j 2^-(17-E) with odd j lies halfway between two 17-digit decimals
        assert "%.17g" % (211 / 2**21) == "0.00010061264038085938"
        assert "%.17g" % (12345678901234.5625) == "12345678901234.562"
        rng = np.random.default_rng(5)
        j = rng.integers(1, 2**20, size=20_000) * 2 + 1
        values = np.ldexp(j.astype(float), -rng.integers(0, 40, size=j.size))
        assert_formats_as_percent(np.concatenate(
            [[211 / 2**21, 12345678901234.5625], values, -values]))

    @pytest.mark.parametrize("n", [256, 512, 1000, 1024])
    def test_grid_values(self, n):
        dx = 80.0 / n
        assert_formats_as_percent(-40.0 + np.arange(4 * n) * dx)
        assert_formats_as_percent(np.linspace(-40.0, 40.0, n, endpoint=False))

    def test_empty(self):
        assert output._format_g17(np.array([])).shape == (0, 24)


class TestUsageAndExitCodes:
    def test_unknown_command_exits_64(self, capsys):
        assert main(["frobnicate"]) == 64
        assert "usage" in capsys.readouterr().err

    def test_no_arguments_exits_64(self, capsys):
        assert main([]) == 64

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "scan-existence" in capsys.readouterr().out

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_command_help_names_purpose_placeholders_and_keys(self, capsys,
                                                             command):
        assert main([command, "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        assert COMMANDS[command] in text
        # every flag line of the top-level usage: flag, placeholder, config key
        flag_lines = USAGE.split("flags, each with")[1].splitlines()[1:]
        rows = [line.split() for line in flag_lines if line.startswith("  --")]
        assert rows
        for row in rows:
            assert " ".join(row) in text, row
        assert "LAMBDA_SPEED" not in text

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


    @pytest.mark.parametrize("argv, code, message", [
        # v0**3 of a float raises OverflowError above about 5.6e102, and the
        # terms of S(v), of size v0^5, leave the floats outside [1e-60, 1e60]
        (["scan-existence", "--v0", "1e200"], 2, "error: background v0 must lie in"),
        (["reduce-check", "--v0", "1e200"], 2, "error: background v0 must lie in"),
        (["potential", "--v0", "5e102"], 2, "error: background v0 must lie in"),
        (["evolve", "--v0", "5e-324"], 2, "error: background v0 must lie in"),
        # at the turning point 1e-300 the closed form's ratio overflows and
        # the shooting ODE's v*v underflows to 0
        (["profile", "--lambda", "1e-300"], 3,
         "numerical failure: closed-form xi overflows at lambda=1e-300"),
        (["evolve", "--lambda", "1e-300", "--n", "64"], 3,
         "numerical failure: closed-form xi overflows at lambda=1e-300"),
        (["reduce-check", "--xmax", "1e200"], 2, "error: grid spacing dx"),
        (["reduce-check", "--lambda-spec", "1e308"], 3,
         "numerical failure: the reduction check overflows"),
        (["evolve", "--n", "64", "--t-final", "0.1", "--cfl", "5e-324"], 2,
         "error: dt = cfl*dx^3/max(v)^3 = 9.88e-324 is below the float"),
        (["evolve", "--n", "64", "--t-final", "1e-300"], 2,
         "error: frames span too short a time"),
        # a closed form that still holds, where shooting's v^2 would underflow
        (["profile", "--lambda", "1e-200"], 3,
         "numerical failure: turning point v_turn = 1e-200 is too deep to shoot"),
        # admissible, but a depression of 1e-12 is too shallow to measure or
        # to track: a numerical limit, not invalid input
        (["profile", "--lambda", "0.999999999999"], 3,
         "numerical failure: profile is flat: no measurable depression"),
        (["evolve", "--lambda", "0.999999999999", "--n", "2048", "--t-final", "0.5"], 3,
         "numerical failure: frame is flat: no localized structure to track"),
    ])
    def test_extreme_values_exit_with_one_line(self, tmp_path, capfd, argv, code,
                                               message):
        assert main(argv + ["--output-dir", str(tmp_path)]) == code
        out, err = capfd.readouterr()
        assert out == ""
        assert err.startswith(message) and err.count("\n") == 1, err

    @pytest.mark.parametrize("bounds, message", [
        (["--lambda-max", "inf"], "error: --lambda-max (scan.lambda_max) must be finite"),
        (["--lambda-min", "nan"], "error: --lambda-min (scan.lambda_min) must be finite"),
        (["--lambda-min=-1e308", "--lambda-max", "1e308"],
         "error: --lambda-max minus --lambda-min overflows"),
    ])
    def test_scan_bounds_that_are_not_finite_exit_2(self, tmp_path, capfd, bounds,
                                                      message):
        # np.linspace used to warn on stderr, then fail on the NaN lambdas
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["scan-existence", *bounds, "--output-dir", str(tmp_path)]) == 2
        out, err = capfd.readouterr()
        assert out == ""
        assert err.startswith(message) and err.count("\n") == 1, err

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("steps", [-1, 0])
    def test_scan_steps_below_one_exit_2(self, tmp_path, capfd, source, steps):
        # -1 used to fail in np.linspace with a message that names no flag,
        # 0 to succeed with a header-only table
        argv = ["scan-existence", "--output-dir", str(tmp_path)]
        if source == "flag":
            argv += ["--steps", str(steps)]
        else:
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps({"scan": {"steps": steps}}))
            argv += ["--config", str(cfg)]
        assert main(argv) == 2
        out, err = capfd.readouterr()
        assert out == ""
        assert err == f"error: --steps (scan.steps) must be at least 1, got {steps}\n"
        assert not (tmp_path / "existence.csv").exists()

    def test_output_directory_that_is_a_file_exits_2(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        for output in (tmp_path / "file", tmp_path / "file" / "sub"):
            assert main(["scan-existence", "--output-dir", str(output)]) == 2
            assert "error: cannot create output directory" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, name", [
        (["potential", "--lambda", "0.5"], "phase.csv"),
        (["evolve", "--n", "64", "--t-final", "0.05", "--output-stride", "2",
          "--per-frame"], "frame_00001.meta.json"),
        (["verify-lax", "--n", "512"], "lax_report.json"),
    ])
    def test_output_file_that_cannot_be_written_exits_2(self, tmp_path, capfd,
                                                        argv, name):
        (tmp_path / name).mkdir()
        assert main(argv + ["--output-dir", str(tmp_path)]) == 2
        out, err = capfd.readouterr()
        assert out == ""
        assert err == (f"error: cannot write {tmp_path / name}: "
                       f"{os.strerror(errno.EISDIR)}\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_disk_exits_2(self, tmp_path, capfd):
        # every write to /dev/full fails with ENOSPC
        (tmp_path / "reduce_report.json").symlink_to("/dev/full")
        assert main(["reduce-check", "--n", "64", "--output-dir", str(tmp_path)]) == 2
        out, err = capfd.readouterr()
        assert out == ""
        assert err == (f"error: cannot write {tmp_path / 'reduce_report.json'}: "
                       f"{os.strerror(errno.ENOSPC)}\n")

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

    @pytest.mark.parametrize("command, document, message", [
        ("profile", {"params": 3}, "config section params must be an object, got 3"),
        ("scan-existence", {"grid": [1, 2]},
         "config section grid must be an object, got [1, 2]"),
    ], ids=["params", "grid"])
    def test_non_object_config_section_exits_2(self, tmp_path, capsys, command,
                                               document, message):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(document))
        code = main([command, "--config", str(cfg), "--output-dir", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.glob("*.csv"))

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

    def test_integer_for_a_float_key_reads_as_its_flag(self, tmp_path, capsys):
        # the same output bytes as the flag; an integer no float holds is
        # invalid
        cfg = tmp_path / "run.json"
        cfg.write_text('{"params": {"v0": 1}}')
        outputs = []
        for extra in (["--config", str(cfg)], ["--v0", "1"]):
            assert main(["potential", *extra, "--output-dir", str(tmp_path)]) == 0
            outputs.append((capsys.readouterr().out,
                            (tmp_path / "potential.meta.json").read_bytes()))
        assert outputs[0] == outputs[1]
        cfg.write_text('{"params": {"v0": 1' + 400 * "0" + '}}')
        assert main(["potential", "--config", str(cfg),
                     "--output-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "error: config value params.v0 lies outside the float range\n")

    @pytest.mark.parametrize("floor", ["NaN", "Infinity", "-Infinity"])
    def test_floor_that_is_not_finite_exits_2(self, tmp_path, capsys, floor):
        # a NaN floor would never trigger, an infinite one at the first step
        cfg = tmp_path / "run.json"
        cfg.write_text(f'{{"evolve": {{"positivity_floor": {floor}}}}}')
        code = main(["evolve", "--lambda", "0.5", "--n", "128", "--t-final", "0.01",
                     "--config", str(cfg), "--output-dir", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: positivity_floor must be positive and finite\n")
        assert not (tmp_path / "trajectory.csv").exists()

    @pytest.mark.parametrize("argv, code, stream, text", [
        (["profile", "--n", "abc"], 2, "err", "invalid int value: 'abc'"),
        (["profile", "--bogus", "1"], 2, "err", "unrecognized arguments: --bogus 1"),
        (["profile", "--help"], 0, "out", "usage: fhdlab profile"),
    ], ids=["bad-type", "unknown-flag", "help"])
    def test_argparse_exit_codes_are_returned(self, capsys, argv, code, stream,
                                              text):
        assert main(argv) == code
        assert text in getattr(capsys.readouterr(), stream)


def _run_fresh(script, cwd):
    """Run ``script`` in a new interpreter that imports this fhdlab."""
    src = Path(fhdlab.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


_COLD_START = """
import sys
import fhdlab.cli

def scipy_modules():
    return sorted(name for name in sys.modules if name.startswith("scipy"))

assert not scipy_modules(), scipy_modules()[:5]
for argv, code in {cases!r}:
    assert fhdlab.cli.main(argv + ["--output-dir", "out"]) == code, argv
    assert not scipy_modules(), (argv, scipy_modules()[:5])
"""


class TestColdStart:
    def test_commands_that_need_no_scipy_do_not_load_it(self, tmp_path):
        # no command needs SciPy: shooting runs the in-house DOP853
        cases = [
            (["scan-existence"], 0),
            (["potential", "--lambda", "0.5"], 0),
            (["reduce-check", "--lambda", "0.5"], 0),
            (["profile", "--lambda", "0.5"], 0),
            (["evolve", "--lambda", "0.5", "--n", "128", "--t-final", "0.05"], 0),
            (["verify-lax", "--lambda", "0.5", "--n", "512"], 0),
            (["profile", "--lambda", "2"], 2),
            (["nosuch"], 64),
        ]
        done = _run_fresh(_COLD_START.format(cases=cases), tmp_path)
        assert done.returncode == 0, done.stderr

    def test_quadrature_profile_does_not_load_it(self, tmp_path):
        script = """
import sys
import numpy as np
from fhdlab.core import SolitonParams
from fhdlab.profiles import solve_quadrature

v = solve_quadrature(SolitonParams(0.5, 1.0))(np.linspace(-40.0, 40.0, 801))
assert v.min() == 0.5
assert not [name for name in sys.modules if name.startswith("scipy")]
"""
        done = _run_fresh(script, tmp_path)
        assert done.returncode == 0, done.stderr


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

    def test_shooting_record_reports_solver_diagnostics(self, tmp_path, capsys):
        code, summary = run_cli(
            ["profile", "--lambda", "0.5", "--output-dir", str(tmp_path)], capsys
        )
        assert code == 0
        quad, shoot = json.loads((tmp_path / "metrics.json").read_text())
        common = {"lambda", "v0", "depth", "fwhm", "method"}
        assert set(quad) == common
        assert set(shoot) == common | {"accepted_steps", "rejected_steps",
                                       "xi_switch", "first_integral_residual"}
        sol = solve_shooting(SolitonParams(0.5, 1.0), xi_max=40.0)
        assert shoot["accepted_steps"] == sol.steps_xi.size - 1 > 0
        assert shoot["rejected_steps"] == sol.rejected_steps
        assert shoot["xi_switch"] == sol.xi_switch
        assert 0.0 < shoot["first_integral_residual"] < 1e-9
        assert set(summary) == {"command", "status", "output_dir", "min_v",
                                "depth", "fwhm_quadrature", "fwhm_shooting"}

    def test_unbracketed_half_depth_exits_3(self, tmp_path, capsys, monkeypatch):
        # a shooting orbit that misses its tail switch inside the window
        # would not rise back through the half-depth level there: the
        # shooting itself is a numerical failure. A switch 1e-12 depths below
        # v0 lies about 29 decay lengths out, beyond the default window's 22
        monkeypatch.setattr(profiles, "TAIL_SWITCH_REL", 1e-12)
        code = main(["profile", "--lambda", "0.9999", "--output-dir", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: profile shooting reached "
                              "xi = 2201 before the tail switch")
        assert "Traceback" not in err

    def test_widths_agree_near_the_edge(self, tmp_path, capsys):
        # shooting in v once sank 4.46 depths below the turning point between
        # its steps here, and gave a width of 187901
        code, summary = run_cli(
            ["profile", "--lambda", "0.999999999", "--output-dir", str(tmp_path)], capsys
        )
        assert code == 0
        assert summary["fwhm_quadrature"] == pytest.approx(111485.92, rel=1e-6)
        assert summary["fwhm_shooting"] == pytest.approx(summary["fwhm_quadrature"],
                                                         rel=1e-5)

    def test_shooting_below_the_turning_point_exits_3(self, tmp_path, capsys,
                                                       monkeypatch):
        # the dense output, sunk by a quarter of the depth everywhere
        flank = profiles.ShootingSolution._flank

        def sunk(sol, w):
            return flank(sol, w) - 0.25 * (sol.params.v0 - sol.v_turn)

        monkeypatch.setattr(profiles.ShootingSolution, "_flank", sunk)
        code = main(["profile", "--lambda", "0.5", "--output-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == ("numerical failure: profile shooting dips 0.25 depths "
                                "below the turning point between its steps\n")

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

    def test_evolve_gives_identical_bytes(self, tmp_path, capsys):
        # the RK4 slope combination is a matmul, which may run through BLAS;
        # one output directory, since the files record the config that names it
        args = ["evolve", "--n", "256", "--t-final", "0.2", "--cfl", "0.4",
                "--output-stride", "3", "--output-dir", str(tmp_path)]
        runs = []
        for _ in range(2):
            assert main(args) == 0
            runs.append((capsys.readouterr().out,
                         (tmp_path / "trajectory.csv").read_bytes(),
                         (tmp_path / "summary.json").read_bytes()))
        assert runs[0] == runs[1]
        assert runs[0][0].count("\n") == 1

    def test_every_command_twice_in_one_process(self, tmp_path, capsys):
        # the pattern of an in-process sweep: the second round of commands,
        # into the same directory, must print and write what the first did
        def snapshot():
            lines = []
            for argv in _EVERY_COMMAND:
                assert main(argv + ["--output-dir", str(tmp_path)]) == 0, argv
                lines.append(capsys.readouterr().out)
            files = {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}
            return lines, files

        first = snapshot()
        assert [line.count("\n") for line in first[0]] == [1] * len(COMMANDS)
        assert len(first[1]) == 20
        assert snapshot() == first


# one cheap successful run of each command
_EVERY_COMMAND = [
    ["scan-existence", "--steps", "11"],
    ["potential", "--lambda", "0.5"],
    ["profile", "--lambda", "0.5"],
    ["evolve", "--n", "128", "--t-final", "0.1", "--cfl", "0.4",
     "--output-stride", "5"],
    ["verify-lax", "--n", "512"],
    ["reduce-check", "--n", "256"],
]


class TestInProcessReuse:
    """``main`` keeps one parser per command for the process; nothing a
    call parses may reach the next call."""

    def test_parser_is_built_once_per_command(self):
        parsers = {command: build_parser(command) for command in COMMANDS}
        for command, parser in parsers.items():
            assert build_parser(command) is parser
            assert parser.prog == f"fhdlab {command}"

    def test_flags_of_one_call_do_not_reach_the_next(self, tmp_path, capsys,
                                                     monkeypatch):
        # every flag set, then the same command with no flag at all (the
        # output directory comes from the environment)
        every_flag = [
            "--lambda", "0.3", "--v0", "1.2", "--lambda-spec", "2", "--xmin", "-30",
            "--xmax", "30", "--n", "64", "--t-final", "1", "--cfl", "0.2",
            "--output-stride", "7", "--lambda-min", "0.1", "--lambda-max", "1",
            "--steps", "5", "--per-frame", "--emit-plots",
        ]
        flags = {arg for arg in every_flag if arg.startswith("--")} | {"--output-dir"}
        assert flags == {flag for _, flag in _OPTIONS.values() if flag}
        assert main(["scan-existence", *every_flag,
                     "--output-dir", str(tmp_path / "set")]) == 0
        monkeypatch.setenv("FHD_OUTPUT_DIR", str(tmp_path / "bare"))
        assert main(["scan-existence"]) == 0
        capsys.readouterr()
        meta = json.loads((tmp_path / "bare" / "existence.meta.json").read_text())
        # the defaults, resolved from a namespace that no parser produced
        bare = argparse.Namespace(config=None, **dict.fromkeys(_OPTIONS))
        bare.output_dir = str(tmp_path / "bare")
        expected = resolve_config("scan-existence", bare)
        assert meta == {"config": dataclasses.asdict(expected)}
        assert len(read_csv(tmp_path / "bare" / "existence.csv")["lambda"]) == 41

    def test_usage_error_leaves_the_next_call_unchanged(self, tmp_path, capsys):
        argv = ["profile", "--lambda", "0.5", "--output-dir", str(tmp_path)]

        def run():
            assert main(argv) == 0
            files = {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}
            return capsys.readouterr().out, files

        before = run()
        assert main(["profile", "--lambda", "0.7", "--n", "abc"]) == 2
        assert "invalid int value: 'abc'" in capsys.readouterr().err
        assert run() == before

    def test_help_is_unchanged_by_other_commands(self, tmp_path, capsys):
        def helps():
            texts = {}
            for command in COMMANDS:
                assert main([command, "--help"]) == 0
                texts[command] = capsys.readouterr().out
            return texts

        before = helps()
        for argv in _EVERY_COMMAND:
            assert main(argv + ["--output-dir", str(tmp_path)]) == 0, argv
        assert main(["profile", "--bogus", "1"]) == 2
        capsys.readouterr()
        assert helps() == before
        for command, text in before.items():
            # a parser built afresh, outside the cache, prints the same help
            assert build_parser.__wrapped__(command).format_help() == text


def test_meta_sidecar_matches_asdict_oracle(tmp_path):
    # the side-car of a config whose every field is off its default, but for
    # tail_cut, which holds the None; RunConfig.meta copies fields shallowly
    config = RunConfig(
        command="evolve", lambda_speed=1.0 / 3.0, v0=1.25, lambda_spec=-0.0,
        x_min=-30.5, x_max=1e300, n=4097, t_final=5e-324, cfl_constant=0.4,
        output_stride=3, positivity_floor=1e-3, lambda_min=-1.5, lambda_max=2.5,
        steps=7, n_points=801, tail_cut=None, lax_frames=5, lax_frame_dt=0.125,
        per_frame=True, output_dir='runs/λ 0.5/"quoted"', emit_plots=True,
    )
    assert [f.name for f in dataclasses.fields(RunConfig)
            if getattr(config, f.name) == f.default] == ["tail_cut"]
    write_json(tmp_path / "r.json", {}, meta=config.meta())
    oracle = json.dumps({"config": dataclasses.asdict(config)}, sort_keys=True,
                        indent=2) + "\n"
    assert (tmp_path / "r.meta.json").read_bytes() == oracle.encode()
    config.meta()["config"]["n"] = 8
    assert config.n == 4097


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

    def test_coarse_grid_keeps_the_step_stable(self, tmp_path, capsys):
        # n=32 on [-40, 40]: a dt set by the dispersive term alone left the
        # advective part of the stencil outside RK4's stable interval, and
        # the 1/v integral drifted by 1.2e-2; the spectral-radius cap holds
        # it to about 6.5e-4
        code, summary = run_cli(
            ["evolve", "--lambda", "0.5", "--n", "32", "--cfl", "0.4",
             "--t-final", "40", "--output-dir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        assert summary["conservation_drift"] <= 1e-3

    def test_seed_near_the_edge_moves_at_lambda(self, tmp_path, capsys):
        # seeded from shooting, this run once reported "ok" with a speed of
        # 4230, then exited 3 when the orbit missed its tail switch; the
        # closed form is exact at every lambda
        code, summary = run_cli(
            ["evolve", "--lambda", "0.9999", "--n", "2048", "--t-final", "0.5",
             "--output-dir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        assert abs(summary["speed_measured"] - 0.9999) <= 1e-3

    def test_trajectory_files_match_write_csv(self, tmp_path, capsys):
        # oracle: the same run through the library, written value by value
        # with "%.17g"; write_csv must give the same bytes
        argv = ["evolve", "--lambda", "0.5", "--v0", "1.0", "--n", "256",
                "--xmin", "-40", "--xmax", "40", "--t-final", "0.2",
                "--cfl", "0.4", "--output-stride", "10"]
        assert main(argv + ["--output-dir", str(tmp_path / "long")]) == 0
        assert main(argv + ["--per-frame", "--output-dir", str(tmp_path / "each")]) == 0
        capsys.readouterr()
        grid = make_grid(-40.0, 40.0, 256)
        initial = closed_form_field(SolitonParams(0.5, 1.0), grid)
        trajectory = evolve(initial, EvolveConfig(
            t_final=0.2, cfl_constant=0.4, output_stride=10))
        header = ["t", "x", "v"]
        frames = sorted((tmp_path / "each").glob("frame_*.csv"))
        assert len(frames) == len(trajectory.times) >= 3
        for path, t, row in zip(frames, trajectory.times, trajectory.values):
            assert path.read_bytes() == percent_csv(
                header, [np.full(grid.n, t), grid.x, row])
        columns = [
            np.repeat(trajectory.times, grid.n),
            np.tile(grid.x, len(trajectory.times)),
            trajectory.values.ravel(),
        ]
        oracle = percent_csv(header, columns)
        assert (tmp_path / "long" / "trajectory.csv").read_bytes() == oracle
        assert write_csv(tmp_path / "w.csv", header, columns).read_bytes() == oracle
        # each frame file is the header plus that frame's rows of the long file
        header, *rows = oracle.splitlines(keepends=True)
        for k, path in enumerate(frames):
            assert path.read_bytes() == header + b"".join(
                rows[k * grid.n : (k + 1) * grid.n])


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

    def test_large_spectral_parameter_passes(self, tmp_path, capsys):
        # the off-shell entries cancel terms of size 4*lam^2/v ~ 8e6 here;
        # their round-off (about 2e-9) is inside the scaled bound
        code, summary = run_cli(
            ["verify-lax", "--lambda", "0.5", "--lambda-spec", "1000", "--n", "512",
             "--output-dir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        assert summary["pass"] is True
        report = json.loads((tmp_path / "lax_report.json").read_text())
        assert report["pass"] is True
        assert summary["max_off_entry"] < report["off_shell_tol"]

    @pytest.mark.parametrize("lambda_spec", ["nan", "inf", "0"])
    def test_undefined_spectral_parameter_exits_2(self, tmp_path, capsys,
                                                  lambda_spec):
        # as in reduce-check: a validation error, and no report
        code = main(["verify-lax", "--lambda", "0.5", "--lambda-spec", lambda_spec,
                     "--n", "512", "--output-dir", str(tmp_path)])
        assert code == 2
        assert "lambda_spec must be finite and nonzero" in capsys.readouterr().err
        assert not (tmp_path / "lax_report.json").exists()

    @pytest.mark.parametrize("lambda_spec", ["1e155", "1e200"])
    def test_overflowing_spectral_parameter_exits_3(self, tmp_path, capsys,
                                                    lambda_spec):
        # lambda_spec**2 overflows a float: a numerical failure, not a crash
        code = main(["verify-lax", "--lambda", "0.5", "--lambda-spec", lambda_spec,
                     "--n", "512", "--output-dir", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: 4 lambda_spec^2/v overflows")

    def test_overflowing_residual_is_a_failed_check(self, tmp_path, capsys):
        # 4*lam^2/v is a float here but its derivative overflows: the check
        # fails, and its report and summary hold null, never NaN
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["verify-lax", "--lambda", "0.5", "--lambda-spec", "3e153",
                         "--n", "512", "--output-dir", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        summary = json.loads(err[err.index("{"):], parse_constant=_reject_constant)
        assert summary["pass"] is False
        assert summary["entry_norm_21"] is None
        report = json.loads((tmp_path / "lax_report.json").read_text(),
                            parse_constant=_reject_constant)
        assert report["entry_norms"][2] is None

    def test_overflowing_residual_prints_one_line(self, tmp_path):
        # the overflow inside the patch evaluation is reported by the check,
        # not by NumPy warnings on stderr
        script = """
import sys
from fhdlab.cli import main
sys.exit(main(["verify-lax", "--lambda", "0.5", "--lambda-spec", "3e153",
               "--n", "512", "--output-dir", "out"]))
"""
        done = _run_fresh(script, tmp_path)
        assert done.returncode == 3
        assert done.stdout == ""
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(
            "numerical failure: verify-lax check failed"), done.stderr

    @pytest.mark.parametrize("frame_dt, code", [
        ("5e-324", 3), ("1e308", 2), ("Infinity", 2), ("NaN", 2), ("0", 2),
        ("-1", 2), ("-9223372036854775809", 2),
    ])
    def test_frame_spacing_at_its_edges(self, tmp_path, capsys, frame_dt, code):
        # a spacing whose square underflows fails the check; one that is not
        # positive, or whose last frame's shift lambda*t overflows, is
        # invalid; neither prints a NumPy warning
        cfg = tmp_path / "run.json"
        cfg.write_text(f'{{"lax": {{"frame_dt": {frame_dt}}}}}')
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["verify-lax", "--n", "512", "--config", str(cfg),
                         "--output-dir", str(tmp_path)]) == code
        assert not caught, [str(w.message) for w in caught]
        if code == 2:
            assert capsys.readouterr().err.startswith(
                "error: lax.frame_dt must be positive")

    @pytest.mark.parametrize("frames", [10**12, MAX_VALUES // 64 + 1])
    def test_frame_count_is_bounded_before_allocating(self, tmp_path, capsys, frames):
        # 10^12 frames once died in np.arange with a MemoryError traceback
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"lax": {"frames": frames}}))
        assert main(["verify-lax", "--n", "64", "--config", str(cfg),
                     "--output-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: lax.frames times n may be at most {MAX_VALUES}, "
                       f"got {frames} x 64\n")

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

    @pytest.mark.parametrize("v0", ["1e-3", "1e6"])
    def test_control_fails_at_every_background_level(self, tmp_path, capsys, v0):
        # v0 = 1 is the test above
        code, summary = run_cli(
            ["reduce-check", "--v0", v0, "--n", "256", "--output-dir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        assert summary["pass"] is True
        assert summary["control_pass"] is False

    def test_zero_spectral_parameter_exits_2(self, tmp_path, capsys):
        code = main(["reduce-check", "--lambda-spec", "0", "--n", "64",
                     "--output-dir", str(tmp_path)])
        assert code == 2
        assert "lambda_spec must be finite and nonzero" in capsys.readouterr().err
        assert not (tmp_path / "reduce_report.json").exists()


_HUGE = 10**12


@pytest.mark.parametrize("argv, config, err", [
    (["scan-existence", "--steps", str(_HUGE)], None,
     f"--steps (scan.steps) may be at most {MAX_VALUES}, got {_HUGE}"),
    (["evolve", "--n", str(_HUGE), "--t-final", "0.1"], None,
     f"need at most {MAX_VALUES} nodes, got {_HUGE}"),
    (["profile", "--n", str(_HUGE)], None,
     f"need at most {MAX_VALUES} nodes, got {_HUGE}"),
    (["reduce-check", "--n", str(_HUGE)], None,
     f"need at most {MAX_VALUES} nodes, got {_HUGE}"),
    (["profile"], {"profile": {"n_points": _HUGE}},
     f"need at most {MAX_VALUES} quadrature nodes, got {_HUGE}"),
], ids=["scan.steps", "evolve-n", "profile-n", "reduce-check-n", "profile.n_points"])
def test_counts_are_bounded_before_allocating(tmp_path, capfd, argv, config, err):
    # each of these once died in NumPy with a MemoryError traceback
    if config is not None:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        argv = argv + ["--config", str(cfg)]
    assert main(argv + ["--output-dir", str(tmp_path / "out")]) == 2
    out, got = capfd.readouterr()
    assert out == ""
    assert got == f"error: {err}\n"
    assert not (tmp_path / "out").exists()


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


# values a flag is fuzzed with, per kind: the edges of the float range, values
# on either side of each option's domain, non-finite values, and text that
# is no number. Integers stop at 64 (512 outside evolve), besides 10^12,
# which every count rejects before it allocates, and evolve runs to
# t_final <= 0.1, so that every run stays small.
_FUZZ_FLOATS = ["0", "-0", "-1", "5e-324", "1e-300", "1e-12", "0.1", "0.5", "1",
                "2", "1e12", "5e102", "1e200", "1.7976931348623157e308", "-1e308",
                "nan", "inf", "-inf"]
_FUZZ_INTS = ["-9223372036854775809", "-1", "0", "1", "7", "8", "9", "63", "64",
              "1000000000000"]
_FUZZ_TEXT = ["", "abc", "1e", "0x1p3", "1,5", "--"]
_FUZZ_FLAGS = {flag: field for field, (_, flag) in _OPTIONS.items()
               if flag is not None and flag != "--output-dir"}


@st.composite
def _fuzzed_argv(draw, commands=tuple(sorted(COMMANDS)), max_optional=4):
    """One of ``commands`` and up to ``max_optional`` flags with fuzzed
    values, besides the ones that bound the run's size."""
    command = draw(st.sampled_from(commands))
    # the defaults n = 2048 and t_final = 5 make runs of seconds
    required = {"evolve": ["--n", "--t-final"], "verify-lax": ["--n"]}
    optional = sorted(set(_FUZZ_FLAGS) - set(required.get(command, [])))
    flags = required.get(command, []) + draw(
        st.lists(st.sampled_from(optional), max_size=max_optional, unique=True))
    argv = [command]
    for flag in flags:
        kind = _kind(_FUZZ_FLAGS[flag])[0]
        if kind == "true or false":
            argv.append(flag)
            continue
        if kind == "a number":
            values = _FUZZ_FLOATS
            if command == "evolve" and flag == "--t-final":
                values = [x for x in values if not float(x) > 0.1]
            if command == "evolve" and flag == "--cfl":
                values = [x for x in values if x != "1e-12"]  # 1e11 steps
        else:
            values = _FUZZ_INTS
            if command != "evolve" and flag in ("--n", "--steps"):
                values = values + ["512"]
        text = draw(st.integers(0, 7)) == 0
        argv += [flag, draw(st.sampled_from(_FUZZ_TEXT if text else values))]
    return argv


class TestExitCodeProperty:
    @settings(max_examples=600, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=_fuzzed_argv(),
           output=st.sampled_from(["out", "", "file", "file/sub"]))
    def test_every_command_exits_with_a_contract_code(self, tmp_path_factory,
                                                      capfd, argv, output):
        # 0 ok, 2 validation, 3 numerical, 64 unknown command, whatever each
        # flag holds; never a traceback, and stdout holds the one summary
        # line of a success or nothing. An output directory that is a file,
        # or lies under one, is a validation error.
        cwd = tmp_path_factory.mktemp("fuzz")
        (cwd / "file").write_text("")
        old = os.getcwd()
        os.chdir(cwd)
        try:
            code = main(argv + ["--output-dir", output])
        finally:
            os.chdir(old)
        out, err = capfd.readouterr()
        assert code in (0, 2, 3, 64), (code, err)
        assert "Traceback" not in out + err
        if code == 0:
            assert json.loads(out, parse_constant=_reject_constant)["status"] == "ok"
        else:
            assert out == "", out


# the config-file keys that no flag sets, read by evolve, profile and
# verify-lax, and values for them: the flag fuzz's numbers (with NaN and
# Infinity, which JSON decoding accepts) and values of each other JSON type
_CONFIG_ONLY = [path for path, flag in _OPTIONS.values() if flag is None]
_FUZZ_JSON = ([float(x) for x in _FUZZ_FLOATS] + [int(x) for x in _FUZZ_INTS]
              + ["", "0.5", [], [1.0], {}, {"n": 1}, True, None])


class TestConfigFileProperty:
    @settings(max_examples=600, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=_fuzzed_argv(("evolve", "profile", "verify-lax"), max_optional=0),
           values=st.dictionaries(st.sampled_from(_CONFIG_ONLY),
                                  st.sampled_from(_FUZZ_JSON), min_size=1))
    @example(argv=["verify-lax", "--n", "64"], values={("lax", "frames"): 10**12})
    @example(argv=["profile"], values={("profile", "n_points"): 10**12})
    def test_config_only_keys_exit_with_a_contract_code(self, tmp_path_factory,
                                                        capfd, argv, values):
        # whatever the five config-only keys hold: 0 ok, 2 validation or
        # 3 numerical, and never a traceback or a warning
        work = tmp_path_factory.mktemp("fuzz")
        document = {}
        for (section, key), value in values.items():
            document.setdefault(section, {})[key] = value
        cfg = work / "run.json"
        cfg.write_text(json.dumps(document))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv + ["--config", str(cfg),
                                "--output-dir", str(work / "out")])
        out, err = capfd.readouterr()
        assert code in (0, 2, 3), (code, err)
        assert "Traceback" not in out + err
        assert not caught, [str(w.message) for w in caught]

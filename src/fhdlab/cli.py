"""Command-line front end for the soliton laboratory.

Workflows: existence scanning, pseudopotential and phase-portrait tables,
profile construction by both methods, PDE evolution, zero-curvature
verification and the flow-reduction check. Runs are configured by a JSON
document, by flags, or both (flags win). All pipelines are deterministic:
identical configurations produce bit-identical outputs.

Exit codes: 0 success, 2 validation error or an output file that cannot be
written, 3 numerical failure, 64 unknown command.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import MAX_VALUES, Field, NumericalError, SolitonParams, make_grid
from .evolution import (
    EvolveConfig,
    conservation_drift,
    evolve,
    measure_speed,
    shape_error,
)
from .lax import reduction_check, zc_residual
from .output import (
    _write_text,
    write_csv,
    write_frame_files,
    write_frames_csv,
    write_json,
)
from .profiles import (
    MIN_DECAY_LENGTHS,
    closed_form_field,
    decay_rate,
    profile_by_quadrature,
    profile_by_shooting,
    profile_metrics,
    translated_trajectory,
)
from .pseudopotential import (
    existence_check,
    phase_samples,
    potential_samples,
    require_admissible,
)

# command -> its one-line purpose, shown by ``fhdlab --help`` and by the
# command's own ``--help``
COMMANDS = {
    "scan-existence": "flag admissible wave speeds over a lambda range",
    "potential": "tabulate the pseudopotential and phase portrait",
    "profile": "construct the travelling-wave profile (both methods)",
    "evolve": "evolve a soliton with the full PDE and measure it",
    "verify-lax": "zero-curvature residuals on an exact travelling wave",
    "reduce-check": "algebraic reduction of the matrix flow to the PDE",
}


@dataclass
class RunConfig:
    """Fully resolved run configuration; one instance drives one workflow."""

    command: str
    lambda_speed: float = 0.5
    v0: float = 1.0
    lambda_spec: float = 1.0
    x_min: float | None = None
    x_max: float | None = None
    n: int = 2048
    t_final: float = 5.0
    cfl_constant: float = 0.1
    output_stride: int = 1000
    positivity_floor: float | None = None
    lambda_min: float = 0.0
    lambda_max: float = 2.0
    steps: int = 41
    n_points: int = 800
    tail_cut: float | None = None
    lax_frames: int = 17
    lax_frame_dt: float = 0.05
    per_frame: bool = False
    output_dir: str = "fhd_out"
    emit_plots: bool = False

    @property
    def params(self) -> SolitonParams:
        return SolitonParams(self.lambda_speed, self.v0)

    def meta(self) -> dict:
        # every field is a scalar or a string, so a shallow copy serializes
        # as dataclasses.asdict would, without its deep copy of each value
        return {"config": dict(vars(self))}


# RunConfig field -> (config-file key path, command-line flag or None);
# the flags, their types, USAGE, each command's help and the allowed config
# keys derive from it
_OPTIONS = {
    "lambda_speed": (("params", "lambda"), "--lambda"),
    "v0": (("params", "v0"), "--v0"),
    "lambda_spec": (("lambda_spec",), "--lambda-spec"),
    "x_min": (("grid", "x_min"), "--xmin"),
    "x_max": (("grid", "x_max"), "--xmax"),
    "n": (("grid", "n"), "--n"),
    "t_final": (("evolve", "t_final"), "--t-final"),
    "cfl_constant": (("evolve", "cfl_constant"), "--cfl"),
    "output_stride": (("evolve", "output_stride"), "--output-stride"),
    "positivity_floor": (("evolve", "positivity_floor"), None),
    "lambda_min": (("scan", "lambda_min"), "--lambda-min"),
    "lambda_max": (("scan", "lambda_max"), "--lambda-max"),
    "steps": (("scan", "steps"), "--steps"),
    "n_points": (("profile", "n_points"), None),
    "tail_cut": (("profile", "tail_cut"), None),
    "lax_frames": (("lax", "frames"), None),
    "lax_frame_dt": (("lax", "frame_dt"), None),
    "per_frame": (("per_frame",), "--per-frame"),
    "output_dir": (("output_dir",), "--output-dir"),
    "emit_plots": (("emit_plots",), "--emit-plots"),
}


# per RunConfig type: its name in errors, the JSON types a config file may
# give (JSON booleans decode to bool, which therefore counts as no number),
# the flag's argument type (None: a switch) and the flag's placeholder
_KINDS = {
    "float": ("a number", (int, float), float, " <f>"),
    "int": ("an integer", (int,), int, " <int>"),
    "bool": ("true or false", (bool,), None, ""),
    "str": ("a string", (str,), str, " <path>"),
}


def _kind(field: str) -> tuple:
    """The ``_KINDS`` entry of a RunConfig field's type, ``| None`` dropped."""
    return _KINDS[RunConfig.__annotations__[field].split(" |")[0]]


# config paths that hold sub-keys, and every key path a config file may
# hold (the command itself is always taken from the arguments)
_SECTIONS = {path[:i] for path, _ in _OPTIONS.values() for i in range(1, len(path))}
_CONFIG_KEYS = _SECTIONS | {path for path, _ in _OPTIONS.values()} | {("command",)}


_ENV_NOTE = "env FHD_OUTPUT_DIR is the fallback for --output-dir"


def _usage() -> str:
    commands = "".join(f"  {name:<17}{purpose}\n" for name, purpose in COMMANDS.items())
    flags = "".join(
        f"  {flag + _kind(field)[-1]:<22}{'.'.join(path)}\n"
        for field, (path, flag) in _OPTIONS.items()
        if flag is not None
    )
    return f"""usage: fhdlab <command> [flags]

commands:
{commands}
flags, each with its config-file key (flags override file values):
  --config <path>       JSON run configuration
{flags}  {_ENV_NOTE}
"""


USAGE = _usage()


def _check_keys(node: dict, prefix: tuple = ()) -> None:
    """Reject, by dotted name, a config key that no option reads or a
    section that is not an object, at any depth."""
    for key, value in node.items():
        path = prefix + (key,)
        if path not in _CONFIG_KEYS:
            raise ValueError(f"unknown config key {'.'.join(path)}")
        if path in _SECTIONS:
            if not isinstance(value, dict):
                raise ValueError(
                    f"config section {'.'.join(path)} must be an object, "
                    f"got {value!r}"
                )
            _check_keys(value, path)


def _lookup(document: dict, path: tuple) -> object:
    """The value at ``path`` (None if absent) of a document ``_check_keys`` passed."""
    for section in path[:-1]:
        document = document.get(section, {})
    return document.get(path[-1])


def _file_value(document: dict, field: str, path: tuple) -> object:
    """The config file's value for ``field`` (None if absent), type-checked."""
    value = _lookup(document, path)
    expected, types, _, _ = _kind(field)
    if value is not None and type(value) not in types:
        raise ValueError(
            f"config value {'.'.join(path)} must be {expected}, got {value!r}"
        )
    if type(value) is int and float in types:
        # a JSON integer for a float field: the float its flag would give
        try:
            value = float(value)
        except OverflowError:
            raise ValueError(f"config value {'.'.join(path)} lies outside "
                             "the float range") from None
    return value


@functools.cache
def build_parser(command: str) -> argparse.ArgumentParser:
    """The command's parser; its help shows each flag's config-file key.

    Built on first use and kept for the process, so that repeated calls of
    ``main`` reuse it: parsing leaves a parser unchanged.
    """
    parser = argparse.ArgumentParser(
        prog=f"fhdlab {command}",
        description=COMMANDS[command],
        epilog=f"Flags override config-file values; {_ENV_NOTE}.",
    )
    parser.add_argument("--config", type=Path, default=None, metavar="<path>",
                        help="JSON run configuration")
    for field, (path, flag) in _OPTIONS.items():
        if flag is None:
            continue
        _, _, parse, placeholder = _kind(field)
        key = ".".join(path)
        if parse is None:
            parser.add_argument(flag, dest=field, action="store_true", default=None,
                                help=key)
        else:
            parser.add_argument(flag, dest=field, type=parse, default=None,
                                metavar=placeholder.strip(), help=key)
    return parser


def resolve_config(command: str, args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config file and flags into one RunConfig."""
    document: dict = {}
    if args.config is not None:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ValueError(
                f"cannot read config file {args.config}: {exc.strerror or exc}"
            ) from exc
        try:
            document = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"config file {args.config} is not valid JSON: {exc.msg} "
                f"(line {exc.lineno} column {exc.colno})"
            ) from exc
        if not isinstance(document, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
        _check_keys(document)
    config = RunConfig(command=command)
    for field, (path, _) in _OPTIONS.items():
        file_value = _file_value(document, field, path)
        if file_value is not None:
            setattr(config, field, file_value)
        flag_value = getattr(args, field, None)
        if flag_value is not None:
            setattr(config, field, flag_value)
    if args.output_dir is None and _lookup(document, ("output_dir",)) is None:
        config.output_dir = os.environ.get("FHD_OUTPUT_DIR", config.output_dir)

    if config.x_min is None or config.x_max is None:
        half = 40.0
        try:
            kappa = decay_rate(config.params)
            half = max(half, math.ceil(1.1 * MIN_DECAY_LENGTHS / kappa))
        except ValueError:
            pass  # inadmissible params; the workflow's existence gate reports it
        config.x_min = -half if config.x_min is None else config.x_min
        config.x_max = half if config.x_max is None else config.x_max
    return config


def _out_dir(config: RunConfig) -> Path:
    out = Path(config.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot create output directory {out}: {exc.strerror}") from exc
    return out


def run_scan_existence(config: RunConfig) -> dict:
    # np.linspace warns and then yields NaN for a bound or span that is not finite
    for field in ("lambda_min", "lambda_max"):
        if not math.isfinite(getattr(config, field)):
            path, flag = _OPTIONS[field]
            raise ValueError(f"{flag} ({'.'.join(path)}) must be finite, "
                             f"got {getattr(config, field)}")
    if not math.isfinite(config.lambda_max - config.lambda_min):
        raise ValueError("--lambda-max minus --lambda-min overflows")
    path, flag = _OPTIONS["steps"]
    if config.steps < 1:
        raise ValueError(f"{flag} ({'.'.join(path)}) must be at least 1, "
                         f"got {config.steps}")
    if config.steps > MAX_VALUES:
        raise ValueError(f"{flag} ({'.'.join(path)}) may be at most {MAX_VALUES}, "
                         f"got {config.steps}")
    lambdas = np.linspace(config.lambda_min, config.lambda_max, config.steps)
    admissible = np.zeros(lambdas.size)
    curvature = np.zeros(lambdas.size)
    for i, lam in enumerate(lambdas):
        report = existence_check(SolitonParams(float(lam), config.v0))
        admissible[i] = 1.0 if report.admissible else 0.0
        curvature[i] = report.s_second_at_v0
    out = _out_dir(config)
    write_csv(
        out / "existence.csv",
        ["lambda", "admissible", "s_second_v0"],
        [lambdas, admissible, curvature],
        meta=config.meta(),
    )
    inside = lambdas[admissible == 1.0]
    return {
        "n_samples": int(lambdas.size),
        "n_admissible": int(admissible.sum()),
        "lambda_first_admissible": float(inside[0]) if inside.size else None,
        "lambda_last_admissible": float(inside[-1]) if inside.size else None,
    }


def run_potential(config: RunConfig) -> dict:
    require_admissible(config.params)
    params = config.params
    v_pot, s_pot = potential_samples(params, n=1000)
    v_orb, vp_plus, vp_minus = phase_samples(params, n=1000)
    out = _out_dir(config)
    write_csv(out / "potential.csv", ["v", "S"], [v_pot, s_pot], meta=config.meta())
    write_csv(
        out / "phase.csv",
        ["v", "vp_plus", "vp_minus"],
        [v_orb, vp_plus, vp_minus],
        meta=config.meta(),
    )
    if config.emit_plots:
        _write_text(out / "plot_potential.py", _POTENTIAL_PLOT)
    return {
        "v_turn": float(v_orb[0]),
        "s_min": float(s_pot.min()),
        "files": ["potential.csv", "phase.csv"],
    }


def run_profile(config: RunConfig) -> dict:
    require_admissible(config.params)
    params = config.params
    quad = profile_by_quadrature(
        params, n_points=config.n_points, tail_cut=config.tail_cut
    )
    grid = make_grid(config.x_min, config.x_max, config.n)
    shoot = profile_by_shooting(params, grid)
    mq = profile_metrics(quad)
    ms = profile_metrics(shoot)
    out = _out_dir(config)
    write_csv(out / "profile.csv", ["xi", "v"], [quad.xi, quad.v], meta=config.meta())
    write_csv(
        out / "profile_shooting.csv",
        ["xi", "v"],
        [shoot.xi, shoot.v],
        meta=config.meta(),
    )
    records = [
        {
            "lambda": config.lambda_speed,
            "v0": config.v0,
            "depth": m.depth,
            "fwhm": m.fwhm,
            "method": prof.method,
            **prof.diagnostics,
        }
        for m, prof in ((mq, quad), (ms, shoot))
    ]
    write_json(out / "metrics.json", records, meta=config.meta())
    if config.emit_plots:
        _write_text(out / "plot_profile.py", _PROFILE_PLOT)
    return {
        "min_v": float(quad.v.min()),
        "depth": mq.depth,
        "fwhm_quadrature": mq.fwhm,
        "fwhm_shooting": ms.fwhm,
    }


def run_evolve(config: RunConfig) -> dict:
    require_admissible(config.params)
    params = config.params
    grid = make_grid(config.x_min, config.x_max, config.n)
    initial = closed_form_field(params, grid)
    evolve_config = EvolveConfig(
        t_final=config.t_final,
        cfl_constant=config.cfl_constant,
        output_stride=config.output_stride,
        positivity_floor=config.positivity_floor,
    )
    trajectory = evolve(initial, evolve_config)

    out = _out_dir(config)
    if config.per_frame:
        write_frame_files(
            out, trajectory.times, grid.x, trajectory.values, meta=config.meta()
        )
    else:
        write_frames_csv(
            out / "trajectory.csv", trajectory.times, grid.x, trajectory.values,
            meta=config.meta(),
        )

    stride_dt = float(np.median(np.diff(trajectory.times)))
    summary = {
        "lambda": config.lambda_speed,
        "v0": config.v0,
        "n": config.n,
        "dt_mean": stride_dt / config.output_stride,
        "speed_measured": measure_speed(trajectory),
        "conservation_drift": conservation_drift(trajectory),
        "shape_error": shape_error(trajectory, config.v0),
    }
    write_json(out / "summary.json", summary, meta=config.meta())
    if config.emit_plots:
        _write_text(out / "plot_trajectory.py", _TRAJECTORY_PLOT)
    return summary


def run_verify_lax(config: RunConfig) -> dict:
    require_admissible(config.params)
    grid = make_grid(config.x_min, config.x_max, config.n)
    # the frames shift by lambda*t, which must stay finite
    last = config.lax_frame_dt * max(config.lax_frames - 1, 0)
    if not (config.lax_frame_dt > 0.0 and math.isfinite(config.lambda_speed * last)):
        raise ValueError(f"lax.frame_dt must be positive with lambda*t finite at "
                         f"the last frame, got {config.lax_frame_dt}")
    if config.lax_frames * config.n > MAX_VALUES:
        raise ValueError(f"lax.frames times n may be at most {MAX_VALUES}, got "
                         f"{config.lax_frames} x {config.n}")
    times = config.lax_frame_dt * np.arange(config.lax_frames)
    trajectory = translated_trajectory(config.params, grid, times)
    report = zc_residual(trajectory, config.lambda_spec)
    payload = report.to_dict()
    payload.update({"lambda": config.lambda_speed, "v0": config.v0})
    out = _out_dir(config)
    write_json(out / "lax_report.json", payload, meta=config.meta())
    e11, e12, e21, e22 = payload["entry_norms"]  # None where not finite
    return {
        "entry_norm_21": e21,
        "max_off_entry": None if None in (e11, e12, e22) else max(e11, e12, e22),
        "convergence_order": payload["convergence_order"],
        "pass": report.passed,
    }


def run_reduce_check(config: RunConfig) -> dict:
    v0 = config.params.v0
    grid = make_grid(config.x_min, config.x_max, config.n)
    k = 2.0 * np.pi / grid.length
    field = Field(
        grid, v0 * (1.0 + 0.3 * np.sin(k * grid.x) + 0.1 * np.cos(3 * k * grid.x))
    )
    report = reduction_check(field, config.lambda_spec)
    # the offset breaks the cancellation by about b_offset * v_x / v^3, so it
    # scales as v0^3 to fail at every background level
    control = reduction_check(field, config.lambda_spec, b_offset=v0**3)
    payload = {
        "lambda_spec": config.lambda_spec,
        "max_discrepancy": report.max_discrepancy,
        "pass": report.passed,
        "control_discrepancy": control.max_discrepancy,
        "control_pass": control.passed,
    }
    out = _out_dir(config)
    write_json(out / "reduce_report.json", payload, meta=config.meta())
    return payload


_WORKFLOWS = {
    "scan-existence": run_scan_existence,
    "potential": run_potential,
    "profile": run_profile,
    "evolve": run_evolve,
    "verify-lax": run_verify_lax,
    "reduce-check": run_reduce_check,
}


def run(config: RunConfig) -> dict:
    """Execute the configured workflow and return its summary record."""
    if config.command not in _WORKFLOWS:
        raise ValueError(f"unknown command {config.command!r}")
    return _WORKFLOWS[config.command](config)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] in ("-h", "--help"):
        print(USAGE)
        return 0
    if not argv or argv[0] not in COMMANDS:
        sys.stderr.write(USAGE)
        return 64
    command = argv[0]
    try:
        args = build_parser(command).parse_args(argv[1:])
    except SystemExit as exc:
        # argparse has printed the usage error (2) or the help (0)
        return exc.code
    try:
        config = resolve_config(command, args)
        summary = run(config)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:  # the writers name the file they failed on
        sys.stderr.write(f"error: cannot write {exc.filename}: {exc.strerror}\n")
        return 2
    except NumericalError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3
    if summary.get("pass") is False:
        # the verification ran and wrote its report, but it failed
        sys.stderr.write(
            f"numerical failure: {command} check failed (report in "
            f"{config.output_dir}): {json.dumps(summary, sort_keys=True)}\n"
        )
        return 3
    line = {"command": command, "status": "ok", "output_dir": config.output_dir}
    line.update(summary)
    print(json.dumps(line, sort_keys=True))
    return 0


_POTENTIAL_PLOT = """\
#!/usr/bin/env python3
\"\"\"Plot the pseudopotential well and the phase portrait from the CSVs.\"\"\"
from pathlib import Path

import matplotlib.pyplot as plt
import numpy as np

here = Path(__file__).parent
pot = np.genfromtxt(here / "potential.csv", delimiter=",", names=True)
phase = np.genfromtxt(here / "phase.csv", delimiter=",", names=True)

fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(10, 4))
ax1.plot(pot["v"], pot["S"])
ax1.axhline(0.0, color="k", lw=0.5)
ax1.set_xlabel("v")
ax1.set_ylabel("S(v)")
ax1.set_title("pseudopotential")
ax2.plot(phase["v"], phase["vp_plus"])
ax2.plot(phase["v"], phase["vp_minus"])
ax2.set_xlabel("v")
ax2.set_ylabel("dv/dxi")
ax2.set_title("phase portrait")
fig.tight_layout()
fig.savefig(here / "potential.png", dpi=160)
print(here / "potential.png")
"""

_PROFILE_PLOT = """\
#!/usr/bin/env python3
\"\"\"Plot the travelling-wave profile from both construction methods.\"\"\"
from pathlib import Path

import matplotlib.pyplot as plt
import numpy as np

here = Path(__file__).parent
quad = np.genfromtxt(here / "profile.csv", delimiter=",", names=True)
shoot = np.genfromtxt(here / "profile_shooting.csv", delimiter=",", names=True)

fig, ax = plt.subplots(figsize=(7, 4))
ax.plot(quad["xi"], quad["v"], label="quadrature")
ax.plot(shoot["xi"], shoot["v"], "--", label="shooting")
ax.set_xlabel("xi")
ax.set_ylabel("v")
ax.legend()
fig.tight_layout()
fig.savefig(here / "profile.png", dpi=160)
print(here / "profile.png")
"""

_TRAJECTORY_PLOT = """\
#!/usr/bin/env python3
\"\"\"Surface and contour views of v(x, t) from trajectory.csv.\"\"\"
from pathlib import Path

import matplotlib.pyplot as plt
import numpy as np

here = Path(__file__).parent
data = np.genfromtxt(here / "trajectory.csv", delimiter=",", names=True)
times = np.unique(data["t"])
x = np.unique(data["x"])
v = data["v"].reshape(times.size, x.size)

fig = plt.figure(figsize=(11, 4))
ax1 = fig.add_subplot(1, 2, 1, projection="3d")
tt, xx = np.meshgrid(times, x, indexing="ij")
ax1.plot_surface(xx, tt, v, cmap="viridis", rstride=1, cstride=8)
ax1.set_xlabel("x")
ax1.set_ylabel("t")
ax1.set_zlabel("v")
ax2 = fig.add_subplot(1, 2, 2)
cs = ax2.contourf(x, times, v, levels=30, cmap="viridis")
fig.colorbar(cs, ax=ax2)
ax2.set_xlabel("x")
ax2.set_ylabel("t")
fig.tight_layout()
fig.savefig(here / "trajectory.png", dpi=160)
print(here / "trajectory.png")
"""


if __name__ == "__main__":
    sys.exit(main())

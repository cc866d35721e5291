"""Command-line front end for the soliton laboratory.

Workflows: existence scanning, pseudopotential and phase-portrait tables,
profile construction by both methods, PDE evolution, zero-curvature
verification and the flow-reduction check. Runs are configured by a JSON
document, by flags, or both (flags win). All pipelines are deterministic:
identical configurations produce bit-identical outputs.

Each ``run_*`` workflow only computes. It returns its summary record and its
files by name, in write order: a "*.csv" name maps to its header and columns,
any other to a JSON payload. ``run`` writes them once the workflow has
returned, so a command whose checks fail writes nothing. The exception is a
``verify-lax`` or ``reduce-check`` report with ``"pass": false``: that
workflow returns, and its report is written before ``main`` exits 3.

Exit codes: 0 success, 2 validation error or an output file that cannot be
written, 3 numerical failure, 64 unknown command.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field as dc_field, fields
from pathlib import Path

import numpy as np

from .core import MAX_VALUES, Field, Grid1D, NumericalError, SolitonParams, make_grid
from .evolution import (
    EvolveConfig,
    conservation_drift,
    evolve,
    measure_speed,
    shape_error,
)
from .lax import FRAME_DT, FRAMES, reduction_check, zc_residual
from .output import _write_text, write_csv, write_json
from .profiles import (
    closed_form_field,
    default_half_width,
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


def _option(default, key: str, flag: str):
    """A RunConfig option: its default, its config-file key (dotted) and its
    command-line flag."""
    return dc_field(default=default,
                    metadata={"path": tuple(key.split(".")), "flag": flag})


@dataclass
class RunConfig:
    """Fully resolved run configuration; one instance drives one workflow.

    Every field but ``command`` is an option declared with ``_option``; the
    flags, their types, USAGE, each command's help and the allowed config
    keys derive from these declarations, in this order.
    """

    command: str
    lambda_speed: float = _option(0.5, "params.lambda", "--lambda")
    v0: float = _option(1.0, "params.v0", "--v0")
    lambda_spec: float = _option(1.0, "lambda_spec", "--lambda-spec")
    half_width: float | None = _option(None, "grid.half_width", "--half-width")
    n: int = _option(2048, "grid.n", "--n")
    t_final: float = _option(5.0, "evolve.t_final", "--t-final")
    cfl_constant: float = _option(0.1, "evolve.cfl_constant", "--cfl")
    output_stride: int = _option(1000, "evolve.output_stride", "--output-stride")
    lambda_min: float = _option(0.0, "scan.lambda_min", "--lambda-min")
    lambda_max: float = _option(2.0, "scan.lambda_max", "--lambda-max")
    steps: int = _option(41, "scan.steps", "--steps")
    output_dir: str = _option("fhd_out", "output_dir", "--output-dir")
    emit_plots: bool = _option(False, "emit_plots", "--emit-plots")

    @property
    def params(self) -> SolitonParams:
        return SolitonParams(self.lambda_speed, self.v0)

    def meta(self) -> dict:
        # every field is a scalar or a string, so a shallow copy serializes
        # as dataclasses.asdict would, without its deep copy of each value
        return {"config": dict(vars(self))}


# RunConfig option -> (config-file key path, command-line flag)
_OPTIONS = {f.name: (f.metadata["path"], f.metadata["flag"])
            for f in fields(RunConfig) if f.metadata}


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


def _name(field: str) -> str:
    """An option as messages name it: flag and config key."""
    path, flag = _OPTIONS[field]
    return f"{flag} ({'.'.join(path)})"


# every config path an option reads, the paths that hold sub-keys, the
# flags that take a value, and a negative number as such a value
_PATHS = {path for path, _ in _OPTIONS.values()}
_SECTIONS = {path[:i] for path in _PATHS for i in range(1, len(path))}
_VALUE_FLAGS = {flag for field, (_, flag) in _OPTIONS.items() if _kind(field)[2]}
_NEGATIVE = re.compile(r"-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?|-(inf(inity)?|nan)", re.I)


_ENV_NOTE = "env FHD_OUTPUT_DIR is the fallback for --output-dir"


def _usage() -> str:
    commands = "".join(f"  {name:<17}{purpose}\n" for name, purpose in COMMANDS.items())
    flags = "".join(
        f"  {flag + _kind(field)[-1]:<22}{'.'.join(path)}\n"
        for field, (path, flag) in _OPTIONS.items()
    )
    return f"""usage: fhdlab <command> [flags]

commands:
{commands}
flags, each with its config-file key (flags override file values):
  --config <path>       JSON run configuration
{flags}  {_ENV_NOTE}
"""


USAGE = _usage()


def _config_values(node: dict, prefix: tuple = ()) -> dict:
    """The config document's values by key path, at any depth. A key no option
    reads (named down to a leaf) or a section that is not an object is rejected
    by dotted name; the command itself is always taken from the arguments."""
    values = {}
    for key, value in node.items():
        path = prefix + (key,)
        if path in _SECTIONS:
            if not isinstance(value, dict):
                raise ValueError(f"config section {'.'.join(path)} must be an object, "
                                 f"got {value!r}")
            values.update(_config_values(value, path))
        elif path == ("command",) or path in _PATHS:
            values[path] = value
        elif isinstance(value, dict) and value:
            _config_values(value, path)  # no key under an unknown one is known
        else:
            raise ValueError(f"unknown config key {'.'.join(path)}")
    return values


def _file_value(field: str, value: object) -> object:
    """A config file's ``value`` for ``field`` (None: absent), type-checked."""
    key = ".".join(_OPTIONS[field][0])
    expected, types, _, _ = _kind(field)
    if value is not None and type(value) not in types:
        raise ValueError(f"config value {key} must be {expected}, got {value!r}")
    if type(value) is int and float in types:
        # a JSON integer for a float field: the float its flag would give
        try:
            value = float(value)
        except OverflowError:
            raise ValueError(f"config value {key} lies outside the float "
                             "range") from None
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
        _, _, parse, placeholder = _kind(field)
        how = ({"type": parse, "metavar": placeholder.strip()} if parse
               else {"action": "store_true"})
        parser.add_argument(flag, dest=field, default=None, help=".".join(path), **how)
    return parser


def resolve_config(command: str, args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config file and flags into one RunConfig."""
    values: dict = {}
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
        values = _config_values(document)
    config = RunConfig(command=command)
    for field, (path, _) in _OPTIONS.items():
        file_value = _file_value(field, values.get(path))
        if file_value is not None:
            setattr(config, field, file_value)
        flag_value = getattr(args, field, None)
        if flag_value is not None:
            setattr(config, field, flag_value)
    if args.output_dir is None and values.get(("output_dir",)) is None:
        config.output_dir = os.environ.get("FHD_OUTPUT_DIR", config.output_dir)
    # a non-finite number would reach the side-cars as NaN or Infinity
    for field in _OPTIONS:
        value = getattr(config, field)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{_name(field)} must be finite, got {value}")

    if config.half_width is None:
        try:
            config.half_width = default_half_width(config.params)
        except ValueError:  # inadmissible params; the existence gate reports them
            config.half_width = 40.0
    return config


def _grid(config: RunConfig) -> Grid1D:
    """The window [-half_width, half_width) of n nodes."""
    if not config.half_width > 0.0:
        raise ValueError(f"{_name('half_width')} must be positive, "
                         f"got {config.half_width}")
    return make_grid(-config.half_width, config.half_width, config.n)


def _out_dir(config: RunConfig) -> Path:
    out = Path(config.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot create output directory {out}: {exc.strerror}") from exc
    return out


def run_scan_existence(config: RunConfig) -> tuple[dict, dict]:
    # np.linspace warns and then yields NaN for a span that is not finite
    if not math.isfinite(config.lambda_max - config.lambda_min):
        raise ValueError("--lambda-max minus --lambda-min overflows")
    if config.steps < 1:
        raise ValueError(f"{_name('steps')} must be at least 1, got {config.steps}")
    if config.steps > MAX_VALUES:
        raise ValueError(f"{_name('steps')} may be at most {MAX_VALUES}, "
                         f"got {config.steps}")
    # a span near the float limit overflows only in the last sample, which
    # np.linspace then sets to lambda_max
    with np.errstate(over="ignore"):
        lambdas = np.linspace(config.lambda_min, config.lambda_max, config.steps)
    admissible, curvature = existence_check(lambdas, config.params.v0)
    inside = lambdas[admissible]
    return {
        "n_samples": int(lambdas.size),
        "n_admissible": int(admissible.sum()),
        "lambda_first_admissible": float(inside[0]) if inside.size else None,
        "lambda_last_admissible": float(inside[-1]) if inside.size else None,
    }, {
        "existence.csv": (["lambda", "admissible", "s_second_v0"],
                          [lambdas, admissible, curvature]),
    }


def run_potential(config: RunConfig) -> tuple[dict, dict]:
    require_admissible(config.params)
    params = config.params
    v_pot, s_pot = potential_samples(params)
    v_orb, vp_plus, vp_minus = phase_samples(params)
    return {
        "v_turn": float(v_orb[0]),
        "s_min": float(s_pot.min()),
        "files": ["potential.csv", "phase.csv"],
    }, {
        "potential.csv": (["v", "S"], [v_pot, s_pot]),
        "phase.csv": (["v", "vp_plus", "vp_minus"], [v_orb, vp_plus, vp_minus]),
    }


def run_profile(config: RunConfig) -> tuple[dict, dict]:
    require_admissible(config.params)
    params = config.params
    quad = profile_by_quadrature(params)
    grid = _grid(config)
    shoot = profile_by_shooting(params, grid)
    mq = profile_metrics(quad)
    ms = profile_metrics(shoot)
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
    return {
        "min_v": float(quad.v.min()),
        "depth": mq.depth,
        "fwhm_quadrature": mq.fwhm,
        "fwhm_shooting": ms.fwhm,
    }, {
        "profile.csv": (["xi", "v"], [quad.xi, quad.v]),
        "profile_shooting.csv": (["xi", "v"], [shoot.xi, shoot.v]),
        "metrics.json": records,
    }


def run_evolve(config: RunConfig) -> tuple[dict, dict]:
    require_admissible(config.params)
    params = config.params
    grid = _grid(config)
    initial = closed_form_field(params, grid)
    evolve_config = EvolveConfig(
        t_final=config.t_final,
        cfl_constant=config.cfl_constant,
        output_stride=config.output_stride,
    )
    trajectory = evolve(initial, evolve_config)
    # the tracker unwraps the seam between stored frames, so the wave must
    # move less than half the period from one frame to the next
    gap = float(np.max(np.diff(trajectory.times)))
    if config.lambda_speed * gap >= grid.length / 2:
        raise NumericalError(
            f"frames up to {gap:g} apart: the wave moves {config.lambda_speed * gap:g} "
            f"between them, at least half the period {grid.length:g}; lower "
            f"{_name('output_stride')}"
        )

    summary = {
        "lambda": config.lambda_speed,
        "v0": config.v0,
        "n": config.n,
        "speed_measured": measure_speed(trajectory),
        "conservation_drift": conservation_drift(trajectory),
        "shape_error": shape_error(trajectory, config.v0),
    }
    # one t,x,v row per node per frame: the columns broadcast to (T, n)
    frames = (trajectory.times[:, None], grid.x, trajectory.values)
    return summary, {
        "trajectory.csv": (["t", "x", "v"], frames),
        "summary.json": summary,
    }


def run_verify_lax(config: RunConfig) -> tuple[dict, dict]:
    require_admissible(config.params)
    if FRAMES * config.n > MAX_VALUES:
        raise ValueError(f"{_name('n')} may be at most {MAX_VALUES // FRAMES} for "
                         f"verify-lax's {FRAMES} frames, got {config.n}")
    grid = _grid(config)
    times = FRAME_DT / config.v0**3 * np.arange(FRAMES)
    trajectory = translated_trajectory(config.params, grid, times)
    report = zc_residual(trajectory, config.lambda_spec)
    payload = report.to_dict()
    payload.update({"lambda": config.lambda_speed, "v0": config.v0})
    e11, e12, e21, e22 = payload["entry_norms"]  # None where not finite
    return {
        "entry_norm_21": e21,
        "max_off_entry": None if None in (e11, e12, e22) else max(e11, e12, e22),
        "convergence_order": payload["convergence_order"],
        "pass": report.passed,
    }, {"lax_report.json": payload}


def run_reduce_check(config: RunConfig) -> tuple[dict, dict]:
    grid = _grid(config)
    k = 2.0 * np.pi / grid.length
    field = Field(grid, config.params.v0 * (
        1.0 + 0.3 * np.sin(k * grid.x) + 0.1 * np.cos(3 * k * grid.x)))
    report = reduction_check(field, config.lambda_spec)
    payload = {
        "lambda_spec": config.lambda_spec,
        "max_discrepancy": report.max_discrepancy,
        "pass": report.passed,
        "control_discrepancy": report.control_discrepancy,
        "control_pass": report.control_passed,
    }
    return payload, {"reduce_report.json": payload}


_WORKFLOWS = {
    "scan-existence": run_scan_existence,
    "potential": run_potential,
    "profile": run_profile,
    "evolve": run_evolve,
    "verify-lax": run_verify_lax,
    "reduce-check": run_reduce_check,
}


def run(config: RunConfig) -> dict:
    """Execute the configured workflow, then write its files, each with the
    run's side-car, and with ``--emit-plots`` its plot script; return its
    summary record. A workflow that raises leaves no file or directory."""
    if config.command not in _WORKFLOWS:
        raise ValueError(f"unknown command {config.command!r}")
    summary, files = _WORKFLOWS[config.command](config)
    out = _out_dir(config)
    meta = config.meta()
    for name, data in files.items():
        if name.endswith(".csv"):
            write_csv(out / name, *data, meta=meta)
        else:
            write_json(out / name, data, meta=meta)
    if config.emit_plots and config.command in _PLOTS:
        name, script = _PLOTS[config.command]
        _write_text(out / name, script)
    return summary


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] in ("-h", "--help"):
        print(USAGE)
        return 0
    if not argv or argv[0] not in COMMANDS:
        sys.stderr.write(USAGE)
        return 64
    command = argv[0]
    # argparse reads a value such as -2e-06 or -inf as a flag: join it, flag=value
    for i in reversed(range(2, len(argv))):
        if argv[i - 1] in _VALUE_FLAGS and _NEGATIVE.fullmatch(argv[i]):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
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

# command -> the file name and text of the plot script --emit-plots writes
_PLOTS = {
    "potential": ("plot_potential.py", _POTENTIAL_PLOT),
    "profile": ("plot_profile.py", _PROFILE_PLOT),
    "evolve": ("plot_trajectory.py", _TRAJECTORY_PLOT),
}


if __name__ == "__main__":
    sys.exit(main())

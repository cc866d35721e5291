#!/usr/bin/env python3
"""Benchmark of fhdlab: three workloads, end-to-end metrics, a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload persist --seed 1 --seconds 20 --trace 0

Workloads (BENCHMARK.json records why each was chosen):

* ``persist`` -- library ``evolve`` of the acceptance soliton (lambda=0.5,
  v0=1, [-40, 40]) at n=1024, cfl 0.4, t=5, stride 100, then
  ``measure_speed``, ``shape_error`` and ``conservation_drift``. Time
  stepping is nearly all of it.
* ``dense`` -- in-process ``fhdlab evolve`` at n=512, cfl 0.4, t=5 with a
  frame every 4 steps: ~830 frames, so trajectory storage, per-frame
  diagnostics and CSV writing dominate.
* ``lab`` -- in-process CLI sweep of scan-existence, potential, profile,
  verify-lax (n=512) and reduce-check, one of each per lambda. Lambdas are
  stratified over the existence domain (0, v0^3) from the seed, plus fixed
  points within 1e-3 of both ends. No time stepping. The (command, lambda)
  pairs that ``known_failures.json`` records as failing at the seed commit
  are left out of the timed sweep, so that no timed op is expected to fail;
  traced runs run those pairs at the fixed lambdas once, untimed, as a probe
  and report how many still fail (``known_failures.failed``).

Only ``lab`` draws from the seed. One client, closed loop: an op starts
when the previous one has ended. BLAS/OpenMP threads are pinned to 1
before NumPy loads. Whole units (one persist run, one dense run, one lab
sweep) repeat until ``--seconds`` have passed.

Every op is checked. It fails when it raises, exits nonzero, reports
``"pass": false`` or misses an acceptance gate (speed within 2% of lambda,
shape error < 1e-3, 1/v drift < 1e-6); failures are counted in
``failed`` and labelled known or new against ``known_failures.json``.
``correct`` turns false only when an op that claims success writes output that contradicts
an independent check (analytic values, its own files).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced units with units traced by the wrappers of ``spans.py`` and prints
the per-layer metrics of the traced ones, plus the tracing overhead; spans
go to ``perfbench/out/``. The last stdout
line is always the JSON result; the lines before it are a readable report
and the environment record.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SPEED_TOL = 0.02
SHAPE_TOL = 1e-3
DRIFT_TOL = 1e-6

# Timing. On a shared 2-vCPU Intel Xeon VM, identical work runs up to ~1.8x
# slower for seconds at a time when other tenants load the host, in two ways.
# The hypervisor takes the vCPU away (steal time): an op's wall time grows but
# the process's CPU time does not, so ops are timed in process CPU seconds
# (user + system). The shared core also runs slower: CPU time grows too. For
# that, a timer interrupts the process every 20 ms to time three short
# reference kernels that use no fhdlab code (REFERENCE below): a 7-point NumPy
# stencil on 1024 points, float formatting and a pure-Python loop, each timed
# in CPU seconds too. Each kernel's time over its typical time on that VM is
# its slowdown; the mean of the three is the tick's slowdown. Each op's CPU
# time is multiplied by the mean speed (one over the slowdown) of the ticks
# during it, widened to at least MIN_WINDOW for short ops, so calibrated
# times read as CPU seconds on that VM. The speed is averaged, not the
# slowdown's median taken, because the core switches between a fast and a
# slow state within one op, and the work done is the integral of the speed.
# Over 8 minutes of repeated units, this cut the standard deviation of
# log(unit time) from ~0.14 uncalibrated and 0.08-0.12 with the stencil's
# median alone to 0.04-0.08. The kernels cost ~2.5% of the run; wall times
# are kept in the result record. The benchmark is one thread in one process,
# so its CPU time is its latency less steal; a change that adds threads would
# need wall time instead.
_X = np.linspace(0.5, 1.5, 1024)
_FLOATS = [float(v) for v in _X[:100]]


def _stencil() -> None:
    x, n = _X, _X.size
    for _ in range(8):
        p = np.concatenate((x[-3:], x, x[:3]))
        acc = 0.1 * p[0:n]
        acc -= 0.2 * p[1:n + 1]
        acc += 0.3 * p[2:n + 2]
        acc -= 0.3 * p[4:n + 4]
        acc += 0.2 * p[5:n + 5]
        acc -= 0.1 * p[6:n + 6]
        x**3 * acc


def _format() -> None:
    ",".join([repr(v) for v in _FLOATS])


def _loop() -> None:
    s = 0.0
    for i in range(300):
        s += (i * 0.5) % 3.0


REFERENCE = ((_stencil, 3.0e-4), (_format, 1.6e-4), (_loop, 5.0e-5))

# The lab sweep leaves out a (command, lambda) pair that lies within this
# share of v0^3 of a failure interval of known_failures.json: the interval
# ends were found by bisection, and a lambda drawn just past one must not fail.
KNOWN_MARGIN = 2e-4

# Set-up. Import times in fresh interpreters shift by up to 1.5x within
# seconds on that VM, and the reference kernels do not track them. So each
# import of fhdlab.cli is timed between two imports of a fixed set of the
# libraries it builds on, and reported relative to their mean, in units of
# the reference import's typical CPU time there (REFERENCE_IMPORT_SECONDS).
# Over 40 such samples, medians of four spread 0.07 (IQR/median) against
# 0.29 for the plain import times.
IMPORT_PROBE = ("import time; t = time.process_time(); import {}; "
                "print(time.process_time() - t)")
REFERENCE_IMPORT = "numpy, scipy.integrate, scipy.interpolate"
REFERENCE_IMPORT_SECONDS = 0.8


def load_package():
    """Import fhdlab from this checkout's ``src``, never from elsewhere."""
    init = SRC / "fhdlab" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init.relative_to(ROOT)} not found; "
                         "run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import fhdlab.cli

    if Path(fhdlab.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported fhdlab from {fhdlab.__file__}, "
                         f"not from {SRC}")
    return fhdlab


class Clock:
    """Samples the machine's slowdown while the benchmark runs (see REFERENCE)."""

    INTERVAL = 0.02
    MIN_WINDOW = 0.2

    def __init__(self) -> None:
        self.times: list[float] = []
        self.slowdown: list[float] = []
        self._previous = None

    def _tick(self, _signum, _frame) -> None:
        self.times.append(perf_counter())
        total = 0.0
        for kernel, typical in REFERENCE:
            start = process_time()
            kernel()
            total += (process_time() - start) / typical
        self.slowdown.append(total / len(REFERENCE))

    def __enter__(self) -> "Clock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: float, end: float) -> float:
        """Mean speed of the ticks in [start, end], widened to MIN_WINDOW."""
        if not self.slowdown:
            raise RuntimeError("no calibration samples were taken")
        pad = max(0.0, self.MIN_WINDOW - (end - start)) / 2
        lo = bisect.bisect_left(self.times, start - pad)
        hi = bisect.bisect_right(self.times, end + pad)
        window = (self.slowdown[lo:hi]
                  or [self.slowdown[min(lo, len(self.slowdown) - 1)]])
        return statistics.fmean(1.0 / s for s in window)

    def calibrate(self, ops: list["Op"]) -> None:
        for op in ops:
            op.seconds = op.cpu * self.factor(op.start, op.end)


@dataclass
class Op:
    command: str
    lam: float
    start: float = 0.0  # wall clock
    end: float = 0.0
    cpu: float = 0.0  # process CPU seconds
    seconds: float = 0.0  # calibrated CPU seconds; set by Clock.calibrate
    failure: str | None = None  # why the op failed, None if it passed

    def begin(self) -> None:
        self._cpu_start = process_time()
        self.start = perf_counter()

    def stop(self) -> None:
        self.end = perf_counter()
        self.cpu = process_time() - self._cpu_start

    @property
    def raw(self) -> float:
        """Wall seconds."""
        return self.end - self.start


@dataclass
class Tally:
    """Everything one run observed, in op order."""

    ops: list[Op] = field(default_factory=list)
    unit_ends: list[int] = field(default_factory=list)  # len(ops) after each unit
    mismatches: list[str] = field(default_factory=list)
    shape: list[float] = field(default_factory=list)
    speed: list[float] = field(default_factory=list)

    def end_unit(self) -> None:
        self.unit_ends.append(len(self.ops))

    def units(self) -> list[float]:
        """Calibrated seconds of each whole unit."""
        begins = [0] + self.unit_ends[:-1]
        return [sum(op.seconds for op in self.ops[b:e])
                for b, e in zip(begins, self.unit_ends)]


def relative(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def gate_evolve(lam: float, speed: float, shape: float, drift: float) -> str | None:
    """The acceptance thresholds of a persistence run, or None when met."""
    misses = []
    if not relative(speed, lam) < SPEED_TOL:
        misses.append(f"speed {speed:.6g} not within 2% of {lam}")
    if not shape < SHAPE_TOL:
        misses.append(f"shape error {shape:.3g} >= {SHAPE_TOL}")
    if not drift < DRIFT_TOL:
        misses.append(f"1/v drift {drift:.3g} >= {DRIFT_TOL}")
    return "; ".join(misses) or None


class Bench:
    """Runs the ops of the workloads against one imported fhdlab."""

    def __init__(self, fhdlab, work: Path):
        self.fhdlab = fhdlab
        self.work = work
        self.op_id = 0
        self.tracer: spans.Tracer | None = None

    def begin(self, tally: Tally, command: str, lam: float) -> Op:
        """Record a new op and start its clocks; the caller calls ``op.stop``."""
        self.op_id += 1
        if self.tracer is not None:
            self.tracer.op = self.op_id
        op = Op(command, lam)
        tally.ops.append(op)
        op.begin()
        return op

    def cli_op(self, tally: Tally, command: str, lam: float, argv: list[str]):
        """Run an in-process CLI op, record it, and return its JSON line.

        The line is None when the op raised or exited nonzero.
        """
        out, err = io.StringIO(), io.StringIO()
        main = self.fhdlab.cli.main  # looked up per call so tracing sees it
        op = self.begin(tally, command, lam)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command] + argv + ["--output-dir", str(self.work)])
        except Exception as exc:  # a traceback is a failed op, not a crash
            op.stop()
            op.failure = f"raised {type(exc).__name__}: {exc}"
            return op, None
        op.stop()
        stdout, error = out.getvalue(), err.getvalue().strip()
        if code != 0:
            op.failure = f"exit {code}: {error.splitlines()[-1] if error else ''}"
            return op, None
        try:
            return op, json.loads(stdout.strip().splitlines()[-1])
        except (json.JSONDecodeError, IndexError):
            op.failure = "exit 0 without a JSON summary line"
            tally.mismatches.append(f"{command} lambda={lam!r}: no summary line")
            return op, None

    def read_json(self, name: str) -> dict:
        return json.loads((self.work / name).read_text())


@dataclass
class Persist:
    """Library persistence run of the acceptance soliton."""

    n: int = 1024
    t_final: float = 5.0
    cfl: float = 0.4
    stride: int = 100
    lam: float = 0.5
    v0: float = 1.0
    half_width: float = 40.0

    def warmup(self, bench: Bench) -> None:
        Persist(n=self.n, t_final=0.05 * self.t_final).unit(bench, Tally())

    def unit(self, bench: Bench, tally: Tally) -> None:
        core = bench.fhdlab.core
        evolution = bench.fhdlab.evolution
        profiles = bench.fhdlab.profiles
        op = bench.begin(tally, "evolve", self.lam)
        try:
            params = core.SolitonParams(self.lam, self.v0)
            grid = core.make_grid(-self.half_width, self.half_width, self.n)
            initial = core.Field(grid, profiles.profile_by_shooting(params, grid).v)
            config = evolution.EvolveConfig(
                t_final=self.t_final, cfl_constant=self.cfl,
                output_stride=self.stride)
            trajectory = evolution.evolve(initial, config)
            speed = evolution.measure_speed(trajectory)
            shape = evolution.shape_error(trajectory, self.v0)
            drift = evolution.conservation_drift(trajectory)
        except Exception as exc:
            op.stop()
            op.failure = f"raised {type(exc).__name__}: {exc}"
            tally.end_unit()
            return
        op.stop()
        tally.end_unit()
        times = np.asarray(trajectory.times)
        if times[0] != 0.0 or times[-1] != self.t_final or times.size < 2:
            tally.mismatches.append(
                f"persist: frame times run {times[0]}..{times[-1]}, "
                f"expected 0..{self.t_final}")
        op.failure = gate_evolve(self.lam, speed, shape, drift)
        if op.failure is None:
            tally.shape.append(shape)
            tally.speed.append(relative(speed, self.lam))


@dataclass
class Dense:
    """CLI evolve that records a frame every few steps and writes the CSV."""

    n: int = 512
    t_final: float = 5.0
    cfl: float = 0.4
    stride: int = 4
    lam: float = 0.5
    v0: float = 1.0

    def argv(self, t_final: float) -> list[str]:
        return ["--lambda", repr(self.lam), "--v0", repr(self.v0),
                "--n", str(self.n), "--cfl", repr(self.cfl),
                "--t-final", repr(t_final), "--output-stride", str(self.stride)]

    def warmup(self, bench: Bench) -> None:
        bench.cli_op(Tally(), "evolve", self.lam, self.argv(0.05 * self.t_final))

    def unit(self, bench: Bench, tally: Tally) -> None:
        op, line = bench.cli_op(tally, "evolve", self.lam, self.argv(self.t_final))
        tally.end_unit()
        if line is None:
            return
        summary = bench.read_json("summary.json")
        if any(summary.get(k) != v for k, v in line.items()
               if k not in ("command", "status", "output_dir")):
            tally.mismatches.append("dense: stdout summary differs from summary.json")
        with open(bench.work / "trajectory.csv", "rb") as fh:
            data = fh.read()
        rows = data.count(b"\n") - 1
        last_t = float(data.rstrip(b"\n").rsplit(b"\n", 1)[-1].split(b",", 1)[0])
        if rows <= 0 or rows % self.n or last_t != self.t_final:
            tally.mismatches.append(
                f"dense: trajectory.csv has {rows} rows ending at t={last_t}")
        op.failure = gate_evolve(self.lam, line["speed_measured"],
                                 line["shape_error"], line["conservation_drift"])
        if op.failure is None:
            tally.shape.append(line["shape_error"])
            tally.speed.append(relative(line["speed_measured"], self.lam))


def fitted_speed(xi: np.ndarray, v: np.ndarray, v0: float) -> float:
    """Speed at which a tabulated profile solves its travelling-wave ODE.

    The profile obeys v'' = (lambda/2)(1/v^2 - 1/v0^2) + (v - v0), linear in
    lambda; a least-squares fit with a 4th-order v'' recovers lambda.
    """
    dx = xi[1] - xi[0]
    vpp = (-np.roll(v, 2) + 16 * np.roll(v, 1) - 30 * v + 16 * np.roll(v, -1)
           - np.roll(v, -2)) / (12 * dx * dx)
    a = 0.5 * (1.0 / v**2 - 1.0 / v0**2)
    b = vpp - (v - v0)
    return float(np.dot(a, b) / np.dot(a, a))


@dataclass
class Lab:
    """CLI sweep over lambdas drawn from the seed; no time stepping."""

    seed: int = 0
    strata: int = 20
    # fixed points, as fractions of v0^3: the paper's three speeds, whose
    # profiles give the accuracy metrics (identical inputs on every run),
    # and points within 1e-3 of both ends of the existence domain
    anchors: tuple = (0.2, 0.5, 0.8)
    edges: tuple = (1e-4, 6e-4, 1.0 - 6e-4, 1.0 - 1e-4)
    v0: float = 1.0
    n: int = 512  # verify-lax grid
    known: list = field(default_factory=lambda: known_failures())

    def runs(self, command: str, lam: float) -> bool:
        """False for a pair known to fail at the seed commit (see KNOWN_MARGIN)."""
        return not is_known(command, lam, self.known, KNOWN_MARGIN * self.v0**3)

    def lambdas(self) -> list[float]:
        """One lambda per equal stratum of (0, v0^3), then the fixed points."""
        rng = random.Random(self.seed)
        top = self.v0**3
        inner = [top * (k + rng.random()) / self.strata for k in range(self.strata)]
        fixed = [top * f for f in self.anchors + self.edges]
        return [lam for lam in inner if lam > 0.0] + fixed

    def warmup(self, bench: Bench) -> None:
        self.sweep(bench, Tally(), [0.5 * self.v0**3], self.runs)

    def unit(self, bench: Bench, tally: Tally) -> None:
        self.sweep(bench, tally, self.lambdas(), self.runs)
        tally.end_unit()

    def probe(self, bench: Bench) -> Tally:
        """Run once, untimed, the fixed-point pairs the sweep leaves out."""
        tally = Tally()
        fixed = [self.v0**3 * f for f in self.anchors + self.edges]
        self.sweep(bench, tally, fixed, lambda command, lam: not self.runs(command, lam))
        return tally

    def sweep(self, bench: Bench, tally: Tally, lambdas: list[float], keep) -> None:
        """Run, for each lambda, each command for which ``keep(command, lambda)``."""
        v0 = self.v0
        anchors = {v0**3 * f for f in self.anchors}
        for lam in lambdas:
            lam_s, v0_s = repr(lam), repr(v0)
            lo, hi, steps = 0.0, 2.0 * v0**3, 41
            if keep("scan-existence", lam):
                op, line = bench.cli_op(tally, "scan-existence", lam, [
                    "--v0", v0_s, "--lambda-min", repr(lo), "--lambda-max", repr(hi),
                    "--steps", str(steps)])
                if line is not None:
                    grid = np.linspace(lo, hi, steps)
                    expect = int(np.count_nonzero((grid > 0) & (grid < v0**3)))
                    if line["n_admissible"] != expect:
                        tally.mismatches.append(
                            f"scan-existence: {line['n_admissible']} admissible, "
                            f"expected {expect}")

            if keep("potential", lam):
                op, line = bench.cli_op(tally, "potential", lam,
                                        ["--lambda", lam_s, "--v0", v0_s])
                if line is not None and not (
                        relative(line["v_turn"], lam / v0**2) < 1e-12
                        and line["s_min"] < 0.0):
                    tally.mismatches.append(
                        f"potential lambda={lam!r}: v_turn {line['v_turn']!r}, "
                        f"s_min {line['s_min']!r}")

            if keep("profile", lam):
                op, line = bench.cli_op(tally, "profile", lam,
                                        ["--lambda", lam_s, "--v0", v0_s])
                if line is not None:
                    depth = v0 - lam / v0**2
                    if not relative(line["depth"], depth) < 1e-9:
                        tally.mismatches.append(
                            f"profile lambda={lam!r}: depth {line['depth']!r}, "
                            f"expected {depth!r}")
                    if lam in anchors:
                        shoot = np.loadtxt(bench.work / "profile_shooting.csv",
                                           delimiter=",", skiprows=1)
                        tally.shape.append(relative(line["fwhm_shooting"],
                                                    line["fwhm_quadrature"]))
                        tally.speed.append(relative(
                            fitted_speed(shoot[:, 0], shoot[:, 1], v0), lam))

            if keep("verify-lax", lam):
                op, line = bench.cli_op(tally, "verify-lax", lam, [
                    "--lambda", lam_s, "--v0", v0_s, "--lambda-spec", "1.0",
                    "--n", str(self.n)])
                if line is not None:
                    if bench.read_json("lax_report.json")["pass"] != line["pass"]:
                        tally.mismatches.append(
                            f"verify-lax lambda={lam!r}: report and stdout disagree")
                    if line["pass"] is not True:
                        op.failure = "pass: false"

            if keep("reduce-check", lam):
                op, line = bench.cli_op(tally, "reduce-check", lam,
                                        ["--v0", v0_s, "--lambda-spec", lam_s])
                if line is not None:
                    report = bench.read_json("reduce_report.json")
                    if any(report[k] != line[k] for k in report):
                        tally.mismatches.append(
                            f"reduce-check lambda={lam!r}: report and stdout disagree")
                    if line["pass"] is not True or line["control_pass"] is not False:
                        op.failure = (f"pass: {line['pass']}, negative control "
                                      f"pass: {line['control_pass']}")


WORKLOADS = ("persist", "dense", "lab")


def make_workload(name: str, seed: int):
    if name == "persist":
        return Persist()
    if name == "dense":
        return Dense()
    return Lab(seed=seed)


def setup_seconds(repeats: int) -> list[float]:
    """Calibrated CPU times of ``import fhdlab.cli`` in fresh interpreters.

    The benchmark process has imported the package already, so the bytecode
    is compiled, as it is for users after their first run.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def import_seconds(modules: str) -> float:
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE.format(modules)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=60, check=True)
        return float(done.stdout.strip().splitlines()[-1])

    reference = [import_seconds(REFERENCE_IMPORT)]
    samples = []
    for _ in range(repeats):
        own = import_seconds("fhdlab.cli")
        reference.append(import_seconds(REFERENCE_IMPORT))
        samples.append(REFERENCE_IMPORT_SECONDS * own
                       / (0.5 * (reference[-2] + reference[-1])))
    return samples


def run_units(workload, bench: Bench, tally: Tally, seconds: float) -> None:
    deadline = perf_counter() + seconds
    while True:
        workload.unit(bench, tally)
        if perf_counter() >= deadline:
            return


def tail_percentile(count: int) -> int:
    """90, or 50 when fewer than ten of ``count`` samples lie beyond the 90th.

    A percentile is reported only with at least ten samples beyond it; the
    persist and dense runs have a handful of ops, so their tail is the median.
    """
    return 90 if count >= 100 else 50


def end_to_end(tally: Tally, setup: list[float]) -> dict:
    times = [op.seconds for op in tally.ops]
    failed = sum(op.failure is not None for op in tally.ops)
    unit = statistics.median(tally.units())
    median_or_none = (lambda xs: statistics.median(xs) if xs else None)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "unit_s": (unit, "s"),
        "op_p50_ms": (1e3 * float(np.percentile(times, 50)), "ms"),
        "op_p90_ms": (1e3 * float(np.percentile(times, tail_percentile(len(times)))),
                      "ms"),
        "ops_per_s": (len(times) / len(tally.unit_ends) / unit, "1/s"),
        "ok_rate": (1.0 - failed / len(times), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
        "shape_error": (median_or_none(tally.shape), "1"),
        "speed_rel_error": (median_or_none(tally.speed), "1"),
    }


# Model of one ``_rhs`` call on n points, NumPy evaluating each array
# expression into a temporary: 11 flops for the fused 7-point stencil, 2 for
# v**3 and 1 for the product; 34 float64 reads and writes (padded copy 2,
# first term 2, five scaled-and-accumulate terms 5 each, cube 2, product 3).
RHS_FLOPS_PER_POINT = 14
RHS_BYTES_PER_POINT = 34 * 8


def rhs_microseconds(fhdlab, n: int, calls: int = 400, batches: int = 7) -> float | None:
    """Median time of one ``rhs_fhd`` call on a soliton-like field of n points."""
    evolution, core = fhdlab.evolution, fhdlab.core
    rhs = getattr(evolution, "rhs_fhd", None)
    if rhs is None:
        return None
    grid = core.make_grid(-40.0, 40.0, n)
    field_ = core.Field(grid, 1.0 - 0.5 / np.cosh(0.5 * grid.x) ** 2)
    per_call = []
    for _ in range(batches):
        start = perf_counter()
        for _ in range(calls):
            rhs(field_)
        per_call.append((perf_counter() - start) / calls)
    return 1e6 * statistics.median(per_call)


def per_layer(workload, fhdlab, tracer: spans.Tracer, traced: Tally,
              untraced: Tally) -> dict:
    units = len(traced.unit_ends)
    summary = spans.summarize(tracer.spans)
    total, calls, counts = summary["total"], summary["calls"], tracer.counts
    ms = (lambda *names: 1e3 * sum(total.get(n, 0.0) for n in names) / units)
    per_unit = (lambda key: counts.get(key, 0.0) / units)
    traced_unit = statistics.median(traced.units())
    rhs_calls = per_unit("evolution.rhs_calls") if tracer.rhs_counted else None
    steps = rhs_calls / 4 if rhs_calls else 0
    n = workload.n
    metrics = {
        "evolution.evolve.s": (ms("evolution.evolve") / 1e3, "s"),
        "evolution.rhs_calls": (rhs_calls, "count"),
        "evolution.step_us": (1e3 * ms("evolution.evolve") / steps if steps else 0.0,
                              "us"),
        "evolution.rhs_fhd_us": (rhs_microseconds(fhdlab, n), "us"),
        "evolution.rhs_flops": (RHS_FLOPS_PER_POINT * n, "flop.computed"),
        "evolution.rhs_bytes": (RHS_BYTES_PER_POINT * n, "B.computed"),
        "evolution.rhs_flop_per_byte": (RHS_FLOPS_PER_POINT / RHS_BYTES_PER_POINT,
                                        "flop/B.computed"),
        "evolution.frames": (per_unit("evolution.frames"), "count"),
        "evolution.diagnostics.ms": (ms(*spans.DIAGNOSTICS), "ms"),
        "output.write_csv.s": (ms("output.write_csv") / 1e3, "s"),
        "output.csv_rows": (per_unit("output.csv_rows"), "count"),
        "output.csv_mb": (per_unit("output.csv_bytes") / 1e6, "MB"),
        "output.write_json.ms": (ms("output.write_json"), "ms"),
        "core.trajectory_values.ms": (ms("core.trajectory_values"), "ms"),
        "core.trajectory_mb": (per_unit("core.trajectory_bytes") / 1e6, "MB.computed"),
    }
    for name in spans.TIMED:
        metrics[f"{name}.ms"] = (ms(name), "ms")
        metrics[f"{name}.calls"] = (calls.get(name, 0) / units, "count")
    metrics.update({
        "lax.zc_residual.ms": (ms("lax.zc_residual"), "ms"),
        "lax.reduction_check.ms": (ms("lax.reduction_check"), "ms"),
        "pseudopotential.samples.ms": (ms(*spans.SAMPLES), "ms"),
    })
    for layer, seconds in summary["layer_self"].items():
        metrics[f"{layer}.self_ms"] = (1e3 * seconds / units, "ms")
    metrics.update({
        "trace.unit_s": (traced_unit, "s"),
        "trace.overhead_s": (traced_unit - statistics.median(untraced.units()), "s"),
        "trace.coverage": (summary["root"] / sum(op.raw for op in traced.ops),
                           "ratio"),
        "trace.spans": (len(tracer.spans) / units, "count"),
    })
    return metrics


def layer_report(summary: dict, traced: Tally) -> list[str]:
    """Readable lines: the heaviest self times and the share of evolve (raw)."""
    units = len(traced.unit_ends)
    wall = sum(op.raw for op in traced.ops) / units
    lines = []
    by_self = sorted(summary["self"].items(), key=lambda kv: -kv[1])[:5]
    lines.append("top self time per unit: " + ", ".join(
        f"{name} {1e3 * s / units:.1f} ms" for name, s in by_self))
    layers = sorted(summary["layer_self"].items(), key=lambda kv: -kv[1])
    lines.append("layer self time share: " + ", ".join(
        f"{layer} {s / units / wall:.3f}" for layer, s in layers))
    evolve = summary["total"].get("evolution.evolve", 0.0) / units
    lines.append(f"evolution.evolve share of traced wall: {evolve / wall:.3f}")
    return lines


def environment(fhdlab) -> dict:
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        # the ceiling keeps git from searching above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=10)
        commit = commit.stdout.strip() if commit.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "fhdlab": fhdlab.__version__,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": commit,
    }


def known_failures() -> list[dict]:
    return json.loads((HERE / "known_failures.json").read_text())["failures"]


def is_known(command: str, lam: float, known: list[dict], margin: float = 0.0) -> bool:
    """True when (command, lam) lies within ``margin`` of a recorded failure."""
    return any(k["command"] == command
               and k["lambda_min"] - margin <= lam <= k["lambda_max"] + margin
               for k in known)



def run(workload_name: str, seed: int, seconds: float, trace: bool, *,
        workload=None, setup_repeats: int = 4, log=print) -> dict:
    """Run one benchmark pass and return the result object."""
    fhdlab = load_package()
    workload = workload or make_workload(workload_name, seed)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{workload_name}-{os.getpid()}"
    work.mkdir(exist_ok=True)
    bench = Bench(fhdlab, work)
    tally, untraced, traced, probe = Tally(), Tally(), Tally(), Tally()
    setup: list[float] = []
    tracer = spans.Tracer()
    try:
        with Clock() as clock:
            workload.warmup(bench)
            if trace:
                # untraced and traced units alternate, so that drifts in the
                # machine's speed do not show up as tracing overhead
                deadline = perf_counter() + seconds
                while True:
                    workload.unit(bench, untraced)
                    bench.tracer = tracer
                    tracer.install()
                    try:
                        workload.unit(bench, traced)
                    finally:
                        tracer.uninstall()
                        bench.tracer = None
                    if perf_counter() >= deadline:
                        break
                lab = workload if isinstance(workload, Lab) else Lab(seed=seed)
                probe = lab.probe(bench)
            else:
                setup = setup_seconds(setup_repeats)
                run_units(workload, bench, tally, seconds)
    finally:
        for path in sorted(work.iterdir()):
            path.unlink()
        work.rmdir()
    clock.calibrate(tally.ops + untraced.ops + traced.ops)

    if trace:
        metrics = per_layer(workload, fhdlab, tracer, traced, untraced)
        metrics["known_failures.failed"] = (
            sum(op.failure is not None for op in probe.ops), "count")
        tracer.write(OUT / f"spans-{workload_name}-seed{seed}.jsonl")
        report = layer_report(spans.summarize(tracer.spans), traced)
        shifted = [len(untraced.ops) + end for end in traced.unit_ends]
        tally = Tally(untraced.ops + traced.ops, untraced.unit_ends + shifted,
                      untraced.mismatches + traced.mismatches + probe.mismatches)
        report.append(f"known-failure probe: {len(probe.ops)} untimed ops")
        report.extend(f"  {op.command} lambda={op.lam!r}: "
                      f"{op.failure or 'passes (no longer fails)'}" for op in probe.ops)
    else:
        metrics = end_to_end(tally, setup)
        report = [f"setup_s: median of {len(setup)} fresh imports of fhdlab.cli, each "
                  f"relative to imports of {REFERENCE_IMPORT} around it",
                  f"op percentiles over {len(tally.ops)} ops (op_p90_ms is the "
                  f"p{tail_percentile(len(tally.ops))}); unit_s median of "
                  f"{len(tally.unit_ends)} units; ops_per_s = ops per unit / unit_s; "
                  f"accuracy medians of {len(tally.shape)} checked outputs"]
    report.append(
        f"calibration: {len(clock.slowdown)} samples, median slowdown "
        f"{statistics.median(clock.slowdown):.3f}; wall op seconds median "
        f"{statistics.median(op.raw for op in tally.ops):.6g}, CPU "
        f"{statistics.median(op.cpu for op in tally.ops):.6g}")

    known = known_failures()
    failures = [op for op in tally.ops if op.failure is not None]
    by_command: dict[str, list[int]] = {}
    for op in failures:
        entry = by_command.setdefault(op.command, [0, 0])
        entry[0] += 1
        entry[1] += is_known(op.command, op.lam, known)
    result = {
        "correct": not tally.mismatches,
        "attempted": len(tally.ops),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    env = environment(fhdlab)
    record = dict(result, workload=workload_name, seed=seed, seconds=seconds,
                  trace=trace, environment=env, unit_seconds=tally.units(),
                  setup_samples=setup,
                  wall_op_seconds=[op.raw for op in tally.ops],
                  cpu_op_seconds=[op.cpu for op in tally.ops],
                  mismatches=tally.mismatches,
                  probe=[{"command": op.command, "lambda": op.lam, "reason": op.failure}
                         for op in probe.ops],
                  failures=[{"command": op.command, "lambda": op.lam,
                             "reason": op.failure,
                             "known": is_known(op.command, op.lam, known)}
                            for op in failures])
    (OUT / f"result-{workload_name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    log(f"environment: {json.dumps(env, sort_keys=True)}")
    log(f"workload {workload_name} seed {seed} trace {int(trace)}: "
        f"{len(tally.unit_ends)} units, {len(tally.ops)} ops, {len(failures)} failed "
        f"(fail_rate {len(failures) / len(tally.ops):.4f})")
    for command, (count, matched) in sorted(by_command.items()):
        log(f"  failed {command}: {count} ({matched} known at the seed commit, "
            f"{count - matched} new)")
    for line in tally.mismatches:
        log(f"  INCORRECT {line}")
    for line in report:
        log(line)
    for name, (value, unit) in metrics.items():
        log(f"  {name:<40} {value!s:>24} {unit}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

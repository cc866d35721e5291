#!/usr/bin/env python3
"""Fast self-check of the benchmark at tiny sizes (about twenty seconds).

    python3 perfbench/selfcheck.py

Runs each workload shrunk to one small unit, with and without tracing, and
asserts that the result has the contract's keys, that the metric names and
units are exactly the ones BENCHMARK.json declares, and that forced
failures -- a missed acceptance gate and a traceback -- are counted in
``failed``. No op of the unforced runs may fail, and the traced run's
known-failure probe must still see the failures recorded at the seed commit.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402  (pins BLAS threads before NumPy loads)

TINY = {
    "persist": lambda: bench.Persist(n=256, t_final=0.5),
    "dense": lambda: bench.Dense(n=256, t_final=0.5),
    "lab": lambda: bench.Lab(seed=0, strata=2, edges=(1e-4,)),
}


def quiet(*_args) -> None:
    pass


def tiny_run(name: str, trace: bool) -> dict:
    return bench.run(name, 0, 0.0, trace, workload=TINY[name](),
                     setup_repeats=1, log=quiet)


def check_shape(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in declared], sorted(
        set(metrics) ^ {m["name"] for m in declared})
    for m in declared:
        got = metrics[m["name"]]
        assert set(got) == {"value", "unit"}, got
        assert got["unit"] == m["unit"], (m["name"], got["unit"], m["unit"])
        assert isinstance(got["value"], (int, float)), (m["name"], got["value"])


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    for name in bench.WORKLOADS:
        for trace, declared in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            result = tiny_run(name, trace)
            check_shape(result, declared)
            assert result["failed"] == 0, (name, trace, result)
            if trace:
                assert result["metrics"]["known_failures.failed"]["value"] > 0, result
        print(f"ok: {name} metric names and units, no failed op")

    fhdlab = bench.load_package()
    evolution, cli = fhdlab.evolution, fhdlab.cli

    real_shape_error = evolution.shape_error
    evolution.shape_error = lambda trajectory, background: 1.0
    try:
        forced = tiny_run("persist", False)
    finally:
        evolution.shape_error = real_shape_error
    assert forced["failed"] == forced["attempted"] == 1, forced
    print("ok: a missed acceptance gate is counted")

    def broken(_profile):
        raise TypeError("forced failure")

    real_metrics = cli.profile_metrics
    cli.profile_metrics = broken
    try:
        forced = tiny_run("lab", False)
    finally:
        cli.profile_metrics = real_metrics
    lab = TINY["lab"]()
    profiles = sum(lab.runs("profile", lam) for lam in lab.lambdas())
    assert forced["failed"] == profiles > 0, forced
    print("ok: a traceback is counted")
    return 0


if __name__ == "__main__":
    sys.exit(main())

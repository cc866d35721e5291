"""CSV/JSON writers shared by the command-line workflows.

CSV convention: header row, comma separator, '.' decimal, 17 significant
digits so doubles round-trip exactly. Every data file is accompanied by a
``<stem>.meta.json`` side-car embedding the fully resolved run
configuration, which makes each output self-describing.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np


_CSV_BLOCK_ROWS = 4096


def format_float(x: float) -> str:
    return f"{x:.17g}"


def _write_meta(data_path: Path, meta: dict | None) -> None:
    if meta is None:
        return
    meta_path = data_path.with_name(data_path.stem + ".meta.json")
    meta_path.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")


def write_csv(
    path: Path,
    header: Sequence[str],
    columns: Sequence[np.ndarray],
    meta: dict | None = None,
) -> Path:
    """Write columns of floats as CSV plus its metadata side-car."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    if len(header) != len(columns):
        raise ValueError("one header entry is required per column")
    lengths = {c.size for c in columns}
    if len(lengths) != 1:
        raise ValueError("all columns must have equal length")
    # one %-format per block of rows writes the same text as format_float
    # applied value by value, without holding every line in memory
    row_format = ",".join(["%.17g"] * len(columns)) + "\n"
    rows = lengths.pop()
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, rows, _CSV_BLOCK_ROWS):
            block = np.column_stack(
                [c[start : start + _CSV_BLOCK_ROWS] for c in columns]
            )
            fh.write(row_format * len(block) % tuple(block.ravel().tolist()))
    _write_meta(path, meta)
    return path


def write_frames_csv(
    path: Path,
    times: Sequence[float],
    x: np.ndarray,
    frames: Iterable[np.ndarray],
    meta: dict | None = None,
) -> Path:
    """Write frames of v(x, t) as ``t,x,v`` rows plus the metadata side-car.

    The bytes are those of ``write_csv`` on the expanded columns, but x is
    formatted once per file and t once per frame, so only v is formatted
    value by value and no expanded column is held in memory.
    """
    # "\0" marks the t field; no formatted float contains it or a "%", and a
    # frame whose length differs from x's fails the %-format
    x = np.asarray(x, dtype=float).tolist()
    template = "".join("\0,%.17g,%%.17g\n" % xi for xi in x)
    with open(path, "w") as fh:
        fh.write("t,x,v\n")
        for t, v in zip(times, frames, strict=True):
            v = np.asarray(v, dtype=float).tolist()
            fh.write(template.replace("\0", "%.17g" % t) % tuple(v))
    _write_meta(path, meta)
    return path


def write_json(path: Path, payload, meta: dict | None = None) -> Path:
    """Write a JSON document plus its metadata side-car."""
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    _write_meta(path, meta)
    return path


def read_csv(path: Path) -> dict[str, np.ndarray]:
    """Read one of our CSV files back into named columns."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}

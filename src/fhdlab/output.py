"""CSV/JSON writers shared by the command-line workflows.

CSV convention: header row, comma separator, '.' decimal, and every value
written as ``"%.17g" % x``: 17 significant digits, so doubles round-trip
exactly. Every data file is accompanied by a ``<stem>.meta.json`` side-car
embedding the fully resolved run configuration, which makes each output
self-describing.

Every writer formats through ``_format_g17``, a NumPy formatter whose bytes
equal those of ``%`` for every float64, about 2^14 values at a time:
``write_csv`` a block of rows, the trajectory writers x once per file, t once
per frame and v a block of frames. So every file holds the bytes that ``%``
applied value by value would write.

Each block is laid out as one uint8 matrix of 24-byte NUL-padded fields
and their separators, and its NULs are dropped once. For the trajectory
writers the block is (frames, n, 75): x is laid out once per file, t is
broadcast over each frame's rows and v fills the last field, so
``write_frames_csv`` writes a block with one call and ``write_frame_files``
drops the NULs of each frame's slice.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np


_FRAME_BLOCK_VALUES = 1 << 14

# Exact "%.17g" in bulk, after the fixed-precision conversion of Adams, "Ryu
# revisited: printf floating point conversion" (OOPSLA 2019). For
# 1e-4 <= |x| < 1e14 the text is positional and its 17 digits are
# N = round_half_even(|x| 10^(16-E)), E = floor(log10|x|), computed exactly
# in integers from x = m 2^(e2-53). A row is 24 bytes, NUL-padded; while it
# is laid out it is held as three uint64 words whose bit 8i + j is bit j of
# byte i, so that moving bytes is shifting words.
_U64 = np.uint64


def _words(rows: list[bytes]) -> tuple[np.ndarray, ...]:
    """The three uint64 words of each 24-byte row, one array per word."""
    w = np.frombuffer(b"".join(r.ljust(24, b"\0") for r in rows), "<u8")
    return tuple(w[j::3].astype(_U64) for j in range(3))


_POW5 = 5.0 ** np.arange(23)  # exact below 2^53


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """Lookup tables, built on first use so that commands that write no
    trajectory do not pay for them.

    quad[q], q < 10^4: the four ASCII digits of q as bytes 0-3 of a word;
    quad_zeros[q]: how many of them are trailing zeros (4 for q = 0);
    keep[j][k]: word j of the first k bytes; point[j][E + 4]: word j of
    "0." and zeros for E < 0, else of the point after E + 1 integer digits.
    """
    q = np.arange(10000, dtype=_U64)
    quad = sum((q // _U64(10**k) % _U64(10) + _U64(48)) << _U64(8 * (3 - k))
               for k in range(4))
    quad_zeros = sum((q % _U64(10**k) == 0).astype(np.int64) for k in range(1, 5))
    keep = _words([b"\xff" * k for k in range(25)])
    point = _words([b"0." + b"0" * (-e - 1) if e < 0 else b"\0" * (e + 1) + b"."
                    for e in range(-4, 14)])
    return quad, quad_zeros, keep, point


def _scaled(mant: np.ndarray, e2: np.ndarray, e: np.ndarray):
    """floor and round-half-even of mant 2^(e2-53) 10^(16-e), exactly.

    The product of the 53-bit mantissa and 5^(16-e) needs up to 102 bits: its
    low word is the wrapped uint64 product, its high word the float product
    less the low word, which is exact after rounding. The shift is >= 2 for
    every 1e-4 <= x < 1e14 and e within one of floor(log10 x).
    """
    c = _POW5[16 - e]
    low = mant.astype(_U64) * c.astype(_U64)
    high = np.rint((mant * c - low.astype(float)) * 2.0**-64).astype(_U64)
    shift = (37 - e2 + e).astype(_U64)
    floor = (high << (_U64(64) - shift)) | (low >> shift)
    half = _U64(1) << (shift - _U64(1))
    rest = low & (half + half - _U64(1))
    return floor, floor + (rest + (floor & _U64(1)) > half)


def _decimal(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E and the 17 digits N of each a = N 10^(E-16) rounded, 1e-4 <= a < 1e14."""
    mant, e2 = np.frexp(a)
    mant *= 2.0**53
    e2 = e2.astype(np.int64)
    e = np.floor(np.log10(a)).astype(np.int64)
    floor, n = _scaled(mant, e2, e)
    # log10 may miss E by one next to a power of ten; then the digits
    # (before rounding) leave [1e16, 1e17): move E and compute them again
    off = (floor >= _U64(10**17)).astype(np.int64) - (floor < _U64(10**16))
    wrong = np.flatnonzero(off)
    if wrong.size:
        e[wrong] += off[wrong]
        n[wrong] = _scaled(mant[wrong], e2[wrong], e[wrong])[1]
    # rounding never carries into an 18th digit: the largest double below
    # each 10^k, -4 <= k <= 14, is at least 8.3 units of the 17th digit below
    return e, n


def _digit_words(n: np.ndarray):
    """The 17 ASCII digits of n as bytes 0-16 of three words, and the index
    of the last digit that is not 0."""
    quad, quad_zeros, _, _ = _tables()
    upper = n // _U64(10**8)
    lower = n - upper * _U64(10**8)
    lead = upper // _U64(10**8)
    upper -= lead * _U64(10**8)
    groups = []  # four groups of four digits after the leading one
    for part in (upper, lower):
        top = part // _U64(10**4)
        groups += [top.astype(np.intp), (part - top * _U64(10**4)).astype(np.intp)]
    last = np.full(n.size, 16)
    run = np.ones(n.size, bool)  # the digits after this group are all 0
    for g in reversed(groups):
        last -= run * quad_zeros[g]
        run &= g == 0
    c1, c2, c3, c4 = (quad[g] for g in groups)
    words = ((lead + _U64(48)) | (c1 << _U64(8)) | (c2 << _U64(40)),
             (c2 >> _U64(24)) | (c3 << _U64(8)) | (c4 << _U64(40)),
             c4 >> _U64(24))
    return words, last


def _shift_bytes(words, k: np.ndarray):
    """Move 24-byte rows k bytes up (k < 8), dropping what passes byte 23."""
    b = k * _U64(8)
    c = _U64(64) - b
    w0, w1, w2 = words
    return w0 << b, (w1 << b) | (w0 >> c), (w2 << b) | (w1 >> c)


def _positional_rows(x: np.ndarray) -> np.ndarray:
    """``"%.17g" % x`` as 24-byte uint8 rows, for 1e-4 <= |x| < 1e14."""
    e, n = _decimal(np.abs(x))
    digits, last = _digit_words(n)
    del n
    _, _, keep, point = _tables()
    # digits [0, p) stay, "." or "0.0..." goes between, [p, 17) move by h
    p = np.maximum(e + 1, 0)
    h = 1 + np.maximum(-e, 0)
    low = [d & k[p] for d, k in zip(digits, keep)]
    high = _shift_bytes([d ^ lo for d, lo in zip(digits, low)], h.astype(_U64))
    del digits
    # strip trailing zeros, and the point when no digit follows it
    last = np.maximum(last, e)
    length = np.where(last < p, last, last + h) + 1
    rows = np.empty((x.size, 3), _U64)
    for j in range(3):
        rows[:, j] = (point[j][e + 4] | low[j] | high[j]) & keep[j][length]
    neg = np.signbit(x)
    if neg.any():
        signed = _shift_bytes(rows.T, _U64(1))
        for j, (word, sign) in enumerate(zip(signed, (ord("-"), 0, 0))):
            rows[:, j] = np.where(neg, word | _U64(sign), rows[:, j])
    return rows.astype("<u8", copy=False).view(np.uint8)


def _format_g17(values: np.ndarray) -> np.ndarray:
    """``"%.17g" % x`` for each x of a float64 array, exactly.

    Returns uint8 rows of 24 bytes: the ASCII text, padded with NULs. Values
    outside 1e-4 <= |x| < 1e14 (zeros, subnormals, large values, nan and
    inf) are formatted by one ``%`` call.
    """
    x = np.asarray(values, dtype=float).ravel()
    a = np.abs(x)
    with np.errstate(invalid="ignore"):
        fast = (a >= 1e-4) & (a < 1e14)
    if fast.all():
        return _positional_rows(x)
    rows = np.empty((x.size, 24), np.uint8)
    rest = x[~fast].tolist()
    text = ("%.17g\n" * len(rest) % tuple(rest)).split("\n")[:-1]
    rows[~fast] = np.array(text, dtype="S24").view(np.uint8).reshape(-1, 24)
    rows[fast] = _positional_rows(x[fast])
    return rows


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
    # each block of about _FRAME_BLOCK_VALUES values is one uint8 matrix of
    # 25-byte fields (text, NUL padding, separator) whose NULs are dropped
    per_block = max(1, _FRAME_BLOCK_VALUES // len(columns))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, lengths.pop(), per_block):
            block = np.column_stack([c[start : start + per_block] for c in columns])
            rows = np.empty(block.shape + (25,), np.uint8)
            rows[..., :24] = _format_g17(block).reshape(*block.shape, 24)
            rows[..., 24] = ord(",")
            rows[:, -1, 24] = ord("\n")
            fh.write(rows[rows != 0])
    _write_meta(path, meta)
    return path


def _frame_blocks(
    times: Sequence[float], x: np.ndarray, frames: Iterable[np.ndarray]
) -> Iterator[np.ndarray]:
    """Yield the ``t,x,v`` rows of the frames, without the header, as
    (frames, n, 75) NUL-padded uint8 blocks of about ``_FRAME_BLOCK_VALUES``
    values of v, at least one frame each.

    The block and its frame buffer are reused, so each block must be
    consumed before the next is drawn.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    t_rows = _format_g17(times)
    count = len(t_rows)
    per_block = max(1, _FRAME_BLOCK_VALUES // max(n, 1))
    rows = np.empty((min(per_block, count), n, 75), np.uint8)
    rows[..., 24] = rows[..., 49] = ord(",")
    rows[..., 25:49] = _format_g17(x)
    rows[..., 74] = ord("\n")
    block = np.empty((len(rows), n))
    for k, v in zip(range(count), frames, strict=True):
        v = np.asarray(v, dtype=float)
        if v.shape != (n,):
            raise TypeError(f"frame {k} has shape {v.shape}, x has {n} points")
        m = k % per_block + 1
        block[m - 1] = v
        if m == per_block or k == count - 1:
            rows[:m, :, :24] = t_rows[k + 1 - m : k + 1, None]
            rows[:m, :, 50:74] = _format_g17(block[:m]).reshape(m, n, 24)
            yield rows[:m]


def write_frames_csv(
    path: Path,
    times: Sequence[float],
    x: np.ndarray,
    frames: Iterable[np.ndarray],
    meta: dict | None = None,
) -> Path:
    """Write frames of v(x, t) as ``t,x,v`` rows plus the metadata side-car.

    The bytes are those of ``write_csv`` on the expanded columns, but no
    expanded column is held in memory.
    """
    with open(path, "wb") as fh:
        fh.write(b"t,x,v\n")
        for rows in _frame_blocks(times, x, frames):
            fh.write(rows[rows != 0])
    _write_meta(path, meta)
    return path


def write_frame_files(
    directory: Path,
    times: Sequence[float],
    x: np.ndarray,
    frames: Iterable[np.ndarray],
    meta: dict | None = None,
) -> list[Path]:
    """Write frame k as ``frame_<k:05d>.csv``, each with its side-car.

    Each file holds the bytes that ``write_frames_csv`` writes for that
    frame alone.
    """
    paths = []
    for rows in _frame_blocks(times, x, frames):
        for frame in rows:
            path = directory / f"frame_{len(paths):05d}.csv"
            path.write_bytes(b"t,x,v\n" + frame[frame != 0].tobytes())
            _write_meta(path, meta)
            paths.append(path)
    return paths


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

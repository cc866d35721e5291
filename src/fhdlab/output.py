"""CSV/JSON writers shared by the command-line workflows.

CSV convention: header row, comma separator, '.' decimal, and every value
written as ``"%.17g" % x``: 17 significant digits, so doubles round-trip
exactly. Every data file is accompanied by a ``<stem>.meta.json`` side-car
embedding the fully resolved run configuration, which makes each output
self-describing.

Every writer formats through ``_format_g17``, a NumPy formatter whose bytes
equal those of ``%`` for every float64, about 2^14 values at a time:
``write_csv`` a block of rows, the trajectory writers x once per file, t once
per frame and v a block of frames. Its digits come from the error-free
(Dekker) two-product of |x| and an exact power of ten, rows of negative values
move up one byte for the "-", and values outside 1e-4 <= |x| < 1e14 pass as
1.0 and then get, by index, the text of one ``%`` call.

Each block is laid out as one uint8 matrix of 24-byte NUL-padded fields
and their separators, and its NULs are dropped once. For the trajectory
writers the block is (frames, n, 75): x is laid out once per file, t is
broadcast over each frame's rows and v fills the last field, so
``write_frames_csv`` writes a block with one call and ``write_frame_files``
drops the NULs of each frame's slice.

Every file goes through ``_rewrite``, which writes over the old bytes of a
file from an earlier run and then cuts it to the length written, instead of
truncating it to zero on open, which frees the file's blocks (the gain on
``lab`` is in BENCH_20.json). New files are created as ``open(path, "wb")``
creates them. A file is cut only when its writer ends, also by an exception:
a run killed while it writes (SIGKILL, an unhandled SIGTERM, the OOM killer)
can leave the new bytes followed by the tail of the run before, where
truncating on open left a file visibly short. Nothing is fsynced, so after a
power loss a rewritten file may also still hold the bytes of the run before.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence

import numpy as np


_FRAME_BLOCK_VALUES = 1 << 14

# Exact "%.17g" in bulk. For 1e-4 <= |x| < 1e14 the text is positional, and
# its exponent E = floor(log10|x|) indexes the per-E tables as s = E + 4. A
# row is 24 bytes, NUL-padded; while it is laid out it is held as three uint64
# words, a column of a (3, n) array, whose bit 8i + j is bit j of byte i, so
# that moving bytes is shifting words.
_U64 = np.uint64
_E = np.arange(-4, 14)
_HIGH = -(1 << 27)  # masks the bits of a double to its top 26 significant bits


def _words(rows: list[bytes]) -> np.ndarray:
    """The (3, len(rows)) uint64 words of rows of up to 24 bytes."""
    w = np.frombuffer(b"".join(r.ljust(24, b"\0") for r in rows), "<u8")
    return w.reshape(-1, 3).T.astype(_U64)


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """Lookup tables, built on first use. For the biased binary exponent b of
    |x|, s0[b] is s at the bottom of the binade and rise[b] the bits of the
    double 10^(E+1), the least double >= 10^(E+1), from which s is one more;
    s is -1 below 1e-4 and 18 from 1e14 on, nan and inf included. By s:
    pow10 = 10^(16-E), exact, and by_s the words that keep the first
    p = max(E+1, 0) digits, 8 h for the h bytes that the others move up, and
    those bytes ("." or "0.0..."). keep[:, 17 s + last] keeps the text up to
    the last digit that is not 0. quad[q]: the ASCII digits of q < 10^4.
    """
    b = np.arange(2048)
    e0 = np.floor((b - 1023) * np.log10(2.0)).astype(np.int64)
    live = (b >= 1009) & (b < 1070)  # the binades that meet [1e-4, 1e14)
    s0 = np.where(live, e0 + 4, np.where(b < 1009, -1, 18))
    rise = np.full(2048, 2**63 - 1)
    rise[live] = np.array([float(f"1e{e + 1}") for e in e0[live]]).view(np.int64)
    pow10 = np.array([float(10 ** (16 - e)) for e in _E.tolist()])
    p = np.maximum(_E + 1, 0)
    h = 1 + np.maximum(-_E, 0)
    keep = _words([b"\xff" * k for k in range(25)])
    point = _words([b"0." + b"0" * (-e - 1) if e < 0 else b"\0" * (e + 1) + b"."
                    for e in _E])
    by_s = np.concatenate([keep[:2, p], [(8 * h).astype(_U64)], point[:2]])
    last = np.maximum(np.arange(17), _E[:, None])
    length = np.where(last > _E[:, None], last + h[:, None], last) + 1
    q = np.arange(10000, dtype=_U64)
    quad = sum((q // _U64(10**k) % _U64(10) + _U64(48)) << _U64(8 * (3 - k))
               for k in range(4))
    return s0, rise, pow10, by_s, keep[:, length.ravel()], quad


def _decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """s = E + 4 and the 17 digits N = round_half_even(|x| 10^(16-E)) of each
    x, and the indices of the x outside 1e-4 <= |x| < 1e14 (given those of 1.0).

    hi = a P is an even integer (hi >= 1e16 > 2^53) and lo = a P - hi exactly,
    from halves of a = |x| and P whose products are exact. N < 1e17: the
    largest double below 10^k, -4 <= k <= 14, is 8.3 units of digit 17 below.
    """
    s0, rise, pow10 = _tables()[:3]
    bits = x.view(np.int64) & (2**63 - 1)
    b = bits >> 52
    s = s0.take(b)
    s += bits >= rise.take(b, out=b)
    rest = np.flatnonzero(s.view(_U64) >= 18)
    bits[rest] = np.float64(1.0).view(np.int64)
    s[rest] = 4
    a = bits.view(float)
    P = pow10.take(s)
    hi = a * P
    ph = (P.view(np.int64) & _HIGH).view(float)
    P -= ph
    ah = (bits & _HIGH).view(float)
    al = a - ah
    lo = ah * ph
    lo -= hi
    ph *= al
    lo += ph
    ah *= P
    lo += ah
    al *= P
    lo += al
    n = hi.astype(_U64)
    n += np.rint(lo, out=lo).astype(np.int64).view(_U64)
    return s, n, rest


def _digit_words(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17 ASCII digits of n as bytes 0-16 of (3, n.size) words, and the
    index of the last digit that is not 0. Overwrites n."""
    quad = _tables()[5]
    top = n // 10**8
    m = np.stack([top, n])
    m -= m // 10**8 * 10**8  # digits 1-8 and 9-16
    n //= 10**16
    high = m // 10**4  # digits 1-4 and 9-12; m keeps 5-8 and 13-16
    m -= high * 10**4
    d = np.empty((3, n.size), _U64)
    c = quad.take(high.view(np.int64))
    np.left_shift(c, 8, out=d[:2])
    quad.take(m.view(np.int64), out=c)
    np.right_shift(c[1], 24, out=d[2])
    d[1] |= c[0] >> 24
    c <<= 40
    d[:2] |= c
    n += 48
    d[0] |= n
    del top, m, high, c  # freed before the float copies below: a lower peak
    # the top nonzero byte of the digits less "0", from the exponent of each
    # word as a float (exact, as no such byte exceeds 9); negative if none
    t = (d ^ np.array([[0x3030303030303030] * 2 + [0x30]], _U64).T).astype(float)
    t = t.view(np.int64) >> 52
    t += np.array([[-1023], [64 - 1023], [128 - 1023]])
    t >>= 3
    return d, t.max(axis=0)


def _format_g17(values: np.ndarray) -> np.ndarray:
    """``"%.17g" % x`` for each x of a float64 array, exactly.

    Returns uint8 rows of 24 bytes: the ASCII text, padded with NULs.
    """
    by_s, keep = _tables()[3:5]
    x = np.asarray(values, dtype=float).ravel()
    s, n, rest = _decimal(x)
    d, last = _digit_words(n)
    # digits [0, p) stay, the others move up by h bytes for "." or "0.0..."
    kp, shift, point = np.split(by_s.take(s, axis=1), [2, 3])
    kp &= d[:2]
    d[:2] ^= kp
    high = d[:2] >> 64 - shift  # the bytes that cross into the next word
    d <<= shift
    d[1:] |= high
    d[:2] |= kp
    d[:2] |= point
    s *= 17
    s += last
    kept = keep.take(s, axis=1)
    rows = np.empty((x.size, 3), _U64)
    sign = x.view(_U64) >> 63
    if sign.any():  # the row of a negative value moves up one byte for "-"
        d &= kept
        np.left_shift(sign, 3, out=shift[0])
        np.left_shift(d, shift, out=rows.T)
        np.subtract(64, shift, out=shift)
        rows.T[1:] |= d[:2] >> shift
        rows.T[0] |= sign * ord("-")
    else:
        np.bitwise_and(d, kept, out=rows.T)
    rows = rows.view(np.uint8)
    if rest.size:
        text = ("%.17g\n" * rest.size % tuple(x[rest].tolist())).split("\n")[:-1]
        rows[rest] = np.array(text, "S24").view(np.uint8).reshape(-1, 24)
    return rows


@contextlib.contextmanager
def _rewrite(path: Path) -> Iterator[BinaryIO]:
    """Open ``path`` for writing from its first byte, without truncating it;
    on exit, also by an exception, cut it where the writing stopped, so that
    no byte of an earlier, longer file is left.

    The cut is at the kernel's file position after a flush, also when that
    flush fails (EIO, ENOSPC), so bytes still buffered are not counted. A
    file that was empty is not cut: ``ftruncate`` fails on devices such as
    /dev/null and ``lseek`` on pipes, which ``open(path, "wb")`` writes to.
    An ``OSError`` names ``path`` where the failing call did not.
    """
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0),
                     0o666)
        with open(fd, "wb") as fh:
            old_size = os.fstat(fd).st_size
            try:
                yield fh
            finally:
                if old_size:
                    try:
                        fh.flush()
                    finally:
                        end = os.lseek(fd, 0, os.SEEK_CUR)
                        if end < old_size:
                            os.ftruncate(fd, end)
    except OSError as exc:
        if exc.filename is None:
            exc.filename = str(path)
        raise


def _write_text(path: Path, text: str) -> None:
    with _rewrite(path) as fh:
        fh.write(text.encode())


def _write_meta(data_path: Path, meta: dict | None) -> None:
    if meta is None:
        return
    meta_path = data_path.with_name(data_path.stem + ".meta.json")
    _write_text(meta_path, json.dumps(meta, sort_keys=True, indent=2) + "\n")


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
    with _rewrite(path) as fh:
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
    with _rewrite(path) as fh:
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
            with _rewrite(path) as fh:
                fh.write(b"t,x,v\n")
                fh.write(frame[frame != 0])
            _write_meta(path, meta)
            paths.append(path)
    return paths


def write_json(path: Path, payload, meta: dict | None = None) -> Path:
    """Write a JSON document plus its metadata side-car."""
    _write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    _write_meta(path, meta)
    return path

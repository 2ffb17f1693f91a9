"""Dense complex linear-algebra kernels.

Matrices throughout the package are plain ``numpy.ndarray`` objects with
dtype ``complex128`` in row-major layout.  All problem sizes are tiny
(centers are a handful of sites).  Inverses and determinants go to LAPACK
through ``numpy.linalg`` and accept a single matrix or a ``(K, N, N)``
stack, so a whole grid of points costs one call; a matrix whose reciprocal
condition is at most ``RCOND_MIN`` counts as singular.

The shared on-disk matrix format is JSON::

    {"n": 2, "re": [[...], [...]], "im": [[...], [...]]}

Non-square matrices (channel-coupling blocks) carry explicit ``rows`` and
``cols`` keys instead of ``n``.  Parsers reject ragged rows and non-finite
entries.

CSV text comes from :func:`csv_text`, which formats a float table in numpy
with the same bytes as Python's ``'%.17g' % value`` for every cell.  A
column of a few distinct values repeated down the table, a
:class:`RepeatedColumn`, has each of them formatted once.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from typing import Any, NamedTuple

import numpy as np

from .errors import SingularMatrixError

# Singularity threshold on the 1-norm reciprocal condition 1/(|A|_1 |A^-1|_1).
# At or below it invert() raises SingularMatrixError instead of returning an
# inverse dominated by rounding error.
RCOND_MIN = 1e-12


def as_complex_matrix(a: Any, *, square: bool = False, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a finite 2-D complex128 array (copy only if needed)."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"{name} must be 2-D with at least one entry, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    if square and arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    return arr


def frozen_matrix(a: Any, *, square: bool = False, name: str = "matrix") -> np.ndarray:
    """A read-only copy of ``a``, checked by :func:`as_complex_matrix`: a frozen matrix field."""
    arr = as_complex_matrix(a, square=square, name=name).copy()
    arr.setflags(write=False)
    return arr


def _as_square(a: Any) -> np.ndarray:
    """Coerce ``a`` to a finite complex128 square matrix or ``(K, N, N)`` stack."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim not in (2, 3) or arr.shape[-1] != arr.shape[-2] or arr.shape[-1] < 1:
        raise ValueError(f"A must be a square matrix or a stack of them, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("A contains NaN or Inf entries")
    return arr


def frob(a: np.ndarray):
    """Frobenius norm: a plain float for one matrix, an array for a stack."""
    norms = np.linalg.norm(a, axis=(-2, -1))
    return float(norms) if norms.ndim == 0 else norms


def invert(a: np.ndarray) -> np.ndarray:
    """Inverse of a square matrix, or of each matrix in a ``(K, N, N)`` stack.

    One batched LAPACK call.  Raises :class:`SingularMatrixError` when a
    matrix is exactly singular or its reciprocal condition
    ``1/(|A|_1 |A^-1|_1)`` is at most ``RCOND_MIN``; for a stack the error's
    ``index`` is the first offending matrix.
    """
    a = _as_square(a)
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        # An exact zero pivot makes LAPACK's determinant exactly zero.
        index = int(np.flatnonzero(np.linalg.det(a) == 0)[0]) if a.ndim == 3 else None
        raise SingularMatrixError("matrix is exactly singular", index=index) from exc
    rcond = 1.0 / (np.linalg.norm(a, 1, axis=(-2, -1)) * np.linalg.norm(inv, 1, axis=(-2, -1)))
    singular = ~(rcond > RCOND_MIN)
    if np.any(singular):
        index = int(np.argmax(singular)) if a.ndim == 3 else None
        first = float(rcond if index is None else rcond[index])
        raise SingularMatrixError(
            f"reciprocal condition {first:.3e} at or below {RCOND_MIN:g}", index=index
        )
    return inv


def determinant(a: np.ndarray):
    """Determinant from LAPACK's LU: a complex for one matrix, an array for a stack.

    An exactly singular matrix gives exactly 0.
    """
    det = np.linalg.det(_as_square(a))
    return complex(det) if det.ndim == 0 else det


def matrix_to_json(a: np.ndarray) -> dict:
    """Serialize a matrix to the shared JSON format (square uses ``n``)."""
    a = as_complex_matrix(a)
    rows, cols = a.shape
    payload: dict[str, Any] = {"n": rows} if rows == cols else {"rows": rows, "cols": cols}
    payload["re"] = [[float(v) for v in row] for row in a.real]
    payload["im"] = [[float(v) for v in row] for row in a.imag]
    return payload


def matrix_from_json(obj: dict) -> np.ndarray:
    """Parse the shared JSON matrix format, rejecting ragged or non-finite data."""
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON must be an object")
    if "n" in obj:
        rows = cols = obj["n"]
    elif "rows" in obj and "cols" in obj:
        rows, cols = obj["rows"], obj["cols"]
    else:
        raise ValueError("matrix JSON needs either 'n' or 'rows'/'cols'")
    if not all(isinstance(v, int) and not isinstance(v, bool) and v >= 1 for v in (rows, cols)):
        raise ValueError(f"invalid matrix dimensions {rows}x{cols}")
    parts = []
    for key in ("re", "im"):
        block = obj.get(key)
        if not isinstance(block, list) or len(block) != rows:
            raise ValueError(f"'{key}' must be a list of {rows} rows")
        for i, row in enumerate(block):
            if not isinstance(row, list) or len(row) != cols:
                raise ValueError(f"'{key}' row {i} is ragged (expected {cols} entries)")
        parts.append(np.asarray(block, dtype=np.float64))
    arr = parts[0] + 1j * parts[1]
    return as_complex_matrix(arr, name="matrix JSON")


# ---------------------------------------------------------------------------
# CSV text: every cell as '%.17g' % value writes it, formatted in numpy

# cells formatted and written at a time; bounds the buffers for any table
CSV_CHUNK_CELLS = 8192
# the longest '%.17g' text, "-1.2345678901234567e-308", and one separator
_CELL_WIDTH = 25
# decimal exponents X of the table: every double's, -324 to 308, and one
# either side for a first estimate that is one off
_MIN_EXP10, _MAX_EXP10 = -325, 309
# a cell whose scaled fraction is this close to 1/2 may be a decimal tie, or
# too close to one for the fast path's error (below 2**-45) to round it
_TIE_MARGIN = 2.0 ** -30


# the powers of ten come in blocks of this many exponents, each built the
# first time the exponents of a chunk of cells span it
_POWER_BLOCK = 32


@functools.cache
def _power_block(block: int) -> np.ndarray:
    """Rows ``hi``, ``lo`` and ``scale`` of the exponents X of one block, the
    ``_POWER_BLOCK`` from ``_MIN_EXP10 + block * _POWER_BLOCK`` up.

    ``|x| * scale`` is ``|x|`` times a power of two that keeps it and its
    Veltkamp split in the normal range, and ``hi + lo`` is
    ``10**(16 - X) / scale`` to about 2**-106, from integer arithmetic.
    """
    powers = []
    first = _MIN_EXP10 + block * _POWER_BLOCK
    for x in range(first, first + _POWER_BLOCK):
        b = 600 if x < -200 else -600 if x > 200 else 0
        q = 16 - x
        num = 10 ** max(q, 0) << max(-b, 0)
        den = 10 ** max(-q, 0) << max(b, 0)
        e = num.bit_length() - den.bit_length()  # 2**(e - 1) < num / den < 2**(e + 1)
        if num << max(-e, 0) >= den << max(e, 0):
            e += 1
        # num / den to 110 bits: the top 53 are hi, the rest rounded are lo
        shift = 110 - e
        a = (num << shift) // den if shift >= 0 else num // (den << -shift)
        powers.append((math.ldexp(a >> 57, e - 53), math.ldexp(a & ((1 << 57) - 1), e - 110),
                       math.ldexp(1.0, b)))
    return np.array(powers).T


def _powers_of_ten(exp10: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``hi``, ``lo`` and ``scale`` (see :func:`_power_block`) of each
    exponent, taken from the blocks that span the exponents."""
    low, high = (int(exp10.min()), int(exp10.max())) if exp10.size else (0, 0)
    first = (low - _MIN_EXP10) // _POWER_BLOCK
    last = (high - _MIN_EXP10) // _POWER_BLOCK
    table = np.concatenate([_power_block(block) for block in range(first, last + 1)], axis=1)
    index = exp10 - (_MIN_EXP10 + first * _POWER_BLOCK)
    return table[0].take(index), table[1].take(index), table[2].take(index)


@functools.cache
def _text_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The text pieces of a cell, built with numpy on first use.

    The 4-digit groups 0000 to 9999 as four ASCII bytes in one ``uint32``;
    the trailing zeros of each group (4 for 0000); for 0 to 17 digits kept,
    the mask of ``000d dddd dddd dddd dddd`` that keeps them, as one ``V20``;
    and the exponent ``e±dd`` or ``e±ddd`` of each X as one NUL-padded ``V5``.
    """
    # a group's four digits index the axes, from the thousands to the units
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    groups = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    zeros = np.zeros((10, 10, 10, 10), dtype=np.uint8)
    for k in range(4):
        groups[..., k] = digit.reshape((10,) + (1,) * (3 - k))
        zeros[(..., *[0] * (k + 1))] += 1  # the last k + 1 digits are 0
    masks = np.where(np.arange(-3, 17) < np.arange(18)[:, None], 0xFF, 0).astype(np.uint8)
    x = np.arange(_MIN_EXP10, _MAX_EXP10 + 1)
    size = np.abs(x)
    exponents = np.stack([np.full_like(x, ord("e")), np.where(x < 0, ord("-"), ord("+")),
                          np.where(size >= 100, ord("0") + size // 100, 0),
                          ord("0") + size // 10 % 10, ord("0") + size % 10], axis=1)
    return (groups.view(np.uint32).ravel(), zeros.ravel().astype(np.int64),
            masks.view("V20").ravel(), exponents.astype(np.uint8).view("V5"))


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of doubles into 26-bit halves, ``a == high + low``."""
    c = a * 134217729.0  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


def _scaled(mag: np.ndarray, exp10: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``mag * 10**(16 - exp10)``: its floor and its fraction.

    The product is a double-double, Dekker's exact product of the high
    parts plus the low part's, so the fraction is off by less than 2**-45
    while the floor is below 2**57, as it is once ``exp10`` is right.
    """
    hi, lo, scale = _powers_of_ten(exp10)
    x = mag * scale
    p = x * hi
    xh, xl = _split(x)
    hh, hl = _split(hi)
    err = ((xh * hh - p) + xh * hl + xl * hh) + xl * hl
    whole = np.floor(p)
    rest = (p - whole) + (err + x * lo)
    carry = np.floor(rest)
    return whole.astype(np.int64) + carry.astype(np.int64), rest - carry


def _fallback(value: float) -> bytes:
    """Python's own ``'%.17g' % value``, for the cells the fast path leaves."""
    return ("%.17g" % value).encode()


def _copy(target: np.ndarray, source: np.ndarray) -> None:
    """Copy rows of bytes as one item each: numpy loops once, not once per row."""
    if target.shape[1]:
        item = f"V{target.shape[1]}"
        target.view(item)[:] = source.view(item)


def _g17_cells(values: np.ndarray) -> np.ndarray:
    """``'%.17g' % v`` of each value as one row of ASCII bytes, NUL-padded.

    Each finite nonzero value is rounded to 17 significant digits ``N`` with
    decimal exponent ``X`` (``10**16 <= N < 10**17``), then laid out as
    ``%g`` does: trailing zeros stripped, fixed-point for ``-4 <= X < 17``,
    else ``d.ddde±XX``.  Values that the fast path does not round with
    certainty (decimal ties), inf and nan are formatted by Python instead.
    The last column is left for the caller's separator.
    """
    n = len(values)
    finite = np.isfinite(values)
    zero = values == 0.0
    mag = np.abs(np.where(finite & ~zero, values, 1.0))
    exp10 = np.floor(np.log10(mag)).astype(np.intp)
    whole, frac = _scaled(mag, exp10)
    # log10 can put X one off next to a power of ten; the floor shows which way
    off = np.flatnonzero((whole < 10 ** 16) | (whole >= 10 ** 17))
    if off.size:
        exp10[off] += np.where(whole[off] < 10 ** 16, -1, 1)
        whole[off], frac[off] = _scaled(mag[off], exp10[off])
    digits = whole + (frac > 0.5)
    rounds_up = digits == 10 ** 17
    digits[rounds_up] = 10 ** 16
    exp10[rounds_up] += 1
    python = ~finite | (np.abs(frac - 0.5) < _TIE_MARGIN)
    python |= (digits < 10 ** 16) | (digits >= 10 ** 17)
    digits[zero] = 0
    exp10[zero] = 0

    # each layout fills a contiguous run of the cells sorted by it: 0 to 20 are
    # fixed-point with X = layout - 4, 21 is scientific
    fixed = (exp10 >= -4) & (exp10 < 17)
    layout = np.where(fixed, exp10 + 4, 21).astype(np.int8)
    order = np.argsort(layout, kind="stable")
    starts = np.searchsorted(layout[order], np.arange(23))
    digits, exp10, fixed = digits[order], exp10[order], fixed[order]
    negative = np.signbit(values)[order]

    # the 17 digits as text in groups of four, 000d dddd dddd dddd dddd, and
    # how many of them %g keeps: trailing zeros go, but not before the point
    group_text, group_zeros, masks, exponents = _text_tables()
    rest, groups = digits, []
    for _ in range(4):
        quotient = rest // 10000
        groups.insert(0, rest - 10000 * quotient)
        rest = quotient
    groups.insert(0, rest)
    trailing = group_zeros[groups[4]]
    more = np.flatnonzero(groups[4] == 0)
    for group in groups[3:0:-1]:
        trailing[more] += group_zeros[group[more]]
        more = more[group[more] == 0]
    significant = np.where(zero[order], 1, 17 - trailing)
    kept = np.where(fixed, np.maximum(significant, exp10 + 1), significant)
    text = np.stack([group_text[group] for group in groups], axis=1)
    short = np.flatnonzero(kept < 17)
    text[short] &= masks[kept[short]].view(np.uint32).reshape(-1, 5)
    text = text.view(np.uint8)[:, 3:]

    cells = np.zeros((n, _CELL_WIDTH), dtype=np.uint8)
    cells[:, 0] = negative * np.uint8(ord("-"))
    for key in range(22):
        run = slice(starts[key], starts[key + 1])
        if run.start == run.stop:
            continue
        out, run_text = cells[run], text[run]
        if key >= 4:  # the first X + 1 digits (scientific: 1), "." if more follow
            point = 1 if key == 21 else key - 3
            _copy(out[:, 1:1 + point], run_text[:, :point])
            out[:, 1 + point] = (significant[run] > point) * np.uint8(ord("."))
            _copy(out[:, 2 + point:19], run_text[:, point:])
        else:  # "0.", -X - 1 zeros, the digits
            _copy(out[:, 1:6 - key], np.frombuffer(b"0.000"[:5 - key], dtype=np.uint8))
            _copy(out[:, 6 - key:23 - key], run_text)
        if key == 21:
            _copy(out[:, 19:24], exponents[exp10[run] - _MIN_EXP10])
    unsorted = np.empty_like(cells)
    unsorted.view(f"V{_CELL_WIDTH}")[order] = cells.view(f"V{_CELL_WIDTH}")
    for i in np.flatnonzero(python).tolist():
        line = _fallback(values[i])
        unsorted[i] = 0
        unsorted[i, :len(line)] = np.frombuffer(line, dtype=np.uint8)
    return unsorted


class RepeatedColumn(NamedTuple):
    """A table column ``values[rows]`` whose few distinct ``values`` repeat
    down it: :func:`csv_text` formats each of them once."""

    values: np.ndarray
    rows: np.ndarray


def csv_text(columns: np.ndarray | list, tail: str = "") -> Iterator[str]:
    """The CSV rows of a float table, in chunks of about ``CSV_CHUNK_CELLS`` cells.

    ``columns`` is a 2-D table or its column blocks in order, all of one
    length: 1-D columns, 2-D blocks of columns and :class:`RepeatedColumn`
    columns.  Every cell reads as Python's ``'%.17g' % value``, byte for
    byte; a row ends with ``,tail`` when ``tail`` is given, then a newline.
    """
    blocks = [columns] if isinstance(columns, np.ndarray) else list(columns)
    # the pieces of a row: each run of plain blocks as a slice of the bytes of
    # their cells, each repeated column as the texts of its values and its rows
    parts, plain, width = [], [], 0
    for i, block in enumerate(blocks):
        if isinstance(block, RepeatedColumn):
            texts = _g17_cells(np.asarray(block.values, dtype=np.float64))
            texts[:, -1] = ord(",") if i < len(blocks) - 1 else 0
            # only the bytes that some text takes, then the separator
            used = np.flatnonzero(texts[:, :-1].any(axis=0)).max(initial=-1) + 1
            parts.append((texts[:, [*range(used), -1]], np.asarray(block.rows)))
            continue
        plain.append(block)
        if not parts or not isinstance(parts[-1], slice):  # a new run of plain blocks
            parts.append(slice(width * _CELL_WIDTH, None))
        width += 1 if np.ndim(block) == 1 else np.shape(block)[1]
        parts[-1] = slice(parts[-1].start, width * _CELL_WIDTH)
    table = np.column_stack(plain) if plain else np.empty((len(blocks[0].rows), 0))
    end = np.frombuffer(f",{tail}\n".encode() if tail else b"\n", dtype=np.uint8)
    step = max(1, CSV_CHUNK_CELLS // (width + len(blocks) - len(plain)))
    for start in range(0, len(table), step):
        block = np.ascontiguousarray(table[start:start + step], dtype=np.float64)
        n = len(block)
        cells = _g17_cells(block.ravel()).reshape(n, width, _CELL_WIDTH)
        cells[:, :, -1] = ord(",")
        if not isinstance(blocks[-1], RepeatedColumn):
            cells[:, -1, -1] = 0  # the row's end follows its last cell
        cells = cells.reshape(n, -1)
        pieces = [cells[:, part] if isinstance(part, slice)
                  else part[0].take(part[1][start:start + n], axis=0) for part in parts]
        text = np.concatenate([*pieces, np.broadcast_to(end, (n, len(end)))], axis=1)
        yield text.tobytes().translate(None, b"\0").decode()

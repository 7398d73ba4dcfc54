"""Exact vectorised CSV text for numeric columns.

:func:`csv_lines` gives the bytes that formatting each cell of a chunk with
``'%.17g' %`` (a float64 column) or ``'%s' %`` (an integer column), joining a
row's cells with commas and ending it in a newline, would give.  The module
is imported only to write such a chunk, so its tables are built with numpy at
import, on first use.

A float ``x`` with ``1e-4 <= |x| < 1e16`` prints in ``%g``'s fixed notation
from its 17 significant digits ``D``: ``|x| * 10**s`` rounded half to even,
with ``s = 16 - k`` for the decimal exponent ``k`` that puts ``D`` in
``[1e16, 1e17)``.  ``10**s`` is an exact double for ``s <= 22``, and Dekker's
exact two-product (Numer. Math. 18, 1971) gives ``|x| * 10**s`` as ``p + e``,
both doubles.  ``p >= 2**53`` is an even integer, so ``D = p + rint(e)``
exactly, ties going to even.  An integer ``n`` with ``0 < |n| <= 2**53`` is an
exact double whose ``%.17g`` text is ``str(n)``.  Every other cell (zeros,
nan, infinities, the float tails past either bound) is formatted by Python's
``%``.

Each cell is laid out in 40 bytes: ``-0.000``, the 17 digits each followed by
a dot slot, the last slot holding the separator.  A keep-mask indexed by
(sign, exponent, last nonzero digit) marks the cell's text, and
``np.compress`` of the chunk's bytes, a block of rows at a time, gives its
lines.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

_CELL = 40  # bytes per cell; byte 6 + 2*j holds digit j, byte 7 + 2*j its dot slot
_EXPONENTS = np.arange(-4, 16)  # the decimal exponents k of the vectorised floats
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's factor, splitting a double into two halves
_EXACT_INT = 2**53  # integers up to this magnitude are exact doubles
_SELECT_ROWS = 512  # rows per np.compress; bounds its index array (8 bytes per byte kept)


def _split(a):
    """Veltkamp's split: ``a = hi + lo``, each half with at most 26 bits."""
    c = a * _SPLIT
    hi = c - (c - a)
    return hi, a - hi


def _lead_words():
    """Digit 0 with the sign and ``0.000`` in front of it, ``-0.000d.``, for 0..9."""
    lead = np.tile(np.frombuffer(b"-0.0000.", np.uint8), (10, 1))
    lead[:, 6] += np.arange(10, dtype=np.uint8)
    return lead.view(np.uint64).ravel()


def _quad_words():
    """Four digits with their dot slots, ``d.d.d.d.``, for 0..9999."""
    n = np.arange(10000)
    quad = np.full((10000, 8), ord("."), np.uint8)
    quad[:, 0::2] = ord("0") + n[:, None] // np.array([1000, 100, 10, 1]) % 10
    return quad.view(np.uint64).ravel()


def _keep_table():
    """``keep[neg, k + 4, last, byte]``, flattened over its first three axes:
    whether a cell keeps each byte, ``last`` being the index of the last
    nonzero digit of ``D``."""
    neg = np.arange(2)[:, None, None, None].astype(bool)
    k = _EXPONENTS[:, None, None]
    last = np.arange(17)[:, None]
    b = np.arange(_CELL)
    digit = (b - 6) // 2  # the digit a digit byte or dot slot belongs to
    keep = (
        ((b == 0) & neg)
        | ((b >= 1) & (b < 3) & (k < 0))  # "0."
        | ((b >= 3) & (b < 6) & (b - 3 < -k - 1))  # zeros after the point
        | ((b >= 6) & (b % 2 == 0) & (digit <= np.maximum(last, k)))
        | ((b >= 7) & (b % 2 == 1) & (digit == k) & (last > k))  # the point
        | (b == _CELL - 1)  # the separator
    )
    return keep.reshape(-1, _CELL)


# 10**s for s = 0..22, all exact doubles, and their Veltkamp halves.
_POW10 = np.array([float(10**s) for s in range(23)])
_POW10_HI, _POW10_LO = _split(_POW10)
_LEAD = _lead_words()
_QUAD = _quad_words()
# The place (1-4) of a four-digit group's last nonzero digit; far below 0 for 0.
_GROUPS = np.arange(10000)
_LAST_DIGIT = np.where(_GROUPS == 0, -64, 4 - sum(_GROUPS % 10**j == 0 for j in (1, 2, 3)))
_KEEP = _keep_table()
# A cell formatted by Python, of n bytes: those bytes and the separator.
_KEEP_PREFIX = (np.arange(_CELL) < np.arange(_CELL)[:, None]) | (np.arange(_CELL) == _CELL - 1)


def _digits(a, k):
    """``a * 10**(16 - k)`` rounded half to even, exactly, as int64."""
    s = 16 - k
    b, b_hi, b_lo = _POW10[s], _POW10_HI[s], _POW10_LO[s]
    p = a * b
    a_hi, a_lo = _split(a)
    e = a_lo * b_lo - (((p - a_hi * b_hi) - a_lo * b_hi) - a_hi * b_lo)
    return p.astype(np.int64) + np.rint(e).astype(np.int64)


def _fill(column, words, text, keep) -> None:
    """Lay out ``column``'s cells in ``words`` (``text`` as bytes) and mark
    their text in ``keep``."""
    if column.dtype.kind == "f":
        neg = np.signbit(column)
        a = np.abs(column)
        fast = (a >= 1e-4) & (a < 1e16)  # False for nan
        cell_format = "%.17g"
    else:
        neg = column < 0
        fast = (column != 0) & (column <= _EXACT_INT)
        if column.dtype.kind == "i":
            fast &= column >= -_EXACT_INT
        a = np.abs(column.astype(np.float64))
        cell_format = "%s"
    a = np.where(fast, a, 1.0)  # any vectorised value, so log10 stays quiet

    k = np.floor(np.log10(a)).astype(np.intp)
    D = _digits(a, k)
    while True:  # log10's rounding and the carry of rounding D move k by at most 1
        step = (D >= 10**17).astype(np.intp) - (D < 10**16)
        moved = np.flatnonzero(step)
        if moved.size == 0:
            break
        k[moved] += step[moved]
        D[moved] = _digits(a[moved], k[moved])

    d0 = D // 10**16
    rest = D - d0 * 10**16
    groups = []
    for scale in (10**12, 10**8, 10**4):
        group = rest // scale
        rest -= group * scale
        groups.append(group)
    groups.append(rest)

    words[:, 0] = _LEAD[d0]
    last = np.zeros_like(d0)
    for j, group in enumerate(groups):
        words[:, j + 1] = _QUAD[group]
        np.maximum(last, 4 * j + _LAST_DIGIT[group], out=last)
    key = (neg * len(_EXPONENTS) + (k - _EXPONENTS[0])) * 17 + last
    keep[:] = np.take(_KEEP, key, axis=0)

    slow = np.flatnonzero(~fast)
    for i, value in zip(slow.tolist(), column[slow].tolist()):
        cell = (cell_format % value).encode()
        text[i, : len(cell)] = np.frombuffer(cell, np.uint8)
        keep[i] = _KEEP_PREFIX[len(cell)]


def csv_lines(columns) -> Iterator[bytes]:
    """CSV lines of ``columns``: 1-d numpy float64 or integer arrays, all of
    one length."""
    n_rows = len(columns[0])
    words = np.empty((n_rows, 5 * len(columns)), np.uint64)
    text = words.view(np.uint8)
    keep = np.empty(text.shape, bool)
    for c, column in enumerate(columns):
        cells = slice(_CELL * c, _CELL * (c + 1))
        _fill(column, words[:, 5 * c : 5 * (c + 1)], text[:, cells], keep[:, cells])
    text[:, _CELL - 1 :: _CELL] = ord(",")
    text[:, -1] = ord("\n")
    for i in range(0, n_rows, _SELECT_ROWS):
        rows = slice(i, i + _SELECT_ROWS)
        yield np.compress(keep[rows].ravel(), text[rows].ravel()).tobytes()

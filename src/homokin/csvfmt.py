"""The CSV dialect: comma, dot decimals, '%.17g' floats, LF endings, UTF-8.

Float columns are formatted in bulk, to exactly the bytes of ``'%.17g' % v``
(Python's correctly rounded conversion, Gay 1990).  A value x with decimal
exponent e (10^e <= |x| < 10^(e+1)) has the 17 digits of the integer
nearest d = |x| 10^(16-e).  For -11 <= e <= 16 the power 10^(16-e) is
exact in a long double with a 64-bit mantissa (5^27 < 2^64), so 128 d is
computed with one rounding, by one product, and
|d - exact| <= 10^17 2^-64 < 0.0055.  Rounding d to the nearest integer
therefore gives the exact digits whenever the fraction of d lies at least
1/128 away from one half.  Every other value is formatted by '%' one
value at a time: such near-ties (exact ties included), d of
99999999999999999.5 and up (whose digits round to the next power of ten),
+-0, +-inf, nan, exponents outside that range, and every value on a
platform whose long double arithmetic rounds to fewer than 64 mantissa
bits (``_wide_enough``).

A float's field is four 8-byte words: '0000', '000' and the 17 digits
at bytes 7..23, whose bytes from the decimal point on are moved up by
one before the point and the sign are written in; the exponent of the
scientific form goes to bytes 28..31.  A mask keeps one run of bytes and
the exponent, so joining the fields of a row is one masked copy; byte 0
of each field takes the comma or LF before it.  Files of at most
``_SMALL`` rows, where the bulk path's set-up costs more than it saves,
are formatted one value at a time, as are text columns.
"""

import functools

import numpy as np

_LD, _U8 = np.longdouble, np.dtype("<u8")  # words of 8 bytes, first byte lowest


def _wide_enough(dtype) -> bool:
    """Whether arithmetic in ``dtype`` rounds to at least 64 mantissa bits."""
    return bool(dtype(1) + np.ldexp(dtype(1), -63) > 1)


_EXACT = _wide_enough(_LD)
_E_LO, _E_HI = -11, 16  # 16 - e <= 27
_SMALL, _CHUNK = 256, 4096  # rows: the bulk path's set-up pays from ~200 values on


@functools.cache
def _tables():
    """Tables of the bulk path, built on its first call.

    10^0..10^27 as long doubles; the 4-digit groups 0..9999 as uint32 and
    their trailing zeros; word masks by (point, sign byte): bytes before
    the point, bytes after it, and the point and sign; the exponent by e;
    kept bytes by (sci, run).
    """
    ten = np.ldexp(5 ** np.arange(28, dtype=np.int64).astype(_LD), np.arange(28))
    i4 = np.indices((10,) * 4, np.uint8).reshape(4, -1)  # the digits of 0..9999
    digits4 = (i4.T + 48).copy().view(np.uint32).ravel()
    tz4 = np.logical_and.accumulate(i4[::-1] == 0).sum(0, dtype=np.uint8)  # 4 for 0
    p = np.arange(32, dtype=np.uint8)
    dot, sign = p[:25, None, None], p[:8, None]  # sign 0: none
    point, minus, none = np.uint8(46), np.uint8(45), np.uint8(0)
    lit = np.where(p == dot, point, np.where((p == sign) & (sign > 0), minus, none))
    masks = np.stack(np.broadcast_arrays((p < dot) & (p != sign), p > dot, lit))
    masks = (masks * np.array([255, 255, 1], np.uint8)[:, None, None, None]).view(_U8)
    e = np.arange(_E_LO, _E_HI + 1)  # 'e-' and two digits in bytes 4..7, below 1e-4
    exponent = (101 | 45 << 8 | (48 + -e // 10) << 16 | (48 + -e % 10) << 24) * (e < -4)
    runs = (p >= p[:8, None, None]) & (p < np.arange(26)[:, None])
    return (
        ten, digits4, tz4, *masks.reshape(3, -1, 4), exponent.astype(np.uint64) << 32,
        np.stack([runs, runs | (p >= 28)]).reshape(-1, 32),
    )


def _texts(texts, width=None):
    """(rows, kept bytes) of a list of byte strings, from byte 1 on."""
    lengths = np.fromiter(map(len, texts), np.intp, len(texts))
    keep = np.arange(-1, lengths.max(initial=0) if width is None else width - 1)
    keep = (keep >= 0) & (keep < lengths[:, None])
    rows = np.zeros(keep.shape, np.uint8)
    rows[keep] = np.frombuffer(b"".join(texts), np.uint8)
    return rows, keep


def _floats(x):
    """(rows, kept bytes) of '%.17g' % v for the float64 values of ``x``."""
    ten, digits4, tz4, before, after, point, exponent, runs = _tables()
    a = np.abs(x)
    fast = (a >= 1e-11) & (a < 1e17) & _EXACT
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)
    a = (128 * a).astype(_LD)
    q = (a * np.take(ten, np.clip(16 - e, 0, 27))).astype(np.uint64)  # floor(128 d)
    for step, off in ((-1, q < 128 * 10**16), (1, q >= 128 * 10**17)):  # log10 at 10^k
        if off.any():
            e[off] += step
            q[off] = a[off] * np.take(ten, np.clip(16 - e[off], 0, 27))
    # d in [1e16, 1e17 - 1/2): 99999999999999999.5 and up print the next power of ten
    fast &= (e >= _E_LO) & (e <= _E_HI) & (q >= 128 * 10**16) & (q < 128 * 10**17 - 64)
    fast &= (q - 63) & 127 >= 2  # d is at least 1/128 from a half
    digits = ((q + 64) >> 7).astype(np.int64)
    lead = digits // 10**16
    high = digits // 10**8 - lead * 10**8
    low = digits % 10**8
    groups = [high // 10**4, low // 10**4]
    groups = [groups[0], high - 10**4 * groups[0], groups[1], low - 10**4 * groups[1]]
    words = np.zeros((len(x), 8), np.uint32)
    for col, group in enumerate([0, lead] + groups):
        words[:, col] = np.take(digits4, group)
    tz = np.take(tz4, groups[0])  # trailing zeros of the last 16 digits
    for group in groups[1:]:
        tz = np.take(tz4, group) + (group == 0) * tz
    sci = (e < -4) | (e > 16)  # e > 16 only where the value takes '%'
    fixed_e = np.where(sci, 0, e)  # d.ddd is the fixed form of e = 0
    dot, start = fixed_e + 8, 7 + np.minimum(fixed_e, 0)  # 0.000ddd from 7 + e
    fraction = 16 - tz - fixed_e  # digits after the point
    end = dot + (fraction > 0) * (fraction + 1)
    neg = np.signbit(x)
    words = words.view(_U8)
    moved = words << 8  # up by one byte; each row's last byte is 0
    moved.reshape(-1)[1:] |= (words.reshape(-1) >> 56)[:-1]
    form = 8 * dot + neg * (start - 1)
    words &= np.take(before, form, axis=0)
    moved &= np.take(after, form, axis=0)
    words |= moved
    words |= np.take(point, form, axis=0)
    words[:, 3] |= np.take(exponent, np.clip(e, _E_LO, _E_HI) - _E_LO)
    rows = words.view(np.uint8)
    keep = np.take(runs, (8 * sci + start - neg) * 26 + end, axis=0)
    slow = np.flatnonzero(~fast)
    if slow.size:
        rows[slow], keep[slow] = _texts(_values(x[slow]), 32)
    return rows, keep


class CsvText:
    """A column in the dialect's bytes: rows, and the mask of their kept bytes."""

    __slots__ = ("rows", "keep")

    def __init__(self, rows, keep):
        self.rows, self.keep = rows, keep

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, rows):
        return CsvText(self.rows[rows], self.keep[rows])


def _is_floats(column) -> bool:
    return isinstance(column, np.ndarray) and column.dtype.kind == "f"


def _values(column) -> list:
    """The text of each value: '%.17g' for floats, '%s' for the rest, as UTF-8."""
    if isinstance(column, CsvText):
        return [row[keep].tobytes() for row, keep in zip(column.rows, column.keep)]
    if _is_floats(column):
        return [b"%.17g" % v for v in column.tolist()]
    return [
        (("%.17g" if isinstance(v, (float, np.floating)) else "%s") % (v,)).encode()
        for v in column
    ]


def csv_text(column) -> CsvText:
    """The dialect's text of one column, formatted once and shared by several files.

    A float array of more than ``_SMALL`` values is formatted in bulk; any
    other column one value at a time (``_values``).  Text may hold any
    character, NUL included.  ``write_csv`` puts a ``CsvText`` into its
    files as it is, so the bytes equal those of passing ``column`` itself.
    """
    if isinstance(column, CsvText):
        return column
    if _is_floats(column) and len(column) > _SMALL:
        return CsvText(*_floats(column.astype(np.float64, copy=False)))
    return CsvText(*_texts(_values(column)))


def _join(columns) -> np.ndarray:
    """The bytes of rows of ``CsvText`` columns, each row led by LF and each
    further field by a comma, written into the fields' first bytes."""
    rows = np.concatenate([c.rows for c in columns], axis=1)
    keep = np.concatenate([c.keep for c in columns], axis=1)
    at = 0
    for column in columns:
        rows[:, at], keep[:, at] = 44, True  # ','
        at += column.rows.shape[1]
    rows[:, 0] = 10  # LF
    return rows[keep]


def write_csv(path, header: str, *columns) -> None:
    """Write a CSV file in the dialect: a header line, then one row per value.

    ``columns`` are at least one, all of equal length, each a float array,
    a ``csv_text`` column or a sequence of values.  A file of more than
    ``_SMALL`` rows is written in blocks of ``_CHUNK`` rows, its float
    arrays formatted in bulk block by block.  ValueError, before the file
    is opened, when the columns differ in length.
    """
    columns = [c if isinstance(c, (np.ndarray, CsvText)) else list(c) for c in columns]
    lengths = list(map(len, columns))
    if min(lengths) != max(lengths):
        raise ValueError(f"CSV columns differ in length: {lengths}")
    with open(path, "wb") as fh:
        fh.write(header.encode())  # each row starts with the LF before it
        if lengths[0] <= _SMALL:
            fh.write(b"\n".join([b""] + list(map(b",".join, zip(*map(_values, columns))))))
        else:
            columns = [c if _is_floats(c) else csv_text(c) for c in columns]
            for lo in range(0, lengths[0], _CHUNK):
                fh.write(_join([csv_text(c[lo:lo + _CHUNK]) for c in columns]))
        fh.write(b"\n")

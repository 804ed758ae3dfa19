"""The package's CSV front end, the ``x,y`` CSV reader and writer shared
by the sample and cloud tools, and the numpy number formatting of both the
writer and the SVG plots.

Every reader takes its header, records, row numbers and refusals from
:func:`read_records`, and no numpy tier is given text with :data:`SEPARATORS`.

Neither ``x,y`` direction holds a Python object for every row of a file, nor
more than one chunk of rows beside the columns. The writer takes two arrays
or a sized stream of ``(x, y)`` pieces, such as ``fif.AttractorBlocks``,
whose pieces it writes as they come; it gathers rows into fixed chunks and
formats them in numpy, into the bytes ``repr`` gives each float. The
reader hands the body, less its whitespace-only lines, to ``np.loadtxt`` a
chunk at a time, straight into two columns sized by the file's line breaks,
and reruns the row-by-row loop only when numpy refuses a chunk. That loop
alone decides refusals and their row numbers. Field lengths are not scanned
(that took the line count of a 33 MB sample from 11 to 51 ms), so numpy may
read a body field over ``csv.field_size_limit()``, which the loop refuses,
in a column it skips or as a number it parses as ``float`` would.

The ``repr`` of a float is the shortest decimal that reads back as the same
double, the nearest to it where several are that short. The writer finds
those digits with Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020), in the 64-bit form of A. Bolz's ``drachennest``: one 128-bit
power of ten per value, and 64 x 64 -> 128-bit products built from 32-bit
limbs in ``uint64``. It is integer arithmetic throughout, with no float
rounding, and Schubfach's proof covers every finite double, subnormals
included. The digits are then laid out by ``repr``'s rules in fixed-width
byte slots, and each chunk is written in one call.

:func:`fixed_pairs` lays out plot coordinates in the same slots, as
``"{:.2f}"`` gives them: each value is rounded to hundredths in integer
arithmetic on the double's exact binary value, ties to even, and its digits
come from the same routine.
"""

from __future__ import annotations

import csv
import warnings
from functools import cache, partial
from itertools import count, filterfalse
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import ComputationError, InputError

# A chunk takes about 380 B a row of transient heap, 0.77 MB at 2^11 rows.
# Smaller chunks pay numpy's per-call cost (2^10 rows took about 0.1 s more
# on 1,000,001 rows); larger ones are no faster. ``report`` writes at its
# memory peak, so the chunk stays small.
CHUNK_ROWS = 1 << 11

_SIGN = np.uint64(1 << 63)
_INF = np.uint64(0x7FF << 52)  # bits of inf; larger magnitudes are NaN
_ONE = np.uint64(0x3FF << 52)  # bits of 1.0
_LOW32 = np.uint64(0xFFFFFFFF)
_ZEROS = np.uint64(0x3030303030303030)  # eight ASCII '0' in one word
_POW10 = np.array([10**i for i in range(18)], dtype=np.uint64)
# Schubfach scales by 10^e for e = -floor(log10 2^q), q over the binary
# exponents of doubles: e in [-292, 324].
_E_MIN, _E_MAX = -292, 324
# The texts of 0, NaN and inf, which have no digits to find: three bytes each.
_SPECIALS = (b"0.0", b"nan", b"inf")
_SPECIAL_WORDS = np.array(
    [int.from_bytes(text.rjust(8, b"0"), "little") for text in _SPECIALS], dtype=np.uint64
)
# The bytes of a slot whose text starts at column c, at index c: c through 24.
_KEPT = (np.arange(32) >= np.arange(24)[:, None]) & (np.arange(32) <= 24)
# The separators \x1c-\x1f: whitespace to numpy's number parser, not to ``float``.
SEPARATORS = "\x1c\x1d\x1e\x1f"


def write_xy_csv(
    path: str | Path,
    x: np.ndarray | Iterable[tuple[np.ndarray, np.ndarray]],
    y: np.ndarray | None = None,
) -> None:
    """Write an ``x,y`` header and one ``repr(x),repr(y)`` line per point.

    The points are the arrays ``x`` and ``y``, or, where ``y`` is None, a
    sized stream ``x`` of ``(x, y)`` pieces (``fif.AttractorBlocks``):
    pairs of equal-shape arrays whose points, in C order, are the rows,
    ``len(x)`` of them in all. A piece is written as it comes, and none is
    held past its write.

    Rows are formatted ``CHUNK_ROWS`` at a time in numpy, byte for byte as
    ``repr`` would: positional where the decimal point falls from 10^-4 up
    to 10^16, ``d.ddde+XX`` beyond, ``-0.0``, ``inf``, ``-inf``, and
    ``nan`` for every NaN. Refuses (writing nothing) an ``x`` or ``y`` that
    is not 1-D, and an ``x`` and ``y`` of different lengths. Raises
    ``ComputationError``, and removes the file, where a stream yields more
    or fewer rows than its length.
    """
    if y is None:
        pieces = _counted(x)
    else:
        x, y = xy_arrays(x, y)
        pieces = [(x, y)]
    handle = open(path, "wb")
    try:
        with handle:
            handle.write(b"x,y\n")
            for text in _texts(pieces, len(x), _fill, b"\n"):
                handle.write(text)
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise


def xy_arrays(x, y) -> tuple[np.ndarray, np.ndarray]:
    """``x`` and ``y`` as float arrays, refused unless 1-D and of one length."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.ndim != 1:
        raise InputError(f"x and y must be 1-D, got shapes {x.shape} and {y.shape}")
    if len(x) != len(y):
        raise InputError(f"x and y must have equal length, got {len(x)} and {len(y)}")
    return x, y


def _counted(stream) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The pieces of a sized ``stream`` as flat arrays, refused as soon as
    they hold more points than its length, or at the end, fewer."""
    rows, held = len(stream), 0
    for x, y in stream:
        held += np.size(x)
        if held > rows:
            raise ComputationError(f"the stream yielded over the {rows} rows it declares")
        if np.shape(x) != np.shape(y):
            raise ComputationError(f"a stream piece holds x of shape {np.shape(x)} and y of "
                                   f"shape {np.shape(y)}")
        yield np.ravel(x), np.ravel(y)
    if held != rows:
        raise ComputationError(f"the stream yielded {held} rows, not the {rows} it declares")


def fixed_pairs(x: np.ndarray, y: np.ndarray) -> str:
    """``" ".join(map("{:.2f},{:.2f}".format, x, y))``, formatted in numpy.

    Each value is rounded to hundredths from the double's exact value, ties
    to even (78.125 gives "78.12"), and laid out by ``CHUNK_ROWS`` rows as
    the writer lays out its ``repr`` texts; a negative value that rounds to
    zero keeps its sign ("-0.00"). ``x`` and ``y`` are equal-length 1-D
    arrays of finite values under 10^15 in magnitude.
    """
    return b"".join(_texts([(x, y)], len(x), _fill_fixed, b" ")).decode("ascii")[:-1]


def _texts(pieces, rows: int, fill, end: bytes) -> Iterator[np.ndarray]:
    """The bytes of each row of ``pieces``: its x's text, ``,``, its y's
    text, ``end``; ``fill`` writes the texts. Rows are gathered across
    pieces into chunks of ``CHUNK_ROWS``, or of ``rows`` where fewer."""
    values = np.empty((max(min(rows, CHUNK_ROWS), 1), 2))
    # One slot per field: its text right-aligned in bytes 0-23, then the
    # ',' or ``end`` that ends it in byte 24, as four little-endian words.
    slots = np.zeros((len(values), 2, 4), dtype=np.uint64)
    slots[:, :, 3] = ord(","), ord(end)

    def text(count: int) -> np.ndarray:
        fields = slots[:count].reshape(-1, 4)
        first = fill(fields, values[:count].reshape(-1))
        return fields.view(np.uint8)[_KEPT.take(first, axis=0)]

    filled = 0
    for x, y in pieces:
        start = 0
        while start < len(x):
            # the piece's next rows, as many as the chunk has room for
            taken = min(len(x) - start, len(values) - filled)
            chunk = values[filled : filled + taken]
            chunk[:, 0] = x[start : start + taken]
            chunk[:, 1] = y[start : start + taken]
            filled += taken
            start += taken
            if filled == len(values):
                yield text(filled)
                filled = 0
    if filled:
        yield text(filled)


def _fill(slots: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Write each value's ``repr`` right-aligned in words 0-2 of its slot.

    Returns the column of each text's first byte.
    """
    bits = values.view(np.uint64)
    # Every value but NaN takes a '-' where its sign bit is set.
    negative = bits - _SIGN <= _INF
    words, dot, first = _digits(bits, negative)
    _place(slots, words, dot, first, negative)
    return first


def _fill_fixed(slots: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Write each value's ``format(v, ".2f")`` right-aligned in words 0-2 of
    its slot, for finite values under 10^15 in magnitude.

    Returns the column of each text's first byte.
    """
    bits = values.view(np.uint64)
    negative = bits >= _SIGN
    # |v| = c * 2^-s with s >= 1 below 2^52; 100c < 2^60, so from s = 61 on
    # 100|v| < 1/2, and a shift of 63 rounds it to 0 as well.
    exponent = (bits >> 52 & 0x7FF).astype(np.int64)
    c = np.where(exponent > 0, bits & 0xFFFFFFFFFFFFF | 1 << 52, bits & 0xFFFFFFFFFFFFF)
    s = np.clip(1075 - np.maximum(exponent, 1), 1, 63).astype(np.uint64)
    c *= np.uint64(100)
    hundredths = c >> s
    rest = c - (hundredths << s)
    half = np.uint64(1) << s - np.uint64(1)
    hundredths += (rest > half) | ((rest == half) & (hundredths & 1 == 1))
    count = np.searchsorted(_POW10, hundredths, side="right")
    dot = np.full(len(values), 21)
    first = 21 - np.maximum(count - 2, 1) - negative
    _place(slots, _render(hundredths), dot, first, negative)
    return first


def _place(
    slots: np.ndarray, words: np.ndarray, dot: np.ndarray, first: np.ndarray, negative: np.ndarray
) -> None:
    """Put a point at column ``dot`` and, where ``negative``, a '-' at column
    ``first`` into each of ``words``' "0"-padded digit texts, and them into
    words 0-2 of its slot."""
    left, right, point, minus = _column_masks()
    # Left of the point each byte takes its right neighbour's, so the point
    # goes in; the byte before the first digit, a '0' of the padding,
    # becomes the sign.
    shifted = words >> 8
    shifted[:2] |= words[1:] << 56
    shifted &= left.take(dot, axis=1)
    words &= right.take(dot, axis=1)
    words |= shifted
    words |= point.take(dot, axis=1)
    words ^= minus.take(np.where(negative, first, -1), axis=1)
    for word in range(3):
        slots[:, word] = words[word]


def _digits(bits: np.ndarray, negative: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each text but its point and sign, and the columns of both.

    Returns, per value, 24 "0"-padded ASCII bytes as three words holding the
    text right-aligned, less the point and the sign; the column of the point
    (-1 for none); and the column of the text's first byte.
    """
    magnitude = bits & ~_SIGN
    special = np.flatnonzero(magnitude - 1 >= _INF - 1)  # 0 wraps round to the top
    magnitude[special] = _ONE  # a placeholder until their texts go in below
    digits, point = _shortest(magnitude)
    count = np.searchsorted(_POW10, digits, side="right")
    point += count  # the value is 0.d1...dn * 10^point
    wide = np.flatnonzero((point <= -4) | (point > 16))
    # A positional text is digits * 10^zeros, "0"-padded, with its point
    # put in max(n - point, 1) places from the right: "0.0025", "25.0".
    zeros = np.maximum(point - count + 1, 0)
    zeros[wide] = 0
    words = _render(digits * _POW10.take(zeros))
    dot = 23 - np.maximum(count - point, 1)
    first = dot - np.maximum(point, 1) - negative
    if len(wide):
        _exponent_form(words, dot, first, wide, count[wide], point[wide] - 1, negative[wide])
    if len(special):
        magnitude = bits[special] & ~_SIGN
        kind = np.where(magnitude == 0, 0, np.where(magnitude > _INF, 1, 2))
        words[2, special] = _SPECIAL_WORDS.take(kind)
        dot[special] = -1
        first[special] = 21 - negative[special]
    return words, dot, first


def _exponent_form(
    words: np.ndarray,
    dot: np.ndarray,
    first: np.ndarray,
    rows: np.ndarray,
    count: np.ndarray,
    exponent: np.ndarray,
    negative: np.ndarray,
) -> None:
    """Lay the ``rows``' n digits out as ``d.ddde+XX``, in place.

    The digits move left past a suffix of "e", the exponent's sign and its
    two or three digits; a single digit takes no point.
    """
    size = np.where(np.abs(exponent) >= 100, 5, 4)
    dot[rows] = np.where(count > 1, 24 - size - count, -1)
    first[rows] = 24 - size - count - (count > 1) - negative
    magnitude = np.abs(exponent)
    units = magnitude % 10 + ord("0")
    tens = magnitude // 10 % 10 + ord("0")
    hundreds = magnitude // 100 + ord("0")
    digits = np.where(size == 5, hundreds | tens << 8 | units << 16, tens | units << 8)
    sign = np.where(exponent < 0, ord("-"), ord("+"))
    suffix = (ord("e") | sign << 8 | digits << 16).astype(np.uint64)
    shift = 8 * size.astype(np.uint64)
    low, middle, high = words[:, rows]
    words[0, rows] = low >> shift | middle << (64 - shift)
    words[1, rows] = middle >> shift | high << (64 - shift)
    words[2, rows] = high >> shift | suffix << (64 - shift)


def _render(number: np.ndarray) -> np.ndarray:
    """Words 0-2 of each ``number`` < 10^17 as 24 "0"-padded ASCII digits."""
    words = np.empty((3, len(number)), dtype=np.uint64)
    words[1] = number // 10**8
    words[2] = number - words[1] * 10**8
    words[0] = words[1] // 10**8
    words[1] -= words[0] * 10**8
    _eight_digits(words[1:])
    words[0] <<= 56
    words[0] |= _ZEROS
    return words


def _eight_digits(number: np.ndarray) -> None:
    """Write each ``number`` < 10^8 over itself as eight ASCII digits, first lowest.

    Splits the number into lanes of four, two and one digit(s), dividing
    every lane at once by a multiply and shift exact for its range.
    """
    high = number // 10000
    number -= high * 10000
    number <<= 32
    number |= high  # two lanes of four digits
    high = number * 10486 >> 20 & 0x0000007F0000007F  # each lane // 100
    number -= high * 100
    number <<= 16
    number |= high  # four lanes of two
    high = number * 103 >> 10 & 0x000F000F000F000F  # each lane // 10
    number -= high * 10
    number <<= 8
    number |= high | _ZEROS


@cache
def _column_masks() -> tuple[np.ndarray, ...]:
    """Word tables over a text column c, at index c; index -1 is no column.

    Each is (3, 25), one mask per word of a 24-byte text: the bytes left of
    c, the bytes right of c, a "." at c, and "0" ^ "-" at c.
    """
    at = np.append(np.arange(24), -1)[:, None]
    columns = np.arange(24)

    def words(table: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(table.astype(np.uint8)).view(np.uint64).T.copy()

    return (
        words(np.where(columns < at, 0xFF, 0)),
        words(np.where(columns > at, 0xFF, 0)),
        words(np.where(columns == at, ord("."), 0)),
        words(np.where(columns == at, ord("0") ^ ord("-"), 0)),
    )


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Digits d, with no trailing zero, and exponent k of each double's ``repr``.

    ``bits`` are positive finite nonzero doubles v = c * 2^q. Schubfach
    scales v and the ends of its rounding interval by 10^-k, for
    k = floor(log10 2^q) (of 3/4 * 2^q where the gap below v is half the gap
    above), and rounds them to odd integers (``_scaled_interval``). At most
    one multiple of 10 near s = floor(v 10^-k) then lies in the interval:
    if one does, it is the answer at one digit fewer; else s or s + 1 is
    (Giulietti 2020, figures 4 and 6).
    """
    shift = (bits >> 52).astype(np.int64)  # the biased binary exponent
    closer = (bits << 12 == 0) & (shift > 1)
    np.maximum(shift, 1, out=shift)
    shift -= 1075  # q
    k = (shift * 1262611 - closer * 524031) >> 22
    shift += (-k * 1741647 >> 19) + 1  # h = q + floor(log2 10^-k) + 1, in [1, 4]
    vb, lower, upper = _scaled_interval(bits, k, shift.view(np.uint64), closer)
    odd = bits & 1  # the interval is open where c is odd
    lower += odd
    upper -= odd
    s = vb >> 2
    tens = s // 10
    up_in = tens * 40 + 40 <= upper
    shorter = (s >= 10) & ((lower <= tens * 40) != up_in)
    w_in = (s << 2) + 4 <= upper
    middle = (s << 2) + 2
    nearer_up = (vb > middle) | ((vb == middle) & ((s & 1) == 1))
    s = np.where(shorter, tens + up_in, s + np.where((lower <= s << 2) != w_in, w_in, nearer_up))
    k += shorter
    # A multiple of 10 in the interval is always the shorter candidate, and
    # those are below 10 * 2^53 / 10: at most 15 zeros to strip.
    for zeros in (8, 4, 2, 1):
        cut = s // _POW10[zeros]
        exact = cut * _POW10[zeros] == s
        s = np.where(exact, cut, s)
        k += exact * zeros
    return s, k


def _scaled_interval(
    bits: np.ndarray, k: np.ndarray, h: np.ndarray, closer: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """4v, and the ends of its rounding interval, times 10^-k, rounded to odd.

    With g the table's 10^-k * 2^(128 - h + q) (``_powers_of_ten``),
    g * 4c * 2^h is 2^128 times 4v 10^-k. Each result is the top 128 bits
    of an exact 192-bit product, its last bit set where the rest is not 0
    or 1 (Bolz's round to odd).
    """
    g = _powers_of_ten().take(-k - _E_MIN, axis=1)
    c = np.where(bits >> 52 > 0, bits & 0xFFFFFFFFFFFFF | 1 << 52, bits)
    w2, w1, w0 = _product(g, c << h + 2)
    # The ends add and take away g * 2^(h+1), g * 2^h below v where that
    # gap is the smaller.
    upper = _plus(w2, w1, w0, g, h + 1)
    lower = _minus(w2, w1, w0, g, h + 1 - closer)
    return w2 | (w1 > 1), lower, upper


def _product(g: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Words 2, 1 and 0 of the 192-bit products of the 128-bit g[0]:g[1] and b."""
    b_low, b_high = b & _LOW32, b >> 32
    w2, w1 = _multiply(g[0], b_low, b_high)
    carry, w0 = _multiply(g[1], b_low, b_high)
    w1 += carry
    w2 += w1 < carry
    return w2, w1, w0


def _plus(
    w2: np.ndarray, w1: np.ndarray, w0: np.ndarray, g: np.ndarray, shift: np.ndarray
) -> np.ndarray:
    """The top 128 bits of w2:w1:w0 + g * 2^shift, rounded to odd."""
    low = g[1] << shift
    carry = w0 + low < low
    low = g[0] << shift | g[1] >> (64 - shift)
    middle = w1 + low
    top = w2 + (g[0] >> (64 - shift)) + (middle < low)
    middle += carry
    top += middle < carry
    return top | (middle > 1)


def _minus(
    w2: np.ndarray, w1: np.ndarray, w0: np.ndarray, g: np.ndarray, shift: np.ndarray
) -> np.ndarray:
    """The top 128 bits of w2:w1:w0 - g * 2^shift, rounded to odd."""
    borrow = w0 < g[1] << shift
    low = g[0] << shift | g[1] >> (64 - shift)
    middle = w1 - low
    top = w2 - (g[0] >> (64 - shift)) - (w1 < low)
    top -= middle < borrow
    middle -= borrow
    return top | (middle > 1)


def _multiply(
    a: np.ndarray, b_low: np.ndarray, b_high: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products a * b, from 32-bit limbs.

    ``b_low`` and ``b_high`` are b's low and high 32 bits. The partial
    products are summed in place, to hold few arrays at once.
    """
    a_low, a_high = a & _LOW32, a >> 32
    low = a_low * b_low
    cross = a_high * b_low
    a_low *= b_high
    a_high *= b_high
    middle = low >> 32
    middle += a_low & _LOW32
    middle += cross & _LOW32
    a_high += a_low >> 32
    a_high += cross >> 32
    a_high += middle >> 32
    low &= _LOW32
    low |= middle << 32
    return a_high, low


@cache
def _powers_of_ten() -> np.ndarray:
    """High and low words (rows 0 and 1) of 10^e scaled into [2^127, 2^128), rounded up.

    Entry e - _E_MIN is ceil(10^e * 2^(127 - floor(log2 10^e))). Each power
    of ten is the last times 10, so the table is built in well under a
    millisecond, at the first write.
    """
    table = []
    power = 1
    for e in range(_E_MAX + 1):
        shift = 127 - (e * 1741647 >> 19)
        table.append(-(-(power << max(shift, 0)) >> max(-shift, 0)))
        power *= 10
    power = 10
    for e in range(-1, _E_MIN - 1, -1):
        table.insert(0, -((-1 << 127 - (e * 1741647 >> 19)) // power))
        power *= 10
    return np.array(
        [[entry >> 64 for entry in table], [entry & (1 << 64) - 1 for entry in table]],
        dtype=np.uint64,
    )


def read_records(handle) -> tuple[list[str] | None, Iterator[tuple[int, list[str]]]]:
    """The first CSV record's names, stripped (None where there is no
    record), and each later record that holds more than whitespace, with its
    row number from 2, read as iterated.

    A record ``csv`` refuses, such as one with a field over
    ``csv.field_size_limit()``, is refused with its row number.
    """
    records = _numbered(csv.reader(handle))
    first = next(records, None)
    rows = ((row_no, row) for row_no, row in records if "".join(row).strip())
    return (None if first is None else [name.strip() for name in first[1]]), rows


def _numbered(reader) -> Iterator[tuple[int, list[str]]]:
    for row_no in count(1):
        try:
            yield row_no, next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise InputError(f"row {row_no}: {exc}") from None


def read_xy_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read an ``x,y`` CSV file; errors carry the 1-based row number (header is row 1).

    Fields are whatever Python's ``float`` accepts; quoted fields are
    unquoted, blank rows are skipped and extra columns are ignored.
    """
    reopen = partial(open, path, "r", encoding="utf-8", newline="")
    ends = _line_breaks(path)
    if ends is not None:
        with reopen() as handle:
            columns = _load_columns(handle, ends)
        if columns is not None:
            return columns
    with reopen() as handle:
        return _read_rows(handle)


def _line_breaks(path: str | Path) -> int | None:
    """The ``\\n`` and ``\\r`` bytes of a file, counted in numpy in blocks
    of about ``CHUNK_ROWS`` lines of 32 bytes; None where it holds one of
    :data:`SEPARATORS`."""
    breaks = 0
    with open(path, "rb") as raw:
        for block in iter(partial(raw.read, 32 * CHUNK_ROWS), b""):
            if any(c in block for c in SEPARATORS.encode()):
                return None
            codes = np.frombuffer(block, dtype=np.uint8)
            breaks += np.count_nonzero(codes == ord("\n"))
            if b"\r" in block:
                breaks += np.count_nonzero(codes == ord("\r"))
    return breaks


def _load_columns(handle, ends: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The two columns parsed by numpy, or None where it refuses the input.

    Each line but the last ends in one of the ``ends`` line breaks, and the
    header takes a line, so no more than ``ends`` rows follow it. Two
    columns of that length are filled by one ``np.loadtxt`` call per
    ``CHUNK_ROWS`` rows, then trimmed to the rows read: the columns and one
    chunk are all that is held. Whitespace-only lines are dropped on the
    way in, as the row loop skips them.
    """
    header, _ = read_records(handle)
    if header is None or "x" not in header or "y" not in header:
        return None
    usecols = (header.index("x"), header.index("y"))
    lines = filterfalse(str.isspace, handle)
    x, y = np.empty(ends), np.empty(ends)
    rows = 0
    try:
        with warnings.catch_warnings():
            # A chunk begun after the last line is empty, and numpy warns.
            warnings.simplefilter("ignore", UserWarning)
            while True:
                # numpy takes from an iterator only the lines of ``max_rows``
                # rows, so each chunk starts where the last ended, and a
                # short chunk is the last.
                chunk = np.loadtxt(
                    lines,
                    delimiter=",",
                    usecols=usecols,
                    quotechar='"',
                    comments=None,
                    max_rows=CHUNK_ROWS,
                    ndmin=2,
                    dtype=float,
                )
                x[rows : rows + len(chunk)] = chunk[:, 0]
                y[rows : rows + len(chunk)] = chunk[:, 1]
                rows += len(chunk)
                if len(chunk) < CHUNK_ROWS:
                    break
    except ValueError:
        return None
    if not rows:
        return None
    x.resize(rows, refcheck=False)
    y.resize(rows, refcheck=False)
    return x, y


def _read_rows(handle) -> tuple[np.ndarray, np.ndarray]:
    header, records = read_records(handle)
    if header is None:
        raise InputError("empty CSV: no header row")
    if "x" not in header or "y" not in header:
        raise InputError("row 1: CSV must have columns 'x' and 'y'")
    xi, yi = header.index("x"), header.index("y")
    xs: list[float] = []
    ys: list[float] = []
    for row_no, row in records:
        try:
            xs.append(float(row[xi]))
            ys.append(float(row[yi]))
        except (ValueError, IndexError):
            raise InputError(f"row {row_no}: malformed x,y row {row!r}") from None
    if not xs:
        raise InputError("CSV contains a header but no data rows")
    return np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)

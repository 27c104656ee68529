"""Failure-history data model for multi-system competing-risks analyses.

A dataset is a collection of failure times with cause labels, observed on a
common time-truncated window (0, T] over m identical systems subject to K
recurrent causes of failure.  The events are stored as three columns
(system_id, cause, time).  Systems that never failed have no rows and enter
only through m.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ObservationDesign",
    "FailureDataset",
    "CountSummary",
    "DatasetError",
    "ParseError",
    "ingest",
    "summarize",
    "write_dataset",
]


class DatasetError(ValueError):
    """Raised when data violate the observation design."""


class ParseError(DatasetError):
    """Raised for malformed dataset files; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class ObservationDesign:
    """Common observation window and dimensions: horizon T, m systems, K causes."""

    T: float
    m: int
    K: int

    def __post_init__(self):
        if not (self.T > 0 and math.isfinite(self.T)):
            raise DatasetError(f"truncation time must be positive and finite, got {self.T}")
        if self.m < 1:
            raise DatasetError(f"need at least one system, got m={self.m}")
        if self.K < 1:
            raise DatasetError(f"need at least one failure cause, got K={self.K}")


@dataclass(frozen=True, eq=False)
class FailureDataset:
    """Validated failure events under a fixed observation design.

    Three read-only columns hold one entry per failure: ``system_id`` and
    ``cause`` (ints) and ``time`` (floats), sorted by (system_id, time).
    Within each system the times are strictly increasing; ties and boundary
    times are rejected.  The constructor copies the caller's columns, so the
    dataset shares no memory with an array the caller may still write; the
    package's own producers (`ingest`, ``simulate``) hand their freshly built
    columns over through `_adopt` instead, so that each event is held once.
    """

    design: ObservationDesign
    system_id: np.ndarray
    cause: np.ndarray
    time: np.ndarray

    def __init__(self, design, system_id, cause, time):
        self._hold(design, system_id, cause, time, copy=True)

    @classmethod
    def _adopt(cls, design, system_id, cause, time):
        """A dataset that takes over columns its caller built and will not touch again.

        The validation is the constructor's; columns already in order are held
        as given, without the constructor's defensive copy.
        """
        data = object.__new__(cls)
        data._hold(design, system_id, cause, time, copy=False)
        return data

    def _hold(self, design, system_id, cause, time, copy):
        system_id = np.asarray(system_id, dtype=np.int64)
        cause = np.asarray(cause, dtype=np.int64)
        time = np.asarray(time, dtype=float)
        if not (time.ndim == 1 and system_id.shape == cause.shape == time.shape):
            raise DatasetError("system_id, cause and time must be 1-D columns of one length")
        same_system = system_id[1:] == system_id[:-1]
        in_order = (system_id[1:] > system_id[:-1]) | (same_system & (time[1:] >= time[:-1]))
        if not in_order.all():
            order = np.lexsort((time, system_id))
            system_id, cause, time = system_id[order], cause[order], time[order]
        elif copy:
            system_id, cause, time = system_id.copy(), cause.copy(), time.copy()
        bad_system = (system_id < 1) | (system_id > design.m)
        bad_cause = (cause < 1) | (cause > design.K)
        bad_time = ~((time > 0.0) & (time < design.T))
        bad = bad_system | bad_cause | bad_time
        if bad.any():
            i = int(np.argmax(bad))
            j, t = system_id[i].item(), time[i].item()
            if bad_system[i]:
                raise DatasetError(f"system_id {j} outside 1..{design.m}")
            if bad_cause[i]:
                raise DatasetError(f"cause {cause[i].item()} outside 1..{design.K}")
            raise DatasetError(f"failure time {t} outside (0, {design.T}) for system {j}")
        tied = (system_id[1:] == system_id[:-1]) & (time[1:] == time[:-1])
        if tied.any():
            i = int(np.argmax(tied))
            raise DatasetError(
                f"tied failure times {time[i].item()} in system {system_id[i].item()}"
            )
        for name, column in (("system_id", system_id), ("cause", cause), ("time", time)):
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        object.__setattr__(self, "design", design)

    def __len__(self):
        return self.time.size


@dataclass(frozen=True)
class CountSummary:
    """The sufficient statistic of a fleet, and all that inference reads.

    n_jq is the m-by-K matrix of per-system per-cause failure counts;
    log_ratio_sums[q-1] is the sum of log(T / t) over all cause-q failures.
    """

    n_jq: np.ndarray
    log_ratio_sums: np.ndarray
    design: ObservationDesign = field(compare=False)

    @property
    def n_j(self):
        return self.n_jq.sum(axis=1)

    @property
    def n_q(self):
        return self.n_jq.sum(axis=0)

    @property
    def n(self):
        return int(self.n_jq.sum())


def summarize(data: FailureDataset) -> CountSummary:
    """Tabulate per-system/per-cause counts and the per-cause log-ratio sums."""
    d = data.design
    # one event-length int and one float work array: (system_id - 1) * K +
    # (cause - 1) is formed in place, and the same array then holds cause - 1
    cell = data.system_id * d.K
    cell += data.cause
    cell -= d.K + 1
    n_jq = np.bincount(cell, minlength=d.m * d.K).reshape(d.m, d.K)
    log_ratio = np.log(data.time)
    np.subtract(np.log(d.T), log_ratio, out=log_ratio)
    np.subtract(data.cause, 1, out=cell)
    sums = np.bincount(cell, weights=log_ratio, minlength=d.K)
    return CountSummary(n_jq=n_jq, log_ratio_sums=sums, design=d)


def _parse_metadata(lines):
    meta = {}
    for lineno, raw in lines:
        body = raw.lstrip("#").strip()
        if "=" not in body:
            raise ParseError(f"bad metadata comment {raw!r}", line=lineno)
        key, _, value = body.partition("=")
        meta[key.strip()] = value.strip()
    out = {}
    try:
        if "T" in meta:
            out["T"] = float(meta["T"])
        if "m" in meta:
            out["m"] = int(meta["m"])
        if "K" in meta:
            out["K"] = int(meta["K"])
    except ValueError as exc:
        raise ParseError(f"bad metadata value: {exc}") from None
    return out


def _int64(text):
    value = int(text)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"integer {text} does not fit in int64")
    return value


_EVENT_ROW = np.dtype([("system_id", np.int64), ("cause", np.int64), ("time", np.float64)])


def _read_rows(fh, lineno):
    """Parse the rest of an open text file as comma-separated `_EVENT_ROW` rows.

    `lineno` is the file's line number of the next line.  The rows are read
    in one ``np.loadtxt`` pass.  Should that pass refuse the text (a whole-line
    ``#`` comment, a whitespace-only line, a field that only Python's
    ``int``/``float`` accept, a malformed row, no rows at all), the rows are
    read again one line at a time: blank and ``#`` lines are skipped, fields
    are stripped and converted with ``int``/``float``, and a bad row (an
    integer beyond int64 included) raises `ParseError` naming its line.
    """
    start = fh.tell()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(fh, dtype=_EVENT_ROW, delimiter=",", comments=None, ndmin=1)
    except (ValueError, Warning):
        fh.seek(start)
    convert = (_int64, _int64, float)
    rows = []
    for lineno, raw in enumerate(fh, start=lineno):
        if not raw.strip() or raw.startswith("#"):
            continue
        parts = raw.split(",")
        if len(parts) != len(convert):
            raise ParseError(f"expected {len(convert)} columns, got {len(parts)}", line=lineno)
        try:
            rows.append(tuple(f(part.strip()) for f, part in zip(convert, parts)))
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
    return np.array(rows, dtype=_EVENT_ROW)


def ingest(path, design: ObservationDesign | None = None) -> FailureDataset:
    """Read the canonical CSV format.

    Leading comment lines ``# T=.. / # m=.. / # K=..`` supply the design;
    an explicit `design` argument overrides them.  The header row must be
    ``system_id,cause,time``; each following row is one failure (see
    `_read_rows` for what else the body may hold).  Bytes that are not UTF-8
    are kept as lone surrogates, so the line that holds them fails to parse.
    The dataset takes over the columns of the parsed rows without a copy
    (a file out of order is sorted into new columns).
    """
    comment_lines = []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        lineno = 0
        for raw in iter(fh.readline, ""):
            lineno += 1
            raw = raw.rstrip("\n")
            if raw.startswith("#"):
                comment_lines.append((lineno, raw))
            elif raw.strip():
                break
        else:
            raise ParseError("missing header row 'system_id,cause,time'")
        if [c.strip() for c in raw.split(",")] != ["system_id", "cause", "time"]:
            raise ParseError(f"unexpected header {raw!r}", line=lineno)

        if design is None:
            meta = _parse_metadata(comment_lines)
            missing = {"T", "m", "K"} - meta.keys()
            if missing:
                raise ParseError(
                    f"no design given and metadata lacks {sorted(missing)}"
                )
            design = ObservationDesign(T=meta["T"], m=meta["m"], K=meta["K"])

        rows = _read_rows(fh, lineno + 1)
    return FailureDataset._adopt(design, rows["system_id"], rows["cause"], rows["time"])


# The CSV writer.  Every table frailplp writes goes through `_write_rows`,
# which lays a chunk of rows out as a matrix of little-endian uint64 words:
# each cell's text and separator sit at fixed byte positions of its words,
# NUL bytes elsewhere, and dropping the NUL bytes leaves the chunk's text.
# Floats are written as `repr` writes them.  One layout covers the floats
# that repr writes in fixed form (1e-4 <= |x| < 1e16) and that have fraction
# bits, biased exponents 1009..1074: their digits come from Ryu (Adams, PLDI
# 2018), which finds repr's shortest round-trip digits with integer
# arithmetic; here it runs on uint64 arrays with 32-bit limbs.  `repr` itself
# writes every other float: zeros, integral values, the exponent form, nan
# and the infinities, and Ryu's exact case (few significant bits, as in 0.5).

# Chunks are sized by memory: `_CHUNK_BYTES` is the working set of one chunk
# and `_VALUE_BYTES` what one float value of it holds at the peak (the Ryu
# step's work arrays; the row matrix, its words and the text come later and
# take less).  The cost of a numpy call, about 1 µs, is spread over the
# values of a chunk, so a chunk should be as large as the memory allows.
_CHUNK_BYTES = 1 << 18
_VALUE_BYTES = 88
# Values per chunk: a table of w values per row is written `_CHUNK_VALUES // w`
# rows at a time.
_CHUNK_VALUES = _CHUNK_BYTES // _VALUE_BYTES
# Bytes of the row matrix whose NUL bytes are dropped at once.
_PIECE_BYTES = 1 << 15

_U64 = np.uint64
_M32 = _U64(0xFFFF_FFFF)
# Ryu's interval: for a float with mantissa m2 (implicit bit set), vr, vp and
# vm are (4 m2 + {0, 2, -2}) * 5**i / 2**q, truncated, where 5**i is scaled
# to 125 bits.  The tables hold that scale times 2**(_SHIFT - j) (j is 118 to
# 121), so every product is shifted right by the same _SHIFT.
_SHIFT = 121
# The biased exponents of the Ryu layout: 1009 holds 1e-4, where repr's fixed
# form starts, and from 1075 on every float is integral.
_EXPO_LO, _EXPO_HI = 1009, 1074
# The layout tables are keyed by the decimal point's position `decpt`
# (x = 0.d1d2... * 10**decpt), -3..16 in repr's fixed form, and by the digit
# count `olength` (0..19).
_DECPT_LO, _DECPT_HI = -3, 16


def _words(value, k):
    """A Python int as k little-endian uint64 words."""
    return [(value >> 64 * w) & 0xFFFF_FFFF_FFFF_FFFF for w in range(k)]


class _NumberTables:
    """Lookup tables of the CSV writer, built on the first write, not at import.

    A text is held as a little-endian uint64 word: byte k is its k-th
    character, and a NUL byte is no character.
    """

    def __init__(self):
        # the texts of 0..99 and 0..9999, zero-padded
        n = np.arange(100, dtype=_U64)
        self.t2 = (n // _U64(10) + _U64(48)) | ((n % _U64(10) + _U64(48)) << _U64(8))
        self.t4 = (self.t2[:, None] | (self.t2 << _U64(16))).ravel()
        self.digit_at32 = (np.arange(10, dtype=_U64) + _U64(48)) << _U64(32)
        self.pow10 = np.array([10**k for k in range(20)], dtype=_U64)
        # per biased exponent _EXPO_LO.._EXPO_HI, indexed by the exponent; the
        # entries before and the one after are 0, and every larger exponent
        # is clipped to that one
        self.ql, self.qh, self.tz = (np.zeros(_EXPO_HI + 2, dtype=_U64) for _ in range(3))
        self.e10 = np.zeros(_EXPO_HI + 2, dtype=np.int64)
        i, p = 0, 1
        for e in range(_EXPO_HI, _EXPO_LO - 1, -1):
            minus_e2 = 1077 - e
            q = ((minus_e2 * 732923) >> 20) - 1
            while i < minus_e2 - q:
                i, p = i + 1, p * 5
            scale = p.bit_length() - 125
            big = (p >> scale if scale >= 0 else p << -scale) << (_SHIFT - q + scale)
            self.ql[e], self.qh[e] = big & 0xFFFF_FFFF_FFFF_FFFF, big >> 64
            self.e10[e] = q - minus_e2
            # a mantissa with q - 2 or more trailing zero bits is Ryu's exact
            # (trailing-zero) case, left to repr
            self.tz[e] = ((1 << q) - 1) >> 2
        # keyed by decpt and olength: the integer part's divisor and digit
        # count, the fraction's scale to 17 digits, and its three words'
        # masks with the point and up to three zeros in front:
        # [. z z z d0 d1 d2 d3] [d4 .. d11] [d12 .. d16, three free bytes]
        keys = (_DECPT_HI - _DECPT_LO + 1) * 20
        self.int_div, self.frac_scale, self.frac_head = (
            np.zeros(keys, dtype=_U64) for _ in range(3)
        )
        self.int_digits = np.zeros(keys, dtype=np.int64)
        self.frac_mask = np.zeros((3, keys), dtype=_U64)
        key = 0
        for decpt in range(_DECPT_LO, _DECPT_HI + 1):
            for olength in range(20):
                fd = max(olength - max(decpt, 0), 0)
                self.int_div[key] = 10**fd
                self.frac_scale[key] = 10 ** (17 - fd) if fd <= 17 else 0
                self.int_digits[key] = max(decpt, 1)
                self.frac_head[key] = int.from_bytes(b"." + b"0" * max(-decpt, 0), "little")
                self.frac_mask[:, key] = _words((1 << 8 * (4 + max(fd, 1))) - 1, 3)
                key += 1
        # int words: k words hold 8k - 2 slots, the digits right-aligned with
        # the sign before them; keyed by the digit count
        self.lead, self.minus = {}, {}
        for k in (1, 2, 3):
            slots = 8 * k - 2
            fits = range(min(slots, 20) + 1)
            lead = [_words(((1 << 8 * nd) - 1) << 8 * (slots - nd), k) for nd in fits]
            minus = [_words(45 << 8 * (slots - nd - 1) if nd < slots else 0, k) for nd in fits]
            lead += [[0] * k] * (20 - len(fits) + 1)
            minus += [[0] * k] * (20 - len(fits) + 1)
            self.lead[k] = np.array(lead, dtype=_U64).T.copy()
            self.minus[k] = np.array(minus, dtype=_U64).T.copy()


_TABLES = None


def _number_tables():
    global _TABLES
    if _TABLES is None:
        _TABLES = _NumberTables()
    return _TABLES


def _take(table, index):
    """table[index] for uint64 `index` (numpy's fast path takes intp)."""
    return table.take(index.view(np.int64))


def _int_words(t, mag, index, neg, lead, minus):
    """`mag`'s digits right-aligned in the first 8k - 2 bytes of k words.

    The last word holds six digit slots (bytes 0-5), each word before it
    eight, and bytes 6-7 of the last word are left 0 for the caller.
    ``lead[w][index]`` masks word w's leading zeros away, and
    ``minus[w][index]`` is its minus sign, put in where `neg` is true.
    """
    k = len(lead)
    words = []
    rest = mag
    for w in range(k - 1, -1, -1):
        if w:
            group = _U64(10**6 if w == k - 1 else 10**8)
            low = rest
            rest = rest // group
            low = low - rest * group
        else:
            low = rest
        top = low // _U64(10**4)
        low = low - top * _U64(10**4)
        if w == k - 1:
            word = _take(t.t4, low) << _U64(16)
            word |= _take(t.t2, top)
        else:
            word = _take(t.t4, low) << _U64(32)
            word |= _take(t.t4, top)
        word &= lead[w].take(index)
        if neg is not None:
            word |= minus[w].take(index) * neg
        words.append(word)
    return words[::-1]


def _mulhi(a_lo, a_hi, b):
    """The high 64 bits of a * b (uint64 arrays), a given as 32-bit limbs.

    `b` is overwritten.
    """
    b_hi = b >> _U64(32)
    b &= _M32
    cross = a_lo * b_hi
    mid = a_lo * b
    mid >>= _U64(32)
    b *= a_hi
    mid += b
    b_hi *= a_hi
    b[:] = cross
    b &= _M32
    mid += b
    cross >>= _U64(32)
    b_hi += cross
    mid >>= _U64(32)
    b_hi += mid
    return b_hi


def _shortest(t, m2, expo):
    """Ryu's shortest round-trip digits of floats, exact where `t.tz` allows.

    `m2` is the mantissa with its implicit bit (overwritten), `expo` the
    biased exponent (int64, 1009..1074, the fixed form's).  Returns (digits,
    olength, decpt): the digits as an integer, their count and the decimal
    point's position.  The result is repr's wherever ``m2 & t.tz[expo]`` is
    not 0; elsewhere it is not used.  Ryu's half gap below a power of two
    needs no branch: at these exponents every power of two is the exact case,
    which the half gap first escapes at 2**-27.  The work arrays are freed
    as soon as they are spent, since this step sets the writer's peak memory.
    """
    mv = m2
    mv <<= _U64(2)
    a_lo, a_hi = mv & _M32, mv >> _U64(32)
    # X = mv * Q = w0 + w1 2**64 + w2 2**128, and D = 2Q (Q below a power of
    # two): vr, vp and vm are X, X + D and X - D shifted right by _SHIFT
    q = t.ql.take(expo)
    w0 = mv * q
    d = q << _U64(1)
    carry = (w0 + d) < d
    borrow = w0 < d
    del d, w0
    top = (q >> _U64(63)).view(np.int64).astype(bool)
    low_hi = _mulhi(a_lo, a_hi, q)
    q = t.qh.take(expo)
    w1 = mv * q
    del mv, m2
    w1 += low_hi
    w2 = w1 < low_hi
    del low_hi
    w2 = _mulhi(a_lo, a_hi, q.copy()) + w2
    del a_lo, a_hi
    up, down = _U64(128 - _SHIFT), _U64(_SHIFT - 64)
    vr = w2 << up
    vr |= w1 >> down
    d1 = q << _U64(1)
    d1 |= top
    q >>= _U64(63)
    d2 = q
    del top
    s1 = w1 + d1
    c2 = s1 < d1
    s1 += carry
    c2 |= s1 < carry
    del carry
    vp = w2 + d2
    vp += c2
    vp <<= up
    s1 >>= down
    vp |= s1
    np.subtract(w1, d1, out=s1)
    c2 = w1 < d1
    c2 |= s1 < borrow
    s1 -= borrow
    del w1, d1, borrow
    vm = w2
    vm -= d2
    vm -= c2
    vm <<= up
    s1 >>= down
    vm |= s1
    del s1, c2, d2
    # drop d digits, the most for which vp // 10**d > vm // 10**d; vp - vm is
    # 30 to 399, so d >= 1
    d = np.ones(vr.shape, dtype=np.int64)
    vp //= _U64(10)
    qm = vm // _U64(10)
    while True:
        vp //= _U64(10)
        qm //= _U64(10)
        more = vp > qm
        if not more.any():
            break
        d += more
    del vp, qm, more
    p = t.pow10.take(d)
    digits = vr // p
    below = digits * p
    vr -= below
    # round half up (Ryu's common case has no exact halves), and step
    # inside the interval where truncation reached its excluded lower end
    vr += vr
    digits += (vr >= p) | (vm >= below)
    del vr, vm, p
    olength = 18 - d
    olength += (below >= _U64(10**18)).view(np.int8)
    # a round-up that carries into a new digit (...999 + 1) lengthens it
    olength += digits >= t.pow10.take(olength)
    decpt = t.e10.take(expo)
    decpt += d
    decpt += olength
    return digits, olength, decpt


def _float_cells(t, x):
    """The words of float cells (1-D float64 `x`) and their separator's bit offset.

    Each cell is its value's `repr`.  A value that repr writes in fixed form
    and that has fraction bits is laid out from its Ryu digits (`_shortest`)
    as its integer part's words and three fraction words; `repr` writes every
    other value (zeros, integral values, the exponent form, nan, inf and Ryu's
    trailing-zero case) into the first three words of its cell.
    """
    bits = x.view(_U64)
    expo = x.view(np.int64) >> 52
    expo &= 0x7FF
    m2 = bits & _U64((1 << 52) - 1)
    m2 |= _U64(1 << 52)
    ryu = t.tz.take(expo, mode="clip")
    ryu &= m2
    ryu = ryu != 0
    if not ryu.any():
        # a chunk with no value in the layout's domain, such as a 0.0/1.0
        # column, skips the Ryu step
        return [*_repr_words(x).T, np.zeros(x.size, dtype=_U64)], 40
    neg = np.signbit(x)
    neg = neg if neg.any() else None
    if not ryu.all():
        expo[~ryu] = _EXPO_LO
    digits, olength, decpt = _shortest(t, m2, expo)
    del m2, expo, bits
    # repr writes the exponent form below 1e-4
    ryu &= decpt >= _DECPT_LO
    repr_at = () if ryu.all() else np.flatnonzero(~ryu)
    if len(repr_at):
        digits[repr_at] = 0
        olength[repr_at] = decpt[repr_at] = 1
    key = decpt
    key -= _DECPT_LO
    key *= 20
    key += olength
    del decpt, olength
    # the integer part, and the fraction's digits left-aligned to 17
    scale = t.int_div.take(key)
    ipart = digits // scale
    scale *= ipart
    digits -= scale
    np.take(t.frac_scale, key, out=scale)
    digits *= scale
    del scale
    k = (len(str(int(ipart.max(initial=0)))) + (neg is not None) + 9) // 8
    words = _int_words(t, ipart, t.int_digits.take(key), neg, t.lead[k], t.minus[k])
    del ipart
    # the fraction: [. z z z d0 d1 d2 d3] [d4 .. d11] [d12 .. d16, free]
    head = digits // _U64(10**13)
    digits -= head * _U64(10**13)
    mid = digits // _U64(10**5)
    digits -= mid * _U64(10**5)
    word = _take(t.t4, head) << _U64(32)
    word |= t.frac_head.take(key)
    word &= t.frac_mask[0].take(key)
    words.append(word)
    np.floor_divide(mid, _U64(10**4), out=head)
    mid -= head * _U64(10**4)
    word = _take(t.t4, mid) << _U64(32)
    word |= _take(t.t4, head)
    word &= t.frac_mask[1].take(key)
    words.append(word)
    np.floor_divide(digits, _U64(10), out=head)
    digits -= head * _U64(10)
    word = _take(t.digit_at32, digits)
    word |= _take(t.t4, head)
    word &= t.frac_mask[2].take(key)
    words.append(word)
    del head, mid, digits, key
    if len(repr_at):
        texts = _repr_words(x[repr_at])
        for i, word in enumerate(words):
            word[repr_at] = texts[:, i] if i < 3 else 0
    return words, 40


def _repr_words(x):
    """Each float's repr in three words, NUL-padded: (len(x), 3) uint64."""
    texts = [repr(v).encode() for v in x.tolist()]
    return np.array(texts, dtype="S24").view(_U64).reshape(-1, 3)


def _int_cells(t, v):
    """The words of int cells (1-D int64 `v`) and their separator's bit offset."""
    neg = v < 0
    neg = neg if neg.any() else None
    mag = np.abs(v).view(_U64)
    # each value's digit count (1 for 0)
    most = len(str(int(mag.max(initial=0))))
    count = np.ones(mag.shape, dtype=np.int64)
    for d in range(1, most):
        count += mag >= t.pow10[d]
    k = (most + (neg is not None) + 9) // 8
    return _int_words(t, mag, count, neg, t.lead[k], t.minus[k]), 48


def _text_cells(texts):
    """The words of text cells (no NUL characters) and their separator's bit offset."""
    encoded = [s.encode() for s in texts]
    k = (max(map(len, encoded), default=0) + 9) // 8
    block = np.array(encoded, dtype=f"S{8 * k}").view(_U64).reshape(len(encoded), k)
    return [block[:, i] for i in range(k)], 48


def _chunk_cells(t, chunk, kinds, widths):
    """(words, separator bit offset, cells per row) for each field of a chunk.

    The float fields are laid out in one `_float_cells` call and the int
    fields (ranges included) in one `_int_cells` call.
    """
    rows = len(chunk[0])
    laid = {}
    for kind, cells in (("f", _float_cells), ("i", _int_cells)):
        members = [
            np.arange(c.start, c.stop, c.step) if isinstance(c, range) else np.ravel(c)
            for c, k in zip(chunk, kinds)
            if k == kind
        ]
        if members:
            values = members[0] if len(members) == 1 else np.concatenate(members)
            dtype = np.float64 if kind == "f" else np.int64
            laid[kind] = (*cells(t, np.ascontiguousarray(values, dtype=dtype)), 0)
    parts = []
    for c, kind, width in zip(chunk, kinds, widths):
        if kind == "t":
            words, shift = _text_cells(c)
        else:
            words, shift, at = laid[kind]
            laid[kind] = (words, shift, at + rows * width)
            words = [w[at : at + rows * width] for w in words]
        parts.append((words, shift, width))
    return parts


def _write_rows(fh, *fields, end="\n"):
    """Write one CSV row per leading index of the `fields` to an open text file.

    Every field has the same number of rows: a 1-D array, a range or a list
    of texts gives one value per row, a 2-D array several, and the fields'
    values are joined left to right with commas.  A float is written as its
    ``repr`` (its shortest round-trip text), an int (from an int array or a
    range) as its digits and a text as it is.  Each row ends in `end`, of
    at most two characters; open `fh` with ``newline=""`` when `end` is not
    ``"\n"``.

    The rows go `_CHUNK_VALUES` values at a time into a matrix of uint64
    words, one matrix row per table row, where each cell's text and
    separator sit at fixed byte positions and NUL bytes fill the rest
    (`_float_cells`, `_int_cells`, `_text_cells`).  Dropping the NUL bytes
    (``bytes.translate``, a few rows at a time) leaves the chunk's text.  A
    fresh matrix per chunk keeps the writer's peak memory at the Ryu step; a
    matrix kept from the chunk before would add to it.
    """
    t = _number_tables()
    comma, line_end = (int.from_bytes(s.encode(), "little") for s in (",", end))
    widths = [1 if isinstance(f, (range, list)) or f.ndim == 1 else f.shape[1] for f in fields]
    kinds = [
        "t" if isinstance(f, list) else "i" if isinstance(f, range) or f.dtype.kind != "f" else "f"
        for f in fields
    ]
    step = max(1, _CHUNK_VALUES // max(sum(widths), 1))
    for lo in range(0, len(fields[0]), step):
        parts = _chunk_cells(t, [f[lo : lo + step] for f in fields], kinds, widths)
        rows = len(parts[0][0][0]) // parts[0][2]
        total = sum(len(words) * width for words, _, width in parts)
        matrix = np.empty((rows, total), dtype=_U64)
        col = 0
        for i, (words, shift, width) in enumerate(parts):
            last = words[-1].reshape(rows, width)
            last |= _U64(comma << shift)
            if i == len(parts) - 1 and line_end != comma:
                last[:, -1] ^= _U64((comma ^ line_end) << shift)
            block = matrix[:, col : col + width * len(words)].reshape(rows, width, len(words))
            for j, word in enumerate(words):
                block[:, :, j] = word.reshape(rows, width)
            col += width * len(words)
        del parts, words, last, block
        piece = max(1, _PIECE_BYTES // (8 * total))
        for at in range(0, rows, piece):
            fh.write(matrix[at : at + piece].tobytes().translate(None, b"\0").decode())
        del matrix


def write_dataset(path, data: FailureDataset) -> None:
    """Write the canonical CSV, embedding the design as metadata comments."""
    d = data.design
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# T={d.T!r}\n# m={d.m}\n# K={d.K}\n")
        fh.write("system_id,cause,time\n")
        _write_rows(fh, data.system_id, data.cause, data.time)

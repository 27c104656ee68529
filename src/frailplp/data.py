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


def _read_rows(fh, dtype, lineno):
    """Parse the rest of an open text file as comma-separated rows of `dtype`.

    `dtype` is a structured dtype with one field per column; `lineno` is the
    file's line number of the next line.  The rows are read in one
    ``np.loadtxt`` pass.  Should that pass refuse the text (a whole-line
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
            return np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, ndmin=1)
    except (ValueError, Warning):
        fh.seek(start)
    convert = [_int64 if dtype[name].kind == "i" else float for name in dtype.names]
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
    return np.array(rows, dtype=dtype)


_EVENT_ROW = np.dtype([("system_id", np.int64), ("cause", np.int64), ("time", np.float64)])


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

        rows = _read_rows(fh, _EVENT_ROW, lineno + 1)
    return FailureDataset._adopt(design, rows["system_id"], rows["cause"], rows["time"])


# Values per chunk of `_write_rows`: large enough that per-chunk overhead
# vanishes, small enough that a chunk's objects (about 100 kB) do not raise the
# peak memory of a command whose arrays are all alive while it writes; 4096
# raised the peak RSS of an m=500 `mcmc` command loop by 0.3-0.45 MB.
_CHUNK_VALUES = 1024


def _write_rows(fh, *fields, end="\n"):
    """Write one CSV row per leading index of the `fields` to an open text file.

    Every field has the same number of rows: a 1-D array, a range or a list
    of texts gives one value per row, a 2-D array several, and the fields'
    values are joined left to right with commas.  A text is written as it is
    and any other value as the repr of its Python scalar (``tolist()``), so a
    float prints as its shortest round-trip form and an int as its digits.
    Each row ends in `end`; open `fh` with ``newline=""`` when `end` is not
    ``"\n"``, since a text file that translates line ends copies every chunk
    once more.  The rows are built and
    written a chunk of about `_CHUNK_VALUES` values at a time (`_cell_chunks`);
    a 2-D row whose bytes equal the row before it reuses that row's text.
    """
    width = sum(1 if isinstance(f, (range, list)) or f.ndim == 1 else f.shape[1] for f in fields)
    step = max(1, _CHUNK_VALUES // width)
    for cells in zip(*(_cell_chunks(f, step) for f in fields)):
        fh.write(end.join(map(",".join, zip(*cells))))
        fh.write(end)


def _cell_chunks(field, step):
    """The texts of one field's rows, `step` rows per chunk.

    A chunk of a list of texts is those texts, and a chunk of a range or a
    1-D array a column of reprs (an int's str is its repr).  A 2-D field's
    rows are joined one by one, except that a row whose bytes equal the row
    before it (a rejected move repeats a trace's draw) reuses that row's text.
    Comparing bytes rather than values keeps -0.0 after 0.0, and NaN rows,
    exact.
    """
    starts = range(0, len(field), step)
    if isinstance(field, (range, list)):
        yield from (map(str, field[lo : lo + step]) for lo in starts)
    elif field.ndim == 1:
        yield from (map(repr, field[lo : lo + step].tolist()) for lo in starts)
    else:
        last = text = None
        for lo in starts:
            block = field[lo : lo + step]
            texts = []
            for row, values in zip(block, block.tolist()):
                bits = row.tobytes()
                if bits != last:
                    last, text = bits, ",".join(map(repr, values))
                texts.append(text)
            yield texts


def write_dataset(path, data: FailureDataset) -> None:
    """Write the canonical CSV, embedding the design as metadata comments."""
    d = data.design
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# T={d.T!r}\n# m={d.m}\n# K={d.K}\n")
        fh.write("system_id,cause,time\n")
        _write_rows(fh, data.system_id, data.cause, data.time)

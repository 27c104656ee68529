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
    times are rejected.
    """

    design: ObservationDesign
    system_id: np.ndarray
    cause: np.ndarray
    time: np.ndarray

    def __init__(self, design, system_id, cause, time):
        system_id = np.asarray(system_id, dtype=np.int64)
        cause = np.asarray(cause, dtype=np.int64)
        time = np.asarray(time, dtype=float)
        if not (time.ndim == 1 and system_id.shape == cause.shape == time.shape):
            raise DatasetError("system_id, cause and time must be 1-D columns of one length")
        same_system = system_id[1:] == system_id[:-1]
        in_order = (system_id[1:] > system_id[:-1]) | (same_system & (time[1:] >= time[:-1]))
        if in_order.all():
            system_id, cause, time = system_id.copy(), cause.copy(), time.copy()
        else:
            order = np.lexsort((time, system_id))
            system_id, cause, time = system_id[order], cause[order], time[order]
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

    def system_times(self, system_id):
        """Ordered failure times of one system (a read-only view)."""
        lo, hi = np.searchsorted(self.system_id, [system_id, system_id + 1])
        return self.time[lo:hi]


@dataclass(frozen=True)
class CountSummary:
    """Count statistics feeding the likelihood.

    n_jq is the m-by-K matrix of per-system per-cause failure counts;
    log_ratio_sums[q-1] is the sum of log(T / t) over all cause-q failures.
    """

    n_jq: np.ndarray
    n_j: np.ndarray
    n_q: np.ndarray
    log_ratio_sums: np.ndarray
    design: ObservationDesign = field(compare=False)

    @property
    def n(self):
        return int(self.n_j.sum())


def summarize(data: FailureDataset) -> CountSummary:
    """Tabulate per-system/per-cause counts and the per-cause log-ratio sums."""
    d = data.design
    cell = (data.system_id - 1) * d.K + (data.cause - 1)
    n_jq = np.bincount(cell, minlength=d.m * d.K).reshape(d.m, d.K)
    log_ratio = np.bincount(data.cause - 1, weights=np.log(d.T) - np.log(data.time), minlength=d.K)
    return CountSummary(
        n_jq=n_jq,
        n_j=n_jq.sum(axis=1),
        n_q=n_jq.sum(axis=0),
        log_ratio_sums=log_ratio,
        design=d,
    )


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


def _read_rows(fh, dtype, lineno):
    """Parse the rest of an open text file as comma-separated rows of `dtype`.

    `dtype` is a structured dtype with one field per column; `lineno` is the
    file's line number of the next line.  The rows are read in one
    ``np.loadtxt`` pass.  Should that pass refuse the text (a whole-line
    ``#`` comment, a whitespace-only line, a field that only Python's
    ``int``/``float`` accept, a malformed row, no rows at all), the rows are
    read again one line at a time: blank and ``#`` lines are skipped, fields
    are stripped and converted with ``int``/``float``, and a bad row raises
    `ParseError` naming its line.
    """
    start = fh.tell()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, ndmin=1)
    except (ValueError, Warning):
        fh.seek(start)
    convert = [int if dtype[name].kind == "i" else float for name in dtype.names]
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
    `_read_rows` for what else the body may hold).
    """
    comment_lines = []
    with open(path, "r", encoding="utf-8") as fh:
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
    return FailureDataset(design, rows["system_id"], rows["cause"], rows["time"])


def write_dataset(path, data: FailureDataset) -> None:
    """Write the canonical CSV, embedding the design as metadata comments."""
    d = data.design
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# T={d.T!r}\n# m={d.m}\n# K={d.K}\n")
        fh.write("system_id,cause,time\n")
        rows = zip(data.system_id.tolist(), data.cause.tolist(), data.time.tolist())
        fh.writelines(f"{j},{q},{t!r}\n" for j, q, t in rows)

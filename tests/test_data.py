"""Dataset model: validation, ingest/write round trip, count summaries."""

import dataclasses
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frailplp.data import (
    _CHUNK_VALUES,
    _parse_metadata,
    _write_rows,
    ObservationDesign,
    FailureDataset,
    DatasetError,
    ParseError,
    ingest,
    summarize,
    write_dataset,
)
from frailplp.plp import PlpParams
from frailplp.simulate import SimScenario, simulate

from conftest import COLUMNS, REPR_EDGES, make_dataset, same_events


class TestValidation:
    def test_design_rejects_bad_dimensions(self):
        with pytest.raises(DatasetError):
            ObservationDesign(T=0.0, m=1, K=1)
        with pytest.raises(DatasetError):
            ObservationDesign(T=math.inf, m=1, K=1)
        with pytest.raises(DatasetError):
            ObservationDesign(T=1.0, m=0, K=1)
        with pytest.raises(DatasetError):
            ObservationDesign(T=1.0, m=1, K=0)

    def test_record_outside_window_rejected(self):
        for bad_time in (0.0, 20.0, 25.0, -1.0):
            with pytest.raises(DatasetError):
                make_dataset(events=[(1, 1, bad_time)])

    def test_unknown_system_or_cause_rejected(self):
        with pytest.raises(DatasetError):
            make_dataset(m=2, events=[(3, 1, 1.0)])
        with pytest.raises(DatasetError):
            make_dataset(K=1, events=[(1, 2, 1.0)])

    def test_tied_times_within_system_rejected(self):
        with pytest.raises(DatasetError):
            make_dataset(events=[(1, 1, 5.0), (1, 1, 5.0)])

    def test_tied_times_across_systems_allowed(self):
        data = make_dataset(events=[(1, 1, 5.0), (2, 1, 5.0)])
        assert len(data) == 2

    def test_records_sorted_regardless_of_input_order(self):
        shuffled = make_dataset(events=[(2, 1, 3.0), (1, 1, 9.0), (1, 1, 2.0)])
        ordered = make_dataset(events=[(1, 1, 2.0), (1, 1, 9.0), (2, 1, 3.0)])
        assert same_events(shuffled, ordered)
        assert shuffled.system_id.tolist() == [1, 1, 2]
        assert shuffled.time.tolist() == [2.0, 9.0, 3.0]

    def test_columns_read_only_after_construction(self):
        data = make_dataset(events=[(1, 1, 5.0), (2, 1, 3.0)])
        for name in COLUMNS:
            with pytest.raises(ValueError):
                getattr(data, name)[0] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            data.time = np.array([1.0, 2.0])

    def test_sorted_columns_are_copied_not_adopted(self):
        system_id = np.array([1, 1, 2], dtype=np.int64)
        time = np.array([2.0, 9.0, 3.0])
        data = FailureDataset(ObservationDesign(T=20.0, m=2, K=1), system_id, [1, 1, 1], time)
        assert system_id.flags.writeable and time.flags.writeable
        time[0] = 4.0
        assert data.time.tolist() == [2.0, 9.0, 3.0]

    def test_failure_free_dataset_is_valid(self):
        data = make_dataset(m=5, events=[])
        assert len(data) == 0
        assert summarize(data).n == 0

    def test_system_times(self):
        # each system's times are one ordered run of the columns
        data = make_dataset(events=[(1, 1, 7.0), (2, 1, 1.0), (1, 1, 2.0)])
        assert data.system_id.tolist() == [1, 1, 2]
        assert data.time.tolist() == [2.0, 7.0, 1.0]


class TestSummarize:
    def test_counts(self):
        data = make_dataset(
            m=3, K=2, events=[(1, 1, 1.0), (1, 2, 2.0), (1, 1, 3.0), (3, 2, 4.0)]
        )
        s = summarize(data)
        assert s.n_jq.tolist() == [[2, 1], [0, 0], [0, 1]]
        assert s.n_j.tolist() == [3, 0, 1]
        assert s.n_q.tolist() == [2, 2]
        assert s.n == 4

    def test_log_ratio_unit_at_t_over_e(self):
        T = 17.3
        data = make_dataset(T=T, m=1, events=[(1, 1, T / math.e)])
        s = summarize(data)
        assert s.log_ratio_sums[0] == pytest.approx(1.0, abs=1e-12)

    def test_log_ratio_additive(self):
        T = 20.0
        data = make_dataset(T=T, m=1, events=[(1, 1, 5.0), (1, 1, 10.0)])
        s = summarize(data)
        assert s.log_ratio_sums[0] == pytest.approx(
            math.log(T / 5.0) + math.log(T / 10.0)
        )

    def test_log_ratio_finite_for_subnormal_time(self):
        data = make_dataset(T=20.0, m=1, events=[(1, 1, 1e-320), (1, 1, 5.0)])
        s = summarize(data)
        expected = math.log(20.0) - math.log(1e-320) + math.log(4.0)
        assert math.isfinite(s.log_ratio_sums[0])
        assert s.log_ratio_sums[0] == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_equals_the_whole_array_expressions(self, fleet_scenario):
        data, _ = simulate(fleet_scenario)
        d = data.design
        s = summarize(data)
        cell = (data.system_id - 1) * d.K + (data.cause - 1)
        assert np.array_equal(s.n_jq, np.bincount(cell, minlength=d.m * d.K).reshape(d.m, d.K))
        log_ratio = np.log(d.T) - np.log(data.time)
        assert np.array_equal(
            s.log_ratio_sums, np.bincount(data.cause - 1, weights=log_ratio, minlength=d.K)
        )


@st.composite
def datasets(draw, edge=1e-6):
    """Small fleets with failure times in [T * edge, T * (1 - edge)) (edge > 0)
    or anywhere in the open window (0, T) (edge = 0)."""
    m = draw(st.integers(1, 6))
    K = draw(st.integers(1, 3))
    T = draw(st.floats(1.0, 100.0))
    n = draw(st.integers(0, 12))
    events = []
    used = set()
    for _ in range(n):
        j = draw(st.integers(1, m))
        q = draw(st.integers(1, K))
        t = draw(
            st.floats(
                min_value=T * edge, max_value=T * (1 - edge), exclude_min=edge == 0, exclude_max=True
            )
        )
        if (j, t) in used:
            continue
        used.add((j, t))
        events.append((j, q, t))
    return make_dataset(T=T, m=m, K=K, events=events)


class TestSummarizeMatchesEventLoop:
    @settings(max_examples=50, deadline=None)
    @given(data=datasets())
    def test_counts_exact_and_log_ratios_to_rounding(self, data):
        d = data.design
        n_jq = np.zeros((d.m, d.K), dtype=int)
        log_ratio = np.zeros(d.K)
        terms = np.zeros(d.K)
        for j, q, t in zip(data.system_id.tolist(), data.cause.tolist(), data.time.tolist()):
            n_jq[j - 1, q - 1] += 1
            log_ratio[q - 1] += math.log(d.T) - math.log(t)
            terms[q - 1] += abs(math.log(d.T)) + abs(math.log(t))
        s = summarize(data)
        assert np.array_equal(s.n_jq, n_jq)
        # same summation order; np.log and math.log may differ in the last ulp
        # of log(T) or log(t), so the bound scales with those terms
        assert np.all(np.abs(s.log_ratio_sums - log_ratio) <= 1e-12 * terms)


class TestFileRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(data=datasets(edge=0.0))
    def test_write_then_ingest_is_identity(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("rt") / "d.csv"
        write_dataset(path, data)
        again = ingest(path)
        assert again.design == data.design
        assert same_events(again, data)

    @pytest.mark.parametrize("shuffle", [False, True])
    def test_ingested_dataset_is_sorted_and_read_only(self, tmp_path, fleet_scenario, shuffle):
        data, _ = simulate(fleet_scenario)
        rows = np.column_stack([getattr(data, name) for name in COLUMNS]).tolist()
        if shuffle:
            np.random.default_rng(2).shuffle(rows)
        d = data.design
        path = tmp_path / "fleet.csv"
        path.write_text(
            f"# T={d.T!r}\n# m={d.m}\n# K={d.K}\nsystem_id,cause,time\n"
            + "".join(f"{int(j)},{int(q)},{t!r}\n" for j, q, t in rows)
        )
        got = ingest(path)
        assert same_events(got, data)
        for name in COLUMNS:
            assert not getattr(got, name).flags.writeable

    def test_explicit_design_overrides_metadata(self, tmp_path):
        data = make_dataset(T=20.0, m=2, events=[(1, 1, 5.0)])
        path = tmp_path / "d.csv"
        write_dataset(path, data)
        bigger = ObservationDesign(T=30.0, m=4, K=2)
        again = ingest(path, design=bigger)
        assert again.design == bigger

    def test_missing_metadata_without_design_fails(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("system_id,cause,time\n1,1,5.0\n")
        with pytest.raises(ParseError):
            ingest(path)

    def test_bad_header_reports_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("# T=20\n# m=1\n# K=1\ntime,cause\n")
        with pytest.raises(ParseError):
            ingest(path)

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("# T=20\n# m=1\n# K=1\nsystem_id,cause,time\n1,1\n")
        with pytest.raises(ParseError) as err:
            ingest(path)
        assert err.value.line == 5

    def test_non_numeric_value_reports_line_number(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("# T=20\n# m=1\n# K=1\nsystem_id,cause,time\n1,1,oops\n")
        with pytest.raises(ParseError) as err:
            ingest(path)
        assert err.value.line == 5

    def test_blank_lines_and_trailing_comments_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "# T=20\n# m=1\n# K=1\nsystem_id,cause,time\n\n1,1,5.0\n# note\n"
        )
        data = ingest(path)
        assert len(data) == 1
        assert (data.system_id[0], data.cause[0], data.time[0]) == (1, 1, 5.0)


def reference_write_dataset(path, data):
    """The per-row writer that the chunked writer replaced, kept as the oracle."""
    d = data.design
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# T={d.T!r}\n# m={d.m}\n# K={d.K}\n")
        fh.write("system_id,cause,time\n")
        rows = zip(data.system_id.tolist(), data.cause.tolist(), data.time.tolist())
        fh.writelines(f"{j},{q},{t!r}\n" for j, q, t in rows)


DATASET_CHUNK_ROWS = _CHUNK_VALUES // 3
# row counts at the boundaries of a 1024-value chunk: off the current chunk's
# boundaries, they end a table part way through a chunk
DATASET_SMALL_CHUNK_ROWS = [340, 341, 342, 1025]


class TestWriteDataset:
    @pytest.mark.parametrize(
        "n",
        [0, 1, DATASET_CHUNK_ROWS - 1, DATASET_CHUNK_ROWS, DATASET_CHUNK_ROWS + 1,
         3 * DATASET_CHUNK_ROWS + 2, *DATASET_SMALL_CHUNK_ROWS],
    )
    def test_bytes_match_per_row_writer(self, tmp_path, n):
        rng = np.random.default_rng(n)
        time = np.concatenate([REPR_EDGES, rng.lognormal(sigma=12.0, size=n)])[:n]
        design = ObservationDesign(T=1e300, m=997 * max(n, 1), K=3)
        data = FailureDataset(design, 997 * np.arange(1, n + 1), rng.integers(1, 4, n), time)
        write_dataset(tmp_path / "new.csv", data)
        reference_write_dataset(tmp_path / "ref.csv", data)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_large_fleet_writes_in_bounded_memory(self, tmp_path):
        scenario = SimScenario(
            design=ObservationDesign(T=20.0, m=5000, K=2),
            true_params=PlpParams(beta=np.array([1.2, 0.7]), alpha=np.array([5.0, 13.33])),
            eta=0.5,
            seed=11,
        )
        data, _ = simulate(scenario)
        assert len(data) > 80_000
        tracemalloc.start()
        try:
            write_dataset(tmp_path / "fleet.csv", data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


def _quiet_nan(payload):
    return np.array([0x7FF8000000000000 | payload], dtype=np.uint64).view(float)[0]


def _repeated_rows(seed, width, runs):
    """Rows of `width` values, each new row repeated as often as `runs` says."""
    rows = np.random.default_rng(seed).lognormal(sigma=5.0, size=(len(runs), width))
    return np.repeat(rows, runs, axis=0)


class TestWriteRows:
    """2-D fields, whose rows repeat in a trace, against a per-row writer."""

    @staticmethod
    def written(*fields):
        buf = io.StringIO()
        _write_rows(buf, *fields)
        return buf.getvalue()

    @staticmethod
    def reference(array):
        return "".join(",".join(map(repr, row)) + "\n" for row in array.tolist())

    @pytest.mark.parametrize(
        "array",
        [
            np.array([[1.5, 2.0], [1.5, 2.0], [1.5, 2.0], [3.0, 1e-300], [1.5, 2.0]]),
            np.array([[0.0, 1.0], [-0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [0.0, -0.0], [0.0, 0.0]]),
            np.array([[np.nan, np.inf], [np.nan, np.inf], [np.inf, -np.inf], [np.inf, -np.inf],
                      [np.nan, np.nan], [_quiet_nan(1), np.nan], [np.nan, np.nan]]),
            np.array([[0.1, -2.5e-300, 5e-324]]),
            np.array([[7.0]]),
            np.empty((0, 3)),
            np.array([[3, -7], [3, -7], [2**40, 0]]),
            # narrow rows whose runs cross chunk boundaries
            _repeated_rows(1, 3, [1, _CHUNK_VALUES // 3, 2, _CHUNK_VALUES, 1]),
            # rows wider than a chunk, so one row per chunk and every repeat
            # reuses the text of the chunk before
            _repeated_rows(2, _CHUNK_VALUES + 5, [3, 1, 2]),
        ],
    )
    def test_bytes_match_per_row_join(self, array):
        assert self.written(array) == self.reference(array)

    def test_repeats_next_to_an_index_and_a_column(self):
        block = _repeated_rows(3, 4, [2, 1, 3])
        column = np.random.default_rng(4).normal(size=len(block))
        expected = "".join(
            ",".join([repr(i)] + list(map(repr, row)) + [repr(v)]) + "\n"
            for i, (row, v) in enumerate(zip(block.tolist(), column.tolist()))
        )
        assert self.written(range(len(block)), block, column) == expected


# int64 values at the ends of the range and of the writer's digit words
# (six digits in the last word, eight in each word before it)
INT_EDGES = [-(2**63), 2**63 - 1, 0, -1, 99_999, -99_999, 999_999, 10**6, -(10**13), 10**14, 10**18]
# any float: st.floats() draws nan, infinities, zeros and subnormals, and a raw
# bit pattern reaches every payload and exponent
ANY_FLOAT = st.one_of(
    st.floats(),
    st.integers(0, 2**64 - 1).map(lambda b: np.array(b, dtype=np.uint64).view(np.float64).item()),
    st.sampled_from(REPR_EDGES),
)
ANY_INT = st.one_of(st.integers(-(2**63), 2**63 - 1), st.sampled_from(INT_EDGES))


class TestWriteRowsMatchesRepr:
    """Every cell is the repr of its Python value, whatever the value."""

    @settings(max_examples=300, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 12), st.integers(1, 6)),
        data=st.data(),
    )
    def test_text_is_repr(self, shape, data):
        rows, width = shape
        ints = data.draw(st.lists(ANY_INT, min_size=rows, max_size=rows))
        floats = data.draw(st.lists(ANY_FLOAT, min_size=rows * width, max_size=rows * width))
        column = np.array(ints, dtype=np.int64)
        block = np.array(floats, dtype=np.float64).reshape(rows, width)
        buf = io.StringIO()
        _write_rows(buf, column, block, block[:, 0])
        expected = "".join(
            ",".join(map(repr, [i, *row, row[0]])) + "\n"
            for i, row in zip(ints, block.tolist())
        )
        assert buf.getvalue() == expected

    def test_tall_trace_writes_in_bounded_memory(self, tmp_path):
        # a 2-D block is written a few rows at a time: the chunk's working set,
        # not the table, bounds the memory (the block alone holds 4 MB)
        block = np.random.default_rng(8).lognormal(size=(1000, 500))
        _write_rows(io.StringIO(), block[:2])
        tracemalloc.start()
        try:
            with open(tmp_path / "z.csv", "w", encoding="utf-8") as fh:
                _write_rows(fh, range(len(block)), block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


def reference_ingest(path, design=None):
    """The per-line reader that the bulk parse replaced, kept as the oracle."""
    comment_lines = []
    system_id, cause, time = [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header_idx = None
    for i, raw in enumerate(lines):
        if raw.startswith("#"):
            comment_lines.append((i + 1, raw))
        elif raw.strip():
            header_idx = i
            break
    if header_idx is None:
        raise ParseError("missing header row 'system_id,cause,time'")
    header = [c.strip() for c in lines[header_idx].split(",")]
    if header != ["system_id", "cause", "time"]:
        raise ParseError(f"unexpected header {lines[header_idx]!r}", line=header_idx + 1)

    if design is None:
        meta = _parse_metadata(comment_lines)
        missing = {"T", "m", "K"} - meta.keys()
        if missing:
            raise ParseError(
                f"no design given and metadata lacks {sorted(missing)}"
            )
        design = ObservationDesign(T=meta["T"], m=meta["m"], K=meta["K"])

    for lineno in range(header_idx + 1, len(lines)):
        raw = lines[lineno]
        if not raw.strip() or raw.startswith("#"):
            continue
        parts = [c.strip() for c in raw.split(",")]
        if len(parts) != 3:
            raise ParseError(f"expected 3 columns, got {len(parts)}", line=lineno + 1)
        try:
            j, t, q = int(parts[0]), float(parts[2]), int(parts[1])
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno + 1) from None
        if not (-(2**63) <= j < 2**63 and -(2**63) <= q < 2**63):
            raise ParseError("integer beyond int64", line=lineno + 1)
        system_id.append(j)
        cause.append(q)
        time.append(t)
    return FailureDataset(design, system_id, cause, time)


def outcome(reader, path):
    """The dataset a reader returns, or the type (and line) of what it raises."""
    try:
        return reader(path)
    except Exception as exc:  # noqa: BLE001 - any failure must match the oracle's
        return type(exc), getattr(exc, "line", None)


PREAMBLE = "# T=20.0\n# m=3\n# K=2\nsystem_id,cause,time\n"
# Lines other than plain rows; each body draws rows plus a few of these kinds,
# so that a body often holds one kind of odd line alone.
ODD_LINES = ["", "  ", "\t", "# note", "#1,1,2.0", " # indented", "1,1", "1,1,2.0,3", "1,1,2.0 # c"]
TOKENS = ["x", "", "0", "4", "25.0", "1.0", "1_0", "+2", "-0", "nan", "inf", "1e-320", "٣", "1" * 20]
PADDED, TOKEN = "padded row", "row with an odd token"


def pad(draw, text):
    return draw(st.sampled_from(["", " ", "\t"])) + text + draw(st.sampled_from(["", " ", "  "]))


@st.composite
def csv_bodies(draw):
    """Event-file bodies: valid rows mixed with padded, blank, comment and bad lines."""
    kinds = ["row"] + draw(
        st.lists(st.sampled_from([PADDED, TOKEN] + ODD_LINES), max_size=2, unique=True)
    )
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(kinds))
        if kind in ODD_LINES:
            lines.append(kind)
            continue
        fields = [
            str(draw(st.integers(1, 3))),
            str(draw(st.integers(1, 2))),
            repr(draw(st.floats(0.0, 20.0, exclude_min=True, exclude_max=True))),
        ]
        if kind == TOKEN:
            fields[draw(st.integers(0, 2))] = draw(st.sampled_from(TOKENS))
        if kind != "row":
            fields = [pad(draw, f) for f in fields]
        lines.append(",".join(fields))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    body = end.join(lines)
    return body + end if lines and draw(st.booleans()) else body


class TestIngestMatchesPerLineReader:
    @settings(max_examples=300, deadline=None)
    @given(body=csv_bodies(), blank_before_header=st.booleans())
    def test_same_columns_or_same_error_line(self, tmp_path_factory, body, blank_before_header):
        path = tmp_path_factory.mktemp("oracle") / "d.csv"
        preamble = PREAMBLE.replace("system_id", "\nsystem_id") if blank_before_header else PREAMBLE
        path.write_bytes((preamble + body).encode("utf-8"))
        got, want = outcome(ingest, path), outcome(reference_ingest, path)
        if isinstance(want, FailureDataset):
            assert isinstance(got, FailureDataset), got
            assert got.design == want.design
            assert same_events(got, want)
        else:
            assert got == want

    def test_header_without_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        for body in ("", "\n", "\n  \n# none\n"):
            path.write_text(PREAMBLE + body)
            data = ingest(path)
            assert len(data) == 0 and data.design == ObservationDesign(T=20.0, m=3, K=2)
            assert same_events(data, reference_ingest(path))

    def test_only_newline_chars_end_a_line(self, tmp_path):
        # Deliberate difference from str.splitlines: a form feed or a Unicode
        # line separator inside a row is part of that row, not a line break.
        path = tmp_path / "d.csv"
        path.write_text(PREAMBLE + "1,1,5.0\n2,1,3.0\x0c3,2,4.0\n")
        with pytest.raises(ParseError) as err:
            ingest(path)
        assert err.value.line == 6
        assert len(reference_ingest(path)) == 3

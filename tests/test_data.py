"""Dataset model: validation, ingest/write round trip, count summaries."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frailplp.data import (
    _parse_metadata,
    ObservationDesign,
    FailureDataset,
    DatasetError,
    ParseError,
    ingest,
    summarize,
    write_dataset,
)

from conftest import COLUMNS, make_dataset, same_events


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
        with pytest.raises(ValueError):
            data.system_times(1)[0] = 4.0
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
        data = make_dataset(events=[(1, 1, 7.0), (2, 1, 1.0), (1, 1, 2.0)])
        assert np.array_equal(data.system_times(1), [2.0, 7.0])
        assert np.array_equal(data.system_times(2), [1.0])


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

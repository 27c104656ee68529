"""Dataset model: validation, ingest/write round trip, count summaries."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frailplp.data import (
    ObservationDesign,
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
        for j, q, t in zip(data.system_id.tolist(), data.cause.tolist(), data.time.tolist()):
            n_jq[j - 1, q - 1] += 1
            log_ratio[q - 1] += math.log(d.T / t)
        s = summarize(data)
        assert np.array_equal(s.n_jq, n_jq)
        # same summation order; np.log and math.log may differ in the last ulp
        assert np.allclose(s.log_ratio_sums, log_ratio, rtol=1e-12, atol=0.0)


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

"""Round-trip tests for the CSV/JSON serialization helpers."""

import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrspec.beliefs import BeliefState
from mrspec.models import LogSpectrum, SampledSeries, SpectralModel
from mrspec.serialize import (
    MODEL_FIELDS,
    ConfigError,
    CsvFormatError,
    belief_from_dict,
    belief_to_dict,
    format_value,
    read_csv,
    read_fields,
    read_json,
    read_series,
    spectrum_source_from_dict,
    write_csv,
    write_json,
    write_series,
)


class TestFormatValue:
    def test_round_trips_doubles(self):
        for v in (0.1, 1.0 / 3.0, np.pi, 1e-300, -2.5e17):
            assert float(format_value(v)) == v

    def test_integers_stay_integers(self):
        assert format_value(7) == "7"
        assert format_value(np.int64(-3)) == "-3"


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        cols = [np.array([1.0, 2.0, np.pi]), np.array([0.1, -0.2, 1e-13])]
        write_csv(path, ["a", "b"], cols)
        header, got = read_csv(path)
        assert header == ["a", "b"]
        assert np.array_equal(got[0], cols[0])
        assert np.array_equal(got[1], cols[1])

    def test_lf_endings(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a"], [np.array([1.0])])
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_bad_field_count_reports_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(CsvFormatError, match="row 3") as info:
            read_csv(path)
        assert info.value.row == 3

    def test_bad_number_reports_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a\n1\nx\n")
        with pytest.raises(CsvFormatError, match="row 3"):
            read_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        with pytest.raises(CsvFormatError):
            read_csv(path)


def per_cell_csv(header, columns):
    """The CSV bytes ``write_csv`` must give: each cell by ``format_value``."""
    rows = [",".join(header)]
    rows += [",".join(format_value(c[i]) for c in columns) for i in range(len(columns[0]))]
    return "".join(row + "\n" for row in rows).encode()


EDGE_FLOATS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.2250738585072009e-308,
               1.7976931348623157e308, -1.7976931348623157e308]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=True, allow_infinity=True))
COLUMN = st.sampled_from(["int64", "bool", "float64"])


class TestCsvBytes:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), kinds=st.lists(COLUMN, min_size=1, max_size=5),
           rows=st.integers(0, 12))
    def test_equals_per_cell_writer(self, tmp_path_factory, data, kinds, rows):
        cells = {"int64": st.integers(-2**63, 2**63 - 1), "bool": st.booleans(),
                 "float64": FLOATS}
        columns = [np.array(data.draw(st.lists(cells[k], min_size=rows, max_size=rows)),
                            dtype=k) for k in kinds]
        header = ["c%d" % i for i in range(len(columns))]
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        write_csv(path, header, columns)
        assert path.read_bytes() == per_cell_csv(header, columns)

    def test_strided_and_list_columns(self, tmp_path):
        # the CLI passes matrix columns (strided views) and plain lists
        table = np.arange(12.0).reshape(3, 4) / 7.0
        columns = [[1, 2, 3], [0.5, -1.25, 3.0], table[:, 1], table[:, 3]]
        path = tmp_path / "t.csv"
        write_csv(path, list("abcd"), columns)
        assert path.read_bytes() == per_cell_csv(list("abcd"), [np.asarray(c) for c in columns])

    @pytest.mark.parametrize("lengths", [(3, 2), (2, 3), (3, 3, 4)])
    def test_unequal_columns_are_rejected_before_the_file_opens(self, tmp_path, lengths):
        # no IndexError from a shorter later column, no file cut to the first column's length
        path = tmp_path / "t.csv"
        columns = [np.arange(float(n)) for n in lengths]
        with pytest.raises(ValueError, match=r"unequal lengths \[%s\]"
                           % ", ".join(map(str, lengths))):
            write_csv(path, ["c%d" % i for i in range(len(lengths))], columns)
        assert not path.exists()


def read_model(obj):
    return read_fields(MODEL_FIELDS, obj, "model")


class TestModelDict:
    def test_read_values_build_the_model(self):
        values = read_model({"ar": [0.5, -0.2], "ma": [0.3], "sar": [0.4], "s": 12,
                             "sigma2": 1.5})
        model = SpectralModel(ar=(0.5, -0.2), ma=(0.3,), seasonal_ar=(0.4,),
                              season_period=12, innovation_variance=1.5)
        assert spectrum_source_from_dict({"model": values}) == model

    def test_missing_sigma2(self):
        with pytest.raises(ConfigError, match="sigma2"):
            read_model({"ar": [0.5]})

    def test_source_selection(self):
        src = spectrum_source_from_dict({"logspectrum": [0.1, 0.2]})
        assert isinstance(src, LogSpectrum)
        src = spectrum_source_from_dict({"model": read_model({"ar": [0.5], "sigma2": 1.0})})
        assert isinstance(src, SpectralModel)
        with pytest.raises(ConfigError):
            spectrum_source_from_dict({})

    @pytest.mark.parametrize("key", ["AR", "phi", "sigma"])
    def test_unknown_key_is_rejected(self, key):
        with pytest.raises(ConfigError, match=repr(key)):
            read_model({"sigma2": 1.0, key: [0.9]})

    def test_model_and_logspectrum_together_is_rejected(self):
        with pytest.raises(ConfigError, match="both 'model' and 'logspectrum'"):
            spectrum_source_from_dict({"model": read_model({"sigma2": 1.0}),
                                       "logspectrum": [0.1]})


class TestSeriesRoundTrip:
    def test_round_trip_with_sidecar(self, tmp_path):
        series = SampledSeries(np.array([1.0, 2.5, -0.5]), stride=3, offset=1,
                               base_step=0.25)
        csv, side = tmp_path / "s.csv", tmp_path / "s.json"
        write_series(csv, side, series)
        got = read_series(csv, side)
        assert np.array_equal(got.values, series.values)
        assert got.stride == 3 and got.offset == 1 and got.base_step == 0.25

    @pytest.mark.parametrize("meta,key", [({"strid": 4}, "'strid'"), ({"stride": 4.7}, "'stride'"),
                                          ({"offset": "1"}, "'offset'")])
    def test_sidecar_unknown_key_or_fractional_stride_is_rejected(self, tmp_path, meta, key):
        csv, side = tmp_path / "s.csv", tmp_path / "s.json"
        write_series(csv, side, SampledSeries(np.zeros(3)))
        write_json(side, meta)
        with pytest.raises(ValueError, match=key):
            read_series(csv, side)

    def test_defaults_without_sidecar(self, tmp_path):
        series = SampledSeries(np.array([1.0, 2.0]), base_step=0.5)
        csv, side = tmp_path / "s.csv", tmp_path / "s.json"
        write_series(csv, side, series)
        got = read_series(csv)
        assert (got.stride, got.offset, got.base_step) == (1, 0, 1.0)

    @pytest.mark.parametrize("header", ["foo,bar", "index", "index,value,extra"])
    def test_header_must_be_index_value(self, tmp_path, header):
        # two wrong names read as (index, value); one or three columns failed to unpack
        csv = tmp_path / "s.csv"
        width = header.count(",") + 1
        csv.write_text("\n".join([header] + [",".join([str(k)] * width) for k in range(3)]) + "\n")
        with pytest.raises(CsvFormatError, match=re.escape("%s has header %r" % (csv, header))):
            read_series(csv)

    @pytest.mark.parametrize("meta,row", [(None, 2), ({"stride": 4}, 2),
                                          ({"stride": 2, "offset": 1}, 3)])
    def test_index_column_must_match_sidecar(self, tmp_path, meta, row):
        # a stride-4 series read without its sidecar must not be read as dense
        csv, side = tmp_path / "s.csv", tmp_path / "s.json"
        write_series(csv, side, SampledSeries(np.arange(5.0), stride=4, offset=1))
        write_json(side, meta)
        with pytest.raises(CsvFormatError, match="row %d of .*'index'" % row) as info:
            read_series(csv, side if meta else None)
        assert info.value.row == row


class TestBeliefDict:
    def test_round_trip(self, tmp_path):
        state = BeliefState(np.array([1.0, -0.5]), np.diag([2.0, 0.5]))
        path = tmp_path / "b.json"
        write_json(path, belief_to_dict(state))
        got = belief_from_dict(read_json(path))
        assert np.array_equal(got.mean, state.mean)
        assert np.array_equal(got.variance, state.variance)

    @pytest.mark.parametrize("mean,variance,message", [
        ([0.0, True], [[1, 0], [0, 1]], "'mean': must be a finite number, got True"),
        ([0.0, 1], [[1, "0"], [0, 1]], "'variance': must be a finite number, got '0'"),
        ([0.0, 1], [[1, 0], [0, float("nan")]], "'variance': must be a finite number, got nan"),
        ([0.0, 1], [[1, 0], 3], "'variance': must be a list of at least 1 item(s), got 3"),
        ([], [[1]], "'mean': must be a list of at least 1 item(s), got []"),
        ([0.0, 10**400], [[1, 0], [0, 1]], "'mean': int too large to convert to float"),
        ([0.0, 1.0], [[1.0, 0.0], [0.0]], "'variance': must be rectangular, got rows of lengths [1, 2]"),
    ], ids=["bool", "string", "nan", "scalar-row", "empty", "huge-int", "ragged-row"])
    def test_bad_entry_is_config_error_naming_the_key(self, mean, variance, message):
        with pytest.raises(ConfigError, match="^%s$" % re.escape("belief field " + message)):
            belief_from_dict({"mean": mean, "variance": variance})

    @pytest.mark.parametrize("obj", [
        belief_to_dict(BeliefState(np.array([0.2, -1.0 / 3.0]),
                                   np.array([[0.4, 1e-17], [1e-17, 2.5e300]]))),
        {"command": "estimate", "version": "0.1.0",
         "config": {"series": ["a.csv", {"csv": "b.csv", "id": "recent"}], "mc_samples": 600,
                    "prior": {"size": 8, "scale": 1.5}, "seed": None, "flag": True}},
    ], ids=["belief", "manifest"])
    def test_bytes_equal_json_dump(self, tmp_path, obj):
        # the whole text is built before one write; the bytes are json.dump's
        want = io.StringIO()
        json.dump(obj, want, indent=2, sort_keys=True)
        want.write("\n")
        path = tmp_path / "o.json"
        write_json(path, obj)
        assert path.read_bytes() == want.getvalue().encode()

    def test_json_is_stable(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        obj = {"b": 1, "a": [1.5, 2.5]}
        write_json(p1, obj)
        write_json(p2, obj)
        assert p1.read_bytes() == p2.read_bytes()

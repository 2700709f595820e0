"""Round-trip tests for the CSV/JSON serialization helpers."""

import numpy as np
import pytest

from mrspec.beliefs import BeliefState
from mrspec.models import LogSpectrum, SampledSeries, SpectralModel
from mrspec.serialize import (
    CsvFormatError,
    belief_from_dict,
    belief_to_dict,
    format_value,
    model_from_dict,
    model_to_dict,
    read_csv,
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


class TestModelDict:
    def test_round_trip(self):
        model = SpectralModel(ar=(0.5, -0.2), ma=(0.3,), seasonal_ar=(0.4,),
                              season_period=12, innovation_variance=1.5)
        again = model_from_dict(model_to_dict(model))
        assert again == model

    def test_missing_sigma2(self):
        with pytest.raises(KeyError, match="sigma2"):
            model_from_dict({"ar": [0.5]})

    def test_source_selection(self):
        src = spectrum_source_from_dict({"logspectrum": [0.1, 0.2]})
        assert isinstance(src, LogSpectrum)
        src = spectrum_source_from_dict({"model": {"ar": [0.5], "sigma2": 1.0}})
        assert isinstance(src, SpectralModel)
        with pytest.raises(KeyError):
            spectrum_source_from_dict({})

    @pytest.mark.parametrize("key", ["AR", "phi", "sigma"])
    def test_unknown_key_is_rejected(self, key):
        with pytest.raises(KeyError, match=repr(key)):
            model_from_dict({"sigma2": 1.0, key: [0.9]})

    def test_model_and_logspectrum_together_is_rejected(self):
        with pytest.raises(KeyError, match="both 'model' and 'logspectrum'"):
            spectrum_source_from_dict({"model": {"sigma2": 1.0}, "logspectrum": [0.1]})


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
        series = SampledSeries(np.array([1.0, 2.0]), stride=2)
        csv, side = tmp_path / "s.csv", tmp_path / "s.json"
        write_series(csv, side, series)
        got = read_series(csv)
        assert got.stride == 1


class TestBeliefDict:
    def test_round_trip(self, tmp_path):
        state = BeliefState(np.array([1.0, -0.5]), np.diag([2.0, 0.5]))
        path = tmp_path / "b.json"
        write_json(path, belief_to_dict(state))
        got = belief_from_dict(read_json(path))
        assert np.array_equal(got.mean, state.mean)
        assert np.array_equal(got.variance, state.variance)

    def test_json_is_stable(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        obj = {"b": 1, "a": [1.5, 2.5]}
        write_json(p1, obj)
        write_json(p2, obj)
        assert p1.read_bytes() == p2.read_bytes()

"""File formats: deterministic CSV, model/series/belief JSON."""

import json

import numpy as np

from .beliefs import BeliefState
from .models import LogSpectrum, SampledSeries, SpectralModel

__all__ = [
    "format_value",
    "write_csv",
    "read_csv",
    "MODEL_KEYS",
    "model_to_dict",
    "model_from_dict",
    "spectrum_source_from_dict",
    "write_series",
    "read_series",
    "belief_to_dict",
    "belief_from_dict",
    "write_json",
    "read_json",
]


def format_value(v):
    """17-significant-digit decimal rendering; round-trips doubles exactly."""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return "%.17g" % float(v)


def write_csv(path, header, columns):
    """Comma-separated columns with a header row, LF endings."""
    columns = [np.asarray(c) for c in columns]
    rows = len(columns[0]) if columns else 0
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(rows):
            fh.write(",".join(format_value(c[i]) for c in columns) + "\n")


class CsvFormatError(ValueError):
    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


def read_csv(path):
    """Read a numeric CSV written by :func:`write_csv`; returns (header, columns)."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines:
        raise CsvFormatError("empty CSV file %s" % path)
    header = lines[0].split(",")
    data = [[] for _ in header]
    for row_no, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(header):
            raise CsvFormatError("row %d of %s has %d fields, expected %d"
                                 % (row_no, path, len(parts), len(header)), row_no)
        for dest, part in zip(data, parts):
            try:
                dest.append(float(part))
            except ValueError:
                raise CsvFormatError("row %d of %s: bad number %r" % (row_no, path, part),
                                     row_no)
    return header, [np.asarray(c) for c in data]


def model_to_dict(model):
    return {
        "ar": list(model.ar),
        "ma": list(model.ma),
        "sar": list(model.seasonal_ar),
        "sma": list(model.seasonal_ma),
        "s": model.season_period,
        "sigma2": model.innovation_variance,
    }


MODEL_KEYS = ("ar", "ma", "sar", "sma", "s", "sigma2")


def model_from_dict(cfg):
    for key in cfg:
        if key not in MODEL_KEYS:
            raise KeyError("model config has unknown key %r; known keys are %s"
                           % (key, ", ".join(MODEL_KEYS)))
    if "sigma2" not in cfg:
        raise KeyError("model config is missing required field 'sigma2'")
    return SpectralModel(
        ar=cfg.get("ar", ()),
        ma=cfg.get("ma", ()),
        seasonal_ar=cfg.get("sar", ()),
        seasonal_ma=cfg.get("sma", ()),
        season_period=cfg.get("s", 1),
        innovation_variance=cfg["sigma2"],
    )


def spectrum_source_from_dict(cfg):
    """A model dict under 'model' or cosine coefficients under 'logspectrum',
    not both."""
    if "model" in cfg and "logspectrum" in cfg:
        raise KeyError("config has both 'model' and 'logspectrum'; give one")
    if "model" in cfg:
        return model_from_dict(cfg["model"])
    if "logspectrum" in cfg:
        return LogSpectrum(np.asarray(cfg["logspectrum"], dtype=float))
    raise KeyError("config needs a 'model' or 'logspectrum' entry")


def write_series(path_csv, path_sidecar, series):
    write_csv(path_csv, ["index", "value"], [series.base_indices(), series.values])
    write_json(path_sidecar, {
        "stride": series.stride,
        "offset": series.offset,
        "base_step": series.base_step,
    })


def read_series(path_csv, path_sidecar=None):
    """A series CSV and its optional JSON sidecar; a non-finite value is a
    format error naming its row."""
    _, (indices, values) = read_csv(path_csv)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        row = int(bad[0]) + 2
        raise CsvFormatError("row %d of %s: non-finite value %s" % (row, path_csv, values[bad[0]]),
                             row)
    meta = read_json(path_sidecar) if path_sidecar else {}
    if not isinstance(meta, dict):
        raise ValueError("series sidecar %s must be a JSON object, got %r" % (path_sidecar, meta))
    return SampledSeries(
        values,
        stride=int(meta.get("stride", 1)),
        offset=int(meta.get("offset", 0)),
        base_step=float(meta.get("base_step", 1.0)),
    )


def belief_to_dict(state):
    return {"mean": state.mean.tolist(), "variance": state.variance.tolist()}


def belief_from_dict(cfg):
    return BeliefState(np.asarray(cfg["mean"], dtype=float),
                       np.asarray(cfg["variance"], dtype=float))


def write_json(path, obj):
    with open(path, "w", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)

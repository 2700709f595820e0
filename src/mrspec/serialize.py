"""File formats: deterministic CSV, model/series/belief JSON, and the readers
that turn every JSON object mrspec takes in into checked values.

An object is read by a table ``{key: (reader, default)}`` (``read_fields``): a
key outside the table, a missing required key, or a value its reader rejects
is a ConfigError naming the key.  Numbers must be finite, integers integral.
"""

import json
import math

import numpy as np

from .beliefs import BeliefState
from .models import LogSpectrum, SampledSeries, SpectralModel

__all__ = [
    "ConfigError",
    "REQUIRED",
    "ABSENT",
    "number",
    "integer",
    "list_of",
    "known",
    "read_fields",
    "one_source",
    "format_value",
    "write_csv",
    "read_csv",
    "MODEL_FIELDS",
    "spectrum_source_from_dict",
    "write_series",
    "read_series",
    "belief_to_dict",
    "belief_from_dict",
    "write_json",
    "read_json",
]


class ConfigError(ValueError):
    """Input from outside the program (a config, or a file it names) that does not read."""


REQUIRED = object()  # default of a field the object must give
ABSENT = object()  # default of a field left out of the values when not given


# Readers: each takes a field's JSON value and returns what the program uses; a
# ValueError, TypeError, OverflowError (an integer past the float range) or
# OSError it raises is a config error naming the field.

def number(value, integral=False):
    """A finite JSON number as a float, or with ``integral`` an integral one as an
    int (``float.is_integer`` is False for an infinity or NaN)."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or isinstance(value, float)
            and not (value.is_integer() if integral else math.isfinite(value))):
        raise ConfigError("must be %s, got %r"
                          % ("an integer" if integral else "a finite number", value))
    return int(value) if integral else float(value)


def integer(low=None):
    """Reader of an integer, at least ``low`` when given."""
    def read(value):
        value = number(value, integral=True)
        if low is not None and value < low:
            raise ConfigError("must be >= %d, got %r" % (low, value))
        return value
    return read


def list_of(item, min_len=1):
    """Reader of a list of at least ``min_len`` values, each read by ``item``."""
    def read(value):
        if not isinstance(value, list) or len(value) < min_len:
            raise ConfigError("must be a list%s, got %r"
                              % (" of at least %d item(s)" % min_len if min_len else "", value))
        return [item(v) for v in value]
    return read


def known(obj, keys, name="config"):
    """``obj``, checked to be a JSON object with no key outside ``keys``."""
    if not isinstance(obj, dict):
        raise ConfigError("%s must be a JSON object, got %r" % (name, obj))
    for key in obj:
        if key not in keys:
            raise ConfigError("%s has unknown key %r; known keys are %s"
                              % (name, key, ", ".join(keys)))
    return obj


def read_fields(fields, obj, name="config"):
    """The values of the JSON object ``obj`` by the table ``fields``: every key
    read by its reader, then the defaults of the fields ``obj`` leaves out."""
    known(obj, fields, name)
    values = {}
    for key, (reader, default) in fields.items():
        if key in obj:
            try:
                values[key] = reader(obj[key])
            except (ValueError, TypeError, OverflowError, OSError) as exc:
                raise ConfigError("%s field %r: %s" % (name, key, exc))
        elif default is REQUIRED:
            raise ConfigError("%s is missing required field %r" % (name, key))
        elif default is not ABSENT:
            values[key] = default
    return values


def one_source(values, keys=("model", "logspectrum")):
    """The one key of ``keys`` that ``values`` gives; giving none or more than
    one is a config error."""
    given = [key for key in keys if key in values]
    if len(given) > 1:
        raise ConfigError("config has both %r and %r; give one" % tuple(given[:2]))
    if not given:
        raise ConfigError("config needs one of %s" % ", ".join(map(repr, keys)))
    return given[0]


def format_value(v):
    """17-significant-digit decimal rendering; round-trips doubles exactly."""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return "%.17g" % float(v)


def write_csv(path, header, columns):
    """Comma-separated columns with a header row, LF endings.

    One row format is chosen from the column dtypes, ``%d`` for integer and
    boolean columns and ``%.17g`` for the rest, and applied to whole rows of the
    columns' ``tolist()`` values; the file equals, byte for byte, one written
    cell by cell with ``format_value``.  Columns of unequal length are a
    ValueError, raised before the file is opened."""
    columns = [np.asarray(c) for c in columns]
    lengths = [len(c) for c in columns]
    if len(set(lengths)) > 1:
        raise ValueError("CSV columns %s have unequal lengths %s" % (header, lengths))
    row = ",".join("%d" if c.dtype.kind in "biu" else "%.17g" for c in columns) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row % cells for cells in zip(*(c.tolist() for c in columns)))


class CsvFormatError(ConfigError):
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


_COEFFICIENTS = (list_of(number, 0), [])
# a model object: four coefficient lists, the season period and the innovation variance
MODEL_FIELDS = {"ar": _COEFFICIENTS, "ma": _COEFFICIENTS, "sar": _COEFFICIENTS,
                "sma": _COEFFICIENTS, "s": (integer(1), 1), "sigma2": (number, REQUIRED)}


def spectrum_source_from_dict(values):
    """The source that the read ``values`` give: 'model', a model object read by
    ``MODEL_FIELDS``, or 'logspectrum', the cosine coefficients, not both."""
    if one_source(values) == "model":
        m = values["model"]
        return SpectralModel(m["ar"], m["ma"], m["sar"], m["sma"], m["s"], m["sigma2"])
    return LogSpectrum(np.asarray(values["logspectrum"], dtype=float))


SIDECAR_FIELDS = {"stride": (integer(1), 1), "offset": (integer(0), 0),
                  "base_step": (number, 1.0)}


def write_series(path_csv, path_sidecar, series):
    write_csv(path_csv, ["index", "value"], [series.base_indices(), series.values])
    write_json(path_sidecar, {
        "stride": series.stride,
        "offset": series.offset,
        "base_step": series.base_step,
    })


def _check_rows(path, bad, describe):
    """A format error naming the first data row where ``bad`` holds, if any."""
    rows = np.flatnonzero(bad)
    if rows.size:
        row = int(rows[0]) + 2
        raise CsvFormatError("row %d of %s: %s" % (row, path, describe(rows[0])), row)


def read_series(path_csv, path_sidecar=None):
    """A series CSV with the header ``index,value`` and its optional JSON sidecar,
    read by ``SIDECAR_FIELDS``.  Another header, a non-finite value, or an index
    other than offset + stride * k in data row k is a format error naming it."""
    header, columns = read_csv(path_csv)
    if header != ["index", "value"]:
        raise CsvFormatError("%s has header %r, expected 'index,value'"
                             % (path_csv, ",".join(header)))
    indices, values = columns
    _check_rows(path_csv, ~np.isfinite(values), lambda k: "non-finite value %s" % values[k])
    meta = read_fields(SIDECAR_FIELDS, read_json(path_sidecar) if path_sidecar else {},
                       "series sidecar %s" % path_sidecar)
    series = SampledSeries(values, **meta)
    expected = series.base_indices()
    _check_rows(path_csv, indices != expected,
                lambda k: "'index' %s, expected %d (offset %d + stride %d * %d)"
                % (format_value(indices[k]), expected[k], series.offset, series.stride, k))
    return series


def belief_to_dict(state):
    return {"mean": state.mean.tolist(), "variance": state.variance.tolist()}


def _matrix(value):
    """A list of lists of finite numbers, all of one length."""
    rows = list_of(list_of(number))(value)
    lengths = sorted({len(row) for row in rows})
    if len(lengths) > 1:
        raise ConfigError("must be rectangular, got rows of lengths %s" % lengths)
    return rows


BELIEF_FIELDS = {"mean": (list_of(number), REQUIRED),
                 "variance": (_matrix, REQUIRED)}


def belief_from_dict(cfg):
    belief = read_fields(BELIEF_FIELDS, cfg, "belief")
    return BeliefState(np.asarray(belief["mean"]), np.asarray(belief["variance"]))


def write_json(path, obj):
    """``obj`` as indented JSON with sorted keys and a final newline, built
    whole and written in one call: ``json.dump`` to a file writes chunk by chunk."""
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)

"""Command-line front end: config ingestion, experiment orchestration and
CSV/JSON/SVG emission.

Each command's config keys, with their readers and defaults, are one entry of
``_FIELDS``, read by ``serialize.read_fields``; a key outside it is a config
error.  Exit codes: 0 success, 2 input/config error, 3 numerical failure,
including an array too large to allocate.
Every run writes a manifest echoing the config as given (with ``--seed``
applied), and reruns with the same config produce byte-identical CSV output.
"""

import argparse
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from . import __version__, svgplot
from .beliefs import (
    PriorSpec,
    # unused; perfbench/spans.py checks cli.adjust is beliefs.adjust in the CI traced smoke step
    adjust,  # noqa: F401
    difference_grid,
    forecast_moments,  # noqa: F401  (checked likewise)
    log_periodogram,
    sequential_adjust,
    spectrum_summary,
)
from .bench import interp_comparison, standard_grid, table_sweep
from .likelihood import ExperimentDesign, default_omega_grid, mc_average_surface
from .models import DesignError, simulate, subsample
from .aliasing import fold
from .serialize import (
    ABSENT,
    MODEL_FIELDS,
    REQUIRED,
    ConfigError,
    belief_from_dict,
    belief_to_dict,
    integer,
    known,
    list_of,
    number,
    one_source,
    read_fields,
    read_json,
    read_series,
    spectrum_source_from_dict,
    write_csv,
    write_json,
    write_series,
)
from .uncertainty import kolmogorov_variance, pc_fan, sparse_grid

EXIT_CONFIG = 2
EXIT_NUMERIC = 3


# Readers of the values that only the CLI takes in; see serialize.read_fields.

def _cell(value):
    if not isinstance(value, list):
        raise ConfigError("each cell must be a [delta, N] pair, got %r" % (value,))
    return tuple(value)


def _path(value):
    if not isinstance(value, str) or not value:
        raise ConfigError("must be a file path string, got %r" % (value,))
    return value


def _belief(value):
    return belief_from_dict(read_json(_path(value)))


def _series(entry):
    """A CSV path, or {"csv", "sidecar", "id"}; returns (id, series).  Without
    a sidecar, the CSV's ``.json`` neighbour is used when it exists."""
    if isinstance(entry, str):
        entry = {"csv": entry}
    entry = known(entry, ("csv", "sidecar", "id"), "series entry")
    csv_path = _path(entry.get("csv"))
    if entry.get("sidecar") is not None:
        sidecar = _path(entry["sidecar"])
    else:
        guess = os.path.splitext(csv_path)[0] + ".json"
        sidecar = guess if os.path.exists(guess) else None
    return entry.get("id", os.path.basename(csv_path)), read_series(csv_path, sidecar)


def _prior(value):
    return PriorSpec(**known(value, [f.name for f in dataclasses.fields(PriorSpec)], "prior"))


# a source is built by spectrum_source_from_dict, outside the readers, so that a
# model with a root on the unit circle is a numerical error
_SOURCE = {"model": (functools.partial(read_fields, MODEL_FIELDS, name="model"), ABSENT),
           "logspectrum": (list_of(number), ABSENT)}
_GRID = (integer(2), 128)
_SEED = (integer(0), 0)

# command -> {key: (reader, default)}
_FIELDS = {
    "simulate": dict(_SOURCE, n=(integer(1), REQUIRED), seed=_SEED, delta=(integer(1), 1),
                     offset=(integer(0), 0)),
    "spectrum": dict(_SOURCE, delta=(integer(1), 1), grid_points=(integer(1), 512)),
    "loglik-surface": {
        "n_low": (integer(0), REQUIRED), "n_high": (integer(0), ABSENT),
        "n_high_list": (list_of(integer(0)), ABSENT), "omega_true": (number, REQUIRED),
        "grid_points": (integer(1), 201), "replicates": (integer(1), 100),
        "modulus": (number, 0.9), "delta_low": (integer(1), 2), "seed": _SEED},
    "estimate": {"series": (list_of(_series), REQUIRED), "prior": (_prior, PriorSpec()),
                 "mc_samples": (integer(), 2000), "seed": _SEED, "grid_points": _GRID},
    # table_sweep's parameters, and the deltas x ns grid that a cell list left out takes
    "bench": {"deltas": (list_of(integer()), [1, 2, 3, 4, 5, 6]),
              "ns": (list_of(integer()), [16, 32, 64, 128]), "replicates": (integer(1), 100),
              "seed": _SEED, "prior": (_prior, ABSENT), "d1_cells": (list_of(_cell), ABSENT),
              "d2_cells": (list_of(_cell), ABSENT)},
    # interp_comparison's parameters; an absent one takes its default there
    "compare-interp": {"seed": _SEED, "omega0": (number, ABSENT), "modulus": (number, ABSENT),
                       "n_total": (integer(1), ABSENT), "delta": (integer(1), ABSENT),
                       "prior": (_prior, ABSENT), "mc_samples": (integer(), ABSENT)},
    "pc-fan": {"belief": (_belief, REQUIRED), "components": (integer(1), 9),
               "grid_points": _GRID},
    "quadrature": {"d": (integer(), REQUIRED), "level": (integer(), REQUIRED)},
    "kolmogorov": dict(_SOURCE, belief=(_belief, ABSENT)),
    "diff-grid": {"beliefs": (list_of(_belief, 2), REQUIRED), "grid_points": _GRID},
}


def _load_config(args):
    """The config as given, with ``--seed`` applied."""
    try:
        cfg = read_json(args.config) if args.config else {}
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError("cannot read config %s: %s" % (args.config, exc))
    if getattr(args, "seed", None) is not None:
        cfg = dict(known(cfg, _FIELDS[args.command]), seed=args.seed)
    return cfg


def cmd_simulate(values, out):
    if values["offset"] >= values["delta"]:
        raise ConfigError("config field 'offset' must be < delta, got %d" % values["offset"])
    series = simulate(spectrum_source_from_dict(values), values["n"], values["seed"])
    series = subsample(series, values["delta"], values["offset"])
    write_series(out("series.csv"), out("series.json"), series)


def cmd_spectrum(values, out):
    grid = np.linspace(0.0, 0.5, values["grid_points"])
    curve = fold(spectrum_source_from_dict(values), values["delta"], grid)
    write_csv(out("spectrum.csv"), ["omega", "f"], [grid, curve])
    svgplot.line_plot(out("spectrum.svg"), grid, [curve],
                      title="spectral density (delta=%d)" % values["delta"], ylabel="f")


def cmd_loglik_surface(values, out):
    key = one_source(values, ("n_high", "n_high_list"))
    n_high_values = values["n_high_list"] if key == "n_high_list" else [values["n_high"]]
    grid = default_omega_grid(values["grid_points"])
    design = ExperimentDesign(
        n_low=values["n_low"], n_high=max(n_high_values), replicates=values["replicates"],
        omega_true=values["omega_true"], modulus=values["modulus"],
        delta_low=values["delta_low"], grid=grid, seed=values["seed"])
    surfaces = mc_average_surface(design, n_highs=n_high_values)
    for n_high, surface in zip(n_high_values, surfaces):
        name = "surface.csv" if len(n_high_values) == 1 else "surface_nh%03d.csv" % n_high
        write_csv(out(name), ["omega", "loglik"], [surface.omegas, surface.loglik])
    curves = [surface.loglik for surface in surfaces]
    labels = ["n_high=%d" % n_high for n_high in n_high_values]
    svgplot.line_plot(out("surface.svg"), grid, curves, labels,
                      vline=values["omega_true"], title="average log-likelihood surfaces",
                      ylabel="loglik")


def cmd_estimate(values, out):
    datasets = [log_periodogram(series, name) for name, series in values["series"]]
    state, snapshots = sequential_adjust(values["prior"].to_state(), datasets,
                                         values["mc_samples"], values["seed"])
    write_json(out("belief.json"), belief_to_dict(state))
    for k, snap in enumerate(snapshots, start=1):
        write_json(out("belief_stage%d.json" % k), belief_to_dict(snap))
    grid = standard_grid(values["grid_points"])
    summary = spectrum_summary(state, grid)
    lo50, hi50 = summary.bands[0.5]
    lo90, hi90 = summary.bands[0.9]
    write_csv(out("summary.csv"),
              ["omega", "mean", "lo50", "hi50", "lo90", "hi90"],
              [grid, summary.mean, lo50, hi50, lo90, hi90])
    svgplot.band_plot(out("bands.svg"), grid, summary.mean, summary.bands,
                      title="adjusted log-spectrum", ylabel="log f")


def cmd_bench(values, out):
    deltas, ns = values.pop("deltas"), values.pop("ns")
    grid = [(d, n) for d in deltas for n in ns]
    rows = values.setdefault("d1_cells", grid)
    cols = values.setdefault("d2_cells", grid)
    means, stderrs = table_sweep(**values)
    header = ["d1_delta", "d1_n"] + ["d%d_n%d" % c for c in cols]
    row_delta = [c[0] for c in rows]
    row_n = [c[1] for c in rows]
    write_csv(out("table.csv"), header,
              [row_delta, row_n] + [means[:, j] for j in range(len(cols))])
    write_csv(out("stderr.csv"), header,
              [row_delta, row_n] + [stderrs[:, j] for j in range(len(cols))])


def cmd_compare_interp(values, out):
    result = interp_comparison(**values)
    names = ["truth", "blm_raw", "blm_interp", "ar_fit", "smoothed_pgram"]
    curves = [result.truth, result.blm_raw, result.blm_interp,
              result.ar_fit, result.smoothed_pgram]
    write_csv(out("overlay.csv"), ["omega"] + names, [result.grid] + curves)
    svgplot.line_plot(out("overlay.svg"), result.grid, curves, names,
                      title="interpolation comparison", ylabel="log f")


def cmd_pc_fan(values, out):
    state, n_components = values["belief"], values["components"]
    if n_components > state.size:
        raise ConfigError("config field 'components' must be <= %d, the belief's size, got %d"
                          % (state.size, n_components))
    grid = standard_grid(values["grid_points"])
    header, columns = ["omega"], [grid]
    panels = []
    for k in range(n_components):
        fan = pc_fan(state, k, grid)
        for i in range(fan.shape[0]):
            header.append("c%d_q%d" % (k + 1, i + 1))
            columns.append(fan[i])
        panels.append(("component %d" % (k + 1), grid, list(fan)))
    write_csv(out("pc_fan.csv"), header, columns)
    svgplot.panel_grid(out("pc_fan.svg"), panels, ncols=3,
                       title="principal directions of spectrum uncertainty")


def cmd_quadrature(values, out):
    d = values["d"]
    try:
        grid = sparse_grid(d, values["level"])
    except ValueError as exc:
        raise ConfigError(str(exc))
    header = ["w"] + ["x%d" % (i + 1) for i in range(d)]
    write_csv(out("quadrature.csv"), header,
              [grid.weights] + [grid.nodes[:, i] for i in range(d)])


def cmd_kolmogorov(values, out):
    if one_source(values, ("model", "logspectrum", "belief")) == "belief":
        source = values["belief"].mean_logspectrum()
    else:
        source = spectrum_source_from_dict(values)
    value = kolmogorov_variance(source)
    print("%.17g" % value)
    write_csv(out("kolmogorov.csv"), ["prediction_variance"], [[value]])


def cmd_diff_grid(values, out):
    states = values["beliefs"]
    sizes = [state.size for state in states]
    if len(set(sizes)) != 1:
        raise ConfigError("config field 'beliefs' must share one basis size, got sizes %s" % sizes)
    grid = standard_grid(values["grid_points"])
    curves = difference_grid(states, grid)
    k = len(states)
    header, columns, panels = ["omega"], [grid], []
    for i in range(k):
        for j in range(k):
            header.append("m%d%d" % (i + 1, j + 1))
            columns.append(curves[i, j])
            label = "mean %d" % (i + 1) if i == j else "mean %d - mean %d" % (i + 1, j + 1)
            panels.append((label, grid, [curves[i, j]]))
    write_csv(out("diff_grid.csv"), header, columns)
    svgplot.panel_grid(out("diff_grid.svg"), panels, ncols=k,
                       title="log-spectrum means and differences")


_COMMANDS = {
    "simulate": cmd_simulate,
    "spectrum": cmd_spectrum,
    "loglik-surface": cmd_loglik_surface,
    "estimate": cmd_estimate,
    "bench": cmd_bench,
    "compare-interp": cmd_compare_interp,
    "pc-fan": cmd_pc_fan,
    "quadrature": cmd_quadrature,
    "kolmogorov": cmd_kolmogorov,
    "diff-grid": cmd_diff_grid,
}


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="mrspec",
        description="Spectral inference for time series at mixed sampling rates.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file")
        if "seed" in _FIELDS[name]:
            p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=".", help="output directory")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)

    def out(name):
        os.makedirs(args.out, exist_ok=True)
        return os.path.join(args.out, name)

    try:
        cfg = _load_config(args)
        _COMMANDS[args.command](read_fields(_FIELDS[args.command], cfg), out)
        write_json(out("manifest.json"),
                   {"command": args.command, "config": cfg, "version": __version__})
    except (ConfigError, DesignError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    # MemoryError: a size in the config too large to allocate
    except (ArithmeticError, ValueError, MemoryError) as exc:
        print("numerical error: %s" % exc, file=sys.stderr)
        return EXIT_NUMERIC
    return 0


if __name__ == "__main__":
    sys.exit(main())

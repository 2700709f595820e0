"""Command-line front end: config ingestion, experiment orchestration and
CSV/JSON/SVG emission.

Exit codes: 0 success, 2 input/config error, 3 numerical failure.  Every run
writes a manifest echoing the resolved config, and reruns with the same
config produce byte-identical CSV output.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import __version__, svgplot
from .beliefs import (
    AdjustmentError,
    PeriodogramData,
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
from .models import (
    DesignError,
    LogSpectrum,
    ModelInvariantError,
    NotPositiveDefiniteError,
    simulate,
    subsample,
)
from .aliasing import fold
from .serialize import (
    CsvFormatError,
    belief_from_dict,
    belief_to_dict,
    read_json,
    read_series,
    spectrum_source_from_dict,
    write_csv,
    write_json,
    write_series,
)
from .uncertainty import FAN_QUANTILES, kolmogorov_variance, pc_fan, sparse_grid

EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(ValueError):
    pass


def _load_config(args):
    cfg = {}
    if args.config:
        try:
            cfg = read_json(args.config)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError("cannot read config %s: %s" % (args.config, exc))
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
    if args.seed is not None:
        cfg["seed"] = args.seed
    return cfg


def _require(cfg, key):
    if key not in cfg:
        raise ConfigError("config is missing required field %r" % key)
    return cfg[key]


def _number(kind, key, value):
    """Config field ``key``'s ``value`` converted by ``kind`` (int or float);
    a value that does not convert is a ConfigError naming the key."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError("config field %r must be %s, got %r"
                          % (key, "an integer" if kind is int else "a number", value))


def _cell_list(cfg, key):
    """``cfg[key]`` as a list of tuples, or None when the key is absent; a
    value that is not a list of lists is a ConfigError naming the key."""
    if key not in cfg:
        return None
    cells = cfg[key]
    if not isinstance(cells, list) or not all(isinstance(c, list) for c in cells):
        raise ConfigError("config field %r must be a list of [delta, N] pairs, got %r"
                          % (key, cells))
    return [tuple(c) for c in cells]


def _outpath(args, name):
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _manifest(args, command, cfg):
    write_json(_outpath(args, "manifest.json"),
               {"command": command, "config": cfg, "version": __version__})


def _prior_from(cfg):
    p = cfg.get("prior", {})
    if not isinstance(p, dict):
        raise ConfigError("'prior' must be an object, got %r" % (p,))
    return PriorSpec(
        size=p.get("size", 32),
        intercept_mean=p.get("intercept_mean", 0.0),
        scale=p.get("scale", 1.0),
        smoothness=p.get("smoothness", 2.0),
        cutoff=p.get("cutoff", 4.0),
    )


def cmd_simulate(args):
    cfg = _load_config(args)
    source = spectrum_source_from_dict(cfg)
    n = _number(int, "n", _require(cfg, "n"))
    seed = _number(int, "seed", cfg.get("seed", 0))
    series = simulate(source, n, seed)
    delta = _number(int, "delta", cfg.get("delta", 1))
    if delta > 1:
        series = subsample(series, delta, _number(int, "offset", cfg.get("offset", 0)))
    write_series(_outpath(args, "series.csv"), _outpath(args, "series.json"), series)
    _manifest(args, "simulate", cfg)


def cmd_spectrum(args):
    cfg = _load_config(args)
    source = spectrum_source_from_dict(cfg)
    delta = _number(int, "delta", cfg.get("delta", 1))
    n_grid = _number(int, "grid_points", cfg.get("grid_points", 512))
    grid = np.linspace(0.0, 0.5, n_grid)
    values = fold(source, delta, grid)
    write_csv(_outpath(args, "spectrum.csv"), ["omega", "f"], [grid, values])
    svgplot.line_plot(_outpath(args, "spectrum.svg"), grid, [values],
                      title="spectral density (delta=%d)" % delta, ylabel="f")
    _manifest(args, "spectrum", cfg)


def cmd_loglik_surface(args):
    cfg = _load_config(args)
    n_high_key, n_high_values = "n_high_list", cfg.get("n_high_list")
    if n_high_key not in cfg:
        n_high_key, n_high_values = "n_high", [_require(cfg, "n_high")]
    if not isinstance(n_high_values, list) or not n_high_values:
        raise ConfigError("'n_high_list' must be a nonempty list, got %r" % (n_high_values,))
    n_high_values = [_number(int, n_high_key, n_high) for n_high in n_high_values]
    grid_n = _number(int, "grid_points", cfg.get("grid_points", 201))
    if grid_n < 1:
        raise ConfigError("grid_points must be >= 1")
    omega_true = _number(float, "omega_true", _require(cfg, "omega_true"))
    curves, labels = [], []
    grid = default_omega_grid(grid_n)
    for n_high in n_high_values:
        design = ExperimentDesign(
            n_low=_number(int, "n_low", _require(cfg, "n_low")),
            n_high=n_high,
            replicates=_number(int, "replicates", cfg.get("replicates", 100)),
            omega_true=omega_true,
            modulus=_number(float, "modulus", cfg.get("modulus", 0.9)),
            delta_low=_number(int, "delta_low", cfg.get("delta_low", 2)),
            grid=grid,
            seed=_number(int, "seed", cfg.get("seed", 0)),
        )
        surface = mc_average_surface(design)
        labels.append("n_high=%d" % n_high)
        curves.append(surface.loglik)
        name = "surface.csv" if len(n_high_values) == 1 else "surface_nh%03d.csv" % n_high
        write_csv(_outpath(args, name), ["omega", "loglik"], [surface.omegas, surface.loglik])
    svgplot.line_plot(_outpath(args, "surface.svg"), grid, curves, labels,
                      vline=omega_true, title="average log-likelihood surfaces",
                      ylabel="loglik")
    _manifest(args, "loglik-surface", cfg)


def _read_series_entry(entry):
    if isinstance(entry, str):
        entry = {"csv": entry}
    if not isinstance(entry, dict):
        raise ConfigError("each 'series' entry must be a path or an object, got %r" % (entry,))
    csv_path = entry.get("csv")
    if not csv_path or not isinstance(csv_path, str):
        raise ConfigError("each 'series' entry needs a 'csv' path")
    sidecar = entry.get("sidecar")
    if sidecar is None:
        guess = os.path.splitext(csv_path)[0] + ".json"
        sidecar = guess if os.path.exists(guess) else None
    try:
        series = read_series(csv_path, sidecar)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError("cannot read series %s: %s" % (csv_path, exc))
    return entry.get("id", os.path.basename(csv_path)), series


def cmd_estimate(args):
    cfg = _load_config(args)
    entries = _require(cfg, "series")
    if not isinstance(entries, list) or not entries:
        raise ConfigError("'series' must be a nonempty list")
    named = [_read_series_entry(e) for e in entries]
    prior = _prior_from(cfg)
    mc_samples = _number(int, "mc_samples", cfg.get("mc_samples", 2000))
    seed = _number(int, "seed", cfg.get("seed", 0))
    datasets = [log_periodogram(series, name) for name, series in named]
    observed = [d.log_periodogram for d in datasets]
    state, snapshots = sequential_adjust(prior.to_state(), datasets, observed, mc_samples, seed)
    write_json(_outpath(args, "belief.json"), belief_to_dict(state))
    for k, snap in enumerate(snapshots, start=1):
        write_json(_outpath(args, "belief_stage%d.json" % k), belief_to_dict(snap))
    grid = standard_grid(_number(int, "grid_points", cfg.get("grid_points", 128)))
    summary = spectrum_summary(state, grid)
    lo50, hi50 = summary.bands[0.5]
    lo90, hi90 = summary.bands[0.9]
    write_csv(_outpath(args, "summary.csv"),
              ["omega", "mean", "lo50", "hi50", "lo90", "hi90"],
              [grid, summary.mean, lo50, hi50, lo90, hi90])
    svgplot.band_plot(_outpath(args, "bands.svg"), grid, summary.mean, summary.bands,
                      title="adjusted log-spectrum", ylabel="log f")
    _manifest(args, "estimate", cfg)


def cmd_bench(args):
    cfg = _load_config(args)
    deltas = cfg.get("deltas", [1, 2, 3, 4, 5, 6])
    ns = cfg.get("ns", [16, 32, 64, 128])
    for key, grid in (("deltas", deltas), ("ns", ns)):
        if not isinstance(grid, list):
            raise ConfigError("config field %r must be a list, got %r" % (key, grid))
    replicates = _number(int, "replicates", cfg.get("replicates", 100))
    seed = _number(int, "seed", cfg.get("seed", 0))
    d1_cells = _cell_list(cfg, "d1_cells")
    d2_cells = _cell_list(cfg, "d2_cells")
    rows, cols, means, stderrs = table_sweep(deltas, ns, replicates, seed,
                                             _prior_from(cfg), d1_cells, d2_cells)
    header = ["d1_delta", "d1_n"] + ["d%d_n%d" % c for c in cols]
    row_delta = [c[0] for c in rows]
    row_n = [c[1] for c in rows]
    write_csv(_outpath(args, "table.csv"), header,
              [row_delta, row_n] + [means[:, j] for j in range(len(cols))])
    write_csv(_outpath(args, "stderr.csv"), header,
              [row_delta, row_n] + [stderrs[:, j] for j in range(len(cols))])
    _manifest(args, "bench", cfg)


def cmd_compare_interp(args):
    cfg = _load_config(args)
    result = interp_comparison(
        seed=_number(int, "seed", cfg.get("seed", 0)),
        omega0=_number(float, "omega0", cfg.get("omega0", 0.35)),
        modulus=_number(float, "modulus", cfg.get("modulus", 0.9)),
        n_total=_number(int, "n_total", cfg.get("n_total", 600)),
        delta=_number(int, "delta", cfg.get("delta", 2)),
        prior=_prior_from(cfg),
        mc_samples=_number(int, "mc_samples", cfg.get("mc_samples", 2000)),
    )
    names = ["truth", "blm_raw", "blm_interp", "ar_fit", "smoothed_pgram"]
    curves = [result.truth, result.blm_raw, result.blm_interp,
              result.ar_fit, result.smoothed_pgram]
    write_csv(_outpath(args, "overlay.csv"), ["omega"] + names,
              [result.grid] + curves)
    svgplot.line_plot(_outpath(args, "overlay.svg"), result.grid, curves, names,
                      title="interpolation comparison", ylabel="log f")
    _manifest(args, "compare-interp", cfg)


def cmd_pc_fan(args):
    cfg = _load_config(args)
    state = _read_belief(_require(cfg, "belief"))
    n_components = _number(int, "components", cfg.get("components", 9))
    grid = standard_grid(_number(int, "grid_points", cfg.get("grid_points", 128)))
    header, columns = ["omega"], [grid]
    panels = []
    for k in range(n_components):
        fan = pc_fan(state, k, grid)
        for i in range(fan.shape[0]):
            header.append("c%d_q%d" % (k + 1, i + 1))
            columns.append(fan[i])
        panels.append(("component %d" % (k + 1), grid, list(fan)))
    write_csv(_outpath(args, "pc_fan.csv"), header, columns)
    svgplot.panel_grid(_outpath(args, "pc_fan.svg"), panels, ncols=3,
                       title="principal directions of spectrum uncertainty")
    _manifest(args, "pc-fan", cfg)


def cmd_quadrature(args):
    cfg = _load_config(args)
    d = _number(int, "d", _require(cfg, "d"))
    level = _number(int, "level", _require(cfg, "level"))
    try:
        grid = sparse_grid(d, level)
    except ValueError as exc:
        raise ConfigError(str(exc))
    header = ["w"] + ["x%d" % (i + 1) for i in range(d)]
    write_csv(_outpath(args, "quadrature.csv"), header,
              [grid.weights] + [grid.nodes[:, i] for i in range(d)])
    _manifest(args, "quadrature", cfg)


def cmd_kolmogorov(args):
    cfg = _load_config(args)
    if "belief" in cfg:
        source = LogSpectrum(np.asarray(_read_belief(cfg["belief"]).mean))
    else:
        source = spectrum_source_from_dict(cfg)
    value = kolmogorov_variance(source, _number(int, "quad_points", cfg.get("quad_points", 4096)))
    print("%.17g" % value)
    write_csv(_outpath(args, "kolmogorov.csv"), ["prediction_variance"], [[value]])
    _manifest(args, "kolmogorov", cfg)


def _read_belief(path):
    try:
        return belief_from_dict(read_json(path))
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ConfigError("cannot read belief %s: %s" % (path, exc))


def cmd_diff_grid(args):
    cfg = _load_config(args)
    paths = _require(cfg, "beliefs")
    if not isinstance(paths, list) or len(paths) < 2:
        raise ConfigError("'beliefs' must list at least two belief JSON files")
    states = [_read_belief(path) for path in paths]
    grid = standard_grid(_number(int, "grid_points", cfg.get("grid_points", 128)))
    curves = difference_grid(states, grid)
    k = len(states)
    header, columns, panels = ["omega"], [grid], []
    for i in range(k):
        for j in range(k):
            header.append("m%d%d" % (i + 1, j + 1))
            columns.append(curves[i, j])
            label = "mean %d" % (i + 1) if i == j else "mean %d - mean %d" % (i + 1, j + 1)
            panels.append((label, grid, [curves[i, j]]))
    write_csv(_outpath(args, "diff_grid.csv"), header, columns)
    svgplot.panel_grid(_outpath(args, "diff_grid.svg"), panels, ncols=k,
                       title="log-spectrum means and differences")
    _manifest(args, "diff-grid", cfg)


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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mrspec",
        description="Spectral inference for time series at mixed sampling rates.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=".", help="output directory")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _COMMANDS[args.command](args)
    except (ConfigError, CsvFormatError, DesignError, KeyError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except (ModelInvariantError, NotPositiveDefiniteError, AdjustmentError,
            ArithmeticError, np.linalg.LinAlgError, ValueError) as exc:
        print("numerical error: %s" % exc, file=sys.stderr)
        return EXIT_NUMERIC
    return 0


if __name__ == "__main__":
    sys.exit(main())

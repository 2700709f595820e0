"""Golden outputs: a fixed CLI session, rerun and compared number by number
with the files under ``tests/golden``.

The session covers every command: the criterion-12 configs, ``estimate`` on
two series, a 1 x 2 cell ``bench`` and a ``loglik-surface`` over an
``n_high_list``.  It runs in one subprocess with ``OPENBLAS_NUM_THREADS=1`` and
in one with the default thread count.  Every number of every CSV and JSON
output (manifests aside) must agree with the golden file within 1e-11 of the
largest absolute value in its column: output bytes are identical only for one
machine and one BLAS thread setting.  An SVG prints its coordinates to three
decimals, so there the text between the numbers must be equal and every
number must agree within 0.0011, which absorbs a last digit that rounds the
other way.

A change that moves outputs beyond that on purpose regenerates the goldens,
from the repository root, with

    PYTHONPATH=src python tests/test_golden.py tests/golden

and reports the largest change per file.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from mrspec.cli import main
from mrspec.serialize import read_csv, write_json

GOLDEN = Path(__file__).parent / "golden"
REL_TOL = 1e-11
SVG_TOL = 0.0011
# a signed decimal number, so that a sign that flips at -0.000 is a number's change
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SERIES = {"model": {"ar": [0.4], "sigma2": 1.0}, "n": 64, "seed": 3}
BELIEF = {"mean": [0.2, 0.1, -0.05, 0.0], "variance": np.diag([0.4, 0.2, 0.1, 0.05]).tolist()}
# (output directory, command, config); a string "@dir/file" is that file of the session
SESSION = [
    ("simulate", "simulate", SERIES),
    ("simulate_sub", "simulate", dict(SERIES, seed=5, delta=2, n=80)),
    ("spectrum", "spectrum", {"model": {"ar": [0.5], "sigma2": 1.0}, "delta": 2,
                              "grid_points": 33}),
    ("loglik_surface", "loglik-surface", {"n_low": 12, "n_high": 2, "replicates": 2,
                                          "omega_true": 0.3, "grid_points": 9, "seed": 0}),
    ("loglik_surface_list", "loglik-surface", {"n_low": 12, "n_high_list": [0, 4],
                                               "replicates": 3, "omega_true": 0.3,
                                               "grid_points": 9, "seed": 0}),
    ("estimate", "estimate", {"series": ["@simulate/series.csv"], "prior": {"size": 8},
                              "mc_samples": 600, "seed": 0}),
    ("estimate_two", "estimate", {"series": [{"csv": "@simulate_sub/series.csv", "id": "history"},
                                             {"csv": "@simulate/series.csv", "id": "recent"}],
                                  "prior": {"size": 12}, "mc_samples": 600, "seed": 0}),
    ("bench", "bench", {"d1_cells": [[1, 16]], "d2_cells": [[1, 16]], "deltas": [1], "ns": [16],
                        "replicates": 2, "seed": 0}),
    ("bench_1x2", "bench", {"d1_cells": [[1, 16]], "d2_cells": [[1, 16], [2, 16]],
                            "replicates": 3, "seed": 0}),
    ("compare_interp", "compare-interp", {"seed": 0, "n_total": 300, "mc_samples": 600}),
    ("pc_fan", "pc-fan", {"belief": "@inputs/belief.json", "components": 2, "grid_points": 16}),
    ("quadrature", "quadrature", {"d": 2, "level": 3}),
    ("kolmogorov", "kolmogorov", {"model": {"ar": [0.6], "sigma2": 1.0}}),
    ("diff_grid", "diff-grid", {"beliefs": ["@inputs/belief.json", "@inputs/belief.json"],
                                "grid_points": 8}),
]


def _resolve(value, root):
    if isinstance(value, str) and value.startswith("@"):
        return str(root / value[1:])
    if isinstance(value, list):
        return [_resolve(v, root) for v in value]
    if isinstance(value, dict):
        return {k: _resolve(v, root) for k, v in value.items()}
    return value


def _compared(root):
    """The session's outputs that the test compares, relative to ``root``."""
    return sorted(str(p.relative_to(root)) for p in root.rglob("*")
                  if p.suffix in (".csv", ".json", ".svg") and p.name != "manifest.json")


def run_session(root):
    """Run the session into ``root``, one directory per step, and delete every
    output the comparison does not read."""
    root = Path(root)
    (root / "inputs").mkdir(parents=True, exist_ok=True)
    write_json(root / "inputs" / "belief.json", BELIEF)
    with tempfile.TemporaryDirectory() as cfg_dir:
        for name, command, cfg in SESSION:
            cfg_path = os.path.join(cfg_dir, name + ".json")
            write_json(cfg_path, _resolve(cfg, root))
            code = main([command, "--config", cfg_path, "--out", str(root / name)])
            if code != 0:
                raise SystemExit("%s (%s) exited %d" % (name, command, code))
    keep = set(_compared(root))
    for path in root.rglob("*"):
        if path.is_file() and str(path.relative_to(root)) not in keep:
            path.unlink()


def _columns(path):
    """{column name: numbers} of a CSV, or of a JSON file's lists and scalars;
    a matrix gives one column per matrix column."""
    if path.suffix == ".csv":
        header, columns = read_csv(path)
        return dict(zip(header, columns))
    with open(path) as fh:
        obj = json.load(fh)
    out = {}
    for key, value in obj.items():
        value = np.atleast_1d(np.asarray(value, dtype=float))
        if value.ndim == 1:
            out[key] = value
        else:
            out.update(("%s[:, %d]" % (key, j), value[:, j]) for j in range(value.shape[1]))
    return out


def _mismatches(got_root):
    """One line per output of ``got_root`` that differs from its golden file."""
    got_files, want_files = _compared(got_root), _compared(GOLDEN)
    if got_files != want_files:
        return ["files differ: %s" % sorted(set(got_files) ^ set(want_files))]
    bad = []
    for rel in want_files:
        if rel.endswith(".svg"):
            bad.extend(_svg_mismatches(rel, got_root / rel, GOLDEN / rel))
            continue
        got, want = _columns(got_root / rel), _columns(GOLDEN / rel)
        if list(got) != list(want):
            bad.append("%s: columns %s, golden %s" % (rel, list(got), list(want)))
            continue
        for name, want_col in want.items():
            got_col = got[name]
            finite = np.isfinite(want_col)
            if got_col.shape != want_col.shape or not np.array_equal(
                    np.isfinite(got_col), finite) or not np.array_equal(
                    got_col[~finite], want_col[~finite], equal_nan=True):
                bad.append("%s[%s]: non-finite entries or shape differ" % (rel, name))
                continue
            if not finite.any():
                continue
            err = np.abs(got_col[finite] - want_col[finite]).max()
            scale = np.abs(want_col[finite]).max()
            if err > REL_TOL * scale:
                bad.append("%s[%s]: off by %.3g, %.3g of the column's largest value"
                           % (rel, name, err, err / scale if scale else np.inf))
    return bad


def _svg_mismatches(rel, got_path, want_path):
    """Up to one line: the SVG's text between numbers differs, or a number is
    off by more than SVG_TOL."""
    got, want = got_path.read_text(), want_path.read_text()
    if _NUMBER.split(got) != _NUMBER.split(want):
        return ["%s: text between numbers differs" % rel]
    got_num = np.array(_NUMBER.findall(got), dtype=float)
    want_num = np.array(_NUMBER.findall(want), dtype=float)
    err = np.abs(got_num - want_num).max(initial=0.0)
    return ["%s: a number is off by %.3g" % (rel, err)] if err > SVG_TOL else []


def test_outputs_match_golden_at_both_thread_settings(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    default = {k: v for k, v in env.items() if k not in THREAD_VARIABLES}
    settings = {"one_thread": dict(default, OPENBLAS_NUM_THREADS="1"), "default": default}
    runs = {name: subprocess.Popen([sys.executable, __file__, str(tmp_path / name)], env=run_env,
                                   stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
            for name, run_env in settings.items()}
    failures = []
    for name, proc in runs.items():
        output, _ = proc.communicate(timeout=300)
        if proc.returncode != 0:
            failures.append("%s run exited %d:\n%s" % (name, proc.returncode, output))
        else:
            failures.extend("%s: %s" % (name, line) for line in _mismatches(tmp_path / name))
    assert not failures, "\n".join(failures)


if __name__ == "__main__":
    target = Path(sys.argv[1])
    if target.exists() and target.resolve() == GOLDEN.resolve():
        shutil.rmtree(target)
    run_session(target)

"""Import footprint: ``import mrspec`` loads no scipy module, and nor does any
command or the cubic spline; numpy does every transform and solve.  scipy is a
test-only dependency."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


def scipy_loaded_after(code):
    """Run ``code`` in a fresh interpreter with ``src`` on the path and return
    the names of the scipy modules it has loaded, sorted."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = code + ("\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules "
                    "if m == 'scipy' or m.startswith('scipy.'))))")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_import_loads_no_scipy():
    assert scipy_loaded_after("import mrspec, mrspec.cli") == []


def test_commands_load_no_scipy(tmp_path):
    # one small run of each command in one interpreter; each must exit 0
    configs = {
        "simulate": {"model": {"ar": [0.5, -0.2], "sigma2": 1.0}, "n": 64, "seed": 7,
                     "delta": 2},
        "spectrum": {"logspectrum": [0.0, 0.5], "delta": 2, "grid_points": 16},
        "loglik-surface": {"n_low": 20, "n_high": 4, "replicates": 2, "omega_true": 0.1,
                           "grid_points": 7},
        "estimate": {"series": [str(tmp_path / "simulate" / "series.csv")],
                     "prior": {"size": 6}, "mc_samples": 500, "grid_points": 8},
        "bench": {"deltas": [2], "ns": [16], "replicates": 2, "prior": {"size": 6}},
        "compare-interp": {"n_total": 120, "delta": 3, "prior": {"size": 6},
                           "mc_samples": 500},
        "pc-fan": {"belief": str(GOLDEN_INPUTS / "belief.json"), "components": 1,
                   "grid_points": 8},
        "quadrature": {"d": 2, "level": 2},
        "kolmogorov": {"logspectrum": [0.3, 0.1]},
        "diff-grid": {"beliefs": [str(GOLDEN_INPUTS / "belief.json")] * 2, "grid_points": 8},
    }
    lines = ["from mrspec.cli import main"]
    for command, cfg in configs.items():
        path = tmp_path / ("%s.json" % command)
        path.write_text(json.dumps(cfg))
        lines.append("assert main(%r) == 0, %r" % (
            [command, "--config", str(path), "--out", str(tmp_path / command)], command))
    assert scipy_loaded_after("\n".join(lines)) == []


def test_spline_interpolate_loads_no_scipy():
    code = (
        "import numpy as np\n"
        "from mrspec import SampledSeries, spline_interpolate\n"
        "dense = spline_interpolate(SampledSeries(np.arange(0.0, 20.0, 3.0), stride=3))\n"
        "assert np.allclose(dense.values, np.arange(19.0), atol=1e-10)\n"
    )
    assert scipy_loaded_after(code) == []

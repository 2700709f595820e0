"""Import footprint: ``import mrspec`` loads only the scipy modules the
package calls at import time (scipy.fft, scipy.special)."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
DEFERRED = ("scipy.stats", "scipy.interpolate", "scipy.linalg")


def loaded_after(code):
    """Run ``code`` in a fresh interpreter with ``src`` on the path and return
    which of the DEFERRED modules it has loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = code + "\nimport json, sys\nprint(json.dumps([m for m in %r if m in sys.modules]))" % (
        DEFERRED,)
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_import_skips_stats_and_interpolate():
    assert loaded_after("import mrspec, mrspec.cli") == []


def test_spline_interpolate_loads_interpolate_when_called():
    code = (
        "import numpy as np\n"
        "from mrspec import SampledSeries, spline_interpolate\n"
        "dense = spline_interpolate(SampledSeries(np.arange(0.0, 20.0, 3.0), stride=3))\n"
        "assert np.allclose(dense.values, np.arange(19.0), atol=1e-10)\n"
    )
    # CubicSpline brings scipy.linalg with it
    assert loaded_after(code) == ["scipy.interpolate", "scipy.linalg"]

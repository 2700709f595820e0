"""Per-layer tracing from outside the package.

The tracer rebinds, in this process only, the names through which one mrspec
module calls a public function of another (for example the ``simulate`` that
``mrspec.likelihood`` imported from ``mrspec.models``), two methods on their
classes, and the entries of ``mrspec.cli._COMMANDS``.  Each wrapper records a
span: its calls and its self time, which is its duration minus the time of the
spans it caused.  A call a module makes through its own global is not
rebound, so it stays in the caller's self time: ``simulate``'s internal
``autocovariance`` counts as ``models.simulate``.

Every binding is checked before it is replaced: if a caller no longer holds
the expected function, the traced run stops with TraceTargetError instead of
silently dropping a layer.

The kernel counts (``*_gflop``, ``*_mflop``, ``cached_factor_mb``) are
computed from array sizes at the span boundaries, not measured.
"""

import functools
import time
from contextlib import contextmanager
from importlib import import_module

import numpy as np

# span name -> (defining module, function, modules whose calls are timed).
# A module listed as its own caller is one the benchmark or a sibling module
# reaches through the defining module's attribute (``bench.run_bench``,
# ``svgplot.line_plot``).
FUNCTIONS = {
    "likelihood.mc_average_surface": ("likelihood", "mc_average_surface", ("likelihood", "cli")),
    "models.simulate": ("models", "simulate", ("likelihood", "bench", "cli")),
    "models.autocovariance": ("models", "autocovariance", ("likelihood",)),
    "beliefs.forecast_moments": ("beliefs", "forecast_moments", ("bench", "cli")),
    "beliefs.adjust": ("beliefs", "adjust", ("bench", "cli")),
    "beliefs.sequential_adjust": ("beliefs", "sequential_adjust", ("cli",)),
    "beliefs.log_periodogram": ("beliefs", "log_periodogram", ("bench", "cli")),
    "beliefs.spectrum_summary": ("beliefs", "spectrum_summary", ("cli",)),
    "beliefs.difference_grid": ("beliefs", "difference_grid", ("cli",)),
    "bench.run_bench": ("bench", "run_bench", ("bench",)),
    "bench.interp_comparison": ("bench", "interp_comparison", ("cli",)),
    "aliasing.fold": ("aliasing", "fold", ("cli",)),
    "uncertainty.pc_fan": ("uncertainty", "pc_fan", ("cli",)),
    "uncertainty.kolmogorov_variance": ("uncertainty", "kolmogorov_variance", ("cli",)),
    "uncertainty.sparse_grid": ("uncertainty", "sparse_grid", ("cli",)),
    "serialize.write_csv": ("serialize", "write_csv", ("cli",)),
    "serialize.write_json": ("serialize", "write_json", ("cli",)),
    "serialize.write_series": ("serialize", "write_series", ("cli",)),
    "serialize.read_series": ("serialize", "read_series", ("cli",)),
    "serialize.read_json": ("serialize", "read_json", ("cli",)),
    "svgplot.line_plot": ("svgplot", "line_plot", ("svgplot",)),
    "svgplot.band_plot": ("svgplot", "band_plot", ("svgplot",)),
    "svgplot.panel_grid": ("svgplot", "panel_grid", ("svgplot",)),
}

# span name -> (defining module, class, method)
METHODS = {
    "likelihood.SurfaceScanner.init": ("likelihood", "SurfaceScanner", "__init__"),
    "likelihood.SurfaceScanner.loglik": ("likelihood", "SurfaceScanner", "loglik"),
    "beliefs.PriorSpec.to_state": ("beliefs", "PriorSpec", "to_state"),
}

# the subcommands the cli_session workload runs, each a span "cli.<command>"
CLI_COMMANDS = ("simulate", "estimate", "compare-interp", "loglik-surface", "pc-fan",
                "kolmogorov", "spectrum", "diff-grid", "quadrature")

SPANS = tuple(FUNCTIONS) + tuple(METHODS) + tuple("cli." + c for c in CLI_COMMANDS)

# counts accumulated by the hooks below, per traced pass
COUNTS = {
    "likelihood.cached_factor_mb": "MB-computed",
    "likelihood.factor_gflop": "GFLOP-computed",
    "likelihood.solve_gflop": "GFLOP-computed",
    "models.levinson_mflop": "MFLOP-computed",
    "likelihood.grid_evals": "count",
    "likelihood.grid_failed": "count",
    "bench.replicates": "count",
    "bench.replicates_failed": "count",
}


class TraceTargetError(RuntimeError):
    """A function or method the tracer wraps no longer exists where expected."""


def _scanner_init(counts, args, kwargs, result):
    scanner = args[0]
    n, g = len(scanner.indices), len(scanner.grid)
    # one n x n Cholesky factor (n^3/3 flops, n^2 doubles) per grid point
    counts["likelihood.factor_gflop"] += g * n**3 / 3e9
    counts["likelihood.cached_factor_mb"] += g * n * n * 8 / 1e6


def _scanner_loglik(counts, args, kwargs, result):
    scanner, values = args[0], args[1]
    n, g = len(scanner.indices), len(scanner.grid)
    replicates = np.size(values) // n
    # two triangular solves (n^2 flops each) per grid point and data vector
    counts["likelihood.solve_gflop"] += replicates * g * 2 * n * n / 1e9
    counts["likelihood.grid_evals"] += np.size(result)
    counts["likelihood.grid_failed"] += int(np.isnan(result).sum())


def _simulate(counts, args, kwargs, result):
    n = args[1] if len(args) > 1 else kwargs["n"]
    counts["models.levinson_mflop"] += n * n / 1e6


def _run_bench(counts, args, kwargs, result):
    counts["bench.replicates"] += len(result.scores) + result.failures
    counts["bench.replicates_failed"] += result.failures


HOOKS = {
    "likelihood.SurfaceScanner.init": _scanner_init,
    "likelihood.SurfaceScanner.loglik": _scanner_loglik,
    "models.simulate": _simulate,
    "bench.run_bench": _run_bench,
}


class Tracer:
    """Span recorder; ``installed()`` rebinds the wrappers for a block."""

    def __init__(self):
        self.calls = dict.fromkeys(SPANS, 0)
        self.self_s = dict.fromkeys(SPANS, 0.0)
        self.raised = dict.fromkeys(SPANS, 0)
        self.counts = dict.fromkeys(COUNTS, 0.0)
        self.covered_s = 0.0  # time inside spans that no other span caused
        self._open = []  # child time of each open span, innermost last
        self._sites = self._resolve()

    def _resolve(self):
        """(setter, original, wrapper) for every binding, checked to hold the
        function it is expected to hold."""
        sites = []
        for span, (home, name, callers) in FUNCTIONS.items():
            original = getattr(import_module("mrspec." + home), name, None)
            if original is None:
                raise TraceTargetError("mrspec.%s.%s no longer exists" % (home, name))
            wrapper = self._wrap(span, original)
            for caller in callers:
                module = import_module("mrspec." + caller)
                if getattr(module, name, None) is not original:
                    raise TraceTargetError("mrspec.%s no longer calls mrspec.%s.%s as %r"
                                           % (caller, home, name, name))
                sites.append((functools.partial(setattr, module, name), original, wrapper))
        for span, (home, cls_name, name) in METHODS.items():
            cls = getattr(import_module("mrspec." + home), cls_name, None)
            original = vars(cls).get(name) if cls is not None else None
            if original is None:
                raise TraceTargetError("mrspec.%s.%s.%s no longer exists" % (home, cls_name, name))
            sites.append((functools.partial(setattr, cls, name), original,
                          self._wrap(span, original)))
        commands = import_module("mrspec.cli")._COMMANDS
        for command in CLI_COMMANDS:
            if command not in commands:
                raise TraceTargetError("mrspec.cli._COMMANDS has no %r" % command)
            sites.append((functools.partial(commands.__setitem__, command), commands[command],
                          self._wrap("cli." + command, commands[command])))
        return sites

    def _wrap(self, span, fn):
        hook = HOOKS.get(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[span] += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                self.calls[span] += 1
                self.self_s[span] += elapsed - self._open.pop()
                if self._open:
                    self._open[-1] += elapsed
                else:
                    self.covered_s += elapsed
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        for setter, _, wrapper in self._sites:
            setter(wrapper)
        try:
            yield self
        finally:
            for setter, original, _ in self._sites:
                setter(original)

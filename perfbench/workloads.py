"""The three benchmark workloads.

Each workload builds its inputs from the benchmark seed alone, runs one pass
per call of ``run`` and checks that pass's output in ``check``.  ``check``
returns an Outcome: the pass's operation count, how many of them failed, and
the workload's result statistics.  A pass that fails its output check counts
every one of its operations as failed.

Calls into mrspec go through module attributes (``likelihood.mc_average_surface``,
``bench.run_bench``, ``cli.main``) so that the traced run sees them.
"""

import contextlib
import io
import json
import os
import shutil
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mrspec import bench, cli, likelihood

# ROADMAP criteria 2 and 3 scale; the aliased mode of omega_true = 1/12 at
# stride 2 sits near 5/12, inside ALIAS_REGION
OMEGA_TRUE = 1.0 / 12.0
ALIAS_REGION = (0.39, 0.44)


def derived_seeds(seed, count):
    """``count`` 31-bit seeds drawn from the benchmark seed."""
    state = np.random.SeedSequence(seed).generate_state(count)
    return [int(s) & 0x7FFFFFFF for s in state]


@dataclass
class Outcome:
    ok: bool
    attempted: int
    failed: int
    stats: dict = field(default_factory=dict)
    problem: str = ""


class Surface:
    """Acceptance-scale Monte Carlo likelihood surface: 201 factorisations,
    then 200 replicates x 201 grid points of solves."""

    name = "surface"

    def __init__(self, seed, workdir):
        # mc_average_surface seeds replicate r with design.seed ^ r, so the
        # design seed needs bits above the replicate count to vary the data
        (design_seed,) = derived_seeds(seed, 1)
        self.design = likelihood.ExperimentDesign(
            n_low=128, n_high=20, replicates=200, omega_true=OMEGA_TRUE,
            modulus=0.9, delta_low=2, grid=likelihood.default_omega_grid(201),
            seed=design_seed,
        )

    def run(self):
        return likelihood.mc_average_surface(self.design, keep_replicates=True)

    def check(self, result):
        surface, per_rep = result
        attempted = per_rep.size
        failed = int(np.isnan(per_rep).sum())
        grid = surface.omegas
        # criterion 2's statistic: region maximum minus global peak, averaged
        # over replicates, with both locations taken from the average surface
        avg = per_rep.mean(axis=0)
        i_peak = int(np.argmax(avg))
        in_region = (grid > ALIAS_REGION[0]) & (grid < ALIAS_REGION[1])
        j_region = int(np.flatnonzero(in_region)[np.argmax(avg[in_region])])
        alias_height = float(np.mean(per_rep[:, j_region] - per_rep[:, i_peak]))
        step = grid[1] - grid[0]
        problems = []
        if abs(grid[i_peak] - OMEGA_TRUE) > step:
            problems.append("peak at %.6g, not within one grid step of 1/12" % grid[i_peak])
        if not alias_height < 0:
            problems.append("aliased region not below the peak (height %.6g)" % alias_height)
        ok = not problems
        return Outcome(ok, attempted, failed if ok else attempted,
                       {"alias_height": alias_height}, "; ".join(problems))

    def close(self):
        pass


class BenchCell:
    """One cell of the discrepancy table: 100 replicates of draw, simulate,
    log-periodogram and Bayes linear adjustment."""

    name = "bench_cell"

    def __init__(self, seed, workdir):
        (design_seed,) = derived_seeds(seed, 1)
        self.design = bench.BenchDesign(d1=(1, 128), d2=(6, 128), replicates=100,
                                        seed=design_seed)

    def run(self):
        return bench.run_bench(self.design)

    def check(self, result):
        attempted = self.design.replicates
        problems = []
        if len(result.scores) + result.failures != attempted:
            problems.append("%d scores + %d failures for %d replicates"
                            % (len(result.scores), result.failures, attempted))
        if not np.all(np.isfinite(result.scores)):
            problems.append("non-finite discrepancy score")
        ok = not problems
        return Outcome(ok, attempted, result.failures if ok else attempted,
                       {"discrepancy": result.mean}, "; ".join(problems))

    def close(self):
        pass


class CliSession:
    """Eleven in-process ``mrspec`` commands on configs written at set-up:
    three simulations, an estimate on them, and every command that consumes
    a spectrum, a belief or a surface."""

    name = "cli_session"

    def __init__(self, seed, workdir):
        self.work = Path(workdir)
        self.work.mkdir(parents=True)
        cfg_dir = self.work / "cfg"
        cfg_dir.mkdir()
        s = derived_seeds(seed, 6)
        model = {"ar": list(likelihood.ar2_from_omega(OMEGA_TRUE, 0.9)), "sigma2": 1.0}
        out = {name: str(self.work / name) for name in
               ("sim6", "sim2", "sim1", "est", "cmp", "surf", "fan", "kol", "spec",
                "diff", "quad")}
        series = [{"csv": os.path.join(out[d], "series.csv"), "id": d}
                  for d in ("sim6", "sim2", "sim1")]
        belief = os.path.join(out["est"], "belief.json")
        stages = [os.path.join(out["est"], "belief_stage%d.json" % k) for k in (1, 2, 3)]
        steps = [
            ("simulate", "sim6", {"model": model, "n": 768, "delta": 6, "seed": s[0]}),
            ("simulate", "sim2", {"model": model, "n": 256, "delta": 2, "seed": s[1]}),
            ("simulate", "sim1", {"model": model, "n": 128, "seed": s[2]}),
            ("estimate", "est", {"series": series, "seed": s[3]}),
            ("compare-interp", "cmp", {"seed": s[4]}),
            ("loglik-surface", "surf", {"n_low": 60, "n_high_list": [0, 10, 20],
                                        "replicates": 10, "omega_true": OMEGA_TRUE,
                                        "seed": s[5]}),
            ("pc-fan", "fan", {"belief": belief}),
            ("kolmogorov", "kol", {"belief": belief}),
            ("spectrum", "spec", {"model": model, "delta": 6}),
            ("diff-grid", "diff", {"beliefs": stages}),
            ("quadrature", "quad", {"d": 4, "level": 3}),
        ]
        self.argvs = []
        for k, (command, out_key, cfg) in enumerate(steps):
            path = cfg_dir / ("%02d_%s.json" % (k, command))
            path.write_text(json.dumps(cfg, indent=2, sort_keys=True))
            self.argvs.append([command, "--config", str(path), "--out", out[out_key]])
        self.reference = None

    def run(self):
        # kolmogorov prints its value; keep the result line last on stdout
        with contextlib.redirect_stdout(io.StringIO()):
            return [self._main(argv) for argv in self.argvs]

    @staticmethod
    def _main(argv):
        try:
            return cli.main(argv)
        except Exception:
            # an exception cli.main does not map to an exit code ends a real
            # ``mrspec`` process with status 1
            traceback.print_exc()
            return 1

    def _csv_bytes(self):
        return {str(p.relative_to(self.work)): p.read_bytes()
                for p in sorted(self.work.rglob("*.csv"))}

    def check(self, codes):
        attempted = len(codes)
        failed = sum(code != 0 for code in codes)
        problems = ["%s exited %d" % (argv[0], code)
                    for argv, code in zip(self.argvs, codes) if code != 0]
        csvs = self._csv_bytes()
        if self.reference is None:
            self.reference = csvs
        elif csvs != self.reference:
            differ = sorted(k for k in set(csvs) | set(self.reference)
                            if csvs.get(k) != self.reference.get(k))
            problems.append("CSV bytes differ from the first pass: %s" % ", ".join(differ))
        ok = not problems
        return Outcome(ok, attempted, failed if ok else attempted, {}, "; ".join(problems))

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Surface, BenchCell, CliSession)}

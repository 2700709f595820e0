"""mrspec benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload surface --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout: the benchmark imports mrspec from
``src/`` beside this directory and refuses to run without it.  One workload
runs in this process with one caller in a closed loop: a pass starts only
after the previous one ends, until ``--seconds`` have passed (at least
MIN_PASSES passes).  BLAS threading is left at the machine default.

With ``--trace 0`` it reports the end-to-end metrics, measured untraced:

- setup_s: process start until the first pass can begin (imports and input
  generation), the median over SETUP_SAMPLES fresh processes;
- wall_s, cpu_s: median wall and process CPU seconds per pass, all threads;
- peak_rss_mb: peak resident memory of this process.

With ``--trace 1`` passes alternate untraced and traced, and it reports the
per-layer metrics of spans.py from the traced passes, per pass.

The last line of standard output is the JSON result; the lines before it
repeat every metric with its unit, the error rate, the workload's result
statistic and the environment.  The same record is written to
``.perfbench/results/`` in the checkout.  See README.md for the reasoning.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import COUNTS, SPANS, Tracer

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".perfbench"
SETUP_SAMPLES = 5
MIN_PASSES = 2


def _import_workloads():
    """Import the workloads against the checkout's own mrspec, or exit with an
    error."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import mrspec
        import workloads
    except ImportError as exc:
        sys.exit("perfbench: cannot import mrspec from %s: %s" % (src, exc))
    if src not in Path(mrspec.__file__).resolve().parents:
        sys.exit("perfbench: mrspec was imported from %s, not from %s" % (mrspec.__file__, src))
    return workloads


def _git_rev():
    """The commit checked out, read from .git without running git; None
    outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy as np
    import scipy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas["name"], blas.get("version", ""))
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "git_rev": _git_rev(),
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.strip(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def _workdir():
    return STATE / ("work-%d" % os.getpid())


def setup_probe(args):
    """Set the workload up in this fresh process and print when it is ready."""
    workload = _import_workloads().WORKLOADS[args.workload](args.seed, _workdir())
    print(time.clock_gettime(time.CLOCK_MONOTONIC))
    workload.close()


def setup_seconds(args):
    """Seconds from starting a fresh process until its set-up is done, one
    sample per process."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        probe = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0"],
            capture_output=True, text=True, timeout=60, check=False,
        )
        if probe.returncode != 0:
            sys.exit("perfbench: set-up probe failed:\n" + probe.stderr)
        samples.append(float(probe.stdout.split()[-1]) - start)
    return samples


def run_passes(workload, seconds, tracer=None):
    """Closed loop of passes.  Without a tracer every pass is untraced; with
    one, passes alternate untraced and traced.  Returns per-pass records."""
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        traced = tracer is not None and len(passes) % 2 == 1
        covered = tracer.covered_s if traced else 0.0
        with tracer.installed() if traced else contextlib.nullcontext():
            wall0, cpu0 = time.perf_counter(), time.process_time()
            result = workload.run()
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        outcome = workload.check(result)
        passes.append({"traced": traced, "wall_s": wall, "cpu_s": cpu,
                       "unattributed_s": wall - (tracer.covered_s - covered) if traced else 0.0,
                       "ok": outcome.ok, "attempted": outcome.attempted,
                       "failed": outcome.failed, "stats": outcome.stats,
                       "problem": outcome.problem})
    return passes


def layer_metrics(tracer, passes):
    """Per-pass means of the traced passes' spans and counts."""
    traced = [p for p in passes if p["traced"]]
    n = len(traced)
    metrics = {}
    for span in SPANS:
        metrics[span + ".calls"] = (tracer.calls[span] / n, "count")
        metrics[span + ".self_s"] = (tracer.self_s[span] / n, "s")
    for name, unit in COUNTS.items():
        metrics[name] = (tracer.counts[name] / n, unit)

    def ok_frac(failed, attempted):
        return 1.0 - failed / attempted if attempted else 1.0

    c = tracer.counts
    cli_calls = sum(tracer.calls[s] for s in SPANS if s.startswith("cli."))
    cli_raised = sum(tracer.raised[s] for s in SPANS if s.startswith("cli."))
    loglik_s = tracer.self_s["likelihood.SurfaceScanner.loglik"]
    metrics.update({
        "likelihood.grid_ok_frac": (ok_frac(c["likelihood.grid_failed"],
                                            c["likelihood.grid_evals"]), "ratio"),
        "likelihood.solve_gflop_per_s": (c["likelihood.solve_gflop"] / loglik_s
                                         if loglik_s else 0.0, "GFLOP/s"),
        "bench.rep_ok_frac": (ok_frac(c["bench.replicates_failed"], c["bench.replicates"]),
                              "ratio"),
        "cli.commands": (cli_calls / n, "count"),
        "cli.exit0_frac": (ok_frac(cli_raised, cli_calls), "ratio"),
        "harness.unattributed_s": (statistics.fmean(p["unattributed_s"] for p in traced), "s"),
        "harness.trace_overhead_s": (
            statistics.median(p["wall_s"] for p in traced)
            - statistics.median(p["wall_s"] for p in passes if not p["traced"]), "s"),
    })
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workloads = _import_workloads()
    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r (choose from %s)"
                     % (args.workload, ", ".join(workloads.WORKLOADS)))
    if args.setup_probe:
        setup_probe(args)
        return

    tracer = Tracer() if args.trace else None
    setups = [] if args.trace else setup_seconds(args)
    workload = workloads.WORKLOADS[args.workload](args.seed, _workdir())
    try:
        passes = run_passes(workload, args.seconds, tracer)
    finally:
        workload.close()

    untraced = [p for p in passes if not p["traced"]]
    if args.trace:
        metrics = layer_metrics(tracer, passes)
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(p["wall_s"] for p in untraced), "s"),
            "cpu_s": (statistics.median(p["cpu_s"] for p in untraced), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                            "MB"),
        }
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    stats = {}
    for key in passes[0]["stats"]:
        stats[key] = statistics.median(p["stats"][key] for p in passes)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(passes), "untraced_passes": len(untraced),
        "setup_samples_s": setups, "error_rate": failed / attempted, "stats": stats,
        "problems": sorted({p["problem"] for p in passes if p["problem"]}),
        "environment": environment(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "pass_records": passes,
    }
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    out.write_text(json.dumps(record, indent=1) + "\n")

    print("perfbench %s seed=%d trace=%d: %d passes (%d untraced), set-up samples %d"
          % (args.workload, args.seed, args.trace, len(passes), len(untraced), len(setups)))
    for name, (value, unit) in metrics.items():
        print("  %-44s %.6g %s" % (name, value, unit))
    print("  %-44s %.6g (%d failed of %d operations)"
          % ("error_rate", record["error_rate"], failed, attempted))
    for name, value in stats.items():
        print("  %-44s %.10g (median over passes)" % (name, value))
    for problem in record["problems"]:
        print("  check failed: %s" % problem)
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print("record " + str(out.relative_to(ROOT)))
    print(json.dumps({
        "correct": all(p["ok"] for p in passes),
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))


if __name__ == "__main__":
    main()

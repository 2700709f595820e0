"""End-to-end tests of the command-line interface (in-process)."""

import json

import numpy as np
import pytest

from mrspec.cli import _COMMANDS, build_parser, main
from mrspec.models import SampledSeries
from mrspec.serialize import read_csv, read_json, write_json, write_series


def run(tmp_path, command, cfg, out="out", extra=()):
    cfg_path = tmp_path / ("%s.json" % command.replace("-", "_"))
    write_json(cfg_path, cfg)
    out_dir = tmp_path / out
    return main([command, "--config", str(cfg_path), "--out", str(out_dir)] + list(extra)), out_dir


class TestSimulate:
    def test_writes_series_and_manifest(self, tmp_path):
        code, out = run(tmp_path, "simulate",
                        {"model": {"ar": [0.5], "sigma2": 1.0}, "n": 32, "seed": 4})
        assert code == 0
        _, (idx, values) = read_csv(out / "series.csv")
        assert len(values) == 32
        assert np.array_equal(idx, np.arange(32))
        manifest = read_json(out / "manifest.json")
        assert manifest["command"] == "simulate"
        assert manifest["config"]["n"] == 32

    def test_subsampled_output(self, tmp_path):
        code, out = run(tmp_path, "simulate",
                        {"model": {"sigma2": 1.0}, "n": 20, "delta": 2})
        assert code == 0
        meta = read_json(out / "series.json")
        assert meta["stride"] == 2
        _, (idx, _) = read_csv(out / "series.csv")
        assert np.array_equal(idx, np.arange(0, 20, 2))

    def test_offset_output(self, tmp_path):
        code, out = run(tmp_path, "simulate",
                        {"model": {"sigma2": 1.0}, "n": 20, "delta": 3, "offset": 2})
        assert code == 0
        assert read_json(out / "series.json")["offset"] == 2
        _, (idx, _) = read_csv(out / "series.csv")
        assert np.array_equal(idx, np.arange(2, 20, 3))

    @pytest.mark.parametrize("delta,offset", [(1, 3), (2, 2)])
    def test_offset_not_below_delta_is_config_error(self, tmp_path, capsys, delta, offset):
        code, out = run(tmp_path, "simulate",
                        {"model": {"sigma2": 1.0}, "n": 20, "delta": delta, "offset": offset})
        assert code == 2
        assert "'offset'" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_flag_overrides_config(self, tmp_path):
        _, out1 = run(tmp_path, "simulate",
                      {"model": {"sigma2": 1.0}, "n": 16, "seed": 1}, out="o1")
        code, out2 = run(tmp_path, "simulate",
                         {"model": {"sigma2": 1.0}, "n": 16, "seed": 2}, out="o2",
                         extra=["--seed", "1"])
        assert code == 0
        assert (out1 / "series.csv").read_bytes() == (out2 / "series.csv").read_bytes()

    def test_one_parser_and_no_flag_carried_to_the_next_call(self, tmp_path):
        # the parser is built once per process; a --seed given to one call must
        # not reach the next, which reads its seed from its config
        assert build_parser() is build_parser()
        cfg = {"model": {"sigma2": 1.0}, "n": 16, "seed": 2}
        run(tmp_path, "simulate", cfg, out="flag", extra=["--seed", "1"])
        code, out = run(tmp_path, "simulate", cfg, out="plain")
        assert code == 0
        assert read_json(out / "manifest.json")["config"]["seed"] == 2


class TestSpectrum:
    def test_folded_spectrum_output(self, tmp_path):
        code, out = run(tmp_path, "spectrum",
                        {"logspectrum": [0.0], "delta": 2, "grid_points": 33})
        assert code == 0
        _, (omega, f) = read_csv(out / "spectrum.csv")
        assert len(omega) == 33
        # flat unit spectrum folds to itself
        assert np.allclose(f, 1.0, atol=1e-12)
        assert (out / "spectrum.svg").exists()


class TestLoglikSurface:
    def test_single_surface(self, tmp_path):
        code, out = run(tmp_path, "loglik-surface",
                        {"n_low": 12, "n_high": 2, "replicates": 2,
                         "omega_true": 0.3, "grid_points": 9, "seed": 0})
        assert code == 0
        _, (omega, ll) = read_csv(out / "surface.csv")
        assert len(omega) == 9
        assert np.nanmax(ll) == 0.0

    def test_distinct_seeds_give_distinct_surfaces(self, tmp_path):
        # seeds that differ only below the replicate count once drew the same
        # replicates in another order
        cfg = {"n_low": 12, "n_high": 2, "replicates": 100, "omega_true": 0.3,
               "grid_points": 9}
        surfaces = []
        for seed in ("0", "1"):
            code, out = run(tmp_path, "loglik-surface", cfg, out="seed" + seed,
                            extra=["--seed", seed])
            assert code == 0
            surfaces.append(read_csv(out / "surface.csv")[1][1])
        assert np.abs(surfaces[0] - surfaces[1]).max() > 1e-6

    def test_sweep_writes_one_file_per_setting(self, tmp_path):
        code, out = run(tmp_path, "loglik-surface",
                        {"n_low": 12, "n_high_list": [0, 2], "replicates": 2,
                         "omega_true": 0.3, "grid_points": 9, "seed": 0})
        assert code == 0
        assert (out / "surface_nh000.csv").exists()
        assert (out / "surface_nh002.csv").exists()
        assert (out / "surface.svg").exists()

    @pytest.mark.parametrize("n_high_list", [[20, 0, 10], [4, 4]])
    def test_unsorted_or_repeated_list_keeps_names_and_label_order(self, tmp_path, n_high_list):
        cfg = {"n_low": 12, "replicates": 2, "omega_true": 0.3, "grid_points": 9, "seed": 0}
        code, out = run(tmp_path, "loglik-surface", dict(cfg, n_high_list=n_high_list))
        assert code == 0
        assert sorted(p.name for p in out.glob("surface*.csv")) == sorted(
            {"surface_nh%03d.csv" % n for n in n_high_list})
        for n_high in n_high_list:
            _, alone = run(tmp_path, "loglik-surface", dict(cfg, n_high=n_high),
                           out="alone%d" % n_high)
            assert ((out / ("surface_nh%03d.csv" % n_high)).read_bytes()
                    == (alone / "surface.csv").read_bytes())
        svg = (out / "surface.svg").read_text()
        labels = ["n_high=%d" % n for n in n_high_list]
        positions = []
        for label in labels:
            positions.append(svg.index(">%s<" % label, positions[-1] + 1 if positions else 0))
        assert positions == sorted(positions)

    def test_list_simulates_once_and_scans_once(self, tmp_path, monkeypatch):
        from mrspec import likelihood

        calls = {"simulate": 0, "init": 0, "loglik": 0}

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(likelihood, "simulate_replicates",
                            counted("simulate", likelihood.simulate_replicates))
        monkeypatch.setattr(likelihood.SurfaceScanner, "__init__",
                            counted("init", likelihood.SurfaceScanner.__init__))
        monkeypatch.setattr(likelihood.SurfaceScanner, "loglik",
                            counted("loglik", likelihood.SurfaceScanner.loglik))
        code, _ = run(tmp_path, "loglik-surface",
                      {"n_low": 12, "n_high_list": [0, 4, 8], "replicates": 2,
                       "omega_true": 0.3, "grid_points": 9, "seed": 0})
        assert code == 0
        assert calls == {"simulate": 1, "init": 1, "loglik": 1}


class TestEstimate:
    def test_two_series_sequential(self, tmp_path):
        sim_cfg = {"model": {"ar": [0.4], "sigma2": 1.0}, "n": 64, "seed": 3}
        _, sim_out = run(tmp_path, "simulate", sim_cfg, out="sim1")
        sim_cfg2 = dict(sim_cfg, seed=5, delta=2, n=80)
        _, sim_out2 = run(tmp_path, "simulate", sim_cfg2, out="sim2")
        code, out = run(tmp_path, "estimate", {
            "series": [
                {"csv": str(sim_out2 / "series.csv"),
                 "sidecar": str(sim_out2 / "series.json"), "id": "history"},
                {"csv": str(sim_out / "series.csv"), "id": "recent"},
            ],
            "prior": {"size": 12},
            "mc_samples": 600,
            "seed": 0,
        })
        assert code == 0
        belief = read_json(out / "belief.json")
        assert len(belief["mean"]) == 12
        assert (out / "belief_stage1.json").exists()
        assert (out / "belief_stage2.json").exists()
        header, cols = read_csv(out / "summary.csv")
        assert header == ["omega", "mean", "lo50", "hi50", "lo90", "hi90"]
        lo90, hi90 = cols[4], cols[5]
        assert np.all(lo90 <= hi90)
        assert (out / "bands.svg").exists()

    def test_non_object_sidecar_is_config_error(self, tmp_path, capsys):
        _, sim_out = run(tmp_path, "simulate", {"model": {"sigma2": 1.0}, "n": 32}, out="sim")
        (sim_out / "series.json").write_text("[1]\n")
        code, out = run(tmp_path, "estimate", {"series": [str(sim_out / "series.csv")],
                                               "mc_samples": 600})
        assert code == 2
        err = capsys.readouterr().err
        assert "'series'" in err and "must be a JSON object" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_is_config_error_naming_row(self, tmp_path, capsys, value):
        _, sim_out = run(tmp_path, "simulate", {"model": {"sigma2": 1.0}, "n": 32}, out="sim")
        csv = sim_out / "series.csv"
        lines = csv.read_text().splitlines()
        lines[5] = "4," + value
        csv.write_text("\n".join(lines) + "\n")
        code, out = run(tmp_path, "estimate", {"series": [str(csv)], "mc_samples": 600})
        assert code == 2
        err = capsys.readouterr().err
        assert "'series'" in err and "row 6 of %s: non-finite value" % csv in err
        assert not out.exists()

    @pytest.mark.parametrize("meta,key", [({"strid": 4}, "'strid'"),
                                          ({"stride": 4.7}, "'stride'")])
    def test_misread_sidecar_is_config_error_naming_key(self, tmp_path, capsys, meta, key):
        # a misspelt key must not leave a stride-4 series read as dense
        _, sim_out = run(tmp_path, "simulate", {"model": {"sigma2": 1.0}, "n": 32}, out="sim")
        write_json(sim_out / "series.json", meta)
        code, out = run(tmp_path, "estimate", {"series": [str(sim_out / "series.csv")],
                                               "mc_samples": 600})
        assert code == 2
        err = capsys.readouterr().err
        assert "'series'" in err and key in err
        assert not out.exists()

    @pytest.mark.parametrize("header", ["foo,bar", "index", "index,value,extra"])
    def test_wrong_header_is_config_error_naming_file(self, tmp_path, capsys, header):
        # foo,bar was read as index,value; one or three columns did not unpack,
        # and the message named neither the file nor the header
        csv = tmp_path / "s.csv"
        width = header.count(",") + 1
        csv.write_text("\n".join([header] + [",".join([str(k)] * width) for k in range(32)]))
        code, out = run(tmp_path, "estimate", {"series": [str(csv)], "mc_samples": 600})
        assert code == 2
        err = capsys.readouterr().err
        assert "'series'" in err and "%s has header %r" % (csv, header) in err
        assert not out.exists()

    def test_steep_prior_runs_without_warning(self, tmp_path, capsys):
        # (m / cutoff) ** 400 overflows from m = 3 on, to a prior variance of 0
        _, sim_out = run(tmp_path, "simulate", {"model": {"sigma2": 1.0}, "n": 32}, out="sim")
        code, _ = run(tmp_path, "estimate", {"series": [str(sim_out / "series.csv")],
                                             "prior": {"smoothness": 200, "cutoff": 0.5},
                                             "mc_samples": 600})
        assert code == 0
        assert "Warning" not in capsys.readouterr().err

    @pytest.mark.parametrize("values,code,message", [
        # every ordinate of a constant series is zero: exit 3, not NaN outputs and exit 0
        (np.full(32, 1.5), 3, "series 'flat' has a zero periodogram ordinate at nu = 0.03125"),
        (np.array([0.3, -1.2, 0.8]), 2, "series 'flat' is too short for a periodogram"),
        # finite values whose periodogram overflows: exit 3, not NaN outputs and exit 0
        (np.random.default_rng(0).standard_normal(64) * 1e160, 3,
         "series 'flat' is too large for a periodogram"),
        (np.array([1.7e308, -1.7e308] * 8), 3, "series 'flat' is too large for a periodogram"),
    ])
    def test_unusable_series_names_it(self, tmp_path, capsys, values, code, message):
        write_series(tmp_path / "flat.csv", tmp_path / "flat.json", SampledSeries(values))
        status, out = run(tmp_path, "estimate", {
            "series": [{"csv": str(tmp_path / "flat.csv"), "id": "flat"}], "mc_samples": 600})
        assert status == code
        err = capsys.readouterr().err
        assert message in err and "Warning" not in err
        assert not out.exists()


class TestBench:
    def test_small_table(self, tmp_path):
        code, out = run(tmp_path, "bench", {
            "d1_cells": [[1, 16]], "d2_cells": [[1, 16], [2, 16]],
            "deltas": [1, 2], "ns": [16], "replicates": 2, "seed": 0,
        })
        assert code == 0
        header, cols = read_csv(out / "table.csv")
        assert header[:2] == ["d1_delta", "d1_n"]
        assert len(header) == 4
        assert np.all(np.isfinite(cols[2]))
        assert (out / "stderr.csv").exists()

    def test_prior_too_wide_for_exp_is_numerical_error(self, tmp_path, capsys):
        code, _ = run(tmp_path, "bench", {"prior": {"scale": 1e5}, "d1_cells": [[1, 16]],
                                          "d2_cells": [[2, 16]], "replicates": 2})
        assert code == 3
        assert "prior too wide for exp" in capsys.readouterr().err


class TestCompareInterp:
    def test_overlay_written(self, tmp_path):
        code, out = run(tmp_path, "compare-interp",
                        {"seed": 0, "n_total": 300, "mc_samples": 600})
        assert code == 0
        header, cols = read_csv(out / "overlay.csv")
        assert header == ["omega", "truth", "blm_raw", "blm_interp",
                          "ar_fit", "smoothed_pgram"]
        assert (out / "overlay.svg").exists()

    @pytest.mark.parametrize("cfg,key", [
        ({"omega0": 0.7}, "omega0"),
        ({"modulus": 1.5}, "modulus"),
        ({"n_total": 5}, "subsampled history"),
        ({"n_total": 40}, "recent segment"),
    ])
    def test_unrunnable_design_is_config_error(self, tmp_path, capsys, cfg, key):
        code, out = run(tmp_path, "compare-interp", cfg)
        assert code == 2
        assert key in capsys.readouterr().err
        assert not out.exists()


class TestPcFanAndDiffGrid:
    @pytest.fixture()
    def belief_path(self, tmp_path):
        path = tmp_path / "belief.json"
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 6))
        write_json(path, {"mean": list(np.zeros(6)),
                          "variance": (a @ a.T / 10).tolist()})
        return path

    def test_pc_fan(self, tmp_path, belief_path):
        code, out = run(tmp_path, "pc-fan",
                        {"belief": str(belief_path), "components": 2,
                         "grid_points": 16})
        assert code == 0
        header, cols = read_csv(out / "pc_fan.csv")
        assert len(header) == 1 + 2 * 9
        assert (out / "pc_fan.svg").exists()

    def test_diff_grid(self, tmp_path, belief_path):
        code, out = run(tmp_path, "diff-grid",
                        {"beliefs": [str(belief_path), str(belief_path)],
                         "grid_points": 8})
        assert code == 0
        header, cols = read_csv(out / "diff_grid.csv")
        assert len(header) == 1 + 4
        # identical states: off-diagonal differences vanish
        assert np.allclose(cols[2], 0.0)
        assert np.allclose(cols[1], cols[4])


class TestQuadrature:
    def test_nodes_written(self, tmp_path):
        code, out = run(tmp_path, "quadrature", {"d": 2, "level": 3})
        assert code == 0
        header, cols = read_csv(out / "quadrature.csv")
        assert header == ["w", "x1", "x2"]
        assert cols[0].sum() == pytest.approx(1.0, abs=1e-12)


class TestKolmogorov:
    def test_model_variance(self, tmp_path, capsys):
        code, out = run(tmp_path, "kolmogorov",
                        {"model": {"ar": [0.6], "sigma2": 2.0}})
        assert code == 0
        _, (value,) = read_csv(out / "kolmogorov.csv")
        assert value[0] == pytest.approx(2.0, abs=1e-6)
        assert "2" in capsys.readouterr().out

    @pytest.mark.parametrize("content", [None, "{not json", "[1, 2]"])
    def test_unreadable_belief_is_config_error(self, tmp_path, content):
        path = tmp_path / "belief.json"
        if content is not None:
            path.write_text(content)
        code, _ = run(tmp_path, "kolmogorov", {"belief": str(path)})
        assert code == 2


class TestExitCodes:
    def test_missing_required_field_is_config_error(self, tmp_path):
        code, _ = run(tmp_path, "simulate", {"model": {"sigma2": 1.0}})
        assert code == 2

    def test_missing_model_sigma2_is_config_error(self, tmp_path):
        code, _ = run(tmp_path, "simulate", {"model": {"ar": [0.5]}, "n": 16})
        assert code == 2

    def test_unreadable_config_is_config_error(self, tmp_path):
        out_dir = tmp_path / "out"
        code = main(["simulate", "--config", str(tmp_path / "missing.json"),
                     "--out", str(out_dir)])
        assert code == 2

    def test_nonstationary_model_is_numerical_error(self, tmp_path):
        code, _ = run(tmp_path, "simulate",
                      {"model": {"ar": [1.01], "sigma2": 1.0}, "n": 16})
        assert code == 3

    @pytest.mark.parametrize("command,cfg", [
        ("spectrum", {"logspectrum": [0.0, 800.0]}),
        ("spectrum", {"logspectrum": [709.5], "delta": 4}),
        ("kolmogorov", {"logspectrum": [800.0]}),
        ("simulate", {"logspectrum": [0.0, 800.0], "n": 16}),
        ("pc-fan", {"belief": "big.json", "components": 1}),
    ])
    def test_log_spectrum_too_large_for_exp_is_numerical_error(self, tmp_path, monkeypatch, capsys,
                                                                command, cfg):
        # no inf in an output file; a numpy warning would fail the test under the
        # suite's warning filter
        monkeypatch.chdir(tmp_path)
        write_json("big.json", {"mean": [800.0, 0.1], "variance": [[0.4, 0.0], [0.0, 0.2]]})
        code, out = run(tmp_path, command, cfg)
        assert code == 3
        err = capsys.readouterr().err
        assert "too large" in err and "Warning" not in err
        assert not out.exists()

    def test_subnormal_coefficient_is_accepted(self, tmp_path):
        code, out = run(tmp_path, "simulate", {"model": {"ar": [1e-310], "sigma2": 1.0}, "n": 16})
        assert code == 0
        assert (out / "series.csv").exists()

    def test_empty_n_high_list_is_config_error(self, tmp_path, capsys):
        code, out = run(tmp_path, "loglik-surface", {"n_low": 10, "n_high": 2, "n_high_list": [],
                                                     "omega_true": 0.3, "grid_points": 7})
        assert code == 2
        assert "'n_high_list'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cfg,message", [
        ({"n_high": 5, "n_high_list": [0]}, "config has both 'n_high' and 'n_high_list'"),
        ({}, "config needs one of 'n_high', 'n_high_list'"),
    ])
    def test_n_high_given_once(self, tmp_path, capsys, cfg, message):
        # n_high used to be ignored silently when n_high_list was given too
        code, out = run(tmp_path, "loglik-surface", dict(cfg, n_low=10, omega_true=0.3,
                                                         grid_points=7))
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_bad_quadrature_dimension_is_config_error(self, tmp_path):
        code, _ = run(tmp_path, "quadrature", {"d": 40, "level": 2})
        assert code == 2

    def test_non_object_series_entry_is_config_error(self, tmp_path, capsys):
        code, _ = run(tmp_path, "estimate", {"series": [5]})
        assert code == 2
        assert "'series'" in capsys.readouterr().err

    @pytest.mark.parametrize("command,cfg", [
        ("loglik-surface", {"n_low": 10, "n_high": 2, "omega_true": 0.3, "grid_points": 7}),
        ("bench", {"d1_cells": [[1, 16]], "d2_cells": [[1, 16]]}),
    ])
    def test_zero_replicates_is_config_error(self, tmp_path, capsys, command, cfg):
        code, _ = run(tmp_path, command, dict(cfg, replicates=0))
        assert code == 2
        assert "replicates" in capsys.readouterr().err


    @pytest.mark.parametrize("prior,field", [
        ({"scale": 0}, "prior.scale"),
        ({"scale": "x"}, "prior.scale"),
        ({"size": 2.5}, "prior.size"),
        ("wide", "'prior'"),
    ])
    def test_bad_prior_is_config_error_naming_field(self, tmp_path, capsys, prior, field):
        code, _ = run(tmp_path, "bench", {"d1_cells": [[1, 16]], "d2_cells": [[1, 16]],
                                          "replicates": 2, "prior": prior})
        assert code == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("command,cfg,key", [
        ("bench", {"d1_cells": [[1, 16]], "d2_cells": [[1, 16]], "replicates": "x"},
         "'replicates'"),
        ("bench", {"d1_cells": [[1, 16]], "d2_cells": [[1, 16]], "seed": None}, "'seed'"),
        ("simulate", {"model": {"sigma2": 1.0}, "n": "ten"}, "'n'"),
        ("simulate", {"model": {"sigma2": 1.0}, "n": 8, "delta": [2]}, "'delta'"),
        ("loglik-surface", {"n_low": 10, "n_high_list": [2, "y"], "omega_true": 0.3,
                            "grid_points": 7, "replicates": 2}, "'n_high_list'"),
        ("loglik-surface", {"n_low": 10, "n_high": 2, "omega_true": "0.3x"}, "'omega_true'"),
        ("compare-interp", {"modulus": "high"}, "'modulus'"),
        ("quadrature", {"d": 2, "level": 1e400}, "'level'"),
    ])
    def test_non_numeric_scalar_is_config_error_naming_key(self, tmp_path, capsys, command,
                                                           cfg, key):
        code, out = run(tmp_path, command, cfg)
        assert code == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cfg,key", [
        ({"d1_cells": 5}, "'d1_cells'"),
        ({"d1_cells": [[1, 16]], "d2_cells": [5]}, "'d2_cells'"),
        ({"deltas": 5}, "'deltas'"),
        ({"ns": "ab"}, "'ns'"),
    ])
    def test_malformed_bench_grid_is_config_error(self, tmp_path, capsys, cfg, key):
        code, out = run(tmp_path, "bench", dict(cfg, replicates=2))
        assert code == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["compare-interp", "estimate"])
    def test_small_mc_samples_is_config_error(self, tmp_path, capsys, command):
        cfg = {"mc_samples": 3, "n_total": 300}
        if command == "estimate":
            code, sim = run(tmp_path, "simulate", {"model": {"sigma2": 1.0}, "n": 32}, out="sim")
            assert code == 0
            cfg = {"mc_samples": 3, "series": [str(sim / "series.csv")]}
        code, _ = run(tmp_path, command, cfg)
        assert code == 2
        assert "mc_samples" in capsys.readouterr().err

    def test_mc_samples_not_above_prior_rank_is_config_error(self, tmp_path, capsys):
        code, sim = run(tmp_path, "simulate", {"model": {"sigma2": 1.0}, "n": 32}, out="sim")
        assert code == 0
        code, out = run(tmp_path, "estimate", {"series": [str(sim / "series.csv")],
                                               "prior": {"size": 600}, "mc_samples": 500})
        assert code == 2
        assert "got mc_samples 500 for rank 600" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,cfg", [
        ("estimate", {"mc_samples": 10**12}),
        ("compare-interp", {"mc_samples": 10**12}),
        ("spectrum", {"model": {"ar": [0.5], "sigma2": 1.0}, "grid_points": 10**12}),
    ])
    def test_size_too_large_to_allocate_is_numerical_error(self, tmp_path, capsys, command,
                                                           cfg):
        # numpy's MemoryError: one line and exit 3, not a traceback and exit 1
        if command == "estimate":
            code, sim = run(tmp_path, "simulate", {"model": {"sigma2": 1.0}, "n": 32}, out="sim")
            assert code == 0
            cfg = dict(cfg, series=[str(sim / "series.csv")])
            capsys.readouterr()
        code, out = run(tmp_path, command, cfg)
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical error: Unable to allocate") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("cell", [[1, 4], [1], [1, "x"]])
    def test_bad_bench_segment_is_config_error(self, tmp_path, capsys, cell):
        code, out = run(tmp_path, "bench", {"d1_cells": [cell], "d2_cells": [[1, 16]],
                                            "replicates": 2})
        assert code == 2
        assert "segment d1=" in capsys.readouterr().err
        assert not (out / "table.csv").exists()


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        cfg = {"model": {"ar": [0.5], "sigma2": 1.0}, "n": 48, "seed": 9}
        _, out1 = run(tmp_path, "simulate", cfg, out="r1")
        _, out2 = run(tmp_path, "simulate", cfg, out="r2")
        for name in ("series.csv", "series.json", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_loglik_surface_rerun_identical(self, tmp_path):
        cfg = {"n_low": 10, "n_high": 2, "replicates": 2, "omega_true": 0.3,
               "grid_points": 7, "seed": 1}
        _, out1 = run(tmp_path, "loglik-surface", cfg, out="r1")
        _, out2 = run(tmp_path, "loglik-surface", cfg, out="r2")
        assert (out1 / "surface.csv").read_bytes() == (out2 / "surface.csv").read_bytes()
        assert (out1 / "surface.svg").read_bytes() == (out2 / "surface.svg").read_bytes()


class TestConfigTable:
    """Every key a command reads is in its field table; anything else is a
    config error that names the key and writes nothing."""

    @pytest.fixture()
    def belief_path(self, tmp_path):
        path = tmp_path / "belief.json"
        write_json(path, {"mean": [0.2, 0.1, -0.05, 0.0],
                          "variance": np.diag([0.4, 0.2, 0.1, 0.05]).tolist()})
        return path

    @pytest.fixture()
    def series_path(self, tmp_path):
        code, out = run(tmp_path, "simulate", {"model": {"sigma2": 1.0}, "n": 32}, out="sim")
        assert code == 0
        return out / "series.csv"

    def assert_config_error(self, tmp_path, capsys, command, cfg, key, extra=()):
        code, out = run(tmp_path, command, cfg, extra=extra)
        assert code == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    def test_unknown_top_level_key(self, tmp_path, capsys, command):
        self.assert_config_error(tmp_path, capsys, command, {"no_such_key": 1}, "'no_such_key'")

    @pytest.mark.parametrize("cfg", [{"model": {"sigma2": 1.0}, "quad_points": "many"},
                                     {"logspectrum": [0.0], "quad_points": 10}])
    def test_kolmogorov_quad_points_is_unknown_key(self, tmp_path, capsys, cfg):
        # no source the CLI builds is integrated numerically, so the key is not in the table
        self.assert_config_error(tmp_path, capsys, "kolmogorov", cfg, "unknown key 'quad_points'")

    def test_misspelt_key_is_not_ignored(self, tmp_path, capsys):
        self.assert_config_error(tmp_path, capsys, "simulate",
                                 {"model": {"sigma2": 1.0}, "n": 16, "delt": 3}, "'delt'")

    @pytest.mark.parametrize("command", ["estimate", "bench", "compare-interp"])
    def test_unknown_prior_key(self, tmp_path, capsys, series_path, command):
        cfg = {"prior": {"scael": 9}}
        if command == "estimate":
            cfg["series"] = [str(series_path)]
        self.assert_config_error(tmp_path, capsys, command, cfg, "'scael'")

    def test_unknown_model_key(self, tmp_path, capsys):
        # "AR" used to be dropped, so the run simulated white noise
        self.assert_config_error(tmp_path, capsys, "simulate",
                                 {"model": {"sigma2": 1, "AR": [0.9]}, "n": 16}, "'AR'")

    def test_model_and_logspectrum_together(self, tmp_path, capsys):
        self.assert_config_error(tmp_path, capsys, "spectrum",
                                 {"model": {"sigma2": 1.0}, "logspectrum": [0.0]},
                                 "'logspectrum'")

    def test_belief_and_model_together(self, tmp_path, capsys, belief_path):
        self.assert_config_error(tmp_path, capsys, "kolmogorov",
                                 {"belief": str(belief_path), "model": {"sigma2": 1.0}},
                                 "'belief'")

    @pytest.mark.parametrize("command,cfg,key", [
        ("simulate", {"model": {"sigma2": 1.0}, "n": 0}, "'n'"),
        ("simulate", {"model": {"sigma2": 1.0}, "n": 16.5}, "'n'"),
        ("simulate", {"model": {"sigma2": 1.0}, "n": "16"}, "'n'"),
        ("simulate", {"model": {"sigma2": 1.0}, "n": 16, "seed": -1}, "'seed'"),
        ("simulate", {"model": 5, "n": 16}, "'model'"),
        ("spectrum", {"logspectrum": [0.0], "grid_points": 0}, "'grid_points'"),
        ("spectrum", {"logspectrum": [0.0], "delta": 0}, "'delta'"),
        ("spectrum", {"logspectrum": ["a"]}, "'logspectrum'"),
        ("pc-fan", {"belief": 0}, "'belief'"),
        ("kolmogorov", {"belief": 0}, "'belief'"),
        ("kolmogorov", {"logspectrum": []}, "'logspectrum'"),
        ("diff-grid", {"beliefs": ["only-one.json"]}, "'beliefs'"),
        ("loglik-surface", {"n_low": 10, "omega_true": 0.3}, "'n_high'"),
        ("loglik-surface", {"n_low": 10, "n_high": 2, "omega_true": 0.3, "delta_low": 0},
         "'delta_low'"),
        ("estimate", {"series": [{"csv": "a.csv", "sidcar": "a.json"}]}, "'sidcar'"),
        # model values are read like top-level ones, not passed on to fail later
        ("simulate", {"model": {"s": 2.5, "sar": [0.5], "sigma2": 1.0}, "n": 16}, "'s'"),
        ("spectrum", {"model": {"s": 0, "sigma2": 1.0}}, "'s'"),
        ("kolmogorov", {"model": {"s": 2.5, "sigma2": 1.0}}, "'s'"),
        ("simulate", {"model": {"ar": "x", "sigma2": 1.0}, "n": 16}, "'ar'"),
        ("spectrum", {"model": {"ma": [0.5, None], "sigma2": 1.0}}, "'ma'"),
        ("kolmogorov", {"model": {"sigma2": "1"}}, "'sigma2'"),
        ("loglik-surface", {"n_low": 10, "n_high": 2, "omega_true": 0.3, "modulus": 1.5},
         "modulus"),
        # numbers must be finite, in the config and in every file it names
        ("kolmogorov", {"model": {"sigma2": float("inf")}}, "'sigma2'"),
        ("simulate", {"model": {"ar": [float("nan")], "sigma2": 1.0}, "n": 16}, "'ar'"),
        ("spectrum", {"logspectrum": [0.0, float("nan")]}, "'logspectrum'"),
        ("pc-fan", {"belief": "inf_variance.json"}, "'variance'"),
        ("pc-fan", {"belief": "nan_mean.json"}, "'mean'"),
        ("kolmogorov", {"belief": "misspelt.json"}, "'varience'"),
        ("estimate", {"series": [{"csv": "dense.csv", "sidecar": "step_str.json"}]},
         "'base_step'"),
        ("estimate", {"series": [{"csv": "dense.csv", "sidecar": "step_true.json"}]},
         "'base_step'"),
        ("estimate", {"series": [{"csv": "dense.csv", "sidecar": "step_inf.json"}]},
         "'base_step'"),
        # a stride-4 series whose sidecar is not beside it is not read as dense
        ("estimate", {"series": ["stride4.csv"]}, "'index'"),
        ("loglik-surface", {"n_low": 10, "n_high": 2, "omega_true": 0.3, "modulus": 10**400},
         "'modulus'"),
    ])
    def test_bad_field_names_key(self, tmp_path, capsys, monkeypatch, command, cfg, key):
        monkeypatch.chdir(tmp_path)
        variance = np.eye(2).tolist()
        write_json("inf_variance.json", {"mean": [0.0, 0.0],
                                         "variance": [[float("inf"), 0.0], [0.0, 1.0]]})
        write_json("nan_mean.json", {"mean": [float("nan"), 0.0], "variance": variance})
        write_json("misspelt.json", {"mean": [0.0, 0.0], "variance": variance,
                                     "varience": variance})
        write_series("dense.csv", "dense.json", SampledSeries(np.arange(32.0)))
        write_series("stride4.csv", "stride4_sidecar.json", SampledSeries(np.arange(32.0), 4))
        for name, step in (("str", "2"), ("true", True), ("inf", float("inf"))):
            write_json("step_%s.json" % name, {"base_step": step})
        self.assert_config_error(tmp_path, capsys, command, cfg, key)

    def test_diff_grid_beliefs_of_different_sizes(self, tmp_path, capsys):
        # used to fail in difference_grid, exit 3 naming no key
        paths = []
        for size in (3, 2):
            paths.append(str(tmp_path / ("belief%d.json" % size)))
            write_json(paths[-1], {"mean": [0.0] * size, "variance": np.eye(size).tolist()})
        self.assert_config_error(tmp_path, capsys, "diff-grid", {"beliefs": paths},
                                 "'beliefs' must share one basis size, got sizes [3, 2]")

    @pytest.mark.parametrize("grid_points", [0, 1])
    @pytest.mark.parametrize("command", ["pc-fan", "diff-grid", "estimate"])
    def test_grid_points_below_two(self, tmp_path, capsys, belief_path, series_path,
                                   command, grid_points):
        cfg = {"pc-fan": {"belief": str(belief_path), "components": 1},
               "diff-grid": {"beliefs": [str(belief_path)] * 2},
               "estimate": {"series": [str(series_path)], "prior": {"size": 4},
                            "mc_samples": 600}}[command]
        self.assert_config_error(tmp_path, capsys, command, dict(cfg, grid_points=grid_points),
                                 "'grid_points'")

    @pytest.mark.parametrize("components", [5, 9, 0, -1])
    def test_pc_fan_components_outside_belief_size(self, tmp_path, capsys, belief_path,
                                                   components):
        self.assert_config_error(tmp_path, capsys, "pc-fan",
                                 {"belief": str(belief_path), "components": components},
                                 "'components'")

    def test_pc_fan_all_components(self, tmp_path, belief_path):
        code, out = run(tmp_path, "pc-fan", {"belief": str(belief_path), "components": 4,
                                             "grid_points": 8})
        assert code == 0
        header, _ = read_csv(out / "pc_fan.csv")
        assert len(header) == 1 + 4 * 9

    @pytest.mark.parametrize("command", ["spectrum", "pc-fan", "quadrature", "kolmogorov",
                                         "diff-grid"])
    def test_seed_flag_only_on_seeded_commands(self, tmp_path, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--seed", "1", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_manifest_echoes_config_as_given(self, tmp_path):
        cfg = {"model": {"ar": [0.5], "sigma2": 1}, "n": 16, "seed": 2}
        code, out = run(tmp_path, "simulate", cfg, extra=["--seed", "5"])
        assert code == 0
        assert read_json(out / "manifest.json")["config"] == dict(cfg, seed=5)

"""End-to-end tests of the command-line interface (in-process)."""

import json

import numpy as np
import pytest

from mrspec.cli import main
from mrspec.serialize import read_csv, read_json, write_json


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

    def test_seed_flag_overrides_config(self, tmp_path):
        _, out1 = run(tmp_path, "simulate",
                      {"model": {"sigma2": 1.0}, "n": 16, "seed": 1}, out="o1")
        code, out2 = run(tmp_path, "simulate",
                         {"model": {"sigma2": 1.0}, "n": 16, "seed": 2}, out="o2",
                         extra=["--seed", "1"])
        assert code == 0
        assert (out1 / "series.csv").read_bytes() == (out2 / "series.csv").read_bytes()


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

    def test_sweep_writes_one_file_per_setting(self, tmp_path):
        code, out = run(tmp_path, "loglik-surface",
                        {"n_low": 12, "n_high_list": [0, 2], "replicates": 2,
                         "omega_true": 0.3, "grid_points": 9, "seed": 0})
        assert code == 0
        assert (out / "surface_nh000.csv").exists()
        assert (out / "surface_nh002.csv").exists()
        assert (out / "surface.svg").exists()


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


class TestCompareInterp:
    def test_overlay_written(self, tmp_path):
        code, out = run(tmp_path, "compare-interp",
                        {"seed": 0, "n_total": 300, "mc_samples": 600})
        assert code == 0
        header, cols = read_csv(out / "overlay.csv")
        assert header == ["omega", "truth", "blm_raw", "blm_interp",
                          "ar_fit", "smoothed_pgram"]
        assert (out / "overlay.svg").exists()


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

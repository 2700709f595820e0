"""Input guards of the library's constructors and entry points: each bad input
raises its own exception class with its own message."""

import numpy as np
import pytest

from mrspec.aliasing import aliased_partners
from mrspec.beliefs import PeriodogramData
from mrspec.bench import baseline_spectra
from mrspec.likelihood import ExperimentDesign
from mrspec.models import (
    DesignError,
    LogSpectrum,
    SampledSeries,
    SpectralModel,
    autocovariance,
    simpson_grid,
    simulate,
    subsample,
)

GUARDS = {
    "logspectrum_2d": (lambda: LogSpectrum(np.zeros((2, 2))), ValueError,
                       "coefficients must be a nonempty 1-d vector"),
    "logspectrum_nan": (lambda: LogSpectrum([0.1, np.nan]), ValueError,
                        "coefficients must be finite"),
    "series_2d": (lambda: SampledSeries(np.zeros((2, 2))), ValueError,
                  "values must be a 1-d vector"),
    "series_stride_0": (lambda: SampledSeries(np.zeros(4), stride=0), ValueError,
                        "stride must be >= 1"),
    "series_offset": (lambda: SampledSeries(np.zeros(4), stride=2, offset=2), ValueError,
                      "offset must satisfy 0 <= offset < stride"),
    "series_base_step_0": (lambda: SampledSeries(np.zeros(4), base_step=0.0), ValueError,
                           "base_step must be positive"),
    "subsample_strided": (lambda: subsample(SampledSeries(np.zeros(4), stride=2), 2), ValueError,
                          "subsample expects a dense (stride 1) input series"),
    "subsample_delta_0": (lambda: subsample(SampledSeries(np.zeros(4)), 0), ValueError,
                          "delta must be >= 1"),
    "simulate_n_0": (lambda: simulate(SpectralModel(ar=(0.5,)), 0, 0), ValueError,
                     "n must be >= 1"),
    "autocovariance_negative_lag": (lambda: autocovariance(LogSpectrum([0.1, 0.2]), -1),
                                    ValueError, "max_lag must be >= 0"),
    "simpson_one_panel": (lambda: simpson_grid(1), ValueError,
                          "need at least 2 quadrature panels"),
    "periodogram_shapes": (lambda: PeriodogramData("a", 1, [0.1, 0.2], [0.0]), ValueError,
                           "frequencies and log_periodogram must match in shape"),
    "periodogram_nyquist": (lambda: PeriodogramData("a", 1, [0.5], [0.0]), ValueError,
                            "frequencies must lie strictly inside (0, 1/2)"),
    "partners_outside": (lambda: aliased_partners(0.6, 2), ValueError,
                         "omega must lie in [0, 1/2]"),
    "baseline_short": (lambda: baseline_spectra(SampledSeries(np.arange(31.0))), ValueError,
                       "series too short (need N >= 32)"),
    "design_no_replicates": (lambda: ExperimentDesign(n_low=8, n_high=8, replicates=0,
                                                      omega_true=0.1),
                             DesignError, "replicates must be >= 1"),
}


@pytest.mark.parametrize("call, error, message", GUARDS.values(), ids=GUARDS.keys())
def test_guard_raises_its_error(call, error, message):
    with pytest.raises(Exception) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message

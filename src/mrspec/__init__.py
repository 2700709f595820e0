"""Spectral inference for stationary time series observed at mixed sampling
rates: process simulation, aliasing-folded spectra, exact subsampled-data
likelihoods, Bayes linear log-spectrum adjustment, estimator benchmarking
and spectral uncertainty propagation."""

__version__ = "0.1.0"

from .aliasing import aliased_partners, fold
from .beliefs import (
    BeliefState,
    PeriodogramData,
    PriorSpec,
    adjust,
    difference_grid,
    forecast_moments,
    log_periodogram,
    sequential_adjust,
    spectrum_summary,
)
from .bench import (
    BenchDesign,
    baseline_spectra,
    discrepancy,
    interp_comparison,
    random_process,
    run_bench,
    spline_interpolate,
    standard_grid,
    table_sweep,
)
from .likelihood import (
    ExperimentDesign,
    LikelihoodSurface,
    exact_loglik,
    mc_average_surface,
)
from .models import (
    LogSpectrum,
    SampledSeries,
    SpectralModel,
    ar2_from_omega,
    autocovariance,
    simulate,
    spectral_density,
    subsample,
)
from .uncertainty import kolmogorov_variance, pc_fan, propagate, sparse_grid

"""LMS-family adaptive filters and a seeded Monte-Carlo estimation benchmark.

The package provides:

* :mod:`lmslab.filters` -- the update rules of LMS, momentum LMS,
  fractional LMS and three momentum-fractional variants, applied by one
  step function, with the Gamma function they need and the table of
  every parameter's range;
* :mod:`lmslab.signal_model` -- the four-harmonic benchmark signal as
  constants, its regressor and its parameter transforms;
* :mod:`lmslab.metrics` -- normalized weight difference and MSE;
* :mod:`lmslab.experiment` -- the deterministic Monte-Carlo engine,
  step-size calibration and the full scenario grid;
* :mod:`lmslab.reporting` -- the grid's tables, learning-curve files and
  aggregates dump;
* :mod:`lmslab.cli` -- the ``lmslab`` command.

The names imported below are the package's public surface.
"""

from .filters import (
    DivergenceError,
    FilterParams,
    FilterState,
    Variant,
    WEIGHT_LIMIT,
    default_muf,
    gamma,
    step,
)
from .metrics import MetricSpace, mse, nwd
from .experiment import (
    AggregateResult,
    AllRunsDivergedError,
    CalibrationError,
    GridConfig,
    GridEntry,
    ScenarioConfig,
    calibrate_mu1,
    full_grid,
    lms_params,
    mflms_params,
    run_monte_carlo,
)
from .signal_model import aphi_from_bc, bc_from_aphi, regressor

__version__ = "0.1.0"

"""kolkit: numerical verification toolkit for a kinetic diffusion equation.

The model is a density f(t, x, v) transported by velocity and diffused in
velocity only, with a merely measurable, uniformly elliptic diffusion
coefficient.  The package measures, on grid runs, the structural facts that
hold at that roughness: invariance under the kinetic group and scaling,
two-sided kernel envelopes, a weighted-log positivity functional, level-set
decay of supersolutions, discrete near-diagonal chains with perturbation
stability, and endpoint-pinned trajectory families with critical endpoint
sensitivity.
"""

from .phase_geometry import *
from .profiles import *
from .coefficients import *
from .solver import *
from .nash_g import *
from .chains import *
from .trajectories import *
from . import chains, coefficients, nash_g, phase_geometry, profiles, solver, trajectories

__version__ = "0.1.0"

# every module's public names, so the package list cannot drift from theirs
__all__ = [
    *phase_geometry.__all__,
    *profiles.__all__,
    *coefficients.__all__,
    *solver.__all__,
    *nash_g.__all__,
    *chains.__all__,
    *trajectories.__all__,
    "__version__",
]

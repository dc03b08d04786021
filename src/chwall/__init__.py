"""chwall: Cahn-Hilliard dynamics in a box with permeable walls.

A structure-preserving finite-difference toolkit for the coupled
bulk/surface phase-separation flow: energy-stable time stepping with an
exact discrete energy law, stationary solves, spectral classification,
and exponent/rate probes for the approach to equilibrium.
"""

__version__ = "0.1.0"

from .grid import (
    GridMode,
    StripGrid,
    build_grid,
    h_inner,
    h_norm,
    load_field,
    save_field,
)
from .kernels import laplace_beltrami, laplacian, normal_derivative
from .operators import (
    WentzellOperator,
    apply_A,
    solve_Ainv,
    v_norm,
    x_norm,
    x_norm_via_form,
)
from .energy import (
    EnergyReport,
    Potential,
    PotentialKind,
    chemical_potential,
    double_well,
    make_potential,
    polynomial_potential,
)
from .evolution import (
    EvolutionAbort,
    GuardAbort,
    TrajectoryRecord,
    evolve,
)
from .stationary import (
    EquilibriumSolution,
    SolveMethod,
    find_equilibrium,
    minimize_energy,
    newton_refine,
)
from .analysis import (
    LSProbeReport,
    RateReport,
    SpectralReport,
    fit_gap_exponent,
    ls_probe,
    rate_fit,
    spectrum,
)

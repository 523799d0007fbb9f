"""tomolab: a numerical laboratory for symplectic tomograms.

Classical and quantum states share the tomographic representation
W(X, mu, nu), the probability density of X = mu*q + nu*p.  This package
computes those tomograms (Radon transforms of phase-space densities,
amplitude closed forms and oscillatory quadrature for wave functions),
inverts them back to densities, Wigner functions and density matrices,
and runs quantitative Planck-limit and Ehrenfest-limit studies against
closed-form classical tomograms.
"""

from .kernel import (
    DeltaAtom,
    GridFunction2D,
    MassDeficitError,
    TomographyFrame,
    Tomogram,
    TomogramError,
    frame_from_scaling,
    normalization_residual,
    read_tomogram,
    spread_atoms,
    tomogram_distance_l1,
    write_tomogram,
)
from .specfun import airy_ai, hermite_phi, log_gamma, parabolic_u_asymptotic
from .states import (
    BoxEigen,
    CatEven,
    CatOdd,
    Coherent,
    CustomGrid,
    HOEigen,
    Superposition,
    parse_state,
)
from .classical import (
    BoxTrajectory,
    DensityGrid,
    OscillatorTrajectory,
    PointTrajectory,
    classical_box_tomogram,
    classical_oscillator_tomogram,
    radon_density,
    time_averaged_tomogram,
    trajectory_tomogram,
)
from .quantum import (
    box_tomogram,
    box_tomogram_stationary_phase,
    cat_tomogram,
    coherent_tomogram,
    hermite_tomogram,
    state_tomogram,
    superposition_tomogram,
    tomogram_from_wavefunction,
    tomogram_from_wigner,
)
from .limits import (
    LimitReport,
    cat_interference_planck,
    ehrenfest_box,
    ehrenfest_cat,
    ehrenfest_coherent,
    ehrenfest_oscillator,
    interference_decay,
    weak_delta_convergence,
)

__version__ = "0.1.0"

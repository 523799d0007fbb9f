"""tomolab: a numerical laboratory for symplectic tomograms.

Classical and quantum states share the tomographic representation
W(X, mu, nu), the probability density of X = mu*q + nu*p.  This package
computes those tomograms (Radon transforms of phase-space densities,
amplitude closed forms and oscillatory quadrature for wave functions),
inverts them back to densities, Wigner functions and density matrices,
and runs quantitative Planck-limit and Ehrenfest-limit studies against
closed-form classical tomograms.
"""

__version__ = "0.1.0"

"""Spectral Galerkin solver and analysis tools for Blackstock-Crighton models.

The package simulates the Blackstock-Crighton-Kuznetsov equation (and its
Westervelt-type variant) on a box with double Dirichlet boundary conditions,
using the Dirichlet sine eigenbasis.  Alongside time integration it provides
the analysis apparatus the model is usually studied with: per-mode semigroup
propagators, heat-factorization energies, a priori estimate audits, Picard
iteration of the solution map, and decay-rate fits.
"""

from .errors import (
    BlowUpError,
    ConfigError,
    DegeneracyError,
    DivisionGuardError,
    FitError,
    NonConvergenceError,
)
from .spectral import (
    DomainSpec,
    SpectralField,
    gradient_dot,
    l2_norm,
    product_dealiased,
    sobolev_norm,
    to_grid,
)

__all__ = [
    "BlowUpError",
    "ConfigError",
    "DegeneracyError",
    "DivisionGuardError",
    "FitError",
    "NonConvergenceError",
    "DomainSpec",
    "SpectralField",
    "gradient_dot",
    "l2_norm",
    "product_dealiased",
    "sobolev_norm",
    "to_grid",
]

__version__ = "0.1.0"

"""Numerical laboratory for the Keller-Segel system on conformally flat planes."""

from .domain import AnnulusSpec, CartesianGrid, SphereGrid
from .geometry import ConformalFactor
from .potential import green_kernel, newtonian_potential, self_cell_weight
from .profiles import (ScaledCauchyProfile, mu_coulomb_identity, mu_entropy_identity,
                       mu_potential_identity)
from .stationary import DensityField, density_from_profile

__version__ = "0.1.0"

__all__ = [
    "AnnulusSpec",
    "CartesianGrid",
    "ConformalFactor",
    "DensityField",
    "ScaledCauchyProfile",
    "SphereGrid",
    "density_from_profile",
    "green_kernel",
    "mu_coulomb_identity",
    "mu_entropy_identity",
    "mu_potential_identity",
    "newtonian_potential",
    "self_cell_weight",
    "__version__",
]

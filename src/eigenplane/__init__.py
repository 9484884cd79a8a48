"""Eigenvalue sums of plane domains: exact spectra, FEM/FD solvers, bound checks."""

from .geometry import (
    DomainSpec,
    Ellipse,
    GeometricMoments,
    LinearMap2,
    PiecewiseLinearMap,
    Polygon,
    moments,
)
from .exact import (
    DIRICHLET,
    NEUMANN,
    BesselZeroRequest,
    BoundarySpec,
    Spectrum,
    bessel_zero,
    disk_spectrum,
    equilateral_spectrum,
    rectangle_spectrum,
    robin,
    robin_interval_eigs,
)

__all__ = [
    "DomainSpec",
    "Ellipse",
    "GeometricMoments",
    "LinearMap2",
    "PiecewiseLinearMap",
    "Polygon",
    "moments",
    "DIRICHLET",
    "NEUMANN",
    "BesselZeroRequest",
    "BoundarySpec",
    "Spectrum",
    "bessel_zero",
    "disk_spectrum",
    "equilateral_spectrum",
    "rectangle_spectrum",
    "robin",
    "robin_interval_eigs",
]

__version__ = "0.1.0"

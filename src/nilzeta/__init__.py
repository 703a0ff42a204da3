"""nilzeta: exact operator calculus and spectral-zeta pole analysis.

The package computes, for a two-parameter family of nilpotent Lie algebras:

* exact structure constants, nilpotency data, and the isotropic radical;
* ordered-monomial (PBW-style) arithmetic in the enveloping algebra with an
  exact representation onto polynomial differential operators;
* the kernel ideal of that representation: generators, degree slices,
  canonical forms, and filtration orders, all in exact Gaussian-rational
  arithmetic;
* reduction operators with exact rational eigen-relations, degreewise
  annihilation/descent products, Taylor-style commutation coefficients, the
  continuation-driving rational polynomial, and the resulting candidate pole
  lattice of the spectral zeta function;
* numeric verification: Hermite-basis Galerkin spectra with
  doubling-certified convergence, growth-law fits of the convergence
  abscissa, the closed-form residue of an arithmetic spectrum's leading
  pole, and truncated zeta values with tail estimates.
"""

from .core import (
    AlgebraSpec,
    JacobiError,
    SpecError,
    algebra_spec,
    basis,
    bracket,
    index_set,
    isotropic_subalgebra,
    jacobi_check,
    load_spec,
    nilpotency_class,
    structure_constants,
    validate_spec,
)
from .expr import ExpressionError, format_element, parse_expression
from .ideal import (
    DegreeSlice,
    build_slice,
    canonical_form,
    filtration_min_degree,
    gamma_generators,
    is_member,
    star_generators,
)
from .linalg import commutator
from .reduction import (
    PoleEntry,
    PoleLattice,
    RationalPolynomial,
    ReductionChoice,
    b_polynomial,
    g_ab,
    g_s,
    h_ab,
    h_s,
    lagrange_identity_check,
    physical_abscissa,
    pole_lattice,
    reduction_data,
    t_s,
    taylor_coeffs,
    taylor_residual,
)
from .scalars import RATIONAL_BACKEND, GaussianRational
from .uea import (
    Monomial,
    UEAElement,
    gamma_apply,
    normal_product,
    y_star,
)
from .weyl import (
    WeylOperator,
    ad_power,
    commutator_power_check,
    delta1,
    rho,
    weyl_product,
)

__version__ = "0.1.0"

# The numeric layer needs numpy, which the exact layer never uses; its names
# resolve on first use so that importing the package stays light.
_SPECTRAL_NAMES = (
    "GrowthFit", "SpectralEstimate", "eigenvalues", "fit_growth",
    "hermite_matrix", "leading_residue", "zeta_value",
)


def __getattr__(name: str):
    if name in _SPECTRAL_NAMES:
        from . import spectral

        return getattr(spectral, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AlgebraSpec",
    "DegreeSlice",
    "ExpressionError",
    "GaussianRational",
    "JacobiError",
    "Monomial",
    "PoleEntry",
    "PoleLattice",
    "RATIONAL_BACKEND",
    "RationalPolynomial",
    "ReductionChoice",
    "SpecError",
    "UEAElement",
    "WeylOperator",
    "ad_power",
    "algebra_spec",
    "b_polynomial",
    "basis",
    "bracket",
    "build_slice",
    "canonical_form",
    "commutator",
    "commutator_power_check",
    "delta1",
    "filtration_min_degree",
    "format_element",
    "g_ab",
    "g_s",
    "gamma_apply",
    "gamma_generators",
    "h_ab",
    "h_s",
    "index_set",
    "is_member",
    "isotropic_subalgebra",
    "jacobi_check",
    "lagrange_identity_check",
    "load_spec",
    "nilpotency_class",
    "normal_product",
    "parse_expression",
    "physical_abscissa",
    "pole_lattice",
    "reduction_data",
    "rho",
    "star_generators",
    "structure_constants",
    "t_s",
    "taylor_coeffs",
    "taylor_residual",
    "validate_spec",
    "weyl_product",
    "y_star",
    *_SPECTRAL_NAMES,
]

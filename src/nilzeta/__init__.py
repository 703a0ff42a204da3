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

import importlib

__version__ = "0.1.0"

# Every submodule, with the public names the package exports from it; this
# table drives ``__all__``, ``__dir__`` and ``__getattr__``.  Nothing is
# imported until a name is first used, so ``import nilzeta`` loads no
# submodule and the exact layer never pulls in numpy, which only ``spectral``
# needs.
_EXPORTS = {
    "core": (
        "AlgebraSpec", "JacobiError", "SpecError", "algebra_spec", "basis", "bracket",
        "index_set", "isotropic_subalgebra", "jacobi_check", "load_spec",
        "nilpotency_class", "structure_constants", "validate_spec",
    ),
    "expr": ("ExpressionError", "format_element", "parse_expression"),
    "ideal": (
        "DegreeSlice", "build_slice", "canonical_form", "filtration_min_degree",
        "gamma_generators", "is_member", "star_generators",
    ),
    "indices": (),
    "linalg": ("commutator",),
    "reduction": (
        "PoleEntry", "PoleLattice", "RationalPolynomial", "ReductionChoice",
        "b_polynomial", "g_ab", "g_s", "h_ab", "h_s", "lagrange_identity_check",
        "physical_abscissa", "pole_lattice", "reduction_data", "t_s", "taylor_coeffs",
        "taylor_residual",
    ),
    "scalars": ("RATIONAL_BACKEND", "GaussianRational"),
    "spectral": (
        "GrowthFit", "SpectralEstimate", "eigenvalues", "fit_growth", "hermite_matrix",
        "leading_residue", "zeta_value",
    ),
    "uea": ("Monomial", "UEAElement", "gamma_apply", "normal_product", "y_star"),
    "weyl": ("WeylOperator", "ad_power", "commutator_power_check", "delta1", "rho", "weyl_product"),
    "cli": (),
    "verify": (),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Import a public name's module (or a submodule) on first use and keep the name."""
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *_EXPORTS, *__all__})

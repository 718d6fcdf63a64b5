"""Exact fusion calculator for singlet vertex algebra module categories.

The package computes fusion products of the atypical simple modules and
their projective covers in closed form, re-derives every product through an
independent generator-rule recursion, checks the triplet-algebra side under
induction, and numerically reproduces the hypergeometric connection
coefficients behind the rigidity of the degenerate generator.

Layers (one module each):

* :mod:`~singlet_fusion.labels` -- exact Kac-label and weight arithmetic;
* :mod:`~singlet_fusion.catalog` -- indecomposables, composition series,
  Loewy diagrams, duals, Jordan Fock matrices;
* :mod:`~singlet_fusion.fusion_closed` -- closed-form fusion products,
  all through :func:`~singlet_fusion.fusion_closed.fuse`;
* :mod:`~singlet_fusion.fusion_oracle` -- the generator rules and the
  independent recursion oracle built on them alone, all through
  :func:`~singlet_fusion.fusion_oracle.oracle_fuse`;
* :mod:`~singlet_fusion.triplet` -- induction and triplet fusion;
* :mod:`~singlet_fusion.bpz` -- Frobenius bases and connection matrices;
* :mod:`~singlet_fusion.verify` / :mod:`~singlet_fusion.cli` -- invariant
  suites and the command-line front end.
"""

from .catalog import (
    FormalSum,
    Indecomposable,
    NotNormalForm,
    UnsupportedFusion,
    UnsupportedOperation,
    composition_factors,
    dual,
    fock,
    grothendieck_class,
    jordan_fock,
    jordan_fock_matrices,
    loewy,
    normalize,
    projective,
    simple,
)
from .fusion_closed import fuse
from .fusion_oracle import (
    NegativeMultiplicityError,
    oracle_fuse,
)
from .labels import (
    Params,
    alpha_coordinate,
    fock_weight,
    lowest_weight_of_simple,
    rbar,
    weight,
    weight_coset_diff,
)
from .triplet import TripletIndec, derived_triplet_fuse, induce, induce_sum

__version__ = "0.1.0"

__all__ = [
    "Params",
    "Indecomposable",
    "FormalSum",
    "TripletIndec",
    "UnsupportedFusion",
    "UnsupportedOperation",
    "NotNormalForm",
    "NegativeMultiplicityError",
    "simple",
    "projective",
    "fock",
    "jordan_fock",
    "normalize",
    "composition_factors",
    "grothendieck_class",
    "loewy",
    "dual",
    "jordan_fock_matrices",
    "weight",
    "lowest_weight_of_simple",
    "alpha_coordinate",
    "fock_weight",
    "rbar",
    "weight_coset_diff",
    "fuse",
    "oracle_fuse",
    "induce",
    "induce_sum",
    "derived_triplet_fuse",
    "__version__",
]

"""Brascamp-Lieb constants on elementary locally compact abelian groups.

The library decides finiteness of, and computes, Brascamp-Lieb constants for
data living on groups of the form R^a x T^b x Z^c x F with F finite abelian.
Everything user-facing is re-exported here; the modules group the work by the
kind of group sector they handle:

    intmat     exact integer/rational matrix algebra (Smith/Hermite forms)
    exact      positive reals as products of rational powers of primes
    groups     elementary groups, Haar records, lattice subgroups
    homs       block homomorphisms, data, kernels, properness
    subquot    subgroup/quotient surgery used by the reductions
    rank       rank conditions deciding finiteness on discrete/torus parts
    gaussian   fixed-point computation of the gaussian constant (vector part)
    finite     exact subgroup supremum on finite groups
    oracle     independent numerical estimators (maximizers, probes)
    structure  the factorization pipeline, duality, reductions
    cli        file format and command line entry points
"""

from .errors import (
    BlcaError,
    ShapeMismatch,
    IrrationalEntry,
    NotWellDefined,
    NotProper,
    Degenerate,
    EmptyDatum,
    TooLarge,
    BadExponent,
    NotUnitExponent,
    BadSubgroup,
)
from .exact import ExactValue
from .groups import ElementaryGroup, HaarRecord, LatticeSubgroup, dual_group
from .homs import (
    BlockHom,
    ClosedSubgroup,
    Datum,
    GroupElement,
    adjoint_hom,
    is_proper,
    is_surjective,
    joint_kernel,
    kernel_info,
)
from .subquot import (
    NondegenerateResult,
    corestrict_open,
    kernel_embedding,
    make_nondegenerate,
)
from .rank import (
    RankVerdict,
    rank_condition,
)
from .gaussian import (
    GaussianResult,
    gaussian_bl_constant,
    bcct_finiteness,
)
from .finite import (
    enumerate_subgroups,
    subgroup_bl_constant,
    tower_limit,
)
from .oracle import (
    bl_form,
    alternating_maximization,
    scalar_gaussian_probe,
    discretized_compact_check,
)
from .structure import (
    ConstantReport,
    DualityReport,
    ExponentReduction,
    FactorReport,
    analyze,
    bl_constant,
    dual_datum,
    duality_check,
    reduce_exponents,
    reduce_p_infinity,
    reduce_p_one,
    reduce_transversal,
    verify,
)

__all__ = [
    "BlcaError", "ShapeMismatch", "IrrationalEntry", "NotWellDefined", "NotProper",
    "Degenerate", "EmptyDatum", "TooLarge", "BadExponent", "NotUnitExponent",
    "BadSubgroup",
    "ExactValue",
    "ElementaryGroup", "HaarRecord", "LatticeSubgroup", "dual_group",
    "BlockHom", "ClosedSubgroup", "Datum", "GroupElement", "adjoint_hom",
    "is_proper", "is_surjective", "joint_kernel", "kernel_info",
    "NondegenerateResult", "corestrict_open", "kernel_embedding",
    "make_nondegenerate",
    "RankVerdict", "rank_condition",
    "GaussianResult", "gaussian_bl_constant", "bcct_finiteness",
    "enumerate_subgroups", "subgroup_bl_constant", "tower_limit",
    "bl_form", "alternating_maximization", "scalar_gaussian_probe",
    "discretized_compact_check",
    "ConstantReport", "DualityReport", "ExponentReduction", "FactorReport",
    "analyze", "bl_constant", "dual_datum", "duality_check", "reduce_exponents",
    "reduce_p_infinity", "reduce_p_one", "reduce_transversal", "verify",
]

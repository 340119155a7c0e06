"""End-to-end computation of the inequality constant, and its dual form.

The pipeline normalizes a datum until the four diagonal sectors can be read
off and priced separately: infinite exponents are dropped, improper data are
declared infinite, the compact joint kernel is quotiented away, open images
are corestricted, and the datum splits into torus, vector, finite and free
parts.  Each part has its own decision procedure (the rank condition in
Q^b against the whole space's deficit, gaussian ascent, exact subgroup
maximum, the rank condition in Q^c) and the total is the product of the
parts.

The reduction operators are public because they are useful on their own:
reduce_p_infinity and reduce_p_one remove indices whose exponent is infinite
or one, reduce_exponents runs the two until no unit exponent is left (the
routine behind `blca reduce`), and reduce_transversal quotients the domain by
a subgroup that all but one map annihilates.  In the pipeline the vector
factor runs reduce_exponents, where kernels stay within one sector; there the
gaussian supremum at exponent one is typically approached only along a
degenerate limit, which the reduction removes.

Every numeric claim in a report carries a certification level:

    exact      value produced by rational arithmetic and a certified search
    certified  an INFINITE verdict backed by an explicit witness
    numerical  floating-point optimization under a certified finiteness test
    heuristic  a search that found no violation but could not certify

A report is UNKNOWN when some part depends on an uncertified search and no
part is outright infinite.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import List, Optional, Sequence, Tuple

from .errors import (BadSubgroup, Degenerate, EmptyDatum, NotProper,
                     NotUnitExponent, ShapeMismatch, TooLarge)
from .exact import ExactValue
from .finite import subgroup_bl_constant
from .gaussian import bcct_finiteness, gaussian_bl_constant
from .groups import ElementaryGroup, HaarRecord, dual_group
from .homs import (MIXING_BLOCKS, BlockHom, ClosedSubgroup, Datum, adjoint_hom,
                   discrete_image_lattice, image_is_open, is_surjective,
                   kernel_info)
from .intmat import det_rational, hstack
from .oracle import (alternating_maximization, discretized_compact_check,
                     scalar_gaussian_probe)
from .rank import FAILS, HOLDS_CERTIFIED, LIKELY_HOLDS, rank_condition
from .subquot import (NondegenerateResult, _annihilator_of_compact_kernel,
                      _sector_parts, corestrict_open, kernel_embedding,
                      lattice_inclusion_hom, make_nondegenerate,
                      merge_finite_coordinates)

FINITE = "FINITE"
INFINITE = "INFINITE"
UNKNOWN = "UNKNOWN"

EXACT = "exact"
CERTIFIED = "certified"
NUMERICAL = "numerical"
HEURISTIC = "heuristic"
_LEVEL_ORDER = (EXACT, CERTIFIED, NUMERICAL, HEURISTIC)


def _weakest(levels: Sequence[str]) -> str:
    return max(levels, key=_LEVEL_ORDER.index) if levels else EXACT


# -- reports ----------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class FactorReport:
    """Outcome for one diagonal part of the decomposition.  critical is the
    critical subspace of the rank verdict behind a priced vector part, which
    verify reads; to_dict leaves it out."""

    name: str
    kind: str
    value: Optional[float]
    exact: Optional[ExactValue]
    certification: str
    witness: Optional[object] = None
    notes: Tuple[str, ...] = ()
    critical: Optional[Tuple[Tuple[int, ...], ...]] = None

    def to_dict(self):
        return {
            "name": self.name,
            "kind": self.kind,
            "value": self.value,
            "exact": str(self.exact) if self.exact is not None else None,
            "certification": self.certification,
            "witness": repr(self.witness) if self.witness is not None else None,
            "notes": list(self.notes),
        }


@dataclass(frozen=True, slots=True)
class ConstantReport:
    """Total constant with its provenance.

    kind is FINITE, INFINITE or UNKNOWN; value is the numeric total (inf when
    INFINITE, possibly None when UNKNOWN); exact is present when every part
    was decided by rational arithmetic.  certification is the weakest level
    among the parts that produced the verdict.
    """

    kind: str
    value: Optional[float]
    exact: Optional[ExactValue]
    certification: str
    factors: Tuple[FactorReport, ...]
    ledger: Tuple[str, ...]
    witnesses: Tuple[object, ...]

    @property
    def total(self) -> Optional[float]:
        if self.kind == INFINITE:
            return math.inf
        return self.value

    def to_dict(self):
        return {
            "kind": self.kind,
            "value": None if self.value is None else (
                "inf" if math.isinf(self.value) else self.value),
            "exact": str(self.exact) if self.exact is not None else None,
            "certification": self.certification,
            "factors": [f.to_dict() for f in self.factors],
            "ledger": list(self.ledger),
            "witnesses": [repr(w) for w in self.witnesses],
        }

    def __repr__(self):
        if self.kind == FINITE:
            return f"ConstantReport(FINITE, value={self.value:.12g}, {self.certification})"
        return f"ConstantReport({self.kind}, {self.certification})"


# -- exponent reductions ----------------------------------------------------

def reduce_p_infinity(d: Datum) -> Datum:
    """Drop every index whose exponent is infinite; the constant is unchanged.

    A function bounded in the sup norm contributes at most its bound as a
    multiplicative factor, and the extremal choice is the constant 1, so such
    indices never constrain the supremum.

    Raises EmptyDatum when no index survives; the constant is then the total
    mass of the domain (infinite when the domain is noncompact), carried in
    the exception's resolution field.
    """
    keep = [j for j, p in enumerate(d.exponents) if p is not None]
    if len(keep) == d.J:
        return d
    if not keep:
        mass = d.domain.total_mass()
        raise EmptyDatum(
            "every exponent is infinite; the inequality compares the domain "
            "mass against the constant",
            resolution=mass if mass is not None else math.inf)
    return Datum(d.domain, [d.homs[j] for j in keep],
                 [d.exponents[j] for j in keep])


def _point_kernel_inclusion(h: BlockHom) -> BlockHom:
    """Inclusion of the trivial group as the kernel of an isomorphism.

    The single point carries the ratio of the two measures; for triangular
    block structure the jacobian is the product of the diagonal jacobians,
    of which only the vector one can differ from 1.
    """
    g, cod = h.domain, h.codomain
    det = abs(det_rational(h.RR)) if g.a else Fraction(1)
    gh, ch = g.haar, cod.haar
    mass = (gh.vector_scale / (ch.vector_scale * det)
            * gh.torus_total / ch.torus_total
            * gh.z_point / ch.z_point
            * gh.f_point / ch.f_point)
    model = ElementaryGroup(haar=HaarRecord(f_point=mass))
    return BlockHom.zero(model, g)


def _kernel_inclusion(h: BlockHom) -> BlockHom:
    """Kernel of h as an embedded elementary group with the fiber measure.

    Non-surjective maps with open image are corestricted first; a trivial
    kernel is handled for arbitrary block structure, a nontrivial one needs
    a sector-diagonal map.
    """
    if not is_surjective(h):
        if not image_is_open(h):
            raise Degenerate(
                "kernel reduction needs an open image; a non-open image "
                "already forces an infinite constant at any finite exponent")
        h = corestrict_open(h, discrete_image_lattice(h))
    if kernel_info(h).is_trivial():
        return _point_kernel_inclusion(h)
    return kernel_embedding(h)


def reduce_p_one(d: Datum, k: int) -> Datum:
    """Restrict the datum to the kernel of the k-th map when p_k = 1.

    The surviving maps are composed with the kernel inclusion and index k
    disappears; the kernel carries the fiber measure, which is what makes
    the constant come out unchanged.  k is 0-based.

    Raises NotUnitExponent unless p_k = 1, and EmptyDatum when k was the
    only index (resolution then holds the kernel's total mass, or infinity).
    """
    if not 0 <= k < d.J:
        raise ShapeMismatch(f"index {k} out of range for {d.J} maps")
    if d.exponents[k] != 1:
        raise NotUnitExponent(
            f"index {k} has exponent {d.exponents[k]}, not 1")
    iota = _kernel_inclusion(d.homs[k])
    rest = [(d.homs[j].compose(iota), d.exponents[j])
            for j in range(d.J) if j != k]
    if not rest:
        n = iota.domain
        mass = n.total_mass()
        raise EmptyDatum(
            "the unit-exponent index was the only one; the constant is the "
            "mass of its kernel",
            resolution=mass if mass is not None else math.inf)
    return Datum(iota.domain, [h for h, _ in rest], [p for _, p in rest])


@dataclass(frozen=True, slots=True)
class ExponentReduction:
    """What reduce_exponents leaves: the reduced datum, or None when no
    index is left and resolution holds the constant (a mass, or math.inf).
    blocked says why a unit-exponent index stayed in place, else None."""

    datum: Optional[Datum]
    resolution: object
    ledger: Tuple[str, ...]
    blocked: Optional[str] = None


def _dropped_note(count: int) -> str:
    return f"dropped {count} index(es) with infinite exponent"


def reduce_exponents(d: Datum) -> ExponentReduction:
    """Drop the infinite exponents, then fold the first unit-exponent index
    into the kernel of its map (reduce_p_one) until none is left.

    The constant is unchanged at every step.  The folding stops, leaving a
    unit index in place, at the first map whose image is not open (that
    already forces an infinite constant at finite exponents) and at a kernel
    reduce_p_one cannot model (Degenerate).  An empty datum resolves to the
    constant carried by EmptyDatum.
    """
    try:
        cur = reduce_p_infinity(d)
    except EmptyDatum as exc:
        return ExponentReduction(None, exc.resolution, (str(exc),))
    ledger = [_dropped_note(d.J - cur.J)] if cur.J != d.J else []
    blocked = None
    while 1 in cur.exponents:
        k = cur.exponents.index(1)
        closed = next((j for j, h in enumerate(cur.homs)
                       if not image_is_open(h)), None)
        if closed is not None:
            blocked = (f"left index {k} in place: map {closed} has an image "
                       f"that is not open, which forces an infinite constant "
                       f"at any finite exponent")
            break
        try:
            cur = reduce_p_one(cur, k)
        except Degenerate as exc:
            blocked = f"left index {k} in place: {exc}"
            break
        except EmptyDatum as exc:
            ledger.append("removed the last unit-exponent index; the value "
                          "is the mass of its kernel")
            return ExponentReduction(None, exc.resolution, tuple(ledger))
        ledger.append(f"removed unit-exponent index {k} by restricting to "
                      f"its kernel")
    return ExponentReduction(cur, None, tuple(ledger), blocked)


# -- transversal quotient ---------------------------------------------------

def _compact_image_subgroup(h: BlockHom, n: ClosedSubgroup) -> ClosedSubgroup:
    g, cod = h.domain, h.codomain
    lie = []
    for v in n.lie:
        vt = v[g.a:]
        lie.append([Fraction(0)] * cod.a
                   + [sum(Fraction(h.TT[r][i]) * vt[i] for i in range(g.b))
                      for r in range(cod.b)])
    gens = [h.apply(el) for el in n.gens]
    return ClosedSubgroup(cod, lie, gens)


def reduce_transversal(d: Datum, k: int, n: ClosedSubgroup):
    """Quotient by a closed subgroup every map but the k-th annihilates.

    Returns math.inf when the subgroup is noncompact and p_k > 1: functions
    can then ride along the subgroup for free on the left while only the
    k-th norm notices, and it does not notice enough.  For compact n the
    result is the quotient datum: the domain becomes G/n, the k-th target
    becomes its quotient by the image of n, and both carry pushforward
    measures, so the constant is preserved.
    """
    if not 0 <= k < d.J:
        raise ShapeMismatch(f"index {k} out of range for {d.J} maps")
    if n.group != d.domain:
        raise ShapeMismatch("the subgroup must live in the datum's domain")
    for j, h in enumerate(d.homs):
        if j != k and not kernel_info(h).contains(n):
            raise BadSubgroup(
                f"map {j} does not annihilate the subgroup, so the quotient "
                f"datum is not defined")
    if n.is_trivial():
        return d
    if not n.is_compact():
        p = d.exponents[k]
        if p is None or p > 1:
            return math.inf
        raise Degenerate(
            "a noncompact transversal subgroup with exponent 1 at the "
            "surviving index is outside this reduction; use reduce_p_one")
    ann = _annihilator_of_compact_kernel(n, d.domain)
    new_homs: List[BlockHom] = []
    for j, h in enumerate(d.homs):
        if j == k:
            image = _compact_image_subgroup(h, n)
            ann_k = _annihilator_of_compact_kernel(image, h.codomain)
            incl_k = lattice_inclusion_hom(ann_k, dual_group(h.codomain))
            tau = adjoint_hom(h).compose(incl_k)
            new_homs.append(adjoint_hom(corestrict_open(tau, ann)))
        else:
            new_homs.append(adjoint_hom(corestrict_open(adjoint_hom(h), ann)))
    return Datum(new_homs[0].domain, new_homs, d.exponents)


# -- factor evaluation ------------------------------------------------------

# The report of a part with trivial domain and targets at unit scale, one
# shared object per sector: most data leave three of their four parts
# trivial, and callers that keep many reports would otherwise hold a copy of
# each.  Fields and notes are those the sector's engine reports; a torus or
# free part that the rank condition certifies at Haar factor 1 gets the same
# report.
_TRIVIAL_REPORTS = {
    "torus": FactorReport("torus", FINITE, 1.0, ExactValue.one(), EXACT),
    "vector": FactorReport("vector", FINITE, 1.0, ExactValue.one(), EXACT),
    "finite": FactorReport("finite", FINITE, 1.0, ExactValue.one(), EXACT,
                           notes=("maximum over 1 subgroups, attained at one "
                                  "of size 1",)),
    "free": FactorReport("free", FINITE, 1.0, ExactValue.one(), EXACT),
}

# The report of a datum whose four parts all have the shared report above
# and whose normalization changed nothing.
_UNIT_REPORT = ConstantReport(FINITE, 1.0, ExactValue.one(), EXACT,
                              tuple(_TRIVIAL_REPORTS.values()), (), ())

# The notes of a part the rank condition rules out, by whether the witness is
# the zero subspace (concentration at a point) or not.
_FAILS_NOTES = {
    True: ("concentration at a point outruns the right-hand side; no finite "
           "constant exists",),
    False: ("growth along the witness subgroup outruns the right-hand side; "
            "no finite constant exists",),
}


def _trivial_report(name: str, fd: Datum) -> Optional[FactorReport]:
    """The shared report when fd is trivial and its Haar factor is 1, else
    None.  The factor is priced exactly only when some scale it reads is
    not 1."""
    if not (fd.domain.is_trivial()
            and all(h.codomain.is_trivial() for h in fd.homs)):
        return None
    unit = fd.domain.haar.scalar() == 1 and all(
        h.codomain.haar.scalar() == 1 for h in fd.homs)
    if not unit and fd.haar_factor() != ExactValue.one():
        return None
    return _TRIVIAL_REPORTS[name]


def _rank_decided_factor(name: str, fd: Datum, verdict) -> FactorReport:
    if verdict.status == FAILS:
        return FactorReport(name, INFINITE, math.inf, None, CERTIFIED,
                            witness=verdict.witness,
                            notes=_FAILS_NOTES[verdict.witness == ()])
    corr = fd.haar_factor()
    if verdict.status == HOLDS_CERTIFIED and corr == 1:
        return _TRIVIAL_REPORTS[name]
    cert = EXACT if verdict.status == HOLDS_CERTIFIED else HEURISTIC
    notes = ()
    if verdict.status == LIKELY_HOLDS:
        notes = ("the rank search found no violation but could not certify "
                 "completeness; the value assumes the condition holds",)
    return FactorReport(name, FINITE, float(corr), corr, cert, notes=notes)


def _torus_factor(fd: Datum) -> FactorReport:
    verdict = rank_condition([h.TT for h in fd.homs], fd.exponents,
                             dim=fd.domain.b, torus=True)
    return _rank_decided_factor("torus", fd, verdict)


def _free_factor(fd: Datum) -> FactorReport:
    verdict = rank_condition([h.ZZ for h in fd.homs], fd.exponents,
                             dim=fd.domain.c)
    return _rank_decided_factor("free", fd, verdict)


def _finite_factor(fd: Datum) -> FactorReport:
    try:
        res = subgroup_bl_constant(fd)
    except TooLarge as exc:
        return FactorReport("finite", UNKNOWN, None, None, HEURISTIC,
                            notes=(str(exc),))
    return FactorReport(
        "finite", FINITE, float(res.value), res.value, EXACT,
        notes=_kept((f"maximum over {res.subgroup_count} subgroups, attained "
                     f"at one of size {res.argmax_size}",)))


def _vector_factor(fd: Datum) -> FactorReport:
    red = reduce_exponents(fd)
    notes = list(red.ledger)
    if red.datum is None:
        if red.resolution == math.inf:
            return FactorReport("vector", INFINITE, math.inf, None, CERTIFIED,
                                witness="noncompact kernel at exponent 1",
                                notes=tuple(notes))
        return FactorReport("vector", FINITE, float(red.resolution),
                            ExactValue.of(red.resolution), EXACT,
                            notes=tuple(notes))
    fd = red.datum
    for j, h in enumerate(fd.homs):
        if not image_is_open(h):
            return FactorReport(
                "vector", INFINITE, math.inf, None, CERTIFIED,
                witness=f"map {j} has image a proper subspace",
                notes=tuple(notes) + (
                    "a map onto a proper (hence non-open) subspace "
                    "forces an infinite constant at finite exponents",))
    verdict = bcct_finiteness(fd)
    if not verdict.homogeneous or verdict.status == FAILS:
        detail = ("rank condition fails at the witness subspace" if verdict.homogeneous
                  else "homogeneity fails: the scaling degree of the two sides "
                       "differs, so no finite constant exists")
        # homogeneity can fail where the rank condition holds; the dilations
        # of the whole space then witness it
        witness = (verdict.witness if verdict.witness is not None
                   else f"dilations of R^{fd.domain.a}")
        return FactorReport("vector", INFINITE, math.inf, None, CERTIFIED,
                            witness=witness, notes=tuple(notes) + (detail,))
    base = HEURISTIC if verdict.status == LIKELY_HOLDS else NUMERICAL
    if verdict.status == LIKELY_HOLDS:
        notes.append("finiteness rests on an uncertified rank search")
    if fd.domain.a == 0 and all(h.codomain.a == 0 for h in fd.homs):
        corr = fd.haar_factor()
        return FactorReport("vector", FINITE, float(corr), corr,
                            EXACT if base == NUMERICAL else base,
                            notes=tuple(notes))
    res = gaussian_bl_constant(fd, verdict=verdict)
    if math.isinf(res.value):
        return FactorReport(
            "vector", UNKNOWN, None, None, HEURISTIC,
            notes=tuple(notes) + (
                "the gaussian ascent diverged although the finiteness test "
                "passed; the two decisions disagree",))
    notes.append(f"gaussian ascent {res.status.lower()} after {res.sweeps} "
                 f"sweeps" + ("" if res.pieces == 1 else
                              f" over {res.pieces} pieces split at critical "
                              f"subspaces"))
    return FactorReport("vector", FINITE, res.value, None, base,
                        notes=_kept(notes), critical=verdict.critical)


# -- the pipeline -----------------------------------------------------------

def analyze(d: Datum) -> Tuple[NondegenerateResult, Optional[str],
                               Optional[Tuple[Datum, Datum, Datum, Datum]]]:
    """Normalize d and split it, checking properness and nondegeneracy once.

    Returns make_nondegenerate's result, the obstruction it recorded (None
    when the normalized datum is nondegenerate) and, when there is none, its
    four diagonal parts (torus, vector, finite, free).  This is the one
    split of a datum into parts.  Raises NotProper for an improper datum.
    """
    norm = make_nondegenerate(d)
    why = norm.obstruction
    return norm, why, None if why is not None else _sector_parts(norm.datum)


def _kept(lines: Sequence[str]) -> Tuple[str, ...]:
    """lines as a tuple of interned strings.  The same note or ledger line
    recurs across data, and a caller that keeps many reports then holds one
    copy of each; an interned string is freed with its last reference."""
    return tuple(map(sys.intern, lines))


def _early_report(kind, value, exact, cert, ledger, witnesses=()):
    return ConstantReport(kind, value, exact, cert, (), _kept(ledger),
                          tuple(witnesses))


def bl_constant(d: Datum) -> ConstantReport:
    """Decide finiteness of the constant and compute it.

    Pipeline: drop infinite exponents, reject improper data as INFINITE,
    normalize (kernel quotient, image corestriction), declare INFINITE if a
    non-open image survives at the now all-finite exponents, split into the
    four diagonal parts, price each part, multiply.  Each search runs under
    the fixed limit of its engine, and a factor's notes say when it hit one.
    """
    return _priced(d)[0]


def _priced(d: Datum) -> Tuple[ConstantReport,
                               Optional[Tuple[Datum, Datum, Datum, Datum]]]:
    """bl_constant's report and the four parts it priced, or None when the
    report was decided before the split."""
    ledger: List[str] = []
    try:
        d2 = reduce_p_infinity(d)
    except EmptyDatum as exc:
        ledger.append(str(exc))
        mass = exc.resolution
        if mass == math.inf:
            ledger.append("the domain is noncompact, so its mass is infinite")
            return _early_report(INFINITE, math.inf, None, CERTIFIED,
                                 ledger), None
        return _early_report(FINITE, float(mass), ExactValue.of(mass), EXACT,
                             ledger), None
    if d2.J != d.J:
        ledger.append(_dropped_note(d.J - d2.J))
    try:
        norm, why, parts = analyze(d2)
    except NotProper as exc:
        ledger.append(str(exc))
        return _early_report(INFINITE, math.inf, None, CERTIFIED, ledger,
                             witnesses=(str(exc),)), None
    ledger.extend(norm.ledger)
    if why is not None:
        ledger.append(f"{why}; with every exponent finite this forces an "
                      f"infinite constant")
        return _early_report(INFINITE, math.inf, None, CERTIFIED, ledger,
                             witnesses=(why,)), None
    torus_d, vector_d, finite_d, free_d = parts
    factors = (
        _trivial_report("torus", torus_d) or _torus_factor(torus_d),
        _trivial_report("vector", vector_d) or _vector_factor(vector_d),
        _trivial_report("finite", finite_d) or _finite_factor(finite_d),
        _trivial_report("free", free_d) or _free_factor(free_d),
    )
    if not ledger and all(map(operator.is_, factors, _UNIT_REPORT.factors)):
        return _UNIT_REPORT, parts
    witnesses = tuple(f.witness for f in factors if f.witness is not None)
    infinite = [f for f in factors if f.kind == INFINITE]
    if infinite:
        cert = _weakest([f.certification for f in infinite])
        return ConstantReport(INFINITE, math.inf, None, cert, factors,
                              _kept(ledger), witnesses), parts
    value: Optional[float] = 1.0
    exact: Optional[ExactValue] = ExactValue.one()
    for f in factors:
        if f.value is None:
            value = None
        elif value is not None:
            value *= f.value
        if f.exact is None:
            exact = None
        elif exact is not None:
            exact = exact * f.exact
    if exact is not None:
        value = float(exact)
    unknown = any(f.kind == UNKNOWN or f.certification == HEURISTIC
                  for f in factors)
    kind = UNKNOWN if unknown else FINITE
    cert = _weakest([f.certification for f in factors])
    return ConstantReport(kind, value, exact, cert, factors, _kept(ledger),
                          witnesses), parts


# -- oracle check -----------------------------------------------------------

def _require_tolerance(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be a positive finite number, got {tol!r}")


def verify(d: Datum, *, tol: float = 1e-6, seed: int = 0
           ) -> Tuple[ConstantReport, List[dict]]:
    """Check the pipeline's value for each part against an independent oracle.

    Returns bl_constant's report and one row per part (torus, vector, finite,
    free), each with a status (ok, MISMATCH or skipped) and a note; a checked
    row also holds the pipeline and oracle values: the rows check the very
    parts bl_constant priced.  An INFINITE report gets no rows, nor does one
    decided before the split into parts (every exponent infinite).  tol is
    the comparison tolerance, positive and finite; seed drives the finite
    oracle's restarts.
    """
    _require_tolerance(tol)
    rep, priced = _priced(d)
    if rep.kind == INFINITE or priced is None:
        return rep, []
    parts = dict(zip(("torus", "vector", "finite", "free"), priced))
    by_name = {f.name: f for f in rep.factors}
    rows = []

    tor = by_name["torus"]
    part = parts["torus"]
    if part.domain.b == 0:
        rows.append({"part": "torus", "status": "skipped",
                     "note": "no torus directions"})
    elif tor.kind == FINITE:
        n = 16
        while n >= 4:
            try:
                probe = discretized_compact_check(part.domain.b, n, part)
                break
            except TooLarge:
                n //= 2
        else:
            probe = None
        if probe is None:
            rows.append({"part": "torus", "status": "skipped",
                         "note": "discretization too large"})
        else:
            ok = probe <= tor.value * (1 + tol) + tol
            rows.append({"part": "torus", "status": "ok" if ok else "MISMATCH",
                         "pipeline": tor.value, "oracle": probe,
                         "note": f"lower bound at n={n}"})
    else:
        rows.append({"part": "torus", "status": "skipped",
                     "note": f"factor is {tor.kind}"})

    vec = by_name["vector"]
    part = parts["vector"]
    if part.domain.a == 0:
        rows.append({"part": "vector", "status": "skipped",
                     "note": "no vector directions"})
    elif vec.kind == FINITE and all(h.codomain.a <= 1 for h in part.homs) \
            and all(p is not None and p != 1 for p in part.exponents):
        probe = scalar_gaussian_probe(part)
        slack = 1e-4 + tol * max(1.0, abs(vec.value))
        # at a critical subspace the supremum is approached only along a
        # degenerating family the grid cannot reach, so the probe is only a
        # lower bound there
        if vec.critical is None:
            ok = abs(probe - vec.value) <= slack
            note = "scalar gaussian grid"
        else:
            ok = probe <= vec.value + slack
            note = "scalar gaussian grid lower bound (critical subspace)"
        rows.append({"part": "vector", "status": "ok" if ok else "MISMATCH",
                     "pipeline": vec.value, "oracle": probe, "note": note})
    elif vec.kind != FINITE:
        rows.append({"part": "vector", "status": "skipped",
                     "note": f"factor is {vec.kind}"})
    else:
        rows.append({"part": "vector", "status": "skipped",
                     "note": "probe needs one-dimensional targets and "
                             "exponents strictly between 1 and infinity"})

    fin = by_name["finite"]
    part = parts["finite"]
    if part.domain.finite_order == 1:
        rows.append({"part": "finite", "status": "skipped",
                     "note": "trivial finite part"})
    elif fin.kind == FINITE and all(p is not None and p != 1
                                    for p in part.exponents):
        lower = alternating_maximization(part, seed=seed)
        ok = lower <= fin.value + 1e-9 and lower >= fin.value - max(1e-6, tol)
        rows.append({"part": "finite", "status": "ok" if ok else "MISMATCH",
                     "pipeline": fin.value, "oracle": lower,
                     "note": "alternating maximization lower bound"})
    elif fin.kind != FINITE:
        rows.append({"part": "finite", "status": "skipped",
                     "note": f"factor is {fin.kind}"})
    else:
        rows.append({"part": "finite", "status": "skipped",
                     "note": "oracle needs exponents strictly above 1"})

    rows.append({"part": "free", "status": "skipped",
                 "note": "rank decision is exact; no numerical oracle"})
    return rep, rows


# -- dualization ------------------------------------------------------------

def _strip_sector_mixing(d: Datum) -> Tuple[Datum, bool]:
    homs = []
    dropped = False
    for h in d.homs:
        mixing = any(any(row) for name in MIXING_BLOCKS
                     for row in getattr(h, name))
        if mixing:
            dropped = True
            homs.append(BlockHom(h.domain, h.codomain, RR=h.RR, TT=h.TT,
                                 ZZ=h.ZZ, FF=h.FF))
        else:
            homs.append(h)
    if not dropped:
        return d, False
    return Datum(d.domain, homs, d.exponents), True


def _canonical_form(d: Datum) -> Tuple[Datum, List[str]]:
    """Equivalent datum with sector-diagonal surjective maps and trivial
    joint kernel; the constant is unchanged at every step."""
    notes: List[str] = []
    cur = d
    for _ in range(8):
        res = make_nondegenerate(cur)
        notes.extend(res.ledger)
        if res.obstruction is not None:
            raise Degenerate(res.obstruction + "; the dual form needs a "
                                               "nondegenerate datum")
        cur, dropped = _strip_sector_mixing(res.datum)
        if not dropped:
            return cur, notes
        notes.append("dropped sector-mixing blocks; the constant agrees "
                     "with the sector-diagonal form")
    raise Degenerate("canonicalization did not stabilize")


def _product_of_duals(targets: Sequence[ElementaryGroup]):
    """The product of the duals of the targets, with canonical finite
    coordinates.  Returns (group, sector offsets, finite generator columns)
    where the generator columns express each canonical finite generator in
    the concatenated per-target coordinates."""
    duals = [dual_group(t) for t in targets]
    a = sum(g.a for g in duals)
    b = sum(g.b for g in duals)
    c = sum(g.c for g in duals)
    orders: List[int] = []
    for g in duals:
        orders.extend(g.torsion)
    chain, gens = merge_finite_coordinates(orders)
    vs = Fraction(1)
    tt = Fraction(1)
    zp = Fraction(1)
    fp = Fraction(1)
    for g in duals:
        vs *= g.haar.vector_scale
        tt *= g.haar.torus_total
        zp *= g.haar.z_point
        fp *= g.haar.f_point
    group = ElementaryGroup(a=a, b=b, c=c, torsion=tuple(chain),
                            haar=HaarRecord(vs, tt, zp, fp))
    return duals, group, chain, gens


def dual_datum(d: Datum) -> Datum:
    """The annihilator-side datum: the joint embedding's annihilator inside
    the product of the dual targets, with the coordinate projections and the
    conjugate exponents.

    The input is first brought to sector-diagonal nondegenerate form (the
    constant is unchanged); Degenerate is raised when that is impossible,
    i.e. when some image stays non-open.
    """
    cur, _ = _canonical_form(d)
    targets = [h.codomain for h in cur.homs]
    duals, product, chain, gens = _product_of_duals(targets)
    taus = [adjoint_hom(h) for h in cur.homs]
    ghat = dual_group(cur.domain)

    rr = reduce(hstack, [t.RR for t in taus], []) if product.a else None
    tt = reduce(hstack, [t.TT for t in taus], []) if product.b else None
    zz = reduce(hstack, [t.ZZ for t in taus], []) if product.c else None
    ff = None
    if gens:
        cols = []
        for t in taus:
            for i in range(t.domain.k):
                cols.append([t.FF[r][i] for r in range(ghat.k)])
        ff = [[sum(gen[i] * cols[i][r] for i in range(len(gen)))
               for gen in gens] for r in range(ghat.k)]
    tau = BlockHom(product, ghat, RR=rr, TT=tt, ZZ=zz, FF=ff)
    iota = kernel_embedding(tau)

    new_homs = []
    off_a = off_b = off_c = off_f = 0
    for gd in duals:
        proj_rr = [[1 if i == off_a + r else 0 for i in range(product.a)]
                   for r in range(gd.a)] or None
        proj_tt = [[1 if i == off_b + r else 0 for i in range(product.b)]
                   for r in range(gd.b)] or None
        proj_zz = [[1 if i == off_c + r else 0 for i in range(product.c)]
                   for r in range(gd.c)] or None
        proj_ff = None
        if gd.k and gens:
            proj_ff = [[gen[off_f + r] for gen in gens] for r in range(gd.k)]
        proj = BlockHom(product, gd, RR=proj_rr, TT=proj_tt, ZZ=proj_zz,
                        FF=proj_ff)
        new_homs.append(proj.compose(iota))
        off_a += gd.a
        off_b += gd.b
        off_c += gd.c
        off_f += gd.k
    return Datum(iota.domain, new_homs, cur.conjugate_exponents())


# -- duality check ----------------------------------------------------------

@dataclass(frozen=True)
class DualityReport:
    """duality_check's comparison.  dual_datum is the dual datum it priced,
    or None when the datum has no dual form (the reason is then the dual
    side's ledger); to_dict leaves it out."""

    lhs: Optional[float]
    rhs: Optional[float]
    ratio: Optional[float]
    passed: Optional[bool]
    tolerance: float
    scale: float
    primal: ConstantReport
    dual: ConstantReport
    notes: Tuple[str, ...] = ()
    dual_datum: Optional[Datum] = None

    def to_dict(self):
        return {
            "lhs": self.lhs, "rhs": self.rhs, "ratio": self.ratio,
            "pass": self.passed, "tolerance": self.tolerance,
            "scale": self.scale, "notes": list(self.notes),
            "primal": self.primal.to_dict(), "dual": self.dual.to_dict(),
        }


def _duality_scale(d: Datum) -> float:
    """prod_j (p^(1/p) / p'^(1/p')) ** (a_j / 2) over the target vector
    dimensions; the factor degenerates to 1 at exponent 1 or infinity."""
    out = 1.0
    for h, p in zip(d.homs, d.exponents):
        aj = h.codomain.a
        if not aj or p is None or p == 1:
            continue
        pf = float(p)
        qf = float(p / (p - 1))
        out *= (pf ** (1.0 / pf) / qf ** (1.0 / qf)) ** (aj / 2.0)
    return out


def duality_check(d: Datum, tol: float = 1e-6) -> DualityReport:
    """Compare the constant with the scaled constant of the dual datum.

    Passes when the two finite values agree within tol relatively, or when
    both sides are infinite.  An UNKNOWN on either side, and a datum with no
    dual (improper, or with an image that stays non-open), is inconclusive:
    passed is None.  tol must be positive and finite (ValueError).
    """
    _require_tolerance(tol)
    primal = bl_constant(d)
    notes: List[str] = []
    try:
        dual_d = dual_datum(d)
    except (Degenerate, NotProper) as exc:
        return DualityReport(primal.total, None, None, None, tol,
                             _duality_scale(d), primal,
                             _early_report(UNKNOWN, None, None, HEURISTIC,
                                           [str(exc)]),
                             notes=(f"dual datum unavailable: {exc}",))
    dual_rep = bl_constant(dual_d)
    scale = _duality_scale(d)
    if primal.kind == UNKNOWN or dual_rep.kind == UNKNOWN:
        notes.append("one side is UNKNOWN; the check is inconclusive")
        return DualityReport(primal.total, None, None, None, tol, scale,
                             primal, dual_rep, tuple(notes), dual_d)
    if primal.kind == INFINITE or dual_rep.kind == INFINITE:
        both = primal.kind == INFINITE and dual_rep.kind == INFINITE
        if not both:
            notes.append("finiteness disagrees between the two sides")
        return DualityReport(primal.total,
                             math.inf if dual_rep.kind == INFINITE else None,
                             None, both, tol, scale, primal, dual_rep,
                             tuple(notes), dual_d)
    lhs = primal.value
    rhs = scale * dual_rep.value
    ratio = lhs / rhs if rhs else math.inf
    return DualityReport(lhs, rhs, ratio, abs(ratio - 1.0) < tol, tol, scale,
                         primal, dual_rep, tuple(notes), dual_d)

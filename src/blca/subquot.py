"""Degeneracy removal and the block-diagonal factorization.

Two normalizations turn a proper datum into one where every later computation
is safe: quotient the domain by the compact joint kernel, and shrink every
codomain onto the (open) image of its map.  Both are instances of one
primitive, corestriction onto an open subgroup: an open subgroup of an
elementary group is the full vector and torus sectors times a lattice in the
discrete sector, so corestriction is integer linear algebra in an adapted
basis of that lattice.

The kernel quotient runs the primitive on the dual side.  The annihilator of
a compact subgroup is open in the dual, the adjoints of the maps land inside
it because they kill nothing the kernel pairs with, and dualizing back gives
the quotient datum.  The measure bookkeeping comes out on its own: restricting
the dual measure to the annihilator and dualizing again is exactly the
pushforward measure on the quotient, i.e. the kernel is normalized to total
mass one.  A sector-diagonal datum on a domain without a finite sector has
its joint kernel in the torus sector, and there the round trip is written
out directly: the annihilator is the row lattice of the stacked TT rows, so
with B^T their canonical Hermite form the quotient map is t -> B^T t and each
new TT block is TT_j B^-T, with no map dualized.

The joint kernel that starts this is computed sector by sector when no map
has a nonzero mixing block (homs._stacked_kernel): one Smith form of the
stacked torus rows, and a kernel per other sector.  Only maps that couple the
sectors pay for the coupled elimination.

The four diagonal blocks of a nondegenerate datum are then its torus, vector,
finite and free parts; the off-diagonal blocks carry no constant of their own
and are dropped.  structure.analyze is the one routine that splits a datum.
The split builds each part's domain and each distinct target once, shares
the unit Haar record, gives a part that is trivial everywhere one zero map
per distinct target, and returns a datum that lives in one sector, Haar
records included, as its own part, so it builds only the maps of parts that
differ from the datum.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import Degenerate, NotProper
from .groups import (UNIT_HAAR, ElementaryGroup, HaarRecord, LatticeSubgroup,
                     dual_group)
from .homs import (MIXING_BLOCKS, BlockHom, ClosedSubgroup, Datum, adjoint_hom,
                   discrete_image_lattice, image_is_open, is_proper,
                   is_surjective, joint_kernel, torus_kernel)
from .intmat import (congruence_kernel, det_rational, from_columns, identity,
                     integer_kernel, rational_kernel, row_hermite_form,
                     solve_integer, solve_rational)


def _fold_discrete_haar(haar: HaarRecord, c_new: int, k_new: int) -> HaarRecord:
    """Scale record for an open subgroup whose discrete sector shrank.

    Point masses on the discrete sector are preserved (that is what
    restriction of Haar measure does); when one of the two discrete sectors
    disappears its scale folds into the survivor so scalar() stays honest.
    """
    if c_new and k_new:
        return haar
    if c_new:
        if haar.f_point == 1:
            return haar
        return HaarRecord(haar.vector_scale, haar.torus_total,
                          haar.z_point * haar.f_point, Fraction(1))
    if haar.z_point == 1:
        return haar
    return HaarRecord(haar.vector_scale, haar.torus_total, Fraction(1),
                      haar.z_point * haar.f_point)


def corestrict_open(h: BlockHom, lattice: LatticeSubgroup) -> BlockHom:
    """Corestrict h onto the open subgroup (full R and T sectors) x lattice.

    The discrete part of the image of h must lie inside the lattice; the
    rewritten discrete blocks express each output in the lattice's adapted
    generators.  Vector and torus sector blocks pass through unchanged.
    """
    cod = h.codomain
    if lattice.orders != cod.discrete_orders():
        raise Degenerate("lattice does not live in the codomain's discrete sector")
    free_cols, tors_cols, tors_orders = lattice.structure()
    c_new, k_new = len(free_cols), len(tors_orders)
    new_cod = ElementaryGroup(a=cod.a, b=cod.b, c=c_new, torsion=tuple(tors_orders),
                              haar=_fold_discrete_haar(cod.haar, c_new, k_new))
    n = cod.c + cod.k
    solver_cols = list(free_cols) + list(tors_cols)
    for i, d in enumerate(lattice.orders):
        if d:
            solver_cols.append([d if j == i else 0 for j in range(n)])
    mat = from_columns(solver_cols, n)

    def rewrite(col, finite_source):
        if not any(col):
            return [0] * c_new, [0] * k_new
        y = solve_integer(mat, col)
        if y is None:
            raise Degenerate("map image escapes the subgroup being corestricted to")
        free = y[:c_new]
        tors = [y[c_new + i] % tors_orders[i] for i in range(k_new)]
        if finite_source and any(free):
            raise Degenerate("finite-order image with a free coordinate")
        return free, tors

    zz = [[0] * h.domain.c for _ in range(c_new)]
    zf = [[0] * h.domain.c for _ in range(k_new)]
    ff = [[0] * h.domain.k for _ in range(k_new)]
    for i in range(h.domain.c):
        col = ([h.ZZ[r][i] for r in range(cod.c)]
               + [h.ZF[r][i] for r in range(cod.k)])
        free, tors = rewrite(col, False)
        for r in range(c_new):
            zz[r][i] = free[r]
        for r in range(k_new):
            zf[r][i] = tors[r]
    for i in range(h.domain.k):
        col = [0] * cod.c + [h.FF[r][i] for r in range(cod.k)]
        _, tors = rewrite(col, True)
        for r in range(k_new):
            ff[r][i] = tors[r]
    return BlockHom(h.domain, new_cod, RR=h.RR, RT=h.RT, TT=h.TT, ZR=h.ZR,
                    ZT=h.ZT, ZZ=zz, ZF=zf, FT=h.FT, FF=ff)


def merge_finite_coordinates(orders: List[int]):
    """Canonical form of a direct sum of cyclic blocks Z/orders[i].

    Returns (chain, gens): chain is the ascending divisibility sequence of the
    sum, and gens[r] gives the coordinates of the r-th canonical generator in
    the original blocks.  Both empty when there are no blocks.
    """
    if not orders:
        return [], []
    _, tors_cols, chain = LatticeSubgroup.full(tuple(orders)).structure()
    return chain, tors_cols


def kernel_embedding(h: BlockHom) -> BlockHom:
    """Inclusion of an elementary model of ker h into h's domain.

    Needs a sector-diagonal surjective map.  The returned map's domain is the
    kernel re-expressed as an elementary group; its Haar record is the fiber
    measure, i.e. the one for which the domain measure disintegrates as
    (kernel) x (codomain) sector by sector.  The continuous sectors pick up
    the jacobian of the chosen parametrization, so the record depends on the
    basis only through the measure it induces on the kernel.
    """
    g, cod = h.domain, h.codomain
    for name in MIXING_BLOCKS:
        blk = getattr(h, name)
        if any(any(row) for row in blk):
            raise Degenerate(f"kernel model needs a sector-diagonal map; "
                             f"block {name} is nonzero")
    if not is_surjective(h):
        raise Degenerate("kernel model needs a surjective map; corestrict "
                         "onto the open image first")

    # vector sector: kernel basis plus a section, whose combined determinant
    # is the jacobian tying the fiber scale to the two Lebesgue scales
    if g.a:
        basis = rational_kernel(h.RR) if h.RR else identity(g.a)
        section = []
        for rhs in identity(cod.a):
            sol = solve_rational(h.RR, rhs)
            if sol is None:
                raise Degenerate("vector block is not surjective")
            section.append(sol)
        jac = abs(det_rational(from_columns(list(basis) + section, g.a)))
    else:
        basis, jac = [], Fraction(1)
    a_n = len(basis)

    # torus sector: diagonalize; zero diagonal slots stay toral, slots with
    # entry d > 1 become cyclic generators wound 1/d of the way along
    if g.b:
        torus_cols, wound = torus_kernel(h.TT, g.b)
        torus_tors = [(col, d) for col, d in wound if d > 1]
    else:
        torus_cols, torus_tors = [], []
    b_n = len(torus_cols)
    compact_component_count = 1
    for _, d in torus_tors:
        compact_component_count *= d

    # free sector
    if g.c:
        free_basis = integer_kernel(h.ZZ) if h.ZZ else identity(g.c)
    else:
        free_basis = []
    c_n = len(free_basis)

    # finite sector
    if g.k:
        if cod.k:
            rows = [[Fraction(h.FF[r][i], cod.torsion[r]) for i in range(g.k)]
                    for r in range(cod.k)]
            lat = LatticeSubgroup.from_generators(
                g.torsion, congruence_kernel(rows, [1] * cod.k))
        else:
            lat = LatticeSubgroup.full(g.torsion)
        _, f_cols, f_orders = lat.structure()
    else:
        f_cols, f_orders = [], []

    # glue the two finite contributions into one canonical chain
    chain, gens = merge_finite_coordinates(
        [d for _, d in torus_tors] + list(f_orders))
    split = len(torus_tors)
    ft_block = [[Fraction(0)] * len(gens) for _ in range(g.b)]
    ff_block = [[0] * len(gens) for _ in range(g.k)]
    for r, gen in enumerate(gens):
        for i, (col, d) in enumerate(torus_tors):
            for row in range(g.b):
                ft_block[row][r] += Fraction(gen[i] * col[row], d)
        for j in range(len(f_orders)):
            for row in range(g.k):
                ff_block[row][r] += gen[split + j] * f_cols[j][row]

    gh, ch = g.haar, cod.haar
    haar = HaarRecord(
        vector_scale=gh.vector_scale * jac / ch.vector_scale,
        torus_total=gh.torus_total / ch.torus_total,
        z_point=gh.z_point / ch.z_point,
        f_point=gh.f_point / (ch.f_point * compact_component_count))
    model = ElementaryGroup(a=a_n, b=b_n, c=c_n, torsion=tuple(chain), haar=haar)
    return BlockHom(
        model, g,
        RR=from_columns(basis, g.a) if g.a else None,
        TT=from_columns(torus_cols, g.b) if g.b else None,
        FT=ft_block if (g.b and gens) else None,
        ZZ=from_columns(free_basis, g.c) if g.c else None,
        FF=ff_block if (g.k and gens) else None)


def _annihilator_of_compact_kernel(N: ClosedSubgroup, g: ElementaryGroup) -> LatticeSubgroup:
    """Characters of G vanishing on the compact subgroup N, as a lattice in
    the dual's discrete sector Z^b x F-hat."""
    b, k = g.b, g.k
    rows, moduli = [], []
    for v in N.lie:
        rows.append([Fraction(x) for x in v[g.a:]] + [Fraction(0)] * k)
        moduli.append(0)
    for el in N.gens:
        rows.append([Fraction(t) for t in el.t]
                    + [Fraction(el.u[s], g.torsion[s]) for s in range(k)])
        moduli.append(1)
    orders = (0,) * b + g.torsion
    if not rows:
        return LatticeSubgroup.full(orders)
    return LatticeSubgroup.from_generators(orders, congruence_kernel(rows, moduli))


def lattice_inclusion_hom(lattice: LatticeSubgroup, ghat: ElementaryGroup) -> BlockHom:
    """Inclusion of the open subgroup (full R and T sectors) x lattice.

    The subgroup carries the restricted measure, point masses kept, matching
    what corestrict_open builds as a codomain for the same lattice.
    """
    free_cols, tors_cols, tors_orders = lattice.structure()
    c_new, k_new = len(free_cols), len(tors_orders)
    sub = ElementaryGroup(a=ghat.a, b=ghat.b, c=c_new, torsion=tuple(tors_orders),
                          haar=_fold_discrete_haar(ghat.haar, c_new, k_new))
    return BlockHom(
        sub, ghat,
        RR=identity(ghat.a),
        TT=identity(ghat.b),
        ZZ=[[col[r] for col in free_cols] for r in range(ghat.c)],
        ZF=[[col[ghat.c + r] for col in free_cols] for r in range(ghat.k)],
        FF=[[col[ghat.c + r] for col in tors_cols] for r in range(ghat.k)])


def _hermite_coordinates(basis: List[List[int]], vec: Sequence[int]) -> List[int]:
    """The integer coefficients of vec in the rows of a row Hermite form,
    by forward substitution at each row's pivot; vec must lie in their
    lattice."""
    rest = list(vec)
    out = []
    for row in basis:
        pc = next(i for i, x in enumerate(row) if x)
        q = rest[pc] // row[pc]
        if q:
            rest = [x - q * y for x, y in zip(rest, row)]
        out.append(q)
    if any(rest):
        raise RuntimeError("vector escaped the annihilator lattice")
    return out


def _torus_sector_quotient(d: Datum):
    """The kernel quotient of a sector-diagonal datum on a domain without a
    finite sector, where the joint kernel N lies in the torus sector.

    N is the kernel of t -> M t on T^b, M the stacked TT rows, so its
    annihilator is the row lattice of M, and the rows of M's canonical Hermite
    form are the basis B^T the dual round trip reaches.  The quotient map is
    t -> B^T t onto T^r, r the rank of M, each new TT block is TT_j B^-T, and
    the other diagonal blocks and every target are unchanged.  Returns the
    new domain, the new maps and the quotient map."""
    g = d.domain
    basis = row_hermite_form([row for h in d.homs for row in h.TT])
    r = len(basis)
    ghat = dual_group(g)
    new_domain = dual_group(ElementaryGroup(
        a=g.a, b=g.c, c=r, haar=_fold_discrete_haar(ghat.haar, r, 0)))
    new_homs = [BlockHom(new_domain, h.codomain, RR=h.RR, ZZ=h.ZZ,
                         TT=[_hermite_coordinates(basis, row) for row in h.TT])
                for h in d.homs]
    quotient_map = BlockHom(g, new_domain, RR=identity(g.a), TT=basis,
                            ZZ=identity(g.c))
    return new_domain, new_homs, quotient_map


def _quotient_by_joint_kernel(d: Datum, N: ClosedSubgroup):
    """The datum on G/N, N the compact joint kernel, the quotient map and
    the ledger note.

    A sector-diagonal datum on a domain without a finite sector takes the
    direct torus quotient (_torus_sector_quotient).  Every other datum runs
    the dual round trip: dualize every map, corestrict the adjoints onto the
    annihilator of N, and dualize back.  A domain with a finite sector stays
    on the round trip: there the adapted basis of the annihilator
    (LatticeSubgroup.structure) lists the Hermite basis in another order, so
    the direct quotient would give other, equivalent torus coordinates."""
    g = d.domain
    for v in N.lie:
        if any(v[: g.a]):
            raise NotProper("the joint kernel has a noncompact vector direction")
    for el in N.gens:
        if any(el.x) or any(el.m):
            raise NotProper("the joint kernel has a noncompact discrete direction")
    if not g.k and not any(any(row) for h in d.homs for name in MIXING_BLOCKS
                           for row in getattr(h, name)):
        new_domain, new_homs, quotient_map = _torus_sector_quotient(d)
    else:
        ghat = dual_group(g)
        ann = _annihilator_of_compact_kernel(N, g)
        new_taus = [corestrict_open(adjoint_hom(h), ann) for h in d.homs]
        new_domain = dual_group(new_taus[0].codomain)
        new_homs = [adjoint_hom(t) for t in new_taus]
        quotient_map = adjoint_hom(lattice_inclusion_hom(ann, ghat))
    # the kernel's identity component is the torus dimension the quotient loses
    note = (f"quotiented the domain by its compact joint kernel "
            f"(lie rank {g.b - new_domain.b}, {len(N.gens)} discrete generators); "
            f"new domain {new_domain.describe()}, kernel normalized to total mass 1, "
            f"quotient carries the pushforward measure")
    return Datum(new_domain, new_homs, d.exponents), quotient_map, note


@dataclass(frozen=True)
class NondegenerateResult:
    """make_nondegenerate's datum and ledger; obstruction names the first
    map left not surjective (None when the datum is nondegenerate)."""

    datum: Datum
    ledger: Tuple[str, ...]
    quotient_map: Optional[BlockHom] = None
    obstruction: Optional[str] = None


def make_nondegenerate(d: Datum) -> NondegenerateResult:
    """Equivalent datum with trivial joint kernel and surjective maps.

    Quotients the domain by the compact joint kernel, then corestricts every
    codomain onto its image when that image is open.  A non-open image is left
    alone with a ledger warning: corestriction there would change the constant
    (and for finite exponents the constant is infinite anyway).  Idempotent.

    The quotient leaves a trivial joint kernel and every corestricted map is
    onto, so the first non-open image is the only obstruction left; the
    result records it, as "map {pos} is not surjective".
    """
    report = is_proper(d)
    if not report:
        raise NotProper(report.reason)
    ledger: List[str] = []
    cur = d
    quotient_map = None
    if not report.kernel.is_trivial():
        cur, quotient_map, note = _quotient_by_joint_kernel(cur, report.kernel)
        ledger.append(note)
    homs = []
    obstruction = None
    for pos, h in enumerate(cur.homs):
        if is_surjective(h):
            homs.append(h)
            continue
        if not image_is_open(h):
            ledger.append(f"map {pos}: image is not open in {h.codomain.describe()}; "
                          f"left in place (a finite exponent there forces an "
                          f"infinite constant)")
            obstruction = obstruction or f"map {pos} is not surjective"
            homs.append(h)
            continue
        h2 = corestrict_open(h, discrete_image_lattice(h))
        ledger.append(f"map {pos}: codomain corestricted to its open image "
                      f"{h2.codomain.describe()}, open-subgroup measure "
                      f"(discrete point masses kept)")
        homs.append(h2)
    out = Datum(cur.domain, homs, cur.exponents)
    return NondegenerateResult(out, tuple(ledger), quotient_map, obstruction)


def _is_nondegenerate(d: Datum) -> Optional[str]:
    """The first obstruction to nondegeneracy, computed afresh: the check
    make_nondegenerate's recorded obstruction must agree with."""
    if not joint_kernel(d).is_trivial():
        return "the joint kernel is nontrivial"
    for pos, h in enumerate(d.homs):
        if not is_surjective(h):
            return f"map {pos} is not surjective"
    return None


# Each sector's part: the dimension field it keeps, its Haar scale and its
# diagonal block.  The order is the order of _sector_parts' result.
_PARTS = (("b", "torus_total", "TT"), ("a", "vector_scale", "RR"),
          ("torsion", "f_point", "FF"), ("c", "z_point", "ZZ"))


def _sector_parts(d: Datum) -> Tuple[Datum, Datum, Datum, Datum]:
    """The torus, vector, finite and free diagonal-block data of a
    nondegenerate datum, in that order.

    Each part keeps its own sector's Haar scale; off-diagonal blocks are
    dropped (they do not contribute a factor of their own).  The groups are
    shared: each part's domain, and each distinct target, is built once per
    call.  When a part's domain and targets equal the datum's own, Haar
    records included, the datum lives in that one sector and is its own
    part, so it is returned as it is.  A sector that is trivial in the
    domain and in every target has only zero maps, so each distinct target
    gets one map, built once, that every index into it shares.
    """
    parts = []
    own_targets = d.targets
    for dim, scale, block in _PARTS:
        groups: Dict[tuple, ElementaryGroup] = {}
        dom = _part_group(groups, d.domain, dim, scale)
        targets = [_part_group(groups, h.codomain, dim, scale) for h in d.homs]
        if dom == d.domain and all(map(operator.eq, targets, own_targets)):
            parts.append(d)
            continue
        if getattr(dom, dim) or any(getattr(t, dim) for t in targets):
            homs = [BlockHom(dom, t, **{block: getattr(h, block)})
                    for h, t in zip(d.homs, targets)]
        else:
            zero: Dict[int, BlockHom] = {}
            homs = []
            for t in targets:
                if id(t) not in zero:
                    zero[id(t)] = BlockHom(dom, t)
                homs.append(zero[id(t)])
        parts.append(Datum(dom, homs, d.exponents))
    return tuple(parts)


def _part_group(groups: Dict[tuple, ElementaryGroup], g: ElementaryGroup,
                dim: str, scale: str) -> ElementaryGroup:
    """g's sector `dim` with its Haar scale `scale`, built once per distinct
    sector and scale in groups."""
    size, q = getattr(g, dim), getattr(g.haar, scale)
    key = (size, q.numerator, q.denominator)
    if key not in groups:
        haar = UNIT_HAAR if q == 1 else HaarRecord(**{scale: q})
        groups[key] = ElementaryGroup(**{dim: size}, haar=haar)
    return groups[key]

"""Degeneracy removal and the block-diagonal factorization.

Two normalizations turn a proper datum into one where every later computation
is safe: quotient the domain by the compact joint kernel, and shrink every
codomain onto the (open) image of its map.  Both are integer linear algebra
in the adapted coordinates of one lattice (LatticeSubgroup.adapted).  An open
subgroup of an elementary group is the full vector and torus sectors times a
lattice in the discrete sector.  corestrict_open decides a map's openness
once (homs.image_is_open, one rank) and gives every caller the map onto its
image, its discrete outputs in the adapted coordinates of its image lattice.

The kernel quotient is the same computation on the dual side.  The
annihilator of a compact subgroup N of G is open in the dual, R^a x T^c x L
with L a lattice in Z^b x F-hat, and G/N is its dual R^a x T^c' x Z^c x F',
c' and F' the free rank and torsion chain of L.  For the joint kernel, L is
spanned by the characters the maps pull back from their targets and the
order vectors of F-hat.  The quotient map is read off L's adapted
generators, and each map's TT, FT and FF blocks become the adapted
coordinates of the characters it pulls back, so no map is dualized.  The measure bookkeeping comes out on its own: restricting the dual
measure to the annihilator and dualizing again is exactly the pushforward
measure on the quotient, i.e. the kernel is normalized to total mass one and
the compact sectors keep their total mass.

No joint kernel is built for this: properness is one rational rank of the
maps' vector and free rows (homs.is_proper), and the compact kernel is known
only through its annihilator.

The kernel of one map with an open image H, mixing blocks included, has an
elementary model (kernel_embedding, which corestricts the map onto H itself)
with Weil's fiber measure, mu_G = mu_K (x) mu_H.  Folding a unit exponent
and the dual datum's annihilator both use it.

The four diagonal blocks of a nondegenerate datum are then its torus, vector,
finite and free parts; the off-diagonal blocks carry no constant of their own
and are dropped (a torus direction reached only through RT is the one
exception: structure._torus_factor finds it, and the vector part's engine
reports it in place of a finite vector factor, with no ascent).
structure.analyze is the one routine that splits a datum.  One presence
test decides the split: a sector is present when the domain or a target
has it or carries a scale other than 1 for it.  Every absent sector shares
one empty part, built on the constant group _EMPTY; a datum with one
present sector is its own part, with nothing built; and one path builds
every other part from the maps' diagonal blocks.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import Degenerate, NotProper
from .groups import UNIT_HAAR, ElementaryGroup, HaarRecord, LatticeSubgroup
from .homs import (BlockHom, ClosedSubgroup, Datum, _connected_rows,
                   _nonzero_blocks, discrete_image_lattice, image_is_open,
                   is_proper, is_surjective, joint_kernel)
from .intmat import (congruence_kernel, det_rational, diagonal_of, from_columns,
                     identity, integer_kernel, rational_kernel,
                     row_hermite_form, smith_normal_form, solve_rational,
                     unimodular_inverse)


def _fold_haar(haar: HaarRecord, other: str, keeps_other: int, keeps_f: int) -> HaarRecord:
    """haar for a group that keeps the sector whose scale is `other`
    (z_point or torus_total) and the finite sector as keeps_other and keeps_f
    say: the two sectors' mass is preserved, and the scale of one that is
    gone folds into the survivor so scalar() stays honest."""
    if keeps_other and keeps_f:
        return haar
    scale = getattr(haar, other)
    if keeps_other:
        if haar.f_point == 1:
            return haar
        return replace(haar, **{other: scale * haar.f_point, "f_point": Fraction(1)})
    if scale == 1:
        return haar
    return replace(haar, **{other: Fraction(1), "f_point": scale * haar.f_point})


def corestrict_open(h: BlockHom) -> Optional[BlockHom]:
    """h onto its image: h itself when h is onto, None when the image is
    not open, and otherwise h corestricted onto the image, the full vector
    and torus sectors times discrete_image_lattice(h).  Each discrete output
    is rewritten in that lattice's adapted coordinates (LatticeSubgroup.adapted)."""
    if not image_is_open(h):
        return None
    cod = h.codomain
    orders = cod.discrete_orders()
    if not orders:
        return h
    lattice = discrete_image_lattice(h)
    if lattice == LatticeSubgroup.full(orders):
        return h
    free_cols, _, tors_orders, coordinates = lattice.adapted()
    c_new, k_new = len(free_cols), len(tors_orders)
    # restricting Haar measure keeps the discrete point masses
    new_cod = ElementaryGroup(a=cod.a, b=cod.b, c=c_new, torsion=tuple(tors_orders),
                              haar=_fold_haar(cod.haar, "z_point", c_new, k_new))
    c = h.domain.c
    cols = ([[row[i] for row in h.ZZ] + [row[i] for row in h.ZF] for i in range(c)]
            + [[0] * cod.c + [row[i] for row in h.FF] for i in range(h.domain.k)])
    coords = list(map(coordinates, cols))
    return BlockHom(h.domain, new_cod, RR=h.RR, RT=h.RT, TT=h.TT, ZR=h.ZR,
                    ZT=h.ZT, FT=h.FT,
                    ZZ=[[z[r] for z in coords[:c]] for r in range(c_new)],
                    ZF=[[z[r] for z in coords[:c]] for r in range(c_new, c_new + k_new)],
                    FF=[[z[r] for z in coords[c:]] for r in range(c_new, c_new + k_new)])


def kernel_embedding(h: BlockHom) -> BlockHom:
    """Inclusion of an elementary model of ker h into h's domain, mixing
    blocks included, for any h with an open image (Degenerate otherwise).

    corestrict_open first takes h onto its image H, which moves no kernel.
    Then the lifted connected map [[RR, 0], [RT, TT]] is onto, and every
    discrete point of the kernel has a connected lift through one section S
    of it.  The model's identity component is R^a_n x T^b_n: the
    tangent vectors that move x, each with its torus part (the elimination
    runs with the torus coordinates first), and the integer kernel of TT.
    Its component group is Z^c_n x F_n: the points (n, m, u) with ZZ m = 0
    and ZF m + FF u = 0 mod the target orders, n the integer point the
    lifted torus rows land on, modulo the lifts of the covering kernel (the
    units of Z^b and the order vectors of F), reduced by one Smith form.  A
    cyclic generator of order s is lifted to an element (0, q/s, 0, u) of
    order s.

    The Haar record is Weil's fiber measure, mu_G = mu_K (x) mu_H.  h maps
    the identity component of G onto that of H, so K maps onto the kernel of
    the induced map of component groups, where every point weighs 1: the
    blocks ZR, ZT, ZF and FT move points and no density, so they never enter
    the measure.  What is left is the Lebesgue jacobian |det [B | S]| of the
    lifted connected map, B the model's connected columns, and the record's
    scalar is scalar(G) |det [B | S]| / scalar(H).  It sits on the model's
    first sector among R, T, Z and F, on F for the trivial model.
    """
    h = corestrict_open(h)
    if h is None:
        raise Degenerate("kernel model needs an open image; a non-open image "
                         "already forces an infinite constant at any finite exponent")
    g, cod = h.domain, h.codomain
    a, b, c, k = g.a, g.b, g.c, g.k

    # identity component, and the jacobian; conn is in the coordinates (t, x)
    conn = _connected_rows(h)
    tangent = rational_kernel(conn) if conn else identity(a + b)
    vector = [v[b:] + v[:b] for v in tangent if any(v[b:])]
    torus = integer_kernel(h.TT) if h.TT else identity(b)
    section = [s[b:] + s[:b] for s in (solve_rational(conn, e)
                                       for e in identity(len(conn)))]
    cols = vector + [[0] * a + col for col in torus] + section
    jac = abs(det_rational(from_columns(cols, a + b))) if cols else Fraction(1)

    # component group: the units of n, then a basis of the (m, u); the lifts
    # of the covering kernel in those coordinates go through one Smith form
    rows = [zz + [0] * (k + cod.k) for zz in h.ZZ]
    rows += [zf + ff + [-e * (j == r) for j in range(cod.k)]
             for r, (zf, ff, e) in enumerate(zip(h.ZF, h.FF, cod.torsion))]
    discrete = [v[:c + k] for v in (integer_kernel(rows) if rows else identity(c + k))]
    points = [row + [0] * (c + k) for row in identity(cod.b)]
    points += [[0] * cod.b + v for v in discrete]
    rel = [[row[i] for row in h.TT] + [0] * len(discrete) for i in range(b)]
    for i, d in enumerate(g.torsion):
        order = [0] * c + [d * (j == i) for j in range(k)]
        coords = solve_rational(from_columns(discrete, c + k), order) if discrete else []
        rel.append([int(x) for x in [d * row[i] for row in h.FT] + coords])
    left, dmat, right = smith_normal_form(from_columns(rel, len(points)))
    diag, inverse = diagonal_of(dmat), unimodular_inverse(left)
    free, cyclic, chain = [], [], []
    for i in range(len(points)):
        s = diag[i] if i < len(diag) else 0
        if s == 1:
            continue
        point = [sum(row[i] * x for row, x in zip(inverse, col)) for col in zip(*points)]
        n, m, u = point[:cod.b], point[cod.b:cod.b + c], point[cod.b + c:]
        if s:
            cyclic.append([Fraction(row[i], s) for row in right[:b]] + u)
            chain.append(s)
            continue
        y = [-sum(map(operator.mul, zr, m)) for zr in h.ZR]
        y += [ni - sum(map(operator.mul, zt, m)) - sum(map(operator.mul, ft, u))
              for ni, zt, ft in zip(n, h.ZT, h.FT)]
        free.append([sum(map(operator.mul, y, row)) for row in from_columns(section, a + b)]
                    + m + u)

    scale = g.haar.scalar() * jac / cod.haar.scalar()
    field = ("vector_scale" if vector else "torus_total" if torus
             else "z_point" if free else "f_point")
    model = ElementaryGroup(a=len(vector), b=len(torus), c=len(free),
                            torsion=tuple(chain),
                            haar=UNIT_HAAR if scale == 1 else HaarRecord(**{field: scale}))
    xt, xtm = a + b, a + b + c
    return BlockHom(model, g, **_nonzero_blocks(
        RR=from_columns([v[:a] for v in vector], a),
        RT=from_columns([v[a:] for v in vector], b),
        TT=from_columns(torus, b),
        ZR=from_columns([z[:a] for z in free], a),
        ZT=from_columns([z[a:xt] for z in free], b),
        ZZ=from_columns([z[xt:xtm] for z in free], c),
        ZF=from_columns([z[xtm:] for z in free], k),
        FT=from_columns([f[:b] for f in cyclic], b),
        FF=from_columns([f[b:] for f in cyclic], k)))


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


def _characters(h: BlockHom) -> List[List[int]]:
    """The characters h pulls back from its target's torus rows, then its
    finite rows, in the coordinates Z^b x F-hat of the dual's discrete
    sector: TT[s] + [d_i FT[s][i]] and [0]^b + [d_i FF[r][i] / e_r], d the
    domain's orders and e the target's."""
    g = h.domain
    orders = g.torsion
    if not orders:
        return h.TT
    out = [row + [x.numerator * (d // x.denominator) for x, d in zip(ft, orders)]
           for row, ft in zip(h.TT, h.FT)]
    zeros = [0] * g.b
    for ff, e in zip(h.FF, h.codomain.torsion):
        out.append(zeros + [d * x // e for x, d in zip(ff, orders)])
    return out


# The blocks out of the vector and free sectors, which a map keeps when its
# domain is quotiented by a compact subgroup.
_KEPT_BLOCKS = ("RR", "RT", "ZR", "ZT", "ZZ", "ZF")


def _quotient(g: ElementaryGroup, ann: LatticeSubgroup, homs: Sequence[BlockHom],
              chars: Sequence[List[List[int]]]):
    """(G/N, the maps in homs factored through G/N, the quotient map) for a
    compact subgroup N of g that every map kills, given by ann, the discrete
    part of its annihilator; chars[j] is _characters(homs[j])."""
    free_cols, tors_cols, tors_orders, coordinates = ann.adapted()
    c_new, k_new = len(free_cols), len(tors_orders)
    # the pushforward keeps the compact sectors' mass torus_total |F| f_point,
    # so f_point takes the factor |F| / |F'| of the finite sector's shrinking
    haar = g.haar
    components = g.finite_order // math.prod(tors_orders)
    if components != 1:
        haar = replace(haar, f_point=haar.f_point * components)
    haar = _fold_haar(haar, "torus_total", c_new, k_new)
    new_domain = ElementaryGroup(a=g.a, b=c_new, c=g.c, torsion=tuple(tors_orders),
                                 haar=haar)
    kept = _KEPT_BLOCKS if g.a or g.c else ()
    new_homs = []
    for h, hchars in zip(homs, chars):
        coords = list(map(coordinates, hchars))
        if None in coords:
            raise Degenerate("a map does not kill the subgroup being quotiented by")
        cb = h.codomain.b
        blocks = {}
        for name in kept:
            blk = getattr(h, name)
            if any(map(any, blk)):
                blocks[name] = blk
        if k_new:
            blocks["TT"] = [z[:c_new] for z in coords[:cb]]
            blocks["FT"] = [[Fraction(x, s) for x, s in zip(z[c_new:], tors_orders)]
                            for z in coords[:cb]]
            blocks["FF"] = [[e * x // s for x, s in zip(z[c_new:], tors_orders)]
                            for z, e in zip(coords[cb:], h.codomain.torsion)]
        else:
            blocks["TT"] = coords[:cb]
        new_homs.append(BlockHom(new_domain, h.codomain, **blocks))
    b, orders = g.b, g.torsion
    quotient_map = BlockHom(
        g, new_domain, RR=identity(g.a), ZZ=identity(g.c),
        TT=[col[:b] for col in free_cols],
        FT=[[Fraction(x, d) for x, d in zip(col[b:], orders)]
            for col in free_cols] if orders else None,
        FF=[[s * x // d for x, d in zip(col[b:], orders)]
            for col, s in zip(tors_cols, tors_orders)] if orders else None)
    return new_domain, new_homs, quotient_map


def _quotient_by_joint_kernel(d: Datum):
    """The datum on G/N, N the compact joint kernel, the quotient map and
    the ledger note; None when N is trivial.  N lies in T^b x F and is known
    through its annihilator there, the lattice spanned by the characters the
    maps pull back and the order vectors of F-hat: N is trivial exactly when
    that is all of Z^b x F-hat.  The note's generator count is the
    lattice's rank, the number of rows of its Hermite form."""
    g = d.domain
    width = g.b + g.k
    if not width:
        return None
    chars = [_characters(h) for h in d.homs]
    rows = [ch for hchars in chars for ch in hchars]
    rows += [[0] * (g.b + i) + [order] + [0] * (g.k - i - 1)
             for i, order in enumerate(g.torsion)]
    basis = row_hermite_form(rows)
    if basis == identity(width):
        return None
    ann = LatticeSubgroup._canonical((0,) * g.b + g.torsion, basis)
    new_domain, new_homs, quotient_map = _quotient(g, ann, d.homs, chars)
    # the kernel's identity component is the torus dimension the quotient loses
    note = (f"quotiented the domain by its compact joint kernel "
            f"(lie rank {g.b - new_domain.b}, {len(basis)} discrete generators); "
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

    Quotients the domain by the compact joint kernel, then puts each map
    through corestrict_open, which decides its openness once.  A non-open
    image is left alone with a ledger warning: corestriction there would
    change the constant (and for finite exponents the constant is infinite
    anyway).  When no map moves, the datum comes back as it is.  Idempotent.

    The quotient leaves a trivial joint kernel and every corestricted map is
    onto, so the first non-open image is the only obstruction left; the
    result records it, as "map {pos} is not surjective".  No kernel is
    built: properness and the quotient are read off the maps' blocks.
    """
    report = is_proper(d)
    if not report:
        raise NotProper(report.reason)
    ledger: List[str] = []
    cur = d
    quotient_map = None
    quotiented = _quotient_by_joint_kernel(d)
    if quotiented is not None:
        cur, quotient_map, note = quotiented
        ledger.append(note)
    homs = []
    obstruction = None
    for pos, h in enumerate(cur.homs):
        onto = corestrict_open(h)
        if onto is None:
            ledger.append(f"map {pos}: image is not open in {h.codomain.describe()}; "
                          f"left in place (a finite exponent there forces an "
                          f"infinite constant)")
            obstruction = obstruction or f"map {pos} is not surjective"
            onto = h
        elif onto is not h:
            ledger.append(f"map {pos}: codomain corestricted to its open image "
                          f"{onto.codomain.describe()}, open-subgroup measure "
                          f"(discrete point masses kept)")
        homs.append(onto)
    if any(map(operator.is_not, homs, cur.homs)):
        cur = Datum(cur.domain, homs, cur.exponents)
    return NondegenerateResult(cur, tuple(ledger), quotient_map, obstruction)


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


# The group and map of the part of an absent sector.  Both are immutable,
# like UNIT_HAAR, and only _sector_parts builds on _EMPTY, so a part whose
# domain is _EMPTY is known to be trivial at unit scales.
_EMPTY = ElementaryGroup()
_ZERO = BlockHom(_EMPTY, _EMPTY)


def _absent(g: ElementaryGroup, dim: str, scale: str) -> bool:
    """Whether g has no sector `dim` and a unit Haar scale `scale`.  Most
    groups share UNIT_HAAR, which is known to be 1 without a comparison."""
    return not getattr(g, dim) and (g.haar is UNIT_HAAR or getattr(g.haar, scale) == 1)


def _sector_parts(d: Datum) -> Tuple[Datum, Datum, Datum, Datum]:
    """The torus, vector, finite and free diagonal-block data of a
    nondegenerate datum, in that order.

    Each part keeps its own sector's Haar scale; off-diagonal blocks are
    dropped (they do not contribute a factor of their own).  Every absent
    sector (see the module docstring) gets one shared part, the zero maps
    _ZERO on _EMPTY.  A datum with one present sector is its own part.
    Otherwise each present part, one present only through a scale
    included, takes every map's diagonal block.
    """
    targets = d.targets
    present = [not (_absent(d.domain, dim, scale)
                    and all(_absent(t, dim, scale) for t in targets))
               for dim, scale, _ in _PARTS]
    empty = Datum(_EMPTY, [_ZERO] * d.J, d.exponents)
    if sum(present) == 1:
        return tuple(d if here else empty for here in present)
    parts = []
    for here, (dim, scale, block) in zip(present, _PARTS):
        if not here:
            parts.append(empty)
            continue
        dom = _sector_group(d.domain, dim, scale)
        homs = [BlockHom(dom, _sector_group(h.codomain, dim, scale),
                         **{block: getattr(h, block)}) for h in d.homs]
        parts.append(Datum(dom, homs, d.exponents))
    return tuple(parts)


def _sector_group(g: ElementaryGroup, dim: str, scale: str) -> ElementaryGroup:
    """g's sector `dim` with its Haar scale `scale`."""
    q = getattr(g.haar, scale)
    haar = UNIT_HAAR if q == 1 else HaarRecord(**{scale: q})
    return ElementaryGroup(**{dim: getattr(g, dim)}, haar=haar)

"""Block homomorphisms between elementary groups, data, and kernels.

A continuous hom R^a x T^b x Z^c x F -> R^a' x T^b' x Z^c' x F' is forced to
kill every sector pair ruled out by continuity or compactness (T -> R, T -> Z,
T -> F', F -> R, F -> Z, R -> Z, R -> F').  What survives is nine blocks:

    x' = RR x + ZR m
    t' = RT x + TT t + ZT m + FT u     (mod 1)
    m' = ZZ m
    u' = ZF m + FF u                   (mod target orders)

Only rational RR, RT, ZR, ZT, FT entries are admitted.  That makes every
image closed and every kernel computation exact integer linear algebra;
irrational slopes would put closedness of images beyond what floating point
can certify, so they are rejected at the type boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .errors import BadExponent, EmptyDatum, IrrationalEntry, NotWellDefined, ShapeMismatch
from .exact import ExactValue
from .groups import ElementaryGroup, LatticeSubgroup, dual_group
from .intmat import (
    clear_denominators,
    congruence_kernel,
    diagonal_of,
    from_columns,
    hermite_basis,
    identity,
    integer_kernel,
    mat_add,
    mat_vec,
    matmul,
    rational_kernel,
    rational_rank,
    smith_normal_form,
    solve_rational,
    solve_semi_integer,
    transpose,
)


def _frac_entry(x) -> Fraction:
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise IrrationalEntry(f"float entry {x!r} is not exact; pass an int or a Fraction")
    try:
        return Fraction(x)
    except (TypeError, ValueError) as exc:
        raise IrrationalEntry(f"entry {x!r} is not rational") from exc


def _int_entry(x, name):
    if type(x) is int:
        return x
    q = _frac_entry(x)
    if q.denominator != 1:
        raise NotWellDefined(f"block {name} needs integer entries, got {x!r}")
    return int(q)


def _checked_shape(out, nrows, ncols, name):
    if len(out) != nrows or any(len(r) != ncols for r in out):
        raise ShapeMismatch(f"block {name} must be {nrows}x{ncols}")
    return out


def _rational_matrix(rows, nrows, ncols, name):
    if rows is None:
        return [[Fraction(0)] * ncols for _ in range(nrows)]
    return _checked_shape([[_frac_entry(x) for x in row] for row in rows],
                          nrows, ncols, name)


def _torus_matrix(rows, nrows, ncols, name):
    """A rational block into the torus, entries reduced into [0, 1)."""
    if rows is None:
        return _rational_matrix(rows, nrows, ncols, name)
    return [[q if 0 <= q.numerator < q.denominator else q % 1 for q in row]
            for row in _rational_matrix(rows, nrows, ncols, name)]


def _integer_matrix(rows, nrows, ncols, name):
    if rows is None:
        return [[0] * ncols for _ in range(nrows)]
    return _checked_shape([[_int_entry(x, name) for x in row] for row in rows],
                          nrows, ncols, name)


class GroupElement(NamedTuple):
    """Element of R^a x T^b x Z^c x F; t holds a rational lift of the torus part."""

    x: Tuple[Fraction, ...]
    t: Tuple[Fraction, ...]
    m: Tuple[int, ...]
    u: Tuple[int, ...]

    def flat(self) -> List[Fraction]:
        return [*self.x, *self.t, *map(Fraction, self.m), *map(Fraction, self.u)]


# The nine blocks, and those that map one sector into another; a
# sector-diagonal hom has all of the latter zero.
BLOCKS = ("RR", "RT", "TT", "ZR", "ZT", "ZZ", "ZF", "FT", "FF")
MIXING_BLOCKS = ("RT", "ZR", "ZT", "ZF", "FT")


class BlockHom:
    """Hom between elementary groups, stored as the nine sector blocks."""

    __slots__ = ("domain", "codomain", "RR", "RT", "TT", "ZR", "ZT", "ZZ", "ZF", "FT", "FF")

    def __init__(self, domain: ElementaryGroup, codomain: ElementaryGroup,
                 RR=None, RT=None, TT=None, ZR=None, ZT=None, ZZ=None,
                 ZF=None, FT=None, FF=None):
        self.domain = domain
        self.codomain = codomain
        a, b, c, k = domain.a, domain.b, domain.c, domain.k
        a2, b2, c2, k2 = codomain.a, codomain.b, codomain.c, codomain.k
        self.RR = _rational_matrix(RR, a2, a, "RR")
        self.RT = _rational_matrix(RT, b2, a, "RT")
        self.TT = _integer_matrix(TT, b2, b, "TT")
        self.ZR = _rational_matrix(ZR, a2, c, "ZR")
        self.ZT = _torus_matrix(ZT, b2, c, "ZT")
        self.ZZ = _integer_matrix(ZZ, c2, c, "ZZ")
        self.ZF = _integer_matrix(ZF, k2, c, "ZF")
        self.FT = _torus_matrix(FT, b2, k, "FT")
        self.FF = _integer_matrix(FF, k2, k, "FF")
        for i, d in enumerate(domain.torsion):
            for r in range(b2):
                if d % self.FT[r][i].denominator:
                    raise NotWellDefined(
                        f"FT[{r}][{i}] must have denominator dividing the source order {d}")
            for r in range(k2):
                if (d * self.FF[r][i]) % codomain.torsion[r]:
                    raise NotWellDefined(
                        f"FF column {i} is not annihilated by its source order {d} mod target orders")
        for r, d2 in enumerate(codomain.torsion):
            self.ZF[r] = [v % d2 for v in self.ZF[r]]
            self.FF[r] = [v % d2 for v in self.FF[r]]

    @classmethod
    def identity(cls, g: ElementaryGroup) -> "BlockHom":
        return cls(g, g, RR=identity(g.a), TT=identity(g.b), ZZ=identity(g.c), FF=identity(g.k))

    @classmethod
    def zero(cls, domain: ElementaryGroup, codomain: ElementaryGroup) -> "BlockHom":
        return cls(domain, codomain)

    def blocks(self):
        return {name: getattr(self, name) for name in BLOCKS}

    def __eq__(self, other):
        return (isinstance(other, BlockHom)
                and self.domain == other.domain and self.codomain == other.codomain
                and all(getattr(self, name) == getattr(other, name) for name in BLOCKS))

    def __hash__(self):
        return hash((self.domain, self.codomain,
                     tuple(tuple(map(tuple, getattr(self, name))) for name in sorted(BLOCKS))))

    def __repr__(self):
        nz = [key for key, v in self.blocks().items() if any(any(row) for row in v)]
        return f"BlockHom({self.domain.describe()} -> {self.codomain.describe()}, blocks={nz or 'zero'})"

    def apply(self, el: GroupElement) -> GroupElement:
        if (len(el.x), len(el.t), len(el.m), len(el.u)) != (
                self.domain.a, self.domain.b, self.domain.c, self.domain.k):
            raise ShapeMismatch("element does not live in the domain")
        x2 = [sum((r[i] * el.x[i] for i in range(len(el.x))), Fraction(0))
              + sum((z[i] * el.m[i] for i in range(len(el.m))), Fraction(0))
              for r, z in zip(self.RR, self.ZR)]
        t2 = []
        for r in range(self.codomain.b):
            v = (sum((self.RT[r][i] * el.x[i] for i in range(len(el.x))), Fraction(0))
                 + sum((Fraction(self.TT[r][i] * el.t[i]) for i in range(len(el.t))), Fraction(0))
                 + sum((self.ZT[r][i] * el.m[i] for i in range(len(el.m))), Fraction(0))
                 + sum((self.FT[r][i] * el.u[i] for i in range(len(el.u))), Fraction(0)))
            t2.append(v % 1)
        m2 = [sum(self.ZZ[r][i] * el.m[i] for i in range(len(el.m)))
              for r in range(self.codomain.c)]
        u2 = []
        for r in range(self.codomain.k):
            v = (sum(self.ZF[r][i] * el.m[i] for i in range(len(el.m)))
                 + sum(self.FF[r][i] * el.u[i] for i in range(len(el.u))))
            u2.append(v % self.codomain.torsion[r])
        return GroupElement(tuple(x2), tuple(t2), tuple(m2), tuple(u2))

    def compose(self, inner: "BlockHom") -> "BlockHom":
        """self o inner; inner's codomain must equal self's domain."""
        if inner.codomain != self.domain:
            raise ShapeMismatch("composition needs matching middle group")
        f, g = self, inner

        # A product over an empty middle dimension comes back shape-degenerate
        # ([] or rows of length 0) even though the true block is a nonempty
        # zero matrix; drop those and let the constructor rebuild the zeros.
        def tot(*products):
            live = [m for m in products if m and m[0]]
            if not live:
                return None
            out = live[0]
            for m in live[1:]:
                out = mat_add(out, m)
            return out

        return BlockHom(
            g.domain, f.codomain,
            RR=tot(matmul(f.RR, g.RR)),
            ZR=tot(matmul(f.RR, g.ZR), matmul(f.ZR, g.ZZ)),
            RT=tot(matmul(f.RT, g.RR), matmul(f.TT, g.RT)),
            TT=tot(matmul(f.TT, g.TT)),
            ZT=tot(matmul(f.RT, g.ZR), matmul(f.TT, g.ZT),
                   matmul(f.ZT, g.ZZ), matmul(f.FT, g.ZF)),
            ZZ=tot(matmul(f.ZZ, g.ZZ)),
            ZF=tot(matmul(f.ZF, g.ZZ), matmul(f.FF, g.ZF)),
            FT=tot(matmul(f.TT, g.FT), matmul(f.FT, g.FF)),
            FF=tot(matmul(f.FF, g.FF)),
        )


def adjoint_hom(h: BlockHom) -> BlockHom:
    """The dual hom between Pontryagin duals, arrows reversed.

    Obtained by regrouping the character pairing <h(g), eta> by source sector.
    The FF well-definedness congruences of h are exactly what makes the
    finite-sector blocks of the adjoint integral.
    """
    d_src = h.domain.torsion
    d_dst = h.codomain.torsion
    k, k2 = len(d_src), len(d_dst)
    ft = [[Fraction(h.ZF[r][i], d_dst[r]) for r in range(k2)] for i in range(h.domain.c)]
    zf = [[int(d_src[i] * h.FT[s][i]) for s in range(h.codomain.b)] for i in range(k)]
    ff = [[int(Fraction(d_src[i] * h.FF[r][i], d_dst[r])) for r in range(k2)] for i in range(k)]

    def opt(m):
        # an empty literal has lost its row count; None lets the constructor
        # rebuild the zero block at the right shape
        return m if m else None

    return BlockHom(
        dual_group(h.codomain), dual_group(h.domain),
        RR=opt(transpose(h.RR)),
        ZR=opt(transpose(h.RT)),
        RT=opt(transpose(h.ZR)),
        TT=opt(transpose(h.ZZ)),
        ZT=opt(transpose(h.ZT)),
        FT=opt(ft),
        ZZ=opt(transpose(h.TT)),
        ZF=opt(zf),
        FF=opt(ff),
    )


def conjugate_exponent(p: Optional[Fraction]) -> Optional[Fraction]:
    """p' with 1/p + 1/p' = 1; None stands for infinity."""
    if p is None:
        return Fraction(1)
    if p == 1:
        return None
    return p / (p - 1)


def parse_exponent(v) -> Optional[Fraction]:
    if v is None:
        return None
    if isinstance(v, str) and v.strip().lower() in ("inf", "infinity", "oo", "∞"):
        return None
    if isinstance(v, float) and math.isinf(v):
        return None
    q = _frac_entry(v)
    if q.numerator < q.denominator:
        raise BadExponent(f"exponent {v!r} is below 1")
    return q


@dataclass(frozen=True, eq=False)
class Datum:
    """(domain, maps out of it, exponents); exponent None means infinity."""

    domain: ElementaryGroup
    homs: Tuple[BlockHom, ...]
    exponents: Tuple[Optional[Fraction], ...]

    def __init__(self, domain, homs, exponents):
        homs = tuple(homs)
        if not homs:
            raise EmptyDatum(
                "a datum needs at least one map",
                resolution="with no maps the inequality reads mass(G) <= C; it holds "
                           "with finite C exactly when G is compact")
        exps = tuple(parse_exponent(p) for p in exponents)
        if len(exps) != len(homs):
            raise ShapeMismatch("one exponent per map is required")
        for h in homs:
            if h.domain is not domain and h.domain != domain:
                raise ShapeMismatch("every map must start at the datum's domain")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "homs", homs)
        object.__setattr__(self, "exponents", exps)

    def __eq__(self, other):
        return (isinstance(other, Datum) and self.domain == other.domain
                and self.homs == other.homs and self.exponents == other.exponents)

    @property
    def J(self) -> int:
        return len(self.homs)

    @property
    def targets(self) -> Tuple[ElementaryGroup, ...]:
        return tuple(h.codomain for h in self.homs)

    def reciprocal_exponents(self) -> Tuple[Fraction, ...]:
        return tuple(Fraction(0) if p is None else 1 / p for p in self.exponents)

    def conjugate_exponents(self) -> Tuple[Optional[Fraction], ...]:
        return tuple(conjugate_exponent(p) for p in self.exponents)

    def haar_factor(self) -> ExactValue:
        """m / prod_j m_j^(1/p_j), m the domain's Haar scale and m_j the j-th
        target's: the constant of this datum over its constant at unit
        scales."""
        val = ExactValue.of(self.domain.haar.scalar())
        for h, r in zip(self.homs, self.reciprocal_exponents()):
            if r:
                val = val / ExactValue.of(h.codomain.haar.scalar()) ** r
        return val


class ClosedSubgroup:
    """Closed subgroup: rational tangent directions plus discrete generators.

    lie spans a rational subspace of R^{a+b} (rational subspaces always have
    closed images in R^a x T^b) and gens are elements whose classes generate
    the rest.  Every closed subgroup showing up through rational block maps
    is of this shape.
    """

    __slots__ = ("group", "lie", "gens")

    def __init__(self, group: ElementaryGroup, lie: Sequence[Sequence[Fraction]],
                 gens: Sequence[GroupElement]):
        self.group = group
        self.lie = tuple(tuple(Fraction(x) for x in v) for v in lie)
        self.gens = tuple(gens)
        for v in self.lie:
            if len(v) != group.a + group.b:
                raise ShapeMismatch("tangent vectors live in R^{a+b}")

    def lie_rank(self) -> int:
        if not self.lie:
            return 0
        return rational_rank([list(v) for v in self.lie])

    def noncompact_rank(self) -> int:
        g = self.group
        cols = []
        for v in self.lie:
            cols.append(list(v[: g.a]) + [Fraction(0)] * g.c)
        for el in self.gens:
            cols.append(list(el.x) + [Fraction(v) for v in el.m])
        if not cols or g.a + g.c == 0:
            return 0
        return rational_rank(from_columns(cols, g.a + g.c))

    def is_compact(self) -> bool:
        return self.noncompact_rank() == 0

    def _gen_is_identity(self, el: GroupElement) -> bool:
        g = self.group
        return (all(v == 0 for v in el.x) and all(v % 1 == 0 for v in el.t)
                and all(v == 0 for v in el.m)
                and all(v % d == 0 for v, d in zip(el.u, g.torsion)))

    def is_trivial(self) -> bool:
        return not self.lie and all(self._gen_is_identity(el) for el in self.gens)

    def contains_element(self, el: GroupElement) -> bool:
        g = self.group
        n = g.a + g.b + g.c + g.k
        real_cols = [list(v) + [Fraction(0)] * (g.c + g.k) for v in self.lie]
        int_cols = [gen.flat() for gen in self.gens]
        for i in range(g.b):
            shift = [Fraction(0)] * n
            shift[g.a + i] = Fraction(1)
            int_cols.append(shift)
        for i, d in enumerate(g.torsion):
            shift = [Fraction(0)] * n
            shift[g.a + g.b + g.c + i] = Fraction(d)
            int_cols.append(shift)
        return solve_semi_integer(real_cols, int_cols, el.flat(), n)

    def contains(self, other: "ClosedSubgroup") -> bool:
        if other.group != self.group:
            raise ShapeMismatch("subgroups live in different groups")
        g = self.group
        for v in other.lie:
            if not self.lie:
                if any(x != 0 for x in v):
                    return False
            elif solve_rational(from_columns([list(w) for w in self.lie], g.a + g.b),
                                list(v)) is None:
                return False
        return all(self.contains_element(el) for el in other.gens)


def torus_kernel(tt: Sequence[Sequence[int]], b: int):
    """The kernel of t -> tt t (mod 1) on T^b, from one Smith form.

    Returns (lie, wound): lie are integer columns spanning the identity
    component, and wound lists (col, d), one per nonzero diagonal entry d,
    where col / d lies in the kernel.  Together they generate it, and
    len(wound) is the rank of tt.
    """
    if any(any(row) for row in tt):
        _, dmat, v = smith_normal_form(tt)
        diag = diagonal_of(dmat)
    else:
        diag, v = [], identity(b)
    lie, wound = [], []
    for i in range(b):
        col = [v[r][i] for r in range(b)]
        d = diag[i] if i < len(diag) else 0
        if d:
            wound.append((col, d))
        else:
            lie.append(col)
    return lie, wound


def _sector_kernel(domain: ElementaryGroup, homs: Sequence[BlockHom]) -> ClosedSubgroup:
    """The joint kernel of sector-diagonal maps: the product of the four
    sectors' kernels.  It has as many generators as the coupled elimination
    gives: the rank of the torus rows, the free kernel's rank and one per
    cyclic factor of the domain."""
    a, b, c, k = domain.a, domain.b, domain.c, domain.k
    lie: List[List[Fraction]] = []
    if a:
        rr = [row for h in homs for row in h.RR]
        zero_t = [Fraction(0)] * b
        lie = [v + zero_t for v in (rational_kernel(rr) if rr else identity(a))]
    gens = []
    x0, t0, m0, u0 = (Fraction(0),) * a, (Fraction(0),) * b, (0,) * c, (0,) * k
    if b:
        torus_lie, wound = torus_kernel([row for h in homs for row in h.TT], b)
        zero_x = [Fraction(0)] * a
        lie += [zero_x + col for col in torus_lie]
        gens += [GroupElement(x0, tuple(Fraction(v, d) for v in col), m0, u0)
                 for col, d in wound]
    if c:
        zz = [row for h in homs for row in h.ZZ]
        gens += [GroupElement(x0, t0, tuple(m), u0)
                 for m in (integer_kernel(zz) if zz else identity(c))]
    if k:
        ff = [row for h in homs for row in h.FF]
        orders = [d for h in homs for d in h.codomain.torsion]
        gens += [GroupElement(x0, t0, m0, tuple(u))
                 for u in (congruence_kernel(ff, orders) if ff else identity(k))]
    return ClosedSubgroup(domain, lie, gens)


def _stacked_kernel(domain: ElementaryGroup, homs: Sequence[BlockHom]) -> ClosedSubgroup:
    """The joint kernel of homs out of domain.

    Sector-diagonal maps get it sector by sector (_sector_kernel).  A nonzero
    mixing block couples the sectors, and then one elimination over all of
    them finds it: the left null space of the stacked connected-sector rows
    says which discrete elements have a common connected lift, an integer
    kernel collects those, and one rational solve per generator lifts it.
    """
    if not any(any(any(row) for row in getattr(h, name))
               for h in homs for name in MIXING_BLOCKS):
        return _sector_kernel(domain, homs)
    a, b, c, k = domain.a, domain.b, domain.c, domain.k
    # tangent part: exact vanishing of every connected-sector block row
    lie_rows = []
    for h in homs:
        for r in range(h.codomain.a):
            lie_rows.append(list(h.RR[r]) + [Fraction(0)] * b)
        for r in range(h.codomain.b):
            lie_rows.append(list(h.RT[r]) + [Fraction(v) for v in h.TT[r]])
    if a + b == 0:
        lie = []
    elif not lie_rows:
        lie = identity(a + b)
    else:
        lie = rational_kernel(lie_rows)

    # discrete part: unknowns (m, u, n_j, w_j); n_j is the integer vector the
    # lifted torus rows land on, w_j the multiple of each finite target order
    offs = []
    total = c + k
    for h in homs:
        offs.append(total)
        total += h.codomain.b + h.codomain.k
    if total == 0:
        return ClosedSubgroup(domain, lie, [])

    # existence of a common connected lift (x, t) for all homs at once is
    # governed by the left null space of the stacked connected-sector matrix
    seg = []
    pos = 0
    for h in homs:
        seg.append(pos)
        pos += h.codomain.a + h.codomain.b
    if a + b == 0:
        ells = identity(pos)
    elif not lie_rows:
        ells = []
    else:
        ells = rational_kernel(transpose(lie_rows))

    rows: List[List[Fraction]] = []
    for ell in ells:
        row = [Fraction(0)] * total
        for j, h in enumerate(homs):
            aj, bj = h.codomain.a, h.codomain.b
            lr = ell[seg[j]: seg[j] + aj]
            lt = ell[seg[j] + aj: seg[j] + aj + bj]
            for i in range(c):
                row[i] -= (sum((lr[s] * h.ZR[s][i] for s in range(aj)), Fraction(0))
                           + sum((lt[s] * h.ZT[s][i] for s in range(bj)), Fraction(0)))
            for i in range(k):
                row[c + i] -= sum((lt[s] * h.FT[s][i] for s in range(bj)), Fraction(0))
            for s in range(bj):
                row[offs[j] + s] += lt[s]
        rows.append(row)
    for j, h in enumerate(homs):
        bj, kj = h.codomain.b, h.codomain.k
        for r in range(h.codomain.c):
            row = [Fraction(0)] * total
            for i in range(c):
                row[i] = Fraction(h.ZZ[r][i])
            rows.append(row)
        for r in range(kj):
            row = [Fraction(0)] * total
            for i in range(c):
                row[i] = Fraction(h.ZF[r][i])
            for i in range(k):
                row[c + i] = Fraction(h.FF[r][i])
            row[offs[j] + bj + r] = Fraction(-h.codomain.torsion[r])
            rows.append(row)

    if rows:
        lattice = hermite_basis(integer_kernel([clear_denominators(row) for row in rows]), total)
    else:
        lattice = identity(total)

    gens = []
    for vec in lattice:
        m = list(vec[:c])
        u = list(vec[c: c + k])
        rhs = []
        for j, h in enumerate(homs):
            bj = h.codomain.b
            n_part = vec[offs[j]: offs[j] + bj]
            for r in range(h.codomain.a):
                rhs.append(-sum((h.ZR[r][i] * m[i] for i in range(c)), Fraction(0)))
            for r in range(bj):
                rhs.append(Fraction(n_part[r])
                           - sum((h.ZT[r][i] * m[i] for i in range(c)), Fraction(0))
                           - sum((h.FT[r][i] * u[i] for i in range(k)), Fraction(0)))
        if lie_rows:
            sol = solve_rational(lie_rows, rhs)
            if sol is None:
                raise RuntimeError("lattice vector lost its rational lift")
        else:
            sol = [Fraction(0)] * (a + b)
        gens.append(GroupElement(tuple(sol[:a]), tuple(sol[a:]), tuple(m), tuple(u)))
    return ClosedSubgroup(domain, lie, gens)


def kernel_info(h: BlockHom) -> ClosedSubgroup:
    """The kernel of h as a closed subgroup of its domain."""
    return _stacked_kernel(h.domain, [h])


def joint_kernel(d: Datum) -> ClosedSubgroup:
    return _stacked_kernel(d.domain, d.homs)


@dataclass(frozen=True)
class ProperReport:
    proper: bool
    reason: str
    kernel: ClosedSubgroup
    noncompact_rank: int

    def __bool__(self):
        return self.proper


def is_proper(d: Datum) -> ProperReport:
    """Properness of the joint map into the product of the targets.

    With rational blocks the joint image is automatically closed and the map
    automatically open onto it, so the one live criterion is compactness of
    the common kernel.
    """
    ker = joint_kernel(d)
    r = ker.noncompact_rank()
    if r:
        return ProperReport(False, f"joint kernel has noncompact rank {r}", ker, r)
    return ProperReport(True, "joint kernel compact; image closed and relatively open", ker, 0)


def image_is_open(h: BlockHom) -> bool:
    """True when h(G) is open in the codomain.

    A closed subgroup is open iff it contains the connected component, which
    pins down two checks: RR hits all of the target vector sector, and the
    fibre directions over x' = 0 (RT on ker RR, plus all of TT) span the
    target torus.  Discrete sources contribute countably many cosets and can
    never fill a positive-dimensional gap.
    """
    t = h.codomain
    if rational_rank(h.RR) != t.a:
        return False
    if t.b == 0:
        return True
    span = [[Fraction(v) for v in col] for col in transpose(h.TT)]
    if h.domain.a:
        if t.a == 0:
            ker = identity(h.domain.a)
        else:
            ker = rational_kernel(h.RR)
        for v in ker:
            span.append(mat_vec(h.RT, v))
    if not span:
        return False
    return rational_rank(span) == t.b


def discrete_image_lattice(h: BlockHom) -> LatticeSubgroup:
    """Projection of the image of h to the codomain's Z^c x F sector."""
    cod = h.codomain
    gens = []
    for i in range(h.domain.c):
        gens.append([h.ZZ[r][i] for r in range(cod.c)]
                    + [h.ZF[r][i] for r in range(cod.k)])
    for i in range(h.domain.k):
        gens.append([0] * cod.c + [h.FF[r][i] for r in range(cod.k)])
    return LatticeSubgroup.from_generators(cod.discrete_orders(), gens)


def is_surjective(h: BlockHom) -> bool:
    if not image_is_open(h):
        return False
    orders = h.codomain.discrete_orders()
    return not orders or discrete_image_lattice(h) == LatticeSubgroup.full(orders)

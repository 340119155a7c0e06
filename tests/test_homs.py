"""Block homomorphisms: validation, application, kernels, adjoints."""
import math
import random
from fractions import Fraction

import pytest

from blca.errors import (BadExponent, IrrationalEntry, NotWellDefined,
                         ShapeMismatch)
from blca.exact import ExactValue
from blca.groups import UNIT_HAAR, ElementaryGroup, HaarRecord, dual_group
from blca.homs import (BlockHom, ClosedSubgroup, Datum, GroupElement,
                       adjoint_hom, conjugate_exponent, image_is_open,
                       is_proper, is_surjective, joint_kernel, kernel_info,
                       parse_exponent)
from blca.subquot import _annihilator_of_compact_kernel

F = Fraction

R1 = ElementaryGroup(a=1)
R2 = ElementaryGroup(a=2)
T = ElementaryGroup(b=1)
T2 = ElementaryGroup(b=2)
Z = ElementaryGroup(c=1)
Z2g = ElementaryGroup(torsion=(2,))
Z4g = ElementaryGroup(torsion=(4,))


def element(g, x=(), t=(), m=(), u=()):
    """The element of g with the given sector components."""
    assert (len(x), len(t), len(m), len(u)) == (g.a, g.b, g.c, g.k)
    return GroupElement(tuple(map(F, x)), tuple(map(F, t)), tuple(m), tuple(u))


def test_block_shapes_checked():
    with pytest.raises(ShapeMismatch):
        BlockHom(R2, R1, RR=[[1]])
    with pytest.raises(ShapeMismatch):
        BlockHom(R1, R1, TT=[[1]])


def test_well_defined_torsion_checked():
    # T -> T must have an integer winding matrix
    with pytest.raises(NotWellDefined):
        BlockHom(T, T, TT=[[F(1, 2)]])
    # Z/2 -> Z/4 by 1 is not a homomorphism
    with pytest.raises(NotWellDefined):
        BlockHom(Z2g, Z4g, FF=[[1]])
    BlockHom(Z2g, Z4g, FF=[[2]])  # doubling is fine


def test_apply_mixed():
    g = ElementaryGroup(a=1, b=1, c=1, torsion=(2,))
    h = BlockHom(g, g, RR=[[F(2)]], TT=[[3]], ZZ=[[1]], ZT=[[F(1, 2)]],
                 FF=[[1]])
    x = element(g, x=(F(1, 2),), t=(F(1, 4),), m=(1,), u=(1,))
    y = h.apply(x)
    assert y.x == (F(1),)
    assert y.t == (F(1, 4),)  # 3*(1/4) + (1/2)*1 = 5/4 = 1/4 mod 1
    assert y.m == (1,)
    assert y.u == (1,)


def test_compose_matches_apply():
    g = ElementaryGroup(a=1, b=1)
    h1 = BlockHom(g, g, RR=[[F(2)]], TT=[[2]])
    h2 = BlockHom(g, g, RR=[[F(3)]], TT=[[1]], RT=[[F(1, 3)]])
    comp = h2.compose(h1)
    x = element(g, x=(F(1, 3),), t=(F(1, 8),))
    assert comp.apply(x) == h2.apply(h1.apply(x))


def test_identity_and_zero():
    g = ElementaryGroup(a=1, c=1, torsion=(3,))
    i = BlockHom.identity(g)
    x = element(g, x=(F(5),), m=(2,), u=(1,))
    assert i.apply(x) == x
    z = BlockHom.zero(g, R1)
    assert z.apply(x).x == (F(0),)


def test_kernel_info_doubling_torus():
    h = BlockHom(T, T, TT=[[2]])
    ker = kernel_info(h)
    assert isinstance(ker, ClosedSubgroup) and ker.group == T
    assert ker.is_compact()
    assert not ker.is_trivial()
    assert ker.lie_rank() == 0
    half = element(T, t=(F(1, 2),))
    quarter = element(T, t=(F(1, 4),))
    assert ker.contains_element(half)
    assert not ker.contains_element(quarter)
    assert kernel_info(BlockHom(T, T, TT=[[1]])).is_trivial()
    assert not kernel_info(BlockHom(R2, R1, RR=[[1, 1]])).is_compact()


def test_joint_kernel_shared_lift():
    # two identity maps on T jointly cut out only the trivial subgroup, even
    # though each map alone lifts any winding
    d = Datum(T, [BlockHom(T, T, TT=[[1]]), BlockHom(T, T, TT=[[1]])], [2, 2])
    assert joint_kernel(d).is_trivial()


def test_joint_kernel_diagonal_line():
    d = Datum(R2, [BlockHom(R2, R1, RR=[[1, 1]])], [2])
    k = joint_kernel(d)
    assert k.lie_rank() == 1
    assert not k.is_compact()
    anti = element(R2, x=(F(1), F(-1)))
    assert k.contains_element(anti)


def test_is_proper():
    # irrational-free windings: R -> T^2 along (1, 2) is not proper
    h = BlockHom(R1, T2, RT=[[F(1)], [F(2)]])
    rep = is_proper(Datum(R1, [h], [2]))
    assert not rep.proper
    ok = is_proper(Datum(R1, [BlockHom(R1, R1, RR=[[1]])], [2]))
    assert ok.proper


def test_surjectivity_and_openness():
    assert is_surjective(BlockHom(T, T, TT=[[2]]))
    assert not is_surjective(BlockHom(Z, Z, ZZ=[[2]]))
    assert image_is_open(BlockHom(Z, Z, ZZ=[[2]]))
    assert not image_is_open(BlockHom(Z, R1, ZR=[[F(1)]]))


def test_adjoint_involution():
    g = ElementaryGroup(a=1, b=1, haar=HaarRecord(torus_total=F(3)))
    h = BlockHom(g, g, RR=[[F(2)]], TT=[[5]], RT=[[F(7)]])
    back = adjoint_hom(adjoint_hom(h))
    assert back.RR == h.RR and back.TT == h.TT and back.RT == h.RT
    assert back.domain == h.domain and back.codomain == h.codomain


def test_adjoint_transposes():
    h = BlockHom(R2, R1, RR=[[F(1), F(2)]])
    adj = adjoint_hom(h)
    assert adj.RR == [[F(1)], [F(2)]]
    assert adj.domain == ElementaryGroup(a=1)


CHAINS = [(), (2,), (3,), (4,), (2, 2), (2, 4), (6,)]


def random_group(rnd):
    return ElementaryGroup(a=rnd.randint(0, 2), b=rnd.randint(0, 2),
                           c=rnd.randint(0, 2), torsion=rnd.choice(CHAINS))


def random_hom(rnd, dom, cod):
    """A random well-defined hom: every one of the nine blocks is drawn, FT
    with denominators dividing the source orders and FF columns killed by
    their source orders."""
    def q():
        return F(rnd.randint(-3, 3), rnd.randint(1, 3))

    def mat(rows, cols, entry):
        return [[entry(r, i) for i in range(cols)] for r in range(rows)]

    d_src, d_dst = dom.torsion, cod.torsion
    return BlockHom(
        dom, cod,
        RR=mat(cod.a, dom.a, lambda r, i: q()),
        RT=mat(cod.b, dom.a, lambda r, i: q()),
        TT=mat(cod.b, dom.b, lambda r, i: rnd.randint(-2, 2)),
        ZR=mat(cod.a, dom.c, lambda r, i: q()),
        ZT=mat(cod.b, dom.c, lambda r, i: q()),
        ZZ=mat(cod.c, dom.c, lambda r, i: rnd.randint(-2, 2)),
        ZF=mat(cod.k, dom.c, lambda r, i: rnd.randrange(d_dst[r])),
        FT=mat(cod.b, dom.k, lambda r, i: F(rnd.randrange(d_src[i]), d_src[i])),
        FF=mat(cod.k, dom.k, lambda r, i: (d_dst[r] // math.gcd(d_src[i], d_dst[r]))
               * rnd.randrange(math.gcd(d_src[i], d_dst[r]))))


def random_element(rnd, g):
    return element(
        g, x=[F(rnd.randint(-5, 5), rnd.randint(1, 4)) for _ in range(g.a)],
        t=[F(rnd.randint(0, 11), 12) for _ in range(g.b)],
        m=[rnd.randint(-4, 4) for _ in range(g.c)],
        u=[rnd.randrange(d) for d in g.torsion])


def pairing(g, el, chi):
    """Phase of the character chi of G at el, as a fraction mod 1.  chi lives
    in dual_group(G) = R^a x T^c x Z^b x F: its torus part pairs with el's
    free part and its free part with el's torus part."""
    phase = (sum(x * y for x, y in zip(el.x, chi.x))
             + sum(t * n for t, n in zip(el.t, chi.m))
             + sum(m * s for m, s in zip(el.m, chi.t))
             + sum(F(u * v, d) for u, v, d in zip(el.u, chi.u, g.torsion)))
    return phase % 1


def test_adjoint_pairing_on_random_homs():
    # <h(g), chi> = <g, h*(chi)> on all nine blocks, ZF and FT included
    rnd = random.Random(20261018)
    seen = set()
    for _ in range(300):
        dom, cod = random_group(rnd), random_group(rnd)
        h = random_hom(rnd, dom, cod)
        adj = adjoint_hom(h)
        assert adj.domain == dual_group(cod) and adj.codomain == dual_group(dom)
        seen.update(k for k, v in h.blocks().items() if any(any(row) for row in v))
        for _ in range(3):
            el = random_element(rnd, dom)
            chi = random_element(rnd, adj.domain)
            assert pairing(cod, h.apply(el), chi) == pairing(dom, el, adj.apply(chi))
    assert seen == set(h.blocks())


def test_annihilator_lattice():
    T2 = ElementaryGroup(b=2)
    # the circle t -> (2t, 0) inside T^2: the characters killing it are those
    # vanishing on the first coordinate
    circle = ClosedSubgroup(T2, [[2, 0]], [])
    lat = _annihilator_of_compact_kernel(circle, T2)
    assert lat.orders == (0, 0)
    assert lat.contains([0, 1])
    assert not lat.contains([1, 0])
    # the point (1/2, 0) of order 2 is killed by the even characters
    half = GroupElement((), (F(1, 2), F(0)), (), ())
    lat2 = _annihilator_of_compact_kernel(ClosedSubgroup(T2, [], [half]), T2)
    assert lat2.contains([2, 0]) and lat2.contains([0, 1])
    assert not lat2.contains([1, 0])


def test_exponent_parsing():
    assert parse_exponent(None) is None
    assert parse_exponent("inf") is None
    assert parse_exponent(2) == F(2)
    assert parse_exponent("3/2") == F(3, 2)
    with pytest.raises(BadExponent):
        parse_exponent(F(1, 2))
    assert conjugate_exponent(F(3, 2)) == F(3)
    assert conjugate_exponent(F(1)) is None
    assert conjugate_exponent(None) == F(1)


def test_datum_validation():
    with pytest.raises(ShapeMismatch):
        Datum(T, [BlockHom(T, T, TT=[[1]])], [2, 2])
    with pytest.raises(BadExponent):
        Datum(T, [BlockHom(T, T, TT=[[1]])], [F(1, 2)])
    d = Datum(T, [BlockHom(T, T, TT=[[1]])], ["3/2"])
    assert d.exponents == (F(3, 2),)
    assert d.J == 1


def test_floats_rejected_like_the_file_format():
    import numpy as np
    with pytest.raises(IrrationalEntry):
        BlockHom(R1, R1, RR=[[0.5]])
    with pytest.raises(IrrationalEntry):
        BlockHom(R1, R1, RR=[[np.float64(2.0)]])
    with pytest.raises(IrrationalEntry):
        BlockHom(T, T, TT=[[1.0]])
    with pytest.raises(IrrationalEntry):
        Datum(T, [BlockHom(T, T, TT=[[1]])], [1.5])
    # a float infinity is still read as the exponent infinity
    assert parse_exponent(math.inf) is None


# -- the Haar factor ---------------------------------------------------------

def _ref_haar_factor(d):
    """m / prod_j m_j^(1/p_j) as a product over every record, unit scales
    included."""
    val = ExactValue.of(d.domain.haar.scalar())
    for h, r in zip(d.homs, d.reciprocal_exponents()):
        if r:
            val = val / ExactValue.of(h.codomain.haar.scalar()) ** r
    return val


def test_haar_factor_matches_the_full_product():
    # skipping the unit scales changes no value, and a datum at unit scales
    # gets the shared unit itself; scales 2 and 1/2 also multiply to 1
    rnd = random.Random(25)
    scales = (F(1), F(2), F(1, 2), F(1, 3), F(9, 4), F(5, 2))

    def group():
        haar = (UNIT_HAAR if rnd.random() < 0.5
                else HaarRecord(*(rnd.choice(scales) for _ in range(4))))
        return ElementaryGroup(a=rnd.randint(0, 1), b=rnd.randint(0, 1), haar=haar)
    seen = {"unit": 0, "scaled": 0, "one": 0}
    for _ in range(600):
        dom = group()
        homs = [BlockHom(dom, group()) for _ in range(rnd.randint(1, 4))]
        exps = [rnd.choice((None, 1, F(3, 2), F(2), F(5))) for _ in homs]
        d = Datum(dom, homs, exps)
        got, want = d.haar_factor(), _ref_haar_factor(d)
        assert got == want
        unit = all(g.haar.scalar() == 1 for g in (dom,) + d.targets)
        if unit:
            assert got is ExactValue.one()
        seen["unit"] += unit
        seen["scaled"] += not unit
        seen["one"] += not unit and got == 1
    assert seen["unit"] >= 60 and seen["scaled"] >= 300 and seen["one"] >= 20

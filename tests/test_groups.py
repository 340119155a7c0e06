"""Group records, Haar bookkeeping, duals, and lattice subgroups."""
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blca.errors import IrrationalEntry, ShapeMismatch
from blca.groups import (ElementaryGroup, HaarRecord, LatticeSubgroup,
                         dual_group)
from blca.intmat import (diagonal_of, from_columns, mat_vec, matmul,
                         smith_normal_form, solve_integer, transpose,
                         unimodular_inverse)

F = Fraction


def free_rank(lat):
    """Rank of the free part of a lattice subgroup: the rank of its preimage
    lattice less the number of finite coordinates."""
    return len(lat.basis) - sum(1 for d in lat.orders if d)


def finite_size(lat):
    """Order of the torsion part of a lattice subgroup, from its structure."""
    return math.prod(lat.structure()[2])


def image_under(lat, matrix, target_orders):
    """Image of a lattice subgroup under an integer matrix, in the ambient
    with target_orders."""
    return LatticeSubgroup.from_generators(target_orders,
                                           [mat_vec(matrix, col) for col in lat.basis])


def test_group_validation():
    with pytest.raises(ValueError):
        ElementaryGroup(a=-1)
    with pytest.raises(ValueError):
        ElementaryGroup(torsion=(1,))
    with pytest.raises(ValueError):
        ElementaryGroup(torsion=(4, 2))  # not a divisibility chain
    with pytest.raises(Exception):
        HaarRecord(vector_scale=F(0))


def test_group_records_validated_as_in_the_file_format():
    # dimensions and invariant factors are ints, not bools, floats or strings
    for bad in ({"a": True}, {"b": 1.0}, {"c": "2"}, {"torsion": (4.5,)},
                {"torsion": ("6",)}, {"torsion": (True,)}):
        with pytest.raises(ValueError):
            ElementaryGroup(**bad)
    # a scale is exact: a float is refused as inexact, a bool as not a number
    with pytest.raises(IrrationalEntry):
        HaarRecord(f_point=0.1)
    with pytest.raises(IrrationalEntry):
        HaarRecord(vector_scale=2.0)
    for name in ("vector_scale", "torus_total", "z_point", "f_point"):
        with pytest.raises(ValueError):
            HaarRecord(**{name: True})
    # ints, Fractions and 'n/d' strings are exact
    assert HaarRecord(2, F(1, 3), "5/2").z_point == F(5, 2)
    assert ElementaryGroup(torsion=[2, 4]).torsion == (2, 4)


def test_fraction_scale_kept_as_given():
    q = F(3, 7)
    assert HaarRecord(torus_total=q).torus_total is q
    assert ElementaryGroup().haar == HaarRecord()


def test_basic_predicates():
    g = ElementaryGroup(a=1, b=2, c=1, torsion=(2, 4))
    assert g.k == 2
    assert g.finite_order == 8
    assert not g.is_compact() and not g.is_trivial()
    assert ElementaryGroup(b=3, torsion=(5,)).is_compact()
    assert ElementaryGroup().is_trivial()
    assert g.discrete_orders() == (0, 2, 4)


def test_describe():
    g = ElementaryGroup(a=2, b=1, c=3, torsion=(2, 6))
    assert g.describe() == "R^2 x T^1 x Z^3 x Z/2 x Z/6"
    assert ElementaryGroup().describe() == "0"


def test_total_mass():
    g = ElementaryGroup(b=1, torsion=(3,),
                        haar=HaarRecord(torus_total=F(5), f_point=F(2)))
    assert g.total_mass() == 30
    assert ElementaryGroup(a=1).total_mass() is None
    assert ElementaryGroup(c=1).total_mass() is None


def test_haar_scalar():
    h = HaarRecord(F(2), F(3), F(5), F(7))
    assert h.scalar() == 210


def test_dual_group_swaps_sectors():
    g = ElementaryGroup(a=1, b=2, c=3, torsion=(2, 4))
    gd = dual_group(g)
    assert (gd.a, gd.b, gd.c, gd.torsion) == (1, 3, 2, (2, 4))


def test_dual_group_measures():
    # T(total 5) pairs with Z(point 1/5); finite counting pairs with
    # normalized counting
    t5 = ElementaryGroup(b=1, haar=HaarRecord(torus_total=F(5)))
    assert dual_group(t5).haar.z_point == F(1, 5)
    z2 = ElementaryGroup(torsion=(2,))
    assert dual_group(z2).haar.f_point == F(1, 2)
    assert dual_group(z2).total_mass() == 1


def test_dual_group_involution():
    g = ElementaryGroup(a=2, b=1, c=2, torsion=(3, 6),
                        haar=HaarRecord(F(2), F(3), F(5), F(7)))
    assert dual_group(dual_group(g)) == g


def test_lattice_from_generators_and_contains():
    # inside Z^2: the sublattice spanned by (2, 0) and (0, 3)
    lat = LatticeSubgroup.from_generators((0, 0), [[2, 0], [0, 3]])
    assert lat.contains([2, 3])
    assert lat.contains([4, 0])
    assert not lat.contains([1, 0])


def test_lattice_zero_and_full():
    z = LatticeSubgroup.from_generators((0, 4), [])
    f = LatticeSubgroup.full((0, 4))
    assert not z.contains([1, 0]) and z.contains([0, 0])
    assert f.contains([1, 3])
    assert finite_size(z) == 1 and finite_size(f) == 4


def test_full_lattice_is_canonical():
    for orders in ((), (2,), (0,), (0, 4), (2, 2, 4), (0, 0, 3, 6)):
        gens = [[1 if i == j else 0 for j in range(len(orders))]
                for i in range(len(orders))]
        assert LatticeSubgroup.full(orders) == LatticeSubgroup.from_generators(orders, gens)


def test_lattice_structure_mixed():
    # in Z x Z/4: the subgroup generated by (0, 2) and (1, 0)
    lat = LatticeSubgroup.from_generators((0, 4), [[0, 2], [1, 0]])
    free_cols, _, tors = lat.structure()
    assert len(free_cols) == 1
    assert tors == [2]
    assert free_rank(lat) == 1
    assert finite_size(lat) == 2


def test_lattice_structure_finite():
    lat = LatticeSubgroup.from_generators((2, 2), [[1, 0], [0, 1]])
    free_cols, _, tors = lat.structure()
    assert free_cols == [] and tors == [2, 2]
    assert finite_size(lat) == 4


def test_lattice_image_under():
    lat = LatticeSubgroup.full((2, 2))
    img = image_under(lat, [[1, 0]], (2,))
    assert img.contains([1])
    assert finite_size(img) == 2


def test_lattice_equality_is_canonical():
    a = LatticeSubgroup.from_generators((0, 0), [[2, 0], [0, 2], [2, 2]])
    b = LatticeSubgroup.from_generators((0, 0), [[0, 2], [2, 0]])
    assert a == b
    assert hash(a) == hash(b)


def test_lattice_rejects_a_basis_that_is_not_canonical():
    # (1, 1), (1, 0) spans all of Z^2, whose canonical basis is the identity;
    # coordinates found by forward substitution would miss (0, 1)
    for orders, basis in (((0, 0), [[1, 1], [1, 0]]),
                          ((0, 0), [[0, 1], [1, 0]]),   # pivots out of order
                          ((0, 0), [[-1, 0]]),          # negative pivot
                          ((0, 0), [[1, 2], [0, 2]]),   # entry above a pivot unreduced
                          ((0, 0), [[1, 0], [0, 0]]),   # zero column
                          ((4,), [[3]])):               # misses the order vector
        with pytest.raises(ValueError):
            LatticeSubgroup(orders, basis)
    with pytest.raises(ShapeMismatch):
        LatticeSubgroup((0, 0), [[1]])
    lat = LatticeSubgroup((0, 0), [[1, 0], [0, 1]])
    assert lat == LatticeSubgroup.from_generators((0, 0), [[1, 1], [1, 0]])
    assert lat.contains([0, 1]) and lat.adapted()[3]([0, 1]) == [0, 1]
    assert LatticeSubgroup((0, 4), [[1, 3], [0, 4]]) == LatticeSubgroup.from_generators(
        (0, 4), [[1, 3]])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=2, max_size=2),
                min_size=0, max_size=3))
def test_lattice_join_contains_both(gens):
    lat = LatticeSubgroup.from_generators((0, 0), gens)
    for g in gens:
        assert lat.contains(g)
    assert LatticeSubgroup.from_generators((0, 0), lat.basis) == lat


# -- the coordinate map -------------------------------------------------------
# _ref_structure is LatticeSubgroup.structure as it was before the coordinate
# map: each order relation solved for with its own Smith form.

def _ref_structure(lat):
    b = [list(col) for col in lat.basis]
    r = len(b)
    n = lat.n
    mod_idx = [i for i, d in enumerate(lat.orders) if d]
    if r == 0:
        return [], [], []
    bmat = from_columns(b, n)
    rel_cols = []
    for i in mod_idx:
        target = [lat.orders[i] if j == i else 0 for j in range(n)]
        sol = solve_integer(bmat, target)
        if sol is None:
            raise RuntimeError("order vector missing from stored lattice")
        rel_cols.append(sol)
    if not rel_cols:
        return [list(c) for c in lat.basis], [], []
    rel = from_columns(rel_cols, r)
    u, d, _ = smith_normal_form(rel)
    cols = transpose(matmul(bmat, unimodular_inverse(u)))
    k = len(rel_cols)
    diag = diagonal_of(d)
    free_cols = [list(cols[i]) for i in range(k, r)]
    torsion_cols = []
    torsion_orders = []
    for i in range(k):
        s = diag[i] if i < len(diag) else 0
        if s == 0:
            raise RuntimeError("order relations must have full rank")
        if s > 1:
            torsion_cols.append(list(cols[i]))
            torsion_orders.append(s)
    return free_cols, torsion_cols, torsion_orders


def _random_lattice(rnd):
    n = rnd.randint(1, 4)
    orders = tuple(rnd.choice((0, 0, 2, 3, 4, 6, 12)) for _ in range(n))
    gens = [[rnd.randint(-4, 4) for _ in range(n)] for _ in range(rnd.randint(0, 3))]
    return LatticeSubgroup.from_generators(orders, gens)


def test_coordinate_map_rebuilds_every_lattice_vector():
    rnd = random.Random(22)
    seen = {"mixed": 0, "outside": 0}
    for _ in range(400):
        lat = _random_lattice(rnd)
        free_cols, tors_cols, tors_orders, coordinates = lat.adapted()
        assert lat.structure() == (free_cols, tors_cols, tors_orders) == _ref_structure(lat)
        seen["mixed"] += bool(free_cols and tors_orders)
        order_cols = [[d if j == i else 0 for j in range(lat.n)]
                      for i, d in enumerate(lat.orders) if d]
        for _ in range(5):
            # a lattice vector, rebuilt modulo the order vectors
            coeffs = [rnd.randint(-5, 5) for _ in lat.basis]
            vec = [sum(x * col[i] for x, col in zip(coeffs, lat.basis))
                   for i in range(lat.n)]
            z = coordinates(vec)
            assert len(z) == len(free_cols) + len(tors_cols)
            assert all(0 <= x < s for x, s in zip(z[len(free_cols):], tors_orders))
            rebuilt = [sum(x * col[i] for x, col in zip(z, free_cols + tors_cols))
                       for i in range(lat.n)]
            for x, y, d in zip(vec, rebuilt, lat.orders):
                assert (x - y) % d == 0 if d else x == y
            # any vector: it has coordinates exactly when it is in the lattice
            vec = [rnd.randint(-6, 6) for _ in range(lat.n)]
            inside = solve_integer(from_columns(list(lat.basis) + order_cols, lat.n),
                                   vec) is not None if lat.basis else not any(vec)
            assert (coordinates(vec) is not None) == inside == lat.contains(vec)
            seen["outside"] += not inside
    assert seen["mixed"] >= 50 and seen["outside"] >= 200, seen

"""Group records, Haar bookkeeping, duals, and lattice subgroups."""
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blca.groups import (ElementaryGroup, HaarRecord, LatticeSubgroup,
                         dual_group)
from blca.intmat import mat_vec

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


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=2, max_size=2),
                min_size=0, max_size=3))
def test_lattice_join_contains_both(gens):
    lat = LatticeSubgroup.from_generators((0, 0), gens)
    for g in gens:
        assert lat.contains(g)
    assert LatticeSubgroup.from_generators((0, 0), lat.basis) == lat

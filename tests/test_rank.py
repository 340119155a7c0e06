"""Subspace growth conditions for free and torus data."""
import os
import sys
from dataclasses import replace
from fractions import Fraction
from math import lcm

import pytest

from blca.errors import ShapeMismatch
from blca.exact import ExactValue
from blca.groups import ElementaryGroup, HaarRecord, LatticeSubgroup, saturate_columns
from blca.homs import BlockHom, ClosedSubgroup, Datum
from blca.intmat import (clear_denominators, from_columns, mat_vec, matmul,
                         primitive_kernel, primitive_rref, rational_kernel,
                         rational_rank)
from blca.rank import (FAILS, HOLDS_CERTIFIED, LIKELY_HOLDS, RankVerdict,
                       _canon, _closed_sets, _decide, _full_space,
                       _prepare, _rank, _witness_sort_key, rank_condition)
from blca.structure import bl_constant
from blca.subquot import _annihilator_of_compact_kernel
from test_groups import free_rank

F = Fraction


def growth_index(g):
    """Rank of the noncompact part: a + c for a group, free rank for a
    lattice subgroup, noncompact rank for a closed subgroup."""
    if isinstance(g, ElementaryGroup):
        return g.a + g.c
    if isinstance(g, LatticeSubgroup):
        return free_rank(g)
    return g.noncompact_rank()

T = ElementaryGroup(b=1)
T2 = ElementaryGroup(b=2)


def test_growth_index_groups():
    assert growth_index(ElementaryGroup(a=2, b=1, c=3, torsion=(2,))) == 5
    assert growth_index(ElementaryGroup(b=4, torsion=(8,))) == 0
    assert growth_index(LatticeSubgroup.from_generators((0, 4), [[2, 1]])) == 1
    sub = ClosedSubgroup(ElementaryGroup(a=1, b=1), [[F(1), F(0)]], [])
    assert growth_index(sub) == 1


def test_rank_condition_identity_holds():
    v = rank_condition([[[1]], [[1]]], [2, 2])
    assert v.status == HOLDS_CERTIFIED
    assert v.ok and bool(v)


def test_rank_condition_axes_fails_with_witness():
    maps = [[[1, 0]], [[0, 1]]]
    v = rank_condition(maps, [2, 2], dim=2)
    assert v.status == FAILS
    assert v.witness is not None
    # verify the witness exactly: growth of the subspace beats the sum of
    # image growths over p
    basis = [list(w) for w in v.witness]
    dim_w = rational_rank(basis)
    spent = sum(F(1, 2) * rational_rank([mat_vec(m, w) for w in basis])
                for m in maps)
    assert F(dim_w) > spent


def test_rank_condition_young_holds():
    maps = [[[1, 0]], [[0, 1]], [[1, 1]]]
    v = rank_condition(maps, [F(3, 2)] * 3, dim=2)
    assert v.ok


def test_rank_condition_zero_dim():
    v = rank_condition([], [], dim=0)
    assert v.status == HOLDS_CERTIFIED


def test_rank_condition_p_infinite_contributes_nothing():
    # with both exponents infinite nothing can pay for growth
    v = rank_condition([[[1]], [[1]]], [None, None], dim=1)
    assert v.status == FAILS


def test_rank_condition_shape_guard():
    with pytest.raises(ShapeMismatch):
        rank_condition([[[1]]], [2, 2])
    with pytest.raises(ShapeMismatch):
        rank_condition([[[1, 0]], [[1]]], [2, 2])
    with pytest.raises(ShapeMismatch):
        rank_condition([[[1, 0, 0]]], [2], dim=2)
    general = [[[1, 0, 0], [0, 1, 0]], [[0, 0, 1]]]
    for dim in (2, 4):
        with pytest.raises(ShapeMismatch):
            rank_condition(general, [2, 2], dim=dim)
    # maps without rows fix no width
    assert rank_condition([[], []], [2, 2], dim=2).status == FAILS


def test_homogeneity_check():
    # the verdict says whether n = sum_j rank(A_j)/p_j, on either route
    maps = [[[1, 0]], [[0, 1]], [[1, 1]]]
    assert rank_condition(maps, [F(3, 2)] * 3, dim=2).homogeneous
    low = rank_condition(maps, [2, 2, 2], dim=2)
    assert low.status == FAILS and not low.homogeneous
    high = rank_condition(maps, [F(4, 3)] * 3, dim=2)
    assert high.status == HOLDS_CERTIFIED and not high.homogeneous
    planes = [[[1, 0, 0], [0, 1, 0]], [[0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 0, 1]]]
    assert rank_condition(planes, [2, 2, 2], dim=3).homogeneous
    assert not rank_condition(planes, [3, 3, 3], dim=3).homogeneous
    assert rank_condition([], [], dim=0).homogeneous


def _torus_verdict(d: Datum) -> RankVerdict:
    return rank_condition([h.TT for h in d.homs], d.exponents, dim=d.domain.b,
                          torus=True)


def test_torus_holder_holds():
    d = Datum(T, [BlockHom(T, T, TT=[[1]]), BlockHom(T, T, TT=[[1]])], [2, 2])
    v = _torus_verdict(d)
    assert v.status == HOLDS_CERTIFIED and v.homogeneous
    assert "level" not in v.evidence


def test_torus_holder_certifies_past_the_completeness_rule():
    # four planes in Q^4: the closure terminates, but n = J = 4 and the
    # kernels are no chain, so only Hölder (sum_j 1/p_j <= 1) certifies
    maps = [[[1, 0, 0, 0], [0, 1, 0, 0]], [[0, 0, 1, 0], [0, 0, 0, 1]],
            [[1, 0, 1, 0], [0, 1, 0, 1]], [[1, 0, 2, 0], [0, 1, 0, 3]]]
    for q in (4, 5, None):
        v = rank_condition(maps, [q] * 4, dim=4, torus=True)
        assert v.status == HOLDS_CERTIFIED, q
        assert v.evidence["certificate"] == "Hölder: sum_j 1/p_j <= 1"
    assert rank_condition(maps, [3] * 4, dim=4, torus=True).status == LIKELY_HOLDS
    from blca.structure import _torus_factor
    T4 = ElementaryGroup(b=4)
    homs = [BlockHom(T4, T2, TT=m) for m in maps]
    assert _torus_factor(Datum(T4, homs, [4] * 4))[0].certification == "exact"
    assert _torus_factor(Datum(T4, homs, [3] * 4))[0].certification == "heuristic"


def test_torus_young3_fails_at_a_point_near_one():
    homs = [BlockHom(T2, T, TT=[[1, 0]]), BlockHom(T2, T, TT=[[0, 1]]),
            BlockHom(T2, T, TT=[[1, 1]])]
    bad = _torus_verdict(Datum(T2, homs, [F(21, 20)] * 3))
    # Q^2 has deficit 2 - 60/21 < 0, so the zero subspace violates
    assert bad.status == FAILS and bad.witness == ()
    assert bad.evidence["level"] == F(-6, 7)
    assert _torus_verdict(Datum(T2, homs, [2, 2, 2])).status == HOLDS_CERTIFIED


def test_torus_doubling_datum_is_one():
    from blca.structure import _torus_factor
    d = Datum(T, [BlockHom(T, T, TT=[[1]]), BlockHom(T, T, TT=[[2]])], [2, 2])
    f = _torus_factor(d)[0]
    assert (f.kind, f.exact, f.certification) == ("FINITE", ExactValue.one(), "exact")


def test_torus_witness_lives_in_the_domain():
    # four identity maps T -> T at 21/20: the witness is the zero subspace
    # of Q^1, not a line of the annihilator's Q^3
    from blca.structure import _torus_factor
    d = Datum(T, [BlockHom(T, T, TT=[[1]])] * 4, [F(21, 20)] * 4)
    f = _torus_factor(d)[0]
    assert (f.kind, f.witness) == ("INFINITE", ())


# -- the torus factor against the annihilator-side reference ----------------
# The torus factor was once decided on the annihilator side: the annihilator
# of the graph of the stacked maps in Z^(sum_j b_j), with the coordinate
# projections restricted to it, at the conjugate exponents.  That route is
# kept here as the reference.

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _dual_rank_reference(d: Datum) -> RankVerdict:
    """The rank verdict of the pure-torus datum d on the annihilator side."""
    graph = ClosedSubgroup(
        ElementaryGroup(b=sum(h.codomain.b for h in d.homs)),
        [[h.TT[r][i] for h in d.homs for r in range(h.codomain.b)]
         for i in range(d.domain.b)], [])
    basis = [list(c) for c in _annihilator_of_compact_kernel(graph, graph.group).basis]
    if not basis:
        return RankVerdict(HOLDS_CERTIFIED)
    proj, off = [], 0
    for h in d.homs:
        proj.append([[F(v[off + s]) for v in basis] for s in range(h.codomain.b)])
        off += h.codomain.b
    return rank_condition(proj, d.conjugate_exponents())


def _torus_status(d: Datum) -> str:
    """The pipeline's torus factor, read back as a rank verdict status."""
    from blca.structure import _torus_factor
    f = _torus_factor(d)[0]
    return {("INFINITE", "certified"): FAILS, ("FINITE", "exact"): HOLDS_CERTIFIED,
            ("FINITE", "heuristic"): LIKELY_HOLDS}[f.kind, f.certification]


def _torus_datum(maps, p) -> Datum:
    dom = ElementaryGroup(b=len(maps[0][0]))
    return Datum(dom, [BlockHom(dom, ElementaryGroup(b=len(m)), TT=m) for m in maps], p)


def _general_rank_torus_data(rnd, count):
    """Seeded T^2 and T^3 data: 2 to 4 maps of full row rank 1..b, no joint
    kernel, annihilator rank sum_j b_j - b <= 4, exponents not necessarily
    homogeneous."""
    p_pool = [F(21, 20), F(6, 5), F(4, 3), F(3, 2), F(2), F(3), F(4)]
    out = []
    while len(out) < count:
        b = rnd.randint(2, 3)
        maps = []
        for _ in range(rnd.randint(2, 4)):
            k = rnd.randint(1, b)
            m = [[rnd.randint(-2, 2) for _ in range(b)] for _ in range(k)]
            if rational_rank(m) == k:
                maps.append(m)
        rows = [r for m in maps for r in m]
        if len(maps) < 2 or len(rows) - b > 4 or rational_rank(rows) < b:
            continue
        out.append(_torus_datum(maps, [rnd.choice(p_pool) for _ in maps]))
    return out


def test_torus_factor_matches_the_reference_on_rank_search():
    # the 208 torus items of the rank_search benchmark, seeds 1-2, blocks 0-3
    import blca
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    from bench import workloads
    items = [s for seed in (1, 2) for block in range(4)
             for s in workloads.rank_search_block(seed, block) if s["sector"] == "T"]
    assert len(items) == 208
    seen = {FAILS: 0, HOLDS_CERTIFIED: 0}
    for s in items:
        d = workloads.build_rank(blca, s)
        status = _dual_rank_reference(d).status
        assert _torus_status(d) == status, s
        seen[status] += 1
    assert min(seen.values()) >= 30, seen


def test_torus_factor_fails_where_the_reference_fails():
    import random
    seen = {FAILS: 0, "holds": 0}
    for d in _general_rank_torus_data(random.Random(20261019), 150):
        fails = _dual_rank_reference(d).status == FAILS
        assert (_torus_status(d) == FAILS) == fails, d
        seen[FAILS if fails else "holds"] += 1
    assert min(seen.values()) >= 30, seen


def test_torus_level_is_the_kernel_condition_on_the_perp():
    # U = W^perp turns the torus condition on the maps A_j at r_j = 1/p_j
    # into the level-0 condition on the maps K_j^T (K_j a basis of ker A_j)
    # at the exponents (R - 1)/r_j, R = sum_j r_j.  On T^3 with a map of
    # rank 1 and one of rank >= 2 both sides take the kernel closure, where
    # W^perp carries one closure onto the other.
    import random
    rnd = random.Random(20261020)
    seen = {FAILS: 0, HOLDS_CERTIFIED: 0, LIKELY_HOLDS: 0}
    checked = 0
    while checked < 200:
        maps = []
        for k in [1, 2] + [rnd.randint(1, 3) for _ in range(rnd.randint(1, 2))]:
            m = [[rnd.randint(-2, 2) for _ in range(3)] for _ in range(k)]
            if rational_rank(m) == k:
                maps.append(m)
        p = [rnd.choice([F(2), F(5, 2), F(3), F(4), F(6)]) for _ in maps]
        recips = [1 / q for q in p]
        excess = sum(recips) - 1
        if (len(maps) < 3 or min(map(len, maps)) > 1 or max(map(len, maps)) < 2
                or rational_rank([r for m in maps for r in m]) < 3
                or any(excess < r for r in recips)):
            continue
        kernels = [[list(v) for v in rational_kernel(m)] for m in maps]
        perp = rank_condition(kernels, [excess / r for r in recips], dim=3)
        assert rank_condition(maps, p, dim=3, torus=True).status == perp.status, (maps, p)
        seen[perp.status] += 1
        checked += 1
    assert min(seen.values()) >= 20, seen


def test_verdict_truthiness():
    assert RankVerdict(HOLDS_CERTIFIED)
    assert RankVerdict(LIKELY_HOLDS)
    assert not RankVerdict(FAILS)


# -- the rank-one route against brute force over index subsets --------------

def _frac_rank(rows):
    """Rank over Q by Fraction elimination, independent of the library."""
    m = [[F(x) for x in r] for r in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][c] != 0:
                f = m[r][c] / m[rank][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def _brute_force_rank_one(rows, recips, n):
    """Largest deficit over the flats ker(S) = {x : a_j x = 0, j in S}, and
    whether a proper nonzero flat has deficit exactly 0.

    dim ker(S) = n - rank(S), and ker(S) lies in ker a_j exactly when a_j is
    in the span of the rows of S; every subset S of indices is visited.
    """
    worst = None
    tight = False
    for mask in range(1 << len(rows)):
        chosen = [rows[j] for j in range(len(rows)) if mask >> j & 1]
        r_s = _frac_rank(chosen)
        spent = sum(r for row, r in zip(rows, recips)
                    if _frac_rank(chosen + [row]) > r_s)
        d = n - r_s - spent
        worst = d if worst is None else max(worst, d)
        tight = tight or (d == 0 and 0 < n - r_s < n)
    return worst, tight


def _random_rank_one_maps(rnd, n, J):
    """Maps given by multiples of one row each (proportional rows, zero rows,
    parallel kernels), with that row, or zero for a zero map."""
    maps, rows = [], []
    for _ in range(J):
        row = [rnd.randint(-2, 2) for _ in range(n)]
        if rows and rnd.random() < 0.25:
            row = [2 * x for x in rnd.choice(rows)]
        scales = rnd.sample([1, -1, 2, 3, 0], rnd.randint(1, 3))
        maps.append([[s * x for x in row] for s in scales])
        rows.append(row if any(scales) else [0] * n)
    return maps, rows


def test_rank_one_route_matches_brute_force_over_subsets():
    import random
    rnd = random.Random(20261017)
    p_pool = [F(1), F(21, 20), F(4, 3), F(3, 2), F(2), F(3), None]
    seen = {FAILS: 0, HOLDS_CERTIFIED: 0, "critical": 0}
    for trial in range(150):
        n = rnd.randint(1, 4)
        J = rnd.randint(1, 6)
        maps, rows = _random_rank_one_maps(rnd, n, J)
        p = [rnd.choice(p_pool) for _ in range(J)]
        recips = [F(0) if q is None else 1 / q for q in p]
        verdict = rank_condition(maps, p, dim=n)
        worst, tight = _brute_force_rank_one(rows, recips, n)
        assert verdict.status == (FAILS if worst > 0 else HOLDS_CERTIFIED), trial
        assert verdict.evidence["max_deficit"] == worst
        seen[verdict.status] += 1
        if verdict.status == HOLDS_CERTIFIED:
            assert (verdict.critical is not None) == tight, trial
            seen["critical"] += tight
        if verdict.critical is not None:
            basis = [list(w) for w in verdict.critical]
            spent = sum(r * _frac_rank([mat_vec(m, w) for w in basis])
                        for m, r in zip(maps, recips))
            assert 0 < len(basis) == _frac_rank(basis) < n
            assert spent == len(basis), "the critical subspace must be tight"
        if verdict.status == FAILS:
            basis = [list(w) for w in verdict.witness]
            dim_w = _frac_rank(basis)
            spent = sum(r * _frac_rank([mat_vec(m, w) for w in basis])
                        for m, r in zip(maps, recips))
            assert dim_w > 0 and F(dim_w) > spent, "witness must verify exactly"
    assert seen[FAILS] > 10 and seen[HOLDS_CERTIFIED] > 10 and seen["critical"] >= 1


def test_rank_one_route_evidence():
    maps = [[[1, 0, 0]], [[0, 1, 0]], [[0, 0, 1]], [[1, 1, 1], [2, 2, 2]]]
    v = rank_condition(maps, [F(4, 3)] * 4, dim=3)
    assert v.status == HOLDS_CERTIFIED
    assert v.evidence["max_deficit"] == 0
    assert v.evidence["flats"] == 1 + 4 + 6 + 1  # Q^3, planes, lines, 0
    assert "Barthe" in v.evidence["certificate"]
    assert "closure_size" not in v.evidence


def test_certified_closure_draws_no_samples():
    # rank-two maps on Q^3: the closure terminates and n <= 3 certifies
    maps = [[[1, 0, 0], [0, 1, 0]], [[0, 1, 0], [0, 0, 1]],
            [[1, 0, 0], [0, 0, 1]]]
    v = rank_condition(maps, [F(3, 2)] * 3, dim=3)
    assert v.status == HOLDS_CERTIFIED
    assert v.evidence["closure_terminated"]
    assert "closure of kernel lattice complete" in v.evidence["certificate"]


def test_uncertified_closure_is_likely_holds(monkeypatch):
    # rank-three maps on Q^4 with kernels through e1, e2, e3, e4 and
    # (1, 1, 1, 1): a projective frame, whose join/meet lattice is infinite,
    # so the closure cannot terminate and no theorem certifies what it saw
    maps = [[[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
            [[1, -1, 0, 0], [1, 0, -1, 0], [1, 0, 0, -1]]]
    # the same frame in Q^3: n <= 3 certifies only a terminated closure
    frame3 = [[[0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 0, 1]],
              [[1, 0, 0], [0, 1, 0]], [[1, -1, 0], [1, 0, -1]]]
    import blca.rank
    with monkeypatch.context() as cut:
        cut.setattr(blca.rank, "_CLOSURE_DEPTH", 3)
        frame4 = rank_condition(maps, [F(15, 4)] * 5, dim=4)
    for v in (frame4, rank_condition(frame3, [F(8, 3)] * 4, dim=3)):
        assert v.status == LIKELY_HOLDS
        assert not v.evidence["closure_terminated"]
        assert "samples" not in v.evidence
        assert v.evidence["max_deficit"] <= 0


# -- saturated subspace names, independent of the echelon names ------------
# rank_condition names subspaces by echelon bases and saturates only what it
# reports; these references name every subspace by its saturated basis.

def _sum_space(s1, s2, n):
    return _canon(list(s1) + list(s2), n)


def _meet_space(s1, s2, n):
    if not s1 or not s2:
        return ()
    stacked = from_columns([list(c) for c in s1] + [[-x for x in c] for c in s2], n)
    vecs = []
    for coeff in rational_kernel(stacked):
        alpha = coeff[: len(s1)]
        vecs.append([sum(F(s1[i][r]) * alpha[i] for i in range(len(s1)))
                     for r in range(n)])
    return _canon(vecs, n)


def _deficit(space, maps, recips, n):
    """dim W - sum_j r_j dim(A_j W) by Fraction elimination, so that the
    references share no subspace arithmetic with the integer code under test."""
    if not space:
        return F(0)
    bmat = from_columns([list(c) for c in space], n)
    return F(len(space)) - sum(r * rational_rank(matmul(a_j, bmat))
                               for a_j, r in zip(maps, recips) if r)


def _least_critical(deficits, n):
    """The least proper nonzero subspace of deficit exactly 0, or None."""
    tight = [s for s, d in deficits if d == 0 and 0 < len(s) < n]
    return min(tight, key=_witness_sort_key) if tight else None


# -- the rank-one route against the meet-closure of the kernels -------------

def _meet_closure_rank_one(maps, p, n):
    """The rank-one route as a meet-closure over subspaces: every
    intersection of kernels, as a canonical basis, with its deficit.  The
    verdict is built from those subspaces alone, so it pins the witness,
    the critical subspace and the evidence the index-set route reports."""
    maps = [[[F(x) for x in row] for row in m] for m in maps]
    recips = [F(0) if q is None else 1 / F(q) for q in p]
    flats = [_full_space(n)]
    seen = set(flats)
    for m in maps:
        ker = _canon(rational_kernel(m), n) if m else _full_space(n)
        for f in list(flats):
            if f and any(any(row) for row in matmul(m, from_columns([list(c) for c in f], n))):
                meet = _meet_space(f, ker, n)
                if meet not in seen:
                    seen.add(meet)
                    flats.append(meet)
    deficits = [(f, _deficit(f, maps, recips, n)) for f in flats]
    evidence = {"flats": len(flats), "max_deficit": max(d for _, d in deficits)}
    violations = [f for f, d in deficits if d > 0]
    if violations:
        return FAILS, min(violations, key=_witness_sort_key), None, evidence
    evidence["certificate"] = (
        f"rank-one maps: Barthe's criterion checked exactly on all "
        f"{len(flats)} flats of the kernels")
    return HOLDS_CERTIFIED, None, _least_critical(deficits, n), evidence


def _random_rank_one_datum(rnd, n, J):
    """Rank-one maps with zero maps, empty maps, proportional multi-row maps,
    rational entries and parallel kernels, and exponents that need not be
    homogeneous, infinite ones included."""
    maps, rows = [], []
    for _ in range(J):
        kind = rnd.random()
        if kind < 0.08:
            maps.append([])
            continue
        row = [F(rnd.randint(-3, 3), rnd.choice([1, 1, 2, 3])) for _ in range(n)]
        if rows and kind < 0.35:
            row = [F(rnd.choice([-1, 2, 3]), rnd.choice([1, 2])) * x
                   for x in rnd.choice(rows)]
        rows.append(row)
        scales = [rnd.choice([0, 1, -1, 2, F(1, 3)]) for _ in range(rnd.randint(1, 3))]
        maps.append([[s * x for x in row] for s in scales])
    p = [rnd.choice([1, F(21, 20), F(4, 3), F(3, 2), 2, 3, 5, None]) for _ in range(J)]
    if len(rows) >= n and rnd.random() < 0.5:
        # exponent k/n on each of the k maps given by a row: tight flats appear
        p = [F(len(rows), n) if m else q for m, q in zip(maps, p)]
    return maps, p


def test_rank_one_route_matches_meet_closure():
    import random
    rnd = random.Random(7)
    seen = {FAILS: 0, HOLDS_CERTIFIED: 0, "critical": 0, "zero map": 0, "inf": 0}
    for trial in range(1200):
        n = rnd.randint(1, 4)
        J = rnd.randint(1, 6)
        maps, p = _random_rank_one_datum(rnd, n, J)
        verdict = rank_condition(maps, p, dim=n)
        status, witness, critical, evidence = _meet_closure_rank_one(maps, p, n)
        assert verdict.status == status, trial
        assert verdict.witness == witness, trial
        assert verdict.critical == critical, trial
        assert verdict.evidence == evidence, trial
        seen[status] += 1
        seen["critical"] += critical is not None
        seen["zero map"] += any(not any(any(r) for r in m) for m in maps)
        seen["inf"] += None in p
    assert min(seen.values()) >= 50, seen


# -- the rank-one route against its saturate-every-flat form ----------------
# The reference is the rank-one route as it was before witnesses went
# straight to a Hermite basis: it copies every entry into a Fraction, ranks
# every map by elimination, names each reported flat by the echelon form of
# its rational kernel and saturates that with saturate_columns, and always
# looks for a critical subspace.

def _ref_cut(covectors, n):
    """The echelon name of the subspace where every covector vanishes."""
    if not covectors:
        return _full_space(n)
    return tuple(map(tuple, primitive_rref(primitive_kernel(covectors))[0]))


def _ref_least(spaces, n):
    low = min(map(len, spaces))
    return min((tuple(map(tuple, saturate_columns(s, n))) for s in spaces if len(s) == low),
               key=_witness_sort_key)


def _ref_top_flats(rows, cands, n):
    top = max(r for _, r in cands)
    return [_ref_cut([row for j, row in enumerate(rows) if mask >> j & 1 and row is not None], n)
            for mask, r in cands if r == top]


def _ref_rank_one_verdict(maps, p, n, torus=False):
    maps = [[clear_denominators([F(x) for x in row]) for row in m] for m in maps]
    recips = [F(0) if q is None else 1 / F(q) for q in p]
    scale = lcm(*(r.denominator for r in recips))
    weights = [int(r * scale) for r in recips]
    ranks = [len(primitive_rref(m)[1]) for m in maps]
    assert max(ranks, default=0) <= 1
    whole = n * scale - sum(w * k for w, k in zip(weights, ranks))
    level = whole if torus else 0
    rows = [next((row for row in m if any(row)), None) for m in maps]
    flats = [(mask, r, (n - r) * scale
              - sum(w for j, w in enumerate(weights) if not mask >> j & 1))
             for mask, r in _closed_sets(rows)]
    evidence = {"flats": len(flats), "max_deficit": F(max(d for *_, d in flats), scale)}
    if level:
        evidence["level"] = F(level, scale)
    violations = [(mask, r) for mask, r, d in flats if d > level]
    if violations:
        return RankVerdict(FAILS, _ref_least(_ref_top_flats(rows, violations, n), n),
                           evidence, homogeneous=whole == 0)
    evidence["certificate"] = (
        f"rank-one maps: Barthe's criterion checked exactly on all "
        f"{len(flats)} flats of the kernels")
    tight = [(mask, r) for mask, r, d in flats if d == level and 0 < r < n]
    critical = _ref_least(_ref_top_flats(rows, tight, n), n) if tight else None
    return RankVerdict(HOLDS_CERTIFIED, None, evidence, critical, whole == 0)


def test_rank_one_route_matches_its_saturating_reference():
    import random
    rnd = random.Random(28)
    seen = {FAILS: 0, "torus " + FAILS: 0, "critical": 0, "torus critical": 0,
            "zero-row map": 0, "zero map": 0, "integer rows": 0, "nonzero witness": 0}
    for trial in range(400):
        n = rnd.randint(2, 4)
        maps, p = _random_rank_one_datum(rnd, n, rnd.randint(1, 6))
        if trial % 2:  # integer rows, as torus and free blocks come
            maps = [[clear_denominators(row) for row in m] for m in maps]
            seen["integer rows"] += 1
        for torus in (False, True):
            ref = _ref_rank_one_verdict(maps, p, n, torus)
            assert rank_condition(maps, p, dim=n, torus=torus) == ref, (trial, torus)
            # the torus and free factors: the same verdict without the split
            bare = _decide(_prepare(maps, p, n), torus=torus, split=False)
            assert bare == replace(ref, critical=None), (trial, torus)
            tag = "torus " if torus else ""
            seen[tag + FAILS] += ref.status == FAILS
            seen[tag + "critical"] += ref.critical is not None
            seen["nonzero witness"] += bool(ref.witness)
        seen["zero-row map"] += any(not m for m in maps)
        seen["zero map"] += any(m and not any(map(any, m)) for m in maps)
    assert seen[FAILS] >= 200 and seen["torus " + FAILS] >= 30, seen
    assert seen["critical"] >= 25 and seen["torus critical"] >= 60, seen
    assert seen["zero-row map"] >= 75 and seen["zero map"] >= 70, seen
    assert seen["nonzero witness"] >= 200, seen


def test_prepare_clears_every_input_kind_as_fractions():
    import numpy as np
    rows = [[1, -2, 0], [F(1, 2), F(-3), F(5, 3)], ["3/4", "-1", "0"], [0.5, 2.0, -0.25],
            [np.int64(4), np.int32(-6), np.int64(0)], [0, 0, 0], [F(0), 0, "0"],
            [1, F(2, 3), np.int64(5)], [True, False, 2]]
    for row in rows:
        cleared = _prepare([[row]], [2], 3).maps[0][0]
        assert cleared == clear_denominators([F(x) for x in row]), row
        assert all(type(x) is int for x in cleared), row
        assert rational_rank([cleared]) == _rank([cleared]), row
    maps = [[row] for row in rows] + [[], [rows[0], rows[1]], [rows[5], rows[6]]]
    prep = _prepare(maps, [3] * len(maps), 3)
    assert prep.ranks == [_rank(m) for m in prep.maps]
    as_fractions = [[[F(x) for x in row] for row in m] for m in maps]
    assert prep.maps == _prepare(as_fractions, [3] * len(maps), 3).maps
    rank_one = [m for m in maps if rational_rank([[F(x) for x in r] for r in m]) <= 1]
    for torus in (False, True):
        for p in ([2] * len(rank_one), [F(len(rank_one), 3)] * len(rank_one)):
            fracs = [[[F(x) for x in row] for row in m] for m in rank_one]
            assert (rank_condition(rank_one, p, dim=3, torus=torus)
                    == rank_condition(fracs, p, dim=3, torus=torus))


def test_numpy_integer_entries_do_not_wrap():
    # numpy integers, and Fractions with a numpy numerator or denominator,
    # become Python ints at the type boundaries (rank._cleared,
    # homs._frac_entry, and groups._positive_fraction for Haar scales); kept
    # as they were, the elimination would multiply in int32 or int64 and
    # wrap on these rows, and a Haar scale would not convert to Decimal
    import warnings

    import numpy as np
    rows = [(196608, 196609, 196608), (196609, 196608, 196608),
            (196609, 196609, 196608), (150000, 150000, 150000)]
    p = (1, 3, 3, 3)
    R3, R1 = ElementaryGroup(a=3), ElementaryGroup(a=1)
    want = bl_constant(Datum(R3, [BlockHom(R3, R1, RR=[list(r)]) for r in rows], p))
    kinds = [int]
    for w in (np.int32, np.int64):
        kinds += [w, lambda x, w=w: F(w(x), w(1)), lambda x, w=w: F(x, w(1)),
                  lambda x, w=w: F(w(x), 1)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for kind in kinds:
            maps = [[[kind(x) for x in row]] for row in rows]
            witness = rank_condition(maps, p).witness
            assert witness == ((0, 196608, -196609),), kind
            assert all(type(x) is int for x in witness[0]), kind
            d = Datum(R3, [BlockHom(R3, R1, RR=m) for m in maps], p)
            assert all(type(q.numerator) is type(q.denominator) is int
                       for h in d.homs for q in h.RR[0]), kind
            assert bl_constant(d).to_dict() == want.to_dict(), kind
        # a Haar scale past 2^40 on Z/2, with the identity map at p = 2
        Z2 = ElementaryGroup(torsion=(2,))
        scale = 2**40 + 15
        for given in (scale, np.int64(scale), F(np.int64(scale), np.int64(1))):
            g = ElementaryGroup(torsion=(2,), haar=HaarRecord(f_point=given))
            q = g.haar.f_point
            assert q == scale and type(q.numerator) is type(q.denominator) is int
            rep = bl_constant(Datum(g, [BlockHom(g, Z2, FF=[[1]])], [2]))
            assert str(rep.exact) == "2^(1/2) * 1099511627791", given


# -- the closure route against a closure of saturated names -----------------

def _saturated_closure(maps, p, n, depth):
    """Route (ii) with every sum and meet saturated and every ordered pair
    visited, stopping after a round that passes 2000 subspaces."""
    maps = [[[F(x) for x in row] for row in m] for m in maps]
    recips = [F(0) if q is None else 1 / F(q) for q in p]
    kernels = [_canon(rational_kernel(m), n) if m else _full_space(n) for m in maps]
    closure = list(dict.fromkeys([(), _full_space(n)] + kernels))
    seen = set(closure)
    terminated, rounds, frontier = True, 0, list(closure)
    for rounds in range(1, depth + 1):
        fresh, base = [], list(closure)
        for s in frontier:
            for t in base:
                if s != t:
                    for cand in (_sum_space(s, t, n), _meet_space(s, t, n)):
                        if cand not in seen:
                            seen.add(cand)
                            fresh.append(cand)
        if not fresh:
            break
        closure.extend(fresh)
        frontier = fresh
        if len(closure) > 2000:
            terminated = False
            break
    else:
        terminated = False
    deficits = [(s, _deficit(s, maps, recips, n)) for s in closure]
    evidence = {"closure_size": len(closure), "closure_terminated": terminated,
                "closure_rounds": rounds, "max_deficit": max(d for _, d in deficits)}
    violations = [s for s, d in deficits if d > 0]
    if violations:
        return FAILS, min(violations, key=_witness_sort_key), None, evidence
    by_dim = sorted(kernels, key=len)
    chain = all(len(_sum_space(big, small, n)) == len(big)
                for small, big in zip(by_dim, by_dim[1:]))
    if terminated and (n <= 3 or len(maps) <= 3 or chain):
        evidence["certificate"] = (
            f"closure of kernel lattice complete (n={n}, J={len(maps)}, chain={chain})")
        status = HOLDS_CERTIFIED
    else:
        evidence["note"] = "no violation found; completeness criterion not met"
        status = LIKELY_HOLDS
    return status, None, _least_critical(deficits, n), evidence


def test_closure_route_matches_saturated_closure(monkeypatch):
    import random

    import blca.rank
    rnd = random.Random(9)
    seen = {FAILS: 0, HOLDS_CERTIFIED: 0, LIKELY_HOLDS: 0, "critical": 0}
    for trial in range(150):
        n = rnd.randint(2, 4)
        J = rnd.randint(3, 5)
        maps = [[]]
        while all(rational_rank(m) <= 1 for m in maps):
            maps = [[[rnd.randint(-2, 2) for _ in range(n)]
                     for _ in range(rnd.randint(1, max(2, n - 1)))] for _ in range(J)]
        p = [rnd.choice([F(4, 3), F(3, 2), 2, F(5, 2), 3, None]) for _ in range(J)]
        if rnd.random() < 0.5:  # homogeneous exponents: tight subspaces appear
            p = [F(sum(rational_rank(m) for m in maps), n)] * J
        depth = rnd.randint(1, 3)
        monkeypatch.setattr(blca.rank, "_CLOSURE_DEPTH", depth)
        verdict = rank_condition(maps, p, dim=n)
        status, witness, critical, evidence = _saturated_closure(maps, p, n, depth)
        assert evidence["closure_size"] <= 2000, trial
        assert verdict.status == status, trial
        assert verdict.witness == witness, trial
        assert verdict.critical == critical, trial
        assert verdict.evidence == evidence, trial
        seen[status] += 1
        seen["critical"] += critical is not None
    assert min(seen.values()) >= 10, seen


def test_closure_saturates_only_reported_subspaces(monkeypatch):
    # the projective frames above report no witness and no critical subspace
    import blca.rank
    calls = []
    saturate = blca.rank.saturate_columns
    monkeypatch.setattr(blca.rank, "saturate_columns",
                        lambda *args: calls.append(args) or saturate(*args))
    frame3 = [[[0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 0, 1]],
              [[1, 0, 0], [0, 1, 0]], [[1, -1, 0], [1, 0, -1]]]
    v = rank_condition(frame3, [F(8, 3)] * 4, dim=3)
    assert v.critical is None and v.evidence["closure_size"] == 124
    assert calls == []
    v = rank_condition(frame3, [3] * 4, dim=3)  # only Q^3 violates
    assert v.status == FAILS and len(calls) == 1


def test_closure_stops_at_the_first_pair_past_its_cap():
    # checked only between rounds, the cap let one round of this closure
    # run on to 47275 subspaces
    maps = [[[-2, 1, -1]], [[-2, 2, 1]], [[2, 1, -1], [-2, 1, 2]],
            [[1, 2, -1]], [[1, -1, 1]]]
    v = rank_condition(maps, [2] * 5, dim=3)
    assert v.status == LIKELY_HOLDS
    assert not v.evidence["closure_terminated"]
    assert v.evidence["closure_size"] <= 2002

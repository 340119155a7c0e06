"""Exact integer and rational linear algebra underneath everything else."""
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blca.intmat import (clear_denominators, column_hermite_form,
                         congruence_kernel, det_rational, diagonal_of,
                         from_columns, hermite_basis, hstack, identity,
                         integer_kernel, matmul, mat_vec, primitive_kernel,
                         primitive_rref, rational_kernel, rational_rank,
                         rational_rref, row_hermite_form,
                         smith_normal_form, solve_integer, solve_rational,
                         transpose, unimodular_inverse)

F = Fraction

small_matrices = st.integers(0, 3).flatmap(
    lambda r: st.integers(0, 3).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-6, 6), min_size=c, max_size=c),
            min_size=r, max_size=r)))


def test_identity_and_zeros():
    assert identity(3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert identity(0) == []
    assert matmul(identity(2), [[3, 4], [5, 6]]) == [[3, 4], [5, 6]]


def test_clear_denominators():
    assert clear_denominators([2, -3, 0]) == [2, -3, 0]
    assert clear_denominators([F(1, 2), F(-2, 3), 1]) == [3, -4, 6]
    assert clear_denominators([F(0), 0]) == [0, 0]
    assert clear_denominators([]) == []
    # a row cleared together with its zero modulus keeps the modulus at 0
    assert clear_denominators([F(1, 4), F(1, 6), 0]) == [3, 2, 0]


def test_transpose_and_columns():
    m = [[1, 2, 3], [4, 5, 6]]
    assert transpose(m) == [[1, 4], [2, 5], [3, 6]]
    assert from_columns(transpose(m), 2) == m
    assert hstack([[1], [2]], [[3], [4]]) == [[1, 3], [2, 4]]


def test_mat_vec():
    assert mat_vec([[1, 2], [3, 4]], [5, 6]) == [17, 39]


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_smith_normal_form_reconstructs(m):
    u, d, v = smith_normal_form(m)
    assert matmul(matmul(u, m), v) == d
    diag = [x for x in diagonal_of(d) if x]
    # divisibility chain on the nonzero diagonal
    for x, y in zip(diag, diag[1:]):
        assert y % x == 0
    # off-diagonal entries vanish
    for i, row in enumerate(d):
        for j, e in enumerate(row):
            if i != j:
                assert e == 0
    # u and v are unimodular, and their inverses are integral
    assert abs(det_rational(u)) == 1 if u else True
    assert abs(det_rational(v)) == 1 if v else True
    for t in (u, v):
        assert matmul(unimodular_inverse(t), t) == identity(len(t))


def test_smith_normal_form_known():
    u, d, v = smith_normal_form([[2, 4], [6, 8]])
    assert diagonal_of(d) == [2, 4]


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_integer_kernel_annihilates(m):
    for k in integer_kernel(m):
        assert any(k)
        assert all(x == 0 for x in mat_vec(m, k))
    ncols = len(m[0]) if m else 0
    assert len(integer_kernel(m)) == ncols - rational_rank(m)


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_rational_kernel_annihilates(m):
    ker = rational_kernel(m)
    for k in ker:
        assert any(k)
        assert all(x == 0 for x in mat_vec(m, k))
    ncols = len(m[0]) if m else 0
    assert len(ker) == ncols - rational_rank(m)


def test_solve_integer_roundtrip():
    m = [[2, 0], [0, 3]]
    assert solve_integer(m, [4, 9]) == [2, 3]
    assert solve_integer(m, [1, 0]) is None
    assert solve_integer([[2, 3]], [1]) is not None


def test_solve_rational_roundtrip():
    m = [[F(1), F(2)], [F(3), F(4)]]
    x = solve_rational(m, [F(5), F(6)])
    assert mat_vec(m, x) == [F(5), F(6)]
    assert solve_rational([[1, 1], [1, 1]], [0, 1]) is None


def test_solve_rational_rejects_a_short_right_hand_side():
    with pytest.raises(ValueError):
        solve_rational([[1, 0], [0, 1]], [1])


def test_solve_integer_rejects_a_short_right_hand_side():
    with pytest.raises(ValueError):
        solve_integer([[1, 0], [0, 1]], [1])


def test_det_rational_rejects_a_non_square_matrix():
    with pytest.raises(ValueError):
        det_rational([[1, 2, 3], [4, 5, 6]])


def test_rational_rref_pivots():
    red, pivots = rational_rref([[F(0), F(2)], [F(0), F(4)]])
    assert pivots == [1]
    assert red[0] == [F(0), F(1)]


def test_primitive_rref_pivots():
    rows, pivots = primitive_rref([[0, -2, 4], [0, 1, -2], [3, 0, 1]])
    assert (rows, pivots) == ([[3, 0, 1], [0, 1, -2]], [0, 1])
    assert primitive_rref([]) == ([], [])
    assert primitive_kernel([[2, 4, 0], [0, 3, 6]]) == [[4, -2, 1]]


def _random_rational_matrix(rnd):
    """Up to 7 rows in Q^n, n <= 5 (tall and wide), with zero rows,
    duplicate rows, multiples and sums of earlier rows, and rational rows."""
    n = rnd.randint(1, 5)
    rows = []
    for _ in range(rnd.randint(0, 7)):
        kind = rnd.random()
        if kind < 0.12:
            row = [F(0)] * n
        elif rows and kind < 0.25:
            row = list(rnd.choice(rows))
        elif rows and kind < 0.4:
            c = F(rnd.choice([-3, -1, 2]), rnd.choice([1, 2]))
            row = [c * x + y for x, y in zip(rnd.choice(rows), rnd.choice(rows))]
        elif kind < 0.65:
            row = [F(rnd.randint(-4, 4), rnd.choice([1, 2, 3, 6])) for _ in range(n)]
        else:
            row = [F(rnd.randint(-6, 6)) for _ in range(n)]
        rows.append(row)
    return rows


# -- reference copies: the Gauss-Jordan elimination over Q that the rational
# routines ran before they eliminated fraction-free --------------------------

def _ref_rational_rows(m):
    return [[x if type(x) is F else F(x) for x in row] for row in m]


def _ref_gauss_jordan(a, ncols):
    nr = len(a)
    pivots = []
    det = F(1)
    for col in range(ncols):
        pr = len(pivots)
        if pr == nr:
            break
        piv = next((i for i in range(pr, nr) if a[i][col] != 0), None)
        if piv is None:
            continue
        if piv != pr:
            a[pr], a[piv] = a[piv], a[pr]
            det = -det
        inv = a[pr][col]
        det *= inv
        a[pr] = [x / inv for x in a[pr]]
        for i in range(nr):
            if i != pr and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[pr])]
        pivots.append(col)
    return pivots, det


def _ref_rational_rref(m):
    a = _ref_rational_rows(m)
    pivots, _ = _ref_gauss_jordan(a, len(a[0]) if a else 0)
    return a, pivots


def _ref_rational_rank(m):
    return len(_ref_rational_rref(m)[1])


def _ref_rational_kernel(m):
    nc = len(m[0]) if m else 0
    if nc == 0:
        return []
    rref, pivots = _ref_rational_rref(m)
    basis = []
    for f in [j for j in range(nc) if j not in pivots]:
        vec = [F(0)] * nc
        vec[f] = F(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rref[r][f]
        basis.append(vec)
    return basis


def _ref_solve_rational(m, b):
    nr = len(m)
    nc = len(m[0]) if m else 0
    if nr == 0:
        return [F(0)] * nc
    aug = [row + [F(bb)] for row, bb in zip(_ref_rational_rows(m), b)]
    rref, pivots = _ref_rational_rref(aug)
    if nc in pivots:
        return None
    x = [F(0)] * nc
    for r, pc in enumerate(pivots):
        x[pc] = rref[r][nc]
    return x


def _ref_det_rational(m):
    a = _ref_rational_rows(m)
    pivots, det = _ref_gauss_jordan(a, len(a))
    return det if len(pivots) == len(a) else F(0)


def _ref_unimodular_inverse(u):
    n = len(u)
    aug = [row + e for row, e in zip(_ref_rational_rows(u), identity(n))]
    _ref_gauss_jordan(aug, n)
    return [[int(x) for x in row[n:]] for row in aug]


def _same(got, want):
    """Equal values and equal types, entry by entry, through nested lists."""
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_same(g, w) for g, w in zip(got, want)))
    return type(got) is type(want) and got == want


def _random_unimodular(rnd, n):
    """The identity moved by random row additions, swaps and negations."""
    u = identity(n)
    for _ in range(rnd.randint(0, 3 * n)):
        i, k = rnd.randrange(n), rnd.randrange(n)
        if i == k:
            u[i] = [-x for x in u[i]]
        elif rnd.random() < 0.3:
            u[i], u[k] = u[k], u[i]
        else:
            c = rnd.choice([-3, -2, -1, 1, 2, 3])
            u[i] = [x + c * y for x, y in zip(u[i], u[k])]
    return u


def test_rational_routines_match_the_reference_copies():
    # all six rational routines against the Gauss-Jordan copies above, on
    # Fraction entries and, where a row is integral, on the same row as ints
    import random
    rnd = random.Random(20261020)
    seen = {"empty": 0, "zero row": 0, "tall": 0, "wide": 0, "rational": 0,
            "int entries": 0, "solvable": 0, "unsolvable": 0,
            "singular square": 0, "invertible square": 0}
    for trial in range(800):
        rat = _random_rational_matrix(rnd)
        mixed = [[int(x) if x.denominator == 1 and rnd.random() < 0.5 else x for x in row]
                 for row in rat]
        n = len(rat[0]) if rat else rnd.randint(0, 4)
        for m in (rat, mixed):
            assert rational_rank(m) == _ref_rational_rank(rat), trial
            assert _same(list(rational_rref(m)), list(_ref_rational_rref(rat))), trial
            assert _same(rational_kernel(m), _ref_rational_kernel(rat)), trial
        # a consistent right-hand side, and a random one
        x = [F(rnd.randint(-3, 3), rnd.choice([1, 2])) for _ in range(n)]
        for b in (mat_vec(rat, x), [F(rnd.randint(-3, 3), rnd.choice([1, 3])) for _ in rat]):
            got = solve_rational(mixed, b)
            assert _same(got, _ref_solve_rational(rat, b)), trial
            if got is not None:
                assert mat_vec(rat, got) == b, trial
            seen["solvable" if got is not None else "unsolvable"] += bool(rat)
        # a square matrix: this one's rows, topped up or cut to n
        square = (mixed + [[F(rnd.randint(-4, 4), rnd.choice([1, 2, 5])) for _ in range(n)]
                           for _ in range(n)])[:n]
        det = det_rational(square)
        assert _same(det, _ref_det_rational(square)), trial
        seen["singular square" if det == 0 else "invertible square"] += n > 0
        u = _random_unimodular(rnd, n) if n else []
        inv = unimodular_inverse(u)
        assert _same(inv, _ref_unimodular_inverse(u)), trial
        assert matmul(u, inv) == identity(n), trial
        seen["empty"] += not rat
        seen["zero row"] += any(not any(row) for row in rat)
        seen["tall"] += len(rat) > n > 0
        seen["wide"] += 0 < len(rat) < n
        seen["rational"] += any(x.denominator > 1 for row in rat for x in row)
        seen["int entries"] += any(type(x) is int for row in mixed for x in row)
    assert min(seen.values()) >= 25, seen
    # one row has rank 1 exactly when it is nonzero, an empty row included
    for m in ([[0, 0]], [[F(0), F(1, 2)]], [[]]):
        assert rational_rank(m) == _ref_rational_rank(m), m


def test_primitive_names_match_the_rational_forms():
    # each row cleared to integers on its own, as the rank checker does; the
    # rational forms come from the reference copies, since the rational
    # routines now run primitive_rref themselves
    import random
    rnd = random.Random(20261019)
    seen = {"empty": 0, "zero row": 0, "tall": 0, "wide": 0, "rational": 0, "pivot > 1": 0}
    for trial in range(600):
        rat = _random_rational_matrix(rnd)
        m = [clear_denominators(row) for row in rat]
        rows, pivots = primitive_rref(m)
        rref, rat_pivots = _ref_rational_rref(rat)
        assert pivots == rat_pivots, trial
        assert len(rows) == len(pivots), trial
        for row, pc, q in zip(rows, pivots, rref):
            assert row[pc] > 0 and gcd(*row) == 1, trial
            assert [F(x, row[pc]) for x in row] == q, trial
        ker, rat_ker = primitive_kernel(m), _ref_rational_kernel(rat)
        assert len(ker) == len(rat_ker), trial
        for v in ker:
            assert all(type(x) is int for x in v) and not any(mat_vec(m, v)), trial
        if ker:
            assert _ref_rational_rank(ker + rat_ker) == len(rat_ker), trial
        n = len(m[0]) if m else 0
        seen["empty"] += not m
        seen["zero row"] += any(not any(row) for row in m)
        seen["tall"] += len(m) > n > 0
        seen["wide"] += 0 < len(m) < n
        seen["rational"] += any(x.denominator > 1 for row in rat for x in row)
        seen["pivot > 1"] += any(row[pc] > 1 for row, pc in zip(rows, pivots))
    assert min(seen.values()) >= 25, seen


def test_det_rational():
    assert det_rational([[F(1, 2), F(0)], [F(0), F(4)]]) == 2
    assert det_rational([[1, 2], [2, 4]]) == 0
    assert det_rational([]) == 1
    # pivoting swaps the first two rows, which flips the sign
    assert det_rational([[0, 2], [3, 1]]) == -6
    assert det_rational([[0, 1, 0], [1, 0, 0], [0, 0, F(1, 2)]]) == F(-1, 2)


def test_hermite_forms():
    h = row_hermite_form([[0, 1], [1, 0]])
    assert h == [[1, 0], [0, 1]]
    c = column_hermite_form([[2, 4], [0, 0]])
    assert c[0][0] == 2
    basis = hermite_basis([[2, 0], [0, 3], [2, 3]], 2)
    # the three columns span a finite-index sublattice of Z^2
    assert len(basis) == 2


def test_hermite_basis_canonical():
    b1 = hermite_basis([[1, 0], [0, 1]], 2)
    b2 = hermite_basis([[1, 1], [0, 1], [1, 0]], 2)
    assert b1 == b2


def test_congruence_kernel_mod_lattice():
    # rows of the map, moduli of the targets: x -> 2x on Z/4 has kernel {0, 2}
    gens = congruence_kernel([[F(2)]], [F(1)])
    # generators of {x in Z : 2x in Z} = (1/1)Z scaled integrally; here the
    # call works with scaled coordinates, so just check closure
    for g in gens:
        assert (F(2) * g[0]) % 1 == 0
    # modulus 0: the rational row must vanish exactly, here 3x = 2y
    assert congruence_kernel([[F(1, 2), F(-1, 3)]], [0]) == [[2, 3]]


@settings(max_examples=40, deadline=None)
@given(small_matrices, st.lists(st.integers(-4, 4), min_size=0, max_size=3))
def test_solve_integer_sound(m, x):
    nc = len(m[0]) if m else 0
    if len(x) != nc:
        x = (x + [0] * nc)[:nc]
    b = mat_vec(m, x)
    got = solve_integer(m, b)
    assert got is not None
    assert mat_vec(m, got) == b

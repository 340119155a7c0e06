"""Exact integer and rational matrix algebra.

Matrices are row-major lists of lists.  Lattice routines take integers.  The
rational routines (`rational_rank`, `rational_rref`, `rational_kernel`,
`solve_rational`, `det_rational`) take int or `fractions.Fraction` entries,
clear each row to integers (which changes no row space) and eliminate
fraction-free with `primitive_rref`, or with Bareiss' elimination for the
determinant; they build `Fraction`s only in their results.  Nothing here is
clever about sparsity; the matrices in this package are tiny (dimensions
rarely above a dozen) and exactness plus determinism matter far more than
speed.

The Smith form uses a fixed pivot rule (smallest magnitude nonzero entry,
ties broken by lowest row then column index) so that transforms, witnesses and
canonical bases are reproducible across runs.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import List, Optional, Sequence, Tuple

IntMatrix = List[List[int]]
RatMatrix = List[List[Fraction]]


def identity(n: int) -> IntMatrix:
    """The n x n identity; its rows double as the unit vectors of Z^n."""
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def clear_denominators(vec: Sequence) -> List[int]:
    """The integer vector s * vec, s the lcm of the denominators of its
    entries (ints or Fractions)."""
    s = lcm(*(x.denominator for x in vec))
    return [x.numerator * (s // x.denominator) for x in vec]


def mat_copy(m: Sequence[Sequence[int]]) -> IntMatrix:
    return [list(row) for row in m]


def transpose(m: Sequence[Sequence]) -> list:
    if not m:
        return []
    return [list(col) for col in zip(*m)]


def matmul(a: Sequence[Sequence], b: Sequence[Sequence]) -> list:
    if a and b and len(a[0]) != len(b):
        raise ValueError("matmul shape mismatch")
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_vec(a: Sequence[Sequence], v: Sequence) -> list:
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def columns(m: Sequence[Sequence]) -> list:
    return transpose(m)


def from_columns(cols: Sequence[Sequence], nrows: Optional[int] = None) -> list:
    if not cols:
        return [[] for _ in range(nrows)] if nrows else []
    return transpose(cols)


def hstack(a: Sequence[Sequence], b: Sequence[Sequence]) -> list:
    if not a:
        return [list(r) for r in b]
    if not b:
        return [list(r) for r in a]
    return [list(ra) + list(rb) for ra, rb in zip(a, b)]


def mat_add(a: Sequence[Sequence], b: Sequence[Sequence]) -> list:
    if len(a) != len(b) or any(len(ra) != len(rb) for ra, rb in zip(a, b)):
        raise ValueError("mat_add shape mismatch")
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _nearest_quotient(x: int, p: int) -> int:
    q, r = divmod(x, p)
    if 2 * abs(r) > abs(p):
        q += 1
    return q


def smith_normal_form(m: Sequence[Sequence[int]]) -> Tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return unimodular (u, v) and diagonal d with u @ m @ v == d.

    Diagonal entries are nonnegative and each divides the next.  Pivot choice
    is the smallest-magnitude nonzero entry of the working submatrix, ties by
    lowest row index then lowest column index.
    """
    a = mat_copy(m)
    nr = len(a)
    nc = len(a[0]) if a else 0
    u = identity(nr)
    v = identity(nc)
    t = 0
    while t < min(nr, nc):
        best = None
        pi = pj = -1
        for i in range(t, nr):
            for j in range(t, nc):
                x = abs(a[i][j])
                if x and (best is None or x < best):
                    best, pi, pj = x, i, j
        if best is None:
            break
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
            for row in v:
                row[t], row[pj] = row[pj], row[t]
        while True:
            i = next((i for i in range(t + 1, nr) if a[i][t]), None)
            if i is not None:
                q = _nearest_quotient(a[i][t], a[t][t])
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[t])]
                if a[i][t]:
                    a[t], a[i] = a[i], a[t]
                    u[t], u[i] = u[i], u[t]
                continue
            j = next((j for j in range(t + 1, nc) if a[t][j]), None)
            if j is not None:
                q = _nearest_quotient(a[t][j], a[t][t])
                if q:
                    for row in a:
                        row[j] -= q * row[t]
                    for row in v:
                        row[j] -= q * row[t]
                if a[t][j]:
                    for row in a:
                        row[t], row[j] = row[j], row[t]
                    for row in v:
                        row[t], row[j] = row[j], row[t]
                continue
            break
        p = a[t][t]
        stray = None
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if a[i][j] % p:
                    stray = i
                    break
            if stray is not None:
                break
        if stray is not None:
            a[t] = [x + y for x, y in zip(a[t], a[stray])]
            u[t] = [x + y for x, y in zip(u[t], u[stray])]
            continue
        if p < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return u, a, v


def diagonal_of(d: Sequence[Sequence[int]]) -> List[int]:
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


def row_hermite_form(m: Sequence[Sequence[int]]) -> IntMatrix:
    """Canonical row Hermite form: echelon rows, positive pivots, entries
    above each pivot reduced into [0, pivot).  Zero rows are dropped."""
    a = mat_copy(m)
    nr = len(a)
    nc = len(a[0]) if a else 0
    pr = 0
    for col in range(nc):
        piv = next((i for i in range(pr, nr) if a[i][col]), None)
        if piv is None:
            continue
        a[pr], a[piv] = a[piv], a[pr]
        for i in range(pr + 1, nr):
            while a[i][col]:
                q = a[pr][col] // a[i][col]
                a[pr] = [x - q * y for x, y in zip(a[pr], a[i])]
                a[pr], a[i] = a[i], a[pr]
        if a[pr][col] < 0:
            a[pr] = [-x for x in a[pr]]
        for i in range(pr):
            q = a[i][col] // a[pr][col]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[pr])]
        pr += 1
        if pr == nr:
            break
    return [row for row in a if any(row)]


def primitive_rref(m: Sequence[Sequence[int]]) -> Tuple[IntMatrix, List[int]]:
    """Fraction-free reduced row echelon form of an integer matrix: its
    nonzero rows, each the primitive integer multiple, with positive pivot,
    of the matching row of ``rational_rref(m)``, plus the pivot columns.
    Canonical for the row space over Q, as the rational form is."""
    a = [list(row) for row in m]
    nr = len(a)
    pivots: List[int] = []
    for col in range(len(a[0]) if a else 0):
        pr = len(pivots)
        if pr == nr:
            break
        piv = next((i for i in range(pr, nr) if a[i][col]), None)
        if piv is None:
            continue
        a[pr], a[piv] = a[piv], a[pr]
        row = a[pr]
        g = gcd(*row) if row[col] > 0 else -gcd(*row)
        if g != 1:
            row = a[pr] = [x // g for x in row]
        pv = row[col]
        # pv > 0 keeps the sign of every earlier pivot; the gcd keeps each
        # row primitive
        for i in range(nr):
            f = a[i][col]
            if f and i != pr:
                w = [pv * x - f * y for x, y in zip(a[i], row)]
                g = gcd(*w)
                a[i] = [x // g for x in w] if g > 1 else w
        pivots.append(col)
    return a[:len(pivots)], pivots


def primitive_kernel(m: Sequence[Sequence[int]]) -> List[List[int]]:
    """Basis (list of columns) of the rational null space of an integer
    matrix: each column the primitive integer multiple of the matching
    column of ``rational_kernel(m)``."""
    nc = len(m[0]) if m else 0
    rows, pivots = primitive_rref(m)
    basis = []
    for f in (j for j in range(nc) if j not in pivots):
        scale = lcm(*(row[pc] for row, pc in zip(rows, pivots) if row[f]))
        vec = [0] * nc
        vec[f] = scale
        for row, pc in zip(rows, pivots):
            if row[f]:
                vec[pc] = -row[f] * (scale // row[pc])
        g = gcd(*vec)
        basis.append([x // g for x in vec] if g > 1 else vec)
    return basis


def column_hermite_form(m: Sequence[Sequence[int]]) -> IntMatrix:
    """Canonical column Hermite form (transpose convention of the row form).

    Returns a matrix with the same number of rows whose nonzero columns are
    the canonical basis of the column lattice of ``m``.
    """
    nr = len(m)
    h = transpose(row_hermite_form(transpose(m)))
    if not h:
        return [[] for _ in range(nr)]
    return h


def hermite_basis(cols: Sequence[Sequence[int]], nrows: int) -> List[List[int]]:
    """Canonical lattice basis (as a list of columns) of the span of ``cols``."""
    if not cols:
        return []
    h = column_hermite_form(from_columns(cols, nrows))
    return [c for c in columns(h) if any(c)]


def integer_kernel(m: Sequence[Sequence[int]]) -> List[List[int]]:
    """Basis (list of columns) of {x in Z^n : m x = 0}."""
    nr = len(m)
    nc = len(m[0]) if m else 0
    if nc == 0:
        return []
    if nr == 0:
        return identity(nc)
    _, d, v = smith_normal_form(m)
    diag = diagonal_of(d)
    rank = sum(1 for x in diag if x)
    vc = columns(v)
    return [vc[j] for j in range(rank, nc)]


def solve_integer(m: Sequence[Sequence[int]], b: Sequence[int]) -> Optional[List[int]]:
    """One integer solution x of m x = b, or None."""
    nr = len(m)
    if len(b) != nr:
        raise ValueError("solve_integer shape mismatch")
    nc = len(m[0]) if m else 0
    u, d, v = smith_normal_form(m)
    ub = mat_vec(u, list(b))
    diag = diagonal_of(d)
    rank = sum(1 for x in diag if x)
    y = [0] * nc
    for i in range(rank):
        if ub[i] % diag[i]:
            return None
        y[i] = ub[i] // diag[i]
    for i in range(rank, nr):
        if ub[i]:
            return None
    return mat_vec(v, y)


def _cleared_rref(m: Sequence[Sequence]) -> Tuple[IntMatrix, List[int]]:
    """primitive_rref of m with each row cleared to integers on its own."""
    return primitive_rref([clear_denominators(row) for row in m])


def rational_rref(m: Sequence[Sequence]) -> Tuple[RatMatrix, List[int]]:
    """Reduced row echelon form over Q plus the list of pivot columns; zero
    rows pad it to the row count of m."""
    rows, pivots = _cleared_rref(m)
    nc = len(m[0]) if m else 0
    rref = [[Fraction(x, row[pc]) for x in row] for row, pc in zip(rows, pivots)]
    return rref + [[Fraction(0)] * nc for _ in range(len(m) - len(rows))], pivots


def rational_rank(m: Sequence[Sequence]) -> int:
    """The rank of m over Q; one row has rank 1 exactly when it is nonzero,
    so it is not eliminated."""
    if len(m) == 1:
        return int(any(m[0]))
    return len(_cleared_rref(m)[1])


def rational_kernel(m: Sequence[Sequence]) -> List[List[Fraction]]:
    """Basis (list of columns) of the rational null space of m."""
    nc = len(m[0]) if m else 0
    rows, pivots = _cleared_rref(m)
    basis = []
    for f in (j for j in range(nc) if j not in pivots):
        vec = [Fraction(0)] * nc
        vec[f] = Fraction(1)
        for row, pc in zip(rows, pivots):
            if row[f]:
                vec[pc] = Fraction(-row[f], row[pc])
        basis.append(vec)
    return basis


def solve_rational(m: Sequence[Sequence], b: Sequence) -> Optional[List[Fraction]]:
    """One rational solution of m x = b, or None."""
    if len(b) != len(m):
        raise ValueError("solve_rational shape mismatch")
    nc = len(m[0]) if m else 0
    rows, pivots = _cleared_rref([[*row, bb] for row, bb in zip(m, b)])
    if nc in pivots:
        return None
    x = [Fraction(0)] * nc
    for row, pc in zip(rows, pivots):
        x[pc] = Fraction(row[nc], row[pc])
    return x


def congruence_kernel(rows: Sequence[Sequence], moduli: Sequence) -> List[List[int]]:
    """Basis (columns) of {w in Z^n : row_i . w = 0 mod moduli[i]}.

    A modulus of 0 means the row must vanish exactly.  Rows and moduli may be
    rational; each row is cleared to integers together with its modulus.
    """
    n = len(rows[0]) if rows else 0
    if not rows:
        return identity(n)
    cleared = [clear_denominators([*row, mod]) for row, mod in zip(rows, moduli)]
    aux = [i for i, c in enumerate(cleared) if c[-1]]
    big = [c[:-1] + [c[-1] if i == j else 0 for j in aux] for i, c in enumerate(cleared)]
    ker = integer_kernel(big)
    return hermite_basis([k[:n] for k in ker], n)


def solve_semi_integer(real_cols: Sequence[Sequence], int_cols: Sequence[Sequence],
                       target: Sequence, n: int) -> bool:
    """Feasibility of target = R y + N k with y rational and k integral.

    real_cols span the directions with unconstrained rational coefficients,
    int_cols those with integer coefficients; all vectors live in Q^n.  Works
    by projecting onto the left-annihilator of the real span and deciding
    lattice membership there.
    """
    if n == 0:
        return True
    if real_cols:
        proj = rational_kernel(transpose(from_columns(real_cols, n)))
    else:
        proj = identity(n)
    if not proj:
        return True
    rows = []
    rhs = []
    for p in proj:
        rows.append([sum(pi * ci for pi, ci in zip(p, col)) for col in int_cols])
        rhs.append(sum(pi * ti for pi, ti in zip(p, target)))
    if not int_cols:
        return all(x == 0 for x in rhs)
    cleared = [clear_denominators([*row, b]) for row, b in zip(rows, rhs)]
    return solve_integer([c[:-1] for c in cleared], [c[-1] for c in cleared]) is not None


def det_rational(m: Sequence[Sequence]) -> Fraction:
    """Determinant of a square rational matrix: Bareiss' elimination, whose
    every division is exact, on the rows cleared to integers, divided by the
    rows' scales."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("det_rational needs a square matrix")
    a = [clear_denominators(row) for row in m]
    det, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        top = a[k]
        for i in range(k + 1, n):
            f = a[i][k]
            a[i] = [(top[k] * x - f * y) // prev for x, y in zip(a[i], top)]
        prev = top[k]
    return Fraction(det * prev, prod(lcm(*(x.denominator for x in row)) for row in m))


def unimodular_inverse(u: Sequence[Sequence[int]]) -> IntMatrix:
    """Exact inverse of an integer matrix of determinant +-1: the right half
    of the fraction-free form of [u | I], whose pivots are all 1."""
    n = len(u)
    return [row[n:] for row in primitive_rref(hstack(u, identity(n)))[0]]

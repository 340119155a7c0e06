"""Exact integer and rational matrix algebra.

Matrices are row-major lists of lists, integers for lattice work and
`fractions.Fraction` for rational work.  Nothing here is clever about sparsity;
the matrices in this package are tiny (dimensions rarely above a dozen) and
exactness plus determinism matter far more than speed.

The Smith form uses a fixed pivot rule (smallest magnitude nonzero entry,
ties broken by lowest row then column index) so that transforms, witnesses and
canonical bases are reproducible across runs.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
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


def _rational_rows(m: Sequence[Sequence]) -> RatMatrix:
    """A copy of m with Fraction entries; a Fraction is shared, not rebuilt."""
    return [[x if type(x) is Fraction else Fraction(x) for x in row] for row in m]


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
    nc = len(m[0]) if m else 0
    if nr == 0:
        return [0] * nc
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


def _gauss_jordan(a: RatMatrix, ncols: int) -> Tuple[List[int], Fraction]:
    """Bring a to reduced row echelon form over Q in place, pivoting on its first
    ncols columns only.  Returns the pivot columns and the product of the
    pivots, negated once per row swap (the determinant when a is square)."""
    nr = len(a)
    pivots = []
    det = Fraction(1)
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


def rational_rref(m: Sequence[Sequence]) -> Tuple[RatMatrix, List[int]]:
    """Reduced row echelon form over Q plus the list of pivot columns."""
    a = _rational_rows(m)
    pivots, _ = _gauss_jordan(a, len(a[0]) if a else 0)
    return a, pivots


def rational_rank(m: Sequence[Sequence]) -> int:
    return len(rational_rref(m)[1])


def rational_kernel(m: Sequence[Sequence]) -> List[List[Fraction]]:
    """Basis (list of columns) of the rational null space of m."""
    nc = len(m[0]) if m else 0
    if nc == 0:
        return []
    rref, pivots = rational_rref(m)
    free = [j for j in range(nc) if j not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * nc
        vec[f] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rref[r][f]
        basis.append(vec)
    return basis


def solve_rational(m: Sequence[Sequence], b: Sequence) -> Optional[List[Fraction]]:
    """One rational solution of m x = b, or None."""
    nr = len(m)
    nc = len(m[0]) if m else 0
    if nr == 0:
        return [Fraction(0)] * nc
    aug = [row + [Fraction(bb)] for row, bb in zip(_rational_rows(m), b)]
    rref, pivots = rational_rref(aug)
    if nc in pivots:
        return None
    x = [Fraction(0)] * nc
    for r, pc in enumerate(pivots):
        x[pc] = rref[r][nc]
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
    a = _rational_rows(m)
    pivots, det = _gauss_jordan(a, len(a))
    return det if len(pivots) == len(a) else Fraction(0)


def unimodular_inverse(u: Sequence[Sequence[int]]) -> IntMatrix:
    """Exact inverse of an integer matrix of determinant +-1."""
    n = len(u)
    aug = [row + e for row, e in zip(_rational_rows(u), identity(n))]
    _gauss_jordan(aug, n)
    return [[int(x) for x in row[n:]] for row in aug]

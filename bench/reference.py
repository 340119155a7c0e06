"""Independent reference answers for the benchmark's correctness checks.

Nothing here imports blca.  Ranks and kernels come from a plain Fraction
Gauss-Jordan elimination, finite-group maxima from brute force over subgroups
held as sets of element indices, so an error in the program's exact algebra
cannot hide behind the same error in its check.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

FINITE = "FINITE"
INFINITE = "INFINITE"


# -- rational linear algebra ------------------------------------------------

def rref(rows: Sequence[Sequence]) -> Tuple[List[List[Fraction]], List[int]]:
    """Reduced row echelon form over Q and its pivot columns."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots: List[int] = []
    ncols = len(m[0]) if m else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rank(rows: Sequence[Sequence]) -> int:
    rows = [row for row in rows if any(row)]
    return len(rref(rows)[1]) if rows else 0


def kernel(rows: Sequence[Sequence], ncols: int) -> List[List[Fraction]]:
    """Basis of {x in Q^ncols : rows x = 0}."""
    rows = [row for row in rows if any(row)]
    red, pivots = rref(rows) if rows else ([], [])
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for row, pc in zip(red, pivots):
            v[pc] = -row[free]
        basis.append(v)
    return basis


def matmul(a: Sequence[Sequence], b: Sequence[Sequence]) -> List[List[Fraction]]:
    return [[sum(Fraction(x) * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def recip(p: Optional[Fraction]) -> Fraction:
    return Fraction(0) if p is None else 1 / Fraction(p)


def conjugate(p: Fraction) -> Optional[Fraction]:
    p = Fraction(p)
    return None if p == 1 else p / (p - 1)


_CALIBRATION = [[[r.randint(-9, 9) for _ in range(6)] for _ in range(6)]
                for r in [random.Random(f"calibration:{i}") for i in range(4)]]


def calibration_kernel() -> int:
    """Fixed exact-algebra work of the program's kind (Fraction eliminations),
    timed between items to measure how fast the machine is running."""
    return sum(rank(m) for m in _CALIBRATION)


# -- rank conditions --------------------------------------------------------

def deficit(space_cols: Sequence[Sequence], maps: Sequence[Sequence[Sequence]],
            exps: Sequence[Optional[Fraction]]) -> Fraction:
    """dim W - sum_j dim(A_j W) / p_j for W spanned by the given columns."""
    basis = [list(col) for col in space_cols]
    dim_w = rank(basis)
    if dim_w == 0:
        return Fraction(0)
    bmat = [list(r) for r in zip(*basis)]
    total = Fraction(dim_w)
    for a_j, p in zip(maps, exps):
        total -= recip(p) * rank(matmul(a_j, bmat))
    return total


def rank_one_condition(rows: Sequence[Sequence], exps: Sequence) -> bool:
    """dim W <= sum_j dim(a_j W) / p_j for every subspace W of Q^n, where
    every map is the functional x -> a_j . x.

    For rank-one maps the subspaces that matter are the flats of the vector
    matroid, so the condition reads n - rank(S) <= sum_{j not in S} 1/p_j over
    all index sets S; under homogeneity (sum_j 1/p_j = n) this is Barthe's
    criterion sum_{j in S} 1/p_j <= rank(S).
    """
    n = len(rows[0])
    rs = [recip(p) for p in exps]
    total = sum(rs)
    for size in range(len(rows) + 1):
        for s in itertools.combinations(range(len(rows)), size):
            outside = total - sum(rs[j] for j in s)
            if n - rank([rows[j] for j in s]) > outside:
                return False
    return True


def rank_one_verdict(sector: str, rows: Sequence[Sequence], exps: Sequence) -> str:
    """Exact FINITE/INFINITE verdict for a datum whose maps all have rank one.

    R^n: homogeneity plus the rank condition (Barthe, Invent. Math. 1998).
    Z^n: the rank condition alone.
    T^n: the rank condition for the dual datum, i.e. the coordinate
    functionals restricted to the annihilator of the image of T^n in T^J,
    at the conjugate exponents.
    """
    exps = [Fraction(p) for p in exps]
    n = len(rows[0])
    if sector == "R":
        if sum(recip(p) for p in exps) != n:
            return INFINITE
        return FINITE if rank_one_condition(rows, exps) else INFINITE
    if sector == "Z":
        return FINITE if rank_one_condition(rows, exps) else INFINITE
    if sector == "T":
        cols = [list(c) for c in zip(*rows)]  # M^T: n x J
        ann = kernel(cols, len(rows))          # annihilator, as columns in Q^J
        if not ann:
            return FINITE
        dual_rows = [[v[j] for v in ann] for j in range(len(rows))]
        return (FINITE if rank_one_condition(dual_rows, [conjugate(p) for p in exps])
                else INFINITE)
    raise ValueError(f"unknown sector {sector!r}")


# -- finite groups by brute force -------------------------------------------

class FiniteGroup:
    """Z/d_1 x ... x Z/d_k with elements numbered in mixed radix."""

    def __init__(self, orders: Sequence[int]):
        self.orders = tuple(orders)
        self.elements = list(itertools.product(*(range(d) for d in self.orders)))
        self.index = {e: i for i, e in enumerate(self.elements)}
        self._subgroups: Optional[List[frozenset]] = None

    def add(self, i: int, j: int) -> int:
        a, b = self.elements[i], self.elements[j]
        return self.index[tuple((x + y) % d for x, y, d in zip(a, b, self.orders))]

    def subgroups(self) -> List[frozenset]:
        """Every subgroup, as a frozenset of element indices.

        Breadth-first joins of each subgroup with the cyclic subgroup of one
        element per coset; every subgroup is reached because it is a join of
        cyclic subgroups.
        """
        if self._subgroups is not None:
            return self._subgroups
        size = len(self.elements)
        table = [[self.add(i, j) for j in range(size)] for i in range(size)]
        zero = frozenset([0])
        seen = {zero}
        frontier = [zero]
        while frontier:
            fresh = []
            for h in frontier:
                covered = set(h)
                for g in range(size):
                    if g in covered:
                        continue
                    coset = {table[x][g] for x in h}
                    covered |= coset
                    joined = set(h)
                    shift = coset
                    while not shift <= joined:
                        joined |= shift
                        shift = {table[x][g] for x in shift}
                    key = frozenset(joined)
                    if key not in seen:
                        seen.add(key)
                        fresh.append(key)
            frontier = fresh
        self._subgroups = sorted(seen, key=lambda s: (len(s), sorted(s)))
        return self._subgroups


def image_table(group: FiniteGroup, ff: Sequence[Sequence[int]],
                target: Sequence[int]) -> List[Tuple[int, ...]]:
    return [tuple(sum(row[i] * e[i] for i in range(len(e))) % d
                  for row, d in zip(ff, target))
            for e in group.elements]


def joint_kernel_trivial(group: FiniteGroup, tables: Sequence[Sequence]) -> bool:
    zero_images = [t[0] for t in tables]
    return all(any(t[x] != z for t, z in zip(tables, zero_images))
               for x in range(1, len(group.elements)))


def finite_constant(group: FiniteGroup, ffs: Sequence, targets: Sequence,
                    exps: Sequence) -> float:
    """max over subgroups H of |H| / prod_j |image_j(H)|^(1/p_j) (counting
    measures), by brute force."""
    tables = [image_table(group, ff, t) for ff, t in zip(ffs, targets)]
    rs = [float(recip(Fraction(p))) for p in exps]
    best = -math.inf
    for h in group.subgroups():
        log_val = math.log(len(h))
        for t, r in zip(tables, rs):
            if r:
                log_val -= r * math.log(len({t[x] for x in h}))
        best = max(best, log_val)
    return math.exp(best)


# -- catalog expectations ---------------------------------------------------

def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


def value_of(expected) -> float:
    """Expected values are integers, 'n/d', 'sqrt3/2', 'inf' or 'b^(n/d)'."""
    if expected == "inf":
        return math.inf
    if expected == "sqrt3/2":
        return math.sqrt(3) / 2
    if isinstance(expected, str) and "^" in expected:
        base, power = expected.split("^")
        return float(Fraction(base)) ** float(Fraction(power.strip("()")))
    return float(Fraction(expected))


def cli_certification(doc: Optional[dict]) -> Optional[str]:
    """The certification level a CLI document reports for its verdict:
    constant and verify carry a report, dual the primal side of its check."""
    if doc is None:
        return None
    if "report" in doc:
        return doc["report"]["certification"]
    if "duality" in doc:
        return doc["duality"]["primal"]["certification"]
    return None


def check_cli_document(expect: Dict, code: int, doc: Optional[dict],
                       rel: float) -> Optional[str]:
    """None when a CLI result matches its hand-written expectation, else the
    reason it does not."""
    if code != expect["exit"]:
        return f"exit code {code}, expected {expect['exit']}"
    if expect["exit"] == 3:
        return None if doc is None else "an input error printed a document"
    if doc is None:
        return "no JSON document on stdout"
    if "kind" in expect:
        rep = doc["report"] if "report" in doc else doc["duality"]["primal"]
        if rep["kind"] != expect["kind"]:
            return f"kind {rep['kind']}, expected {expect['kind']}"
        if expect["kind"] == FINITE and not close(float(rep["value"]),
                                                  value_of(expect["value"]), rel):
            return f"value {rep['value']}, expected {expect['value']}"
        if rep["certification"] != expect["certification"]:
            return f"certification {rep['certification']}, expected {expect['certification']}"
    if "duality_pass" in expect and doc["duality"]["pass"] is not expect["duality_pass"]:
        return f"duality pass {doc['duality']['pass']}, expected {expect['duality_pass']}"
    if "tower_floats" in expect:
        tower = doc.get("tower")
        if tower is None or tower["monotone"] is not expect["tower_monotone"]:
            return "tower monotonicity differs"
        want = [value_of(v) for v in expect["tower_floats"]]
        if len(tower["floats"]) != len(want) or any(
                not close(f, w, rel) for f, w in zip(tower["floats"], want)):
            return f"tower levels {tower['floats']}, expected {expect['tower_floats']}"
    if "parts" in expect:
        got = [p["domain"] for p in doc.get("parts", [])]
        if doc.get("proper") is not True or got != expect["parts"]:
            return f"parts {got}, expected {expect['parts']}"
    if "rows_ok" in expect:
        status = [r["status"] for r in doc.get("rows", [])]
        if "MISMATCH" in status or status.count("ok") != expect["rows_ok"]:
            return f"verify rows {status}, expected {expect['rows_ok']} ok"
    if "reduced_maps" in expect:
        datum = doc.get("datum")
        if datum is None or len(datum["homs"]) != expect["reduced_maps"]:
            return "reduced datum differs"
    return None

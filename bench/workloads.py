"""Seeded input generation for the three workloads, and building the inputs
as blca objects.

Generation is pure Python on plain lists and strings, so that the same seed
gives byte-identical specs (see `spec_bytes`).  Every block of a workload has
the same count of each stratum, and each stratum is defined by an exact
property of its data (general position, a planted parallel pair, ...), so two
seeds give the same mix and, on a given program, the same verdict classes.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from collections import Counter
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple

from . import reference as ref

CATALOG_COMMANDS = ("analyze", "constant", "dual", "reduce", "verify")


def _rng(workload: str, seed: int, block: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{block}")


def _exp(q: Fraction) -> str:
    return str(Fraction(q))


def _vector(rng: random.Random, n: int) -> List[int]:
    """A nonzero integer vector with entries in [-3, 3]."""
    while True:
        v = [rng.randint(-3, 3) for _ in range(n)]
        if any(v):
            return v


def _general_position(rows: Sequence[Sequence[int]]) -> bool:
    """Every set of at most n of the vectors is independent."""
    n = len(rows[0])
    return all(ref.rank([rows[j] for j in s]) == len(s)
               for size in range(2, n + 1)
               for s in itertools.combinations(range(len(rows)), size))


def _generic_rows(rng, n: int, count: int) -> List[List[int]]:
    while True:
        rows = [_vector(rng, n) for _ in range(count)]
        if _general_position(rows):
            return rows


def _scaled(rng, v: Sequence[int]) -> List[int]:
    """A nonzero multiple of v (the same kernel), entries kept small."""
    g = math.gcd(*v)
    base = [x // g for x in v]
    k = rng.choice([-2, -1, 1, 2]) if max(abs(x) for x in base) <= 1 else rng.choice([-1, 1])
    return [k * x for x in base]


# -- rank_search ------------------------------------------------------------
# A stratum draws (sector, n, maps, exponents).  Maps are lists of integer
# rows; exponents are homogeneous (sum_j rank_j / p_j = n) with equal p_j.

def _rank_one(sector: str, n: int, J: int, kind: str) -> Callable:
    """kind: 'generic' (general position), 'parallel' (one repeated kernel
    that breaks the rank condition), 'boundary' (one repeated kernel that
    makes a proper subset tight)."""
    def draw(rng):
        if kind == "generic":
            rows = _generic_rows(rng, n, J)
        else:
            rows = _generic_rows(rng, n, J - 1)
            rows.append(_scaled(rng, rows[0]))
            rng.shuffle(rows)
        return sector, n, [[r] for r in rows], [_exp(Fraction(J, n))] * J
    return draw


def _mixed(sector: str, kind: str) -> Callable:
    """Three maps Q^3 -> Q^2 at p = 2 (Loomis-Whitney type).  'generic' draws
    independent kernel lines; 'shared' gives two maps the same kernel line,
    which breaks the rank condition along that line."""
    def draw(rng):
        while True:
            lines = [_vector(rng, 3) for _ in range(3)]
            if kind == "shared":
                lines[1] = _scaled(rng, lines[0])
            elif ref.rank(lines) < 3:
                continue
            maps = []
            for line in lines:
                # two rows spanning the annihilator of the kernel line
                ann = ref.kernel([line], 3)
                den = math.lcm(*(x.denominator for v in ann for x in v))
                maps.append([[int(x * den) for x in v] for v in ann])
            return sector, 3, maps, ["2", "2", "2"]
    return draw


# (name, count per block, draw).  The counts fix the mix; a block is 100
# items.
RANK_STRATA: Tuple[Tuple[str, int, Callable], ...] = (
    # below the p50: decided in the closure (no sampling), or sampling in
    # one dimension (torus data whose dual has rank one)
    ("R2J3_parallel", 4, _rank_one("R", 2, 3, "parallel")),
    ("R3J4_parallel", 4, _rank_one("R", 3, 4, "parallel")),
    ("T2J3_parallel", 4, _rank_one("T", 2, 3, "parallel")),
    ("Z2J3_parallel", 4, _rank_one("Z", 2, 3, "parallel")),
    ("R3J3_generic", 4, _rank_one("R", 3, 3, "generic")),
    ("R3_mixed_shared", 2, _mixed("R", "shared")),
    ("Z3_mixed_shared", 2, _mixed("Z", "shared")),
    ("T2J3_generic", 5, _rank_one("T", 2, 3, "generic")),
    ("T3J4_generic", 3, _rank_one("T", 3, 4, "generic")),
    # around the p50: closure plus 1000 samples in two dimensions, then a
    # certificate (torus, free) or a gaussian ascent (vector)
    ("Z2J3_generic", 10, _rank_one("Z", 2, 3, "generic")),
    ("Z2J4_generic", 4, _rank_one("Z", 2, 4, "generic")),
    ("Z2J4_boundary", 4, _rank_one("Z", 2, 4, "boundary")),
    ("R2J3_generic", 9, _rank_one("R", 2, 3, "generic")),
    ("R2J4_generic", 6, _rank_one("R", 2, 4, "generic")),
    ("R2J5_generic", 5, _rank_one("R", 2, 5, "generic")),
    ("T2J4_generic", 5, _rank_one("T", 2, 4, "generic")),
    ("T2J4_boundary", 4, _rank_one("T", 2, 4, "boundary")),
    ("T3J5_generic", 5, _rank_one("T", 3, 5, "generic")),
    ("Z3J3_generic", 3, _rank_one("Z", 3, 3, "generic")),
    # above: mixed ranks, then the undecided tail; the p95 falls among the
    # R3J4 items
    ("R3_mixed_generic", 2, _mixed("R", "generic")),
    ("Z3_mixed_generic", 2, _mixed("Z", "generic")),
    ("R3J4_generic", 7, _rank_one("R", 3, 4, "generic")),
    ("R3J5_generic", 1, _rank_one("R", 3, 5, "generic")),
    ("R2J4_boundary", 1, _rank_one("R", 2, 4, "boundary")),
)


def _rank_item(stratum: str, sector: str, n: int, maps, exps) -> Dict:
    rank_one = all(len(m) == 1 for m in maps)
    expected = (ref.rank_one_verdict(sector, [m[0] for m in maps], exps)
                if rank_one else None)
    return {"stratum": stratum, "sector": sector, "n": n, "maps": maps,
            "p": list(exps), "rank_one": rank_one, "expected": expected}


def rank_search_block(seed: int, block: int) -> List[Dict]:
    rng = _rng("rank_search", seed, block)
    items = []
    for name, count, draw in RANK_STRATA:
        for _ in range(count):
            items.append(_rank_item(name, *draw(rng)))
    rng.shuffle(items)
    return items


# -- finite_enum ------------------------------------------------------------

def _ff_entry(rng, source: int, target: int) -> int:
    """A valid FF entry: a multiple of target / gcd(target, source), mod target."""
    step = target // math.gcd(target, source)
    return step * rng.randrange(target // step)


def _finite(domain: Tuple[int, ...], targets: Tuple[Tuple[int, ...], ...]) -> Callable:
    group = ref.FiniteGroup(domain)

    def draw(rng):
        while True:
            ffs = []
            for tgt in targets:
                while True:
                    ff = [[_ff_entry(rng, d, e) for d in domain] for e in tgt]
                    if any(any(r) for r in ff):
                        break
                ffs.append(ff)
            tables = [ref.image_table(group, ff, t) for ff, t in zip(ffs, targets)]
            if ref.joint_kernel_trivial(group, tables):
                break
        exps = [_exp(Fraction(rng.randint(7, 36), 6)) for _ in targets]
        return list(domain), [list(t) for t in targets], ffs, exps
    return draw


Z2 = (2,)
Z22 = (2, 2)
FINITE_STRATA: Tuple[Tuple[str, int, Callable], ...] = (
    # below the p50: few subgroups
    ("Z3xZ3", 6, _finite((3, 3), ((3,), (3,), (3,)))),
    ("Z3xZ9", 8, _finite((3, 9), ((9,), (3,)))),
    ("Z3xZ9_rank2", 6, _finite((3, 9), ((3, 9), (9,)))),
    ("Z5xZ5", 6, _finite((5, 5), ((5,), (5,), (5,)))),
    ("Z4xZ4", 8, _finite((4, 4), ((4,), (4,)))),
    ("Z4xZ4_rank2", 6, _finite((4, 4), ((2, 4), (4,)))),
    # around the p50: (Z/2)^3, 16 subgroups
    ("Z2^3", 12, _finite((2, 2, 2), (Z2, Z2, Z2))),
    ("Z2^3_rank2", 8, _finite((2, 2, 2), (Z22, Z2))),
    # above
    ("Z6xZ6", 4, _finite((6, 6), ((6,), (6,)))),
    ("Z8xZ8", 4, _finite((8, 8), ((8,), (8,)))),
    ("Z9xZ9", 4, _finite((9, 9), ((9,), (9,)))),
    ("Z2xZ4xZ4", 6, _finite((2, 4, 4), ((4,), (4,), (2,)))),
    ("Z2xZ4xZ4_rank2", 4, _finite((2, 4, 4), ((2, 4), (4,)))),
    ("Z12xZ12", 3, _finite((12, 12), ((12,), (12,)))),
    # the p95 falls among these (67 subgroups)
    ("Z2^4", 7, _finite((2, 2, 2, 2), (Z22, Z22))),
    ("Z2^4_cyclic", 5, _finite((2, 2, 2, 2), (Z2, Z2, Z2, Z2))),
    # timed out at the seed: 374 and 2825 subgroups
    ("Z2^5", 2, _finite((2, 2, 2, 2, 2), (Z22, Z22, Z2))),
    ("Z2^6", 1, _finite((2, 2, 2, 2, 2, 2), (Z22, Z22, Z22))),
)


def finite_enum_block(seed: int, block: int) -> List[Dict]:
    rng = _rng("finite_enum", seed, block)
    items = []
    for name, count, draw in FINITE_STRATA:
        for _ in range(count):
            domain, targets, ffs, exps = draw(rng)
            items.append({"stratum": name, "domain": domain, "targets": targets,
                          "maps": ffs, "p": exps})
    rng.shuffle(items)
    return items


# -- catalog ----------------------------------------------------------------

def catalog_block(seed: int, block: int, data_dir: str, expected: Dict) -> List[Dict]:
    """One pass of every datum file through every command, shuffled."""
    files = sorted(f for f in os.listdir(data_dir) if f.endswith(".json"))
    if sorted(expected) != files:
        raise ValueError(f"catalog expectations cover {sorted(expected)}, "
                         f"but {data_dir} holds {files}")
    items = [{"stratum": command, "file": name, "command": command,
              "expected": expected[name][command]}
             for name in files for command in CATALOG_COMMANDS]
    _rng("catalog", seed, block).shuffle(items)
    return items


def spec_bytes(blocks: Sequence[Sequence[Dict]]) -> bytes:
    return json.dumps(blocks, sort_keys=True, separators=(",", ":")).encode()


def stratum_counts(block: Sequence[Dict]) -> Dict[str, int]:
    return dict(Counter(item["stratum"] for item in block))


# -- building blca objects ---------------------------------------------------

_SECTOR = {"R": ("a", "RR"), "T": ("b", "TT"), "Z": ("c", "ZZ")}


def build_rank(blca, spec: Dict):
    key, block = _SECTOR[spec["sector"]]
    dom = blca.ElementaryGroup(**{key: spec["n"]})
    homs = [blca.BlockHom(dom, blca.ElementaryGroup(**{key: len(m)}), **{block: m})
            for m in spec["maps"]]
    return blca.Datum(dom, homs, [Fraction(p) for p in spec["p"]])


def build_finite(blca, spec: Dict):
    dom = blca.ElementaryGroup(torsion=tuple(spec["domain"]))
    homs = [blca.BlockHom(dom, blca.ElementaryGroup(torsion=tuple(t)), FF=ff)
            for t, ff in zip(spec["targets"], spec["maps"])]
    return blca.Datum(dom, homs, [Fraction(p) for p in spec["p"]])

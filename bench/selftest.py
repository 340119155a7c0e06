#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of blca):

    python3 bench/selftest.py [--seed N]

1. The same seed gives byte-identical inputs, also in another process.
2. Different seeds give the same stratum counts.
3. A planted wrong verdict or value makes each reference check fail.
4. On one block of each workload, at the current program, every item whose
   verdict is decided finishes within half the per-item limit (run with
   twice the limit), so that decided_ratio cannot flip on timing noise.
   Items the program leaves undecided (UNKNOWN, or still running at twice
   the limit) are reported but may sit anywhere.

Exits 1 on the first failed check.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from bench import run  # noqa: E402
from bench import workloads as wl  # noqa: E402

WORKLOADS = ("rank_search", "finite_enum", "catalog")


def digest(workload: str, seed: int) -> str:
    return hashlib.sha256(wl.spec_bytes(run.generate(workload, seed))).hexdigest()


def fail(msg: str) -> None:
    print(f"FAIL: {msg}")
    sys.exit(1)


def check_determinism(seed: int) -> None:
    for w in WORKLOADS:
        here = digest(w, seed)
        child = subprocess.run(
            [sys.executable, "-c",
             f"import sys; sys.path.insert(0, {ROOT!r}); "
             f"from bench.selftest import digest; print(digest({w!r}, {seed}))"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONHASHSEED": "123"}).stdout.strip()
        if here != digest(w, seed) or here != child:
            fail(f"{w}: seed {seed} does not give byte-identical inputs")
        if here == digest(w, seed + 1):
            fail(f"{w}: seeds {seed} and {seed + 1} give the same inputs")
    print("ok  same seed, same bytes (two processes)")


def check_strata(seed: int) -> None:
    for w in WORKLOADS:
        a, b = run.generate(w, seed), run.generate(w, seed + 1)
        counts = {tuple(sorted(wl.stratum_counts(block).items())) for block in a + b}
        if len(counts) != 1:
            fail(f"{w}: stratum counts differ between blocks or seeds")
    print("ok  stratum counts equal across seeds and blocks")


@dataclasses.dataclass
class FakeFactor:
    name: str
    kind: str
    witness: object = None


@dataclasses.dataclass
class FakeReport:
    kind: str
    certification: str
    value: float
    factors: tuple = ()


def check_planted(seed: int) -> None:
    block = run.generate("rank_search", seed)[0]
    for spec in block:
        if spec["rank_one"] and spec["expected"] == "INFINITE":
            flipped = FakeReport("FINITE", "numerical", 1.0)
            if run.check_rank(spec, flipped) is None:
                fail(f"a FINITE verdict on {spec['stratum']} passed the check")
            break
    for spec in block:
        if spec["sector"] == "R" and spec["expected"] == "FINITE":
            full = tuple(tuple(int(i == j) for i in range(spec["n"])) for j in range(spec["n"]))
            bad = FakeReport("INFINITE", "certified", float("inf"),
                             (FakeFactor("vector", "INFINITE", full),))
            if run.check_rank({**spec, "rank_one": False}, bad) is None:
                fail("a witness without a positive deficit passed the check")
            break

    blocks = run.generate("finite_enum", seed)
    spec = blocks[0][0]
    value = run.finite_references([[spec]])[run._finite_key(spec)]
    if run.check_finite(spec, value, FakeReport("FINITE", "exact", value)) is not None:
        fail("the true finite value failed the check")
    if run.check_finite(spec, value, FakeReport("FINITE", "exact", value * 1.001)) is None:
        fail("a finite value off by 0.1% passed the check")

    expect = next(item["expected"] for item in run.generate("catalog", seed)[0]
                  if item["file"] == "klein4.json" and item["command"] == "constant")
    doc = ('{"report": {"kind": "FINITE", "value": 2.0, "exact": "ExactValue(2)", '
           '"certification": "exact"}}')
    if run.check("catalog", {"expected": expect}, (0, doc), {}) is not None:
        fail("the true klein4 constant failed the catalog check")
    if run.check("catalog", {"expected": expect}, (0, doc.replace("2.0", "2.5")), {}) is None:
        fail("a wrong klein4 constant passed the catalog check")
    if run.check("catalog", {"expected": expect}, (2, doc), {}) is None:
        fail("a wrong exit code passed the catalog check")
    print("ok  planted wrong verdicts and values fail their checks")


def check_timing(seed: int) -> None:
    signal.signal(signal.SIGALRM, run._alarm)
    blca = run.import_blca()
    for w in WORKLOADS:
        limit = run.LIMIT_S[w]
        block = run.generate(w, seed)[0]
        built = run.build_inputs(blca, w, [block])[0]
        undecided = []
        for spec, obj in zip(block, built):
            result, elapsed, timed_out, exc = run.timed(
                run.item_call(blca, w, spec, obj), 2 * limit)
            if exc is not None:
                fail(f"{w}: {spec.get('stratum')} raised {exc!r}")
            decided = not timed_out and run.verdict_of(w, spec, result)[0]
            if not decided:
                undecided.append((spec.get("stratum"), round(elapsed, 2)))
            elif elapsed > limit / 2:
                fail(f"{w}: decided item {spec.get('stratum')} took {elapsed:.3f} s, "
                     f"within a factor of two of the {limit} s limit")
        print(f"ok  {w}: decided items finish within half the {limit} s limit; "
              f"undecided: {sorted(undecided)}")


def main() -> int:
    ap = argparse.ArgumentParser(description="benchmark self-tests")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    check_determinism(args.seed)
    check_strata(args.seed)
    check_planted(args.seed)
    check_timing(args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())

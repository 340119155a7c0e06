#!/usr/bin/env python3
"""Discretization towers: convergence from below, and blow-up as a detector.

Two experiments on circle data:

  1. A datum satisfying the growth conditions: the cyclic-quotient levels
     are lower bounds that stabilize at the true constant.
  2. A datum violating them (several copies of the identity with exponents
     just above 1): the pipeline's INFINITE verdict rests on an exact rank
     witness.  The levels are lower bounds and their growth agrees with
     that verdict, but the growth of finitely many levels certifies nothing.
"""
import argparse
from fractions import Fraction

from blca.groups import ElementaryGroup
from blca.homs import BlockHom, Datum
from blca.oracle import discretized_compact_check
from blca.structure import bl_constant

F = Fraction


def circle_young():
    t2 = ElementaryGroup(b=2)
    t = ElementaryGroup(b=1)
    homs = [BlockHom(t2, t, TT=[[1, 0]]), BlockHom(t2, t, TT=[[0, 1]]),
            BlockHom(t2, t, TT=[[1, 1]])]
    return Datum(t2, homs, [F(3, 2)] * 3)


def circle_stack(copies, p):
    t = ElementaryGroup(b=1)
    idt = BlockHom(t, t, TT=[[1]])
    return Datum(t, [idt] * copies, [p] * copies)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--levels", type=int, nargs="*", default=[4, 8, 16, 32],
                    help="cyclic approximation sizes")
    args = ap.parse_args()

    good = circle_young()
    rep = bl_constant(good)
    print("convergent datum (three torus maps, p = 3/2):")
    print(f"  pipeline verdict: {rep.kind}, value {rep.value:.9g}")
    for n in args.levels:
        v = discretized_compact_check(2, n, good)
        print(f"  {n:>4} points per circle: {v:.9f}")
    print()

    bad = circle_stack(4, F(21, 20))
    rep = bl_constant(bad)
    print("divergent datum (four identity maps, p = 21/20):")
    print(f"  pipeline verdict: {rep.kind}")
    for f in rep.factors:
        if f.witness is not None:
            print(f"  {f.name} factor {f.kind}, rank witness {f.witness}")
    for n in args.levels + [64]:
        v = discretized_compact_check(1, n, bad)
        print(f"  {n:>4} points: {v:.6g}")
    print("  the levels are lower bounds; their growth agrees with the")
    print("  INFINITE verdict, which rests on the rank witness above")


if __name__ == "__main__":
    main()

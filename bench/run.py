#!/usr/bin/env python3
"""The blca benchmark: time to a certified verdict, one workload per run.

    python3 bench/run.py --workload rank_search --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the program is imported from its
`src/` and the catalog reads its `data/`).  A single caller runs a closed
loop: the next datum goes in only after the previous verdict returns, on one
thread, with BLAS pinned to one thread.  Inputs come from `--seed`; the loop
runs whole blocks of the workload until `--seconds` have passed and at least
MIN_ITEMS items are done.  Every verdict is checked against the benchmark's
own reference (bench/reference.py); any mismatch or unexpected exception
makes the run fail with exit code 1.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the same loop
untraced, then again with every blca function wrapped (bench/trace.py), and
prints the per-layer metrics.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy is imported anywhere in this process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import io
import json
import math
import resource
import signal
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from bench import reference as ref  # noqa: E402
from bench import workloads as wl  # noqa: E402
from bench.trace import Tracer  # noqa: E402
from bench.layers import layer_metrics  # noqa: E402

SRC = os.path.join(ROOT, "src")
DATA = os.path.join(ROOT, "data")
OUT = os.path.join(ROOT, ".bench_out")

MIN_ITEMS = 200          # so that at least ten items lie beyond the p95
SETUP_REPEATS = 9        # setup_s is the median of this many set-ups
PREBUILT_BLOCKS = 4      # distinct blocks per run; the loop cycles through them
CALIBRATE_EVERY_S = 0.1  # how often the loop times the calibration kernel
KERNEL_REF_S = 0.003     # reported times are scaled to a machine where it takes this
FINITE_REL_TOL = 1e-9    # brute-force maximum vs rep.value
CATALOG_REL_TOL = 1e-6   # hand-written catalog values vs CLI output

# Per-item time limit (seconds), enforced with SIGALRM.  Each is at least
# twice the natural time of every item the seed commit decides (selftest.py
# checks it); items it leaves undecided count as undecided whether or not
# they time out.
LIMIT_S = {"rank_search": 1.5, "finite_enum": 0.6, "catalog": 10.0}

DECIDED = ("FINITE", "INFINITE")
CERTIFIED = ("exact", "certified")


class ItemTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so the program cannot swallow it."""


def _alarm(signum, frame):
    raise ItemTimeout()


# -- program import and set-up ------------------------------------------------

def import_blca():
    """A fresh import of blca from this checkout's src/."""
    for name in [m for m in sys.modules if m == "blca" or m.startswith("blca.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    blca = importlib.import_module("blca")
    importlib.import_module("blca.cli")
    where = os.path.dirname(os.path.abspath(blca.__file__))
    if where != os.path.join(SRC, "blca"):
        raise ImportError(f"blca was imported from {where}, not from {SRC}")
    return blca


def build_inputs(blca, workload: str, blocks: List[List[Dict]]) -> List[List[object]]:
    if workload == "rank_search":
        return [[wl.build_rank(blca, s) for s in b] for b in blocks]
    if workload == "finite_enum":
        return [[wl.build_finite(blca, s) for s in b] for b in blocks]
    for name in sorted(os.listdir(DATA)):
        path = os.path.join(DATA, name)
        doc = blca.cli.load_document(path)
        if isinstance(doc, dict) and "tower" in doc:
            blca.cli.load_tower(path)
        else:
            blca.cli.load_datum(path)
    return [[os.path.join(DATA, s["file"]) for s in b] for b in blocks]


def generate(workload: str, seed: int) -> List[List[Dict]]:
    if workload == "rank_search":
        return [wl.rank_search_block(seed, b) for b in range(PREBUILT_BLOCKS)]
    if workload == "finite_enum":
        return [wl.finite_enum_block(seed, b) for b in range(PREBUILT_BLOCKS)]
    with open(os.path.join(os.path.dirname(__file__), "catalog_expected.json"),
              encoding="utf-8") as fh:
        expected = json.load(fh)
    return [wl.catalog_block(seed, b, DATA, expected) for b in range(PREBUILT_BLOCKS)]


# -- one item -------------------------------------------------------------------

def item_call(blca, workload: str, spec: Dict, built) -> Callable[[], object]:
    if workload != "catalog":
        return lambda: blca.bl_constant(built)

    def run_cli():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = blca.cli.main([spec["command"], built, "--json"])
        return code, out.getvalue()
    return run_cli


def timed(fn: Callable[[], object], limit: float):
    """(result, elapsed seconds, timed out, unexpected exception)."""
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except ItemTimeout:
        return None, time.perf_counter() - start, True, None
    except Exception as exc:  # the program failed on a valid input
        return None, time.perf_counter() - start, False, exc
    return result, time.perf_counter() - start, False, None


def calibrate() -> float:
    start = time.perf_counter()
    ref.calibration_kernel()
    return time.perf_counter() - start


def run_loop(blca, workload: str, blocks, built, seconds: float,
             tracer: Optional[Tracer] = None):
    """Whole blocks, until the untraced calls have taken `seconds` and at
    least MIN_ITEMS items are done.

    Every CALIBRATE_EVERY_S, between two items, the loop times the
    calibration kernel.  With a tracer every item also runs traced, right
    after its untraced run (or right before it, on odd items), so that the
    two see the same machine.  Returns (records, blocks run, loop wall s
    without the calibrations, untraced s, traced s, kernel times).
    """
    limit = LIMIT_S[workload]
    records = []
    kernel_s: List[float] = []
    untraced_s = traced_s = 0.0
    start = last_calibration = time.perf_counter()
    b = 0
    while untraced_s < seconds or len(records) < MIN_ITEMS:
        idx = b % len(blocks)
        for spec, obj in zip(blocks[idx], built[idx]):
            if time.perf_counter() - last_calibration >= CALIBRATE_EVERY_S:
                kernel_s.append(calibrate())
                last_calibration = time.perf_counter()
            call = item_call(blca, workload, spec, obj)
            traced_first = tracer is not None and len(records) % 2 == 1
            if traced_first:
                traced_s += traced_run(tracer, call, limit)
            result, elapsed, timed_out, exc = timed(call, limit)
            if tracer is not None and not traced_first:
                traced_s += traced_run(tracer, call, limit)
            untraced_s += elapsed
            records.append((spec, result, elapsed, timed_out, exc))
        b += 1
    wall = time.perf_counter() - start - sum(kernel_s)
    return records, b, wall, untraced_s, traced_s, kernel_s


def traced_run(tracer: Tracer, call: Callable[[], object], limit: float) -> float:
    tracer.start_item()
    tracer.enable()
    try:
        return timed(call, limit)[1]
    finally:
        tracer.disable()


# -- checks -------------------------------------------------------------------

def _witness_spaces(rep):
    """Witness subspaces (tuples of basis columns) of the INFINITE factors."""
    for f in rep.factors:
        w = f.witness
        if (f.kind == "INFINITE" and isinstance(w, tuple) and w
                and all(isinstance(c, tuple) for c in w)):
            yield w


def check_rank(spec: Dict, rep) -> Optional[str]:
    if rep.kind not in ("FINITE", "INFINITE", "UNKNOWN"):
        return f"unknown verdict {rep.kind}"
    if spec["rank_one"] and rep.kind in DECIDED and rep.kind != spec["expected"]:
        return f"{rep.kind}, but Barthe's criterion says {spec['expected']}"
    if rep.kind == "FINITE" and not (0 < rep.value < math.inf):
        return f"FINITE with value {rep.value}"
    if spec["sector"] in ("R", "Z"):
        # torus witnesses live in the dual lattice; rank-one torus data are
        # covered by the criterion above
        for w in _witness_spaces(rep):
            if ref.deficit(w, spec["maps"], spec["p"]) <= 0:
                return f"witness {w} has no positive deficit"
    return None


def check_finite(spec: Dict, expected: float, rep) -> Optional[str]:
    if rep.kind == "UNKNOWN":
        return None
    if rep.kind != "FINITE" or rep.certification != "exact":
        return f"{rep.kind} [{rep.certification}] on a finite group"
    if not ref.close(rep.value, expected, FINITE_REL_TOL):
        return f"value {rep.value!r}, brute force gives {expected!r}"
    return None


def cli_document(stdout: str) -> Optional[dict]:
    try:
        return json.loads(stdout) if stdout.strip() else None
    except json.JSONDecodeError:
        return None


def verdict_of(workload: str, spec: Dict, result):
    """(decided, certified) as the user sees them."""
    if workload == "catalog":
        code, stdout = result
        cert = ref.cli_certification(cli_document(stdout))
        return code == spec["expected"]["exit"], cert in CERTIFIED
    return result.kind in DECIDED, result.certification in CERTIFIED


def check(workload: str, spec: Dict, result, finite_refs: Dict) -> Optional[str]:
    if workload == "rank_search":
        return check_rank(spec, result)
    if workload == "finite_enum":
        return check_finite(spec, finite_refs[_finite_key(spec)], result)
    code, stdout = result
    try:
        return ref.check_cli_document(spec["expected"], code, cli_document(stdout),
                                      CATALOG_REL_TOL)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed document ({type(exc).__name__}: {exc})"


def _finite_key(spec: Dict) -> str:
    return json.dumps([spec["domain"], spec["targets"], spec["maps"], spec["p"]])


def finite_references(blocks) -> Dict[str, float]:
    groups: Dict[tuple, ref.FiniteGroup] = {}
    out = {}
    for block in blocks:
        for s in block:
            key = tuple(s["domain"])
            group = groups.setdefault(key, ref.FiniteGroup(key))
            out[_finite_key(s)] = ref.finite_constant(group, s["maps"], s["targets"], s["p"])
    return out


# -- metrics --------------------------------------------------------------------

def trimmed_mean(values: List[float]) -> float:
    """Mean of the middle 90%: the machine's average speed over the run,
    without the rare sample that caught the process descheduled."""
    ordered = sorted(values)
    cut = len(ordered) // 20
    return statistics.mean(ordered[cut:len(ordered) - cut])


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def summarize(workload: str, records, wall: float, slowdown: float, finite_refs: Dict):
    """End-to-end metrics; times are divided by `slowdown`, the machine's
    measured speed relative to the reference (see KERNEL_REF_S)."""
    limit = LIMIT_S[workload]
    lat_ms, errors, near = [], [], []
    decided = certified = timeouts = 0
    for i, (spec, result, elapsed, timed_out, exc) in enumerate(records):
        lat_ms.append(1000 * (limit if timed_out else elapsed))
        if timed_out:
            timeouts += 1
            continue
        if exc is not None:
            errors.append((i, spec, f"{type(exc).__name__}: {exc}"))
            continue
        why = check(workload, spec, result, finite_refs)
        if why is not None:
            errors.append((i, spec, why))
        d, c = verdict_of(workload, spec, result)
        if d and elapsed > limit / 2:
            near.append((i, spec.get("stratum"), elapsed))
        decided += d
        certified += c
    n = len(records)
    metrics = {
        "item_p50_ms": (statistics.median(lat_ms) / slowdown, "ms"),
        "item_p95_ms": (percentile(lat_ms, 95) / slowdown, "ms"),
        "items_per_s": (n / wall * slowdown, "1/s"),
        "decided_ratio": (decided / n, "ratio"),
        "certified_ratio": (certified / n, "ratio"),
        "error_ratio": (len(errors) / n, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, errors, near, timeouts


def declared_metrics(kind: str) -> List[str]:
    """Names of the 'end_to_end' or 'per_layer' metrics in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[kind]]


# -- main -----------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(LIMIT_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "blca")) or not os.path.isdir(DATA):
        print(f"error: no blca source tree under {ROOT} (need src/blca and data/)",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _alarm)

    blocks = generate(args.workload, args.seed)
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        blca = import_blca()
        built = build_inputs(blca, args.workload, blocks)
        setups.append(time.perf_counter() - start)
    finite_refs = finite_references(blocks) if args.workload == "finite_enum" else {}

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(blca)
    records, nblocks, wall, untraced_s, traced_s, kernel_s = run_loop(
        blca, args.workload, blocks, built, args.seconds, tracer)
    if tracer is not None:
        wall = untraced_s  # the traced calls are not part of the end-to-end loop
    slowdown = trimmed_mean(kernel_s) / KERNEL_REF_S
    metrics, errors, near, timeouts = summarize(args.workload, records, wall, slowdown,
                                                finite_refs)
    metrics["setup_s"] = (statistics.median(setups) / slowdown, "s")

    print(f"workload {args.workload}  seed {args.seed}  items {len(records)} "
          f"in {nblocks} blocks  timeouts {timeouts} "
          f"(limit {LIMIT_S[args.workload]} s)  wall {wall:.2f} s")
    print(f"machine: calibration kernel mean {1000 * slowdown * KERNEL_REF_S:.3f} ms "
          f"over {len(kernel_s)} samples; times below are scaled to "
          f"{1000 * KERNEL_REF_S:g} ms (divided by {slowdown:.4f})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<16} {value:>12.6g} {unit}")
    for i, spec, why in errors[:20]:
        print(f"MISMATCH item {i} ({spec.get('stratum')}): {why}", file=sys.stderr)
    for i, stratum, elapsed in near[:20]:
        print(f"note: item {i} ({stratum}) took {elapsed:.3f} s, within a factor "
              f"of two of the limit", file=sys.stderr)

    if tracer is not None:
        parents = tracer.finish()
        out = layer_metrics(tracer, parents, len(records), untraced_s, traced_s / untraced_s,
                            1 / slowdown)
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.tsv.gz"), parents)
        for name, (value, unit) in out.items():
            print(f"  {name:<40} {value:>12.6g} {unit}")
        reported = {k: out[k] for k in declared_metrics("per_layer")}
    else:
        reported = {k: metrics[k] for k in declared_metrics("end_to_end")}

    result = {
        "correct": not errors,
        "attempted": len(records),
        "failed": len(errors),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())

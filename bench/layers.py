"""Per-layer metrics from a traced run.

Times are milliseconds per item.  A metric's time is the self time of the
spans of its functions, plus the self time of spans of the same module
nested inside them that belong to no other metric (so `finite.subgroup_
bl_constant.ms` includes its own `enumerate_subgroups`, but not the `intmat`
or `exact` calls under it).  Counts are per item unless named a ratio.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

# metric name -> traced functions whose spans it owns
TIMED = {
    "rank.rank_condition.ms": ("rank.rank_condition",),
    "gaussian.bcct_finiteness.ms": ("gaussian.bcct_finiteness",),
    "gaussian.ascent.ms": ("gaussian._ascend",),
    "finite.subgroup_bl_constant.ms": ("finite.subgroup_bl_constant",),
    "oracle.alternating_maximization.ms": ("oracle.alternating_maximization",),
    "oracle.scalar_gaussian_probe.ms": ("oracle.scalar_gaussian_probe",),
    "oracle.discretized_compact_check.ms": ("oracle.discretized_compact_check",),
    "structure.bl_constant.ms": ("structure.bl_constant",),
    "structure.dual_datum.ms": ("structure.dual_datum",),
    "subquot.normalize.ms": ("subquot.make_nondegenerate", "subquot.decompose"),
    "cli.parse.ms": ("cli.load_document", "cli.load_datum", "cli.load_tower",
                     "cli._parse_datum", "cli.build_parser"),
    "cli.command.ms": ("cli.main", "cli._cmd_analyze", "cli._cmd_constant",
                       "cli._cmd_tower", "cli._cmd_dual", "cli._cmd_reduce",
                       "cli._cmd_verify"),
}
UNITS = {"ms": "ms/item", "calls": "calls/item", "count": "count/item",
         "ratio": "ratio"}


def _module(name: str) -> str:
    return name.split(".", 1)[0]


def _owners(spans: List[tuple], parents: List[int]) -> List[str]:
    """For each span, the metric that owns its self time ('' for none)."""
    by_fn = {fn: metric for metric, fns in TIMED.items() for fn in fns}
    owners: List[str] = []
    for s, parent in zip(spans, parents):
        name = s[0]
        if name in by_fn:
            owners.append(by_fn[name])
        elif name.startswith("intmat."):
            owners.append("intmat.ms")
        else:
            inherit = (parent >= 0 and _module(spans[parent][0]) == _module(name))
            owners.append(owners[parent] if inherit else "")
    return owners


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, parents: List[int], n_items: int, untraced_s: float,
                  overhead_ratio: float, time_scale: float) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics; `time_scale` converts measured ms to the reported
    (machine-speed normalized) ms."""
    spans = tracer.spans
    self_s = tracer.self_times(parents)
    per_item = 1.0 / n_items
    out: Dict[str, Tuple[float, str]] = {}

    ms = {metric: 0.0 for metric in list(TIMED) + ["intmat.ms"]}
    for owner, t in zip(_owners(spans, parents), self_s):
        if owner:
            ms[owner] += t

    def put(name, value, kind):
        out[name] = (value * time_scale if kind == "ms" else value, UNITS[kind])

    calls: Dict[str, int] = {}
    for s in spans:
        calls[s[0]] = calls.get(s[0], 0) + 1
    intmat_calls = sum(c for n, c in calls.items() if n.startswith("intmat."))

    # rank: evidence from the returned RankVerdicts
    results, raised = tracer.results, tracer.raised

    def returned(fn):
        return [results[i] for i, s in enumerate(spans) if s[0] == fn and i in results]

    verdicts = returned("rank.rank_condition")
    sampled = [v for v in verdicts if v.evidence.get("samples", 0) > 0]
    closures = [v for v in verdicts if "closure_size" in v.evidence]
    put("rank.rank_condition.ms", 1000 * ms["rank.rank_condition.ms"] * per_item, "ms")
    # inclusive of the exact algebra it calls: what dropping a search saves
    put("rank.rank_condition.incl_ms",
        1000 * sum(s[2] - s[1] for s in spans if s[0] == "rank.rank_condition") * per_item,
        "ms")
    put("rank.rank_condition.calls", calls.get("rank.rank_condition", 0) * per_item, "calls")
    put("rank.samples_drawn", sum(v.evidence.get("samples", 0) for v in verdicts) * per_item,
        "count")
    put("rank.sample_witness_ratio",
        _ratio(sum(v.status == "FAILS" for v in sampled), len(sampled)), "ratio")
    put("rank.closure_size",
        _ratio(sum(v.evidence["closure_size"] for v in closures), len(closures)), "count")
    put("rank.closure_terminated_ratio",
        _ratio(sum(bool(v.evidence["closure_terminated"]) for v in closures), len(closures)),
        "ratio")
    put("rank.certified_ratio",
        _ratio(sum(v.status in ("FAILS", "HOLDS_CERTIFIED") for v in verdicts), len(verdicts)),
        "ratio")

    # gaussian: the reported run's sweeps and status
    ascents = returned("gaussian.gaussian_bl_constant")
    put("gaussian.bcct_finiteness.ms", 1000 * ms["gaussian.bcct_finiteness.ms"] * per_item, "ms")
    put("gaussian.ascent.ms", 1000 * ms["gaussian.ascent.ms"] * per_item, "ms")
    put("gaussian.sweeps", sum(r.sweeps for r in ascents) * per_item, "count")
    put("gaussian.budget_ratio", _ratio(sum(r.status == "BUDGET" for r in ascents),
                                        len(ascents)), "ratio")

    # finite: subgroup counts and TooLarge refusals
    put("finite.subgroup_bl_constant.ms",
        1000 * ms["finite.subgroup_bl_constant.ms"] * per_item, "ms")
    put("finite.subgroups",
        sum(r.subgroup_count for r in returned("finite.subgroup_bl_constant")) * per_item,
        "count")
    put("finite.too_large", sum(spans[i][0] == "finite.subgroup_bl_constant" and e == "TooLarge"
                                for i, e in raised.items()) * per_item, "count")

    for metric in ("oracle.alternating_maximization.ms", "oracle.scalar_gaussian_probe.ms",
                   "oracle.discretized_compact_check.ms", "structure.bl_constant.ms",
                   "structure.dual_datum.ms", "subquot.normalize.ms", "cli.parse.ms",
                   "cli.command.ms"):
        put(metric, 1000 * ms[metric] * per_item, "ms")

    put("intmat.ms", 1000 * ms["intmat.ms"] * per_item, "ms")
    put("intmat.calls", intmat_calls * per_item, "calls")
    put("intmat.rational_rank.calls", calls.get("intmat.rational_rank", 0) * per_item, "calls")
    put("intmat.smith_normal_form.calls",
        calls.get("intmat.smith_normal_form", 0) * per_item, "calls")

    put("trace.coverage_ratio", _ratio(sum(self_s), untraced_s), "ratio")
    put("trace.overhead_ratio", overhead_ratio, "ratio")
    return out

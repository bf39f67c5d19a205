"""Per-layer metrics of a traced run, and the trace coverage cross-checks.

Every metric is reported on every workload, so a layer a workload never
reaches reads 0: that is the bypass prediction (``campaign-mix`` calls no
cluster or engine code; the index-domain workloads no simulator or
store).  Timed-request metrics are means per traced request (``/op``);
``golden.*`` and ``setup.*`` are means per set-up.  Seconds are self
times (see ``tracing.py``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from tracing import ROOT, attribute

#: (metric name, unit, better).  BENCHMARK.json lists the same names.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("golden.calls", "count/setup", "lower"),
    ("golden.s", "s/setup", "lower"),
    ("setup.cluster.s", "s/setup", "lower"),
    ("setup.quantizer.s", "s/setup", "lower"),
    ("setup.engine.s", "s/setup", "lower"),
    ("setup.executor.s", "s/setup", "lower"),
    ("setup.client.s", "s/setup", "lower"),
    ("cluster.calls", "count/op", "lower"),
    ("cluster.values", "count/op", "lower"),
    ("cluster.s", "s/op", "lower"),
    ("quantizer.fit.calls", "count/op", "lower"),
    ("quantizer.fit.s", "s/op", "lower"),
    ("quantizer.fit_memo.hit_ratio", "ratio", "higher"),
    ("quantizer.encode.s", "s/op", "lower"),
    ("engine.calls", "count/op", "lower"),
    ("engine.pairs", "count/op", "lower"),
    ("engine.s", "s/op", "lower"),
    ("engine.pairs_per_s", "1/s", "higher"),
    ("plane_cache.hits", "count/op", "higher"),
    ("plane_cache.misses", "count/op", "lower"),
    ("plane_cache.evictions", "count/op", "lower"),
    ("plane_cache.bytes", "MB", "lower"),
    ("plane_cache.hit_ratio", "ratio", "higher"),
    ("executor.forward.s", "s/op", "lower"),
    ("executor.weight_cache_hits", "count/op", "higher"),
    ("decoder.prefill_s", "s/op", "lower"),
    ("decoder.decode_s", "s/op", "lower"),
    ("simulator.calls", "count/op", "lower"),
    ("simulator.s", "s/op", "lower"),
    ("campaign.scenarios", "count/op", "higher"),
    ("campaign.simulated", "count/op", "lower"),
    ("campaign.store_hit_ratio", "ratio", "higher"),
    ("campaign.s", "s/op", "lower"),
    ("store.put.calls", "count/op", "lower"),
    ("store.put.s", "s/op", "lower"),
    ("store.get.calls", "count/op", "lower"),
    ("store.get.s", "s/op", "lower"),
    ("store.query.calls", "count/op", "lower"),
    ("store.query.s", "s/op", "lower"),
    ("store.records.s", "s/op", "lower"),
    ("serving.s", "s/op", "lower"),
    ("replay.calls", "count/op", "lower"),
    ("replay.s", "s/op", "lower"),
    ("replay.requests", "count/op", "higher"),
    ("service.submit.s", "s/op", "lower"),
    ("service.wait.s", "s/op", "lower"),
    ("service.http.calls", "count/op", "lower"),
    ("service.restarts", "count/op", "lower"),
    ("service.shards", "count/op", "higher"),
    ("client.s", "s/op", "lower"),
    ("trace.requests", "count", "higher"),
    ("trace.spans", "count/op", "lower"),
    ("trace.wall_s", "s/op", "lower"),
    ("trace.overhead_s", "s/op", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
)

_UNITS = {name: unit for name, unit, _better in PER_LAYER}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _overhead(results: Any) -> float:
    """Traced minus untraced mean request time, weighted by traced counts.

    Traced and untraced requests alternate within the run, so both halves
    see the same inputs distribution and the same drift.
    """
    extra, count = 0.0, 0
    for kind, traced in results.traced.items():
        untraced = results.untraced.get(kind)
        if traced and untraced:
            extra += len(traced) * (sum(traced) / len(traced) - sum(untraced) / len(untraced))
            count += len(traced)
    return _ratio(extra, count)


def per_layer(results: Any, tracer: Any, program: Dict[str, float],
              final: Dict[str, float]) -> None:
    """Fill ``results`` with every per-layer metric and run the cross-checks.

    ``program`` holds what the program itself reported over the traced
    requests: result fields and counter deltas.  ``final`` holds the
    workload's counters at the end of the timed loop.
    """
    ops = attribute(tracer.spans, lambda request: request not in (None, "setup"))
    setup = attribute(tracer.spans, lambda request: request == "setup")
    requests = sum(len(times) for times in results.traced.values())
    setups = setup.calls[ROOT]
    values: Dict[str, float] = {}

    def per_op(value: float) -> float:
        return _ratio(value, requests)

    values["golden.calls"] = _ratio(setup.calls["golden"], setups)
    values["golden.s"] = _ratio(setup.seconds["golden"], setups)
    values["setup.cluster.s"] = _ratio(setup.seconds["cluster"], setups)
    values["setup.quantizer.s"] = _ratio(
        setup.seconds["quantizer.fit"] + setup.seconds["quantizer.encode"], setups
    )
    values["setup.engine.s"] = _ratio(setup.seconds["engine"], setups)
    values["setup.executor.s"] = _ratio(setup.seconds["executor.forward"], setups)
    values["setup.client.s"] = _ratio(setup.seconds[ROOT], setups)

    for layer in ("cluster", "quantizer.fit", "engine", "simulator", "replay",
                  "store.put", "store.get", "store.query"):
        values[f"{layer}.calls"] = per_op(ops.calls[layer])
    for layer in ("cluster", "quantizer.fit", "quantizer.encode", "engine",
                  "executor.forward", "simulator", "campaign", "store.put",
                  "store.get", "store.query", "store.records", "serving", "replay",
                  "service.submit", "service.wait", ROOT):
        values[f"{layer}.s"] = per_op(ops.seconds[layer])
    values["cluster.values"] = per_op(ops.work["cluster"])
    values["engine.pairs"] = per_op(ops.work["engine"])
    values["engine.pairs_per_s"] = _ratio(ops.work["engine"], ops.seconds["engine"])
    values["replay.requests"] = per_op(ops.work["replay"])
    values["service.http.calls"] = per_op(ops.calls["service.http"])

    memo_hits = program.get("fit_memo.hits", 0)
    memo_misses = program.get("fit_memo.misses", 0)
    values["quantizer.fit_memo.hit_ratio"] = _ratio(memo_hits, memo_hits + memo_misses)
    hits, misses = program.get("plane_cache.hits", 0), program.get("plane_cache.misses", 0)
    values["plane_cache.hits"] = per_op(hits)
    values["plane_cache.misses"] = per_op(misses)
    values["plane_cache.evictions"] = per_op(program.get("plane_cache.evictions", 0))
    values["plane_cache.bytes"] = final.get("plane_cache.bytes", 0) / 2**20
    values["plane_cache.hit_ratio"] = _ratio(hits, hits + misses)

    values["executor.weight_cache_hits"] = per_op(program.get("weight_cache_hits", 0))
    values["decoder.prefill_s"] = per_op(program.get("prefill_s", 0))
    values["decoder.decode_s"] = per_op(program.get("decode_s", 0))
    scenarios = program.get("scenarios", 0)
    swept = program.get("sweep_simulated", 0)
    values["campaign.scenarios"] = per_op(scenarios)
    values["campaign.simulated"] = per_op(swept)
    values["campaign.store_hit_ratio"] = _ratio(scenarios - swept, scenarios)
    values["service.restarts"] = per_op(program.get("restarts", 0))
    values["service.shards"] = per_op(program.get("shards", 0))

    wall = sum(sum(times) for times in results.traced.values())
    overhead = _overhead(results)
    values["trace.requests"] = requests
    values["trace.spans"] = per_op(ops.spans)
    values["trace.wall_s"] = per_op(wall)
    values["trace.overhead_s"] = overhead
    values["trace.overhead_share"] = _ratio(overhead, per_op(wall) - overhead)
    values["trace.unattributed_share"] = _ratio(ops.seconds[ROOT], wall)

    for name, _unit, _better in PER_LAYER:
        results.metric(name, values[name], _UNITS[name])
    results.detail["trace"] = {
        "attributed_s": sum(ops.seconds.values()),
        "traced_wall_s": wall,
        "self_s": dict(ops.seconds),
        "setup_self_s": dict(setup.seconds),
    }
    results.outcome("trace-coverage", _coverage(ops, program, memo_misses))


def _coverage(ops: Any, program: Dict[str, float], memo_misses: float) -> List[str]:
    """The wrapped counts must equal what the program itself reports."""
    problems = []
    if ops.work["engine"] != program.get("engine_pairs", 0):
        problems.append(
            f"traced engine.pairs {ops.work['engine']} != program total_pairs "
            f"{program.get('engine_pairs', 0)}"
        )
    if ops.calls["simulator"] != program.get("simulated", 0):
        problems.append(
            f"traced simulator.calls {ops.calls['simulator']} != program simulated "
            f"{program.get('simulated', 0)}"
        )
    if memo_misses and not ops.calls["cluster"]:
        problems.append(f"fit memo missed {memo_misses} times but cluster.calls is 0")
    return problems

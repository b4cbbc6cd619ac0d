#!/usr/bin/env python3
"""Self-check of the benchmark's own helpers.

    python3 perfbench/selfcheck.py

Checks the percentile rule, failure and mismatch counting, residual digits,
self-time subtraction, the host scale, the seeded call order, the span wrappers, failure records on a call that
raises today, and that BENCHMARK.json names exactly the metrics the benchmark
prints.  Exits 1 on the first check that fails.
"""

from __future__ import annotations

import json
import math
import sys

import harness
from harness import Outcome, percentile, residual, residual_digits, self_times, tally
from tracing import per_layer_specs
from workloads import Call, WORKLOADS, ordered_calls


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def test_percentile_rule():
    check(percentile(range(1, 101), 90) == (90, 100, 10), "p90 of 1..100 is 90 with 10 beyond")
    check(percentile(range(99), 90)[0] is None, "p90 of 99 samples has only 9 beyond")
    value, n, beyond = percentile(range(121), 90)
    check(value is not None and (n, beyond) == (121, 12), "index_sweep: p90 reportable, 12 beyond")
    check(percentile(range(195), 90)[2] == 19, "band_scan: 19 beyond p90")
    check(percentile(range(20), 90)[0] is None, "abelian_direct: one pass gives no p90")
    check(percentile(range(20), 50) == (9, 20, 10), "abelian_direct: one pass gives a p50")
    check(percentile([], 50) == (None, 0, 0), "no samples, no percentile")
    check(harness.min_samples_for(90) == 100, "p90 needs 100 samples")


def _outcome(value, reference, error=None):
    if error is not None:
        return Outcome(None, 0.0, error=error)
    res = residual(value, reference)
    return Outcome(None, 0.0, res, res <= harness.MATCH_TOL)


def test_failure_and_mismatch_counting():
    outcomes = [
        _outcome(2.0 + 1e-12, 2.0),
        _outcome(-3.0j, 3.0j),                  # sign flip is a match
        _outcome(1.000002, 1.0),                # misses by 2e-6: a wrong number
        _outcome(float("nan"), 1.0),            # NaN is a wrong number too
        _outcome(None, 1.0, error={"type": "TorsionError"}),
    ]
    check([o.match for o in outcomes[:4]] == [True, True, False, False], "matches modulo sign")
    counts = tally(outcomes)
    check(counts == {"attempted": 5, "raised": 1, "mismatched": 2, "failed": 3}, f"tally {counts}")
    check(harness.worst_residual(outcomes) == math.inf, "NaN residual is the worst")
    check(harness.worst_residual(outcomes[:3]) == residual(1.000002, 1.0), "worst over returned values")
    check(harness.worst_residual(outcomes[4:]) is None, "no returned value, no residual")


def test_residual_digits():
    check(abs(residual_digits(1e-10) - 10.0) < 1e-12, "1e-10 is 10 digits")
    check(abs(residual_digits(0.0) + math.log10(harness.RESIDUAL_FLOOR)) < 1e-12, "exact match clamps")
    check(residual_digits(math.inf) == -16.0, "infinite residual clamps")
    check(residual_digits(None) == 0.0, "no returned value reads 0")
    check(residual(1.0 + 1e-9, 1.0) == residual(-1.0 - 1e-9, 1.0), "residual is modulo sign")


def test_self_time_subtraction():
    spans = [
        ["parent", 0.0, 10.0, -1, 0, None, 0],
        ["a", 1.0, 3.0, 0, 0, None, 0],
        ["b", 2.0, 5.0, 0, 0, None, 0],         # overlaps a: counted once
        ["c", 8.0, 12.0, 0, 0, None, 0],        # runs past the parent: clipped
        ["leaf", 1.5, 2.5, 1, 0, None, 0],      # grandchild: only a loses it
    ]
    selfs = self_times(spans)
    check(selfs == [4.0, 1.0, 3.0, 4.0, 1.0], f"self times {selfs}")
    table = harness.layer_totals(spans, selfs, [0.5] * len(spans))
    check(table["parent"]["total_s"] == 5.0 and table["parent"]["self_s"] == 2.0, "weighted layer totals")
    check(harness.child_calls(spans, "leaf", "a") == 1 and harness.child_calls(spans, "a", "b") == 0,
          "child_calls counts by parent name")


def test_host_scale():
    nominal = harness.REF_NOMINAL_S
    check(harness.host_scales([nominal, nominal]) == [1.0], "a host at nominal speed keeps its times")
    check(harness.host_scales([2 * nominal, 2 * nominal]) == [0.5], "a host half as fast has its times halved")
    check(harness.host_scales([nominal, 3 * nominal]) == [0.5], "one call: the references around it are averaged")
    refs = [nominal, nominal, 9 * nominal, nominal, 2 * nominal, 2 * nominal, 2 * nominal, 2 * nominal]
    scales = harness.host_scales(refs)
    check(all(abs(x - y) < 1e-12 for x, y in zip(scales, [1.0, 1.0, 2 / 3, 0.5, 0.5, 0.5, 0.5])),
          "a spike in one reference moves no scale; a lasting change moves every later one")
    check(Outcome(None, 0.3, scale=0.5).nominal_seconds == 0.15, "nominal time is wall time times scale")


def test_workloads():
    sizes = {name: len(make()) for name, make in WORKLOADS.items()}
    check(sizes == {"index_sweep": 121, "band_scan": 195, "abelian_direct": 20}, f"sizes {sizes}")
    for name in WORKLOADS:
        one, two = ordered_calls(name, 3), ordered_calls(name, 3)
        check(one == two, f"{name}: same seed, same order")
        check(sorted(one, key=repr) == sorted(WORKLOADS[name](), key=repr), f"{name}: the seed only reorders")
        changes = sum(1 for x, y in zip(one, one[1:]) if (x.a, x.b) != (y.a, y.b))
        check(changes == len({(c.a, c.b) for c in one}) - 1, f"{name}: (a, b) groups stay together")


def test_tracer_and_failure_record():
    import run

    ct = run.import_library()
    from cabletorsion import chains, mayer_vietoris, representations

    tracer = run.Tracer()
    tracer.install()
    try:
        check(mayer_vietoris.presentation_complex is chains.presentation_complex, "one wrapper per function")
        check(hasattr(mayer_vietoris.presentation_complex, "__wrapped__"), "global of mayer_vietoris wrapped")
        check(hasattr(chains.fox_derivative, "__wrapped__"), "global of chains wrapped")
        check(hasattr(representations.hp_assignment, "__wrapped__"), "hp_assignment wrapped at its module")
        check(hasattr(ct.tor_E, "__wrapped__"), "package export wrapped")
        calls = [Call("NA", 3, 40, (0,), complex(0.3, 0.1)), Call("AN", 1, 6, (0,), complex(0.3, 0.1))]
        refs = [run.closed_form(ct, c) for c in calls]
        outcomes = run.run_pass(ct, calls, refs, tracer)
    finally:
        tracer.uninstall()
    check(not hasattr(mayer_vietoris.presentation_complex, "__wrapped__"), "uninstall restores")
    check(not hasattr(ct.tor_E, "__wrapped__"), "uninstall restores the package export")
    check(tally(outcomes)["failed"] == 1 and outcomes[1].match, "NA (3,40) raises, AN (1,6) matches")
    (record,) = run.failure_records([outcomes])
    check((record["family"], record["a"], record["b"], record["index"], record["xi"])
          == ("NA", 3, 40, [0], [0.3, 0.1]), f"failure inputs {record}")
    check(record["type"] == "TorsionError", f"failure type {record['type']}")
    check(record["span"].endswith("mayer_vietoris.build_pattern_piece > torsion.reidemeister_torsion"),
          f"failure span {record['span']}")
    names = {span[harness.NAME] for span in tracer.spans}
    check({"mayer_vietoris.induced_maps", "chains.chain_of_loop_hp", "words.fox_derivative",
           "representations.hp_assignment"} <= names, "spans recorded through every import path")
    loops = [s for s in tracer.spans if s[harness.NAME] == "chains.chain_of_loop_hp"]
    check(all(s[harness.COUNT] > 0 for s in loops), "letters counted per chain_of_loop_hp")
    failed = [s for s in tracer.spans if s[harness.CALL_ID] == 0 and s[harness.ERROR]]
    check({s[harness.NAME] for s in failed} >= {"mayer_vietoris.tor_E", "mayer_vietoris.build_pattern_piece"},
          "errors recorded on the spans they pass through")
    metrics, _, per_ab = run.per_layer(tracer, [outcomes], 0.0, 1.0, calls)
    check([(k, v["unit"]) for k, v in metrics.items()] == per_layer_specs(),
          "the traced output carries exactly the per-layer metrics")
    check(metrics["mayer_vietoris.build_pattern_piece.errors"]["value"] == 1, "the piece-D error is counted")
    check(set(per_ab) == {"3,40", "1,6"}, "per-(a, b) breakdown has one row per (a, b)")


def test_benchmark_json_matches_output():
    import run

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    check(layer == per_layer_specs(), "per_layer in BENCHMARK.json matches tracing.per_layer_specs")
    call = Call("AA", 1, 6, (), complex(0.3, 0.1))
    passes = [[Outcome(call, 0.001 * (i + 1), 1e-12, True) for i in range(100)]]
    e2e = run.end_to_end(passes, [0.2, 0.1, 0.3])
    check([(m["name"], m["unit"]) for m in spec["end_to_end"]] == [(k, v["unit"]) for k, v in e2e.items()],
          "end_to_end in BENCHMARK.json matches the untraced output")
    check(e2e["setup_s"]["value"] == 0.2 and e2e["wall_s"]["value"] == sum(0.001 * (i + 1) for i in range(100)),
          "set-up and wall are medians")
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workloads in BENCHMARK.json")


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_") and callable(fn)]
    for name, fn in tests:
        try:
            fn()
        except AssertionError as err:
            print(f"FAIL {name}: {err}")
            return 1
        print(f"ok   {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark of the cabletorsion gluing pipeline.

    python3 perfbench/run.py --workload index_sweep --seed 1 --seconds 20 --trace 0

Runs one workload (see ``workloads.py``) through the public calls ``tor_E`` and
``tor_E_abelian`` of the sources under ``src/`` next to this directory, in
whole passes over its call list until ``--seconds`` is used up.  Every value
is checked against its closed form (``theorem_rhs``, or ``tau0^-2`` for the
abelian family) modulo sign; the closed forms are evaluated before the timed
passes.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics; with ``--trace 1`` spans are recorded around the library's public
functions (``tracing.py``) and the last line carries the per-layer metrics.
Everything else (failures with their inputs, per-(a, b) stage times, the
machine, the spans) goes to ``perfbench/out/<workload>_seed<n>_trace<t>.json``
and to the lines printed before.  Exit code 2 means the benchmark could not
run; no result line is printed then.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List

from harness import (
    CALL_ID,
    END,
    MATCH_TOL,
    NAME,
    REF_NOMINAL_S,
    START,
    Outcome,
    child_calls,
    host_scales,
    layer_totals,
    min_samples_for,
    percentile,
    reference_seconds,
    residual,
    residual_digits,
    self_times,
    tally,
    worst_residual,
)
from tracing import (
    ERROR_COUNTED,
    FALLBACK_CHILD,
    FALLBACK_PARENT,
    ORACLE,
    STAGES,
    TRACED,
    Tracer,
)
from workloads import WORKLOADS, Call, first_call, ordered_calls

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One process, no extra threads: the matrices are 3x3 to 36x36, and BLAS
# threads would only compete for the machine's few cores.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60
# Enough calls per run that the p90 has MIN_BEYOND samples beyond it.
MIN_CALLS = min_samples_for(90)


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


# -- the calls ---------------------------------------------------------------------


def run_call(ct, call: Call) -> complex:
    if call.family == "AA":
        return ct.tor_E_abelian(call.a, call.b, call.xi).value
    return ct.tor_E(call.family, call.a, call.b, call.index, call.xi).value.value


def closed_form(ct, call: Call) -> complex:
    if call.family == "AA":
        return ct.closed_forms.tau0(call.xi, call.a, call.b) ** -2
    return ct.closed_forms.theorem_rhs(call.family, call.a, call.b, call.index, call.xi)


def error_span(exc: BaseException, package_dir: str) -> str:
    """The traced functions on the traceback, outermost first."""
    path = []
    for frame in traceback.extract_tb(exc.__traceback__):
        module = Path(frame.filename)
        name = f"{module.stem}.{frame.name}"
        if str(module.parent) == package_dir and name in TRACED:
            path.append(name)
    return " > ".join(path)


def run_pass(ct, calls: List[Call], refs: List[complex], tracer: Tracer | None = None,
             first_id: int = 0) -> List[Outcome]:
    """One pass over the call list; only the public call is inside the timer.

    The reference workload runs between consecutive calls to give each call
    its host scale.
    """
    package_dir = str(Path(ct.__file__).parent)
    clock = time.perf_counter
    outcomes = []
    host_refs = [reference_seconds()]
    for i, (call, ref) in enumerate(zip(calls, refs)):
        if tracer is not None:
            tracer.call_id = first_id + i
        start = clock()
        try:
            value = run_call(ct, call)
        except Exception as exc:  # every failure is recorded, none is skipped
            seconds = clock() - start
            error = {"type": type(exc).__name__, "message": str(exc),
                     "span": error_span(exc, package_dir)}
            outcome = Outcome(call, seconds, error=error)
        else:
            seconds = clock() - start
            outcome = Outcome(call, seconds, residual(value, ref),
                              bool(ct.torsion_equal(value, ref, MATCH_TOL)))
        host_refs.append(reference_seconds())
        outcomes.append(outcome)
    for outcome, scale in zip(outcomes, host_scales(host_refs)):
        outcome.scale = scale
    return outcomes


def timed_passes(ct, calls, refs, seconds: float, start: float, tracer=None) -> List[List[Outcome]]:
    """Whole passes while the next one is expected to end within ``seconds`` of ``start``.

    At least one pass, and at least MIN_CALLS calls so the p90 is reportable.
    """
    passes: List[List[Outcome]] = []
    while True:
        pass_start = time.perf_counter()
        passes.append(run_pass(ct, calls, refs, tracer, len(passes) * len(calls)))
        now = time.perf_counter()
        if len(passes) * len(calls) >= MIN_CALLS and 2 * now - pass_start - start > seconds:
            return passes


# -- set-up, memory, machine ---------------------------------------------------------


def setup_seconds(call: Call) -> List[float]:
    """Host-normalised set-up time in SETUP_REPEATS fresh interpreters, one after the other."""
    cmd = [sys.executable, str(HERE / "cold_start.py"), str(SRC), call.family, str(call.a),
           str(call.b), ",".join(str(i) for i in call.index), repr(call.xi.real), repr(call.xi.imag)]
    times = []
    for _ in range(SETUP_REPEATS):  # the BLAS thread setting is inherited from os.environ
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        if Path(record["module"]).resolve().parent != (SRC / "cabletorsion").resolve():
            raise BenchError(f"set-up probe imported {record['module']}, not the sources in {SRC}")
        times.append(record["setup_s"] * record["scale"])
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git repository, read from the files."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def machine() -> dict:
    import mpmath
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "cabletorsion").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
    }


# -- reporting -----------------------------------------------------------------------


def failure_records(passes: List[List[Outcome]]) -> List[dict]:
    """Each failing call once, with its inputs, error, span and how many passes it failed."""
    seen: Dict[tuple, dict] = {}
    for outcomes in passes:
        for o in outcomes:
            if o.error is None and o.match:
                continue
            call = o.call
            kind = o.error or {"type": "Mismatch", "span": "",
                               "message": f"relative residual {o.residual:.3e} > {MATCH_TOL:g}"}
            key = (call, kind["type"], kind["message"])
            if key not in seen:
                seen[key] = {"family": call.family, "a": call.a, "b": call.b,
                             "index": list(call.index), "xi": [call.xi.real, call.xi.imag],
                             **kind, "passes": 0}
            seen[key]["passes"] += 1
    return list(seen.values())


def pass_seconds(passes: List[List[Outcome]], nominal: bool = True) -> float:
    """Median over passes of the time to make every call of the pass once."""
    if nominal:
        return statistics.median(sum(o.nominal_seconds for o in p) for p in passes)
    return statistics.median(sum(o.seconds for o in p) for p in passes)


def host_record(passes: List[List[Outcome]]) -> dict:
    """The reference workload's times over the run: the host noise the scale removed."""
    refs_ms = sorted(REF_NOMINAL_S / o.scale * 1e3 for p in passes for o in p)
    return {"reference_ms": {"median": statistics.median(refs_ms), "min": refs_ms[0], "max": refs_ms[-1]},
            "nominal_ms": REF_NOMINAL_S * 1e3}


def end_to_end(passes, setup: List[float] | None) -> Dict[str, dict]:
    """Every end-to-end metric with its unit and the samples behind it.

    Without ``setup`` (the traced run) set-up time and memory are left out.
    """
    outcomes = [o for p in passes for o in p]
    counts = tally(outcomes)
    latencies_ms = [o.nominal_seconds * 1e3 for o in outcomes]
    p50, n, beyond50 = percentile(latencies_ms, 50)
    p90, _, beyond90 = percentile(latencies_ms, 90)
    if p50 is None or p90 is None:
        raise BenchError(f"{n} calls are too few for a reportable p90")
    worst = worst_residual(outcomes)
    returned = counts["attempted"] - counts["raised"]
    metrics = {
        "wall_s": {"value": pass_seconds(passes), "unit": "s", "n": len(passes),
                   "note": f"median over passes; wall clock {pass_seconds(passes, nominal=False):.4g} s"},
        "call_p50_ms": {"value": p50, "unit": "ms", "n": n, "note": f"{beyond50} calls beyond"},
        "call_p90_ms": {"value": p90, "unit": "ms", "n": n, "note": f"{beyond90} calls beyond"},
        "ok_share": {"value": 1.0 - counts["failed"] / counts["attempted"], "unit": "ratio",
                     "n": counts["attempted"],
                     "note": f"failed_share {counts['failed'] / counts['attempted']:.4f}: "
                             f"{counts['raised']} raised + {counts['mismatched']} mismatched"},
        "residual_digits": {"value": residual_digits(worst), "unit": "digits", "n": returned,
                            "note": f"worst residual {worst if worst is not None else float('nan'):.3e}"},
    }
    if setup is not None:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s", "n": len(setup),
                              "note": "median of fresh interpreters"}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb(), "unit": "MB", "n": 1,
                                  "note": "this process"}
    return metrics


def per_layer(tracer: Tracer, passes, untraced_wall: float, oracle_scale: float,
              calls: List[Call]) -> tuple:
    """Per-layer metrics per pass, the full table, and the per-(a, b) stage breakdown.

    Span times get the host scale of the call they belong to.
    """
    n = len(calls)
    n_passes = len(passes)
    scales = [o.scale for p in passes for o in p]
    spans = tracer.spans
    selfs = self_times(spans)
    weights = [scales[span[CALL_ID]] if span[CALL_ID] >= 0 else oracle_scale for span in spans]

    def timed(span):
        return span[CALL_ID] >= 0

    table = layer_totals(spans, selfs, weights, timed)
    oracle = layer_totals(spans, selfs, weights, lambda span: span[CALL_ID] < 0)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0, "errors": {}}
    metrics: Dict[str, dict] = {}
    for name in TRACED:
        row, per = (oracle.get(name, empty), 1) if name in ORACLE else (table.get(name, empty), n_passes)
        metrics[f"{name}.calls"] = {"value": row["calls"] / per, "unit": "count"}
        metrics[f"{name}.total_ms"] = {"value": row["total_s"] * 1e3 / per, "unit": "ms"}
        metrics[f"{name}.self_ms"] = {"value": row["self_s"] * 1e3 / per, "unit": "ms"}
        if name in ERROR_COUNTED:
            metrics[f"{name}.errors"] = {"value": sum(row["errors"].values()) / per, "unit": "count"}
    loops = table.get("chains.chain_of_loop_hp", empty)
    fallbacks = child_calls(spans, FALLBACK_CHILD, FALLBACK_PARENT, timed)
    checks = table.get(FALLBACK_PARENT, empty)["calls"]
    metrics["chains.chain_of_loop_hp.letters"] = {"value": loops["count"] / n_passes, "unit": "count"}
    metrics["representations.relation_hp_fallbacks"] = {"value": fallbacks / n_passes, "unit": "count"}
    metrics["representations.relation_hp_fallback_share"] = {
        "value": fallbacks / checks if checks else 0.0, "unit": "ratio"}
    metrics["tracing_overhead_s"] = {"value": pass_seconds(passes) - untraced_wall, "unit": "s"}

    # Per-(a, b): mean ms per call of each function, total and self.
    groups: Dict[tuple, Dict[str, List[float]]] = {}
    for span, self_s, weight in zip(spans, selfs, weights):
        if not timed(span):
            continue
        call = calls[span[CALL_ID] % n]
        row = groups.setdefault((call.a, call.b), {}).setdefault(span[NAME], [0.0, 0.0])
        row[0] += (span[END] - span[START]) * weight
        row[1] += self_s * weight
    per_call = {}
    for key, rows in sorted(groups.items()):
        count = sum(1 for c in calls if (c.a, c.b) == key) * n_passes
        per_call[f"{key[0]},{key[1]}"] = {
            "calls": count,
            "ms_per_call": {name: {"total": t * 1e3 / count, "self": s * 1e3 / count}
                            for name, (t, s) in rows.items()},
        }
    layers = {name: dict(row, per="run" if name in ORACLE else "pass")
              for name, row in {**table, **oracle}.items()}
    return metrics, layers, per_call


def print_report(args, calls, passes, e2e, failures, host, info, layers=None, per_ab=None) -> None:
    print(f"workload {args.workload}  seed {args.seed}  calls/pass {len(calls)}  "
          f"passes {len(passes)}  trace {args.trace}")
    for name, m in e2e.items():
        print(f"  {name:<16} {m['value']:>12.6g} {m['unit']:<7} n={m['n']:<5} {m['note']}")
    print(f"failures ({len(failures)} distinct calls):")
    for f in failures:
        idx = ",".join(str(i) for i in f["index"])
        print(f"  {f['family']}({f['a']},{f['b']})[{idx}] xi={f['xi'][0]:+g}{f['xi'][1]:+g}i "
              f"x{f['passes']}  {f['type']} at {f['span'] or '-'}: {f['message'][:120]}")
    if layers is not None:
        print("per layer, per pass (oracle: per run): calls  total_ms  self_ms  errors")
        for name in TRACED:
            row = layers.get(name)
            if row is None:
                continue
            per = 1 if row["per"] == "run" else len(passes)
            errors = {kind: count / per for kind, count in row["errors"].items()}
            print(f"  {name:<44} {row['calls'] / per:>9.1f} {row['total_s'] * 1e3 / per:>10.2f} "
                  f"{row['self_s'] * 1e3 / per:>10.2f}  {errors or ''}")
        print("per (a, b), ms per call, total/self:")
        for key, group in per_ab.items():
            cells = [f"{name.split('.')[-1]} {group['ms_per_call'][name]['total']:.2f}/"
                     f"{group['ms_per_call'][name]['self']:.2f}"
                     for name in STAGES if name in group["ms_per_call"]]
            print(f"  ({key}) n={group['calls']}: " + "; ".join(cells))
    ref = host["reference_ms"]
    print(f"host: reference median {ref['median']:.3f} ms (min {ref['min']:.3f}, "
          f"max {ref['max']:.3f}); times above are scaled to {host['nominal_ms']:g} ms")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in info.items()))


# -- main ------------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def import_library():
    if not (SRC / "cabletorsion" / "__init__.py").is_file():
        raise BenchError(f"no cabletorsion sources under {SRC}")
    os.environ.update({var: "1" for var in BLAS_THREAD_VARS})  # before numpy loads
    sys.path.insert(0, str(SRC))
    import cabletorsion

    if Path(cabletorsion.__file__).resolve().parent != (SRC / "cabletorsion").resolve():
        raise BenchError(f"imported {cabletorsion.__file__}, not the sources in {SRC}")
    return cabletorsion


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        ct = import_library()
        calls = ordered_calls(args.workload, args.seed)
        info = machine()
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        ref_before = reference_seconds()
        refs = [closed_form(ct, call) for call in calls]  # the oracle, outside the timer
        (oracle_scale,) = host_scales([ref_before, reference_seconds()])
        if tracer is not None:
            tracer.uninstall()
        warm = first_call(args.workload)
        run_pass(ct, [warm], [closed_form(ct, warm)])  # lazy imports, untimed
        start = time.perf_counter()
        layers = per_ab = None
        if tracer is None:
            passes = timed_passes(ct, calls, refs, args.seconds, start)
            setup = setup_seconds(warm)
        else:
            untraced_wall = pass_seconds([run_pass(ct, calls, refs)])
            tracer.install()
            try:
                passes = timed_passes(ct, calls, refs, args.seconds, start, tracer)
            finally:
                tracer.uninstall()
        host = host_record(passes)
        failures = failure_records(passes)
        outcomes = [o for p in passes for o in p]
        counts = tally(outcomes)
        if tracer is None:
            e2e = end_to_end(passes, setup)
            metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in e2e.items()}
        else:
            metrics, layers, per_ab = per_layer(tracer, passes, untraced_wall, oracle_scale, calls)
            e2e = end_to_end(passes, None)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    print_report(args, calls, passes, e2e, failures, host, info, layers, per_ab)
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": info, "host": host, "counts": counts, "end_to_end": e2e, "failures": failures,
        "calls": [{"call": [o.call.family, o.call.a, o.call.b, list(o.call.index),
                            [o.call.xi.real, o.call.xi.imag]],
                   "ms": o.seconds * 1e3, "scale": o.scale, "residual": o.residual,
                   "error": o.error}
                  for o in passes[0]],
    }
    if tracer is not None:
        record.update(metrics=metrics, layers=layers, per_ab=per_ab,
                      span_fields=["name", "start", "end", "parent", "call_id", "error", "count"],
                      spans=tracer.spans)
    out_path.write_text(json.dumps(record))
    print(f"written: {out_path.relative_to(ROOT)}")
    result = {
        "correct": counts["mismatched"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Every call of the benchmark's workloads against values recorded earlier.

The call lists come from perfbench/workloads.py, imported by path so that the
test and the benchmark run the same calls.  A value must stay within 1e-10
relative of its golden (the closed-form match is 1e-6), and a call that raised
must raise the same error type with the same message.  On these calls and on
a wide seeded sample, every square basis the engine judges must get the
decision its singular values give, and every abelian call of that sample must
match its closed form.
"""

import importlib.util
import json
import random
from pathlib import Path

import numpy as np
import pytest

from cabletorsion import linalg
from cabletorsion.closed_forms import tau0
from cabletorsion.mayer_vietoris import tor_E, tor_E_abelian
from cabletorsion.representations import index_range
from conftest import float_torsion

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = json.loads((ROOT / "tests" / "golden" / "workload_values.json").read_text())["workloads"]


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_MODULE = _workloads()
WORKLOADS, Call = _MODULE.WORKLOADS, _MODULE.Call


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_values_match_golden(workload):
    calls, golden = WORKLOADS[workload](), GOLDEN[workload]
    assert len(calls) == len(golden)
    for call, case in zip(calls, golden):
        assert [call.family, call.a, call.b, list(call.index), [call.xi.real, call.xi.imag]] == \
            [case["family"], case["a"], case["b"], case["index"], case["xi"]]
        try:
            if call.family == "AA":
                value = tor_E_abelian(call.a, call.b, call.xi).value
            else:
                value = tor_E(call.family, call.a, call.b, call.index, call.xi).value.value
        except Exception as exc:  # a recorded failure must keep its type and message
            assert "error" in case, f"{call} raised {exc!r}"
            assert (type(exc).__name__, str(exc)) == (case["error"]["type"], case["error"]["message"]), call
            continue
        assert "value" in case, f"{call} returned {value}, recorded {case['error']}"
        want = complex(*case["value"])
        assert abs(value - want) <= 1e-10 * abs(want), call


def _wide_sample(seed):
    """10 calls per family (AA through tor_E_abelian) at each (a, b) of a wide
    range, Re xi uniform in +-[0.05, 1], Im xi in [-1.5, 1.5], to 3 decimals."""
    rng = random.Random(seed)
    calls = []
    for a, b in ((1, 8), (2, 11), (2, 30), (3, 15), (4, 19), (4, 80), (5, 23), (5, 120), (6, 200)):
        for family in ("AN", "NA", "NN", "AA"):
            for _ in range(10):
                re = rng.uniform(0.05, 1.0) * rng.choice((-1, 1))
                xi = complex(round(re, 3), round(rng.uniform(-1.5, 1.5), 3))
                calls.append(Call(family, a, b, rng.choice(index_range(family, a, b)), xi))
    return calls


@pytest.mark.parametrize("seed", [5, 11])
def test_wide_sample_abelian_calls_match_the_closed_form(seed):
    # all 90 AA calls, up to (6,200) and |Re xi| = 1, with the + sign
    calls = [call for call in _wide_sample(seed) if call.family == "AA"]
    assert len(calls) == 90
    for call in calls:
        want = tau0(call.xi, call.a, call.b) ** -2
        assert abs(tor_E_abelian(call.a, call.b, call.xi).value - want) <= 1e-10 * abs(want), call


def test_every_basis_gets_the_svd_decision(monkeypatch):
    # Every square basis the engine judges on the workloads and on a wide
    # sample: the determinant certificate accepts only what the singular
    # values accept, and its fallback is their decision.  tor_E judges none,
    # so the bases are those of the float64 complexes of C, D and S that
    # the result builds on demand.
    seen = {True: 0, False: 0}
    conditioned_det = linalg.conditioned_det

    def checked(m, tol):
        det, cond = conditioned_det(m, tol)
        sigma = np.linalg.svd(m, compute_uv=False)
        assert cond.full_rank == bool(sigma[0] > 0 and sigma[-1] > tol * sigma[0]), (m, tol, cond)
        seen[cond.certified] += 1
        return det, cond

    monkeypatch.setattr(linalg, "conditioned_det", checked)
    calls = [call for name in sorted(WORKLOADS) for call in WORKLOADS[name]()] + _wide_sample(5)
    assert len(calls) == 336 + 360
    for call in calls:
        if call.family == "AA":
            tor_E_abelian(call.a, call.b, call.xi)
            continue
        result = tor_E(call.family, call.a, call.b, call.index, call.xi)
        for piece in (lambda: result.piece_c, lambda: result.piece_d, lambda: result.pieces["S"]):
            try:  # S judges its basis as result.pieces builds it
                float_torsion(piece())
            except ValueError:  # every library error is one
                pass
    assert seen[True] and seen[False]  # both paths ran

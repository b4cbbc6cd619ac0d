"""Every call of the benchmark's workloads against values recorded earlier.

The call lists come from perfbench/workloads.py, imported by path so that the
test and the benchmark run the same calls.  A value must stay within 1e-10
relative of its golden (the closed-form match is 1e-6), and a call that raised
must raise the same error type with the same message.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from cabletorsion.mayer_vietoris import tor_E, tor_E_abelian

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = json.loads((ROOT / "tests" / "golden" / "workload_values.json").read_text())["workloads"]


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _workloads()


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

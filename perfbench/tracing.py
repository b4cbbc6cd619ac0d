"""Spans around the library's public functions, recorded from outside.

The library imports its functions into several modules (``presentation_complex``
is a global of ``mayer_vietoris``, ``fox_derivative`` of ``chains``,
``hp_assignment`` is imported inside ``chain_of_loop_hp`` at call time), so a
wrapper is installed at every module attribute of the package that holds the
function, and removed again afterwards.  Spans are kept in memory as lists in
the layout of ``harness.NAME .. harness.COUNT``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Callable, Dict, List, Tuple

from harness import END, ERROR

# Public functions that get a span, as "module.function" of cabletorsion.
TRACED: Tuple[str, ...] = (
    "mayer_vietoris.tor_E",
    "mayer_vietoris.tor_E_abelian",
    "mayer_vietoris.build_torus_piece",
    "mayer_vietoris.build_pattern_piece",
    "mayer_vietoris.build_gluing_torus",
    "mayer_vietoris.induced_maps",
    "mayer_vietoris.build_mv_sequence",
    "mayer_vietoris.mv_torsion",
    "representations.rep_build",
    "representations.ensure_relations",
    "representations.verify_relations",
    "representations.hp_assignment",
    "representations.evaluate_ring",
    "presentations.torus_piece_presentation",
    "presentations.pattern_piece_presentation",
    "presentations.cable_exterior_presentation",
    "words.fox_derivative",
    "chains.presentation_complex",
    "chains.chain_of_loop_hp",
    "chains.class_coordinates",
    "chains.homology",
    "chains.torus_complex",
    "torsion.reidemeister_torsion",
    "linalg.numerical_rank",
    "linalg.pivot_columns",
    "linalg.kernel_basis",
    "linalg.image_basis_orthonormal",
    "closed_forms.theorem_rhs",
    "closed_forms.tau0",
)

# Spans whose errors are reported by exception type.
ERROR_COUNTED: Tuple[str, ...] = (
    "mayer_vietoris.tor_E",
    "mayer_vietoris.tor_E_abelian",
    "mayer_vietoris.build_torus_piece",
    "mayer_vietoris.build_pattern_piece",
    "mayer_vietoris.build_gluing_torus",
    "mayer_vietoris.induced_maps",
    "mayer_vietoris.build_mv_sequence",
    "mayer_vietoris.mv_torsion",
    "representations.rep_build",
)

# The oracle: evaluated once per run, outside the timed passes.
ORACLE: Tuple[str, ...] = ("closed_forms.theorem_rhs", "closed_forms.tau0")

# Stages shown in the per-(a, b) breakdown.
STAGES: Tuple[str, ...] = (
    "representations.rep_build",
    "mayer_vietoris.build_torus_piece",
    "mayer_vietoris.build_pattern_piece",
    "mayer_vietoris.build_gluing_torus",
    "mayer_vietoris.induced_maps",
    "mayer_vietoris.build_mv_sequence",
    "mayer_vietoris.mv_torsion",
    "presentations.cable_exterior_presentation",
    "chains.presentation_complex",
    "words.fox_derivative",
    "representations.evaluate_ring",
    "torsion.reidemeister_torsion",
)


def _letters_walked(args, kwargs) -> int:
    word = args[0] if args else kwargs["word"]
    return len(word.letters)


# Extra work counts summed per span: chain_of_loop_hp records the letters it walks.
COUNTERS: Dict[str, Callable] = {"chains.chain_of_loop_hp": _letters_walked}

FALLBACK_CHILD = "representations.hp_assignment"
FALLBACK_PARENT = "representations.ensure_relations"


def per_layer_specs() -> List[Tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in report order."""
    specs: List[Tuple[str, str]] = []
    for name in TRACED:
        specs += [(f"{name}.calls", "count"), (f"{name}.total_ms", "ms"), (f"{name}.self_ms", "ms")]
        if name in ERROR_COUNTED:
            specs.append((f"{name}.errors", "count"))
    specs += [
        ("chains.chain_of_loop_hp.letters", "count"),
        ("representations.relation_hp_fallbacks", "count"),
        ("representations.relation_hp_fallback_share", "ratio"),
        ("tracing_overhead_s", "s"),
    ]
    return specs


PACKAGE = "cabletorsion"


class Tracer:
    """Installs span-recording wrappers on the cabletorsion package."""

    def __init__(self):
        self.spans: List[list] = []
        self.call_id = -1
        self._stack: List[int] = []
        self._patched: List[tuple] = []

    def install(self) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for qual in TRACED:
            module_name, func = qual.split(".")
            original = getattr(importlib.import_module(f"{PACKAGE}.{module_name}"), func)
            wrapper = self._wrap(qual, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            count = counter(args, kwargs) if counter else 0
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.call_id, None, count]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                record[ERROR] = type(exc).__name__
                raise
            finally:
                record[END] = clock()
                stack.pop()

        return traced

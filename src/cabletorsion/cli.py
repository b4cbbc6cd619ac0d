"""Command-line front end: compute torsions, run verification suites, sweep indices.

Complex numbers enter as "re,im" pairs and leave as two-element [re, im]
arrays; JSON records carry a "schema": "1" field.  Exit codes: 0 all matches
pass, 1 verification failure, 2 invalid parameters.  Every rank the torsions
and the gluing use comes from the homology lift counts.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import json
import sys
from functools import partial

import numpy as np

from . import closed_forms
from .chains import presentation_complex, torus_complex
from .mayer_vietoris import tor_E, tor_E_abelian
from .presentations import (
    cable_exterior_presentation,
    presentation_to_json,
    torus_piece_presentation,
)
from .representations import CabletorsionError, abelian_representation, check_parameters, evaluate_word
from .representations import index_range, rep_build
from .torsion import reidemeister_torsion, torsion_equal
from .words import Word, fox_fundamental_defect

DEFAULT_TOL_MATCH = 1e-6


def _parse_complex(text: str) -> complex:
    try:
        re_part, _, im_part = text.partition(",")
        return complex(float(re_part), float(im_part or "0"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 're,im', got {text!r}") from None


def _pair(value: complex) -> list:
    return [value.real, value.imag]


def _index_tuple(args) -> tuple:
    names = {"AA": (), "AN": ("j",), "NA": ("k",), "NN": ("l", "m")}[args.family]
    if any(getattr(args, n) is None for n in names):
        raise ValueError(f"family {args.family} needs " + " and ".join(f"--{n}" for n in names))
    return tuple(getattr(args, n) for n in names)


def _closed_form(family: str, a: int, b: int, index, xi: complex) -> complex:
    if family == "AA":
        return closed_forms.tau0(xi, a, b) ** -2
    return closed_forms.theorem_rhs(family, a, b, index, xi)


def _matrix_pairs(matrix) -> list:
    return [[[v.real, v.imag] for v in row] for row in np.asarray(matrix, dtype=complex)]


def cmd_compute(args) -> int:
    index, xi = _index_tuple(args), args.xi
    result = None if args.family == "AA" else tor_E(args.family, args.a, args.b, index, xi)
    engine = tor_E_abelian(args.a, args.b, xi).value if result is None else result.value.value
    reference = _closed_form(args.family, args.a, args.b, index, xi)
    match = torsion_equal(engine, reference, args.tol_match)
    residual = min(abs(engine - reference), abs(engine + reference)) / abs(reference)
    record = {
        "schema": "1",
        "family": args.family,
        "a": args.a,
        "b": args.b,
        "index": list(index),
        "xi": _pair(xi),
        "engine_torsion": _pair(engine),
        "closed_form": _pair(reference),
        "match_up_to_sign": bool(match),
        "residuals": {"closed_form_rel": residual},
    }
    if result is not None:
        record.update({
            "tor_C": _pair(result.tor_c.value),
            "tor_D": _pair(result.tor_d.value),
            "tor_S": _pair(result.tor_s.value),
            "tor_MV": _pair(result.tor_h.value),
            "phi1": [[float(x) for x in row] for row in result.maps.phi1],
        })
    if args.dump_complex and result is not None:
        record["mv_sequence"] = result.sequence.to_json_dict()
        record["piece_complexes"] = {
            name: piece.complex.to_json_dict() for name, piece in result.pieces.items()
        }
    if args.dump_representation:
        rep = rep_build(args.family, xi, args.a, args.b, index) if result is None else result.rep
        record["representation"] = {
            name: _matrix_pairs(m) for name, m in sorted(rep.assignment.items())
        }
    if args.dump_presentation:
        record["presentation"] = presentation_to_json(*cable_exterior_presentation(args.a, args.b))
    print(json.dumps(record, indent=2))
    return 0 if match else 1


def cmd_sweep(args) -> int:
    """One row per index; an index whose torsion raises gets empty tor_re / tor_im (null
    in JSON) and match 0, its error goes to stderr, and the sweep goes on (exit 1)."""
    xi = check_parameters(args.family, args.xi, args.a, args.b)  # bad parameters exit 2, not per row
    rows = []
    all_match = True
    for index in index_range(args.family, args.a, args.b):
        reference = _closed_form(args.family, args.a, args.b, index, xi)
        try:
            engine = (tor_E_abelian(args.a, args.b, xi).value if args.family == "AA"
                      else tor_E(args.family, args.a, args.b, index, xi).value.value)
        except CabletorsionError as err:
            print(f"error: index {index}: {err}", file=sys.stderr)
            tor, match = [None, None], False
        else:
            tor, match = _pair(engine), torsion_equal(engine, reference, args.tol_match)
        all_match = all_match and match
        idx1, idx2 = (list(index) + ["", ""])[:2]
        rows.append([args.family, args.a, args.b, idx1, idx2, xi.real, xi.imag,
                     *tor, reference.real, reference.imag, int(match)])
    header = ["family", "a", "b", "index1", "index2", "xi_re", "xi_im",
              "tor_re", "tor_im", "ref_re", "ref_im", "match"]
    if args.format == "json":
        print(json.dumps({"schema": "1", "columns": header, "rows": rows}))
    else:
        csv.writer(sys.stdout).writerows([header] + rows)
    return 0 if all_match else 1


# -- verification suites ------------------------------------------------------------


def _random_xi(rng) -> complex:
    return complex(rng.uniform(0.05, 1.0) * rng.choice([-1.0, 1.0]), rng.uniform(-1.0, 1.0))


def _suite_abelian(rng, checks):
    for a in (1, 2):
        pres, _ = torus_piece_presentation(a)
        for trial in range(20):
            xi = _random_xi(rng)
            rep = abelian_representation(xi, pres)
            cplx = presentation_complex(pres, rep)
            h_vec = np.array([0, 1, 0], dtype=complex)
            lift1 = np.eye(6, dtype=complex)[1]
            tor = reidemeister_torsion(cplx, {1: [lift1], 0: [h_vec]})
            z = cmath.exp(xi / 2)
            ref = (closed_forms.alexander_torus(a, z ** 2) / (z - 1 / z)) ** 2
            checks.append((f"abelian T(2,{2 * a + 1}) trial {trial}", torsion_equal(tor, ref, 1e-8)))


def _suite_torus(rng, checks):
    h_vec = np.array([0, 1, 0], dtype=complex)
    lifts = {
        2: [h_vec],
        1: [np.concatenate([h_vec, np.zeros(3)]), np.concatenate([np.zeros(3), h_vec])],
        0: [h_vec],
    }
    done = 0
    while done < 50:
        zeta = cmath.exp(complex(rng.normal(), rng.normal()))
        eta = cmath.exp(complex(rng.normal(), rng.normal()))
        if abs(zeta ** 2 - 1) <= 0.1:
            continue
        cplx = torus_complex(np.diag([zeta ** -2, 1, zeta ** 2]), np.diag([eta ** -2, 1, eta ** 2]))
        tor = reidemeister_torsion(cplx, lifts)
        checks.append((f"torus trial {done}", torsion_equal(tor, 1.0, 1e-9)))
        done += 1


def _suite_family(family, rng, checks):
    # NA also at (3, 40), where D's float64 complex lost a rank and its exact route does not
    for a, b in [(1, 6), (1, 7), (2, 10)] + [(3, 40)] * (family == "NA"):
        indices = index_range(family, a, b)
        if not indices:
            checks.append((f"{family} (a,b)=({a},{b}) index range empty", True))
        for index in indices:
            for xi in [_random_xi(rng) for _ in range(5)] if family == "NA" else [complex(0.3, 0.1)]:
                ok = torsion_equal(tor_E(family, a, b, index, xi).value,
                                   closed_forms.theorem_rhs(family, a, b, index, xi), DEFAULT_TOL_MATCH)
                checks.append((f"{family} (a,b)=({a},{b}) index {index} xi {xi:.3f}", ok))


def _suite_properties(rng, checks):
    rep = rep_build("AN", 0.3 + 0.1j, 1, 6, 0)
    gens = ("p", "t")  # the pattern piece's
    ok_anti = ok_fox = True
    for _ in range(100):
        u, v = (Word([(gens[rng.integers(0, 2)], int(rng.choice([-1, 1])))
                      for _ in range(rng.integers(1, 9))]) for _ in range(2))
        lhs = evaluate_word(rep, u * v)
        rhs = evaluate_word(rep, v) @ evaluate_word(rep, u)
        ok_anti = ok_anti and np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(rhs)))
        ok_fox = ok_fox and not fox_fundamental_defect(u * v, gens).terms
    checks.append(("anti-homomorphism on 100 random word pairs", ok_anti))
    checks.append(("Fox fundamental identity on 100 random words", ok_fox))

    result = tor_E("AN", 1, 6, (0,), 0.3 + 0.1j)
    base = result.value
    piece_d = result.pieces["D"]
    draws = [reidemeister_torsion(piece_d.complex, piece_d.lifts, rng=rng) for _ in range(10)]
    b1_sets = {tuple(np.flatnonzero(t.bases[1].matrix[:, t.bases[1].lifts.stop:].any(axis=1))) for t in draws}
    ok_pivot = len(b1_sets) >= 2 and all(torsion_equal(t, result.tor_d, 1e-9) for t in draws)
    checks.append(("pivot-choice independence (10 draws)", ok_pivot))
    ok_dd = True
    for piece in result.pieces.values():
        d1, d2 = piece.complex.d(1), piece.complex.d(2)
        ok_dd = ok_dd and np.linalg.norm(d1 @ d2) <= 1e-9 * np.linalg.norm(d1) * np.linalg.norm(d2)
    checks.append(("d1 d2 = 0 on constructed complexes", ok_dd))
    checks.append(("glued torsion finite and nonzero", abs(base.value) > 0))


SUITES = {
    "abelian": _suite_abelian,
    "torus": _suite_torus,
    "AN": partial(_suite_family, "AN"),
    "NA": partial(_suite_family, "NA"),
    "NN": partial(_suite_family, "NN"),
    "properties": _suite_properties,
}


def cmd_verify(args) -> int:
    rng = np.random.default_rng(args.seed)
    names = list(SUITES) if args.suite == "all" else [args.suite]
    checks: list[tuple[str, bool]] = []
    for name in names:
        SUITES[name](rng, checks)
    failures = 0
    for label, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {label}")
        failures += 0 if ok else 1
    print(f"# suite={'+'.join(names)} seed={args.seed} checks={len(checks)} failures={failures}")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cabletorsion",
        description="Twisted Reidemeister torsion of 2-cables of (2, 2a+1) torus knots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(p, with_index=True):
        p.add_argument("--family", required=True, choices=["AA", "AN", "NA", "NN"])
        p.add_argument("--a", type=int, required=True)
        p.add_argument("--b", type=int, required=True)
        p.add_argument("--xi", type=_parse_complex, default=complex(0.3, 0.1),
                       help="complex as re,im (default 0.3,0.1)")
        p.add_argument("--tol-match", type=float, default=DEFAULT_TOL_MATCH)
        if with_index:
            p.add_argument("--j", type=int, default=None, help="AN index")
            p.add_argument("--k", type=int, default=None, help="NA index")
            p.add_argument("--l", type=int, default=None, help="NN index")
            p.add_argument("--m", type=int, default=None, help="NN index")

    p_compute = sub.add_parser("compute", help="one torsion value against its closed form")
    add_params(p_compute)
    p_compute.add_argument("--dump-complex", action="store_true")
    p_compute.add_argument("--dump-representation", action="store_true")
    p_compute.add_argument("--dump-presentation", action="store_true")
    p_compute.set_defaults(func=cmd_compute)

    p_verify = sub.add_parser("verify", help="golden/property verification suites")
    p_verify.add_argument("--suite", default="all",
                          choices=["abelian", "torus", "AN", "NA", "NN", "properties", "all"])
    p_verify.add_argument("--seed", type=int, default=20260809)
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="all indices of a family at fixed (a, b, xi)")
    add_params(p_sweep, with_index=False)
    p_sweep.add_argument("--format", choices=["json", "csv"], default="csv")
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

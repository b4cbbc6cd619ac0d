"""The abelian side of a piece (C in AN, D in NA) from its exact scalar weight complexes.

tor_E takes Tor(C) of AN and Tor(D) of NA from Laurent Fox rows evaluated at the two
non-trivial weights, and their phi_1 rows from exponent sums; the side's float64 complex is
built only on demand.  Here the exact side is held against that float64 complex wherever it
still certifies a value, and the calls it used to fail are held against the closed forms.
"""

import json

import numpy as np
import pytest

import cabletorsion
from cabletorsion import CabletorsionError, mayer_vietoris
from cabletorsion.chains import ChainComplexError, class_coordinates, presentation_complex
from cabletorsion.cli import main
from cabletorsion.closed_forms import ClosedFormError, theorem_rhs
from cabletorsion.mayer_vietoris import (
    MayerVietorisError,
    _abelian_rows,
    build_pattern_piece,
    build_torus_piece,
    tor_E,
)
from cabletorsion.presentations import pattern_piece_presentation, torus_piece_presentation
from cabletorsion.representations import RepresentationError, rep_build
from cabletorsion.torsion import TorsionError, torsion_equal
from conftest import abelian_chains, float_torsion
from test_workload_values import WORKLOADS, _wide_sample

# Exact side against its float64 complex, relative on the torsion and absolute on the phi_1
# rows, over the AN / NA calls of index_sweep, band_scan and the seed-5 and seed-11 wide
# samples (to (6, 200)) where that complex certifies a value.  Measured worst: AN 1.3e-8 and
# 8.2e-8 (the float64 C complex degrades as omega2^2 nears 1: j = 0 at b = 200), NA 4.4e-10
# and 1.4e-14.  Same sign: a flipped sign would differ by 2.
CROSS_CHECK_TOL = {"AN": (1e-7, 1e-6), "NA": (1e-8, 1e-12)}

CROSS_CHECK_CALLS = [
    call for call in [c for name in ("index_sweep", "band_scan") for c in WORKLOADS[name]()]
    + _wide_sample(5) + _wide_sample(11)
    if call.family in ("AN", "NA")
]


def _exact_piece(family, a, b, index, xi):
    rep = rep_build(family, xi, a, b, index)
    side = "C" if family == "AN" else "D"
    return rep, side, (build_torus_piece if side == "C" else build_pattern_piece)(rep)


def test_exact_side_matches_its_float64_complex_wherever_that_certifies():
    checked = {"AN": 0, "NA": 0}
    for call in CROSS_CHECK_CALLS:
        rep, side, piece = _exact_piece(*call)
        try:
            reference = float_torsion(piece)  # the float64 complex, built on demand
            rows = class_coordinates(np.column_stack(abelian_chains(rep, side)), reference.bases[1],
                                     piece.complex, 1)
        except (TorsionError, ChainComplexError):
            assert call.family == "NA", call  # only NA's D lost its digits in float64
            continue
        tor_tol, row_tol = CROSS_CHECK_TOL[call.family]
        assert abs(reference.value - piece.torsion.value) <= tor_tol * abs(piece.torsion.value), call
        assert np.max(np.abs(rows - _abelian_rows(side, call.a, call.b))) <= row_tol, call
        checked[call.family] += 1
    assert checked == {"AN": 295, "NA": 175}


@pytest.mark.parametrize("family, a, b", [("AN", 1, 6), ("AN", 3, 40), ("NA", 1, 6), ("NA", 3, 40)])
def test_abelian_rows_are_the_exponent_sums(family, a, b):
    # C of AN: [1, 0]; D of NA: [[2, -2b], [0, 1]] for (mu_C, la_C) against (p~ x v, t~ x v)
    want = [[1, 0]] if family == "AN" else [[2, -2 * b], [0, 1]]
    assert np.array_equal(_abelian_rows("C" if family == "AN" else "D", a, b), want)


@pytest.mark.parametrize("family, index, built", [("NA", (1,), "C"), ("AN", (7,), "D")])
def test_tor_e_builds_the_float64_complex_of_the_non_abelian_side_only(family, index, built, monkeypatch):
    calls = {"presentation_complex": [], "reidemeister_torsion": []}
    for name, calls_of in calls.items():
        original = getattr(mayer_vietoris, name)
        monkeypatch.setattr(mayer_vietoris, name,
                            lambda *args, _f=original, _c=calls_of, **kw: _c.append(args[0]) or _f(*args, **kw))
    result = tor_E(family, 3, 40, index, 0.3 + 0.1j)
    pres = torus_piece_presentation(3)[0] if built == "C" else pattern_piece_presentation(40)[0]
    assert calls["presentation_complex"] == [pres]
    assert len(calls["reidemeister_torsion"]) == 1
    assert calls["reidemeister_torsion"][0] is getattr(result, f"piece_{built.lower()}").complex


@pytest.mark.parametrize("family, side", [("AN", "C"), ("NA", "D")])
def test_pieces_still_carry_the_abelian_complex(family, side):
    result = tor_E(family, 1, 6, (0,), 0.3 + 0.1j)
    piece = result.pieces[side]
    assert "complex" not in vars(piece)  # not built by tor_E
    pres = torus_piece_presentation(1)[0] if side == "C" else pattern_piece_presentation(6)[0]
    assert piece.complex.to_json_dict() == presentation_complex(pres, result.rep).to_json_dict()
    assert torsion_equal(float_torsion(piece), piece.torsion, 1e-12)


def test_dump_complex_carries_the_abelian_complex(capsys):
    # NA at (3, 40): D's float64 complex loses a rank, but it is still dumped as built
    main(["compute", "--family", "NA", "--a", "3", "--b", "40", "--k", "0", "--xi", "0.3,0.1", "--dump-complex"])
    record = json.loads(capsys.readouterr().out)
    rep = rep_build("NA", 0.3 + 0.1j, 3, 40, (0,))
    assert record["piece_complexes"]["D"] == presentation_complex(pattern_piece_presentation(40)[0], rep).to_json_dict()
    assert record["match_up_to_sign"] and record["phi1"][1:] == [[2.0, -80.0], [0.0, 1.0]]


REGRESSION_CALLS = (
    [("NA", 3, 40, (k,), 0.3 + 0.1j) for k in range(3)]  # index_sweep
    + [("NA", 3, 40, (0,), complex(re, im)) for re in (-1.0, 0.5, 1.0) for im in (-1.0, 0.0, 1.0)]  # band_scan
    + [("NA", 6, 200, (1,), 0.779 + 0.788j), ("NA", 6, 200, (5,), 0.921 + 0.972j),  # wide sample, seed 5
       ("NA", 6, 200, (1,), 0.583 + 0.698j), ("NA", 6, 200, (1,), 0.723 - 0.413j),
       ("NA", 6, 200, (3,), 0.886 + 0.105j)]  # seed 11
)


@pytest.mark.parametrize("call", REGRESSION_CALLS, ids=lambda c: f"{c[0]}{c[3]}-({c[1]},{c[2]})-xi{c[4]}")
def test_calls_whose_float64_pattern_side_failed_now_match(call):
    """NA calls whose float64 D lost a boundary rank (index_sweep, band_scan) or left the float64
    range in d_2 ((6, 200)); the exact D gives their closed form."""
    rep, _, piece = _exact_piece(*call)
    with pytest.raises((TorsionError, ChainComplexError)):
        float_torsion(piece)
    assert torsion_equal(tor_E(*call).value, theorem_rhs(*call), 1e-9)


@pytest.mark.parametrize("seed", [5, 11, 47])
def test_wide_sample_na_calls_all_match(seed):
    # 47 was first run when this test was written; 5 and 11 passed 55 and 54 of 90 before
    calls = [call for call in _wide_sample(seed) if call.family == "NA"]
    assert len(calls) == 90
    for call in calls:
        assert torsion_equal(tor_E(*call).value, theorem_rhs(*call), 1e-6), call


@pytest.mark.parametrize("xi, stage", [(2.025, "E"), (2.034 + 0.1j, "D"), (3 - 1j, "D"), (-5 + 0.5j, "D")])
def test_past_float64_is_named(xi, stage):
    """Tor(D) = +-(1 + e^(m xi))(1 + e^(-m xi)), m = 2b-8a-3 = 349 at (6, 200), leaves float64 at
    m |Re xi| = 709.78, and Tor(E) = Tor(C) Tor(D) / Tor(H*), |Tor(C)| = 28.4, a little before.  D is
    built first, so its error comes before C's complex reads Ad(t), whose entries overflow too."""
    with pytest.raises(TorsionError, match=rf"Tor\({stage}\) of NA .*outside float64"):
        tor_E("NA", 6, 200, (0,), xi)


def test_values_up_to_the_edge_of_float64():
    # m Re xi = 698: Tor(E) = 3.9e304, within the closed-form tolerance (C's float64 complex
    # drifts with Re xi, 3.8e-8 here)
    assert torsion_equal(tor_E("NA", 6, 200, (0,), 2.0).value, theorem_rhs("NA", 6, 200, (0,), 2.0), 1e-6)


def test_named_errors_share_one_base():
    for error in (RepresentationError, ChainComplexError, TorsionError, MayerVietorisError, ClosedFormError):
        assert issubclass(error, CabletorsionError), error
    assert issubclass(CabletorsionError, ValueError)  # callers that catch ValueError still do
    assert "CabletorsionError" in cabletorsion.__all__

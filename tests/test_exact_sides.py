"""Each side of a piece from its exact route: abelian sides (C in AN, D in NA) from scalar weight
complexes, non-abelian sides from their Seifert generators, and every phi_1 row an integer map on
exponent sums.

tor_E builds no float64 complex; the side's complex is built only on demand.  Here each exact
side is held against that float64 complex wherever it still certifies a value, and the calls it
used to fail are held against the closed forms.
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
    _rows,
    build_pattern_piece,
    build_torus_piece,
    tor_E,
)
from cabletorsion.presentations import pattern_piece_presentation, torus_piece_presentation
from cabletorsion.representations import RepresentationError, index_range, rep_build
from cabletorsion.torsion import TorsionError, torsion_equal
from conftest import float_torsion, gluing_chains, mp_family_scalars
from test_workload_values import WORKLOADS, _wide_sample

# Exact side against its float64 complex, relative on the torsion and absolute on the phi_1 rows
# (against class_coordinates of the reference walk's chains in the float64 basis), over the calls
# of index_sweep, band_scan and the seed-5 and seed-11 wide samples (to (6, 200)) where that
# complex certifies a value.  Measured worst (torsion, rows): AN C 1.3e-8, 8.2e-8 (the float64 C
# complex degrades as omega2^2 nears 1: j = 0 at b = 200), AN D 5.3e-9, 1.3e-9, NA C 9.5e-11,
# 1.0e-11, NA D 3.7e-10, 1.4e-14, NN C 9.3e-12, 9.8e-12, NN D 2.8e-10, 1.0e-9.  Same sign: a
# flipped sign would differ by 2.
CROSS_CHECK_TOL = {("AN", "C"): (1e-7, 1e-6), ("AN", "D"): (5e-8, 1e-8), ("NA", "C"): (1e-9, 1e-10),
                   ("NA", "D"): (1e-8, 1e-12), ("NN", "C"): (1e-10, 1e-10), ("NN", "D"): (5e-9, 1e-8)}

CROSS_CHECK_CALLS = [
    call for call in [c for name in ("index_sweep", "band_scan") for c in WORKLOADS[name]()]
    + _wide_sample(5) + _wide_sample(11)
    if call.family != "AA"
]


def _exact_piece(family, a, b, index, xi, side=None):
    rep = rep_build(family, xi, a, b, index)
    side = side or ("C" if family == "AN" else "D")
    return rep, side, (build_torus_piece if side == "C" else build_pattern_piece)(rep)


def test_exact_sides_match_their_float64_complex_wherever_that_certifies():
    checked = dict.fromkeys(CROSS_CHECK_TOL, 0)
    for call in CROSS_CHECK_CALLS:
        for side in "CD":
            rep, _, piece = _exact_piece(*call, side)
            try:
                reference = float_torsion(piece)  # the float64 complex, built on demand
                rows = class_coordinates(np.column_stack(gluing_chains(rep, side)), reference.bases[1],
                                         piece.complex, 1)
            except (TorsionError, ChainComplexError):
                assert (call.family, side) == ("NA", "D"), call  # only NA's D lost its digits in float64
                continue
            tor_tol, row_tol = CROSS_CHECK_TOL[call.family, side]
            assert abs(reference.value - piece.torsion.value) <= tor_tol * abs(piece.torsion.value), (call, side)
            kind = call.family["CD".index(side)]
            assert np.max(np.abs(rows - _rows(side, kind, call.a, call.b))) <= row_tol, (call, side)
            checked[call.family, side] += 1
    assert checked == {("AN", "C"): 295, ("AN", "D"): 295, ("NA", "C"): 258, ("NA", "D"): 175,
                       ("NN", "C"): 303, ("NN", "D"): 303}


# The same cross-check at the corners of the band, at the first index of each family: measured worst
# (torsion, rows) AN C 1.9e-8, 2.1e-7, AN D 5.3e-9, 1.1e-10, NA C 3.6e-10, 1.5e-10, NA D 3.9e-16,
# 1.8e-15, NN C 3.0e-11, 1.2e-9, NN D 2.8e-10, 4.1e-11.
CORNER_TOL = {("AN", "C"): (1e-7, 1e-6), ("AN", "D"): (5e-8, 1e-9), ("NA", "C"): (2e-9, 1e-9),
              ("NA", "D"): (1e-12, 1e-12), ("NN", "C"): (2e-10, 5e-9), ("NN", "D"): (2e-9, 5e-10)}

BAND_CORNERS = [complex(re, im) for re in (-1.0, 1.0) for im in (-1.0, 1.0)]


@pytest.mark.parametrize(
    "family, a, b",
    [(f, a, b) for f in ("AN", "NA") for a, b in ((1, 6), (3, 40), (6, 200))]
    + [("NN", 1, 7), ("NN", 3, 40), ("NN", 6, 200)],  # NN has no index at (1, 6)
)
@pytest.mark.parametrize("xi", BAND_CORNERS)
def test_exact_sides_at_the_band_corners(family, a, b, xi):
    """Each exact side against its float64 complex and the reference walk's classes where that
    complex certifies; past (1, b) the float64 D may lose a rank or a lift, and the exact D still
    gives the closed form."""
    index = index_range(family, a, b)[0]
    rep = rep_build(family, xi, a, b, index)
    for side in "CD":
        piece = (build_torus_piece if side == "C" else build_pattern_piece)(rep)
        try:
            reference = float_torsion(piece)
            rows = class_coordinates(np.column_stack(gluing_chains(rep, side)), reference.bases[1],
                                     piece.complex, 1)
        except (TorsionError, ChainComplexError):
            assert side == "D" and a > 1, side
            continue
        tor_tol, row_tol = CORNER_TOL[family, side]
        assert abs(reference.value - piece.torsion.value) <= tor_tol * abs(piece.torsion.value), side
        assert np.max(np.abs(rows - _rows(side, family["CD".index(side)], a, b))) <= row_tol, side
    assert torsion_equal(tor_E(family, a, b, index, xi).value, theorem_rhs(family, a, b, index, xi), 1e-10)


@pytest.mark.parametrize("family, side", [("NA", "C"), ("NN", "C"), ("AN", "D"), ("NN", "D")])
@pytest.mark.parametrize("xi", BAND_CORNERS + [0.3 + 0.1j])
def test_seifert_sides_are_the_torus_knot_constants(family, side, xi):
    """A non-abelian C is -(2a+1) / (2 (4 - tr^2 rho(xy))), tr rho(xy) = omega1 + 1/omega1 (taken
    here in mpmath), and a non-abelian D is -1/2 (tr rho(pt) = 0): the float64 traces keep 13 digits
    (measured worst 4.6e-14) at every index at (3, 40)."""
    a, b = 3, 40
    for index in index_range(family, a, b):
        rep = rep_build(family, xi, a, b, index)
        got = (build_torus_piece if side == "C" else build_pattern_piece)(rep).torsion.value
        if side == "D":
            want = -0.5
        else:
            _, roots = mp_family_scalars(rep)
            trace = roots["omega1"] + 1 / roots["omega1"]
            want = complex(-(2 * a + 1) / (2 * (4 - trace ** 2)))
        assert abs(got - want) <= 1e-12 * abs(want), index


@pytest.mark.parametrize("a, b", [(1, 6), (3, 40), (6, 200)])
def test_rows_are_the_exponent_sums(a, b):
    # (mu_C, la_C) against the lifts: abelian C x~ x v [1, 0]; non-abelian C x~ x v [1, -(4a+2)];
    # abelian D (p~ x v, t~ x v) [[2, -2b], [0, 1]]; non-abelian D (p~ x v', t~ x v) [[0, 0], [-2, 2b+1]]
    want = {("C", "A"): [[1, 0]], ("C", "N"): [[1, -(4 * a + 2)]],
            ("D", "A"): [[2, -2 * b], [0, 1]], ("D", "N"): [[0, 0], [-2, 2 * b + 1]]}
    for (side, kind), rows in want.items():
        got = _rows(side, kind, a, b)
        assert got.dtype.kind == "i" and np.array_equal(got, rows), (side, kind)
        assert not got.flags.writeable  # cached: shared by every call


@pytest.mark.parametrize("family, index", [("AN", (7,)), ("NA", (1,)), ("NN", (7, 2))])
def test_tor_e_builds_no_float64_complex(family, index, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("tor_E built a float64 complex or a torsion of one")

    for name in ("presentation_complex", "reidemeister_torsion", "build_torus_piece", "build_pattern_piece"):
        monkeypatch.setattr(mayer_vietoris, name, refuse)
    result = tor_E(family, 3, 40, index, 0.3 + 0.1j)
    assert torsion_equal(result.value, theorem_rhs(family, 3, 40, index, 0.3 + 0.1j), 1e-12)
    assert not result.tor_c.bases and not result.tor_d.bases  # no assembled basis behind either


@pytest.mark.parametrize("family, side", [(f, s) for f in ("AN", "NA", "NN") for s in "CD"])
def test_pieces_still_carry_the_float64_complex(family, side):
    a, b, index = (1, 7, (0, 0)) if family == "NN" else (1, 6, (0,))
    result = tor_E(family, a, b, index, 0.3 + 0.1j)
    piece = result.pieces[side]
    assert "complex" not in vars(piece)  # not built by tor_E
    pres = torus_piece_presentation(a)[0] if side == "C" else pattern_piece_presentation(b)[0]
    assert piece.complex.to_json_dict() == presentation_complex(pres, result.rep).to_json_dict()
    assert piece.torsion == (result.tor_c if side == "C" else result.tor_d)
    reference = float_torsion(piece)
    assert abs(reference.value - piece.torsion.value) <= 1e-12 * abs(piece.torsion.value)  # same sign


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
    taken first, so its error names D; C's Seifert route reads no Ad(t), whose entries overflow too."""
    with pytest.raises(TorsionError, match=rf"Tor\({stage}\) of NA .*outside float64"):
        tor_E("NA", 6, 200, (0,), xi)


def test_values_up_to_the_edge_of_float64():
    # m Re xi = 698: Tor(E) = 3.9e304 (C's float64 complex drifted 3.8e-8 with Re xi here;
    # its Seifert route holds 8.8e-15)
    assert torsion_equal(tor_E("NA", 6, 200, (0,), 2.0).value, theorem_rhs("NA", 6, 200, (0,), 2.0), 1e-12)


def test_named_errors_share_one_base():
    for error in (RepresentationError, ChainComplexError, TorsionError, MayerVietorisError, ClosedFormError):
        assert issubclass(error, CabletorsionError), error
    assert issubclass(CabletorsionError, ValueError)  # callers that catch ValueError still do
    assert "CabletorsionError" in cabletorsion.__all__

import cmath
import math
import re

import numpy as np
import pytest

from cabletorsion.closed_forms import (
    ClosedFormError,
    alexander,
    alexander_torus,
    tau0,
    tau1,
    tau2,
    tau3,
    tau_torus,
    theorem_rhs,
)
from cabletorsion.presentations import (
    cable_exterior_presentation,
    torus_piece_presentation,
)

XI = 0.3 + 0.1j
GRID = [(1, 6), (1, 7), (2, 10)]


class TestAlexander:
    def test_trefoil_fox_route(self, rng):
        pres, _ = torus_piece_presentation(1)
        for _ in range(10):
            t = cmath.exp(complex(rng.normal(), rng.normal()))
            expected = t - 1 + 1 / t
            assert abs(alexander(pres, t) - expected) < 1e-9 * abs(expected)

    def test_normalization_at_one(self):
        pres, _ = torus_piece_presentation(2)
        assert abs(alexander(pres, 1.0) - 1) < 1e-12
        cable, _ = cable_exterior_presentation(1, 6)
        assert abs(alexander(cable, 1.0) - 1) < 1e-12

    def test_symmetry(self, rng):
        cable, _ = cable_exterior_presentation(1, 6)
        for _ in range(5):
            t = cmath.exp(complex(rng.normal(), rng.normal()))
            assert abs(alexander(cable, t) - alexander(cable, 1 / t)) < 1e-9

    def test_fox_route_matches_torus_closed_form(self, rng):
        for a in (1, 2):
            pres, _ = torus_piece_presentation(a)
            for _ in range(10):
                t = cmath.exp(complex(rng.normal(), rng.normal()))
                fox = alexander(pres, t)
                closed = alexander_torus(a, t)
                assert abs(fox - closed) <= 1e-9 * abs(closed)

    def test_trefoil_closed_form_at_two(self):
        assert abs(alexander_torus(1, 2.0) - (2 - 1 + 0.5)) < 1e-12

    def test_alternating_sum_equals_ratio_display(self, rng):
        # the w-power ratio telescopes to the alternating sum at generic t
        for a in (1, 2, 3):
            n = 2 * a + 1
            for _ in range(10):
                t = cmath.exp(complex(rng.normal(), rng.normal()))
                w = cmath.sqrt(t)
                ratio = ((w ** (2 * n) - w ** (-2 * n)) * (w - 1 / w)) / (
                    (w ** 2 - w ** -2) * (w ** n - w ** -n)
                )
                assert abs(alexander_torus(a, t) - ratio) <= 1e-9 * abs(ratio)

    def test_stable_at_roots_of_unity(self):
        # omega2^2 with (a,b,j) = (1,7,2) is a primitive 6th root of unity,
        # where the ratio display degenerates to 0/0 but Delta itself is -2
        t = cmath.exp(2j * cmath.pi / 3)
        assert abs(alexander_torus(1, t) + 2) < 1e-12

    def test_rejects_zero_argument(self):
        pres, _ = torus_piece_presentation(1)
        with pytest.raises(ClosedFormError):
            alexander(pres, 0.0)


class TestTauAmplitudes:
    def test_tau1_inverse_square_is_theorem_rhs(self):
        # the glued value is +-tau1^-2: a sign-class identity across the grid
        for a, b in GRID:
            for j in range(b):
                rhs = theorem_rhs("AN", a, b, j)
                t1_sq_inv = 1 / tau1(XI, j, a, b) ** 2
                assert min(abs(rhs - t1_sq_inv), abs(rhs + t1_sq_inv)) <= 1e-10 * abs(rhs)

    def test_tau2_inverse_square_matches_na_magnitude(self):
        # cosh parity reconciles the (2b+1-4(2a+1)) and (8a-2b+3) spellings
        for a, b in GRID:
            for k in range(a):
                rhs = theorem_rhs("NA", a, b, k, XI)
                t2 = tau2(XI, k, a, b)
                assert abs(abs(rhs) - abs(1 / t2 ** 2)) <= 1e-10 * abs(rhs)
                alt = (
                    (2 * a + 1) / 2
                    * cmath.cosh((8 * a - 2 * b + 3) * XI / 2) ** 2
                    / math.sin((2 * k + 1) * math.pi / (2 * a + 1)) ** 2
                )
                assert min(abs(rhs - alt), abs(rhs + alt)) <= 1e-10 * abs(rhs)

    def test_tau3_frozen_value(self):
        # direct transcription at (a,b,l,m) = (1,6,0,0): 4/sqrt(3) * sin(pi/3) = 2
        assert abs(tau3(XI, 0, 0, 1, 6) - 2.0) < 1e-12

    def test_tau3_magnitude_is_nn_theorem(self):
        for a, b in GRID + [(2, 12)]:
            span = 2 * b + 1 - 4 * (2 * a + 1)
            if span <= 1:
                continue
            for l in range(b - 4 * a - 2):
                for m in range(a):
                    rhs = abs(theorem_rhs("NN", a, b, (l, m)))
                    t3 = tau3(XI, l, m, a, b)
                    assert abs(rhs - 1 / t3 ** 2) <= 1e-10 * rhs

    @pytest.mark.parametrize("a, b", [(1, 6), (2, 10), (3, 40), (4, 80), (6, 200)])
    def test_tau0_against_cable_alexander(self, a, b):
        # tau0 takes Delta from Seifert's cable formula; the Fox route of the
        # cable presentation must give the same Delta across the band
        cable, _ = cable_exterior_presentation(a, b)
        for xi in (XI, 0.05 + 0.1j, -0.3 + 1.2j, 0.6 - 0.7j, -1.0 + 0.1j, 1.0 - 1.5j):
            expected = 2 * cmath.sinh(xi / 2) / alexander(cable, cmath.exp(xi))
            assert abs(tau0(xi, a, b) - expected) <= 1e-12 * abs(expected), xi

    def test_tau0_vanishing_alexander_reported(self):
        # Delta_T(2,3)(t^2) vanishes at t = e^(i pi/6)
        with pytest.raises(ClosedFormError, match="Delta"):
            tau0(cmath.pi / 6 * 1j, 1, 6)

    def test_vanishing_denominator_reported(self):
        # cosh((2b+1-4(2a+1)) xi / 2) vanishes at xi = i pi for span 1
        with pytest.raises(ClosedFormError):
            tau2(cmath.pi * 1j, 0, 1, 6)


class TestTorusKnotPair:
    def test_tau_torus_against_engine_magnitude(self):
        # odd k' for (c,d) = (2, 2a+1) reproduces |Tor(C)| of the NA family
        from cabletorsion.mayer_vietoris import build_torus_piece
        from cabletorsion.representations import rep_build

        for a, b in ((1, 6), (2, 10)):
            for k in range(a):
                rep = rep_build("NA", XI, a, b, k)
                piece = build_torus_piece(rep)
                k_odd = 2 * k + 1
                ref = 1 / tau_torus(k_odd, 2, 2 * a + 1) ** 2
                assert abs(abs(piece.torsion.value) - abs(ref)) <= 1e-8 * abs(ref)

    def test_tau_torus_values(self):
        # sin(k pi / 2) = +-1 for odd k
        assert abs(tau_torus(1, 2, 3) - 4 * math.sin(math.pi / 3) / math.sqrt(6)) < 1e-12


class TestTheoremRhs:
    def test_an_instantiated(self):
        w2 = cmath.exp(1j * math.pi / 13)
        expected = 13 * (w2 ** 3 + w2 ** -3) ** 2 / (2 * (w2 ** 2 - w2 ** -2) ** 2)
        assert abs(theorem_rhs("AN", 1, 6, 0) - expected) < 1e-12 * abs(expected)

    def test_nn_instantiated(self):
        # (1, 7): the first (a, b) with an NN index, as l < b - 4a - 2
        w1 = cmath.exp(1j * math.pi / 3)
        expected = 3 * (12 - 15) / (4 * (w1 - 1 / w1) ** 2)
        assert abs(theorem_rhs("NN", 1, 7, (0, 0)) - expected) < 1e-12 * abs(expected)

    def test_nn_magnitude_identity(self):
        # |rhs| = (2a+1)(2b+1-4(2a+1)) / (16 sin^2(theta)) with theta the
        # argument of omega1 = exp(i(2m+1)pi/(2a+1))
        for a, b in GRID + [(2, 12)]:
            for l in range(b - 4 * a - 2):
                for m in range(a):
                    theta = (2 * m + 1) * math.pi / (2 * a + 1)
                    expected = (2 * a + 1) * (2 * b + 1 - 4 * (2 * a + 1)) / (
                        16 * math.sin(theta) ** 2
                    )
                    value = abs(theorem_rhs("NN", a, b, (l, m)))
                    assert abs(value - expected) <= 1e-10 * expected

    def test_unknown_family(self):
        with pytest.raises(ClosedFormError):
            theorem_rhs("AA", 1, 6, ())

    def test_numpy_integer_index_is_an_int(self):
        assert theorem_rhs("AN", 3, 40, np.int64(5)) == theorem_rhs("AN", 3, 40, 5)
        assert theorem_rhs("NA", 3, 40, np.int32(1), XI) == theorem_rhs("NA", 3, 40, 1, XI)

    @pytest.mark.parametrize("index", [5.0, object()])
    def test_non_iterable_index_is_named(self, index):
        with pytest.raises(ClosedFormError, match=re.escape(f"index {index!r} is neither an integer")):
            theorem_rhs("AN", 3, 40, index)

    @pytest.mark.parametrize("index", [(5.0,), ("5",), (5, 1.0)])
    def test_non_integer_entry_is_named(self, index):
        with pytest.raises(ClosedFormError, match=re.escape(f"index {index!r} is neither an integer")):
            theorem_rhs("AN" if len(index) == 1 else "NN", 3, 40, index)

    @pytest.mark.parametrize("family, a, b, index, message", [
        ("AN", 3, 40, (1, 2), "family AN takes 1 index value(s), got (1, 2)"),
        ("NN", 3, 40, (5,), "family NN takes 2 index value(s), got (5,)"),
        ("NA", 3, 40, (), "family NA takes 1 index value(s), got ()"),
        ("AN", 1, 6, 100, "index (100,) outside the admissible range for AN at (a,b)=(1,6)"),
        ("AN", 1, 6, -1, "index (-1,) outside the admissible range for AN at (a,b)=(1,6)"),
        ("NA", 3, 40, (3,), "index (3,) outside the admissible range for NA at (a,b)=(3,40)"),
        ("NN", 1, 6, (0, 0), "index (0, 0) outside the admissible range for NN at (a,b)=(1,6)"),
        ("NN", 3, 40, (25, 3), "index (25, 3) outside the admissible range for NN at (a,b)=(3,40)"),
    ])
    def test_index_outside_its_range_is_named(self, family, a, b, index, message):
        # the oracle answers only for representations rep_build builds, with its messages
        with pytest.raises(ClosedFormError) as info:
            theorem_rhs(family, a, b, index)
        assert str(info.value) == message

"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS lines as the
criteria complete.  The (a, b) grid is {(1,6), (1,7), (2,10), (3,40)}; (3,40)
is where NA's float64 pattern piece lost a rank, which its exact route does
not.  Note the NN family has an empty index range at (1,6) and (2,10) (the
twist span 2b+1-4(2a+1) is 1 there, which would force the excluded root -1),
so its substantive checks run at (1,7) and (3,40).
"""

import cmath

import numpy as np

from cabletorsion.chains import presentation_complex, torus_complex
from cabletorsion.closed_forms import alexander, alexander_torus, theorem_rhs
from cabletorsion.mayer_vietoris import (
    build_pattern_piece,
    build_torus_piece,
    tor_E,
)
from cabletorsion.presentations import (
    pattern_piece_presentation,
    torus_piece_presentation,
)
from cabletorsion.representations import (
    abelian_representation,
    evaluate_word,
    index_range,
    invariant_vector,
    rep_build,
)
from cabletorsion.torsion import reidemeister_torsion, torsion_equal
from cabletorsion.words import fox_fundamental_defect
from conftest import b1_columns, random_word

GRID = [(1, 6), (1, 7), (2, 10), (3, 40)]
XI = 0.3 + 0.1j


def report(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


def random_xi(rng):
    return complex(rng.uniform(0.05, 1.0) * rng.choice([-1.0, 1.0]), rng.uniform(-1.0, 1.0))


def test_criterion_1_abelian_alexander(rng):
    """Engine torsion of T(2,3), T(2,5) equals +-(Delta(K; z^2)/(z - 1/z))^2."""
    checked = 0
    for a in (1, 2):
        pres, _ = torus_piece_presentation(a)
        h = np.array([0, 1, 0], dtype=complex)
        lift1 = np.zeros(6, dtype=complex)
        lift1[1] = 1.0
        for _ in range(20):
            xi = random_xi(rng)
            rep = abelian_representation(xi, pres)
            cplx = presentation_complex(pres, rep)
            tor = reidemeister_torsion(cplx, {1: [lift1], 0: [h]})
            z = rep.z
            ref = (alexander(pres, z ** 2) / (z - 1 / z)) ** 2
            assert torsion_equal(tor, ref, 1e-8), f"T(2,{2*a+1}) at xi={xi}"
            checked += 1
    report(1, f"abelian torsion = Alexander^2 on {checked} random xi")


def test_criterion_2_torus_torsion(rng):
    """Tor(S) = +-1 for 50 random commuting diagonal peripheral actions."""
    h = np.array([0, 1, 0], dtype=complex)
    lifts = {
        2: [h],
        1: [np.concatenate([h, np.zeros(3)]), np.concatenate([np.zeros(3), h])],
        0: [h],
    }
    done = 0
    while done < 50:
        zeta = cmath.exp(complex(rng.normal(), rng.normal()))
        eta = cmath.exp(complex(rng.normal(), rng.normal()))
        if abs(zeta ** 2 - 1) <= 0.1:
            continue
        cplx = torus_complex(np.diag([zeta ** -2, 1, zeta ** 2]), np.diag([eta ** -2, 1, eta ** 2]))
        assert torsion_equal(reidemeister_torsion(cplx, lifts), 1.0, 1e-9)
        done += 1
    report(2, "Tor(S) = +-1 on 50 random (zeta, eta)")


def test_criterion_3_an_end_to_end():
    """AN family: glued torsion matches the theorem for every j on the grid."""
    runs = 0
    for a, b in GRID:
        for (j,) in index_range("AN", a, b):
            result = tor_E("AN", a, b, j, XI)
            assert torsion_equal(result.value, theorem_rhs("AN", a, b, j), 1e-6)
            assert torsion_equal(result.tor_d, 0.5, 1e-8)
            assert torsion_equal(result.tor_h, 1 / (2 * b + 1), 1e-8)
            w2 = cmath.exp(1j * cmath.pi * (2 * j + 1) / (2 * b + 1))
            ref_c = (alexander_torus(a, w2 ** 2) / (w2 - 1 / w2)) ** 2
            assert torsion_equal(result.tor_c, ref_c, 1e-8)
            runs += 1
    report(3, f"AN end-to-end + intermediates on {runs} indices across {GRID}")


def test_criterion_4_na_end_to_end(rng):
    """NA family: every k, 5 random xi each, with all stated intermediates."""
    runs = 0
    for a, b in GRID:
        for (k,) in index_range("NA", a, b):
            for _ in range(5):
                xi = random_xi(rng)
                result = tor_E("NA", a, b, k, xi)
                assert torsion_equal(result.value, theorem_rhs("NA", a, b, k, xi), 1e-6)
                z = cmath.exp(xi / 2)
                omega1 = cmath.exp(1j * cmath.pi * (2 * k + 1) / (2 * a + 1))
                ref_c = (2 * a + 1) / (2 * (omega1 - 1 / omega1) ** 2)
                ref_d = (z ** (8 * a - 2 * b + 3) + z ** (-8 * a + 2 * b - 3)) ** 2
                assert torsion_equal(result.tor_c, ref_c, 1e-8)
                assert torsion_equal(result.tor_d, ref_d, 1e-8)
                assert torsion_equal(result.tor_h, 1.0, 1e-8)
                runs += 1
    report(4, f"NA end-to-end + intermediates on {runs} (k, xi) points")


def test_criterion_5_nn_end_to_end():
    """NN family: all (l, m) in range; Tor(H) = +-1/((2b+1)-4(2a+1))."""
    runs = 0
    empty_pairs = []
    for a, b in GRID:
        indices = index_range("NN", a, b)
        if not indices:
            empty_pairs.append((a, b))
            continue
        for index in indices:
            result = tor_E("NN", a, b, index, XI)
            assert torsion_equal(result.value, theorem_rhs("NN", a, b, index), 1e-6)
            assert torsion_equal(result.tor_h, 1 / (2 * b + 1 - 4 * (2 * a + 1)), 1e-8)
            runs += 1
    assert empty_pairs == [(1, 6), (2, 10)]  # span 1 forbids omega3
    assert runs > 0
    report(5, f"NN end-to-end on {runs} indices; range empty at {empty_pairs}")


def test_criterion_6_scalar_identities():
    """Pure closed-form cross-checks between theorem values and tau amplitudes."""
    import math

    from cabletorsion.closed_forms import tau1, tau2

    for a, b in GRID:
        for j in range(b):
            rhs = theorem_rhs("AN", a, b, j)
            ratio = rhs * tau1(XI, j, a, b) ** 2
            assert min(abs(ratio - 1), abs(ratio + 1)) <= 1e-10
        for k in range(a):
            rhs = theorem_rhs("NA", a, b, k, XI)
            assert abs(abs(rhs) - abs(tau2(XI, k, a, b) ** -2)) <= 1e-10 * abs(rhs)
        for l in range(max(b - 4 * a - 2, 0)):
            for m in range(a):
                theta = (2 * m + 1) * math.pi / (2 * a + 1)
                expected = (2 * a + 1) * (2 * b + 1 - 4 * (2 * a + 1)) / (16 * math.sin(theta) ** 2)
                assert abs(abs(theorem_rhs("NN", a, b, (l, m))) - expected) <= 1e-10 * expected
    report(6, "scalar identities tau1/tau2/tau3 vs theorem values on the full grid")


def test_criterion_7_engine_properties(rng):
    """Pivot independence, lift shifts, scaling, d1 d2 = 0, anti-hom, Fox identity."""
    rep = rep_build("AN", XI, 1, 6, 0)
    pres, _ = pattern_piece_presentation(6)
    cplx = presentation_complex(pres, rep)
    u, v = invariant_vector("U", rep), invariant_vector("V", rep)
    pad = lambda vec, blk: np.concatenate([vec, np.zeros(3)] if blk == 0 else [np.zeros(3), vec])
    lifts = {2: [u, v], 1: [pad(v, 0), pad(u, 1)]}
    base = reidemeister_torsion(cplx, lifts)

    draws = [reidemeister_torsion(cplx, lifts, rng=rng) for _ in range(10)]  # (i) pivot-choice independence
    assert all(torsion_equal(draw, base, 1e-9) for draw in draws)
    assert len({b1_columns(draw) for draw in draws}) >= 2  # other admissible choices, not the deterministic one

    boundary = cplx.d(2) @ (rng.normal(size=3) + 1j * rng.normal(size=3))
    shifted = {2: lifts[2], 1: [lifts[1][0] + boundary, lifts[1][1]]}
    assert torsion_equal(reidemeister_torsion(cplx, shifted), base, 1e-9)  # (ii)

    rep_na = rep_build("NA", XI, 1, 6, 0)
    cplx_na = presentation_complex(pres, rep_na)
    w = invariant_vector("W", rep_na)
    base_lifts = {2: [w], 1: [pad(w, 0), pad(w, 1)], 0: [w]}
    base_na = reidemeister_torsion(cplx_na, base_lifts)
    s = 1.3 + 0.4j
    for degree, power in [(0, -1), (1, 1), (2, -1)]:  # (iii) scaling law
        scaled_lifts = {d: list(vs) for d, vs in base_lifts.items()}
        scaled_lifts[degree] = [s * scaled_lifts[degree][0]] + scaled_lifts[degree][1:]
        scaled = reidemeister_torsion(cplx_na, scaled_lifts)
        assert torsion_equal(scaled, base_na.value * s ** power, 1e-9)

    for built in (cplx, cplx_na):  # (iv) d1 d2 = 0
        resid = np.linalg.norm(built.d(1) @ built.d(2))
        assert resid <= 1e-9 * np.linalg.norm(built.d(1)) * np.linalg.norm(built.d(2))

    gens = pres.generators
    for _ in range(100):  # (v) anti-homomorphism
        wu = random_word(rng, gens, 8)
        wv = random_word(rng, gens, 8)
        lhs = evaluate_word(rep, wu * wv)
        rhs = evaluate_word(rep, wv) @ evaluate_word(rep, wu)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(rhs)))

    for _ in range(100):  # (vi) Fox fundamental identity
        word = random_word(rng, gens, 12)
        assert fox_fundamental_defect(word, gens).terms == {}
    report(7, "engine properties (i)-(vi)")


def test_criterion_8_induced_map_goldens():
    """phi_1 equals the displayed integer matrices entrywise."""
    from cabletorsion.mayer_vietoris import induced_maps

    def phi1(family, a, b, index):
        rep = rep_build(family, XI, a, b, index)
        return induced_maps(rep, build_torus_piece(rep), build_pattern_piece(rep)).phi1

    goldens = [
        ("AN", 1, 6, 0, [[1, 0], [0, 0], [-2, 13]]),
        ("NA", 1, 6, 0, [[1, -6], [2, -12], [0, 1]]),
        # NN has no representation at (1,6); the display is checked at (1,7)
        ("NN", 1, 7, (0, 0), [[1, -6], [0, 0], [-2, 15]]),
    ]
    for family, a, b, index, expected in goldens:
        got = phi1(family, a, b, index)
        assert np.max(np.abs(got - np.array(expected, dtype=complex))) <= 1e-8
    report(8, "phi_1 displays recovered entrywise (NN at (1,7), see module docstring)")

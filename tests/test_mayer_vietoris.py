import cmath
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cabletorsion import chains, linalg, mayer_vietoris, representations
from cabletorsion.chains import ChainComplexError, class_coordinates, homology, presentation_complex
from cabletorsion.closed_forms import tau0, theorem_rhs
from cabletorsion.linalg import numerical_rank
from cabletorsion.mayer_vietoris import (
    EXACTNESS_TOL,
    InducedMaps,
    MayerVietorisError,
    build_gluing_torus,
    build_mv_sequence,
    build_pattern_piece,
    build_torus_piece,
    induced_maps,
    mv_torsion,
    tor_E,
    tor_E_abelian,
)
from cabletorsion.presentations import cable_exterior_presentation, torus_piece_presentation
from cabletorsion.representations import RepresentationError, evaluate_word, index_range, invariant_vector, rep_build
from cabletorsion.torsion import TorsionError, TorsionValue, reidemeister_torsion, torsion_equal
from conftest import assert_close, float_torsion, gluing_chains

XI = 0.3 + 0.1j


def assemble(family, a, b, index):
    rep = rep_build(family, XI, a, b, index)
    pieces = {"C": build_torus_piece(rep), "D": build_pattern_piece(rep), "S": build_gluing_torus(rep)}
    maps = induced_maps(rep, pieces["C"], pieces["D"])
    return rep, pieces, maps


class TestInducedMapGoldens:
    def test_an_phi1_display(self):
        _, _, maps = assemble("AN", 1, 6, 0)
        assert_close(maps.phi1, [[1, 0], [0, 0], [-2, 13]], 1e-8)

    def test_na_phi1_display(self):
        _, _, maps = assemble("NA", 1, 6, 0)
        assert_close(maps.phi1, [[1, -6], [2, -12], [0, 1]], 1e-8)

    def test_nn_phi1_display(self):
        # the NN index range is empty at (1,6); the display is checked at (1,7)
        _, _, maps = assemble("NN", 1, 7, (0, 0))
        assert_close(maps.phi1, [[1, -6], [0, 0], [-2, 15]], 1e-8)

    def test_phi1_and_phi2_injective(self):
        for family, a, b, index in [("AN", 1, 6, 0), ("NA", 1, 6, 0), ("NN", 1, 7, (0, 0))]:
            _, _, maps = assemble(family, a, b, index)
            assert numerical_rank(maps.phi1) == maps.phi1.shape[1]
            assert numerical_rank(maps.phi2) == maps.phi2.shape[1]

    def test_phi0_is_isomorphism_where_defined(self):
        _, _, maps_an = assemble("AN", 1, 6, 0)
        assert_close(maps_an.phi0, [[1]], 1e-9)
        _, _, maps_na = assemble("NA", 1, 6, 0)
        assert_close(maps_na.phi0, [[1]], 1e-9)
        _, _, maps_nn = assemble("NN", 1, 7, (0, 0))
        assert maps_nn.phi0.shape == (0, 1)

    @pytest.mark.parametrize("family, a, b, index, case", [
        ("AN", 1, 6, 0, "U"), ("NA", 1, 6, 0, "W"), ("NA", 2, 10, 1, "W"), ("NN", 1, 7, (0, 0), "Ut"),
    ])
    def test_phi2_phi0_unit_columns_match_class_coordinates(self, family, a, b, index, case):
        # Reference: the classes of S pushed into each piece and solved for by
        # least squares against its lifts, as a chain-level computation.
        rep, pieces, maps = assemble(family, a, b, index)
        c, d = pieces["C"], pieces["D"]
        v = invariant_vector(case, rep)
        pres, _ = torus_piece_presentation(a)
        conj = pres.word("y") * (pres.word("x y") ** a)
        images2 = [(c, (np.eye(3) - evaluate_word(rep, conj)) @ v), (d, v)]
        phi2 = np.concatenate([
            class_coordinates(chain, float_torsion(piece).bases[2], piece.complex, 2)
            for piece, chain in images2 if piece.lifts.get(2)
        ])
        phi0 = np.concatenate([np.zeros(0)] + [
            class_coordinates(v, float_torsion(piece).bases[0], piece.complex, 0)
            for piece in (c, d) if piece.lifts.get(0)
        ])
        assert maps.phi2.shape == (len(phi2), 1) and maps.phi0.shape == (len(phi0), 1)
        assert np.max(np.abs(maps.phi2[:, 0] - phi2)) <= 1e-10
        assert np.max(np.abs(maps.phi0[:, 0] - phi0), initial=0.0) <= 1e-10


def lstsq_coordinates(cycle, lifts, cplx, degree):
    """Reference class coordinates: the lifts next to an orthonormal basis of
    im d_(degree+1) from its SVD (rank at 1e-9 sigma_max), solved by least squares."""
    d_up = cplx.d(degree + 1)
    columns = list(lifts)
    if d_up.size:
        u, sigma, _ = np.linalg.svd(d_up)
        columns += list(u[:, :int(np.count_nonzero(sigma > 1e-9 * sigma[0]))].T)
    sol, *_ = np.linalg.lstsq(np.column_stack(columns), cycle, rcond=None)
    return sol[:len(lifts)]


class TestAssembledBasisCoordinates:
    """class_coordinates in the torsion's assembled basis against least squares."""

    @pytest.mark.parametrize("family, a, b, index", [
        ("AN", 1, 6, 0), ("NA", 1, 6, 0), ("NA", 2, 10, 1), ("NN", 1, 7, (0, 0)),
        ("AN", 3, 40, 5), ("NN", 3, 40, (25, 2)),
    ])
    def test_every_piece_and_degree_matches_least_squares(self, rng, family, a, b, index):
        rep, pieces, maps = assemble(family, a, b, index)
        gluing = {name: gluing_chains(rep, name) for name in "CD"}  # the reference walk's chains
        for piece in pieces.values():
            bases = float_torsion(piece).bases
            for k, lifts in piece.lifts.items():
                if not lifts:
                    continue
                # each lift, a random class plus a boundary of comparable size,
                # and in degree 1 the chains of mu_C and la_C
                d_up = piece.complex.d(k + 1)
                coeffs = rng.normal(size=len(lifts)) + 1j * rng.normal(size=len(lifts))
                boundary = d_up @ rng.normal(size=d_up.shape[1]) / max(np.linalg.norm(d_up), 1.0)
                mixed = np.column_stack(lifts) @ coeffs + boundary
                cycles = list(lifts) + [mixed] + list(gluing.get(piece.name, ()) if k == 1 else ())
                for cycle in cycles:
                    assert_close(
                        class_coordinates(cycle, bases[k], piece.complex, k),
                        lstsq_coordinates(cycle, lifts, piece.complex, k),
                        1e-10, f"{piece.name} degree {k}",
                    )
                assert_close(
                    class_coordinates(mixed, bases[k], piece.complex, k),
                    coeffs, 1e-10, f"{piece.name} degree {k} random class",
                )
            if piece.name != "S":
                with pytest.raises(ChainComplexError, match="not a cycle"):
                    class_coordinates(np.ones(piece.complex.dims[1]), bases[1], piece.complex, 1)
        # phi_1, integer rows, is the coordinates of the reference walk's chains, C stacked over D
        reference = np.column_stack([
            np.concatenate([
                lstsq_coordinates(gluing[name][col], pieces[name].lifts[1], pieces[name].complex, 1)
                for name in ("C", "D")
            ])
            for col in range(2)
        ])
        assert_close(maps.phi1, reference, 1e-10, "phi_1")


class TestSequence:
    def test_mv_torsion_values(self):
        for family, a, b, index, expected in [
            ("AN", 1, 6, 0, 1 / 13),
            ("NA", 1, 6, 0, 1.0),
            ("NN", 1, 7, (0, 0), 1 / 3),
        ]:
            _, pieces, maps = assemble(family, a, b, index)
            seq = build_mv_sequence(family, maps, pieces)
            assert torsion_equal(mv_torsion(seq), expected, 1e-8)

    def test_sequence_is_exact(self):
        for family, a, b, index in [("AN", 1, 6, 0), ("NA", 2, 10, 1), ("NN", 1, 7, (0, 0))]:
            _, pieces, maps = assemble(family, a, b, index)
            seq = build_mv_sequence(family, maps, pieces)
            assert homology(seq, tol=1e-8).dims == tuple([0] * 9)
            # psi o phi = 0 at both composite slots
            assert np.linalg.norm(seq.d(7) @ seq.d(8)) < 1e-8
            assert np.linalg.norm(seq.d(4) @ seq.d(5)) < 1e-8

    def test_an_sequence_shape(self):
        _, pieces, maps = assemble("AN", 1, 6, 0)
        seq = build_mv_sequence("AN", maps, pieces)
        assert seq.dims == (0, 1, 1, 1, 3, 2, 1, 2, 1)
        assert not seq.d(6).any()  # delta_2 = 0
        assert not seq.d(3).any()  # delta_1 = 0

    def test_nn_sequence_delta1_surjective(self):
        _, pieces, maps = assemble("NN", 1, 7, (0, 0))
        seq = build_mv_sequence("NN", maps, pieces)
        assert seq.dims == (0, 0, 1, 2, 3, 2, 2, 3, 1)
        assert numerical_rank(seq.d(3)) == 1  # delta_1 onto H_0(S)

    def test_corrupted_maps_fail_exactness(self):
        # psi and delta are rebuilt from phi, so degree-1 corruption heals;
        # killing phi_0 leaves H_0(C)+H_0(D) uncovered and exactness fails
        _, pieces, maps = assemble("AN", 1, 6, 0)
        maps.phi0 = np.zeros_like(maps.phi0)
        with pytest.raises(MayerVietorisError, match="not exact"):
            build_mv_sequence("AN", maps, pieces)


class TestTorE:
    def test_an_against_theorem(self):
        result = tor_E("AN", 1, 6, 0, XI)
        assert torsion_equal(result.value, theorem_rhs("AN", 1, 6, 0), 1e-6)
        assert torsion_equal(result.tor_d, 0.5, 1e-8)
        assert torsion_equal(result.tor_s, 1.0, 1e-9)
        assert torsion_equal(result.tor_h, 1 / 13, 1e-8)

    def test_na_against_theorem(self):
        result = tor_E("NA", 2, 10, 1, XI)
        assert torsion_equal(result.value, theorem_rhs("NA", 2, 10, 1, XI), 1e-6)

    def test_nn_against_theorem(self):
        result = tor_E("NN", 1, 7, (0, 0), XI)
        assert torsion_equal(result.value, theorem_rhs("NN", 1, 7, (0, 0)), 1e-6)

    def test_an_value_is_xi_independent(self, rng):
        values = []
        for _ in range(5):
            xi = complex(rng.uniform(0.05, 1.0) * rng.choice([-1, 1]), rng.uniform(-1, 1))
            values.append(tor_E("AN", 1, 6, 2, xi).value.value)
        for v in values[1:]:
            assert min(abs(v - values[0]), abs(v + values[0])) <= 1e-7 * abs(values[0])

    def test_nn_value_is_xi_independent(self, rng):
        values = []
        for _ in range(5):
            xi = complex(rng.uniform(0.05, 1.0) * rng.choice([-1, 1]), rng.uniform(-1, 1))
            values.append(tor_E("NN", 1, 7, (0, 0), xi).value.value)
        for v in values[1:]:
            assert min(abs(v - values[0]), abs(v + values[0])) <= 1e-7 * abs(values[0])

    def test_na_value_tracks_the_z_factor(self, rng):
        # dividing out the z-dependent square leaves a xi-independent constant
        a, b, k = 1, 6, 0
        constants = []
        for _ in range(5):
            xi = complex(rng.uniform(0.05, 1.0) * rng.choice([-1, 1]), rng.uniform(-1, 1))
            z = cmath.exp(xi / 2)
            factor = (z ** (8 * a - 2 * b + 3) + z ** (-8 * a + 2 * b - 3)) ** 2
            constants.append(tor_E("NA", a, b, k, xi).value.value / factor)
        for c in constants[1:]:
            assert min(abs(c - constants[0]), abs(c + constants[0])) <= 1e-7 * abs(constants[0])

    def test_tor_e_walks_no_loop_and_builds_no_reference_scalar(self, monkeypatch):
        # phi_1 is integer rows: tor_E walks no loop and builds no mpmath scalar, matrix or
        # adjoint of the reference walk, whatever b is.
        called = []
        for module in (chains, mayer_vietoris):
            monkeypatch.setattr(module, "chain_of_loop_hp", lambda *args: called.append("walk"), raising=False)
        for module, name in ((representations, "hp_assignment"), (chains, "_hp_adjoint")):
            monkeypatch.setattr(module, name, lambda *args, name=name: called.append(name))
        for b in (40, 80):
            for family, index in (("AN", (0,)), ("NA", (0,)), ("NN", (0, 0))):
                tor_E(family, 3, b, index, 0.1 + 0.5j)
        assert called == []

    def test_tor_e_imports_no_mpmath(self):
        # mpmath serves only the reference walk: a fresh interpreter that runs the
        # gluing route for every non-abelian family never loads it
        script = (
            "import sys\n"
            "from cabletorsion.mayer_vietoris import tor_E\n"
            "for family, index in (('AN', (0,)), ('NA', (0,)), ('NN', (0, 0))):\n"
            "    tor_E(family, 3, 40, index, 0.1 + 0.5j)\n"
            "sys.exit('mpmath' in sys.modules)\n"
        )
        src = str(Path(mayer_vietoris.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr or "tor_E imported mpmath"

    def test_na_edge_passes_through_the_exact_pattern_side(self):
        # NA (3,40) at Re xi = 1: the float64 complex of D loses a boundary rank,
        # and the exact route of the abelian side does not build it
        piece = build_pattern_piece(rep_build("NA", 1 + 0j, 3, 40, (0,)))
        with pytest.raises(TorsionError, match="cannot supply 2 numerically independent"):
            reidemeister_torsion(piece.complex, piece.lifts)
        assert torsion_equal(tor_E("NA", 3, 40, (0,), 1 + 0j).value, theorem_rhs("NA", 3, 40, (0,), 1), 1e-10)

    def test_aa_not_routed_through_gluing(self):
        with pytest.raises(MayerVietorisError):
            tor_E("AA", 1, 6, (), XI)

    def test_abelian_direct_route(self):
        value = tor_E_abelian(1, 6, XI)
        assert torsion_equal(value, tau0(XI, 1, 6) ** -2, 1e-8)

    def test_direct_e_complex_is_diagnostic_only(self):
        # homology dims of the four-generator complex match the assembled answer
        rep = rep_build("AN", XI, 1, 6, 0)
        pres, _ = cable_exterior_presentation(1, 6)
        assert homology(presentation_complex(pres, rep)).dims == (0, 1, 1)
        rep_nn = rep_build("NN", XI, 1, 7, (0, 0))
        pres7, _ = cable_exterior_presentation(1, 7)
        assert homology(presentation_complex(pres7, rep_nn)).dims == (0, 2, 2)

    def test_empty_index_ranges(self):
        assert index_range("NN", 1, 6) == []
        assert index_range("NN", 2, 10) == []
        assert index_range("AN", 1, 6) == [(j,) for j in range(6)]


GRID = [(1, 6), (1, 7), (2, 10)]
CROSS_CHECK_CALLS = [
    (family, a, b, index)
    for a, b in GRID for family in ("AN", "NA", "NN") for index in index_range(family, a, b)
] + [("AN", 3, 40, (0,)), ("AN", 3, 40, (39,)), ("NN", 3, 40, (0, 0)), ("NN", 3, 40, (25, 2))]


@pytest.mark.parametrize("family, a, b, index, xi, message", [
    ("AN", 0, 6, 0, XI, "parameters need a >= 1: got a=0"),
    ("NA", -1, 3, 0, XI, "parameters need a >= 1: got a=-1"),
    ("NN", 1.0, 7, (0, 0), XI, "parameters a and b must be integers: got a=1.0, b=7"),
    ("AN", 1, 6.5, 0, XI, "parameters a and b must be integers: got a=1, b=6.5"),
    ("AN", 1, 6, 0, complex("nan"), "xi = (nan+0j) is not finite"),
    ("NA", 1, 6, 0, complex(float("-inf"), 0.1), "xi = (-inf+0.1j) is not finite"),
    ("NN", 1, 7, (0, 0), complex(0.3, float("nan")), "xi = (0.3+nanj) is not finite"),
])
def test_tor_e_shares_the_named_guards(family, a, b, index, xi, message):
    with pytest.raises(RepresentationError) as info:
        tor_E(family, a, b, index, xi)
    assert str(info.value) == message


class TestAbelianRoute:
    """tor_E_abelian from the exact Laurent minor, behind rep_build's guards."""

    @pytest.mark.parametrize("a, b, xi, error, message", [
        (1, 5, 0.3, "RepresentationError", "parameters need 2b+1 > 4(2a+1): got 2b+1=11, 4(2a+1)=12"),
        (0, 6, 0.3, "RepresentationError", "parameters need a >= 1: got a=0"),
        (1.5, 6, 0.3, "RepresentationError", "parameters a and b must be integers: got a=1.5, b=6"),
        (1, 6.0, 0.3, "RepresentationError", "parameters a and b must be integers: got a=1, b=6.0"),
        (1, 6, complex("nan"), "RepresentationError", "xi = (nan+0j) is not finite"),
        (1, 6, complex(0.3, float("inf")), "RepresentationError", "xi = (0.3+infj) is not finite"),
        (1, 6, 0.0005 + 1j, "RepresentationError", "|Re xi| = 5.00e-04 below the degeneracy guard 0.001"),
        (1, 6, 0, "RepresentationError", "|Re xi| = 0.00e+00 below the degeneracy guard 0.001"),
        (6, 200, -0.0009, "RepresentationError", "|Re xi| = 9.00e-04 below the degeneracy guard 0.001"),
    ])
    def test_guards_keep_their_messages(self, a, b, xi, error, message):
        with pytest.raises(ValueError) as info:
            tor_E_abelian(a, b, xi)
        assert (type(info.value).__name__, str(info.value)) == (error, message)

    def test_builds_no_representation_or_complex(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the abelian route built a representation or a complex")

        for name in ("rep_build", "presentation_complex", "reidemeister_torsion"):
            monkeypatch.setattr(mayer_vietoris, name, forbidden)
        xi = -1 + 0.1j  # (6, 200) at the edge of the band: powers up to e^212
        value = tor_E_abelian(6, 200, xi).value
        assert abs(value - tau0(xi, 6, 200) ** -2) <= 1e-10 * abs(value)

    def test_past_the_float64_range_is_named(self):
        with pytest.raises(TorsionError, match="outside float64"):
            tor_E_abelian(6, 200, 4 + 0.1j)


@pytest.fixture
def fresh_phi1_det():
    """An empty cache of det[phi_1 | e_designated1] before and after: a test that patches
    phi_1 must not read, or leave, determinants of the real one."""
    mayer_vietoris._phi1_det.cache_clear()
    yield mayer_vietoris._phi1_det
    mayer_vietoris._phi1_det.cache_clear()


class TestNineSlotCrossCheck:
    """tor_E takes Tor(H*) from det[phi_1 | e_designated1]; the nine-slot
    sequence, built on demand, must agree with it."""

    @pytest.mark.parametrize("family, a, b, index", CROSS_CHECK_CALLS)
    def test_sequence_route_agrees_with_the_determinant(self, family, a, b, index, monkeypatch, fresh_phi1_det):
        result = tor_E(family, a, b, index, XI)
        assert homology(result.sequence, tol=EXACTNESS_TOL).dims == (0,) * 9
        # same value and the same sign, not just equal modulo sign
        via_sequence = mv_torsion(result.sequence).value
        assert abs(via_sequence - result.tor_h.value) <= 1e-12 * abs(result.tor_h.value)
        # the value takes Tor(S) as exactly 1; S, built on first read, agrees
        assert result.tor_s == TorsionValue(1)
        assert torsion_equal(result.pieces["S"].torsion, 1.0, 1e-9)

        # a rank-deficient phi_1 trips the span guard on both routes
        deficient = InducedMaps(result.maps.phi2, result.maps.phi1.copy(), result.maps.phi0)
        deficient.phi1[:, 1] = 2 * deficient.phi1[:, 0]
        span = "image of phi plus designated classes do not span the middle slot"
        with pytest.raises(MayerVietorisError, match=span):
            build_mv_sequence(family, deficient, result.pieces)
        monkeypatch.setattr(mayer_vietoris, "_phi1", lambda *args: deficient.phi1)
        fresh_phi1_det.cache_clear()  # the first call kept the real determinant
        for _ in range(2):  # on every call: the cache keeps no exception
            with pytest.raises(MayerVietorisError, match=span):
                tor_E(family, a, b, index, XI)

    @pytest.mark.parametrize("family, index, other", [("AN", (5,), (39,)), ("NA", (1,), (2,)), ("NN", (5, 1), (0, 0))])
    def test_warm_call_repeats_no_work(self, family, index, other, monkeypatch, fresh_phi1_det):
        # det[phi_1 | e_designated1] is kept per (family, a, b), and rep_build checks the index once
        calls = {"_ldet": 0, "_checked_index": 0}
        for module, name in ((mayer_vietoris, "_ldet"), (representations, "_checked_index")):
            monkeypatch.setattr(module, name, lambda *args, _f=getattr(module, name), _n=name, **kw:
                                calls.__setitem__(_n, calls[_n] + 1) or _f(*args, **kw))
        tor_E(family, 3, 40, index, XI)
        assert calls["_ldet"] > 0 and calls["_checked_index"] == 1
        calls.update(dict.fromkeys(calls, 0))
        got = tor_E(family, 3, 40, other, -1 + 1j)
        assert calls == {"_ldet": 0, "_checked_index": 1}
        assert got.tor_h.value == 1 / {"AN": -81, "NA": -1, "NN": 28 - 81}[family]

    @pytest.mark.parametrize("family, a, b, index", [("AN", 3, 40, (5,)), ("NA", 2, 10, (1,)), ("NN", 1, 7, (0, 0))])
    def test_hot_path_builds_no_sequence(self, family, a, b, index, monkeypatch):
        want = tor_E(family, a, b, index, XI)

        def refuse(*args):
            raise AssertionError("tor_E built the nine-slot sequence or the splitting torus")

        for name in ("build_mv_sequence", "mv_torsion", "build_gluing_torus", "torus_complex"):
            monkeypatch.setattr(mayer_vietoris, name, refuse)
        got = tor_E(family, a, b, index, XI)
        assert (got.value.value, got.tor_h.value) == (want.value.value, want.tor_h.value)
        with pytest.raises(AssertionError, match="nine-slot sequence or the splitting torus"):
            got.sequence  # built on first read, through build_mv_sequence
        with pytest.raises(AssertionError, match="nine-slot sequence or the splitting torus"):
            got.pieces  # built on first read, S through build_gluing_torus


    @pytest.mark.parametrize("family, index", [("AN", (5,)), ("NA", (1,)), ("NN", (3, 1))])
    def test_hot_path_decides_no_rank(self, family, index, monkeypatch):
        # both sides are exact and [phi_1 | e_designated1] is an integer determinant:
        # no singular value, no determinant certificate and no assembled basis
        calls = []
        for module, name in ((np.linalg, "svd"), (np.linalg, "det"), (linalg, "conditioned_det")):
            monkeypatch.setattr(module, name, lambda *args, _f=getattr(module, name), **kw:
                                calls.append(args[0].shape) or _f(*args, **kw))
        result = tor_E(family, 3, 40, index, XI)
        assert calls == []
        assert not result.tor_c.bases and not result.tor_d.bases
        assert result.tor_h.value == 1 / {"AN": -81, "NA": -1, "NN": 28 - 81}[family]


class TestSplittingTorusDropped:
    """Calls whose float64 torsion of S used to raise, though C, D and the
    gluing are fine: tor_E no longer computes Tor(S)."""

    @pytest.mark.parametrize("a, b, k, xi", [
        (5, 23, 4, 0.704 - 0.753j), (5, 23, 3, -0.778 + 0.468j),
        (4, 19, 1, -0.863 - 0.211j), (5, 23, 1, 0.991 + 0.552j),
    ])
    def test_na_matches_theorem(self, a, b, k, xi):
        result = tor_E("NA", a, b, (k,), xi)
        assert torsion_equal(result.value, theorem_rhs("NA", a, b, (k,), xi), 1e-6)

    def test_hand_built_torus_keeps_the_commutation_guard(self):
        # AN (3,40) j = 0 at xi = -1+i: the certified rep takes Ad(la_C) = I, while the same
        # matrices, hand-built and so uncertified, walk la_C in float64 and fail the guard
        rep = rep_build("AN", -1 + 1j, 3, 40, (0,))
        assert torsion_equal(build_gluing_torus(rep).torsion, 1.0, 1e-9)
        hand_built = representations.Representation("AN", rep.assignment, rep.xi, 3, 40, rep.index)
        with pytest.raises(ChainComplexError, match="peripheral adjoint actions do not commute"):
            build_gluing_torus(hand_built)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_peripheral_action_is_named(self, bad, monkeypatch):
        # the commutator norm of a non-finite matrix compares False, so the
        # commutation test alone would let these actions through S, built on demand
        m, l = np.eye(3, dtype=complex), np.full((3, 3), bad, dtype=complex)
        with np.errstate(invalid="ignore"):
            assert not np.linalg.norm(m @ l - l @ m) > 1e-9 * max(np.linalg.norm(m) * np.linalg.norm(l), 1.0)
        rep = rep_build("AN", XI, 1, 6, (0,))
        monkeypatch.setattr(mayer_vietoris, "evaluate_word", lambda rep, word: np.full((3, 3), bad))
        with pytest.raises(ChainComplexError, match="peripheral adjoint actions have non-finite entries"):
            build_gluing_torus(rep)


PRECISION_GOLDENS = json.loads(
    (Path(__file__).parent / "golden" / "tor_E_precision_path.json").read_text()
)["cases"]


@pytest.mark.parametrize(
    "case", PRECISION_GOLDENS,
    ids=lambda c: f"{c['family']}{tuple(c['index'])}-({c['a']},{c['b']})-re{c['xi'][0]:+g}",
)
def test_precision_path_goldens(case):
    """tor_E at the edge of the xi band, where loop walks decided the digits
    when the values were recorded (before the walks moved to flat integer
    kernels): within 1e-12 relative (the closed-form match
    is 1e-6), and each recorded error with its type and message.  A value
    re-recorded since keeps its predecessor as ``old_value`` when it came
    closer to the closed form, and must stay closer than it."""
    args = (case["family"], case["a"], case["b"], tuple(case["index"]), complex(*case["xi"]))
    if "error" in case:
        with pytest.raises(Exception) as info:
            tor_E(*args)
        assert (type(info.value).__name__, str(info.value)) == (case["error"]["type"], case["error"]["message"])
    else:
        want = complex(*case["value"])
        assert abs(tor_E(*args).value.value - want) <= 1e-12 * abs(want)
        if "old_value" in case:
            ref = theorem_rhs(*args)
            old = complex(*case["old_value"])
            assert min(abs(want - ref), abs(want + ref)) < min(abs(old - ref), abs(old + ref))

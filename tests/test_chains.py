import mpmath
import numpy as np
import pytest

from cabletorsion.chains import (
    HP_BITS,
    ChainComplexError,
    _fox_walk,
    _hp_adjoint,
    abelian_fox_rows,
    alexander_minor,
    chain_of_loop,
    chain_of_loop_hp,
    class_coordinates,
    homology,
    presentation_complex,
    torus_complex,
)
from cabletorsion import chains, linalg
from cabletorsion.mayer_vietoris import build_pattern_piece, build_torus_piece, tor_E
from cabletorsion.presentations import (
    abelianization_exponents,
    cable_exterior_presentation,
    pattern_piece_presentation,
    torus_piece_presentation,
)
from cabletorsion.representations import (
    _adj2,
    _family_entries,
    _invariant_entries,
    _invariant_root,
    abelian_representation,
    evaluate_ring,
    evaluate_word,
    hp_assignment,
    invariant_vector,
    rep_build,
)
from cabletorsion.words import fox_derivative
from conftest import abelian_chains, assert_close, float_torsion, mp_family_scalars, random_word

XI = 0.3 + 0.1j


def pad(vec, block, nblocks=2):
    out = np.zeros(3 * nblocks, dtype=complex)
    out[3 * block:3 * block + 3] = vec
    return out


@pytest.fixture(scope="module")
def rep_an():
    return rep_build("AN", XI, 1, 6, 0)


@pytest.fixture(scope="module")
def rep_na():
    return rep_build("NA", XI, 1, 6, 0)


def piece_coordinates(piece, cycle, degree=1):
    """class_coordinates in the basis the piece's float64 torsion was assembled in."""
    return class_coordinates(cycle, float_torsion(piece).bases[degree], piece.complex, degree)


class TestPresentationComplex:
    def test_trefoil_abelian_shapes_and_rank(self):
        pres, _ = torus_piece_presentation(1)
        rep = abelian_representation(XI, pres)
        cplx = presentation_complex(pres, rep)
        assert cplx.dims == (3, 6, 3)
        assert cplx.d(2).shape == (6, 3)
        assert cplx.d(1).shape == (3, 6)
        assert np.linalg.matrix_rank(cplx.d(1)) == 2

    def test_cable_an_shapes(self, rep_an):
        pres, _ = cable_exterior_presentation(1, 6)
        cplx = presentation_complex(pres, rep_an)
        assert cplx.dims == (3, 12, 9)
        assert sum((-1) ** i * d for i, d in enumerate(cplx.dims)) == 0  # Euler characteristic

    def test_pattern_d2_matches_factorized_display(self, rep_an):
        # the 6x3 differential of the pattern piece factors through theta1
        # conjugation as blockdiag * diag * sign-pattern * diag
        pres, _ = pattern_piece_presentation(6)
        cplx = presentation_complex(pres, rep_an)
        z, w2 = rep_an.z, rep_an.omega2
        d = w2 ** -1 * z - z ** -1  # theta1, the conjugator of the upper-triangular x-action model
        theta = np.array([[1, 0, 0], [d, 1, 0], [-d * d, -2 * d, 1]], dtype=complex)
        left = np.array(
            [
                w2 ** -1 * ((w2 - 1) ** 2 * z ** 2 - w2) * z ** -2,
                w2 ** -2 * (w2 - 1) * ((w2 - 1) * z ** 2 + w2) * z ** -1,
                w2 ** -3 * (w2 - 1) ** 2 * (z ** 2 - w2),
                1,
                w2 ** -1 * (w2 - 1) * z,
                w2 ** -2 * (w2 - 1) ** 2 * (z ** 2 - w2),
            ]
        )
        signs = np.array(
            [[-1, 2, 1], [1, -2, -1], [1, -2, -1], [1, -2, -1], [1, -2, -1], [-1, 2, 1]],
            dtype=complex,
        )
        right = np.array(
            [
                (w2 + 1) * (z ** 2 - w2) / w2 ** 2,
                (z ** 2 - w2) / (w2 * (w2 - 1) * z),
                ((w2 ** 2 - w2 + 1) * z ** 2 - w2) / ((w2 - 1) ** 2 * z ** 2),
            ]
        )
        block = np.zeros((6, 6), dtype=complex)
        block[:3, :3] = theta
        block[3:, 3:] = theta
        display = block @ np.diag(left) @ signs @ np.diag(right) @ np.linalg.inv(theta)
        assert_close(cplx.d(2), display, 1e-12)

    def test_d1_d2_vanishes_on_all_built_complexes(self, rep_an, rep_na):
        for pres_fn, rep in [
            (lambda: torus_piece_presentation(1)[0], rep_an),
            (lambda: pattern_piece_presentation(6)[0], rep_na),
            (lambda: cable_exterior_presentation(1, 6)[0], rep_an),
        ]:
            cplx = presentation_complex(pres_fn(), rep)
            residual = np.linalg.norm(cplx.d(1) @ cplx.d(2))
            scale = np.linalg.norm(cplx.d(1)) * np.linalg.norm(cplx.d(2))
            assert residual <= 1e-9 * scale


class TestTorusComplex:
    def test_displayed_matrices(self):
        zeta, eta = 1.4 + 0.2j, 0.7 - 0.3j
        M = np.diag([zeta ** -2, 1, zeta ** 2])
        L = np.diag([eta ** -2, 1, eta ** 2])
        cplx = torus_complex(M, L)
        assert_close(cplx.d(2), np.vstack([np.eye(3) - L, M - np.eye(3)]))
        assert_close(cplx.d(1), np.hstack([M - np.eye(3), L - np.eye(3)]))

    def test_trivial_actions_give_zero_differentials(self):
        cplx = torus_complex(np.eye(3), np.eye(3))
        assert np.all(cplx.d(1) == 0) and np.all(cplx.d(2) == 0)
        assert homology(cplx).dims == (3, 6, 3)

    def test_generic_homology_dims(self):
        zeta, eta = 1.4 + 0.2j, 0.7 - 0.3j
        cplx = torus_complex(
            np.diag([zeta ** -2, 1, zeta ** 2]), np.diag([eta ** -2, 1, eta ** 2])
        )
        assert homology(cplx).dims == (1, 2, 1)

    def test_rejects_noncommuting_actions(self, rep_na):
        with pytest.raises(ChainComplexError):
            torus_complex(rep_na.adjoints["x"], rep_na.adjoints["y"])

    def test_rejects_non_finite_actions_by_name(self):
        # the check the splitting torus makes, before BasedChainComplex would see the entries
        with pytest.raises(ChainComplexError, match="peripheral adjoint actions have non-finite entries"):
            torus_complex(np.eye(3), np.full((3, 3), np.inf))


class TestHomologyTables:
    def test_homology_dims_per_piece_and_family(self, rep_an, rep_na):
        rep_nn = rep_build("NN", XI, 1, 7, (0, 0))
        presC, _ = torus_piece_presentation(1)
        presD6, _ = pattern_piece_presentation(6)
        presD7, _ = pattern_piece_presentation(7)
        table = [
            (presC, rep_an, (1, 1, 0)),
            (presD6, rep_an, (0, 2, 2)),
            (presC, rep_na, (0, 1, 1)),
            (presD6, rep_na, (1, 2, 1)),
            (presC, rep_nn, (0, 1, 1)),
            (presD7, rep_nn, (0, 2, 2)),
        ]
        for pres, rep, dims in table:
            assert homology(presentation_complex(pres, rep)).dims == dims

    @pytest.mark.parametrize(
        "family, a, b, index", [("AN", 1, 6, 0), ("NA", 1, 6, 0), ("NN", 1, 7, (0, 0)), ("AN", 3, 40, 5)]
    )
    def test_dims_are_the_kernel_minus_image_count(self, family, a, b, index):
        """Betti numbers from ranks equal dim Z_i - dim B_i from explicit bases."""
        result = tor_E(family, a, b, index, XI)
        complexes = [(piece.complex, linalg.DEFAULT_RANK_TOL) for piece in result.pieces.values()]
        for cplx, tol in complexes + [(result.sequence, 1e-8)]:
            want = tuple(
                (n if i == 0 else len(linalg.kernel_basis(cplx.d(i), tol)))
                - linalg.numerical_rank(cplx.d(i + 1), tol)
                for i, n in enumerate(cplx.dims)
            )
            assert homology(cplx, tol).dims == want

    def test_gluing_torus_dims(self, rep_an):
        presC, periC = torus_piece_presentation(1)
        cplx = torus_complex(
            evaluate_word(rep_an, periC["mu_C"]), evaluate_word(rep_an, periC["lambda_C"])
        )
        assert homology(cplx).dims == (1, 2, 1)


class TestClassCoordinates:
    # D of AN has lifts V, U on p~ and t~ in degree 1; C of NA has W on x~
    def test_columns_are_solved_together_and_checked_one_by_one(self, rep_an):
        piece = build_pattern_piece(rep_an)
        cycles = np.column_stack(piece.lifts[1])
        together = piece_coordinates(piece, cycles)
        for col, lift in enumerate(piece.lifts[1]):
            assert np.array_equal(together[:, col], piece_coordinates(piece, lift))
        cycles[0, 1] += 1.0  # the second column is no longer a cycle
        with pytest.raises(ChainComplexError, match="not a cycle"):
            piece_coordinates(piece, cycles)

    def test_lift_against_itself(self, rep_an):
        piece = build_pattern_piece(rep_an)
        coords = piece_coordinates(piece, piece.lifts[1][0])
        assert_close(coords, [1, 0])

    def test_mu_c_lands_on_minus_two_t(self, rep_an):
        piece = build_pattern_piece(rep_an)
        u = invariant_vector("U", rep_an)
        cycle = chain_of_loop(piece.peripheral["mu_C"], u, rep_an, piece.presentation)
        assert_close(piece_coordinates(piece, cycle), [0, -2], 1e-9)

    def test_lambda_c_on_torus_side_na(self, rep_na):
        piece = build_torus_piece(rep_na)
        w = invariant_vector("W", rep_na)
        cycle = chain_of_loop(piece.peripheral["lambda_C"], w, rep_na, piece.presentation)
        assert_close(piece_coordinates(piece, cycle), [-2 * (2 * 1 + 1)], 1e-9)

    def test_non_cycle_rejected(self, rep_an):
        piece = build_pattern_piece(rep_an)
        with pytest.raises(ChainComplexError):
            piece_coordinates(piece, np.ones(6))


class TestChainOfLoop:
    def test_single_generator(self, rep_an):
        pres, _ = pattern_piece_presentation(6)
        u = invariant_vector("U", rep_an)
        assert_close(chain_of_loop(pres.word("p"), u, rep_an, pres), pad(u, 0))

    def test_gluing_word_blocks(self, rep_an):
        pres, _ = pattern_piece_presentation(6)
        u = invariant_vector("U", rep_an)
        P, T = rep_an.adjoints["p"], rep_an.adjoints["t"]
        chain = chain_of_loop(pres.word("p t p t^-1"), u, rep_an, pres)
        expected_p = (np.eye(3) + T @ P) @ u
        expected_t = (P - np.linalg.inv(T) @ P @ T @ P) @ u
        assert_close(chain[:3], expected_p, 1e-10)
        assert_close(chain[3:], expected_t, 1e-10)

    def test_lambda_c_is_null_class_in_torus_piece_an(self, rep_an):
        # the longitude of the torus piece bounds once U is used
        piece = build_torus_piece(rep_an)
        u = invariant_vector("U", rep_an)
        cycle = chain_of_loop(piece.peripheral["lambda_C"], u, rep_an, piece.presentation)
        assert_close(piece_coordinates(piece, cycle), [0], 1e-9)

    def test_crossed_homomorphism_rule(self, rng, rep_an):
        # chain(uv, w) = chain(u, w) + chain(v, evaluate(u) w)
        pres, _ = pattern_piece_presentation(6)
        u_vec = invariant_vector("U", rep_an)
        for _ in range(20):
            u = random_word(rng, pres.generators, 6)
            v = random_word(rng, pres.generators, 6)
            lhs = chain_of_loop(u * v, u_vec, rep_an, pres)
            rhs = chain_of_loop(u, u_vec, rep_an, pres) + chain_of_loop(
                v, evaluate_word(rep_an, u) @ u_vec, rep_an, pres
            )
            assert_close(lhs, rhs, 1e-9)

    def test_relator_chain_is_boundary(self, rep_an):
        piece = build_pattern_piece(rep_an)
        u = invariant_vector("U", rep_an)
        cycle = chain_of_loop(piece.presentation.relators[0], u, rep_an, piece.presentation)
        assert_close(piece_coordinates(piece, cycle), [0, 0], 1e-9)


def _three_presentations(a, b):
    return [
        torus_piece_presentation(a)[0],
        pattern_piece_presentation(b)[0],
        cable_exterior_presentation(a, b)[0],
    ]


def _mp_inverse(m):
    """The inverse of a 2x2 in mpmath, by the adjugate over the determinant:
    no pivoting, so diag(z^(2b), z^(-2b)) is not taken for singular."""
    g = mpmath.matrix(m)
    return mpmath.matrix([[g[1, 1], -g[0, 1]], [-g[1, 0], g[0, 0]]]) / (g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0])


def _mp_adjoint(m):
    """Ad(g) by its definition: the conjugates g^-1 v g of E, H, F, in mpmath."""
    g = mpmath.matrix(m)
    inv = _mp_inverse(g)
    cols = []
    for basis in ([[0, 1], [0, 0]], [[1, 0], [0, -1]], [[0, 0], [1, 0]]):
        conj = inv * mpmath.matrix(basis) * g
        cols.append((conj[0, 1], conj[0, 0], conj[1, 0]))
    return mpmath.matrix([[col[i] for col in cols] for i in range(3)])


def _hp_reference(word, rep, pres, case, dps=40):
    """Fox blocks as mpmath scalars at dps digits, by a 3x3 matrix accumulator
    applied to v per letter.  The matrices come from the family formulas on
    mpmath scalars and mpmath matrix conjugation, not from the walk under test."""
    with mpmath.mp.workdps(dps):
        z, roots = mp_family_scalars(rep)
        ents = _family_entries(rep.family, z, rep.a, rep.b, **roots)
        adj = {n: _mp_adjoint(m) for n, m in ents.items()}
        omega = roots.get("omega2" if case == "U" else "omega3")
        vec = mpmath.matrix(_invariant_entries(case, z, omega))
        blocks = {g: mpmath.matrix(3, 1) for g in pres.generators}
        acc = mpmath.eye(3)
        for gen, sign in word.letters:
            if sign == 1:
                blocks[gen] += acc * vec
                acc = adj[gen] * acc
            else:
                acc = adj[gen] ** -1 * acc
                blocks[gen] -= acc * vec
        return [blocks[g][i] for g in pres.generators for i in range(3)]


class TestFoxWalkMatchesReference:
    """The prefix walk against fox_derivative + evaluate_ring, the exact definition."""

    @pytest.mark.parametrize(
        "family, a, b, index",
        [
            ("AN", 1, 6, 0),
            ("AN", 3, 40, 0),
            ("NN", 1, 7, (0, 0)),
            ("NN", 3, 40, (0, 0)),
            ("AA", 4, 80, None),
        ],
    )
    def test_d2_blocks_bitwise(self, family, a, b, index):
        # every relator is walked letter by letter, so bit for bit
        rep = rep_build(family, XI, a, b, index)
        for pres in _three_presentations(a, b):
            d2 = presentation_complex(pres, rep).d(2)
            for j, rel in enumerate(pres.relators):
                column = d2[:, 3 * j:3 * j + 3]
                for i, gen in enumerate(pres.generators):
                    ref = evaluate_ring(rep, fox_derivative(rel, gen))
                    assert np.array_equal(column[3 * i:3 * i + 3], ref), (pres.label, i, j)

    @pytest.mark.parametrize("family", ["AN", "NA", "NN"])
    @pytest.mark.parametrize("a", range(1, 7))
    def test_piece_complexes_are_the_letter_walk(self, family, a):
        """tor_E's complexes: the torus-piece and pattern-piece d2 are the plain
        letter walk of each relator, bit for bit, up to a = 6."""
        b = 4 * a + 3
        rep = rep_build(family, XI, a, b, 0 if family != "NN" else (0, 0))
        eye = np.eye(3, dtype=complex)
        for pres in (torus_piece_presentation(a)[0], pattern_piece_presentation(b)[0]):
            walked = [np.vstack(_fox_walk(rel, pres.generators, eye, rep.adjoints, rep.adjoint_invs)[0])
                      for rel in pres.relators]
            assert np.array_equal(presentation_complex(pres, rep).d(2), np.hstack(walked)), pres.label

    @pytest.mark.parametrize("xi", [0.904 - 0.07j, -0.89 + 1.405j])
    def test_walk_overflow_is_the_named_error(self, xi):
        """AA (6,200) at |Re xi| near 0.9: the walk of glue^b leaves the
        float64 range, and the named non-finite d_2 error is all that comes
        out; no numpy RuntimeWarning (an error under the test filter) escapes."""
        rep = rep_build("AA", xi, 6, 200)
        with pytest.raises(ChainComplexError, match="d_2 has non-finite entries"):
            presentation_complex(cable_exterior_presentation(6, 200)[0], rep)

    def test_chain_of_loop(self, rng, rep_an):
        pres, peri = pattern_piece_presentation(6)
        u = invariant_vector("U", rep_an)
        words = [peri[name] for name in ("mu_C", "lambda_C", "mu", "lambda")]
        words += [random_word(rng, pres.generators, 20) for _ in range(20)]
        for word in words:
            ref = np.concatenate(
                [evaluate_ring(rep_an, fox_derivative(word, g)) @ u for g in pres.generators]
            )
            assert_close(chain_of_loop(word, u, rep_an, pres), ref, 1e-12)

    @pytest.mark.parametrize("family, index, case", [("AN", 5, "U"), ("NN", (3, 1), "Ut")])
    @pytest.mark.parametrize("re_xi", [1.0, -1.0, 0.05])
    def test_chain_of_loop_hp_longitudes(self, family, index, case, re_xi):
        rep = rep_build(family, complex(re_xi, 0.1), 3, 40, index)
        for pres, peri in (torus_piece_presentation(3), pattern_piece_presentation(40)):
            word = peri["lambda_C"]
            ref = np.array([complex(v) for v in _hp_reference(word, rep, pres, case)])
            got = chain_of_loop_hp(word, rep, pres, case)
            assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref), pres.label

    @pytest.mark.parametrize(
        "family, a, b, index, case, re_xi",
        [("NA", 2, 12, 0, "W", 1.0), ("NA", 2, 12, 0, "W", -1.0)]
        + [
            (family, 3, 40, index, case, re_xi)
            for family, index, case in (("AN", 5, "U"), ("NN", (3, 1), "Ut"))
            for re_xi in (1.0, -1.0, 0.05)
        ],
    )
    def test_chain_of_loop_hp_precision(self, family, a, b, index, case, re_xi):
        """The walk of ``hp_assignment`` at HP_BITS holds 30 digits against 80-digit
        mpmath where float64 loses ten, and the returned chain is that walk rounded."""
        rep = rep_build(family, complex(re_xi, 0.1), a, b, index)
        for pres, peri in (torus_piece_presentation(a), pattern_piece_presentation(b)):
            for name in ("mu_C", "lambda_C"):
                word = peri[name]
                ref = _hp_reference(word, rep, pres, case, dps=80)
                with mpmath.mp.workprec(HP_BITS):
                    mats, (z, roots) = hp_assignment(rep)
                    adjoints = ({g: _hp_adjoint(m) for g, m in mats.items()},
                                {g: _hp_adjoint(_adj2(m)) for g, m in mats.items()})
                    vector = np.array(_invariant_entries(case, z, roots.get(_invariant_root(case, family))),
                                      dtype=object)
                    walked, _ = _fox_walk(word, pres.generators, vector, *adjoints)
                with mpmath.mp.workdps(80):
                    got = [v for block in walked for v in block]
                    err = mpmath.norm([g - r for g, r in zip(got, ref)]) / mpmath.norm(ref)
                assert err <= 1e-30, (pres.label, name, float(err))
                rounded = np.array([complex(v) for v in ref])
                assert np.linalg.norm(chain_of_loop_hp(word, rep, pres, case) - rounded) <= (
                    1e-15 * np.linalg.norm(rounded)
                ), (pres.label, name)


class TestGluingSubgroupWalk:
    """A loop walk must return the gluing-torus vector to itself."""

    @pytest.mark.parametrize("xi", [1 + 0j, 1 + 1j, 1 - 1j])
    def test_split_longitude_where_the_flat_walk_fails(self, xi):
        # NA (3,40) at Re xi = 1: the flat pattern longitude's prefixes outgrow
        # the reference walk's precision, so it raises; the split h mu_C^k walk holds.
        rep = rep_build("NA", xi, 3, 40, (0,))
        pres, peri = pattern_piece_presentation(40)
        word = peri["lambda_C"]
        ref = np.array([complex(v) for v in _hp_reference(word, rep, pres, "W", dps=120)])
        _, split = abelian_chains(rep, "D")
        assert np.linalg.norm(split - ref) <= 1e-14 * np.linalg.norm(ref)
        with pytest.raises(ChainComplexError, match="relative deviation"):
            chain_of_loop_hp(word, rep, pres, "W")

    def test_word_outside_the_subgroup_raises(self, rep_an):
        pres, _ = pattern_piece_presentation(6)
        with pytest.raises(ChainComplexError, match="not in the gluing-torus subgroup"):
            chain_of_loop_hp(pres.word("p"), rep_an, pres, "U")


class TestAbelianFoxRows:
    @pytest.mark.parametrize("a, b", [(1, 6), (3, 40), (6, 200)])
    def test_prefix_walk_is_the_abelianised_fox_derivative(self, a, b):
        """Each entry of the walked rows is fox_derivative pushed through
        abelianization_exponents, g -> t^e(g), term by term."""
        pres, _ = cable_exterior_presentation(a, b)
        exps = abelianization_exponents(pres)
        for g, row in zip(pres.generators, abelian_fox_rows(pres)):
            for rel, poly in zip(pres.relators, row):
                ref = {}
                for word, coeff in fox_derivative(rel, g).terms.items():
                    degree = sum(exps[h] * s for h, s in word.letters)
                    ref[degree] = ref.get(degree, 0) + coeff
                assert poly == tuple(sorted((e, c) for e, c in ref.items() if c)), (g, rel)

    def test_minor_must_be_a_unit_at_one(self, monkeypatch):
        # A(1) = +-1 is what makes the H part of the abelian complex a unit
        monkeypatch.setattr(chains, "_ldet", lambda rows: {0: 2, 1: 1})
        pres, _ = cable_exterior_presentation(1, 6)
        with pytest.raises(ChainComplexError, match=r"cable_exterior\(a=1,b=6\) sums to 3, not \+-1"):
            alexander_minor.__wrapped__(pres)

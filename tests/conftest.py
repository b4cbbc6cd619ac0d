import mpmath
import numpy as np
import pytest

from cabletorsion.chains import chain_of_loop_hp
from cabletorsion.presentations import pattern_piece_presentation, torus_piece_presentation
from cabletorsion.representations import TORUS_CASES
from cabletorsion.torsion import reidemeister_torsion
from cabletorsion.words import Word


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def random_word(rng, generators, max_len=12):
    """A freely reduced random word of length at most max_len."""
    n = int(rng.integers(1, max_len + 1))
    letters = [
        (generators[int(rng.integers(0, len(generators)))], int(rng.choice([-1, 1])))
        for _ in range(n)
    ]
    return Word(letters)


def b1_columns(tor):
    """The b_1 columns of a torsion value: the unit columns that close its degree-1 basis."""
    basis = tor.bases[1]
    return tuple(np.flatnonzero(basis.matrix[:, basis.lifts.stop:].any(axis=1)))


def assert_close(actual, expected, tol=1e-10, label=""):
    actual = np.asarray(actual, dtype=complex)
    expected = np.asarray(expected, dtype=complex)
    scale = max(1.0, float(np.max(np.abs(expected))))
    dev = float(np.max(np.abs(actual - expected)))
    assert dev <= tol * scale, f"{label} deviates by {dev:.3e} (scale {scale:.3e})"


def mp_family_scalars(rep):
    """z and the family's roots of unity in mpmath at its current precision,
    computed from (xi, a, b, index) independently of the library's own copy."""
    z = mpmath.exp(mpmath.mpc(rep.xi) / 2)
    a, b = rep.a, rep.b

    def root(k, den):
        return mpmath.expjpi(mpmath.mpf(2 * k + 1) / den)

    if rep.family == "AN":
        return z, {"omega2": root(rep.index[0], 2 * b + 1)}
    if rep.family == "NA":
        return z, {"omega1": root(rep.index[0], 2 * a + 1)}
    if rep.family == "NN":
        l, m = rep.index
        return z, {"omega1": root(m, 2 * a + 1), "omega3": root(l, 2 * b + 1 - 4 * (2 * a + 1))}
    return z, {}


def adjoint_entries(m):
    """Reference Ad(g) of g = [[a, b], [c, d]] in SL(2), v -> g^-1 v g written out
    with g^-1 = [[d, -b], [-c, a]] as nested lists, over any scalar type."""
    (a, b), (c, d) = m
    bd, ac = b * d, a * c
    return [
        [d * d, bd + bd, -(b * b)],
        [c * d, a * d + b * c, -(a * b)],
        [-(c * c), -(ac + ac), a * a],
    ]


def float_torsion(piece):
    """The torsion of the piece's float64 complex with its lifts, with its assembled bases: the
    exact torsion of C or D carries none, so its cross-check is built on demand; S's is itself."""
    return piece.torsion if piece.torsion.bases else reidemeister_torsion(piece.complex, piece.lifts)


def abelian_chains(rep, side):
    """Chains of mu_C and la_C on the gluing-torus vector v in the abelian side ``side``:
    (e_g(w) v)_g, as v is fixed by every generator there."""
    pres, peri = torus_piece_presentation(rep.a) if side == "C" else pattern_piece_presentation(rep.b)
    v = rep.vectors[TORUS_CASES[rep.family][0]]
    return tuple(np.concatenate([peri[name].exponent_sum(g) * v for g in pres.generators])
                 for name in ("mu_C", "lambda_C"))


def gluing_chains(rep, side):
    """Chains of mu_C and la_C on v in ``side``: ``abelian_chains`` on an abelian side, else the
    reference walk ``chain_of_loop_hp`` of mu_C and of la_C split as h mu_C^k (h and mu_C fix v)."""
    if rep.family["CD".index(side)] == "A":
        return abelian_chains(rep, side)
    pres, peri = torus_piece_presentation(rep.a) if side == "C" else pattern_piece_presentation(rep.b)
    case = TORUS_CASES[rep.family][0]
    head, k = peri.splits["lambda_C"]
    mu = chain_of_loop_hp(peri["mu_C"], rep, pres, case)
    return mu, chain_of_loop_hp(head, rep, pres, case) + k * mu

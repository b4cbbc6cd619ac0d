"""Mayer-Vietoris assembly for the cable exterior E = C u_S D.

The gluing identity is

    Tor(E) = Tor(C) Tor(D) / (Tor(S) Tor(H*))

where H* is the long exact sequence of the splitting, made into an acyclic
based complex with the degree convention H_{3k} = H_k(E),
H_{3k+1} = H_k(C) + H_k(D), H_{3k+2} = H_k(S).  ``tor_E`` evaluates it with

    Tor(S) = 1,  Tor(H*) = 1 / det[phi_1 | e_designated1]

(see the end of this docstring for why) from C and D alone: Tor(S) is +-1 in
the lifts below, and its float64 value only added rounding error (up to
1.7e-10).  S's guard stays: M = Ad(mu_C) and L = Ad(la_C) must be finite and
commute (``check_peripheral_actions``; [L, M] is d1 d2 on S), which rejects
the AN (3,40) corners xi = -1 +- i, where the glued value would carry only 8
to 9 digits.  S's lift-cycle check is implied by the gluing-torus identities
``rep_build`` certifies: the whole gluing-torus subgroup fixes the vector.

Each non-abelian family carries a catalog of homology lifts for the pieces,
phrased through the family's invariant vectors (v on the gluing torus, v' on
the outer torus; v = v' in the NA family):

    S:  f~ x v;  mu~ x v, la~ x v;  basepoint x v
    C:  (I - Ad(y (xy)^a)) v on the 2-cell when the torus side is irreducible
        (the gluing-torus commutator word splits as the relator times a
        conjugate of its inverse), x~ x v in degree 1, basepoint x v in
        degree 0 when the torus side is abelian
    D:  f~ x v and f~ x v' in degree 2, p~ x v' and t~ x v in degree 1,
        basepoint x v in degree 0 when the pattern side is abelian

phi_1 is computed honestly: the loop chains of mu_C and la_C in each piece on
the gluing-torus vector, float64 closed forms of certified identities
(``_gluing_chains``; no fixed point, no mpmath), are solved for their lift
coordinates in the degree-1 basis the piece's torsion was assembled in
(``TorsionValue.bases``), so no rank is read twice.
phi_2 and phi_0 are read off the lift catalogue: the first lift of C and of D
in degrees 2 and 0 is the image of the class of S there (the conjugate-relator
decomposition above is baked into C's degree-2 lift), so both are unit
columns and only phi_1 depends on the representation.  The connecting maps
psi_k and delta_k are then pinned by exactness plus the normalization that
each designated generating class maps to the matching basis vector of
H_*(E).

Why one determinant is the whole of Tor(H*): delta_2 = 0, phi_2 and phi_0
are unit columns and psi_0 is zero or empty, so the sequence splits into
short exact pieces, and each piece but the degree-1 block is exact by
construction with unit determinant.  The degree-1 block
0 -> H_1(S) -> H_1(C) + H_1(D) -> H_1(E) is exact exactly when
[phi_1 | e_designated1] is invertible, which ``_span_basis`` checks (the same
rank test ``_quotient_rows`` applies when the sequence is built), and its
torsion is then 1 / det of that matrix, with the sign the nine-slot torsion
gives.  So the nine-slot complex (``build_mv_sequence``, checked exact there,
and ``mv_torsion``) and S (``build_gluing_torus``) are built only on demand:
by ``TorEResult.sequence`` and ``TorEResult.pieces["S"]`` for ``cabletorsion
compute --dump-complex``, by demo 03, and by the tests that cross-check them
against the determinant and Tor(S) = +-1.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import linalg
from .chains import (
    BasedChainComplex,
    alexander_minor,
    check_peripheral_actions,
    class_coordinates,
    homology,
    presentation_complex,
    torus_complex,
)
from .presentations import (
    PeripheralSystem,
    Presentation,
    cable_exterior_presentation,
    pattern_piece_presentation,
    torus_piece_presentation,
)
from .representations import TORUS_CASES, Representation, check_parameters, evaluate_word, rep_build
from .torsion import TorsionError, TorsionValue, reidemeister_torsion

EXACTNESS_TOL = 1e-8          # rank tolerance under which the nine-slot sequence must be exact


class MayerVietorisError(ValueError):
    pass


def _pad(vector: np.ndarray, block: int, nblocks: int) -> np.ndarray:
    out = np.zeros(3 * nblocks, dtype=complex)
    out[3 * block:3 * block + 3] = vector
    return out


@dataclass
class PieceData:
    """One piece of the splitting: its complex, lifts, and based torsion."""

    name: str
    complex: BasedChainComplex
    lifts: Dict[int, List[np.ndarray]]
    torsion: TorsionValue
    presentation: Presentation | None = None
    peripheral: PeripheralSystem | None = None


# Per non-abelian family (vector cases in ``TORUS_CASES``): which coordinate of H_k(C) + H_k(D)
# maps to each basis vector of H_k(E); and the delta-image of any remaining H_1(E) basis vector
# (the gamma class, specified only through its connecting image in H_0(S)).
_MV_TABLE = {
    "AN": {"hE": (0, 1, 1), "designated2": (1,), "designated1": (1,), "gamma_images": ()},
    "NA": {"hE": (0, 1, 1), "designated2": (1,), "designated1": (1,), "gamma_images": ()},
    "NN": {"hE": (0, 2, 2), "designated2": (1, 2), "designated1": (1,), "gamma_images": (0,)},
}


def _family_vectors(rep: Representation):
    """(gluing-torus vector, outer-torus vector) of the representation's family."""
    if rep.family not in TORUS_CASES:
        raise MayerVietorisError(f"family {rep.family!r} has no Mayer-Vietoris route")
    return tuple(rep.vectors[case] for case in TORUS_CASES[rep.family])


@lru_cache(maxsize=64)
def _s_conjugator(a: int):
    """y (xy)^a in the torus piece: the conjugator of C's 2-cell lift."""
    pres, _ = torus_piece_presentation(a)
    return pres.word("y") * (pres.word("x y") ** a)


def build_torus_piece(rep: Representation) -> PieceData:
    """The torus-knot piece C of ``rep`` with the family's designated homology lifts."""
    pres, peri = torus_piece_presentation(rep.a)
    cplx = presentation_complex(pres, rep)
    v, _ = _family_vectors(rep)
    x_chain = _pad(v, 0, 2)
    if rep.family[0] == "A":  # abelian torus side
        lifts = {1: [x_chain], 0: [v]}
    else:
        # The S-commutator word equals the relator times a conjugate of its
        # inverse, so [S] includes as (I - Ad(y (xy)^a)) v on the 2-cell.
        h2 = (np.eye(3) - evaluate_word(rep, _s_conjugator(rep.a))) @ v
        lifts = {2: [h2], 1: [x_chain]}
    tor = reidemeister_torsion(cplx, lifts)
    return PieceData("C", cplx, lifts, tor, pres, peri)


def build_pattern_piece(rep: Representation) -> PieceData:
    """The pattern piece D of ``rep`` with the family's designated homology lifts."""
    pres, peri = pattern_piece_presentation(rep.b)
    cplx = presentation_complex(pres, rep)
    v, v_outer = _family_vectors(rep)
    if rep.family[1] == "N":  # non-abelian pattern side
        lifts = {2: [v, v_outer], 1: [_pad(v_outer, 0, 2), _pad(v, 1, 2)]}
    else:
        lifts = {2: [v], 1: [_pad(v, 0, 2), _pad(v, 1, 2)], 0: [v]}
    tor = reidemeister_torsion(cplx, lifts)
    return PieceData("D", cplx, lifts, tor, pres, peri)


def build_gluing_torus(rep: Representation) -> PieceData:
    """The splitting torus S of ``rep``, built from the adjoint actions of mu_C and la_C."""
    _, peri = torus_piece_presentation(rep.a)
    cplx = torus_complex(evaluate_word(rep, peri["mu_C"]), evaluate_word(rep, peri["lambda_C"]))
    v, _ = _family_vectors(rep)
    lifts = {2: [v], 1: [_pad(v, 0, 2), _pad(v, 1, 2)], 0: [v]}
    tor = reidemeister_torsion(cplx, lifts)
    return PieceData("S", cplx, lifts, tor)


def _gluing_chains(rep: Representation, piece: str) -> Tuple[np.ndarray, np.ndarray]:
    """Chains of mu_C and la_C in ``piece`` ("C" or "D") on the gluing-torus vector v: the
    subgroup fixing v makes chain(u) additive, so chain(la_C) = chain(h) + k chain(mu_C) for
    la_C = h mu_C^k (``PeripheralSystem.splits``), blocks in generator order, each a float64
    closed form of identities ``_certify_relations`` proves (error bounds at ``FIXED_BITS``).
    Abelian side: chain(w) = (e_g(w) v)_g, exact in v.  Torus side: chain(x) = (v, 0) and, as
    rho((xy)^n) = +-I (n = 2a+1) makes sum_(k<n) Ad(xy)^k n times the trace-form projection onto
    the line of W_xy (W_g the traceless part of rho(g), Ad(x) W_xy = W_yx), chain(x^-1 (xy)^n) =
    (n c W_xy - v, n c W_yx), c = B(v, W_xy) / B(W_xy, W_xy); the divisor B(W_xy, W_xy) >= 8 / n^2
    bounds its error by 3e-11 relative (1.6e-13 measured).  Pattern side: chain(t) = (0, v) and,
    as t and p t p t^-1 fix v and Ad is anti-homomorphic, Ad(p) Ad(t) Ad(p) v = v, so
    chain(p t p t^-1) = (v + Ad(t) Ad(p) v, Ad(p) v - v) = (v + Ad(p)^-1 v, Ad(p) v - v): one
    product with Ad(p)^(+-1), entries below e^2, within 3e-15 relative (6.0e-16 measured), where
    reading Ad(t), entries up to 2^19, strayed 2.6e-11."""
    pres, peri = torus_piece_presentation(rep.a) if piece == "C" else pattern_piece_presentation(rep.b)
    v = rep.vectors[TORUS_CASES[rep.family][0]]
    head, k = peri.splits["lambda_C"]
    if rep.family["CD".index(piece)] == "A":
        mu, h = (np.concatenate([e * v for e in map(word.exponent_sum, pres.generators)])
                 for word in (peri["mu_C"], head))
    elif piece == "C":
        x, y = rep.assignment["x"], rep.assignment["y"]
        w_xy, w_yx = (np.array([m[0, 1], (m[0, 0] - m[1, 1]) / 2, m[1, 0]]) for m in (x @ y, y @ x))
        form = lambda u, w: 2 * u[1] * w[1] + u[0] * w[2] + u[2] * w[0]  # the trace form B on (E, H, F)
        nc = form(v, w_xy) * (2 * rep.a + 1) / form(w_xy, w_xy)
        mu, h = np.concatenate([v, v - v]), np.concatenate([nc * w_xy - v, nc * w_yx])
    else:
        mu = np.concatenate([v + rep.adjoint_invs["p"] @ v, rep.adjoints["p"] @ v - v])
        h = np.concatenate([v - v, v])
    return mu, h + k * mu


@dataclass
class InducedMaps:
    """Matrices of phi_k = i^C_* + i^D_* in the designated homology bases."""

    phi2: np.ndarray
    phi1: np.ndarray
    phi0: np.ndarray


def induced_maps(rep: Representation, piece_c: PieceData, piece_d: PieceData) -> InducedMaps:
    """phi_2, phi_1, phi_0 of the splitting of ``rep`` into ``piece_c`` and ``piece_d``.

    phi_1 pushes mu_C and la_C into each piece and takes class coordinates in
    the piece's assembled degree-1 basis, both chains of a piece in one solve.
    phi_2 and phi_0 send the one class of S to the first lift of each piece
    that has one in that degree, so they are unit columns.
    """
    phi1 = np.vstack([
        class_coordinates(np.column_stack(_gluing_chains(rep, p.name)), p.torsion.bases[1], p.complex, 1)
        for p in (piece_c, piece_d)
    ])

    def unit_column(k):
        return np.vstack([np.eye(len(p.lifts.get(k, [])), 1, dtype=complex) for p in (piece_c, piece_d)])

    return InducedMaps(unit_column(2), phi1, unit_column(0))


def _span_basis(phi: np.ndarray, designated: Sequence[int]) -> Tuple[np.ndarray, complex]:
    """[phi | e_designated] and its determinant, checked to be square and of full numerical rank."""
    n = phi.shape[0]
    basis = np.column_stack([phi, np.eye(n, dtype=complex)[:, list(designated)]])
    if basis.shape[0] == basis.shape[1]:
        det, conditioning = linalg.conditioned_det(basis, linalg.DEFAULT_RANK_TOL)
        if conditioning.full_rank:
            return basis, det
    raise MayerVietorisError("image of phi plus designated classes do not span the middle slot")


def _quotient_rows(phi: np.ndarray, designated: Sequence[int]) -> np.ndarray:
    """Rows of psi: kill im(phi), send designated class q to basis vector q.

    phi is injective (the ``_MV_TABLE`` counts make it so), and the
    functional is unique because im(phi) plus the designated classes span; it
    is read off the inverse of [phi | e_designated].
    """
    return np.linalg.inv(_span_basis(phi, designated)[0])[phi.shape[1]:, :]


def build_mv_sequence(family: str, maps: InducedMaps, pieces: Dict[str, PieceData]) -> BasedChainComplex:
    """The based long exact sequence as an acyclic nine-slot complex.

    Degrees run 0..8; the boundary maps are psi_0, phi_0, delta_1, psi_1,
    phi_1, delta_2, psi_2, phi_2 from the bottom up.  Exactness (zero homology
    in every slot) is verified before returning.
    """
    table = _MV_TABLE[family]
    h_e = table["hE"]

    def lifts(i, *names):
        return sum(len(pieces[name].lifts.get(i, [])) for name in names)

    dims = tuple(d for i in range(3) for d in (h_e[i], lifts(i, "C", "D"), lifts(i, "S")))

    psi2 = _quotient_rows(maps.phi2, table["designated2"])
    psi1_rows = list(_quotient_rows(maps.phi1, table["designated1"]))
    for _ in table["gamma_images"]:
        psi1_rows.append(np.zeros(dims[4], dtype=complex))
    psi1 = np.array(psi1_rows, dtype=complex).reshape(h_e[1], dims[4])
    psi0 = np.zeros((h_e[0], dims[1]), dtype=complex)

    delta2 = np.zeros((dims[5], dims[6]), dtype=complex)
    delta1 = np.zeros((dims[2], dims[3]), dtype=complex)
    n_designated1 = len(table["designated1"])
    for offset, image_coord in enumerate(table["gamma_images"]):
        delta1[image_coord, n_designated1 + offset] = 1.0

    boundaries = (psi0, maps.phi0, delta1, psi1, maps.phi1, delta2, psi2, maps.phi2)
    slots = ("H0E", "H0C+H0D", "H0S", "H1E", "H1C+H1D", "H1S", "H2E", "H2C+H2D", "H2S")
    labels = tuple(tuple(f"{slot}[{i}]" for i in range(dim)) for slot, dim in zip(slots, dims))
    seq = BasedChainComplex(dims, boundaries, labels)
    betti = homology(seq, tol=EXACTNESS_TOL).dims
    if any(betti):
        raise MayerVietorisError(f"Mayer-Vietoris sequence is not exact: homology dims {betti}")
    return seq


def mv_torsion(seq: BasedChainComplex) -> TorsionValue:
    """Torsion of the acyclic sequence (no homology lifts)."""
    return reidemeister_torsion(seq)


@dataclass
class TorEResult:
    """Full record of one gluing computation; ``tor_s`` is exactly 1."""

    family: str
    a: int
    b: int
    index: Tuple[int, ...]
    xi: complex
    value: TorsionValue
    tor_c: TorsionValue
    tor_d: TorsionValue
    tor_s: TorsionValue
    tor_h: TorsionValue
    maps: InducedMaps
    rep: Representation = field(repr=False)
    piece_c: PieceData = field(repr=False)
    piece_d: PieceData = field(repr=False)

    @cached_property
    def pieces(self) -> Dict[str, PieceData]:
        """C, D and the splitting torus S, which is built on first read."""
        return {"C": self.piece_c, "D": self.piece_d, "S": build_gluing_torus(self.rep)}

    @cached_property
    def sequence(self) -> BasedChainComplex:
        """The nine-slot sequence, built and checked exact on first read."""
        return build_mv_sequence(self.family, self.maps, self.pieces)


def tor_E(family: str, a: int, b: int, index, xi: complex) -> TorEResult:
    """Glued torsion of the cable exterior for a non-abelian family."""
    if family not in _MV_TABLE:
        raise MayerVietorisError(
            f"family {family!r} does not go through the gluing formula; "
            "the abelian case uses tor_E_abelian"
        )
    rep = rep_build(family, xi, a, b, index)
    piece_c = build_torus_piece(rep)
    piece_d = build_pattern_piece(rep)
    peri = piece_c.peripheral
    check_peripheral_actions(evaluate_word(rep, peri["mu_C"]), evaluate_word(rep, peri["lambda_C"]))
    maps = induced_maps(rep, piece_c, piece_d)
    _, det = _span_basis(maps.phi1, _MV_TABLE[family]["designated1"])
    tor_h = TorsionValue(1 / det)
    return TorEResult(
        family, a, b, rep.index, complex(xi), piece_c.torsion * piece_d.torsion / tor_h,
        piece_c.torsion, piece_d.torsion, TorsionValue(1 + 0j), tor_h, maps, rep, piece_c, piece_d,
    )


@lru_cache(maxsize=64)
def _abelian_minor(a: int, b: int) -> Tuple[np.ndarray, np.ndarray]:
    """``alexander_minor`` of the cable presentation (the p row deleted) as arrays (e - mid, c_e)."""
    coeffs, mid = alexander_minor(cable_exterior_presentation(a, b)[0])
    return np.array([e - mid for e, _ in coeffs]), np.array([c for _, c in coeffs], dtype=float)


def tor_E_abelian(a: int, b: int, xi: complex) -> TorsionValue:
    """Torsion of the cable exterior for the abelian family, +t A(t) A(1/t) / (t - 1)^2 at t = e^xi.

    An AA representation is diagonal, Ad(g) = diag(t^-e(g), 1, t^e(g)) on (E, H, F), so the
    complex of the four-generator presentation, with lifts p~ x H and v~ x H, splits with
    determinant +-1 into three scalar complexes over Z[t^+-1] (Milnor 1962; Turaev 1986).  With
    A the exact Fox minor without the p row (``_abelian_minor``), E and F give A(1/t) / (1/t - 1)
    and A(t) / (t - 1), and H gives 1 / A(1) = +-1: together +-tau0^-2, taken with the + sign
    the float64 12x9 complex gives.  A is evaluated at t^(e - mid) and t / (t - 1)^2 as
    (2 sinh(xi/2))^-2, so no power passes |t|^(deg A / 2); the guards are ``rep_build``'s.
    """
    shifts, coeffs = _abelian_minor(a, b)
    xi = check_parameters("AA", xi, a, b)
    with np.errstate(over="ignore", invalid="ignore"):
        a_t, a_inv = np.exp(np.outer((xi, -xi), shifts)) @ coeffs
        value = complex(a_t * a_inv / (2 * cmath.sinh(xi / 2)) ** 2)
    if not (cmath.isfinite(value) and value):
        raise TorsionError(f"AA torsion at (a, b) = ({a}, {b}), xi = {xi} is {value}: outside float64")
    return TorsionValue(value)

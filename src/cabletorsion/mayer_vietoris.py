"""Mayer-Vietoris assembly for the cable exterior E = C u_S D.

The gluing identity is Tor(E) = Tor(C) Tor(D) / (Tor(S) Tor(H*)), where H* is the
long exact sequence of the splitting, made into an acyclic based complex with the
degree convention H_{3k} = H_k(E), H_{3k+1} = H_k(C) + H_k(D), H_{3k+2} = H_k(S).
``tor_E`` evaluates it from C and D alone, with Tor(S) = 1 (it is +-1 in the lifts
below, and its float64 value only added rounding error, up to 1.7e-10) and
Tor(H*) = 1 / det[phi_1 | e_designated1].  S keeps its guard: M = Ad(mu_C) and
L = Ad(la_C) must be finite and commute (``check_peripheral_actions``; [L, M] is
d1 d2 on S).  Its lift-cycle check is implied by the gluing-torus identities
``rep_build`` certifies.

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

An abelian side (C in AN, D in NA) has cyclic image: its torsion is exact, from scalar weight
complexes (``_abelian_torsion``), and so are its phi_1 rows, the classes of mu_C and la_C in its
H_1 (``_abelian_rows``); its lifts, on the weight-0 line of v, serve the float64 complex it builds
on demand.  On a non-abelian side the loop chains of mu_C and la_C on v (``_gluing_chains``) are
solved for their lift coordinates in the degree-1 basis the piece's torsion was assembled in
(``TorsionValue.bases``), so no rank is read twice.  phi_2 and phi_0 are unit columns: the first
lift of C and of D in degrees 2 and 0 is the image of the class of S there.  Exactness, and each
designated generating class going to the matching basis vector of H_*(E), pin psi_k and delta_k.

So delta_2 = 0 and psi_0 is zero or empty, the sequence splits into short exact pieces, and each
is exact with unit determinant but the degree-1 block 0 -> H_1(S) -> H_1(C) + H_1(D) -> H_1(E).
That block is exact when [phi_1 | e_designated1] is invertible (``_span_basis``, the rank test of
``_quotient_rows``), and its torsion is 1 / det of that matrix, with the sign the nine-slot torsion
gives.  The nine-slot complex (``build_mv_sequence``, ``mv_torsion``), S (``build_gluing_torus``)
and an abelian side's complex are built only on demand: by ``TorEResult.sequence`` and
``TorEResult.pieces`` for ``cabletorsion compute --dump-complex``, by demo 03, and by the tests.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from . import linalg
from .chains import (
    BasedChainComplex,
    abelian_fox_rows,
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
from .representations import CabletorsionError
from .torsion import TorsionError, TorsionValue, reidemeister_torsion

EXACTNESS_TOL = 1e-8          # rank tolerance under which the nine-slot sequence must be exact


class MayerVietorisError(CabletorsionError):
    pass


def _pad(vector: np.ndarray, block: int, nblocks: int) -> np.ndarray:
    out = np.zeros(3 * nblocks, dtype=complex)
    out[3 * block:3 * block + 3] = vector
    return out


@dataclass
class PieceData:
    """One piece of the splitting: its lifts, based torsion, and the complex ``build`` makes on first read."""

    name: str
    lifts: Dict[int, List[np.ndarray]]
    torsion: TorsionValue | None
    presentation: Presentation | None = None
    peripheral: PeripheralSystem | None = None
    build: Callable[[], BasedChainComplex] | None = field(default=None, repr=False)

    @cached_property
    def complex(self) -> BasedChainComplex:
        return self.build()


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


def _piece(name: str, rep: Representation, lifts) -> PieceData:
    """Piece ``name`` ("C" or "D") of ``rep``: an abelian side's torsion is exact, its complex lazy."""
    pres, peri = torus_piece_presentation(rep.a) if name == "C" else pattern_piece_presentation(rep.b)
    piece = PieceData(name, lifts, None, pres, peri, partial(presentation_complex, pres, rep))
    abelian = rep.family["CD".index(name)] == "A"
    piece.torsion = _abelian_torsion(rep, name) if abelian else reidemeister_torsion(piece.complex, lifts)
    return piece


def build_torus_piece(rep: Representation) -> PieceData:
    """The torus-knot piece C of ``rep`` with the family's designated homology lifts."""
    v, _ = _family_vectors(rep)
    x_chain = _pad(v, 0, 2)
    if rep.family[0] == "A":  # abelian torus side
        return _piece("C", rep, {1: [x_chain], 0: [v]})
    # The S-commutator word equals the relator times a conjugate of its
    # inverse, so [S] includes as (I - Ad(y (xy)^a)) v on the 2-cell.
    h2 = (np.eye(3) - evaluate_word(rep, _s_conjugator(rep.a))) @ v
    return _piece("C", rep, {2: [h2], 1: [x_chain]})


def build_pattern_piece(rep: Representation) -> PieceData:
    """The pattern piece D of ``rep`` with the family's designated homology lifts."""
    v, v_outer = _family_vectors(rep)
    if rep.family[1] == "N":  # non-abelian pattern side
        return _piece("D", rep, {2: [v, v_outer], 1: [_pad(v_outer, 0, 2), _pad(v, 1, 2)]})
    return _piece("D", rep, {2: [v], 1: [_pad(v, 0, 2), _pad(v, 1, 2)], 0: [v]})


def build_gluing_torus(rep: Representation) -> PieceData:
    """The splitting torus S of ``rep``, built from the adjoint actions of mu_C and la_C."""
    _, peri = torus_piece_presentation(rep.a)
    cplx = torus_complex(evaluate_word(rep, peri["mu_C"]), evaluate_word(rep, peri["lambda_C"]))
    v, _ = _family_vectors(rep)
    lifts = {2: [v], 1: [_pad(v, 0, 2), _pad(v, 1, 2)], 0: [v]}
    return PieceData("S", lifts, reidemeister_torsion(cplx, lifts), build=lambda: cplx)


@lru_cache(maxsize=256)
def _weight_terms(side: str, a: int, b: int) -> Tuple[np.ndarray, np.ndarray]:
    """Laurent P of a scalar weight route as arrays (e - centre, c), centred: no power passes |t|^(span/2).
    "E": the cable's ``alexander_minor``; "C": the torus piece's (dr/dy up to sign); "D": Q = R / (t - 1),
    R = dr/dt under p -> t, t -> t^(2b-8a-4): e_t(r) = 0, so R(1) = 0 and Q at e is R's sum above e."""
    if side == "D":
        (row,), = abelian_fox_rows(pattern_piece_presentation(b)[0], (1, 2 * b - 8 * a - 4))[1:]
        terms = [(e, q) for e in range(row[0][0], row[-1][0]) if (q := sum(c for f, c in row if f > e))]
    else:
        terms, _ = alexander_minor((cable_exterior_presentation(a, b) if side == "E" else
                                    torus_piece_presentation(a))[0])
    exps = np.array([e for e, _ in terms])
    return exps - (exps.min() + exps.max()) / 2, np.array([c for _, c in terms], dtype=float)


def _at_weights(shifts, coeffs, s: complex, scale: complex, what: Callable[[], str]) -> TorsionValue:
    """The one Laurent evaluator: P(e^s) P(e^-s) / scale, for P of ``_weight_terms``, through ``_finite``."""
    with np.errstate(over="ignore", invalid="ignore"):
        up, down = np.exp(np.outer((s, -s), shifts)) @ coeffs
        return _finite(complex(up * down / scale), what)


def _finite(value: complex, what: Callable[[], str]) -> TorsionValue:
    """``value`` as a TorsionValue; past float64 (inf, nan or 0) a TorsionError names ``what()``."""
    if not (cmath.isfinite(value) and value):
        raise TorsionError(f"{what()} is {value}: outside float64")
    return TorsionValue(value)


def _abelian_torsion(rep: Representation, side: str) -> TorsionValue:
    """Tor of the abelian side (C of AN, D of NA), exact over Z[t^+-1] (Milnor 1962; Turaev 1986).  Ad of its
    cyclic image has eigenvalues e^(+-s) and 1: s = 2 log omega2 on C (rho(x) = rho(y)), xi on D (rho(t) =
    -rho(p)^n, n = 2b-8a-4).  A change of basis of determinant 1 splits the 3|6|3 complex of <g, h | r> into
    scalar complexes under g, h -> W^e(g), W^e(h), W in {e^-s, 1, e^s}.  With b_1 on g, W != 1 gives
    -R(W) / (W - 1), R = dr/dh there; W = 1, holding every lift, gives -R(1) (C, R(1) = e_h(r)) or 1 (D,
    R(1) = 0); ordering C_1 by weight cancels the sign of the sum.  So Tor(C) = R(1) A(e^s) A(e^-s) /
    (2 sinh(s/2))^2 with A = +-R, and Tor(D) = Q(e^xi) Q(e^-xi) (``_weight_terms``)."""
    if side == "C":
        pres = torus_piece_presentation(rep.a)[0]
        s = 2j * cmath.pi * (2 * rep.index[0] + 1) / (2 * rep.b + 1)
        scale = (2 * cmath.sinh(s / 2)) ** 2 / pres.relators[0].exponent_sum(pres.generators[1])
    else:
        s, scale = rep.xi, 1.0
    what = lambda: f"Tor({side}) of {rep.family} at (a, b) = ({rep.a}, {rep.b}), xi = {rep.xi}"
    return _at_weights(*_weight_terms(side, rep.a, rep.b), s, scale, what)


def _gluing_chains(rep: Representation, piece: str) -> Tuple[np.ndarray, np.ndarray]:
    """Chains of mu_C and la_C in the non-abelian side ``piece`` ("C" or "D") on the gluing-torus
    vector v: the subgroup fixing v makes chain(u) additive, so chain(la_C) = chain(h) + k chain(mu_C)
    for la_C = h mu_C^k (``PeripheralSystem.splits``), blocks in generator order, each a float64
    closed form (unit roundoff u = 2^-53) of identities ``_certify_relations`` proves.  Torus side:
    chain(x) = (v, 0) and, as rho((xy)^n) = +-I (n = 2a+1) makes sum_(k<n) Ad(xy)^k n times the
    trace-form projection onto the line of W_xy (W_g the traceless part of rho(g), Ad(x) W_xy = W_yx),
    chain(x^-1 (xy)^n) = (n c W_xy - v, n c W_yx), c = B(v, W_xy) / B(W_xy, W_xy).  The divisor
    B(W_xy, W_xy) >= 8 / n^2 amplifies the few-ulp rounding of the trace forms by at most
    |W_xy|^2 n^2 / 8, with |W_xy| < 27 up to (6, 200): within 3e-11 relative (1.6e-13 NA, 2.1e-14 NN
    measured there).  Pattern side: chain(t) = (0, v) and, as t and p t p t^-1 fix v and Ad is
    anti-homomorphic, Ad(p) Ad(t) Ad(p) v = v, so chain(p t p t^-1) = (v + Ad(t) Ad(p) v, Ad(p) v - v)
    = (v + Ad(p)^-1 v, Ad(p) v - v): one product with Ad(p)^(+-1), entries below e^2 for |Re xi| <= 1,
    each off by under 3 e^2 u |v| against a chain norm of at least |v_E| = 2: within 3e-15 relative
    (6.0e-16 measured), where reading Ad(t), entries up to 2^19, strayed 2.6e-11."""
    _, peri = torus_piece_presentation(rep.a) if piece == "C" else pattern_piece_presentation(rep.b)
    v = rep.vectors[TORUS_CASES[rep.family][0]]
    _, k = peri.splits["lambda_C"]
    if piece == "C":
        x, y = rep.assignment["x"], rep.assignment["y"]
        w_xy, w_yx = (np.array([m[0, 1], (m[0, 0] - m[1, 1]) / 2, m[1, 0]]) for m in (x @ y, y @ x))
        form = lambda u, w: 2 * u[1] * w[1] + u[0] * w[2] + u[2] * w[0]  # the trace form B on (E, H, F)
        nc = form(v, w_xy) * (2 * rep.a + 1) / form(w_xy, w_xy)
        mu, h = np.concatenate([v, v - v]), np.concatenate([nc * w_xy - v, nc * w_yx])
    else:
        mu = np.concatenate([v + rep.adjoint_invs["p"] @ v, rep.adjoints["p"] @ v - v])
        h = np.concatenate([v - v, v])
    return mu, h + k * mu


@lru_cache(maxsize=256)
def _abelian_rows(side: str, a: int, b: int) -> np.ndarray:
    """phi_1 rows of an abelian side, whose chain of w is (e_g(w) v)_g: w's class in its H_1 on the lifts,
    for C (AN, x ~ y) e_x(w) + e_y(w), [1, 0]; for D (NA) e_p(w), e_t(w), [[2, -2b], [0, 1]]."""
    pres, peri = torus_piece_presentation(a) if side == "C" else pattern_piece_presentation(b)
    sums = np.array([[w.exponent_sum(g) for w in (peri["mu_C"], peri["lambda_C"])] for g in pres.generators])
    return sums.sum(axis=0, keepdims=True) if side == "C" else sums


@dataclass
class InducedMaps:
    """Matrices of phi_k = i^C_* + i^D_* in the designated homology bases."""

    phi2: np.ndarray
    phi1: np.ndarray
    phi0: np.ndarray


def induced_maps(rep: Representation, piece_c: PieceData, piece_d: PieceData) -> InducedMaps:
    """phi_2, phi_1, phi_0 of the splitting of ``rep`` into ``piece_c`` and ``piece_d``.

    phi_1 pushes mu_C and la_C into each piece and takes class coordinates in
    the piece's assembled degree-1 basis, both chains of a piece in one solve, or
    reads an abelian side's integer rows.  phi_2 and phi_0 send the one class of S
    to the first lift of each piece that has one in that degree: unit columns.
    """
    phi1 = np.vstack([
        _abelian_rows(p.name, rep.a, rep.b) if rep.family["CD".index(p.name)] == "A"
        else class_coordinates(np.column_stack(_gluing_chains(rep, p.name)), p.torsion.bases[1], p.complex, 1)
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
    psi1 = np.vstack([_quotient_rows(maps.phi1, table["designated1"]),
                      np.zeros((len(table["gamma_images"]), dims[4]), dtype=complex)])
    psi0 = np.zeros((h_e[0], dims[1]), dtype=complex)

    delta2 = np.zeros((dims[5], dims[6]), dtype=complex)
    delta1 = np.zeros((dims[2], dims[3]), dtype=complex)
    for offset, image_coord in enumerate(table["gamma_images"], len(table["designated1"])):
        delta1[image_coord, offset] = 1.0

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
    piece_d = build_pattern_piece(rep)  # first: past float64, NA's exact D names the cause; C loses digits
    piece_c = build_torus_piece(rep)
    check_peripheral_actions(*(evaluate_word(rep, piece_c.peripheral[w]) for w in ("mu_C", "lambda_C")))
    maps = induced_maps(rep, piece_c, piece_d)
    _, det = _span_basis(maps.phi1, _MV_TABLE[family]["designated1"])
    tor_h = TorsionValue(1 / det)
    with np.errstate(over="ignore", invalid="ignore"):  # D is exact up to float64's range, E may pass it
        value = _finite((piece_c.torsion * piece_d.torsion / tor_h).value, lambda: f"Tor(E) of {family}")
    return TorEResult(
        family, a, b, rep.index, complex(xi), value,
        piece_c.torsion, piece_d.torsion, TorsionValue(1 + 0j), tor_h, maps, rep, piece_c, piece_d,
    )


def tor_E_abelian(a: int, b: int, xi: complex) -> TorsionValue:
    """Torsion of the cable exterior for the abelian family, +t A(t) A(1/t) / (t - 1)^2 at t = e^xi.

    An AA representation is diagonal, Ad(g) = diag(t^-e(g), 1, t^e(g)) on (E, H, F), so the complex
    of the four-generator presentation, lifts p~ x H and v~ x H, splits as in ``_abelian_torsion``:
    with A the cable's ``alexander_minor`` (the p row deleted), E and F give A(1/t) / (1/t - 1) and
    A(t) / (t - 1), H gives 1 / A(1) = +-1: together +-tau0^-2, with the + sign of the float64 12x9
    complex.  The guards are ``rep_build``'s."""
    xi = check_parameters("AA", xi, a, b)
    what = lambda: f"AA torsion at (a, b) = ({a}, {b}), xi = {xi}"
    return _at_weights(*_weight_terms("E", a, b), xi, (2 * cmath.sinh(xi / 2)) ** 2, what)

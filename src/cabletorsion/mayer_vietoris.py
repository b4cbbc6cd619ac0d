"""Mayer-Vietoris assembly for the cable exterior E = C u_S D.

The gluing identity is Tor(E) = Tor(C) Tor(D) / (Tor(S) Tor(H*)), where H* is the
long exact sequence of the splitting, made into an acyclic based complex with the
degree convention H_{3k} = H_k(E), H_{3k+1} = H_k(C) + H_k(D), H_{3k+2} = H_k(S).
``tor_E`` evaluates it from C and D alone, every factor exact: Tor(S) = 1 (+-1 in the lifts
below), Tor(C) and Tor(D) are scalars (``_abelian_torsion`` on an abelian side, ``_seifert_torsion``
on a non-abelian one), and Tor(H*) = 1 / det[phi_1 | e_designated1] of integer rows, once per (family,
a, b) (``_phi1_det``).  So a call builds no float64 complex and decides no rank.  S takes the Ad(la_C)
that the identities ``rep_build`` certifies prove, which commutes with Ad(mu_C) exactly (rho(x) =
rho(y) in AN, so Ad(la_C) = I; rho((xy)^(2a+1)) = -I in NA and NN, so Ad(la_C) = Ad(mu_C)^-(4a+2)).

The float64 complexes, built on demand, carry a catalog of homology lifts for
the pieces, phrased through the family's invariant vectors (v on the gluing
torus, v' on the outer torus; v = v' in the NA family):

    S:  f~ x v;  mu~ x v, la~ x v;  basepoint x v
    C:  (I - Ad(y (xy)^a)) v on the 2-cell when the torus side is irreducible
        (the gluing-torus commutator word splits as the relator times a
        conjugate of its inverse), x~ x v in degree 1, basepoint x v in
        degree 0 when the torus side is abelian
    D:  f~ x v and f~ x v' in degree 2, p~ x v' and t~ x v in degree 1,
        basepoint x v in degree 0 when the pattern side is abelian

phi_1 takes the classes of mu_C and la_C on these lifts, an integer map on exponent sums
(``_rows``): on an abelian side (C in AN, D in NA) every generator fixes v, so the chain of a word w
is (e_g(w) v)_g; on a non-abelian side w = F^k g^e, F the Seifert fibre (g = x on C, t on D), whose
chain on v is a boundary, so w's class is e on the lift of g.  phi_2 and phi_0 are unit columns: the
first lift of C and of D in degrees 2 and 0 is the image of the class of S there.  Exactness, and
each designated generating class going to the matching basis vector of H_*(E), pin psi_k and delta_k.

So delta_2 = 0 and psi_0 is zero or empty, the sequence splits into short exact pieces, and each
is exact with unit determinant but the degree-1 block 0 -> H_1(S) -> H_1(C) + H_1(D) -> H_1(E).
That block is exact when [phi_1 | e_designated1] is invertible (``_span_basis``, an exact integer
determinant), and its torsion is 1 / det of that matrix, with the sign the nine-slot torsion gives.
The nine-slot complex (``build_mv_sequence``, ``mv_torsion``), S and the pieces' complexes are built
only on demand: by ``TorEResult.sequence`` and ``TorEResult.pieces`` for ``cabletorsion compute
--dump-complex``, by demo 03, ``verify`` and the tests.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .chains import BasedChainComplex, abelian_fox_rows, alexander_minor, homology
from .chains import presentation_complex, torus_complex
from .presentations import (
    PeripheralSystem,
    Presentation,
    _ldet,
    cable_exterior_presentation,
    pattern_piece_presentation,
    torus_piece_presentation,
)
from .representations import TORUS_CASES, Representation, check_parameters, evaluate_word, rep_build
from .representations import CabletorsionError, _word2
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
    """One piece of the splitting: its lifts, exact torsion, and the float64 complex ``build`` makes."""

    name: str
    lifts: Dict[int, List[np.ndarray]]
    torsion: TorsionValue
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


def _side_presentation(side: str, a: int, b: int) -> Tuple[Presentation, PeripheralSystem]:
    return torus_piece_presentation(a) if side == "C" else pattern_piece_presentation(b)


def _side_torsion(rep: Representation, side: str) -> TorsionValue:
    """Tor of ``side`` ("C" or "D") of ``rep``, exact on either kind of side."""
    return (_abelian_torsion if rep.family["CD".index(side)] == "A" else _seifert_torsion)(rep, side)


def _piece(name: str, rep: Representation, lifts) -> PieceData:
    """Piece ``name`` ("C" or "D") of ``rep``: its torsion is exact, its complex lazy."""
    pres, peri = _side_presentation(name, rep.a, rep.b)
    torsion = _side_torsion(rep, name)
    return PieceData(name, lifts, torsion, pres, peri, partial(presentation_complex, pres, rep))


def build_torus_piece(rep: Representation) -> PieceData:
    """The torus-knot piece C of ``rep`` with the family's designated homology lifts."""
    v, _ = _family_vectors(rep)
    x_chain = _pad(v, 0, 2)
    if rep.family[0] == "A":  # abelian torus side
        return _piece("C", rep, {1: [x_chain], 0: [v]})
    # The S-commutator word equals the relator times a conjugate of its inverse, so [S] includes
    # as (I - Ad(y (xy)^a)) v on the 2-cell; y (xy)^a = (xy)^a x is the Seifert generator u.
    (u, _), _ = torus_piece_presentation(rep.a)[1].seifert
    h2 = (np.eye(3) - evaluate_word(rep, u)) @ v
    return _piece("C", rep, {2: [h2], 1: [x_chain]})


def build_pattern_piece(rep: Representation) -> PieceData:
    """The pattern piece D of ``rep`` with the family's designated homology lifts."""
    v, v_outer = _family_vectors(rep)
    if rep.family[1] == "N":  # non-abelian pattern side
        return _piece("D", rep, {2: [v, v_outer], 1: [_pad(v_outer, 0, 2), _pad(v, 1, 2)]})
    return _piece("D", rep, {2: [v], 1: [_pad(v, 0, 2), _pad(v, 1, 2)], 0: [v]})


def build_gluing_torus(rep: Representation) -> PieceData:
    """The splitting torus S of ``rep``; on a hand-built one, which proves nothing, la_C is walked and checked."""
    _, peri = torus_piece_presentation(rep.a)
    mu = evaluate_word(rep, peri["mu_C"])  # Ad(la_C) = Ad(mu_C)^e, e = 0 in AN and -(4a+2) in NA and NN
    cplx = torus_complex(mu, np.linalg.matrix_power(mu, 0 if rep.family[0] == "A" else -4 * rep.a - 2)
                         if rep.certified else evaluate_word(rep, peri["lambda_C"]))
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


def _seifert_torsion(rep: Representation, side: str) -> TorsionValue:
    """Tor of a non-abelian side, -prod n / (4 - tr^2 rho(g)) over its Seifert generators, g^n = F
    (``PeripheralSystem.seifert``; Kitano 1994, Dubois 2006), traced on the assignment's Python complex.
    Wh vanishes here (Waldhausen 1978): the Tietze moves to C = <u, v | u^2 v^-n> and D = <u, t |
    u^2 t u^-2 t^-1> keep the torsion, lifts carried across.  As rho(g)^n = -I (certified), Ad(g)^n =
    Ad(F) = I, so the Fox row of g^n is sum_(k<n) Ad(g)^k = n P_g, P_g the projection onto the fixed
    line f_g along the moved plane M_g, on which Ad(g) - I has determinant 4 - tr^2 rho(g).  Tor =
    D_1 / (D_0 D_2), D_i the determinant of the degree-i basis; in each the lifts cancel.
    D: d2 w = (-2 P_u (Ad(t) - I) w, 0) on (u, t); the lifts p~ x v', t~ x v have t-blocks -v', v.
    With b_2 = w, c f_u = P_u (Ad(t) - I) w, and b_1 = M_u in the u block plus w in the t block:
    D_2 = det[v, v', w], D_1 = -2c det[f_u, M_u] det[v, v', w], D_0 = 4c det[M_u, f_u] (tr rho(u) = 0,
    so Ad(u) = -1 on M_u); -2/(-2)^2.  C: d2 c = (2 P_u c, -n P_v c) on (u, v), so H_2 = ker d2 =
    M_u n M_v = C m, and a degree-1 cycle (alpha, beta) has (Ad(u) - I) alpha = (I - Ad(v)) beta in C m.
    The torus relator is u^2 v^-n conjugated by u and y (xy)^a = u, so the 2-lift is h m = (Ad(u) - I) v;
    as x = v^-a u, x~ x v has alpha = Ad(v)^-a v, and (Ad(u) - I) alpha = (I - Ad(u)) v = -h m, for
    Ad(u) Ad(v)^-a v = Ad(x) v = v.  Take b_2 = b in M_v, b' in M_u with P_u b = f_u, P_v b' = f_v,
    and b_1 = m, b' in the u block plus q, (Ad(v) - I) q = b.  With X = det[m, b, b'] = -det[f_u, m, b']
    = det[f_v, m, b] (as b - f_u lies in M_u, b' - f_v in M_v): D_2 = h X, D_0 = -4 X, and D_1 =
    2 (-X) (-n) h X / (4 - tr^2 rho(v)); -2n/(4 (4 - tr^2 rho(v)))."""
    value, mats = -1.0, {g: m.tolist() for g, m in rep.assignment.items()}
    for word, n in _side_presentation(side, rep.a, rep.b)[1].seifert:
        g = _word2(mats, word)
        value *= n / (4 - complex(g[0][0] + g[1][1]) ** 2)
    return TorsionValue(complex(value))


# phi_1 rows as integer maps on the exponent sums (e_g(mu_C), e_g(la_C)) by generator, per side and
# kind: an abelian C has x~ x v ~ y~ x v, a non-abelian side reads the e of F^k g^e, which kills F
# (e_x(F) = e_y(F) on C, e_p(F) = e_t(F) on D), and D's first lift p~ x v' takes no class.
_ROW_MAPS = {("C", "A"): ((1, 1),), ("C", "N"): ((1, -1),),
             ("D", "A"): ((1, 0), (0, 1)), ("D", "N"): ((0, 0), (-1, 1))}


@lru_cache(maxsize=256)
def _rows(side: str, kind: str, a: int, b: int) -> np.ndarray:
    """phi_1 rows of ``side`` of ``kind`` ("A" abelian, "N" not) at (a, b), read-only integers:
    AN C [1, 0], NA C [1, -(4a+2)], NA D [[2, -2b], [0, 1]], AN and NN D [[0, 0], [-2, 2b+1]]."""
    pres, peri = _side_presentation(side, a, b)
    sums = [[peri[w].exponent_sum(g) for w in ("mu_C", "lambda_C")] for g in pres.generators]
    rows = np.array(_ROW_MAPS[side, kind]) @ np.array(sums)
    rows.flags.writeable = False
    return rows


@dataclass
class InducedMaps:
    """Matrices of phi_k = i^C_* + i^D_* in the designated homology bases."""

    phi2: np.ndarray
    phi1: np.ndarray
    phi0: np.ndarray


def induced_maps(rep: Representation, piece_c: PieceData, piece_d: PieceData) -> InducedMaps:
    """phi_2, phi_1, phi_0 of the splitting of ``rep`` into ``piece_c`` and ``piece_d``, as integers.

    phi_1 stacks the ``_rows`` of C over D.  phi_2 and phi_0 send the one class of S
    to the first lift of each piece that has one in that degree: unit columns.
    """
    def unit_column(k):
        return np.vstack([np.eye(len(p.lifts.get(k, [])), 1, dtype=int) for p in (piece_c, piece_d)])

    return InducedMaps(unit_column(2), _phi1(rep.family, rep.a, rep.b), unit_column(0))


def _phi1(family: str, a: int, b: int) -> np.ndarray:
    return np.vstack([_rows(side, kind, a, b) for side, kind in zip("CD", family)])


@lru_cache(maxsize=256)
def _phi1_det(family: str, a: int, b: int) -> int:
    """det[phi_1 | e_designated1] (``_span_basis``) at (a, b), once: a zero one raises on every call."""
    return _span_basis(_phi1(family, a, b), _MV_TABLE[family]["designated1"])[1]


def _span_basis(phi: np.ndarray, designated: Sequence[int]) -> Tuple[np.ndarray, int]:
    """[phi | e_designated] of an integer phi and its determinant in exact integer arithmetic
    (``_ldet``), checked to be square and nonzero."""
    basis = np.column_stack([phi, np.eye(len(phi), dtype=int)[:, list(designated)]])
    if basis.shape[0] == basis.shape[1]:
        det = _ldet([[((0, c),) if c else () for c in row] for row in basis.tolist()]).get(0, 0)
        if det:
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
    """Full record of one gluing computation; ``tor_s`` is exactly 1.  The pieces, their
    float64 complexes and the induced maps are derived from ``rep`` on first read."""

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
    rep: Representation = field(repr=False)
    piece_c = cached_property(lambda self: build_torus_piece(self.rep))
    piece_d = cached_property(lambda self: build_pattern_piece(self.rep))
    maps = cached_property(lambda self: induced_maps(self.rep, self.piece_c, self.piece_d))

    @cached_property
    def pieces(self) -> Dict[str, PieceData]:
        """C, D and the splitting torus S, which is built on first read."""
        return {"C": self.piece_c, "D": self.piece_d, "S": build_gluing_torus(self.rep)}

    @cached_property
    def sequence(self) -> BasedChainComplex:
        """The nine-slot sequence, built and checked exact on first read."""
        return build_mv_sequence(self.family, self.maps, self.pieces)


def tor_E(family: str, a: int, b: int, index, xi: complex) -> TorEResult:
    """Glued torsion of the cable exterior for a non-abelian family, Tor(C) Tor(D) det[phi_1 | e1]."""
    if family not in _MV_TABLE:
        raise MayerVietorisError(
            f"family {family!r} does not go through the gluing formula; "
            "the abelian case uses tor_E_abelian"
        )
    rep = rep_build(family, xi, a, b, index)
    tor_d = _side_torsion(rep, "D")  # first: past float64, NA's exact D names the cause
    tor_c = _side_torsion(rep, "C")
    det = _phi1_det(family, a, b)
    value = _finite(tor_c.value * tor_d.value * det, lambda: f"Tor(E) of {family}")
    return TorEResult(family, a, b, rep.index, complex(xi), value, tor_c, tor_d, TorsionValue(1 + 0j),
                      TorsionValue(1 / det + 0j), rep)


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

"""The splitting E = C u_S D, piece by piece, for the AN representation family.

The cable exterior splits along a torus S into the torus-knot exterior C and
the pattern piece D.  Each piece gets a twisted chain complex with homology
lifts built from the family's invariant vector; the induced maps on homology
assemble the long exact sequence of the splitting, whose torsion closes the
gluing formula

    Tor(E) = Tor(C) Tor(D) / ( Tor(S) Tor(H*) ).
"""

import numpy as np

from cabletorsion import (
    build_gluing_torus,
    build_mv_sequence,
    build_pattern_piece,
    build_torus_piece,
    homology,
    induced_maps,
    mv_torsion,
    rep_build,
)


def show(value: complex) -> str:
    """+x.xxxxxx, with the imaginary part only when it is not rounding noise."""
    return f"{value.real:+.6f}" if abs(value.imag) < 1e-12 else f"{value:+.6f}"


family, a, b, j, xi = "AN", 1, 6, 0, 0.3 + 0.1j
rep = rep_build(family, xi, a, b, j)
print(f"family {family} on T(2,{2 * a + 1})^(2,{2 * b + 1}), j = {j}, xi = {xi}")
print(f"  omega2 = exp(i pi (2j+1)/(2b+1)) = {rep.omega2:.6f}")
print()

piece_c = build_torus_piece(rep)
piece_d = build_pattern_piece(rep)
torus = build_gluing_torus(rep)

for piece in (torus, piece_c, piece_d):
    dims = homology(piece.complex).dims
    print(f"  piece {piece.name}: homology dims (H0, H1, H2) = {dims},"
          f"  Tor = {show(piece.torsion.value)}")

maps = induced_maps(rep, piece_c, piece_d)
print()
print("  phi_1 (mu_C, la_C columns in the H1(C) + H1(D) basis):")
for row in maps.phi1:
    print("   ", np.array2string(np.round(row.real, 6) + 0.0, precision=6))  # + 0.0 clears -0.

seq = build_mv_sequence(family, maps, {"C": piece_c, "D": piece_d, "S": torus})
tor_h = mv_torsion(seq)
print()
print(f"  nine-slot exact sequence dims (degree 0..8): {seq.dims}")
print(f"  Tor(H*) = {show(tor_h.value)}   (expected +-1/(2b+1) = +-1/{2 * b + 1})")

glued = piece_c.torsion * piece_d.torsion / (torus.torsion * tor_h)
print(f"  glued Tor(E) = {show(glued.value)}")
print(f"  theorem value  (2b+1)(w^3 + w^-3)^2 / (2 (w^2 - w^-2)^2) with w = omega2:")
w = rep.omega2
print(f"                 {show((2 * b + 1) * (w ** 3 + w ** -3) ** 2 / (2 * (w ** 2 - w ** -2) ** 2))}")

"""Abelian twisted torsion equals the squared Alexander polynomial.

For a knot-group presentation whose generators are conjugate meridians, the
diagonal representation x_i -> diag(z, 1/z) twists the presentation complex,
and the torsion based at the meridian/basepoint homology classes is

    Tor = +-( Delta(K; z^2) / (z - 1/z) )^2.

The script builds both sides for T(2,3) and T(2,5), then repeats the game on
the 13-crossing cable exterior, where the same diagonal family reproduces the
1/tau_0^2 amplitude of the asymptotic expansion.
"""

import numpy as np

from cabletorsion import (
    abelian_representation,
    presentation_complex,
    reidemeister_torsion,
    tor_E_abelian,
    torus_piece_presentation,
)
from cabletorsion.closed_forms import alexander, tau0

H = np.array([0, 1, 0], dtype=complex)

for a in (1, 2):
    pres, _ = torus_piece_presentation(a)
    print(f"T(2,{2 * a + 1}) with presentation <x, y | {pres.relators[0]!r}>")
    for xi in (0.4 + 0.3j, -0.7 + 1.1j):
        rep = abelian_representation(xi, pres)
        cplx = presentation_complex(pres, rep)
        meridian_lift = np.zeros(6, dtype=complex)
        meridian_lift[1] = 1.0  # x~ tensor H
        tor = reidemeister_torsion(cplx, {1: [meridian_lift], 0: [H]})
        z = rep.z
        reference = (alexander(pres, z ** 2) / (z - 1 / z)) ** 2
        print(f"  xi = {xi}:  engine {tor.value:+.6f}")
        print(f"             closed  {reference:+.6f}")
    print()

print("Cable exterior E of T(2,3)^(2,13), same abelian game on 4 generators:")
from cabletorsion import cable_exterior_presentation

a, b, xi = 1, 6, 0.3 + 0.1j
engine = tor_E_abelian(a, b, xi)
reference = tau0(xi, a, b) ** -2
print(f"  engine      {engine.value:+.6f}")
print(f"  1/tau_0^2   {reference:+.6f}")
cable, _ = cable_exterior_presentation(a, b)
print(f"  cable Alexander normalization: Delta(1) = {alexander(cable, 1.0).real:+.1f}, "
      f"Delta(t) - Delta(1/t) at t = 1.7+0.3j -> "
      f"{abs(alexander(cable, 1.7 + 0.3j) - alexander(cable, 1 / (1.7 + 0.3j))):.2e}")

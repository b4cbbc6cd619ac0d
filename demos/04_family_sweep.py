"""All four representation families of one cable, against their closed forms.

For T(2,3)^(2,15) (a = 1, b = 7; chosen because its NN index range is
non-empty) the script sweeps every representation index of every family,
computes the glued torsion through the engine and compares with the scalar
amplitudes of the asymptotic expansion:

    AA -> 1/tau_0(xi)^2     AN, j -> 1/tau_1(xi; j)^2
    NA, k -> 1/tau_2(xi; k)^2     NN, (l, m) -> 1/tau_3(xi; l, m)^2

Matches are up to the intrinsic sign of the torsion.
"""


def show(value: complex) -> str:
    """+x.xxxxxx, with the imaginary part only when it is not rounding noise."""
    return f"{value.real:+.6f}" if abs(value.imag) < 1e-12 else f"{value:+.6f}"


from cabletorsion import tor_E, tor_E_abelian, torsion_equal
from cabletorsion.closed_forms import tau0, tau1, tau2, tau3
from cabletorsion.representations import index_range

a, b, xi = 1, 7, 0.25 - 0.45j
print(f"cable T(2,{2 * a + 1})^(2,{2 * b + 1}), xi = {xi}")
print()

value = tor_E_abelian(a, b, xi).value
ref = tau0(xi, a, b) ** -2
print(f"AA        engine {show(value)}  1/tau0^2 {show(ref)}  "
      f"match={torsion_equal(value, ref, 1e-6)}")

for family, amplitude in (
    ("AN", lambda idx: tau1(xi, idx[0], a, b)),
    ("NA", lambda idx: tau2(xi, idx[0], a, b)),
    ("NN", lambda idx: tau3(xi, idx[0], idx[1], a, b)),
):
    for index in index_range(family, a, b):
        result = tor_E(family, a, b, index, xi)
        ref = 1 / amplitude(index) ** 2
        ok = torsion_equal(result.value, ref, 1e-6)
        label = f"{family} {index}"
        print(f"{label:<9} engine {show(result.value.value)}  1/tau^2 {show(ref)}  match={ok}")

"""Every index, not a random one: the whole index range of each non-abelian family at (3, 40)
and (6, 200), at the eight corners of the admissible band 0.05 <= |Re xi| <= 1, |Im xi| <= 1, and
at 0.3 + 0.1i, against the closed form modulo sign at 1e-10.

12,339 calls (AN 2,160, NA 81, NN 10,098).  Before the non-abelian sides took their Seifert
route, 117 of them raised (the commutation guard and the float64 complexes near the index ends:
AN j near 0 and b, NN l = 0) and 244 passed the 1e-6 match but missed 1e-10.
"""

import collections

import pytest

from cabletorsion.closed_forms import theorem_rhs
from cabletorsion.mayer_vietoris import tor_E
from cabletorsion.representations import index_range

XIS = [complex(re, im) for re in (-1.0, -0.05, 0.05, 1.0) for im in (-1.0, 1.0)] + [0.3 + 0.1j]


@pytest.mark.parametrize("a, b", [(3, 40), (6, 200)])
def test_every_index_matches_its_closed_form(a, b):
    tally = collections.Counter()
    for family in ("AN", "NA", "NN"):
        for index in index_range(family, a, b):
            for xi in XIS:
                value = tor_E(family, a, b, index, xi).value.value
                ref = theorem_rhs(family, a, b, index, xi)
                assert min(abs(value - ref), abs(value + ref)) <= 1e-10 * abs(ref), (family, index, xi)
                tally[family] += 1
    assert tally == {(3, 40): {"AN": 360, "NA": 27, "NN": 702},
                     (6, 200): {"AN": 1800, "NA": 54, "NN": 9396}}[a, b]

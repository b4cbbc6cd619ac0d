"""Set-up time of one fresh interpreter: ``import cabletorsion`` through one call.

Usage: python3 cold_start.py SRC_DIR FAMILY A B INDEX XI_RE XI_IM
(INDEX is comma-separated, empty for the abelian family).  Prints one JSON
object with the wall ``setup_s`` and the host ``scale`` measured around it
(see ``harness.host_scales``).  A call that raises still ends the set-up.
"""

import json
import sys
import time

from harness import host_scales, reference_seconds


def main(argv) -> int:
    src, family, a, b, index, xi_re, xi_im = argv
    ref_before = reference_seconds()
    sys.path.insert(0, src)
    start = time.perf_counter()
    import cabletorsion

    a, b = int(a), int(b)
    index = tuple(int(i) for i in index.split(",") if i)
    xi = complex(float(xi_re), float(xi_im))
    try:
        if family == "AA":
            cabletorsion.tor_E_abelian(a, b, xi)
        else:
            cabletorsion.tor_E(family, a, b, index, xi)
    except ValueError:
        pass
    setup_s = time.perf_counter() - start
    (scale,) = host_scales([ref_before, reference_seconds()])
    print(json.dumps({"setup_s": setup_s, "scale": scale, "module": cabletorsion.__file__}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

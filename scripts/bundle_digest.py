"""Print a digest of lambda and T for every numpy-route bundle of a fixed corpus.

A change to ``qfsplit._fpbundle`` that must leave lambda and T bit-identical
is checked by running this on both checkouts and comparing the outputs:

    python scripts/bundle_digest.py /path/to/parent > parent.txt
    python scripts/bundle_digest.py > change.txt
    diff parent.txt change.txt

The argument is the root of the checkout to import ``qfsplit`` (from its
``src/``) and ``perfbench`` from; it defaults to this script's checkout.
The corpus is every bundle built by one round of the ``catalog`` and
``extension`` workloads and rounds 0-1 of ``dense`` (seed 1), and by
``delsarte.cross_check`` at every prime 11..47.  Each line names the field,
the weights and a digest of f's coefficient vector, then the SHA-256 of
lambda's and T's dtype, shape and bytes; the last line digests them all.
"""

import hashlib
import sys
from pathlib import Path

root = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent)
sys.path[:0] = [str(root / "src"), str(root / "perfbench")]

import numpy as np  # noqa: E402
import workloads  # noqa: E402
from qfsplit import _fpbundle, delsarte  # noqa: E402


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


lines = []
lam_and_T = _fpbundle.lam_and_T


def recorded(f, bas):
    lam, T = lam_and_T(f, bas)
    fld = bas.ring.field
    lines.append(f"F{fld.p}^{fld.e} {bas.ring.weights} f={digest(bas.coefficients(f))} "
                 f"lambda,T={digest(lam, T)}")
    return lam, T


_fpbundle.lam_and_T = recorded  # cartier.bundle looks it up at call time
for name, rounds in (("catalog", [0]), ("dense", [0, 1]), ("extension", [0])):
    wl = workloads.WORKLOADS[name](1)
    wl.setup()
    for r in rounds:
        for eq in wl.round(r):
            eq.run()
for p in (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
    delsarte.cross_check(p)
print("\n".join(lines))
print(f"{len(lines)} bundles, all {hashlib.sha256(''.join(lines).encode()).hexdigest()[:16]}")

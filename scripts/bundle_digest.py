"""Print digests of lambda, T and the Krylov walk for every array-route bundle of a fixed corpus.

A change to an array route (``qfsplit._fpbundle``, ``qfsplit._fibers``) or
to the walk layer that must leave lambda, T, the step matrix and the rows
bit-identical is checked by running this on both checkouts and comparing
the outputs:

    python scripts/bundle_digest.py /path/to/parent > parent.txt
    python scripts/bundle_digest.py > change.txt
    diff parent.txt change.txt

The argument is the root of the checkout to import ``qfsplit`` (from its
``src/``) and ``perfbench`` from; it defaults to this script's checkout.
The corpus is every bundle that ``cartier.bundle`` builds on an array
route, whichever one ``cartier.route`` picks (the dict route's are left
out), in one round of the ``catalog`` and ``extension`` workloads and
rounds 0-1 of ``dense`` (seed 1), and in ``delsarte.cross_check`` at every
prime 11..47.  Each line names the field,
the weights and a digest of f's coefficient vector, then the SHA-256 of
lambda's and T's dtype, shape and bytes; then, for the bundle built from
them on the field's backend, the digest of its step matrix read back as an
(m*e, m*e) coordinate array (row j is the step of the j-th unit row), of
R_1 and R_2 read back through ``ops.coordinates``, and its height and ns.
The last line digests them all.
"""

import hashlib
import sys
from pathlib import Path

root = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent)
sys.path[:0] = [str(root / "src"), str(root / "perfbench")]

import numpy as np  # noqa: E402
import workloads  # noqa: E402
from qfsplit import cartier, delsarte  # noqa: E402


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


lines = []
route = cartier.route


def walk_digests(b) -> str:
    """The step matrix, R_1 and R_2 as coordinate arrays, then the height and ns."""
    ops, m = b.ops, b.m
    unit = np.eye(m * b.field.e, dtype=np.int64)
    steps = np.array([ops.coordinates(ops.row_times_matrix(ops.row(u), b.T_mat), m).reshape(-1)
                      for u in unit])
    r1 = ops.frobenius_row(b.lam_row)
    r2 = ops.row_times_matrix(r1, b.T_mat)
    rows = digest(ops.coordinates(r1, m), ops.coordinates(r2, m))
    return f"step={digest(steps)} R1,R2={rows} height={cartier.height(b)!r} ns={cartier.ns_index(b)!r}"


def recorded(lam_and_T):
    """The producer ``lam_and_T``, recording lambda and T, built at once: a bundle's T is built once."""
    return lambda f, bas: record(f, bas, *lam_and_T(f, bas))


def record(f, bas, lam, build_T):
    T = build_T()
    fld = bas.ring.field
    b = cartier.FrobeniusBundle(bas, f, lam, lambda: T)
    lines.append(f"F{fld.p}^{fld.e} {bas.ring.weights} f={digest(bas.coefficients(f))} "
                 f"lambda,T={digest(lam, T)} {walk_digests(b)}")
    return lam, lambda: T


def recording_route(f, bas):
    """``cartier.route``, with the producer of each array route recorded."""
    produce = route(f, bas)
    return produce if produce is cartier.dict_lam_and_T else recorded(produce)


cartier.route = recording_route  # cartier.bundle looks the rule up at call time
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

"""Deterministic, seeded, parallel sweeps over coefficient space.

Three modes over a chosen weighted ring:

* ``histogram`` -- tabulate (height, ns) over random or mask-exhaustive
  coefficient vectors;
* ``hunt`` -- collect samples whose tau equals a target, each re-verified on
  a fresh parse;
* ``assert_bound`` -- record any smooth-filtered supersingular sample whose
  Artin invariant is provably below a bound (these must never occur).

Sampling is counter-based: coefficient vectors are a pure function of
(seed, index), so partitioning across workers is trivial and every artifact
is byte-identical regardless of worker count.  The smoothness filter is a
heuristic witness search: it enumerates points of the weighted projective
space over F_{p^k}, k <= K, looking for a common zero of f and all its
partials.  Per ring and k, the monomial and partial-monomial values at every
point are tabulated once as F_p-vectors (Weil restriction), so testing one
sample is one F_p matrix-vector product.  A "no witness" outcome means no
singular point over the searched small fields; it is NOT a smoothness proof.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import cartier
from .errors import ResourceError, UsageError
from .ffield import field as make_field
from .polyring import Polynomial, RingConfig, format_poly, parse_poly, parse_scalar
from .values import is_infinite

SMOOTHNESS_CAVEAT = (
    "no singular point over the searched small fields; this is NOT a smoothness proof"
)

_MAX_TABLE_BYTES = 192 * 2**20  # peak memory of one witness table build, see _table_bytes
_BLOCK_CELLS = 1 << 16  # (point, monomial) cells per block of a witness table build
_MAX_EXHAUSTIVE = 200_000


# ---------------------------------------------------------------------------
# counter-based sampling
# ---------------------------------------------------------------------------

def _u64_stream(seed: int, index: int):
    key = (seed % 2**64).to_bytes(8, "little")
    block = 0
    while True:
        msg = index.to_bytes(8, "little") + block.to_bytes(4, "little")
        digest = hashlib.blake2b(msg, key=key, digest_size=64).digest()
        for off in range(0, 64, 8):
            yield int.from_bytes(digest[off : off + 8], "little")
        block += 1


def sample(seed: int, index: int, ring: RingConfig) -> list:
    """Uniform coefficient vector in field^m, a pure function of (seed, index)."""
    m = cartier.basis(ring).m
    fld = ring.field
    stream = _u64_stream(seed, index)
    if fld.e == 1:
        return [next(stream) % fld.p for _ in range(m)]
    return [tuple(next(stream) % fld.p for _ in range(fld.e)) for _ in range(m)]


# ---------------------------------------------------------------------------
# heuristic smoothness witness search
# ---------------------------------------------------------------------------

def _block_points(m: int) -> int:
    """Points per block of a witness table build: at most _BLOCK_CELLS cells, or one point."""
    return max(1, _BLOCK_CELLS // m)


def _table_bytes(nv: int, k: int, npts: int, m: int, q: int, itemsize: int) -> int:
    """Peak bytes of a :class:`_WitnessTables` build, from its array shapes.

    The table holds (nv + 1) k npts m entries of ``itemsize`` bytes.  It is
    filled one block of points at a time, and a block's ``bcells`` cells
    hold at most nv + 4 int32 code arrays' worth at once: up to nv - 1
    suffix products, the prefix, a gathered factor, and one multiplication's
    index, its int64 cast for the gather and its product.  The Weil gather
    adds up to two k x bcells slices, while at most nv - 1 code arrays live.
    The q x q multiplication table is first a list of references to shared
    ints (8 bytes an entry, plus the list's growth margin), then int32; the
    points are npts x nv int32, built in blocks.  The exponents, lowered
    exponents and scales are m x nv, the powers of one variable q x m int32.
    Bookkeeping of a few tens of KB (element list, code map, power table) is
    left out.
    """
    bcells = min(npts, _block_points(m)) * m
    return (npts * m * (nv + 1) * k * itemsize + bcells * (4 * (nv + 4) + 2 * k * itemsize)
            + 13 * q * q + 8 * npts * nv + m * (nv * (16 + itemsize) + 4 * q))


class _WitnessTables:
    """f and its partials at every projective point over F_{p^k}, as F_p-vectors.

    ``table[0, :, P, j]`` is the Weil vector of M_j(P) -- its k coordinates
    over F_p in the basis 1, t, ..., t^(k-1), the coordinates
    :meth:`._linalg.PrimeOps.row` uses -- and ``table[i + 1, :, P, j]`` that
    of the partial monomial (e mod p) M_j(P) / x_i, e the exponent of x_i in
    M_j.  The base field is prime, so the coefficients c_j lie in F_p and
    f(P) = sum_j c_j M_j(P) is an F_p-combination of these vectors: one
    sample costs one ``(table @ c) % p``.  The monomial values are built once
    from a q x q multiplication table of element codes, a code being an
    element's index in ``fld.elements()``: per block of points, each
    partial multiplies the prefix product of the factors before x_i, its
    lowered x_i factor and the suffix product of those after, so a block
    costs O(nv) gathers, not one product of all nv factors per table.
    """

    def __init__(self, ring: RingConfig, k: int):
        p = ring.field.p
        q = p**k
        nv = ring.num_vars
        bas = cartier.basis(ring)
        # every point has first nonzero coordinate 1: (q^nv - 1) / (q - 1) of them
        npts = (q**nv - 1) // (q - 1)
        # the smallest dtype that holds a row sum of m products below p^2
        dtype = np.min_scalar_type(bas.m * (p - 1) ** 2)
        need = _table_bytes(nv, k, npts, bas.m, q, dtype.itemsize)
        if need > _MAX_TABLE_BYTES:
            raise ResourceError(
                f"witness tables over F_{p}^{k} would need {need / 2**20:.0f} MiB, over the "
                f"{_MAX_TABLE_BYTES // 2**20} MiB budget; lower the extension bound"
            )
        fld = ring.field if k == 1 else make_field(p, k)
        self.p = p
        self.elems = elems = list(fld.elements())
        code_of = {e: i for i, e in enumerate(elems)}
        one = code_of[fld.one]
        # mul[a * q + b] is the code of a * b; codes below q^2 fit int32 under the budget
        mul = np.array([code_of[fld.mul(a, b)] for a in elems for b in elems], dtype=np.int32)

        exps = np.array(bas.monomials)
        powtab = np.empty((q, int(exps.max()) + 1), dtype=np.int32)
        powtab[:, 0] = one
        for e in range(1, powtab.shape[1]):
            powtab[:, e] = mul[powtab[:, e - 1] * q + np.arange(q)]

        # canonical projective representatives, in the order the first
        # witness is reported: pivot-major, then the tail as base-q digits
        # of a counter, least significant first
        blocks = []
        for pivot in range(nv):
            tail = nv - pivot - 1
            idx = np.arange(q**tail)
            block = np.zeros((q**tail, nv), dtype=np.int32)
            block[:, pivot] = one
            for j in range(tail):
                block[:, pivot + 1 + j] = idx // q**j % q
            blocks.append(block)
        self.points = points = np.concatenate(blocks)

        # weil[c] is the vector of code c's k coordinates over F_p
        weil = np.array(elems, dtype=dtype).reshape(q, k).T
        lowered = np.maximum(exps - 1, 0)
        scales = (exps % p).astype(dtype)

        def times(a, b):
            """Codes of a * b; ``None`` is the empty product."""
            return b if a is None else mul[a * q + b]

        def factor(pts, ex, i):
            """(points, m) codes of x_i^ex[j, i] at the points ``pts``."""
            return powtab[:, ex[:, i]][pts[:, i]]

        table = np.empty((nv + 1, k, npts, bas.m), dtype=dtype)
        rows = _block_points(bas.m)
        for lo in range(0, npts, rows):
            cut = slice(lo, lo + rows)
            pts = points[cut]
            # suffix[i] is the product of the factors after x_i
            suffix = [None] * nv
            for i in range(nv - 1, 0, -1):
                suffix[i - 1] = times(suffix[i], factor(pts, exps, i))
            prefix = None
            for i in range(nv):
                part = times(suffix[i], times(prefix, factor(pts, lowered, i)))
                suffix[i] = None
                table[i + 1, :, cut] = weil.take(part, axis=1) * scales[:, i] % p
                del part  # before the next product, see _table_bytes
                prefix = times(prefix, factor(pts, exps, i))
            table[0, :, cut] = weil.take(prefix, axis=1)
        self.table = table

    def witness(self, coeffs) -> tuple | None:
        """First projective point where f and all partials vanish, else None."""
        vals = (self.table @ np.asarray(coeffs, dtype=self.table.dtype)) % self.p
        hits = np.flatnonzero(~vals.any(axis=(0, 1)))
        if hits.size == 0:
            return None
        return tuple(self.elems[c] for c in self.points[hits[0]])


# three entries hold one ring's whole search (k <= 3); an unbounded cache
# would keep every table a process ever built, each up to _MAX_TABLE_BYTES
@lru_cache(maxsize=3)
def _tables(ring: RingConfig, k: int) -> _WitnessTables:
    return _WitnessTables(ring, k)


def _check_extension_bound(k: int) -> None:
    if not 1 <= k <= 3:
        raise UsageError("the witness extension bound must be 1, 2 or 3")


def singular_witness(f: Polynomial, extension_bound: int):
    """A singular point of V(f) over F_{p^k}, k <= extension_bound, or None.

    Returns (k, point) for the first witness found (a common zero of f and
    all partials, nonzero in the affine cone).  ``None`` means no witness
    over the searched fields -- see SMOOTHNESS_CAVEAT; it is not a proof.
    """
    if f.ring.field.e != 1:
        raise UsageError("the witness search supports prime base fields only")
    _check_extension_bound(extension_bound)
    coeffs = cartier.basis(f.ring).coefficients(f)
    for k in range(1, extension_bound + 1):
        hit = _tables(f.ring, k).witness(coeffs)
        if hit is not None:
            return (k, hit)
    return None


# ---------------------------------------------------------------------------
# scan jobs
# ---------------------------------------------------------------------------

MODE_HISTOGRAM = "histogram"
MODE_HUNT = "hunt"
MODE_ASSERT_BOUND = "assert_bound"


@dataclass(frozen=True)
class ScanJob:
    ring: RingConfig
    mode: str = MODE_HISTOGRAM
    count: int = 0
    seed: int = 0
    mask: tuple | None = None          # exhaustive over these basis indices when set
    target_sigma: int | None = None    # hunt mode
    min_sigma: int | None = None       # assert_bound mode
    smoothness_filter: bool | None = None  # default: on for assert_bound
    witness_extension_bound: int = 2
    workers: int = 1

    def filter_on(self) -> bool:
        if self.smoothness_filter is None:
            return self.mode == MODE_ASSERT_BOUND
        return self.smoothness_filter

    def validate(self) -> None:
        if self.mode not in (MODE_HISTOGRAM, MODE_HUNT, MODE_ASSERT_BOUND):
            raise UsageError(f"unknown scan mode {self.mode!r}")
        if self.mode == MODE_HUNT and self.target_sigma is None:
            raise UsageError("hunt mode needs a target sigma")
        if self.mode == MODE_ASSERT_BOUND and self.min_sigma is None:
            raise UsageError("assert_bound mode needs a minimum sigma")
        if self.mode != MODE_HISTOGRAM and cartier.family_of(self.ring) == cartier.FAMILY_GENERAL:
            raise UsageError("hunt and assert_bound modes need one of the two K3 families")
        if self.mask is None and self.count <= 0:
            raise UsageError("need a positive sample count (or an exhaustive mask)")
        if self.mask is not None:
            m = cartier.basis(self.ring).m
            if any(not 0 <= i < m for i in self.mask):
                raise UsageError("mask indices out of basis range")
            if len(set(self.mask)) != len(self.mask):
                raise UsageError("mask indices must be distinct")
            if self.ring.field.order ** len(self.mask) > _MAX_EXHAUSTIVE:
                raise UsageError("exhaustive mask space too large")
        if self.filter_on() and self.ring.field.e != 1:
            raise UsageError("the smoothness filter supports prime base fields only")
        _check_extension_bound(self.witness_extension_bound)
        if self.workers < 1:
            raise UsageError("worker count must be positive")

    def total(self) -> int:
        if self.mask is not None:
            return self.ring.field.order ** len(self.mask)
        return self.count

    def coefficients_for(self, index: int) -> list:
        if self.mask is None:
            return sample(self.seed, index, self.ring)
        fld = self.ring.field
        m = cartier.basis(self.ring).m
        elems = list(fld.elements())
        coeffs = [fld.zero] * m
        rest = index
        for pos in self.mask:
            coeffs[pos] = elems[rest % fld.order]
            rest //= fld.order
        return coeffs


def _fmt(value) -> str:
    if value is None:
        return ""
    if is_infinite(value):
        return "infinity"
    return str(value)


def _evaluate_index(job: ScanJob, index: int) -> dict:
    ring = job.ring
    fld = ring.field
    coeffs = job.coefficients_for(index)
    coeff_str = ";".join(fld.format(c) for c in coeffs)
    row = {
        "index": index,
        "coefficients": coeff_str,
        "height": "",
        "ns": "",
        "tau": "",
        "smooth_witness_flag": "",
        "_supersingular": False,
        "_tau": None,
        "_ambiguous": False,
    }
    f = cartier.basis(ring).polynomial(coeffs)
    if f.is_zero():
        row["height"] = "zero_polynomial"
        return row
    if job.filter_on():
        hit = singular_witness(f, job.witness_extension_bound)
        if hit is None:
            row["smooth_witness_flag"] = f"no_witness(K={job.witness_extension_bound})"
        else:
            row["smooth_witness_flag"] = f"singular(k={hit[0]})"
    report = cartier.artin_report(f)
    row["height"] = _fmt(report.height)
    row["ns"] = _fmt(report.ns)
    row["tau"] = _fmt(report.tau)
    row["_supersingular"] = is_infinite(report.height)
    row["_ambiguous"] = report.sigma_note == cartier.SIGMA_AMBIGUOUS
    if report.tau is not None and not is_infinite(report.tau):
        row["_tau"] = report.tau
    return row


def _worker_chunk(args) -> list:
    job, indices = args
    return [_evaluate_index(job, i) for i in indices]


@dataclass
class ScanResult:
    job: dict
    rows: list
    histogram: list          # [(height, ns, count)] sorted
    hits: list               # hunt mode
    violations: list         # assert_bound: provable sigma-bound failures
    ambiguous: list          # assert_bound: sigma range straddles the bound
    caveat: str | None

    def to_json_dict(self) -> dict:
        return {
            "job": self.job,
            "total": len(self.rows),
            "histogram": [
                {"height": h, "ns": ns, "count": c} for (h, ns, c) in self.histogram
            ],
            "hits": self.hits,
            "violations": self.violations,
            "ambiguous": self.ambiguous,
            "smoothness_caveat": self.caveat,
        }

    def csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["index", "coefficients", "height", "ns", "tau", "smooth_witness_flag"])
        for row in self.rows:
            writer.writerow(
                [row["index"], row["coefficients"], row["height"], row["ns"], row["tau"],
                 row["smooth_witness_flag"]]
            )
        return buf.getvalue()

    def json_text(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    def write_artifacts(self, directory) -> None:
        """Write scan.csv and scan.json into ``directory``, which must exist."""
        out = Path(directory)
        (out / "scan.csv").write_text(self.csv_text())
        (out / "scan.json").write_text(self.json_text())


def run_scan(job: ScanJob) -> ScanResult:
    """Execute a scan job; identical inputs give identical results at any worker count."""
    job.validate()
    total = job.total()
    indices = list(range(total))

    # never more processes than CPUs or chunks: with the fork start method
    # the pool starts all max_workers at the first submit
    workers = min(job.workers, os.cpu_count() or 1)
    if workers == 1 or total < 4:
        rows = [_evaluate_index(job, i) for i in indices]
    else:
        nchunks = min(total, workers * 4)
        chunks = [indices[k::nchunks] for k in range(nchunks)]
        # imported here: the pool machinery costs every other command ~2 MB and ~15 ms
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, nchunks)) as pool:
            parts = list(pool.map(_worker_chunk, [(job, ch) for ch in chunks]))
        rows = [r for part in parts for r in part]
        rows.sort(key=lambda r: r["index"])

    hist: dict = {}
    for row in rows:
        key = (row["height"], row["ns"])
        hist[key] = hist.get(key, 0) + 1
    histogram = sorted((h, ns, c) for (h, ns), c in hist.items())

    smooth_ok = lambda row: (not job.filter_on()) or row["smooth_witness_flag"].startswith(
        "no_witness"
    )

    hits = []
    violations = []
    ambiguous = []
    for row in rows:
        if not row["_supersingular"] or row["_tau"] is None or not smooth_ok(row):
            continue
        tau = row["_tau"]
        public = {k: v for k, v in row.items() if not k.startswith("_")}
        if job.mode == MODE_HUNT and tau == job.target_sigma:
            fresh = _reverify(job.ring, row["coefficients"])
            public["reverified"] = fresh == tau
            hits.append(public)
        elif job.mode == MODE_ASSERT_BOUND:
            sigma_max = tau + 1 if row["_ambiguous"] else tau
            if sigma_max < job.min_sigma:
                violations.append(public)
            elif tau < job.min_sigma:
                ambiguous.append(public)

    cleaned = [{k: v for k, v in row.items() if not k.startswith("_")} for row in rows]
    return ScanResult(
        job={
            "p": job.ring.field.p,
            "ext_degree": job.ring.field.e,
            "weights": list(job.ring.weights),
            "mode": job.mode,
            "count": total,
            "seed": job.seed,
            "mask": list(job.mask) if job.mask is not None else None,
            "target_sigma": job.target_sigma,
            "min_sigma": job.min_sigma,
            "smoothness_filter": job.filter_on(),
            "witness_extension_bound": job.witness_extension_bound,
        },
        rows=cleaned,
        histogram=histogram,
        hits=hits,
        violations=violations,
        ambiguous=ambiguous,
        caveat=SMOOTHNESS_CAVEAT if job.filter_on() else None,
    )


def _reverify(ring: RingConfig, coeff_str: str) -> "int | None":
    """Recompute tau from a freshly parsed copy of the hit's equation."""
    fld = ring.field
    bas = cartier.basis(ring)
    raws = [parse_scalar(fld, part) for part in coeff_str.split(";")]
    f = bas.polynomial(raws)
    fresh = parse_poly(format_poly(f), ring)
    report = cartier.artin_report(fresh)
    if report.tau is None or is_infinite(report.tau):
        return None
    return report.tau

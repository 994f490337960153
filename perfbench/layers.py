"""Where the traced run puts its spans, and the per-layer metrics they give.

Layers are the package's modules.  Spans wrap the public functions the
equations reach, in every module namespace that calls them, including the
module-level names that ``cartier.bundle`` calls.  ``polyring.kernel_mul``
is the polynomial product made directly inside ``cartier.bundle``, i.e.
``delta(f) * f^(p-2)``.

Times are self times at reference speed (see reference.py): the mean per
traced equation, except ``cartier.basis_ms``, which is the wall time of the
cold basis build during set-up.  Counts are exact sizes over the first
round's equations, which depend only on the seed, so they repeat from run
to run.
"""

from __future__ import annotations

import math
from collections import Counter

from qfsplit import _linalg, cartier, cli, delsarte, lifts, polyring, scan

SETUP_EQUATION = -1  # equation id of spans recorded while setting up

# span names whose self time is reported as "<name>_ms"
TIMED_SPANS = (
    "polyring.parse",
    "polyring.pow",
    "polyring.delta",
    "polyring.kernel_mul",
    "cartier.columns",
    "cartier.bundle",
    "cartier.height",
    "cartier.ns",
    "cartier.artin_report",
    "linalg.prime.row_times_matrix",
    "linalg.generic.row_times_matrix",
    "lifts.t_shifted",
    "lifts.ns_lift",
    "lifts.infinite_lift",
    "delsarte.cross_check",
    "scan.sample",
    "scan.witness",
    "scan.run_scan",
    "cli.main",
)
LAYERS = ("polyring", "cartier", "linalg", "lifts", "delsarte", "scan", "cli")
# spans whose arguments and result the first round keeps for the size counts
CAPTURED = frozenset({"polyring.pow", "polyring.delta", "polyring.kernel_mul",
                      "cartier.columns", "scan.witness"})

COUNTS = (
    ("polyring.pow_terms", "count"),
    ("polyring.delta_terms", "count"),
    ("polyring.delta_compositions", "count"),
    ("polyring.kernel_terms", "count"),
    ("cartier.columns_pairs", "count"),
    ("cartier.columns_hits", "count"),
    ("cartier.columns_hit_ratio", "ratio"),
    ("cartier.T_nnz", "count"),
    ("cartier.height_rows", "count"),
    ("cartier.ns_rows", "count"),
    ("linalg.prime.row_times_matrix_calls", "count"),
    ("linalg.generic.row_times_matrix_calls", "count"),
    ("lifts.shifts", "count"),
    ("scan.witness_calls", "count"),
    ("scan.witness_singular_ratio", "ratio"),
    ("trace.count_equations", "count"),
)


def targets() -> list:
    """``(owner, attribute, span name, only_under)`` for :meth:`Tracer.install`."""
    return [
        (polyring, "parse_poly", "polyring.parse", None),
        (cli, "parse_poly", "polyring.parse", None),
        (delsarte, "parse_poly", "polyring.parse", None),
        (cartier, "poly_pow", "polyring.pow", None),
        (lifts, "poly_pow", "polyring.pow", None),
        (cartier, "delta", "polyring.delta", None),
        (lifts, "delta", "polyring.delta", None),
        (polyring.Polynomial, "__mul__", "polyring.kernel_mul", "cartier.bundle"),
        (cartier, "basis", "cartier.basis", None),
        (cartier, "columns_from_kernel", "cartier.columns", None),
        (lifts, "columns_from_kernel", "cartier.columns", None),
        (cartier, "bundle", "cartier.bundle", None),
        (cartier, "height", "cartier.height", None),
        (lifts, "height", "cartier.height", None),
        (cartier, "ns_index", "cartier.ns", None),
        (cartier, "artin_report", "cartier.artin_report", None),
        (_linalg.PrimeOps, "row_times_matrix", "linalg.prime.row_times_matrix", None),
        (_linalg.GenericOps, "row_times_matrix", "linalg.generic.row_times_matrix", None),
        (lifts, "t_shifted", "lifts.t_shifted", None),
        (lifts, "ns_lift", "lifts.ns_lift", None),
        (lifts, "infinite_lift", "lifts.infinite_lift", None),
        (delsarte, "cross_check", "delsarte.cross_check", None),
        (scan, "sample", "scan.sample", None),
        (scan, "singular_witness", "scan.witness", None),
        (scan, "run_scan", "scan.run_scan", None),
        (cli, "main", "cli.main", None),
    ]


def delta_compositions(terms: int, p: int) -> int:
    """Compositions of p into ``terms`` parts in [0, p-1]: the multinomial route's count."""
    return max(0, math.comb(p + terms - 1, p) - terms)


def residue_hits(bas, kernel) -> int:
    """Pairs (basis monomial, kernel term) whose product has every exponent = p-1 mod p."""
    p = bas.ring.field.p
    residues = Counter(tuple(e % p for e in exps) for exps in kernel.term_dict())
    return sum(residues[tuple((p - 1 - b) % p for b in mono)] for mono in bas.monomials)


def size_counts(tracer, equations) -> dict:
    """Exact sizes from the spans (and captured payloads) of ``equations``."""
    c = Counter()
    witness_hits = 0
    for idx, row in enumerate(tracer.spans):
        if row[4] not in equations:
            continue
        name = tracer.span_name(idx)
        parent = tracer.span_name(row[3]) if row[3] is not None else None
        args, result = tracer.payloads.get(idx, ((), None))
        if name == "polyring.pow" and parent == "cartier.bundle":
            c["polyring.pow_terms"] += len(result)
        elif name == "polyring.delta" and parent == "cartier.bundle":
            c["polyring.delta_terms"] += len(result)
            c["polyring.delta_compositions"] += delta_compositions(len(args[0]), args[0].ring.field.p)
        elif name == "polyring.kernel_mul":
            c["polyring.kernel_terms"] += len(result)
        elif name == "cartier.columns":
            bas, kernel = args[0], args[1]
            fld = bas.ring.field
            c["cartier.columns_pairs"] += bas.m * len(kernel)
            c["cartier.columns_hits"] += residue_hits(bas, kernel)
            c["cartier.T_nnz"] += sum(not fld.is_zero(v) for r in result for v in r)
        elif name.startswith("linalg."):
            c[name + "_calls"] += 1
            if parent == "cartier.height":
                c["cartier.height_rows"] += 1
            elif parent == "cartier.ns":
                c["cartier.ns_rows"] += 1
        elif name == "lifts.t_shifted":
            c["lifts.shifts"] += 1
        elif name == "scan.witness":
            c["scan.witness_calls"] += 1
            witness_hits += result is not None
    c["cartier.columns_hit_ratio"] = (
        c["cartier.columns_hits"] / c["cartier.columns_pairs"] if c["cartier.columns_pairs"] else 0.0
    )
    c["scan.witness_singular_ratio"] = (
        witness_hits / c["scan.witness_calls"] if c["scan.witness_calls"] else 0.0
    )
    c["trace.count_equations"] = len(equations)
    return {name: (c[name], unit) for name, unit in COUNTS}


def per_layer_metrics(tracer, speed, traced: list, count_equations: set, untraced_s: float) -> dict:
    """Every per-layer metric as ``name -> (value, unit)``.

    ``traced`` holds the traced equations' records; a span's length leaves
    out the speed samples taken inside it and is scaled to reference speed
    with its equation's factor.  ``untraced_s`` is the wall time of the same
    equations, each run with tracing off just before its traced copy.
    """
    weights = {d.eq_id: d.ref_s / d.seconds for d in traced}
    n = len(traced)
    self_s = tracer.self_times(weights, speed.net)
    metrics = {f"{span}_ms": (self_s.get(span, 0) * 1e3 / n, "ms") for span in TIMED_SPANS}
    setup_s = tracer.self_times({SETUP_EQUATION: 1.0})
    metrics["cartier.basis_ms"] = (setup_s.get("cartier.basis", 0) * 1e3, "ms")
    for layer in LAYERS:
        total = sum(v for span, v in self_s.items() if span.split(".", 1)[0] == layer)
        metrics[f"layer.{layer}_ms"] = (total * 1e3 / n, "ms")
    traced_ref_s = sum(d.ref_s for d in traced)
    uncovered = traced_ref_s - tracer.covered(weights, speed.net)
    metrics["layer.untraced_ms"] = (uncovered * 1e3 / n, "ms")
    metrics.update(size_counts(tracer, count_equations))
    traced_s = sum(d.seconds for d in traced)
    metrics["trace.overhead_pct"] = (100.0 * (traced_s - untraced_s) / untraced_s, "%")
    spans = sum(1 for row in tracer.spans if row[4] in weights)
    metrics["trace.spans_per_equation"] = (spans / n, "count")
    return metrics

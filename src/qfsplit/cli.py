"""Command-line surface tying the modules together.

Subcommands: height, ns, artin, lift, delsarte, scan, tables, check-smooth.
Exit codes: 0 success, 1 usage error, 2 domain error, 3 resource cap.
``--format json`` emits a single JSON document with value provenance
(method and cap) and is the stable machine interface; infinite values
serialize as the string "infinity" with an adjacent cap field.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path

from . import cartier, catalog, delsarte, lifts, scan
from .errors import DomainError, ParseError, ResourceError, UsageError
from .ffield import field
from .polyring import RingConfig, parse_poly, parse_scalar
from .values import Infinite, is_infinite, value_to_json


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise UsageError(message)


def _csv_ints(text: str) -> list:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from exc


def _build_ring(args) -> RingConfig:
    weights = tuple(_csv_ints(args.weights))
    modulus = _csv_ints(args.modulus) if args.modulus is not None else None
    fld = field(args.p, args.ext_degree, modulus)
    return RingConfig(fld, weights)


def _equation(args):
    """The equation argument, parsed into the ring the ring options name."""
    return parse_poly(args.equation, _build_ring(args))


def _emit(args, text_lines, json_doc) -> None:
    if args.format == "json":
        print(json.dumps(json_doc, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def _common_doc(f) -> dict:
    ring = f.ring
    return {
        "equation": str(f),
        "p": ring.field.p,
        "ext_degree": ring.field.e,
        "weights": list(ring.weights),
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_walk(args) -> int:
    """``height`` or ``ns`` (``args.command``) of the equation, with its proven cap."""
    f = _equation(args)
    b = cartier.bundle(f)
    if args.command == "height":
        value, method, cap = cartier.height(b), "krylov-matrix", cartier.default_height_cap(b)
    else:
        value, method, cap = cartier.ns_index(b), "rank-profile", cartier.default_ns_cap(b)
    doc = _common_doc(f)
    doc.update({"invariant": args.command, "result": value_to_json(value),
                "method": method, "cap": cap})
    _emit(args, [f"{args.command} = {value}"], doc)
    return 0


def _cmd_artin(args) -> int:
    f = _equation(args)
    line = tuple(_csv_ints(args.line)) if args.line is not None else None
    report = cartier.artin_report(f, line=line)
    lines = [
        f"family     = {report.family}",
        f"height     = {report.height}",
        f"ns         = {report.ns}",
        f"tau        = {report.tau if report.tau is not None else 'n/a'}",
        f"sigma note = {report.sigma_note}",
    ]
    _emit(args, lines, report.to_json_dict())
    return 0


def _cmd_lift(args) -> int:
    ring = _build_ring(args)
    fld = ring.field
    # every option rule is checked before the bundle, which is the costly step
    if sum((args.c is not None, args.random is not None, args.find_infinite)) != 1:
        raise UsageError("lift needs exactly one of --c, --random, --find-infinite")
    if args.seed is not None and args.random is None:
        raise UsageError("--seed is read only by --random")
    if args.random is not None and args.random < 1:
        raise UsageError("--random needs a positive number of draws")
    seed = 0 if args.seed is None else args.seed
    scan.check_seed(seed)
    if args.c is not None:
        parts = args.c.split(",")
        m = cartier.basis(ring).m
        if len(parts) != m:
            raise UsageError(f"--c needs {m} comma-separated field elements")
        c, start = [], 0
        for part in parts:
            try:
                c.append(parse_scalar(fld, part))
            except ParseError as exc:  # report the offset within --c, not within the part
                raise ParseError(exc.message, start + exc.offset) from None
            start += len(part.encode()) + 1  # offsets count UTF-8 bytes
    f = parse_poly(args.equation, ring)
    b = cartier.bundle(f)
    doc = _common_doc(f)

    if args.find_infinite:
        c = lifts.infinite_lift(b)
        if c is None:
            _emit(args, ["lambda = 0: every lift has ns 1; no infinite lift exists"],
                  {**doc, "infinite_lift": None, "reason": "lambda_zero"})
            return 0
        # infinite_lift checked ns_lift(b, [c]) = infinity, at this cap, before returning c
        v = Infinite(cap=cartier.default_ns_cap(b))
        cstr = ",".join(fld.format(x) for x in c)
        _emit(args, [f"c = {cstr}", f"ns_lift = {v}"],
              {**doc, "infinite_lift": cstr, "ns_lift": value_to_json(v)})
        return 0

    if args.c is not None:
        (v,) = lifts.ns_lift(b, [c])
        _emit(args, [f"ns_lift = {v}"], {**doc, "ns_lift": value_to_json(v)})
        return 0

    n = args.random
    ns_f = cartier.ns_index(b)
    results = {}
    for v in lifts.ns_lift(b, (scan.sample(seed, i, f.ring) for i in range(n))):
        key = "infinity" if is_infinite(v) else str(v)
        results[key] = results.get(key, 0) + 1
    lines = [f"ns(f) = {ns_f}"] + [f"ns_lift {k}: {v} draws" for k, v in sorted(results.items())]
    _emit(args, lines, {**doc, "ns": value_to_json(ns_f), "draws": n,
                        "seed": seed, "distribution": results})
    return 0


def _cmd_delsarte(args) -> int:
    if (args.matrix is None) == (args.family is None):
        raise UsageError("delsarte needs exactly one of --matrix or --family")
    if args.family is not None:
        if args.weights is not None:
            raise UsageError("--weights is read only with --matrix: a family fixes its weights")
        families = delsarte.builtin_families()
        if not 0 <= args.family < len(families):
            raise UsageError(f"--family must be in [0, {len(families) - 1}]")
        record = families[args.family]
        delsarte.check_admissible(record, args.p)
        A = record.matrix()
        equation = record.equation
        weights = record.weights
    else:
        entries = _csv_ints(args.matrix)
        if len(entries) != 16:
            raise UsageError("--matrix needs 16 comma-separated entries, row-major")
        weights = tuple(_csv_ints("1,1,1,1" if args.weights is None else args.weights))
        A = delsarte.DelsarteMatrix(
            rows=tuple(tuple(entries[4 * i : 4 * i + 4]) for i in range(4)), weights=weights
        )
        equation = A.equation()
    inv = delsarte.e_invariant(A)
    result = delsarte.delsarte_invariants(A, args.p)
    lines = [
        f"equation = {equation}",
        f"|det|    = {abs(inv.det)}",
        f"e_A      = {inv.e_A}",
        f"{result.kind:<9}= {result.value}",
    ]
    doc = {
        "equation": equation,
        "weights": list(weights),
        "p": args.p,
        "det": inv.det,
        "det_abs": abs(inv.det),
        "alpha": list(inv.alpha),
        "g": inv.g,
        "e_A": inv.e_A,
        "result": {"kind": result.kind, "value": result.value},
    }
    _emit(args, lines, doc)
    return 0


@contextmanager
def _writing_to(out: str):
    """Report an OSError on the scan's --out directory as a usage error."""
    try:
        yield
    except OSError as exc:
        raise UsageError(f"cannot write scan artifacts to {out!r}: {exc.strerror}") from exc


def _cmd_scan(args) -> int:
    ring = _build_ring(args)
    mode = args.mode.replace("-", "_")
    # argparse cannot tell an explicit --count 100 or --seed 0 from a default
    if args.mask is not None and args.count is not None:
        raise UsageError("--count and --mask exclude each other: a mask scans its whole space")
    if args.mask is not None and args.seed is not None:
        raise UsageError("--seed and --mask exclude each other: a mask draws no random sample")
    if args.sigma is not None and mode == scan.MODE_HISTOGRAM:
        raise UsageError("--sigma is read only by the hunt and assert-bound modes")
    if args.out == "":  # an empty value is malformed, not absent
        raise UsageError("--out needs a directory name, got ''")
    job = scan.ScanJob(
        ring=ring,
        mode=mode,
        count=100 if args.count is None else args.count,
        seed=0 if args.seed is None else args.seed,
        mask=tuple(_csv_ints(args.mask)) if args.mask is not None else None,
        target_sigma=args.sigma if mode == scan.MODE_HUNT else None,
        min_sigma=args.sigma if mode == scan.MODE_ASSERT_BOUND else None,
        smoothness_filter=None if args.smooth_filter == "auto" else args.smooth_filter == "on",
        witness_extension_bound=args.ext_bound,
        workers=args.workers,
    )
    job.validate()  # a bad job leaves no --out directory behind
    if args.out:  # before the first sample, so a bad path costs no scan
        with _writing_to(args.out):
            Path(args.out).mkdir(parents=True, exist_ok=True)
    result = scan.run_scan(job)
    if args.out:
        with _writing_to(args.out):
            result.write_artifacts(args.out)
    doc = result.to_json_dict()
    if args.format == "json":
        print(result.json_text(), end="")
    else:
        print(f"samples: {doc['total']}")
        for bucket in doc["histogram"]:
            print(f"  height={bucket['height'] or '-'} ns={bucket['ns'] or '-'}: {bucket['count']}")
        if job.mode == scan.MODE_HUNT:
            print(f"hits: {len(result.hits)}")
        if job.mode == scan.MODE_ASSERT_BOUND:
            print(f"violations: {len(result.violations)}  ambiguous: {len(result.ambiguous)}")
        if result.caveat:
            print(f"note: {result.caveat}")
    return 1 if result.violations else 0


def _cmd_tables(args) -> int:
    which = args.which
    failures = 0
    lines = []
    rows_doc = []

    def record(name, computed, expected) -> None:
        nonlocal failures
        ok = computed == expected
        failures += 0 if ok else 1
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: computed {computed}, expected {expected}")
        rows_doc.append({"name": name, "computed": str(computed), "expected": str(expected),
                         "pass": ok})

    for name, entries in (("f2", catalog.SUPERSINGULAR_QUARTICS_F2),
                          ("f3", catalog.SUPERSINGULAR_QUARTICS_F3)):
        if which in (name, "all"):
            for entry in entries:
                report = cartier.artin_report(entry.polynomial(), line=entry.line)
                value = report.tau if not is_infinite(report.ns) else report.ns
                record(entry.name, value, entry.expected_sigma)
    for name, entry in (("quintic", catalog.QUINTIC_THREEFOLD_F2),
                        ("rdp", catalog.RDP_QUARTIC_F2)):
        if which in (name, "all"):
            b = cartier.bundle(entry.polynomial())
            record(entry.name, cartier.ns_index(b), entry.expected_ns)
    if which in ("delsarte", "all"):
        for rec in delsarte.builtin_families():
            inv = delsarte.e_invariant(rec.matrix())
            record(f"delsarte-{rec.index}-einv", (abs(inv.det), inv.e_A),
                   (rec.det_abs, rec.e_A))
        for p in (2, 3, 5, 7):
            for row in delsarte.cross_check(p):
                record(f"delsarte-{row.family.index}-p{p}",
                       "match" if row.match else "mismatch", "match")

    _emit(args, lines + [f"{failures} failure(s)"],
          {"which": which, "rows": rows_doc, "failures": failures})
    return 1 if failures else 0


def _cmd_check_smooth(args) -> int:
    f = _equation(args)
    hit = scan.singular_witness(f, args.ext_bound)
    doc = _common_doc(f)
    if hit is None:
        doc.update({"witness": None, "extension_bound": args.ext_bound,
                    "caveat": scan.SMOOTHNESS_CAVEAT})
        _emit(args, [f"no witness up to extension degree {args.ext_bound}",
                     f"note: {scan.SMOOTHNESS_CAVEAT}"], doc)
    else:
        k, point = hit
        fld = field(args.p, k) if k > 1 else f.ring.field
        coords = ",".join(fld.format(c) for c in point)
        doc.update({"witness": {"extension_degree": k, "point": coords}})
        _emit(args, [f"singular point over F_{args.p}^{k}: ({coords})"], doc)
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

_SHARED_OPTIONS = {
    "-p": dict(type=int, default=2, help="field characteristic (prime)"),
    "--ext-degree": dict(type=int, default=1, help="extension degree e"),
    "--modulus": dict(help="extension modulus coefficients, constant first"),
    "--weights": dict(default="1,1,1,1", help="variable weights, e.g. 1,1,1,3"),
    "--seed": dict(type=int, default=None, help="seed for randomized paths (default 0)"),
    "--format": dict(choices=("text", "json"), default="text"),
}
_RING_OPTIONS = ("-p", "--ext-degree", "--modulus", "--weights")


def _add_shared(sub, *flags) -> None:
    """Give a subcommand the shared options it reads, and no others."""
    for flag in flags:
        sub.add_argument(flag, **_SHARED_OPTIONS[flag])


@lru_cache(maxsize=1)
def build_parser() -> _Parser:
    """The ``qfsplit`` parser, built once per process (parse_args leaves it unchanged)."""
    parser = _Parser(prog="qfsplit",
                     description="quasi-F-split heights, non-splitting indices and "
                                 "Artin invariants of Calabi-Yau hypersurfaces")
    subs = parser.add_subparsers(dest="command", required=True)

    for name, fn, flags in (
        ("height", _cmd_walk, _RING_OPTIONS),
        ("ns", _cmd_walk, _RING_OPTIONS),
        ("artin", _cmd_artin, _RING_OPTIONS),
        ("lift", _cmd_lift, _RING_OPTIONS + ("--seed",)),
        ("check-smooth", _cmd_check_smooth, _RING_OPTIONS),
    ):
        sub = subs.add_parser(name)
        _add_shared(sub, *flags, "--format")
        sub.add_argument("equation")
        sub.set_defaults(fn=fn)

    subs.choices["artin"].add_argument("--line", help="axis line certificate, e.g. 0,3")
    lift = subs.choices["lift"]
    lift.add_argument("--c", help="comma-separated lift coefficients")
    lift.add_argument("--random", type=int, help="number of random lifts")
    lift.add_argument("--find-infinite", action="store_true")
    subs.choices["check-smooth"].add_argument(
        "--ext-bound", type=int, default=2, help="witness search bound K (<= 3)"
    )

    dels = subs.add_parser("delsarte")
    _add_shared(dels, "-p", "--format")
    dels.add_argument("--weights", help="variable weights of --matrix (default 1,1,1,1)")
    dels.add_argument("--matrix", help="16 comma-separated exponent entries, row-major")
    dels.add_argument("--family", type=int, default=None, help="built-in family index 0..19")
    dels.set_defaults(fn=_cmd_delsarte)

    sc = subs.add_parser("scan")
    _add_shared(sc, *_RING_OPTIONS, "--seed", "--format")
    sc.add_argument("--mode", choices=("histogram", "hunt", "assert-bound"),
                    default="histogram")
    sc.add_argument("--count", type=int, default=None, help="samples to draw (default 100)")
    sc.add_argument("--sigma", type=int, default=None, help="hunt target / assert bound")
    sc.add_argument("--mask", help="basis indices for exhaustive enumeration")
    sc.add_argument("--workers", type=int, default=1)
    sc.add_argument("--smooth-filter", choices=("auto", "on", "off"), default="auto")
    sc.add_argument("--ext-bound", type=int, default=2)
    sc.add_argument("--out", help="directory for CSV/JSON artifacts")
    sc.set_defaults(fn=_cmd_scan)

    tab = subs.add_parser("tables")
    _add_shared(tab, "--format")
    tab.add_argument("--which", choices=("f2", "f3", "quintic", "rdp", "delsarte", "all"),
                     default="all")
    tab.set_defaults(fn=_cmd_tables)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (ParseError, UsageError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

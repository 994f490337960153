"""The four benchmark workloads: generated inputs, timed calls and checks.

A workload is a sequence of rounds; a round is a fixed list of equations,
and the runner executes as many whole rounds as fill the run's time at
reference speed (``round_seconds`` per round), so every run of a seed times
the same equations.  Each equation is one call into the package
(``run``), a cheap check of its output against a known value (``check``),
and optionally an independent oracle (``oracle``) that the runner
evaluates after the timed region.

Inputs are a pure function of the benchmark seed: catalog and extension
rows are fixed, lift shifts, scan samples and dense forms are drawn from
seeds derived from it.  The package only ever receives the generated
inputs.  See README.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

from qfsplit import cartier, catalog, cli, delsarte, polyring, scan
from qfsplit.ffield import field
from qfsplit.polyring import RingConfig
from qfsplit.values import is_infinite

K3_WEIGHTS = ((1, 1, 1, 1), (1, 1, 1, 3))
DELSARTE_PRIMES = (2, 3, 5, 7)
LIFT_DRAWS = 6           # random first-order lifts per catalog row and round
SCAN_ROUND = 100         # scan-f2 samples per round
SCAN_SIGMA = 3           # assert_bound: no smooth supersingular sample below sigma 3
SCAN_EXT_BOUND = 2       # witness search over F_2 and F_4
ORACLE_MAX_HEIGHT = 3    # Fedder corner oracle levels checked on scan-f2


def derive_seed(*parts) -> int:
    """A 63-bit seed that is a pure function of ``parts``."""
    digest = hashlib.blake2b(":".join(map(str, parts)).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


@dataclass
class Equation:
    label: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    oracle: "Callable[[object], str | None] | None" = None


def warm_basis(ring: RingConfig) -> None:
    """Build the monomial basis of ``ring`` and its index (first-use caches)."""
    bas = cartier.basis(ring)
    bas.index_of(bas.monomials[0])


def expected_tau(weights: tuple, ns: int) -> "int | None":
    """tau for the two K3 families (ns clipped to 10), None otherwise."""
    return min(ns, 10) if weights in K3_WEIGHTS else None


# ---------------------------------------------------------------------------
# checks (each returns a failure message, or None when the output is right)
# ---------------------------------------------------------------------------

def run_cli(argv: list) -> tuple:
    """``qfsplit.cli.main`` in-process with stdout captured: (exit code, text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _cli_doc(out: tuple) -> tuple:
    code, text = out
    if code != 0:
        return None, f"exit code {code}"
    return json.loads(text), None


def check_artin(expected_ns: int, tau: "int | None"):
    def check(out) -> "str | None":
        doc, err = _cli_doc(out)
        if err:
            return err
        if doc["height"]["value"] != "infinity":
            return f"height {doc['height']['value']} on a supersingular row"
        if doc["ns"]["value"] != expected_ns:
            return f"ns {doc['ns']['value']} != {expected_ns}"
        got_tau = doc["tau"]["value"] if doc["tau"] else None
        if got_tau != tau:
            return f"tau {got_tau} != {tau}"
        return None

    return check


def check_lift_random(expected_ns: int, draws: int):
    def check(out) -> "str | None":
        doc, err = _cli_doc(out)
        if err:
            return err
        if doc["ns"]["value"] != expected_ns:
            return f"ns {doc['ns']['value']} != {expected_ns}"
        allowed = {str(expected_ns), "infinity"}
        dist = doc["distribution"]
        if not set(dist) <= allowed:
            return f"lift values {sorted(dist)} not within {sorted(allowed)}"
        if sum(dist.values()) != draws:
            return f"{sum(dist.values())} lift draws reported, {draws} asked"
        return None

    return check


def check_lift_infinite(expected_ns: int):
    def check(out) -> "str | None":
        doc, err = _cli_doc(out)
        if err:
            return err
        if expected_ns == 1:  # lambda = 0: every lift has index 1
            return None if doc["infinite_lift"] is None else "infinite lift found with lambda = 0"
        if doc.get("infinite_lift") is None:
            return "no infinite lift constructed"
        if doc["ns_lift"]["value"] != "infinity":
            return f"constructed lift has ns {doc['ns_lift']['value']}"
        return None

    return check


def check_delsarte(rows) -> "str | None":
    if len(rows) != 1:
        return f"{len(rows)} cross-check rows for one family"
    row = rows[0]
    if not row.match:
        return f"formula {row.formula} against engine height {row.matrix_height}, tau {row.matrix_tau}"
    return None


def check_scan(result) -> "str | None":
    if len(result.rows) != 1:
        return f"{len(result.rows)} rows for one sample"
    if result.violations:
        return f"assert_bound violation: {result.violations[0]}"
    return None


def fedder_oracle(ring: RingConfig, coeffs: list):
    """Corner-test oracle: levels 1..3 must agree with the reported height."""

    def oracle(result) -> "str | None":
        h = result.rows[0]["height"]
        if h == "zero_polynomial":
            return None
        f = cartier.basis(ring).polynomial(coeffs)
        got = cartier.fedder_height_oracle(f, n_max=ORACLE_MAX_HEIGHT)
        want = int(h) if h.isdigit() and int(h) <= ORACLE_MAX_HEIGHT else None
        return None if got == want else f"Fedder oracle {got} against height {h}"

    return oracle


def check_report(m: int):
    """Height and ns are consistent: exactly one of them is finite, ns <= m + 1."""

    def check(report) -> "str | None":
        if is_infinite(report.height) == is_infinite(report.ns):
            return f"height {report.height} with ns {report.ns}"
        if not is_infinite(report.ns) and not 1 <= report.ns <= m + 1:
            return f"ns {report.ns} outside 1..{m + 1}"
        return None

    return check


def delta_oracle(text: str, ring: RingConfig):
    def oracle(_report) -> "str | None":
        f = polyring.parse_poly(text, ring)
        if polyring.delta(f).term_dict() != polyring.delta_lift_oracle(f).term_dict():
            return "delta differs from the Z/p^2 lift oracle"
        return None

    return oracle


def check_base_change(expected_ns: int):
    def check(report) -> "str | None":
        if not is_infinite(report.height):
            return f"height {report.height} after base change of a supersingular row"
        if report.ns != expected_ns:
            return f"ns {report.ns} != {expected_ns} after base change"
        return None

    return check


def base_field_oracle(entry: catalog.CatalogEntry):
    def oracle(report) -> "str | None":
        base = cartier.ns_index(cartier.bundle(entry.polynomial()))
        return None if report.ns == base else f"ns {report.ns} over F_q, {base} over F_{entry.p}"

    return oracle


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""
    round_seconds: float  # one round at reference speed, as measured; fixes the round count

    def __init__(self, seed: int):
        self.seed = seed

    def rings(self) -> list:
        raise NotImplementedError

    def setup(self) -> None:
        """First-use caches the timed equations rely on."""
        for ring in self.rings():
            warm_basis(ring)

    def round(self, r: int) -> list:
        raise NotImplementedError


class Catalog(Workload):
    """Bundled catalog rows through the CLI, Delsarte cross-checks, lifts."""

    name = "catalog"
    round_seconds = 1.4

    def __init__(self, seed: int):
        super().__init__(seed)
        self.entries = catalog.all_entries()
        self.delsarte_jobs = [
            (p, rec)
            for p in DELSARTE_PRIMES
            for rec in delsarte.builtin_families()
            if delsarte.admissible_primes(rec, [p])
        ]

    def rings(self) -> list:
        rings = {e.ring() for e in self.entries}
        rings |= {RingConfig(field(p), w) for p in DELSARTE_PRIMES for w in K3_WEIGHTS}
        return sorted(rings, key=repr)

    @staticmethod
    def _argv(command: str, entry) -> list:
        return [command, "-p", str(entry.p), "--weights", ",".join(map(str, entry.weights)),
                entry.equation, "--format", "json"]

    def round(self, r: int) -> list:
        eqs = []
        for e in self.entries:
            argv = self._argv("artin", e)
            if e.line:
                argv += ["--line", ",".join(map(str, e.line))]
            ns = e.expected_ns_value
            eqs.append(Equation(f"artin {e.name}", lambda a=argv: run_cli(a),
                                check_artin(ns, expected_tau(e.weights, ns))))
        for p, rec in self.delsarte_jobs:
            eqs.append(Equation(f"delsarte #{rec.index} p={p}",
                                lambda p=p, rec=rec: delsarte.cross_check(p, [rec]),
                                check_delsarte))
        for i, e in enumerate(self.entries):
            ns = e.expected_ns_value
            seed = derive_seed(self.seed, "lift", r, i)
            argv = self._argv("lift", e) + ["--random", str(LIFT_DRAWS), "--seed", str(seed)]
            eqs.append(Equation(f"lift --random {e.name}", lambda a=argv: run_cli(a),
                                check_lift_random(ns, LIFT_DRAWS)))
            argv = self._argv("lift", e) + ["--find-infinite"]
            eqs.append(Equation(f"lift --find-infinite {e.name}", lambda a=argv: run_cli(a),
                                check_lift_infinite(ns)))
        return eqs


class ScanF2(Workload):
    """Char-2 quartic assert_bound scan, one sample per run_scan call."""

    name = "scan-f2"
    round_seconds = 0.63

    def __init__(self, seed: int):
        super().__init__(seed)
        self.ring = RingConfig(field(2), (1, 1, 1, 1))

    def rings(self) -> list:
        return [self.ring]

    def setup(self) -> None:
        super().setup()
        # a smooth row has no witness, so the search builds the F_2 and F_4 tables
        smooth = catalog.SUPERSINGULAR_QUARTICS_F2[0].polynomial()
        if scan.singular_witness(smooth, SCAN_EXT_BOUND) is not None:
            raise AssertionError("catalog row f2-sigma3 reported singular")

    def round(self, r: int) -> list:
        eqs = []
        for i in range(SCAN_ROUND):
            seed = derive_seed(self.seed, "scan-f2", r * SCAN_ROUND + i)
            job = scan.ScanJob(ring=self.ring, mode=scan.MODE_ASSERT_BOUND, count=1, seed=seed,
                               min_sigma=SCAN_SIGMA, smoothness_filter=True,
                               witness_extension_bound=SCAN_EXT_BOUND, workers=1)
            oracle = fedder_oracle(self.ring, scan.sample(seed, 0, self.ring)) if r == 0 else None
            eqs.append(Equation(f"scan seed={seed}", lambda j=job: scan.run_scan(j),
                                check_scan, oracle))
        return eqs


class Dense(Workload):
    """Dense random K3 and threefold forms over F_5 and F_3."""

    name = "dense"
    round_seconds = 9.0
    # (label, p, weights); each form has exactly m(p-1)/p terms, the expected
    # support of a uniform coefficient vector, so its cost repeats across seeds
    FAMILIES = (
        ("quartic-F5", 5, (1, 1, 1, 1)),
        ("sextic-F5", 5, (1, 1, 1, 3)),
        ("quintic-F3", 3, (1, 1, 1, 1, 1)),
    )

    def rings(self) -> list:
        return [RingConfig(field(p), w) for _, p, w in self.FAMILIES]

    def form(self, label: str, ring: RingConfig, r: int) -> str:
        """Equation text of the round-r form of one family."""
        bas = cartier.basis(ring)
        p = ring.field.p
        values = scan.sample(derive_seed(self.seed, "dense", label), r, ring)
        support = random.Random(derive_seed(self.seed, "dense-support", label, r)).sample(
            range(bas.m), bas.m * (p - 1) // p
        )
        coeffs = [0] * bas.m
        for i in support:
            coeffs[i] = values[i] or 1
        return polyring.format_poly(bas.polynomial(coeffs))

    def round(self, r: int) -> list:
        eqs = []
        for (label, _p, _w), ring in zip(self.FAMILIES, self.rings()):
            text = self.form(label, ring, r)
            eqs.append(Equation(
                f"{label} round {r}",
                lambda t=text, g=ring: cartier.artin_report(polyring.parse_poly(t, g)),
                check_report(cartier.basis(ring).m),
                delta_oracle(text, ring) if r == 0 else None,
            ))
        return eqs


class Extension(Workload):
    """Catalog rows base-changed to F_4 and F_9; generic-backend Krylov.

    A round is four passes over the eighteen K3 rows with the ns = 58
    quintic in the middle: the quintic takes about ten times as long as a
    whole pass, and spreading the many short K3 queries over the round keeps
    their median steady from run to run.
    """

    name = "extension"
    round_seconds = 6.7
    K3_PASSES = 4

    def __init__(self, seed: int):
        super().__init__(seed)
        self.entries = catalog.all_entries()

    def ring_of(self, entry) -> RingConfig:
        return RingConfig(field(entry.p, 2), entry.weights)

    def rings(self) -> list:
        return sorted({self.ring_of(e) for e in self.entries}, key=repr)

    def equation(self, entry, oracle: bool) -> Equation:
        ring = self.ring_of(entry)
        return Equation(
            f"{entry.name} over F_{entry.p}^2",
            lambda t=entry.equation, g=ring: cartier.artin_report(polyring.parse_poly(t, g)),
            check_base_change(entry.expected_ns_value),
            base_field_oracle(entry) if oracle else None,
        )

    def round(self, r: int) -> list:
        k3 = [e for e in self.entries if e.weights in K3_WEIGHTS]
        big = [e for e in self.entries if e.weights not in K3_WEIGHTS]
        passes = [[self.equation(e, r == 0 and k == 0) for e in k3] for k in range(self.K3_PASSES)]
        middle = self.K3_PASSES // 2
        quintic = [self.equation(e, r == 0) for e in big]
        return [eq for part in passes[:middle] + [quintic] + passes[middle:] for eq in part]


WORKLOADS = {cls.name: cls for cls in (Catalog, ScanF2, Dense, Extension)}

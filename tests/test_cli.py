import json
import os
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

import qfsplit
from qfsplit import cartier, catalog, lifts, scan
from qfsplit.catalog import SUPERSINGULAR_QUARTICS_F2, SUPERSINGULAR_QUARTICS_F3
from qfsplit.cli import main
from qfsplit.ffield import field
from qfsplit.polyring import RingConfig, parse_poly
from qfsplit.values import Infinite, is_infinite, value_to_json

from _support import lift_index_reference

VALUE_SCHEMA = {
    "type": "object",
    "properties": {
        "value": {"oneOf": [{"type": "integer"}, {"const": "infinity"}]},
        "cap": {"type": ["integer", "null"]},
    },
    "required": ["value"],
}

ARTIN_SCHEMA = {
    "type": "object",
    "properties": {
        "equation": {"type": "string"},
        "p": {"type": "integer"},
        "ext_degree": {"type": "integer"},
        "weights": {"type": "array", "items": {"type": "integer"}},
        "family": {"enum": ["quartic_K3", "weighted_sextic_K3", "general_CY"]},
        "height": VALUE_SCHEMA,
        "ns": VALUE_SCHEMA,
        "tau": {"oneOf": [VALUE_SCHEMA, {"type": "null"}]},
        "sigma_note": {
            "enum": ["equals_tau", "tau_or_tau_plus_1_char2_quartic", "not_applicable"]
        },
        "caps_used": {"type": "object"},
        "provenance": {"type": "object"},
    },
    "required": ["equation", "p", "weights", "family", "height", "ns", "tau",
                 "sigma_note", "caps_used", "provenance"],
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_artin_text_report(capsys):
    code, out, _ = run_cli(
        capsys, "artin", "-p", "2", "--weights", "1,1,1,1",
        "x^4+x^2*y^2+x*y^3+y*w^3+z^3*w",
    )
    assert code == 0
    assert "ns         = 3" in out
    assert "tau        = 3" in out


HEIGHT_4_QUARTIC = (
    "x0^4 + x0^3*x1 + x0^2*x1*x3 + x0^2*x2*x3 + x0^2*x3^2 + x0*x1^3 + x0*x2^3"
    " + x0*x2*x3^2 + x1^4 + x1^3*x3 + x1*x2^3 + x2^4 + x2^2*x3^2"
)


def test_artin_json_schema_and_values_match_text(capsys):
    eq = "x^4 + xy^3 + yw^3 + z^3w"
    code, text_out, _ = run_cli(capsys, "artin", "-p", "2", eq)
    code2, json_out, _ = run_cli(capsys, "artin", "-p", "2", "--format", "json", eq)
    assert code == code2 == 0
    doc = json.loads(json_out)
    jsonschema.validate(doc, ARTIN_SCHEMA)
    assert doc["ns"]["value"] == 9
    assert "ns         = 9" in text_out
    assert doc["height"]["value"] == "infinity"
    assert "height     = infinity" in text_out
    # height 4: a walk that stopped reading dots at R_2 would miss it and
    # report ns = 13, tau = 10 as definite values
    code, json_out, _ = run_cli(capsys, "artin", "-p", "2", "--format", "json", HEIGHT_4_QUARTIC)
    assert code == 0
    doc = json.loads(json_out)
    jsonschema.validate(doc, ARTIN_SCHEMA)
    assert doc["height"] == {"value": 4, "cap": None}
    assert doc["ns"] == doc["tau"] == {"value": "infinity", "cap": None, "exact": True}


@pytest.mark.parametrize("entry", [SUPERSINGULAR_QUARTICS_F2[0], SUPERSINGULAR_QUARTICS_F3[9]],
                         ids=lambda e: e.name)
def test_artin_height_cap_of_a_k3_row_is_m(capsys, entry):
    # the height cap on K3 rings is m = 35, exhaustive by proof
    argv = ["artin", "-p", str(entry.p), "--format", "json", entry.equation]
    if entry.line:
        argv += ["--line", ",".join(map(str, entry.line))]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["caps_used"] == {"height": 35, "ns": 36}
    assert doc["height"] == {"value": "infinity", "cap": 35, "exact": True}
    assert doc["provenance"]["height"] == {"method": "krylov-matrix", "cap": 35, "exact": True}
    assert doc["ns"] == doc["tau"] == {"value": entry.expected_sigma, "cap": None}
    assert doc["sigma_note"] == "equals_tau"


def test_height_json(capsys):
    code, out, _ = run_cli(capsys, "height", "-p", "5", "--format", "json",
                           "x^4+y^4+z^4+w^4")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc["result"], VALUE_SCHEMA)
    assert doc["result"]["value"] == 1


def test_ns_command(capsys):
    code, out, _ = run_cli(capsys, "ns", "-p", "3", "x^4+y^4+z^4+w^4")
    assert code == 0 and "ns = 1" in out


def test_delsarte_family(capsys):
    code, out, _ = run_cli(capsys, "delsarte", "--family", "0", "-p", "7")
    assert code == 0 and "sigma    = 1" in out


def test_delsarte_matrix_json(capsys):
    code, out, _ = run_cli(
        capsys, "delsarte", "--matrix",
        "4,0,0,0,1,3,0,0,0,1,3,0,0,0,1,3", "-p", "2", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["det_abs"] == 108 and doc["e_A"] == 27
    assert doc["result"] == {"kind": "sigma", "value": 9}


def test_delsarte_inadmissible_prime_is_domain_error(capsys):
    code, _, err = run_cli(capsys, "delsarte", "--family", "0", "-p", "2")
    assert code == 2 and "e_A" in err


@pytest.mark.parametrize("argv, code, text", [
    # the bound is checked before any primality test or field table
    (("ns", "-p", "2305843009213693951", "--ext-degree", "2", "x^4"), 1, "at most 2^31 - 1"),
    # Miller-Rabin decides 2^61 - 1 at once; trial division ran for minutes
    (("delsarte", "--family", "1", "-p", "2305843009213693951"), 0, "height   = 2"),
    # p = MAX_PRIME: the default modulus is found without enumerating range(p)
    (("ns", "-p", "2147483647", "--ext-degree", "2", "x*y*z*w"), 0, "ns = infinity"),
])
def test_large_characteristic_answers_at_once(capsys, argv, code, text):
    start = time.perf_counter()
    got, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert got == code and text in out + err


def test_lift_find_infinite(capsys):
    code, out, _ = run_cli(capsys, "lift", "-p", "2",
                           "x^4 + xy^3 + yw^3 + z^3w", "--find-infinite")
    assert code == 0 and "ns_lift = infinity" in out


def test_lift_find_infinite_when_lambda_is_zero(capsys):
    entry = SUPERSINGULAR_QUARTICS_F3[0]  # the Fermat quartic over F_3: lambda = 0
    code, out, _ = run_cli(capsys, "lift", "-p", "3", entry.equation, "--find-infinite")
    assert (code, out) == (0, "lambda = 0: every lift has ns 1; no infinite lift exists\n")
    code, out, _ = run_cli(capsys, "lift", "-p", "3", "--format", "json", entry.equation,
                           "--find-infinite")
    doc = json.loads(out)
    assert code == 0 and doc["infinite_lift"] is None and doc["reason"] == "lambda_zero"


@pytest.mark.parametrize("ext_degree", [1, 2], ids=["Fp", "Fp2"])
@pytest.mark.parametrize("entry", catalog.all_entries(), ids=lambda e: e.name)
def test_lift_find_infinite_on_every_catalog_row(capsys, entry, ext_degree):
    # the printed c is infinite_lift's, and its index is infinity at cap m + 1;
    # lambda = 0 rows report that no infinite lift exists
    ring = RingConfig(field(entry.p, ext_degree), entry.weights)
    b = cartier.bundle(parse_poly(entry.equation, ring))
    argv = ["lift", "-p", str(entry.p), "--ext-degree", str(ext_degree),
            "--weights", ",".join(map(str, entry.weights)), entry.equation, "--find-infinite"]
    text = run_cli(capsys, *argv)
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    doc = json.loads(out)
    assert code == 0
    c = lifts.infinite_lift(b)
    if c is None:
        assert cartier.ns_index(b) == 1
        assert text == (0, "lambda = 0: every lift has ns 1; no infinite lift exists\n", "")
        assert (doc["infinite_lift"], doc["reason"]) == (None, "lambda_zero")
        return
    (v,) = lifts.ns_lift(b, [c])
    assert v == Infinite(cap=b.m + 1)
    cstr = ",".join(ring.field.format(x) for x in c)
    assert text == (0, f"c = {cstr}\nns_lift = {v}\n", "")
    assert (doc["infinite_lift"], doc["ns_lift"]) == (cstr, value_to_json(v))


@pytest.mark.parametrize("p, equation", [(2, "x^4 + xy^3 + yw^3 + z^3w"),
                                         (3, SUPERSINGULAR_QUARTICS_F3[1].equation)])
def test_lift_c_reports_ns_lift(capsys, p, equation):
    ring = RingConfig(field(p), (1, 1, 1, 1))
    b = cartier.bundle(parse_poly(equation, ring))
    for seed in range(3):
        c = scan.sample(seed, 0, ring)
        want = lift_index_reference(b, c)
        argv = ["lift", "-p", str(p), equation, "--c", ",".join(map(str, c))]
        code, out, _ = run_cli(capsys, *argv)
        assert (code, out) == (0, f"ns_lift = {want}\n")
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0 and json.loads(out)["ns_lift"] == value_to_json(want)


@pytest.fixture
def counted_bundles(monkeypatch, step_counting):
    """Make cartier.bundle return bundles on StepCountingOps; the list collects them."""
    built = []

    def counting_bundle(f):
        built.append(step_counting(original(f)))
        return built[-1]

    original = cartier.bundle
    monkeypatch.setattr(cartier, "bundle", counting_bundle)
    return built


def test_lift_find_infinite_walks_once(capsys, counted_bundles):
    # the base walk to ns 9 (8 steps), then ns_lift's check of c to R_{c,9}
    # (8 steps) on T's step matrix, the only one built
    code, out, _ = run_cli(capsys, "lift", "-p", "2", SS_QUARTIC, "--find-infinite")
    assert code == 0 and "ns_lift = infinity" in out
    (b,) = counted_bundles
    assert (b.ops.calls, b.ops.matrix_calls) == (16, 1)


def test_lift_random_builds_one_step_matrix(capsys, counted_bundles):
    # the base walk to ns 9 (8 steps), then all 10 draws at once to R_{c,9}
    # (8 steps), on T's step matrix
    code, _, _ = run_cli(capsys, "lift", "-p", "2", SS_QUARTIC, "--random", "10")
    assert code == 0
    (b,) = counted_bundles
    assert b.ops.matrix_calls == 1
    assert b.ops.calls == 8 + 8


@pytest.mark.parametrize("ext_degree", [1, 2], ids=["Fp", "Fp2"])
@pytest.mark.parametrize("entry", catalog.all_entries(), ids=lambda e: e.name)
def test_lift_random_matches_the_per_draw_walk(capsys, entry, ext_degree):
    # the batched walk to ns(f) gives the distribution of the draws each walked
    # alone on its step matrix T_c to R_{c,m+1}
    ring = RingConfig(field(entry.p, ext_degree), entry.weights)
    b = cartier.bundle(parse_poly(entry.equation, ring))
    dist = {}
    for i in range(50):
        v = lift_index_reference(b, scan.sample(3, i, ring))
        key = "infinity" if is_infinite(v) else str(v)
        dist[key] = dist.get(key, 0) + 1
    argv = ["lift", "-p", str(entry.p), "--ext-degree", str(ext_degree),
            "--weights", ",".join(map(str, entry.weights)), entry.equation,
            "--random", "50", "--seed", "3"]
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    doc = json.loads(out)
    assert code == 0 and (doc["distribution"], doc["draws"], doc["seed"]) == (dist, 50, 3)
    code, out, _ = run_cli(capsys, *argv)
    assert (code, out) == (0, "".join([f"ns(f) = {cartier.ns_index(b)}\n"] + [
        f"ns_lift {k}: {n} draws\n" for k, n in sorted(dist.items())]))


@pytest.mark.parametrize("seed", [-1, -5, 2**64, 2**64 + 1])
def test_seed_outside_64_bits_is_rejected(capsys, tmp_path, counted_bundles, seed):
    # sample keys by the seed mod 2^64, so such a seed would draw what its
    # residue draws while the JSON reported the seed as given
    lift = ("lift", "-p", "2", "--format", "json", SS_QUARTIC, "--random", "3")
    code, out, err = run_cli(capsys, *lift, "--seed", str(seed))
    assert (code, out, counted_bundles) == (1, "", [])
    assert f"seed must lie in [0, 2^64), got {seed}" in err
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "scan", "-p", "2", "--count", "3", "--seed", str(seed),
                             "--out", str(out_dir))
    assert (code, out, out_dir.exists()) == (1, "", False)
    assert f"seed must lie in [0, 2^64), got {seed}" in err
    # the ends of the range are kept and reported as given
    for kept in (0, 2**64 - 1):
        code, out, _ = run_cli(capsys, *lift, "--seed", str(kept))
        assert code == 0 and json.loads(out)["seed"] == kept


def test_lift_random_distribution(capsys):
    code, out, _ = run_cli(capsys, "lift", "-p", "2", "--format", "json",
                           "x^4 + xy^3 + yw^3 + z^3w", "--random", "20", "--seed", "4")
    assert code == 0
    doc = json.loads(out)
    finite = {k for k in doc["distribution"] if k != "infinity"}
    assert finite <= {"9"}


def test_omitted_seed_and_weights_read_as_their_defaults(capsys):
    # --seed and delsarte's --weights default to None so that a mode which
    # does not read them can reject them; omitted, they read as 0 and 1,1,1,1
    lift = ("lift", "-p", "2", "--format", "json", SS_QUARTIC, "--random", "5")
    implicit, explicit = run_cli(capsys, *lift), run_cli(capsys, *lift, "--seed", "0")
    assert implicit == explicit and json.loads(implicit[1])["seed"] == 0
    code, out, _ = run_cli(capsys, "scan", "-p", "2", "--mask", "0,1", "--format", "json")
    assert code == 0 and json.loads(out)["job"]["seed"] == 0
    matrix = ("delsarte", "--matrix", "4,0,0,0,1,3,0,0,0,1,3,0,0,0,1,3", "-p", "2")
    assert run_cli(capsys, *matrix) == run_cli(capsys, *matrix, "--weights", "1,1,1,1")


def test_scan_json(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "scan", "-p", "2", "--mode", "histogram", "--count", "10",
        "--seed", "2", "--format", "json", "--out", str(tmp_path),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == 10
    assert (tmp_path / "scan.csv").exists()


def test_scan_text_report(capsys):
    code, out, _ = run_cli(capsys, "scan", "-p", "3", "--mode", "hunt", "--sigma", "1",
                           "--mask", "0,20,30,34", "--smooth-filter", "on")
    assert code == 0
    assert out == (
        "samples: 81\n"
        "  height=infinity ns=1: 80\n"
        "  height=zero_polynomial ns=-: 1\n"
        "hits: 16\n"
        f"note: {scan.SMOOTHNESS_CAVEAT}\n"
    )
    code, out, _ = run_cli(capsys, "scan", "-p", "2", "--mode", "assert-bound", "--sigma", "10",
                           "--mask", "0,10,29,31")
    assert code == 0
    assert out == (
        "samples: 16\n"
        "  height=infinity ns=2: 11\n"
        "  height=infinity ns=3: 3\n"
        "  height=infinity ns=9: 1\n"
        "  height=zero_polynomial ns=-: 1\n"
        "violations: 0  ambiguous: 1\n"
        f"note: {scan.SMOOTHNESS_CAVEAT}\n"
    )


@pytest.mark.parametrize("out", ["afile", "afile/sub"])
def test_scan_out_that_is_no_directory_fails_before_sampling(capsys, monkeypatch, tmp_path, out):
    (tmp_path / "afile").write_text("")
    sampled = []
    monkeypatch.setattr(scan, "_evaluate_index", lambda job, i: sampled.append(i))
    code, stdout, err = run_cli(capsys, "scan", "-p", "2", "--count", "2",
                                "--out", str(tmp_path / out))
    assert (code, stdout, sampled) == (1, "", [])
    assert err.startswith(f"usage error: cannot write scan artifacts to {str(tmp_path / out)!r}: ")
    assert err.count("\n") == 1


def test_scan_out_is_created_before_sampling(capsys, monkeypatch, tmp_path):
    out = tmp_path / "new" / "dir"
    evaluate = scan._evaluate_index

    def checked(job, i):
        assert out.is_dir()
        return evaluate(job, i)

    monkeypatch.setattr(scan, "_evaluate_index", checked)
    code, _, _ = run_cli(capsys, "scan", "-p", "2", "--count", "2", "--out", str(out))
    assert code == 0 and (out / "scan.csv").exists() and (out / "scan.json").exists()


def test_check_smooth(capsys):
    code, out, _ = run_cli(capsys, "check-smooth", "-p", "3", "x^4")
    assert code == 0 and "singular point" in out
    code, out, _ = run_cli(capsys, "check-smooth", "-p", "3", "x^4+y^4+z^4+w^4")
    assert code == 0 and "no witness" in out and "NOT a smoothness proof" in out


def test_extension_field_flags(capsys):
    code, out, _ = run_cli(
        capsys, "height", "-p", "2", "--ext-degree", "2",
        "x^4 + (t)*x*y^3 + y*w^3 + z^3*w",
    )
    assert code == 0 and out.startswith("height = ")
    # explicit modulus: t^2 + t + 1 as constant-first coefficients
    code2, out2, _ = run_cli(
        capsys, "height", "-p", "2", "--ext-degree", "2", "--modulus", "1,1,1",
        "x^4 + (t)*x*y^3 + y*w^3 + z^3*w",
    )
    assert code2 == 0 and out2 == out


def test_exit_code_usage_error(capsys):
    code, _, err = run_cli(capsys, "height", "-p", "3", "x^4 + q")
    assert code == 1 and "usage error" in err
    code, _, err = run_cli(capsys, "height", "-p", "4", "x^4")
    assert code == 1


def test_a_superscript_exponent_is_a_usage_error_without_a_traceback():
    # str.isdigit accepts '²', which int() rejects; the parser reads decimal digits only
    src = str(Path(qfsplit.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "qfsplit.cli", "artin", "-p", "3", "x^²+y^4+z^4+w^4"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr == "usage error: expected an unsigned integer (at byte 2)\n"


def test_exit_code_domain_error(capsys):
    code, _, err = run_cli(capsys, "delsarte", "--matrix",
                           "4,0,0,0,4,0,0,0,0,0,4,0,0,0,0,4", "-p", "3")
    assert code == 2


def test_exit_code_resource_error(capsys):
    # corner oracle cap: n_max > 4 surfaces as a resource error through lift of
    # coupling machinery is internal; use a giant literal exponent instead
    code, _, err = run_cli(capsys, "height", "-p", "2", "x^4294967297")
    assert code == 3 and "resource error" in err


def test_tables_golden_regression(capsys):
    code, out, _ = run_cli(capsys, "tables", "--which", "f3")
    assert code == 0
    assert out.count("PASS") == 10 and "FAIL" not in out


def test_tables_quintic_and_delsarte(capsys):
    code, out, _ = run_cli(capsys, "tables", "--which", "quintic")
    assert code == 0 and "computed 58" in out
    code, out, _ = run_cli(capsys, "tables", "--which", "rdp", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["failures"] == 0
    # 20 e_A rows, then every admissible family at p = 2, 3, 5, 7
    code, out, _ = run_cli(capsys, "tables", "--which", "delsarte", "--format", "json")
    doc = json.loads(out)
    assert code == 0 and len(doc["rows"]) == 61 and doc["failures"] == 0


SS_QUARTIC = "x^4 + xy^3 + yw^3 + z^3w"  # supersingular over F_2, ns 9
FERMAT = "4,0,0,0,0,4,0,0,0,0,4,0,0,0,0,4"  # the exponent matrix of x^4 + y^4 + z^4 + w^4

# rejected command lines and the usage error each must print: options the
# subcommand does not read, then option values out of range
REJECTED = {
    ("tables", "-p", "5"): "unrecognized arguments",
    ("scan", "--cap", "3"): "unrecognized arguments",
    ("height", "--seed", "1", "x^4"): "unrecognized arguments",
    ("check-smooth", "--cap", "2", "x^4"): "unrecognized arguments",
    ("delsarte", "--family", "0", "-p", "7", "--ext-degree", "2"): "unrecognized arguments",
    # every walk runs to its proven bound; no subcommand takes a cap
    ("height", "--cap", "3", SS_QUARTIC): "unrecognized arguments",
    ("ns", "--cap", "3", SS_QUARTIC): "unrecognized arguments",
    ("artin", "--cap", "3", SS_QUARTIC): "unrecognized arguments",
    ("lift", "--cap", "3", "--c", ",".join(["0"] * 35), SS_QUARTIC): "unrecognized arguments",
    ("lift", "--random", "-3", SS_QUARTIC): "positive number of draws",
    ("artin", "--line", "0,9", SS_QUARTIC): "two distinct variable indices",
    ("artin", "--line", "0", SS_QUARTIC): "two distinct variable indices",
    ("artin", "--line", "0,3,1", SS_QUARTIC): "two distinct variable indices",
    # x^4 + xy^3 + xz^3 + xw^3 lies in (x), but i = j names a plane, not a line
    ("artin", "--line", "0,0", "x^4 + x*y^3 + x*z^3 + x*w^3"): "two distinct variable indices",
    ("lift", "--random", "0", SS_QUARTIC): "positive number of draws",
    ("height", "--ext-degree", "0", "x^4"): "extension degree must be positive, got 0",
    # an empty --c is a malformed shift, not a missing option
    ("lift", "--c", "", "--random", "2", SS_QUARTIC): "exactly one of",
    ("lift", "--c", "", SS_QUARTIC): "35 comma-separated field elements",
    # a bad part's offset counts from the start of --c: part 35 begins at byte 68
    ("lift", "-p", "2", "--c", ",".join(["0"] * 34 + ["t"]), SS_QUARTIC):
        "extension generator t used over a prime field (at byte 68)",
    # a two-byte digit before it moves part 35 to byte 69
    ("lift", "-p", "2", "--c", ",".join(["٠"] + ["0"] * 33 + ["t"]), SS_QUARTIC):
        "extension generator t used over a prime field (at byte 69)",
    ("delsarte", "--matrix", ",".join(["1"] * 15), "-p", "2"): "16 comma-separated entries",
    # the modulus is t + 1: two coefficients, one short of degree 2
    ("height", "-p", "3", "--ext-degree", "2", "--modulus", "1,1", "x^4"):
        "monic of degree 2 (3 coefficients, constant first), got 1,1",
    # 2 masked coefficients over F_2 span 4 forms; a repeated index would sample 0 and x^4 twice
    ("scan", "-p", "2", "--mask", "0,0"): "mask indices must be distinct",
    # the bound is written to the artifacts even with the filter off
    ("scan", "-p", "2", "--count", "5", "--ext-bound", "7"): "extension bound must be 1, 2 or 3",
    # a mask enumerates its whole space, so an explicit count (even the default) would be dropped
    ("scan", "-p", "2", "--count", "7", "--mask", "0"): "--count and --mask exclude each other",
    ("scan", "-p", "2", "--count", "100", "--mask", "0"): "--count and --mask exclude each other",
    # a histogram scan has no target or bound
    ("scan", "-p", "2", "--count", "5", "--sigma", "3"): "--sigma is read only by",
    # a family fixes its weights; only --matrix reads --weights
    ("delsarte", "--family", "0", "-p", "7", "--weights", "1,1,1,3"):
        "--weights is read only with --matrix",
    # only --random draws, so a seed beside --c or --find-infinite would be dropped
    ("lift", "--find-infinite", "--seed", "5", SS_QUARTIC): "--seed is read only by --random",
    ("lift", "--c", ",".join(["0"] * 35), "--seed", "9", SS_QUARTIC):
        "--seed is read only by --random",
    # a mask enumerates its whole space and draws nothing
    ("scan", "-p", "2", "--mask", "0,1", "--seed", "9"): "--seed and --mask exclude each other",
    # an empty value is malformed, not absent
    ("artin", "--line", "", SS_QUARTIC): "expected comma-separated integers, got ''",
    ("artin", "--ext-degree", "2", "--modulus", "", SS_QUARTIC):
        "expected comma-separated integers, got ''",
    ("scan", "-p", "2", "--mask", "", "--count", "3"): "--count and --mask exclude each other",
    ("scan", "-p", "2", "--mask", ""): "expected comma-separated integers, got ''",
    ("scan", "-p", "2", "--count", "3", "--out", ""): "--out needs a directory name, got ''",
    ("scan", "--workers", "0"): "worker count must be positive",
    ("scan", "--mask", "99"): "mask indices out of basis range",
    # 7^7 forms at p = 7
    ("scan", "-p", "7", "--mask", "0,1,2,3,4,5,6"): "exhaustive mask space too large",
    ("scan", "--mode", "assert-bound"): "assert_bound mode needs a minimum sigma",
    ("scan", "--ext-degree", "2", "--smooth-filter", "on"): "the smoothness filter supports prime base fields only",
    ("delsarte", "-p", "7"): "exactly one of --matrix or --family",
    ("delsarte", "-p", "7", "--family", "0", "--matrix", FERMAT): "exactly one of --matrix or --family",
    ("delsarte", "-p", "7", "--family", "20"): "--family must be in [0, 19]",
    ("delsarte", "-p", "7", "--matrix", FERMAT[:-1] + "3"): "row 3 violates the weighted degree condition (= 4)",
    ("delsarte", "-p", "7", "--matrix", "5,-1" + FERMAT[3:]): "exponent matrix entries must be nonnegative",
    ("delsarte", "-p", "7", "--matrix", FERMAT, "--weights", "1,1,1,2"):
        "supported weight systems are (1,1,1,1) and (1,1,1,3)",
    ("height", "--weights", "4", "x^4"): "number of variables must be in [2, 8], got 1",
    ("height", "--weights", "0,1,1,1", "x^4"): "all weights must be positive, got (0, 1, 1, 1)",
}


@pytest.mark.parametrize("argv", list(REJECTED))
def test_options_a_subcommand_does_not_read_are_rejected(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1 and REJECTED[argv] in err


@pytest.mark.parametrize("argv", [argv for argv in REJECTED if argv[0] == "lift"])
def test_rejected_lift_builds_no_bundle(capsys, counted_bundles, argv):
    code, _, err = run_cli(capsys, *argv)
    assert (code, counted_bundles) == (1, []) and REJECTED[argv] in err


def test_scan_empty_out_writes_nothing(capsys, monkeypatch, tmp_path):
    # read for truth, an empty --out would run the scan and drop its artifacts
    monkeypatch.chdir(tmp_path)
    sampled = []
    monkeypatch.setattr(scan, "_evaluate_index", lambda job, i: sampled.append(i))
    code, out, _ = run_cli(capsys, "scan", "-p", "2", "--count", "3", "--out", "")
    assert (code, out, sampled, list(tmp_path.iterdir())) == (1, "", [], [])



def test_ns_of_a_monomial_at_a_large_prime_is_immediate():
    # delta of a monomial is zero; building its p - 1 carries first took O(p),
    # about an hour here, so run the command in a child process with a timeout
    src = str(Path(qfsplit.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "qfsplit.cli", "ns", "-p", "2147483647", "x*y*z*w"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0 and done.stdout == "ns = infinity\n"


def test_parser_is_built_once():
    from qfsplit.cli import build_parser

    assert build_parser() is build_parser()

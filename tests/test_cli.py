"""End-to-end command-line behavior: parsing, reports, determinism, exit codes."""

import contextlib
import errno
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import xprod

from fixtures import (
    F2,
    Q,
    corpus,
    doc_algebra as fmt_alg,
    doc_map as fmt_map,
    dual_numbers,
    search_doc,
    twosided_doc as shared_twosided_doc,
)
from xprod import PrimeField, search_fp
from xprod.cli import canonical_json, main, parse_document
from xprod.twosided import MAP_NAMES

CORPUS = dict(corpus())


def twosided_doc(data, field):
    return shared_twosided_doc(data)


def write_doc(tmp_path, obj, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def run(args, tmp_path, capsys=None):
    out = tmp_path / "report.json"
    rc = main(args + ["--out", str(out)])
    return rc, json.loads(out.read_text(encoding="utf-8")), out.read_bytes()


MINIMAL_K = {"dim": 1, "unit": ["1"], "mul": [[["1"]]]}
MINIMAL = {"field": {"kind": "rationals"}, "algebras": {"k": MINIMAL_K}}


def test_minimal_document_parses():
    doc = parse_document(json.dumps(MINIMAL))
    assert doc.algebras["k"].dim == 1


def test_scalar_normalized_on_echo(tmp_path):
    # e0 * e0 = -1/2 e0 written with a signed denominator, unit -2: unital since
    # (-2) * (-1/2) = 1; its twisted tensor product with k, R the identity,
    # builds the same algebra, echoed normalized in the report
    obj = json.loads(json.dumps(MINIMAL))
    obj["algebras"]["k"]["mul"] = [[["3/-6"]]]
    obj["algebras"]["k"]["unit"] = ["2/-1"]
    obj["algebras"]["one"] = MINIMAL["algebras"]["k"]
    obj["maps"] = {"R": {"domain": ["one", "k"], "codomain": ["k", "one"], "matrix": [["1"]]}}
    obj["datasets"] = {"t": {"type": "ttp", "A": "k", "B": "one", "R": "R"}}
    rc, rep, raw = run(["build", "--in", write_doc(tmp_path, obj)], tmp_path)
    assert rc == 0
    assert b'"-1/2"' in raw
    assert b'"-2"' in raw
    assert rep["outputs"]["algebra"] == {"dim": 1, "unit": ["-2"], "mul": [[["-1/2"]]]}


def test_unresolved_reference_names_the_culprit():
    obj = json.loads(json.dumps(twosided_doc(CORPUS["q-dual-graded-super"], Q)))
    obj["datasets"]["d"]["R1"] = "R9"
    with pytest.raises(Exception) as exc:
        parse_document(json.dumps(obj))
    assert "R9" in str(exc.value)


def test_non_prime_modulus_rejected(tmp_path):
    obj = {"field": {"kind": "prime", "p": 6}}
    rc, rep, _ = run(["check", "--in", write_doc(tmp_path, obj)], tmp_path)
    assert rc == 2
    assert rep["status"] == "error"
    assert "prime" in rep["error"]["message"]


@pytest.mark.parametrize("field_obj, bad", [
    ({"kind": "prime", "p": 5}, 2.7),
    ({"kind": "rationals"}, 0.1),
    ({"kind": "prime", "p": 5}, True),
    ({"kind": "rationals"}, False),
])
def test_float_or_boolean_scalar_is_input_error(tmp_path, field_obj, bad):
    # JSON floats and booleans are not scalars; they must not be truncated
    # to an integer or read as 0/1
    obj = json.loads(json.dumps(MINIMAL))
    obj["field"] = field_obj
    obj["spaces"] = {"V": {"dim": 2, "unit": ["1", bad]}}
    rc, rep, _ = run(["check", "--in", write_doc(tmp_path, obj)], tmp_path)
    assert rc == 2
    assert rep["status"] == "error"
    assert rep["error"]["type"] == "DocumentError"
    assert rep["error"]["message"].startswith("$.spaces.V.unit[1]: bad scalar")


@pytest.mark.parametrize("section, path", [
    ("dim", "$.algebras.k.dim"),
    ("p", "$.field.p"),
    ("budget", "$.datasets.s.budget"),
    ("seed", "$.datasets.s.seed"),
    ("cap", "$.datasets.s.cap"),
])
def test_boolean_count_or_modulus_is_input_error(tmp_path, section, path):
    # a JSON boolean is an int to Python; true must not be read as 1
    obj = search_doc()
    if section == "dim":
        obj["algebras"]["k"] = {"dim": True, "unit": ["1"], "mul": [[["1"]]]}
    elif section == "p":
        obj["field"]["p"] = True
    else:
        obj["datasets"]["s"][section] = True
    rc, rep, _ = run(["search", "--in", write_doc(tmp_path, obj)], tmp_path)
    assert rc == 2
    assert rep["status"] == "error"
    assert rep["error"]["type"] == "DocumentError"
    assert rep["error"]["message"].startswith(path + ":")


def test_bad_json_is_input_error(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text("{ not json", encoding="utf-8")
    rc, rep, _ = run(["check", "--in", str(path)], tmp_path)
    assert rc == 2


def test_input_that_is_not_utf8_is_input_error(tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(b'{"field": "\xff"}')
    rc, rep, _ = run(["check", "--in", str(path)], tmp_path)
    assert rc == 2
    assert rep["status"] == "error"
    assert rep["error"]["type"] == "DocumentError"
    assert rep["error"]["message"].startswith(f"{path}: cannot read input: ")
    assert "can't decode byte 0xff in position 11" in rep["error"]["message"]


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python decodes integers of any length")
def test_integer_past_the_digit_limit_is_input_error(tmp_path):
    # json.loads raises a plain ValueError, not a JSONDecodeError, for this literal
    path = tmp_path / "doc.json"
    path.write_text('{"field": {"kind": "prime", "p": 1' + "0" * 4999 + "}}",
                    encoding="utf-8")
    rc, rep, raw = run(["check", "--in", str(path)], tmp_path)
    assert rc == 2
    assert rep["status"] == "error"
    assert rep["error"] == {
        "type": "DocumentError",
        "message": f"$: an integer has more than {sys.get_int_max_str_digits()} digits"}
    assert len(raw) < 300


def test_deeply_nested_json_is_input_error(tmp_path, capsys):
    # json.loads raises RecursionError at this depth; it must not escape
    path = tmp_path / "doc.json"
    path.write_text('{"field": ' + "[" * 100_000 + "]" * 100_000 + "}", encoding="utf-8")
    rc, rep, raw = run(["check", "--in", str(path)], tmp_path)
    assert rc == 2
    assert rep["status"] == "error"
    assert rep["error"] == {"type": "DocumentError",
                            "message": "$: document is nested too deeply"}
    assert raw.decode("utf-8") == json.dumps(rep, sort_keys=True, indent=2,
                                             ensure_ascii=False) + "\n"
    assert capsys.readouterr().err == ""


def test_modulus_of_2_pow_61_minus_1_is_input_error(tmp_path):
    # a prime far above 2^31: refused by the bound, without trial division
    obj = {"field": {"kind": "prime", "p": 2**61 - 1}}
    rc, rep, _ = run(["check", "--in", write_doc(tmp_path, obj)], tmp_path)
    assert rc == 2
    assert rep["status"] == "error"
    assert rep["error"]["message"] == "$.field.p: modulus 2305843009213693951 exceeds 2^31"


BAD_SCALAR = "$.spaces.V.unit[0]: bad scalar "
TOO_DEEP = "$: document is nested too deeply"
REFUSED_SCALARS = {"1MB-string": ('"' + "9" * 500_000 + "x" + "9" * 500_000 + '"', BAD_SCALAR),
                   "100k-wide-list": ("[" + ", ".join(['"1"'] * 100_000) + "]", BAD_SCALAR),
                   "100-brackets-in-a-string": ('"' + "[" * 100 + '"', BAD_SCALAR),
                   "980-deep-list": ("[" * 980 + "]" * 980, TOO_DEEP)}


def scalar_doc(tmp_path, scalar):
    path = tmp_path / "doc.json"
    path.write_text('{"field": {"kind": "rationals"}, "spaces": {"V": {"dim": 1, "unit": ['
                    + scalar + "]}}}", encoding="utf-8")
    return path


def run_child(path):
    src = str(Path(xprod.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-m", "xprod", "check", "--in", str(path)],
                          capture_output=True, env=dict(os.environ, PYTHONPATH=src))


@pytest.mark.parametrize("kind", sorted(REFUSED_SCALARS))
def test_refused_scalar_report_is_bounded(tmp_path, kind):
    # the report names the path and an excerpt of the value, or refuses the
    # document's nesting before decoding it; brackets inside a string are text
    scalar, message = REFUSED_SCALARS[kind]
    proc = run_child(scalar_doc(tmp_path, scalar))
    assert proc.returncode == 2
    assert proc.stderr == b""
    assert len(proc.stdout) < 4096
    rep = json.loads(proc.stdout)
    assert rep["error"]["message"].startswith(message)


def test_nesting_verdict_does_not_depend_on_the_call_depth(tmp_path):
    # json.loads alone would decode this list from a shallow stack and give
    # up 60 frames deeper; the depth limit decides before decoding
    path = scalar_doc(tmp_path, "[" * 950 + "]" * 950)
    out = tmp_path / "report.json"

    def at_depth(extra):
        if extra:
            return at_depth(extra - 1)
        assert main(["check", "--in", str(path), "--out", str(out)]) == 2
        return out.read_bytes()

    proc = run_child(path)
    assert proc.returncode == 2
    reports = {at_depth(0), at_depth(60), proc.stdout}
    assert len(reports) == 1
    assert json.loads(proc.stdout)["error"]["message"] == TOO_DEEP


def test_short_refused_scalar_message_unchanged(tmp_path):
    obj = {"field": {"kind": "rationals"}, "spaces": {"V": {"dim": 1, "unit": ["1/0"]}}}
    rc, rep, _ = run(["check", "--in", write_doc(tmp_path, obj)], tmp_path)
    assert rc == 2
    assert rep["error"]["message"] == "$.spaces.V.unit[0]: bad scalar '1/0': Fraction(1, 0)"


@pytest.mark.parametrize("scalar, message", [
    # refused from the text: 10**10000000 is never built
    ("1e10000000", ".unit[0]: bad scalar '1e10000000': exponent form scales by "
                   "10^10000000, more than 4300 digits"),
    ("1e-10000000", ".unit[0]: bad scalar '1e-10000000': exponent form scales by "
                    "10^10000000, more than 4300 digits"),
    # a zero mantissa is 0 whatever its exponent, which a unit may not be
    ("0E600000", ": distinguished element must be nonzero"),
], ids=["1e10000000", "1e-10000000", "0E600000"])
def test_exponent_form_scalar_costs_no_power_of_ten(tmp_path, scalar, message):
    obj = {"field": {"kind": "rationals"}, "spaces": {"V": {"dim": 1, "unit": [scalar]}}}
    doc = write_doc(tmp_path, obj)
    start = time.process_time()
    rc, rep, _ = run(["check", "--in", doc], tmp_path)
    assert time.process_time() - start < 0.1
    assert rc == 2
    assert rep["error"]["message"] == "$.spaces.V" + message


def one_by_one(dom, cod, entry="1"):
    return {"domain": dom, "codomain": cod, "matrix": [[entry]]}


# k with e0 e0 = 10^-4299 e0 and unit 10^4299, each 4,300 digits or fewer
HUGE_UNIT = {"dim": 1, "unit": ["1e4299"], "mul": [[["1e-4299"]]]}
# the unit of K (x) K is 10^8598
HUGE_TTP = {"field": {"kind": "rationals"}, "algebras": {"k": HUGE_UNIT},
            "maps": {"R": one_by_one(["k", "k"], ["k", "k"])},
            "datasets": {"t": {"type": "ttp", "A": "k", "B": "k", "R": "R"}}}
# f_A(1_A) = 10^4299 · 10^4299 is not 1_X: premise fA fails with that value
# in its witness, which the error object would hold
HUGE_PREMISE = {
    "field": {"kind": "rationals"}, "algebras": {"a": HUGE_UNIT, "k": MINIMAL_K},
    "maps": {"R1": one_by_one(["k", "a"], ["a", "k"]), "R2": one_by_one(["k", "k"], ["k", "k"]),
             "R3": one_by_one(["k", "a"], ["a", "k"]),
             "E": one_by_one(["k", "k"], ["a", "k", "k"], "1e4299"),
             "fA": one_by_one(["a"], ["k"], "1e4299"), "fV": one_by_one(["k"], ["k"]),
             "fC": one_by_one(["k"], ["k"])},
    "datasets": {"d": {"type": "twosided", "A": "a", "V": "k", "C": "k", "R1": "R1",
                       "R2": "R2", "R3": "R3", "E": "E"},
                 "u": {"type": "universal", "data": "d", "X": "k", "fA": "fA", "fV": "fV",
                       "fC": "fC"}}}


TOO_LONG = "a report scalar needs more than 4300 digits, the most Python writes"


@pytest.mark.parametrize("argv, obj, message", [
    (["build"], HUGE_TTP, TOO_LONG),
    (["universal", "--dataset", "u"], HUGE_PREMISE,
     f"premise fA fails at (); its witness cannot be written: {TOO_LONG}"),
], ids=["ttp-unit", "premise-witness"])
def test_report_scalar_too_long_to_write_is_an_input_error(tmp_path, argv, obj, message):
    # refused from its size, before str() would raise Python's int-string
    # ValueError: in the report's outputs for the first document, and in the
    # error object, written by main's exception handler, for the second,
    # whose message still names the law that failed
    doc = write_doc(tmp_path, obj)
    start = time.process_time()
    rc, rep, _ = run(argv + ["--in", doc], tmp_path)
    assert time.process_time() - start < 0.1
    assert rc == 2
    assert rep["status"] == "error" and rep["outputs"] == {}
    assert rep["error"] == {"type": "PreconditionFail", "message": message}


@pytest.mark.parametrize("exc_type", [RuntimeError, ValueError], ids=lambda t: t.__name__)
def test_unexpected_exception_is_internal_error(tmp_path, capsys, monkeypatch, exc_type):
    # a ValueError of bad input becomes a DocumentError while parsing, so one
    # that escapes a command is a bug like any other
    import xprod.cli

    def broken(data):
        raise exc_type("boom")

    monkeypatch.setattr(xprod.cli, "check_twosided", broken)
    doc = write_doc(tmp_path, twosided_doc(CORPUS["q-dual-flip-trivial"], Q))
    capsys.readouterr()
    rc = main(["check", "--in", doc])
    captured = capsys.readouterr()
    rep = json.loads(captured.out)
    assert rc == 3
    assert rep["status"] == "internal-error"
    assert rep["error"] == {"type": exc_type.__name__, "message": "boom"}
    assert captured.out == json.dumps(rep, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    assert captured.err == ""


def test_check_graded_fixture_passes(tmp_path):
    doc = write_doc(tmp_path, twosided_doc(CORPUS["q-dual-graded-super"], Q))
    rc, rep, _ = run(["check", "--in", doc], tmp_path)
    assert rc == 0
    assert rep["status"] == "pass"
    assert len(rep["conditions"]) == 12
    assert all(c["passed"] for c in rep["conditions"])


def test_build_then_extract_roundtrip(tmp_path):
    doc = write_doc(tmp_path, twosided_doc(CORPUS["q-dual-graded-super"], Q))
    rc, rep, _ = run(["build", "--in", doc], tmp_path)
    assert rc == 0
    assert rep["outputs"]["algebra"]["dim"] == 8
    rc, rep, _ = run(["extract", "--in", doc], tmp_path)
    assert rc == 0
    assert {c["name"] for c in rep["conditions"]} == {
        "roundtrip-R1", "roundtrip-R2", "roundtrip-R3", "roundtrip-E"}
    assert all(c["passed"] for c in rep["conditions"])


def perturbed_doc():
    obj = json.loads(json.dumps(twosided_doc(CORPUS["q-dual-graded-super"], Q)))
    # E(x (x) x) = x (x) 1_V (x) 1_C: column 3 hits row flat(1,0,0) = 4
    matrix = obj["maps"]["E"]["matrix"]
    for row in matrix:
        row[3] = "0"
    matrix[4][3] = "1"
    return obj


def test_check_perturbed_e_fails_equiv6_exit_1(tmp_path):
    doc = write_doc(tmp_path, perturbed_doc())
    rc, rep, _ = run(["check", "--in", doc], tmp_path)
    assert rc == 1
    failed = [c for c in rep["conditions"] if not c["passed"]]
    assert "equiv6" in {c["name"] for c in failed}
    equiv6 = next(c for c in rep["conditions"] if c["name"] == "equiv6")
    assert equiv6["witness"]["indices"] == [1, 1, 1]
    assert equiv6["witness"]["left"] != equiv6["witness"]["right"]


def test_condition_flag_restricts_report(tmp_path):
    doc = write_doc(tmp_path, perturbed_doc())
    rc, rep, _ = run(["check", "--in", doc, "--condition", "equiv3"], tmp_path)
    assert rc == 0  # equiv3 itself passes in this mutant
    assert [c["name"] for c in rep["conditions"]] == ["equiv3"]
    rc, rep, _ = run(["check", "--in", doc, "--condition", "equiv6"], tmp_path)
    assert rc == 1
    rc, rep, _ = run(["check", "--in", doc, "--condition", "no-such"], tmp_path)
    assert rc == 2


def test_force_build_surfaces_unit_failure(tmp_path):
    obj = json.loads(json.dumps(twosided_doc(CORPUS["q-dual-graded-super"], Q)))
    # corrupt a unit column of E: E(1_V (x) x) loses its 1_A (x) x (x) 1_C term
    obj["maps"]["E"]["matrix"][2][1] = "0"
    doc = write_doc(tmp_path, obj)
    rc, rep, _ = run(["build", "--in", doc], tmp_path)
    assert rc == 1  # without force the axiom failure wins
    rc, rep, _ = run(["build", "--in", doc, "--force"], tmp_path)
    assert rc == 1
    assert rep["outputs"]["failure"] in ("not-associative", "not-unital")
    assert rep["conditions"][0]["witness"] is not None


def test_agree_and_transport(tmp_path):
    data = CORPUS["q-dual-flip-trivial"]
    doc = write_doc(tmp_path, twosided_doc(data, Q))
    rc, rep, _ = run(["agree", "--in", doc], tmp_path)
    assert rc == 0
    assert {c["name"] for c in rep["conditions"]} == {
        "brzezinski-presentation", "mirror-presentation"}
    rc, rep, _ = run(["transport", "--in", doc], tmp_path)
    assert rc == 0
    assert rep["outputs"] == {"remark1": "ok", "remark2": "ok"}
    # graded fixture: neither R1 nor R3 is the flip
    doc2 = write_doc(tmp_path, twosided_doc(CORPUS["q-dual-graded-super"], Q),
                     "doc2.json")
    rc, rep, _ = run(["transport", "--in", doc2], tmp_path)
    assert rc == 2


@pytest.mark.parametrize("fixture, outputs, names", [
    ("graded_r2_r3_fixture", {"remark1": "ok", "remark2": "not-applicable"},
     ["remark1:mirror:mirtwunit", "remark1:mirror:mircocunit", "remark1:mirror:mirtwmap",
      "remark1:mirror:mir1", "remark1:mirror:mir2", "remark1:transport-equality"]),
    ("graded_r1_r2_fixture", {"remark1": "not-applicable", "remark2": "ok"},
     ["remark2:transport-equality", "remark2:lr-differs-from-mirror"]),
])
def test_transport_with_one_remark(tmp_path, fixture, outputs, names):
    # R1 = flip with graded R2, R3 (remark 1 only), or R3 = flip with graded
    # R1, R2 (remark 2 only)
    import test_constructions
    data = getattr(test_constructions, fixture)()
    rc, rep, _ = run(["transport", "--in", write_doc(tmp_path, twosided_doc(data, Q))],
                     tmp_path)
    assert rc == 0
    assert rep["outputs"] == outputs
    assert [c["name"] for c in rep["conditions"]] == names


def test_negative_seed_is_refused(tmp_path):
    # random.Random(-5) seeds like Random(5): the report was that of --seed 5
    doc = write_doc(tmp_path, search_doc())
    rc, rep, _ = run(["search", "--in", doc, "--seed", "-5"], tmp_path)
    assert rc == 2
    assert rep["status"] == "error"
    assert rep["error"] == {"type": "PreconditionFail",
                            "message": "search seed must be nonnegative, got -5"}


def test_search_reports_are_byte_identical_across_runs(tmp_path):
    doc = write_doc(tmp_path, search_doc())
    rc1, rep1, raw1 = run(["search", "--in", doc, "--seed", "9"], tmp_path)
    rc2, rep2, raw2 = run(["search", "--in", doc, "--seed", "9"], tmp_path)
    rc3, rep3, raw3 = run(["search", "--in", doc, "--seed", "9"], tmp_path)
    assert rc1 == rc2 == rc3 == 0
    assert raw1 == raw2 == raw3
    assert rep1["outputs"]["count"] == len(rep1["outputs"]["solutions"])


def test_check_reports_byte_identical_across_runs(tmp_path):
    doc = write_doc(tmp_path, twosided_doc(CORPUS["q-dual-graded-super"], Q))
    _, _, raw1 = run(["check", "--in", doc], tmp_path)
    _, _, raw2 = run(["check", "--in", doc], tmp_path)
    assert raw1 == raw2


def test_exhaustive_search_via_cli_pinned_count(tmp_path):
    obj = search_doc()
    obj["datasets"]["s"] = {"type": "search", "A": "A", "V": "V", "C": "C",
                            "mode": "exhaustive",
                            "frozen": {"R1": "flVA", "R2": "flCV", "R3": "flCA"}}
    doc = write_doc(tmp_path, obj)
    rc, rep, _ = run(["search", "--in", doc], tmp_path)
    assert rc == 0
    assert rep["outputs"]["count"] == 256


# sha256 and solution count of the report of each search, taken before the E
# conditions were compiled on a triple's first visit and before the report
# writer replaced json.dumps; they guard both on reports of 0.2-0.9 MB.
SEARCH_DIGESTS = {
    "frozen-f2-exhaustive": (
        {"mode": "exhaustive"}, 256,
        "40a6b601ab51af0d7457e1e7dddf240bdc0194083805ed5abdd14f69fdbf9637"),
    "frozen-f3-budget-500": (
        {"field": PrimeField(3), "budget": 500, "seed": 41}, 482,
        "b6b2db6a51d6edab692dcd936605cd73a9e029be85bbda0c124c5e47cfbacc94"),
    "unfrozen-r1-f2-exhaustive": (
        {"frozen": ("R2", "R3"), "mode": "exhaustive"}, 300,
        "2aa9cb7e85e878e3d4a9a3fa57af929e0f363d3ceb47390423f6a82da282099e"),
    "unfrozen-r1-f2-budget-1500": (
        {"frozen": ("R2", "R3"), "budget": 1500, "seed": 5}, 97,
        "267b3dcf61cdb6b3da1740880ec3f99a82f3a7e6bca3fe351530d336d1f5f5dc"),
}


@pytest.mark.parametrize("name", sorted(SEARCH_DIGESTS))
def test_search_report_bytes_pinned(tmp_path, monkeypatch, name):
    checked = checked_against_json(monkeypatch)
    options, count, digest = SEARCH_DIGESTS[name]
    rc, rep, raw = run(["search", "--in", write_doc(tmp_path, search_doc(**options))],
                       tmp_path)
    assert rc == 0
    assert rep["outputs"]["count"] == count
    assert hashlib.sha256(raw).hexdigest() == digest
    assert checked == [True]


def test_search_report_is_written_without_whole_text_copies(tmp_path):
    # The F3 search keeps 482 solutions, 0.94 MB of report.  The Python
    # allocations of main peak at about 0.24 MB when the report is streamed in
    # batches of a few hundred pieces and each solution is kept as its shared
    # rows, its dict made only as the writer reaches it (0.13 MB when each E
    # was written row by row, in shorter batches).  Keeping each solution's
    # two-sided data and dict peaked at 0.5 MB; with a whole list
    # of pieces and a copy of every E row the peak was 1.6 MB; a writer that
    # joins each nesting level's texts again, keeps every E's text and writes
    # the whole text at once peaks at 2.9 MB.
    import tracemalloc
    doc = write_doc(tmp_path, search_doc(PrimeField(3), budget=500, seed=41))
    args, out = ["search", "--in", doc], tmp_path / "report.json"
    main(args + ["--out", str(out)])  # warm-up: caches filled before the count
    size = out.stat().st_size
    for to_stdout in (True, False):
        out.unlink()
        tracemalloc.start()
        try:
            if to_stdout:
                with open(out, "w", encoding="utf-8") as fh, \
                        contextlib.redirect_stdout(fh):
                    rc = main(args)
            else:
                rc = main(args + ["--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (rc, out.stat().st_size) == (0, size)
        assert peak < 0.35 * 2**20, (to_stdout, peak)


def test_search_memory_per_solution(tmp_path):
    # The frozen-flip F3 space: all 6,561 candidates are solutions, 12.6 MB of
    # report.  Each solution is kept as its rows while the report is written,
    # about 200 bytes, so the Python allocations of main peak at about 1.7 MB
    # (stdout and --out share the writer; the 482-solution test above
    # measures both).  Marking each E matrix as visited peaked at 2.7 MB, and
    # keeping each solution's two-sided data, E map and dict as well at
    # 5.9 MB.
    import tracemalloc
    args = ["search", "--in", write_doc(tmp_path, search_doc(PrimeField(3), mode="exhaustive"))]
    out = tmp_path / "report.json"
    with open(out, "w", encoding="utf-8", newline="\n") as fh, contextlib.redirect_stdout(fh):
        assert main(args) == 0  # warm-up: caches filled before the count
    printed = out.read_bytes()
    assert json.loads(printed)["outputs"]["count"] == 3 ** 8
    tracemalloc.start()
    try:
        rc = main(args + ["--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rc, out.read_bytes() == printed) == (0, True)
    assert peak < 3 * 2**20, peak


@pytest.mark.parametrize("name", sorted(SEARCH_DIGESTS))
def test_search_report_lists_search_fp_solutions_in_order(tmp_path, name):
    # the command writes each solution from its rows, the library builds it
    # as two-sided data: both give the same solutions in the same order
    options, count, _ = SEARCH_DIGESTS[name]
    obj = search_doc(**options)
    rc, rep, _ = run(["search", "--in", write_doc(tmp_path, obj)], tmp_path)
    _, entry = parse_document(json.dumps(obj)).datasets["s"]
    got = search_fp(entry["spec"], entry["A"], entry["V"], entry["C"])
    assert rc == 0 and len(got) == count
    assert rep["outputs"]["solutions"] == [
        {m: [list(row) for row in getattr(data, m).formatted_rows] for m in MAP_NAMES}
        for data in got]


def test_search_without_solutions_writes_an_empty_list(tmp_path, monkeypatch, capsys):
    # budget 0 draws no candidate: the solutions are written as json writes []
    checked = checked_against_json(monkeypatch)
    args = ["search", "--in", write_doc(tmp_path, search_doc(budget=0))]
    rc, rep, raw = run(args, tmp_path)
    assert rc == main(args) == 0
    assert rep["outputs"] == {"count": 0, "solutions": []}
    assert b'"solutions": []' in raw
    assert capsys.readouterr().out.encode("utf-8") == raw
    assert checked == [True, True]


@pytest.mark.parametrize("case", ["f3-search", "input-error"])
def test_report_bytes_equal_on_stdout_and_in_out(tmp_path, capsys, case):
    # the F3 search report, 0.94 MB, and an input error naming a dataset that
    # is not ASCII: the streamed writer gives both sinks the same bytes
    if case == "f3-search":
        args = ["search", "--in", write_doc(tmp_path, search_doc(PrimeField(3), budget=500,
                                                                 seed=41))]
    else:
        args = ["check", "--in", write_doc(tmp_path, search_doc()), "--dataset", "né"]
    out = tmp_path / "report.json"
    code = main(args + ["--out", str(out)])
    assert capsys.readouterr().out == ""
    assert main(args) == code == (0 if case == "f3-search" else 2)
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()


def test_repeated_search_leaves_no_memo_behind(tmp_path, monkeypatch):
    # The search shares column entries (constructions._fill) and formatted
    # rows (TensorMap.format_rows) through memos that one call owns.  Running
    # the same search twice, each run's memos are new dicts that nothing
    # holds once main returns, the second run's are no larger than the
    # first's, and no module-level container of the package has grown.
    import gc
    import xprod.constructions
    from xprod.exactla import TensorMap
    memos = {}  # id -> memo, every dict handed to either function

    def keep(memo):
        if memo is not None:
            memos.setdefault(id(memo), memo)

    fill, format_rows = xprod.constructions._fill, TensorMap.format_rows
    monkeypatch.setattr(xprod.constructions, "_fill",
                        lambda f, t, d, entries=None: keep(entries) or fill(f, t, d, entries))
    monkeypatch.setattr(TensorMap, "format_rows",
                        lambda m, memo: keep(memo) or format_rows(m, memo))
    modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("xprod")]

    def module_containers():
        return {(m.__name__, name): len(value) for m in modules
                for name, value in vars(m).items() if isinstance(value, (dict, list, set))}

    doc = write_doc(tmp_path, search_doc(PrimeField(3), budget=500, seed=41))
    args = ["search", "--in", doc, "--out", str(tmp_path / "report.json")]
    sizes = []
    for _ in range(2):
        containers = module_containers()
        assert main(args) == 0
        gc.collect()
        assert memos
        for memo in memos.values():  # held by memos, this loop and the argument alone
            assert sys.getrefcount(memo) == 3
        assert module_containers() == containers
        sizes.append(sorted(map(len, memos.values())))
        memos.clear()
    assert sizes[1] == sizes[0]


def test_corrupted_compiled_search_exits_3_naming_both_routes(tmp_path, monkeypatch):
    import xprod.constructions
    honest = xprod.constructions._compile

    def corrupted(*args):
        return ((((), 1),), *honest(*args))  # a nonzero constant residual

    monkeypatch.setattr(xprod.constructions, "_compile", corrupted)
    obj = search_doc()
    obj["datasets"]["s"] = {"type": "search", "A": "A", "V": "V", "C": "C",
                            "mode": "exhaustive",
                            "frozen": {"R1": "flVA", "R2": "flCV", "R3": "flCA"}}
    rc, rep, _ = run(["search", "--in", write_doc(tmp_path, obj)], tmp_path)
    assert rc == 3
    assert rep["status"] == "internal-error"
    assert rep["error"]["type"] == "InternalCheckError"
    message = rep["error"]["message"]
    assert "scanned" in message and "compiled" in message
    assert "R-triple (R1 frozen, R2 frozen, R3 frozen)" in message


def test_internal_error_names_its_routes_and_first_differing_column(tmp_path, monkeypatch):
    # the L-R chain of transport gains e_0 in column 5, (v, a⊗c, v', a'⊗c') =
    # (0, 0, 1, 1): the error object names both routes and holds that column of
    # each
    import xprod.constructions
    from test_pinned_witnesses import with_entry

    data = CORPUS["q-dual-flip-trivial"]
    honest = [str(x) for x in xprod.constructions.transport(data)[0].mul.column(5)]
    chain_map = xprod.constructions._chain_map

    def corrupted(*args):
        m = chain_map(*args)
        return with_entry(m, 5, 0, Q.add(m.column(5)[0], Q.one))

    monkeypatch.setattr(xprod.constructions, "_chain_map", corrupted)
    rc, rep, _ = run(["transport", "--in", write_doc(tmp_path, twosided_doc(data, Q))], tmp_path)
    assert rc == 3
    assert rep["status"] == "internal-error"
    assert rep["error"] == {
        "type": "InternalCheckError",
        "message": "transported product: L-R presentation and permuted product disagree "
                   "at (0, 0, 1, 1)",
        "routes": ["L-R presentation", "permuted product"],
        "witness": {"indices": [0, 0, 1, 1], "identity": "transported product",
                    "left": [str(int(honest[0]) + 1)] + honest[1:], "right": honest}}


def test_universal_dataset_via_cli(tmp_path):
    data = CORPUS["q-dual-flip-trivial"]
    obj = json.loads(json.dumps(twosided_doc(data, Q)))
    f = Q
    m_dim = 8
    # X = the built product, with the canonical embeddings as fA, fV, fC
    from xprod import build_twosided
    x = build_twosided(data)
    obj["algebras"]["X"] = fmt_alg(f, x)

    def emb_cols(slot, n):
        cols = []
        for t in range(n):
            vecs = [data.A.unit, data.V.unit, data.C.unit]
            e = [f.zero] * n
            e[t] = f.one
            vecs[slot] = tuple(e)
            from xprod.exactla import tensor_vec
            cols.append(tensor_vec(f, *vecs))
        return cols

    from xprod.exactla import from_columns, shape
    for nm, slot, src in (("fA", 0, "A"), ("fV", 1, "V"), ("fC", 2, "C")):
        n = 2
        m = from_columns(f, shape(n), shape(m_dim), emb_cols(slot, n))
        obj["maps"][nm] = fmt_map(f, m, (src,), ("X",))
    obj["datasets"]["u"] = {"type": "universal", "data": "d", "X": "X",
                            "fA": "fA", "fV": "fV", "fC": "fC"}
    doc = write_doc(tmp_path, obj)
    rc, rep, _ = run(["universal", "--in", doc, "--dataset", "u"], tmp_path)
    assert rc == 0
    assert all(c["passed"] for c in rep["conditions"])


def test_dataset_required_when_ambiguous(tmp_path):
    obj = json.loads(json.dumps(twosided_doc(CORPUS["q-dual-flip-trivial"], Q)))
    obj["datasets"]["d2"] = dict(obj["datasets"]["d"])
    doc = write_doc(tmp_path, obj)
    rc, rep, _ = run(["check", "--in", doc], tmp_path)
    assert rc == 2
    rc, rep, _ = run(["check", "--in", doc, "--dataset", "d2"], tmp_path)
    assert rc == 0


def test_missing_file_is_input_error(tmp_path):
    rc, rep, _ = run(["check", "--in", str(tmp_path / "absent.json")], tmp_path)
    assert rc == 2


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_out_is_input_error(tmp_path, capsys, monkeypatch, where):
    # the report goes to stdout instead, naming --out; it used to escape main
    # as a traceback with exit 1
    checked = checked_against_json(monkeypatch)
    doc = write_doc(tmp_path, twosided_doc(CORPUS["q-dual-flip-trivial"], Q))
    out = tmp_path / "absent" / "report.json" if where == "missing directory" else tmp_path
    rc = main(["check", "--in", doc, "--out", str(out)])
    captured = capsys.readouterr()
    assert checked == [True]  # the writer saw the fallback report, and only it
    assert rc == 2
    assert captured.err == ""
    rep = json.loads(captured.out)
    assert captured.out == canonical_json(rep)
    assert rep["status"] == "error" and rep["dataset"] == "d"
    assert rep["conditions"] == [] and rep["outputs"] == {}
    assert rep["error"]["type"] == "DocumentError"
    assert rep["error"]["message"] == "--out: cannot write output: " + (
        "No such file or directory" if where == "missing directory" else "Is a directory")


def all_kinds_doc():
    """One F2 document holding a dataset of every type."""
    from xprod import (TwoSidedData, build_twosided, flip, grouplike_coalgebra,
                       product_connector)
    from xprod.crossed import lift_twisting_to_brzezinski, lift_twisting_to_mirror
    from xprod.exactla import basis_vector, from_columns, shape, tensor_vec

    d = dual_numbers(F2)
    fl = flip(F2, 2, 2)
    brz = lift_twisting_to_brzezinski(d, d, fl)
    mir = lift_twisting_to_mirror(d, d, fl)
    h = grouplike_coalgebra(F2, 2)
    g_map = from_columns(F2, shape(2, 2), shape(2, 2), tuple(
        tensor_vec(F2, d.unit, basis_vector(F2, 2, (i + j) % 2))
        for i in range(2) for j in range(2)))
    tau = from_columns(F2, shape(2, 2), shape(2), (d.unit,) * 4)
    # the two-sided product of the flips with V = B, and its three embeddings
    conn = product_connector(d, d, d)
    x = build_twosided(TwoSidedData(d, d.as_pointed(), d, fl, fl, fl, conn))
    units = (d.unit, d.unit, d.unit)

    def embedding(slot):
        return from_columns(F2, shape(2), shape(8), tuple(
            tensor_vec(F2, *(basis_vector(F2, 2, t) if s == slot else units[s]
                             for s in range(3)))
            for t in range(2)))

    return {
        "field": {"kind": "prime", "p": 2},
        "algebras": {"A": fmt_alg(F2, d), "B": fmt_alg(F2, d), "C": fmt_alg(F2, d),
                     "X": fmt_alg(F2, x)},
        "spaces": {"V": {"dim": 2, "unit": ["1", "0"]}},
        "coalgebras": {"H": {
            "dim": 2,
            "comul": [[F2.fmt(x) for x in row] for row in h.comul.rows],
            "counit": [[F2.fmt(x) for x in row] for row in h.counit.rows],
            "unit": ["1", "0"]}},
        "maps": {
            "flBA": fmt_map(F2, fl, ("B", "A"), ("A", "B")),
            "flCB": fmt_map(F2, fl, ("C", "B"), ("B", "C")),
            "flCA": fmt_map(F2, fl, ("C", "A"), ("A", "C")),
            "flVA": fmt_map(F2, fl, ("V", "A"), ("A", "V")),
            "flHA": fmt_map(F2, fl, ("H", "A"), ("A", "H")),
            "flBH": fmt_map(F2, fl, ("B", "H"), ("H", "B")),
            "sig": fmt_map(F2, brz.sigma, ("V", "V"), ("A", "V")),
            "nu": fmt_map(F2, mir.nu, ("V", "V"), ("V", "B")),
            "G": fmt_map(F2, g_map, ("H", "H"), ("A", "H")),
            "tau": fmt_map(F2, tau, ("H", "H"), ("B",)),
            "E": fmt_map(F2, conn, ("B", "B"), ("A", "B", "C")),
            "fA": fmt_map(F2, embedding(0), ("A",), ("X",)),
            "fV": fmt_map(F2, embedding(1), ("B",), ("X",)),
            "fC": fmt_map(F2, embedding(2), ("C",), ("X",)),
        },
        "datasets": {
            "t": {"type": "ttp", "A": "A", "B": "B", "R": "flBA"},
            "b": {"type": "brzezinski", "A": "A", "V": "V", "R": "flVA",
                  "sigma": "sig"},
            "m": {"type": "mirror", "W": "V", "B": "B", "P": "flBA", "nu": "nu"},
            "i": {"type": "iterated", "A": "A", "B": "B", "C": "C",
                  "R1": "flBA", "R2": "flCB", "R3": "flCA"},
            "g": {"type": "ma", "H": "H", "A": "A", "B": "B", "G": "G",
                  "R": "flHA", "T": "flBH", "tau": "tau"},
            "d": {"type": "twosided", "A": "A", "V": "B", "C": "C",
                  "R1": "flBA", "R2": "flCB", "R3": "flCA", "E": "E"},
            "x": {"type": "extraction", "M": "X", "A": "A", "V": "B", "C": "C"},
            "u": {"type": "universal", "data": "d", "X": "X",
                  "fA": "fA", "fV": "fV", "fC": "fC"},
            "s": {"type": "search", "A": "A", "V": "B", "C": "C",
                  "mode": "randomized", "budget": 40, "seed": 3,
                  "frozen": {"R1": "flBA", "R2": "flCB", "R3": "flCA"}},
        },
    }


def test_extraction_dataset_via_cli(tmp_path):
    from xprod import build_twosided
    data = CORPUS["q-dual-graded-super"]
    obj = json.loads(json.dumps(twosided_doc(data, Q)))
    obj["algebras"]["M"] = fmt_alg(Q, build_twosided(data))
    obj["datasets"]["x"] = {"type": "extraction", "M": "M", "A": "A", "V": "V",
                            "C": "C"}
    doc = write_doc(tmp_path, obj)
    rc, rep, _ = run(["extract", "--in", doc, "--dataset", "x"], tmp_path)
    assert rc == 0
    assert rep["conditions"][0]["name"] == "extracted-and-rebuilt"
    got = rep["outputs"]["maps"]["R1"]
    want = [[Q.fmt(x) for x in row] for row in data.R1.rows]
    assert got == want


def test_extraction_dataset_split_failure_via_cli(tmp_path):
    from xprod import build_twosided, conjugate_algebra, identity
    from xprod.exactla import from_rows, shape
    data = CORPUS["q-dual-graded-super"]
    m = build_twosided(data)
    rows = [list(r) for r in identity(Q, shape(8)).rows]
    rows[1][6] = Q.one
    g = from_rows(Q, shape(8), shape(8), tuple(tuple(r) for r in rows))
    bad = conjugate_algebra(m, g)
    obj = json.loads(json.dumps(twosided_doc(data, Q)))
    obj["algebras"]["M"] = fmt_alg(Q, bad)
    obj["datasets"]["x"] = {"type": "extraction", "M": "M", "A": "A", "V": "V",
                            "C": "C"}
    doc = write_doc(tmp_path, obj)
    rc, rep, _ = run(["extract", "--in", doc, "--dataset", "x"], tmp_path)
    assert rc == 1
    assert rep["error"]["type"] == "SplitFail"
    assert "ajut1" in rep["error"]["message"]
    assert rep["error"]["witness"]["indices"] == [1, 1]


@pytest.mark.parametrize("name,dim", [
    ("t", 4), ("b", 4), ("m", 4), ("i", 8), ("g", 8),
])
def test_check_and_build_for_every_dataset_kind(tmp_path, name, dim):
    doc = write_doc(tmp_path, all_kinds_doc())
    rc, rep, _ = run(["check", "--in", doc, "--dataset", name], tmp_path)
    assert rc == 0, rep
    assert all(c["passed"] for c in rep["conditions"])
    rc, rep, _ = run(["build", "--in", doc, "--dataset", name], tmp_path)
    assert rc == 0
    assert rep["outputs"]["algebra"]["dim"] == dim


def test_non_string_space_name_in_map_is_input_error(tmp_path):
    for bad in (["A"], {}):
        obj = search_doc()
        obj["maps"]["flVA"]["codomain"] = ["A", bad]
        rc, rep, _ = run(["search", "--in", write_doc(tmp_path, obj)], tmp_path)
        assert rc == 2
        assert rep["error"]["type"] == "DocumentError"
        assert rep["error"]["message"].startswith("$.maps.flVA.codomain[1]:")


def test_non_string_universal_data_is_input_error(tmp_path):
    obj = all_kinds_doc()
    obj["datasets"]["u"]["data"] = ["d"]
    rc, rep, _ = run(["universal", "--in", write_doc(tmp_path, obj), "--dataset", "u"],
                     tmp_path)
    assert rc == 2
    assert rep["error"]["type"] == "DocumentError"
    assert rep["error"]["message"] == (
        "$.datasets.u.data: ['d'] must name an earlier twosided dataset")


# [2, 2] -> [2, 2, 2] in all_kinds_doc, where every algebra and space has dim 2
BAD_MAP = {"domain": ["A", "B"], "codomain": ["A", "B", "C"], "matrix": [["0"] * 4] * 8}
WANT_2_2 = "must map [2, 2] to [2, 2], got [2, 2] to [2, 2, 2]"


MISSHAPED = [
    ("t", "R", "bad", f"R {WANT_2_2}"),
    ("b", "R", "bad", f"R {WANT_2_2}"),
    ("b", "sigma", "bad", f"sigma {WANT_2_2}"),
    ("m", "P", "bad", f"P {WANT_2_2}"),
    ("m", "nu", "bad", f"nu {WANT_2_2}"),
    ("i", "R2", "bad", f"R2 {WANT_2_2}"),
    ("g", "tau", "bad", "tau must map [2, 2] to [2], got [2, 2] to [2, 2, 2]"),
    ("d", "E", "flBA", "E must map [2, 2] to [2, 2, 2], got [2, 2] to [2, 2]"),
    ("x", "M", "A", "algebra dimension does not factor as dim A * dim V * dim C"),
    ("u", "fV", "flBA", "fV must map [2] to [8]"),
]


@pytest.mark.parametrize("dataset, key, ref, message", MISSHAPED,
                         ids=[f"{dataset}-{key}" for dataset, key, _, _ in MISSHAPED])
def test_misshaped_dataset_is_refused_by_the_library_check(tmp_path, dataset, key, ref,
                                                           message):
    obj = all_kinds_doc()
    obj["maps"]["bad"] = BAD_MAP
    obj["datasets"][dataset][key] = ref
    rc, rep, _ = run(["check", "--in", write_doc(tmp_path, obj)], tmp_path)
    assert rc == 2
    assert rep["status"] == "error"
    assert rep["error"] == {"type": "DocumentError",
                            "message": f"$.datasets.{dataset}: {message}"}


@pytest.mark.parametrize("edit, args, message", [
    (lambda obj: obj.update(field={"kind": "reals"}), [],
     "$.field.kind: unknown field kind 'reals'"),
    (lambda obj: obj["datasets"]["t"].update(type="ttq"), [],
     "$.datasets.t.type: unknown dataset type 'ttq'"),
    (lambda obj: None, ["--dataset", "zz"], "$.datasets: no dataset named 'zz'"),
    (lambda obj: obj.pop("datasets"), [], "$.datasets: document defines no datasets"),
])
def test_document_refusals(tmp_path, edit, args, message):
    obj = all_kinds_doc()
    edit(obj)
    rc, rep, _ = run(["check", "--in", write_doc(tmp_path, obj), *args], tmp_path)
    assert rc == 2
    assert rep["error"] == {"type": "DocumentError", "message": message}


def test_internal_error_exits_3_with_a_report(tmp_path, monkeypatch, capsys):
    import xprod.twosided
    honest = xprod.twosided._composite_conditions

    def flipped(d):
        verdicts = honest(d)
        verdicts["equiv3"] = not verdicts["equiv3"]
        return verdicts

    monkeypatch.setattr(xprod.twosided, "_composite_conditions", flipped)
    doc = write_doc(tmp_path, twosided_doc(CORPUS["q-dual-graded-super"], Q))
    rc, rep, raw = run(["check", "--in", doc], tmp_path)
    assert rc == 3
    assert rep["status"] == "internal-error"
    assert rep["error"]["type"] == "InternalCheckError"
    assert "equiv3" in rep["error"]["message"]
    assert raw.decode("utf-8") == json.dumps(rep, sort_keys=True, indent=2,
                                             ensure_ascii=False) + "\n"
    assert capsys.readouterr().err == ""


# Every command's exit code and report bytes, one digest per document; the
# digests were taken before the dataset types were gathered into one table.
PIN_COMMANDS = [["check"], ["build"], ["agree"], ["extract"], ["universal"],
                ["search"], ["transport"], ["build", "--force"]]
PINNED_DIGESTS = {
    "f2-dual-flip-trivial": "ca97422d67662c8c55fb7b746876d7fbbe514e78af829c40f9295a53fd44d318",
    "f2-dual-graded-super": "ca97422d67662c8c55fb7b746876d7fbbe514e78af829c40f9295a53fd44d318",
    "f2-mixed-flip-trivial": "f5184eac9cad2d95c5a8eef26701a4997a016703a2edb43d1d535675ee5c8030",
    "f2-searched-0": "ca97422d67662c8c55fb7b746876d7fbbe514e78af829c40f9295a53fd44d318",
    "f2-searched-1": "421051098a0e5288ee0534654bd9199bd6238983587cd5195390e7d464d0f82c",
    "f2-searched-2": "b2b779d0b405b47e226561851bc5e6a918e8421432235e71e38fd91ddf4b050c",
    "q-bicocycle": "2e3f1971a308413deccc2fb46dc92b4a65bc18b22755959148aa66a64d338b07",
    "q-dual-flip-trivial": "ca97422d67662c8c55fb7b746876d7fbbe514e78af829c40f9295a53fd44d318",
    "q-dual-graded-super": "789dc1db8777209d1a521ba6c0492d94e438b6080b37b65c69f79337a3a37865",
    "q-group-graded-super": "a9704cb4baa287249fcf0bfce42220ab63e4eb70c0c18d1f82267b212d924451",
    "q-mixed-flip-trivial": "00e904395c5269c5ac1574182189b9f7c7c3043284fa1fa7ecc88c4494dc51bd",
    "q-scalar-ends": "4fb73b7c6bf7a1efd0cee423a313db2a25fc57cc9a7c0264bbc13b67f430d5ea",
    "q-ut2-pointed-line": "e74bc2f17e501c5bf46707d6ae9271155d3ba3999cb737feb839efd455e1d5af",
    "q-wide-middle": "6616a34843bca78c64c020560d2eee511f0ddf14f692daf390872836743fc88b",
    "all-kinds": "bdbef021af3f4279e926c781df6fcade24da431ff8d608ecbdab003682c21684",
}


def report_digest(tmp_path, obj):
    doc = write_doc(tmp_path, obj)
    digest = hashlib.sha256()
    for name in obj["datasets"]:
        for args in PIN_COMMANDS:
            rc, _, raw = run([args[0], "--in", doc, "--dataset", name, *args[1:]],
                             tmp_path)
            digest.update(f"{name} {' '.join(args)} {rc}\n".encode() + raw)
    return digest.hexdigest()


@pytest.mark.parametrize("doc_name", sorted(PINNED_DIGESTS))
def test_report_bytes_pinned(tmp_path, monkeypatch, doc_name):
    checked = checked_against_json(monkeypatch)
    obj = (all_kinds_doc() if doc_name == "all-kinds"
           else twosided_doc(CORPUS[doc_name], None))
    assert report_digest(tmp_path, obj) == PINNED_DIGESTS[doc_name]
    assert len(checked) == len(obj["datasets"]) * len(PIN_COMMANDS) and all(checked)


# Malformed edits of all_kinds_doc, one refusal each, as (keys to the edited
# value, its new value, or DROP to delete it).  Every section and every refusal
# of the parse is here: a section or spec that is not an object, a missing or
# extra key, a bad dimension or scalar, a short array, an unresolved reference,
# a duplicate or empty name, and each library refusal of an entry.
DROP = object()
H_ROWS = [["1", "0"], ["0", "0"], ["0", "0"], ["0", "1"]]  # comul of the grouplike H
# e_1 e_0 = 0 and e_1 e_1 = e_0, so (e_1 e_0) e_1 = 0 but e_1 (e_0 e_1) = e_0
NOT_ASSOCIATIVE = [[["1", "0"], ["0", "1"]], [["0", "0"], ["1", "0"]]]
REFUSED_EDITS = [
    (("extra",), {}), (("field",), DROP), (("field", "kind"), "reals"),
    (("field", "p"), 4), (("field", "p"), True),
    (("algebras",), []), (("spaces",), "V"), (("coalgebras",), 7), (("maps",), None),
    (("datasets",), []),
    (("algebras", "A"), 5), (("spaces", "V"), ["1"]), (("coalgebras", "H"), "H"),
    (("maps", "flBA"), None), (("datasets", "t"), []),
    (("algebras", "A", "mul"), DROP), (("spaces", "V", "unit"), DROP),
    (("coalgebras", "H", "counit"), DROP), (("maps", "flBA", "matrix"), DROP),
    (("datasets", "t", "R"), DROP), (("datasets", "t", "type"), DROP),
    (("algebras", "A", "extra"), 1), (("spaces", "V", "mul"), []),
    (("coalgebras", "H", "mul"), []), (("maps", "flBA", "dim"), 2),
    (("datasets", "b", "mode"), "exhaustive"), (("datasets", "s", "extra"), 1),
    (("algebras", "A", "dim"), 0), (("spaces", "V", "dim"), True),
    (("coalgebras", "H", "dim"), "2"), (("algebras", "B", "dim"), 10**12),
    (("coalgebras", "H", "dim"), 10**9),
    (("algebras", "A", "unit", 0), "x"), (("algebras", "A", "mul", 1, 1, 0), 1.5),
    (("spaces", "V", "unit", 1), False), (("coalgebras", "H", "comul", 3, 1), "1/0"),
    (("coalgebras", "H", "counit", 0, 0), None), (("coalgebras", "H", "unit", 0), [1]),
    (("maps", "flBA", "matrix", 2, 1), "2/"),
    (("algebras", "A", "mul"), NOT_ASSOCIATIVE[:1]), (("algebras", "A", "mul", 1), [["0"]]),
    (("algebras", "A", "mul", 0, 1), ["0"]), (("algebras", "A", "unit"), ["1"]),
    (("spaces", "V", "unit"), "10"), (("coalgebras", "H", "comul"), H_ROWS[:3]),
    (("coalgebras", "H", "counit"), []), (("maps", "flBA", "matrix"), [["0"] * 4] * 3),
    (("maps", "flBA", "matrix", 0), ["1"]),
    (("maps", "flBA", "domain", 0), "Z"), (("maps", "flBA", "domain", 1), 3),
    (("maps", "flBA", "domain"), "B"), (("maps", "flBA", "codomain"), []),
    (("maps", "G", "domain", 0), "flBA"),
    (("datasets", "t", "R"), "nope"), (("datasets", "t", "A"), "V"),
    (("datasets", "b", "V"), "H"), (("datasets", "g", "H"), "A"),
    (("datasets", "u", "data"), "t"), (("datasets", "u", "data"), "zz"),
    (("datasets", "s", "frozen", "R1"), "nope"), (("datasets", "s", "frozen", "Q"), "flBA"),
    (("datasets", "s", "frozen"), ["flBA"]), (("datasets", "s", "mode"), "sideways"),
    (("datasets", "s", "budget"), -1), (("datasets", "t", "type"), "ttq"),
    (("datasets", "t", "type"), ["ttp"]),
    (("spaces", "A"), {"dim": 2, "unit": ["1", "0"]}),
    (("coalgebras", "V"), {"dim": 2, "comul": H_ROWS, "counit": [["1", "1"]],
                           "unit": ["1", "0"]}),
    (("algebras", ""), {"dim": 1, "unit": ["1"], "mul": [[["1"]]]}),
    (("spaces", ""), {"dim": 1, "unit": ["1"]}),
    (("algebras", "A", "mul"), NOT_ASSOCIATIVE), (("algebras", "A", "unit"), ["0", "1"]),
    (("spaces", "V", "unit"), ["0", "0"]),
    (("coalgebras", "H", "comul"), [["0", "0"], ["1", "0"], ["0", "1"], ["0", "0"]]),
    (("coalgebras", "H", "counit"), [["0", "0"]]), (("coalgebras", "H", "unit"), ["1", "1"]),
    (("datasets", "t", "R"), "E"), (("datasets", "x", "M"), "A"),
]
# sha256 of the exit codes and check reports of REFUSED_EDITS, in order; taken
# before the sections were parsed by one table
REFUSED_DIGEST = "31a67fb37afb3bebbe068adf03f0df8da1e010b3176462de096a6f89b855ea75"


def edited(base, keys, value):
    obj = json.loads(json.dumps(base))
    *parents, last = keys
    target = obj
    for key in parents:
        target = target[key]
    if value is DROP:
        del target[last]
    else:
        target[last] = value
    return obj


def test_refusal_bytes_pinned(tmp_path):
    base = all_kinds_doc()
    digest = hashlib.sha256()
    for keys, value in REFUSED_EDITS:
        rc, rep, raw = run(["check", "--in", write_doc(tmp_path, edited(base, keys, value))],
                           tmp_path)
        assert (rc, rep["error"]["type"]) == (2, "DocumentError"), keys
        digest.update(f"{rc}\n".encode() + raw)
    assert digest.hexdigest() == REFUSED_DIGEST


# -- canonical_json writes what json.dumps writes -----------------------------

def json_reference(obj):
    # a search report's solutions are a lazy sequence, dumped as the list it stands for
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False, default=list) + "\n"


def checked_against_json(monkeypatch):
    """Make every report that ``main`` writes compare its bytes with
    :func:`json_reference`; the returned list collects one verdict per report."""
    import xprod.cli
    checked, writer = [], xprod.cli._json_write

    def compared(obj, sink):
        texts = []

        def both(text):
            texts.append(text)
            sink(text)

        writer(obj, both)
        checked.append("".join(texts) == json_reference(obj))

    monkeypatch.setattr(xprod.cli, "_json_write", compared)
    return checked


TEXTS = (st.text(max_size=6)
         | st.sampled_from(['', '"', "\\", '\\"', "\x00\x1f\x7f\n\t", "é ü 中 😀",
                            "\u2028\u2029", "\ud800"]))
ROWS = st.lists(TEXTS, max_size=4)  # a row of a matrix, as a list or a tuple
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | TEXTS | ROWS | ROWS.map(tuple),
    lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(TEXTS, kids, max_size=4)),
    max_leaves=24)


def shared(x):
    # one object at several depths and places, as the search shares its rows
    return st.sampled_from([[x, x], {"a": x, "b": [x, (x,)]}, (x, [[x]], {"": x})])


MATRIX = (("a", "b"), ("c", "d"))


@given(JSON_VALUES | JSON_VALUES.flatmap(shared))
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
# equal and equally hashed, yet written [1] and [true], [0] and [false]
@example([(1,), (True,)])
@example([(0,), (False,)])
# the same one level down, where a matrix of kept rows is one join
@example([((1,),), ((True,),), ((1,),)])
@example([((True,),), ((True,),), ((1,),)])
@example([((0,),), ((False,),), ((0,),)])
# one matrix of strings at two indents, and a tuple that cannot be hashed
@example([MATRIX, {"m": [MATRIX]}, MATRIX])
@example([MATRIX, [MATRIX, MATRIX], MATRIX, MATRIX])  # three visits at one indent, two at another
# a list and a tuple of kept rows, and a kept row beside a non-row or a list
@example([[("a",)], [("a",)], (("a",),), [("a",), (True,)], (("a",), ["a"])])
@example((None, [[None]], {"": None}))
def test_canonical_json_equals_json_dumps(x):
    assert canonical_json(x) == json_reference(x)


# -- fuzz: mutated documents never crash the command line ---------------------

FUZZ_BASES = ("q-dual-graded-super", "f2-mixed-flip-trivial", "q-ut2-pointed-line",
              "all-kinds")
MUTATIONS = ("drop", "wrong type", "other scalar", "float", "boolean", "short array",
             "extra key", "empty name", "huge dim")
STATUS = {0: "pass", 1: "fail", 2: "error"}


@lru_cache(maxsize=None)
def fuzz_base(name):
    obj = all_kinds_doc() if name == "all-kinds" else twosided_doc(CORPUS[name], None)
    return json.dumps(obj)


def mutate(data, obj):
    """Apply one mutation at a position reached by descending from the root."""
    kind = data.draw(st.sampled_from(MUTATIONS))
    if kind == "huge dim":
        specs = [spec for section in ("algebras", "spaces", "coalgebras")
                 if isinstance(obj.get(section), dict)
                 for spec in obj[section].values() if isinstance(spec, dict)]
        if specs:
            data.draw(st.sampled_from(specs))["dim"] = data.draw(
                st.sampled_from([10**6, 10**12, 2**63]))
        return
    # a field that does not parse hides every other refusal, so it is left alone;
    # a valid scalar goes down to a leaf of a map, where it may break an axiom
    parent, key, node = None, None, obj
    if kind == "other scalar" and isinstance(obj.get("maps"), dict):
        node = obj["maps"]
    for _ in range(8 if kind == "other scalar" else data.draw(st.integers(2, 6))):
        keys = (list(node) if isinstance(node, dict)
                else list(range(len(node))) if isinstance(node, list) else [])
        if node is obj:
            keys.remove("field")
        if not keys:
            break
        parent, key = node, data.draw(st.sampled_from(keys))
        node = parent[key]
    if parent is None:
        return
    if kind == "drop":
        del parent[key]
    elif kind == "wrong type":
        parent[key] = data.draw(st.sampled_from([None, "x", "1/0", -3, [], {}]))
    elif kind == "other scalar":
        parent[key] = data.draw(st.sampled_from(["0", "1", "-1/2", 2]))
    elif kind == "float":
        parent[key] = data.draw(st.sampled_from([0.5, -2.0, 1e300]))
    elif kind == "boolean":
        parent[key] = data.draw(st.booleans())
    elif kind == "short array" and isinstance(node, list) and node:
        node.pop()
    elif kind == "extra key" and isinstance(node, dict):
        node["extra"] = "1"
    elif kind == "empty name" and isinstance(parent, dict):
        items = list(parent.items())
        parent.clear()
        parent.update(("" if k == key else k, v) for k, v in items)


@given(st.sampled_from(FUZZ_BASES), st.sampled_from(["check", "build"]), st.data())
@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mutated_documents_exit_with_a_canonical_report(tmp_path, base, command, data):
    obj = json.loads(fuzz_base(base))
    name = data.draw(st.sampled_from(sorted(obj["datasets"])))
    for _ in range(data.draw(st.integers(0, 2))):
        mutate(data, obj)
    out = tmp_path / "report.json"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main([command, "--in", write_doc(tmp_path, obj), "--dataset", name,
                   "--out", str(out)])
    raw = out.read_text(encoding="utf-8")
    rep = json.loads(raw)
    assert rc in STATUS, rep  # exit 3 reports an internal bug, never a bad document
    assert raw == canonical_json(rep)
    assert rep["status"] == STATUS[rc]
    assert err.getvalue() == ""


def test_readme_dataset_table_matches_the_cli_table():
    from xprod.cli import DATASET_TYPES
    readme = Path(__file__).resolve().parents[1] / "README.md"
    rows = dict(re.findall(r"^\| `(\w+)` \| `([^`]*)`", readme.read_text("utf-8"), re.M))
    assert rows == {kind: " ".join(key for key, _ in t.keys)
                    for kind, t in DATASET_TYPES.items()}


# -- argv ---------------------------------------------------------------------
#
# Each outcome was recorded from the argparse parser that the table-driven one
# replaced.  "help" exits 0 with the usage on stdout and nothing on stderr;
# "refused" exits 2 with the usage and the reason on stderr and nothing on
# stdout; (code, argv) exits with that code and the report bytes of that
# canonical argv.  DOC names a passing twosided document, SEARCH a search
# document and MISSING an absent file.

CHECK = ["check", "--in", "DOC"]
EQUIV6 = CHECK + ["--condition", "equiv6"]
SEED_7 = ["search", "--in", "SEARCH", "--seed", "7"]
NEGATIVE_SEED = ["search", "--in", "SEARCH", "--seed", "-1"]
ARGV_CASES = [
    (["--help"], "help"),
    (["-h"], "help"),
    (["-hh"], "help"),
    (["--he"], "help"),
    (CHECK + ["--help"], "help"),
    (["check", "--bogus", "--help"], "help"),  # an unknown flag is refused only at the end
    (["check", "extra", "--help"], "help"),
    (["--help", "--seed", "x"], "help"),
    (["--seed", "x", "--help"], "refused"),
    (["bogus", "--help"], "refused"),  # the command is refused as it is read
    (["-hx"], "refused"),
    (["-h="], "refused"),
    (["--help=yes"], "refused"),
    ([], "refused"),
    (["bogus", "--in", "DOC"], "refused"),
    (["check"], "refused"),
    (["--in", "DOC"], "refused"),
    (CHECK + ["--bogus"], "refused"),
    (CHECK + ["-x"], "refused"),
    (CHECK + ["--dataset"], "refused"),
    (["check", "--in", "--force", "DOC"], "refused"),
    (["check", "--in", "--", "DOC"], "refused"),
    (CHECK + ["--force=yes"], "refused"),
    (CHECK + ["--force="], "refused"),
    (CHECK + ["extra"], "refused"),
    (CHECK + ["--=x"], "refused"),  # a prefix of every option
    (CHECK + ["--"], "refused"),
    (["check", "--", "--in", "DOC"], "refused"),
    (["search", "--in", "SEARCH", "--seed", "x"], "refused"),
    (["search", "--in", "SEARCH", "--seed", "1.5"], "refused"),
    (["search", "--in", "SEARCH", "--seed="], "refused"),
    (["search", "--in", "SEARCH", "--seed", "-x"], "refused"),
    (["check", "--in=DOC"], (0, CHECK)),
    (["check", "--i", "DOC"], (0, CHECK)),
    (["check", "--in", "MISSING", "--in", "DOC"], (0, CHECK)),  # the last value wins
    (CHECK + ["--in", "MISSING"], (2, ["check", "--in", "MISSING"])),
    (CHECK + ["--cond", "equiv6"], (0, EQUIV6)),
    (CHECK + ["--c=equiv6"], (0, EQUIV6)),
    (["--in", "DOC", "--condition", "equiv6", "check"], (0, EQUIV6)),
    (["--condition=equiv6", "--in=DOC", "check"], (0, EQUIV6)),
    (["--in", "DOC", "--", "check"], (0, CHECK)),
    (["--", "check", "--in", "DOC"], "refused"),
    (["--in", "DOC", "check", "--"], (0, CHECK)),
    (["--force", "--in", "DOC", "build"], (0, ["build", "--in", "DOC", "--force"])),
    (["build", "--f", "--in", "DOC"], (0, ["build", "--in", "DOC", "--force"])),
    (CHECK + ["--dataset", "d"], (0, CHECK)),
    (CHECK + ["--dataset=-d"], (2, CHECK + ["--d=-d"])),
    (CHECK + ["--dataset", "-d"], "refused"),
    (CHECK + ["--dataset", "-d x"], (2, CHECK + ["--dataset=-d x"])),  # a space makes an argument
    (CHECK + ["--seed", "5"], (0, CHECK)),
    (CHECK + ["--seed=--"], (0, CHECK)),  # argparse drops "--" from a value: not an int error
    (["search", "--s=7", "--in", "SEARCH"], (0, SEED_7)),
    (["search", "--in", "SEARCH", "--seed", " 7 "], (0, SEED_7)),
    (["search", "--in", "SEARCH", "--seed", "0_7"], (0, SEED_7)),
    (["search", "--in", "SEARCH", "--seed", "x", "--seed", "7"], "refused"),
    (["search", "--in", "SEARCH", "--seed", "-1"], (2, NEGATIVE_SEED)),
    (["search", "--in", "SEARCH", "--seed=-1"], (2, NEGATIVE_SEED)),
    (["-1", "--in", "DOC"], "refused"),
]


def run_argv(capsys, argv):
    """Exit code, stdout and stderr of ``main(argv)`` in this process."""
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def argv_paths(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("argv")
    return {"DOC": write_doc(tmp, twosided_doc(CORPUS["q-dual-flip-trivial"], Q)),
            "SEARCH": write_doc(tmp, search_doc(), "search.json"),
            "MISSING": str(tmp / "absent.json")}


@pytest.mark.parametrize("argv, outcome", ARGV_CASES, ids=lambda x: repr(x)[:60])
def test_argv_outcomes_match_the_argparse_parser(capsys, argv_paths, argv, outcome):
    def filled(args):
        return [argv_paths.get(a, a.replace("DOC", argv_paths["DOC"])) for a in args]

    code, out, err = run_argv(capsys, filled(argv))
    assert "Traceback" not in err
    if outcome == "help":
        assert (code, err) == (0, "")
        assert out.startswith("usage: xprod [-h] --in FILE") and "--condition LABEL" in out
    elif outcome == "refused":
        assert (code, out) == (2, "")
        assert err.startswith("usage: xprod") and "\nxprod: error: " in err
    else:
        want_code, canonical = outcome
        assert (code, out, err) == run_argv(capsys, filled(canonical))
        assert code == want_code


def test_negative_seed_reaches_the_handler_refusal(capsys, argv_paths):
    for argv in (NEGATIVE_SEED, ["search", "--in", "SEARCH", "--seed=-1"]):
        code, out, err = run_argv(capsys, [argv_paths.get(a, a) for a in argv])
        assert (code, err) == (2, "")
        assert json.loads(out)["error"] == {
            "type": "PreconditionFail", "message": "search seed must be nonnegative, got -1"}


# argparse reads "--flag=--" as the flag given no value; each such value that a
# command reads is an input error naming its option (--seed under check is
# unread, and pinned above as a pass)
@pytest.mark.parametrize("argv", [
    ["check", "--in=--"],
    ["search", "--in=--"],
    CHECK + ["--dataset=--"],
    ["search", "--in", "SEARCH", "--dataset=--"],
    CHECK + ["--condition=--"],
    ["search", "--in", "SEARCH", "--seed=--"],
    CHECK + ["--out=--"],
], ids=lambda argv: " ".join(a for a in argv if "=" in a) + f" {argv[0]}")
def test_option_left_without_its_value_is_an_input_error(capsys, argv_paths, argv):
    code, out, err = run_argv(capsys, [argv_paths.get(a, a) for a in argv])
    opt = next(a for a in argv if a.endswith("=--"))[:-3]
    assert (code, err) == (2, "")
    assert json.loads(out) == {
        "command": argv[0], "conditions": [], "dataset": None, "outputs": {},
        "status": "error", "error": {"type": "DocumentError",
                                     "message": f"{opt}: expected a value, got '--'"}}


# -- fixed cost -----------------------------------------------------------------

SRC = Path(xprod.__file__).resolve().parents[1]


def child_imports(argv):
    """Run ``python -X importtime -m xprod argv``: its exit code, its stdout and
    the names of the modules it imported beyond a bare interpreter's."""
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def imported(args):
        proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                              capture_output=True, env=env)
        lines = proc.stderr.decode().splitlines()
        return proc, {line.rsplit("|", 1)[1].strip() for line in lines[1:]
                      if line.startswith("import time:")}

    proc, names = imported(["-m", "xprod", *argv])
    return proc.returncode, proc.stdout, names - imported(["-c", "pass"])[1]


def half_unit_doc():
    """k with e0 e0 = 2 e0 and unit 1/2, as the twisted tensor product with k."""
    k = {"dim": 1, "unit": ["1"], "mul": [[["1"]]]}
    return {"field": {"kind": "rationals"},
            "algebras": {"h": {"dim": 1, "unit": ["1/2"], "mul": [[["2"]]]}, "k": k},
            "maps": {"R": {"domain": ["k", "h"], "codomain": ["h", "k"], "matrix": [["1"]]}},
            "datasets": {"t": {"type": "ttp", "A": "h", "B": "k", "R": "R"}}}


@pytest.mark.parametrize("name, command, loads_fractions", [
    ("fp-search", "search", False), ("q-integral-ladder", "check", False),
    ("q-integral-ladder", "extract", False), ("q-half-unit", "build", True)])
def test_fixed_cost_modules_load_only_when_needed(tmp_path, capsys, name, command,
                                                   loads_fractions):
    # argparse is never imported; fractions, and decimal with it, only when a
    # document has a scalar that is not an integer (extract inverts the unit
    # coordinates, which are 1 here)
    from fixtures import truncated_polynomials3, twosided_flip_trivial
    t3 = truncated_polynomials3(Q)
    obj = {"fp-search": search_doc, "q-half-unit": half_unit_doc,
           "q-integral-ladder": lambda: twosided_doc(twosided_flip_trivial(t3, t3, t3), Q),
           }[name]()
    argv = [command, "--in", write_doc(tmp_path, obj)]
    code, out, names = child_imports(argv)
    assert (code, out.decode()) == run_argv(capsys, argv)[:2]
    assert code == 0
    assert "argparse" not in names
    assert names & {"fractions", "decimal"} == ({"fractions", "decimal"} if loads_fractions
                                                 else set())


# -- the process entry ----------------------------------------------------------

# the two launchers: `python -m xprod`, and what the `xprod` console script runs
LAUNCHERS = {"module": ["-m", "xprod"],
             "script": ["-c", "import sys; from xprod.cli import run; sys.exit(run())"]}


def child_env(**changes):
    env = dict(os.environ, PYTHONPATH=str(SRC), **changes)
    return {k: v for k, v in env.items() if v is not None}


@pytest.fixture(scope="module")
def entry_paths(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("entry")
    return {"DOC": write_doc(tmp, twosided_doc(CORPUS["q-dual-flip-trivial"], Q)),
            "FAIL": write_doc(tmp, perturbed_doc(), "fail.json"),
            "F3": write_doc(tmp, search_doc(PrimeField(3), budget=500, seed=41), "f3.json"),
            "MISSING": str(tmp / "absent.json")}


@pytest.mark.parametrize("launcher", sorted(LAUNCHERS))
@pytest.mark.parametrize("argv, code", [
    (["check", "--in", "DOC"], 0),
    (["check", "--in", "FAIL"], 1),
    (["check", "--in", "MISSING"], 2),
    (["--help"], 0),
    (["check", "--in", "DOC", "--seed", "x"], 2),
    (["search", "--in", "F3"], 0),  # a report larger than a pipe buffer
], ids=lambda x: " ".join(x) if isinstance(x, list) else str(x))
def test_the_process_entry_gives_what_main_gives(capsys, entry_paths, launcher, argv, code):
    argv = [entry_paths.get(a, a) for a in argv]
    proc = subprocess.run([sys.executable, *LAUNCHERS[launcher], *argv],
                          capture_output=True, env=child_env())
    want = run_argv(capsys, argv)
    assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == want
    assert want[0] == code and "Traceback" not in want[2]


@pytest.mark.parametrize("launcher", sorted(LAUNCHERS))
def test_the_process_entry_writes_out_in_full(tmp_path, entry_paths, launcher):
    argv = ["search", "--in", entry_paths["F3"], "--out"]
    proc = subprocess.run([sys.executable, *LAUNCHERS[launcher], *argv, str(tmp_path / "a")],
                          capture_output=True, env=child_env())
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    assert main(argv + [str(tmp_path / "b")]) == 0
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


def test_the_console_script_runs_what_python_m_runs():
    script = re.search(r'^\[project\.scripts\]\n(?:[^\[].*\n)*?xprod = "xprod\.cli:(\w+)"$',
                       (SRC.parent / "pyproject.toml").read_text(encoding="utf-8"), re.M)
    module = (SRC / "xprod" / "__main__.py").read_text(encoding="utf-8")
    assert script is not None and script.group(1) == "run"
    assert re.findall(r"^\s*(\w+)\(", module, re.M) == ["run"]
    assert "from .cli import run\n" in module


class Refusing(io.StringIO):
    """A stdout whose ``write`` or ``flush`` fails as a closed pipe does."""

    def __init__(self, on):
        super().__init__()
        self.on = on

    def write(self, text):
        if self.on == "write":
            raise OSError(errno.EPIPE, os.strerror(errno.EPIPE))
        return super().write(text)

    def flush(self):
        if self.on == "flush":
            raise OSError(errno.EPIPE, os.strerror(errno.EPIPE))


@pytest.mark.parametrize("on", ["write", "flush"])
@pytest.mark.parametrize("argv", [
    ["check", "--in", "DOC"], ["check", "--in", "FAIL"], ["check", "--in", "MISSING"],
    ["--help"]], ids=" ".join)
def test_a_report_that_stdout_refuses_is_an_input_error(capsys, monkeypatch, entry_paths,
                                                        argv, on):
    # one line on stderr and exit 2, as an unwritable --out is: no internal
    # error, and no second report into the same stream
    monkeypatch.setattr(sys, "stdout", Refusing(on))
    code, _, err = run_argv(capsys, [entry_paths.get(a, a) for a in argv])
    assert (code, err) == (2, "xprod: error: cannot write report: Broken pipe\n")


@pytest.mark.parametrize("unbuffered", ["1", None])
def test_a_pipe_closed_early_is_an_input_error(entry_paths, unbuffered):
    # the report is far larger than a pipe buffer, so the child is still
    # writing when the reader goes; with and without Python's own buffer
    proc = subprocess.Popen([sys.executable, "-m", "xprod", "search", "--in", entry_paths["F3"]],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env(PYTHONUNBUFFERED=unbuffered))
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (2, b"xprod: error: cannot write report: Broken pipe\n")


def closed_child(argv, fd, **streams):
    """``python -m xprod argv`` in a child started with ``fd`` closed, which
    Python then sets as None for its ``sys.stdout`` (1) or ``sys.stderr`` (2)."""
    return subprocess.run([sys.executable, "-m", "xprod", *argv], env=child_env(),
                          preexec_fn=lambda: os.close(fd), **streams)


@pytest.mark.parametrize("argv", [
    ["check", "--in", "DOC"], ["check", "--in", "FAIL"], ["check", "--in", "MISSING"],
    ["--help"]], ids=" ".join)
def test_a_closed_stdout_is_an_input_error(entry_paths, argv):
    # a stdout that was never open refuses the report or the help text: one
    # line on stderr and exit 2, with no second report and no traceback
    proc = closed_child([entry_paths.get(a, a) for a in argv], 1, stderr=subprocess.PIPE)
    assert (proc.returncode, proc.stderr) == (
        2, b"xprod: error: cannot write report: Bad file descriptor\n")


@pytest.mark.parametrize("argv, code", [
    (["check", "--in", "DOC", "--seed", "x"], 2), (["check", "--in", "DOC"], 0)],
    ids=lambda x: " ".join(x) if isinstance(x, list) else str(x))
def test_a_closed_stderr_changes_no_exit_code(capsys, entry_paths, argv, code):
    # a refused command line writes its usage nowhere and still exits 2; a
    # report goes to stdout as it does with stderr open
    argv = [entry_paths.get(a, a) for a in argv]
    proc = closed_child(argv, 2, stdout=subprocess.PIPE)
    assert (proc.returncode, proc.stdout.decode()) == run_argv(capsys, argv)[:2]
    assert proc.returncode == code

"""End-to-end command-line behavior: parsing, reports, determinism, exit codes."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import xprod

from fixtures import (
    F2,
    Q,
    corpus,
    doc_algebra as fmt_alg,
    doc_map as fmt_map,
    dual_numbers,
    twosided_doc as shared_twosided_doc,
)
from xprod.cli import main, parse_document, serialize_document

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


MINIMAL = {
    "field": {"kind": "rationals"},
    "algebras": {"k": {"dim": 1, "unit": ["1"], "mul": [[["1"]]]}},
}


def test_minimal_document_parses():
    doc = parse_document(json.dumps(MINIMAL))
    assert doc.algebras["k"].dim == 1


def test_scalar_normalized_on_echo():
    # e0 * e0 = -1/2 e0 written with a signed denominator, unit -2: unital since
    # (-2) * (-1/2) = 1
    obj = json.loads(json.dumps(MINIMAL))
    obj["algebras"]["k"]["mul"] = [[["3/-6"]]]
    obj["algebras"]["k"]["unit"] = ["2/-1"]
    doc = parse_document(json.dumps(obj))
    echoed = serialize_document(doc)
    assert '"-1/2"' in echoed
    assert '"-2"' in echoed


def test_parse_serialize_identity_on_canonical_documents():
    data = CORPUS["q-dual-graded-super"]
    text = json.dumps(twosided_doc(data, Q))
    canonical = serialize_document(parse_document(text))
    again = serialize_document(parse_document(canonical))
    assert canonical == again


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


REFUSED_SCALARS = {"1MB-string": '"' + "9" * 500_000 + "x" + "9" * 500_000 + '"',
                   "980-deep-list": "[" * 980 + "]" * 980}


@pytest.mark.parametrize("kind", sorted(REFUSED_SCALARS))
def test_refused_scalar_report_is_bounded(tmp_path, kind):
    # the report names the path and an excerpt of the value; a fresh process
    # keeps the stack shallow enough to decode the list
    scalar = REFUSED_SCALARS[kind]
    path = tmp_path / "doc.json"
    path.write_text('{"field": {"kind": "rationals"}, "spaces": {"V": {"dim": 1, "unit": ['
                    + scalar + "]}}}", encoding="utf-8")
    src = str(Path(xprod.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "xprod", "check", "--in", str(path)],
                          capture_output=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 2
    assert proc.stderr == b""
    assert len(proc.stdout) < 4096
    rep = json.loads(proc.stdout)
    assert rep["error"]["message"].startswith("$.spaces.V.unit[0]: bad scalar ")


def test_short_refused_scalar_message_unchanged(tmp_path):
    obj = {"field": {"kind": "rationals"}, "spaces": {"V": {"dim": 1, "unit": ["1/0"]}}}
    rc, rep, _ = run(["check", "--in", write_doc(tmp_path, obj)], tmp_path)
    assert rc == 2
    assert rep["error"]["message"] == "$.spaces.V.unit[0]: bad scalar '1/0': Fraction(1, 0)"


def test_unexpected_exception_is_internal_error(tmp_path, capsys, monkeypatch):
    import xprod.cli

    def broken(data):
        raise RuntimeError("boom")

    monkeypatch.setattr(xprod.cli, "check_twosided", broken)
    doc = write_doc(tmp_path, twosided_doc(CORPUS["q-dual-flip-trivial"], Q))
    capsys.readouterr()
    rc = main(["check", "--in", doc])
    captured = capsys.readouterr()
    rep = json.loads(captured.out)
    assert rc == 3
    assert rep["status"] == "internal-error"
    assert rep["error"] == {"type": "RuntimeError", "message": "boom"}
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


def search_doc():
    d = dual_numbers(F2)
    fl_matrix = [["1", "0", "0", "0"], ["0", "0", "1", "0"],
                 ["0", "1", "0", "0"], ["0", "0", "0", "1"]]
    return {
        "field": {"kind": "prime", "p": 2},
        "algebras": {"A": fmt_alg(F2, d), "C": fmt_alg(F2, d)},
        "spaces": {"V": {"dim": 2, "unit": ["1", "0"]}},
        "maps": {
            "flVA": {"domain": ["V", "A"], "codomain": ["A", "V"], "matrix": fl_matrix},
            "flCV": {"domain": ["C", "V"], "codomain": ["V", "C"], "matrix": fl_matrix},
            "flCA": {"domain": ["C", "A"], "codomain": ["A", "C"], "matrix": fl_matrix},
        },
        "datasets": {"s": {"type": "search", "A": "A", "V": "V", "C": "C",
                           "mode": "randomized", "budget": 40, "seed": 3,
                           "frozen": {"R1": "flVA", "R2": "flCV", "R3": "flCA"}}},
    }


def test_search_reports_are_byte_identical_across_threads(tmp_path, monkeypatch):
    doc = write_doc(tmp_path, search_doc())
    monkeypatch.setenv("XPROD_THREADS", "1")
    rc1, rep1, raw1 = run(["search", "--in", doc, "--seed", "9"], tmp_path)
    monkeypatch.setenv("XPROD_THREADS", "4")
    rc2, rep2, raw2 = run(["search", "--in", doc, "--seed", "9"], tmp_path)
    monkeypatch.delenv("XPROD_THREADS")
    rc3, rep3, raw3 = run(["search", "--in", doc, "--seed", "9"], tmp_path)
    assert rc1 == rc2 == rc3 == 0
    assert raw1 == raw2 == raw3
    assert rep1["outputs"]["count"] == len(rep1["outputs"]["solutions"])


def test_check_reports_byte_identical_across_runs_and_threads(tmp_path, monkeypatch):
    doc = write_doc(tmp_path, twosided_doc(CORPUS["q-dual-graded-super"], Q))
    monkeypatch.setenv("XPROD_THREADS", "1")
    _, _, raw1 = run(["check", "--in", doc], tmp_path)
    monkeypatch.setenv("XPROD_THREADS", "8")
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
def test_report_bytes_pinned(tmp_path, doc_name):
    obj = (all_kinds_doc() if doc_name == "all-kinds"
           else twosided_doc(CORPUS[doc_name], None))
    assert report_digest(tmp_path, obj) == PINNED_DIGESTS[doc_name]


def test_readme_dataset_table_matches_the_cli_table():
    from xprod.cli import DATASET_TYPES
    readme = Path(__file__).resolve().parents[1] / "README.md"
    rows = dict(re.findall(r"^\| `(\w+)` \| `([^`]*)`", readme.read_text("utf-8"), re.M))
    assert rows == {kind: " ".join(key for key, _ in t.keys)
                    for kind, t in DATASET_TYPES.items()}

"""Failure paths that only malformed input reaches, pinned exactly: the unit
and counit laws that fail on the right only, the axiom failures of
``build_brzezinski`` and ``build_mirror``, the CLI's refusals of a malformed
algebra, space or coalgebra, a forced build of a two-sided product that is
not unital, the exit code of every error class, and the one way each kind of
failure is raised."""

import ast
import hashlib
import json
from pathlib import Path

import pytest

from fixtures import Q, algebra_from_table, corpus, dual_numbers, twosided_doc
from xprod import (
    BrzData,
    MirrorData,
    TwoSidedData,
    build_brzezinski,
    build_mirror,
    cli,
    errors,
    flip,
    grouplike_coalgebra,
    lift_twisting_to_brzezinski,
    lift_twisting_to_mirror,
    new_coalgebra,
)
from xprod.cli import main
from xprod.errors import AxiomFailure, CounitFail, NotUnital, UnitNotGrouplike
from xprod.exactla import from_columns, shape

ONE, ZERO = Q.one, Q.zero
# e_0 is a left unit but not a right one: e_0 e_1 = e_1, e_1 e_0 = 0
LEFT_UNIT_ONLY = [[(ONE, ZERO), (ZERO, ONE)], [(ZERO, ZERO), (ZERO, ZERO)]]
# comul(e_i) = e_0 (x) e_i is coassociative, and counit e_0* is a left counit only
COMUL_E0 = [(ONE, ZERO, ZERO, ZERO), (ZERO, ONE, ZERO, ZERO)]


def test_unit_law_failing_on_the_right_only():
    with pytest.raises(NotUnital) as exc:
        algebra_from_table(Q, LEFT_UNIT_ONLY, (ONE, ZERO))
    w = exc.value.witness
    assert (w.indices, w.identity, w.left, w.right) == (
        (1,), "right unit law", (ZERO, ZERO), (ZERO, ONE))
    assert str(exc.value) == "right unit law fails at basis vector 1"


def test_counit_law_failing_on_the_right_only():
    comul = from_columns(Q, shape(2), shape(2, 2), COMUL_E0)
    counit = from_columns(Q, shape(2), shape(1), [(ONE,), (ZERO,)])
    with pytest.raises(CounitFail) as exc:
        new_coalgebra(Q, 2, comul, counit, (ONE, ZERO))
    w = exc.value.witness
    assert (w.indices, w.identity, w.left, w.right) == (
        (1,), "right counit law", (ZERO, ZERO), (ZERO, ONE))
    assert str(exc.value) == "right counit law fails at basis vector 1"


def test_zero_coalgebra_unit_is_refused_by_its_counit():
    # comul(0) = 0 (x) 0 holds, so the counit refusal is the one that fires
    h = grouplike_coalgebra(Q, 2)
    with pytest.raises(UnitNotGrouplike) as exc:
        new_coalgebra(Q, 2, h.comul, h.counit, (ZERO, ZERO))
    assert str(exc.value) == "counit(1_H) != 1"


def shifted(m, j):
    """``m`` with the first entry of column j moved by one."""
    cols = [m.column(t) for t in range(m.domain.total)]
    cols[j] = (Q.add(cols[j][0], ONE),) + cols[j][1:]
    return from_columns(Q, m.domain, m.codomain, cols)


A = dual_numbers(Q)
BRZ = lift_twisting_to_brzezinski(A, A, flip(Q, 2, 2))
MIR = lift_twisting_to_mirror(A, A, flip(Q, 2, 2))


@pytest.mark.parametrize("build, data, message", [
    (build_brzezinski, BrzData(BRZ.A, BRZ.V, BRZ.R, shifted(BRZ.sigma, 1)),
     "crossed product conditions fail: brz2, brz4"),
    (build_brzezinski, BrzData(BRZ.A, BRZ.V, shifted(BRZ.R, 1), BRZ.sigma),
     "crossed product conditions fail: brz1, brz3, brz5"),
    (build_mirror, MirrorData(MIR.W, MIR.B, MIR.P, shifted(MIR.nu, 1)),
     "mirror crossed product conditions fail: mircocunit, mir1"),
    (build_mirror, MirrorData(MIR.W, MIR.B, shifted(MIR.P, 1), MIR.nu),
     "mirror crossed product conditions fail: mirtwunit, mirtwmap, mir1, mir2"),
])
def test_crossed_product_builds_refuse_data_failing_their_conditions(build, data, message):
    with pytest.raises(AxiomFailure) as exc:
        build(data)
    assert str(exc.value) == message
    assert ", ".join(exc.value.report.failed_names()) == message.split(": ")[1]


def run_cli(tmp_path, obj, command=("check",)):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(obj), encoding="utf-8")
    out = tmp_path / "report.json"
    rc = main([command[0], "--in", str(doc), *command[1:], "--out", str(out)])
    return rc, out.read_bytes()


def doc_with(section, name, spec):
    return {"field": {"kind": "rationals"}, section: {name: spec}}


# e_1 e_1 = e_2 and e_2 e_1 = e_1, but e_1 e_2 = 0
NOT_ASSOCIATIVE = {"dim": 3, "unit": ["1", "0", "0"],
                   "mul": [[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                           [["0", "1", "0"], ["0", "0", "1"], ["0", "0", "0"]],
                           [["0", "0", "1"], ["0", "1", "0"], ["0", "0", "0"]]]}
NOT_UNITAL = {"dim": 2, "unit": ["1", "0"],
              "mul": [[["1", "0"], ["0", "1"]], [["0", "0"], ["0", "0"]]]}
COUNIT_RIGHT = {"dim": 2, "comul": [["1", "0"], ["0", "1"], ["0", "0"], ["0", "0"]],
                "counit": [["1", "0"]], "unit": ["1", "0"]}
# comul(e_1) = e_0⊗e_1 + e_1⊗e_1: (comul⊗id) and (id⊗comul) differ by e_1⊗e_0⊗e_1
NOT_COASSOCIATIVE = {"dim": 2, "comul": [["1", "0"], ["0", "1"], ["0", "0"], ["0", "1"]],
                     "counit": [["1", "0"]], "unit": ["1", "0"]}
# two grouplikes: their sum is counital but not grouplike
NOT_GROUPLIKE = {"dim": 2, "comul": [["1", "0"], ["0", "0"], ["0", "0"], ["0", "1"]],
                 "counit": [["1", "1"]], "unit": ["1", "1"]}


@pytest.mark.parametrize("obj, message", [
    (doc_with("algebras", "A", NOT_ASSOCIATIVE),
     "$.algebras.A: associativity fails at basis triple (1, 1, 1)"),
    (doc_with("algebras", "A", NOT_UNITAL),
     "$.algebras.A: right unit law fails at basis vector 1"),
    (doc_with("spaces", "V", {"dim": 2, "unit": ["0", "0"]}),
     "$.spaces.V: distinguished element must be nonzero"),
    (doc_with("coalgebras", "H", COUNIT_RIGHT),
     "$.coalgebras.H: right counit law fails at basis vector 1"),
    (doc_with("coalgebras", "H", NOT_COASSOCIATIVE),
     "$.coalgebras.H: coassociativity fails at basis vector 1"),
    (doc_with("coalgebras", "H", NOT_GROUPLIKE),
     "$.coalgebras.H: comul(1_H) != 1_H (x) 1_H"),
], ids=["not-associative", "not-unital", "zero-unit", "counit-right", "not-coassociative",
        "unit-not-grouplike"])
def test_cli_refuses_malformed_structures_with_their_path(tmp_path, obj, message):
    rc, raw = run_cli(tmp_path, obj)
    assert rc == 2
    want = {"command": "check", "conditions": [], "dataset": None, "outputs": {},
            "error": {"message": message, "type": "DocumentError"}, "status": "error"}
    assert raw.decode("utf-8") == json.dumps(want, sort_keys=True, indent=2,
                                             ensure_ascii=False) + "\n"


def test_forced_build_of_a_product_that_is_not_unital_on_the_right(tmp_path):
    # one entry of R1 at a column (v, a) with a = 1_A: the product of
    # q-ut2-pointed-line fails its right unit law first
    d = dict(corpus())["q-ut2-pointed-line"]
    cols = [d.R1.column(t) for t in range(d.R1.domain.total)]
    cols[2] = cols[2][:1] + (Q.add(cols[2][1], ONE),) + cols[2][2:]
    r1 = from_columns(Q, d.R1.domain, d.R1.codomain, cols)
    mutant = TwoSidedData(d.A, d.V, d.C, r1, d.R2, d.R3, d.E)
    rc, raw = run_cli(tmp_path, twosided_doc(mutant), ("build", "--force"))
    assert rc == 1
    rep = json.loads(raw)
    assert rep["outputs"]["failure"] == "not-unital"
    assert rep["conditions"][0]["witness"]["identity"] == "right unit law"
    assert hashlib.sha256(raw).hexdigest() == (
        "f58ae1222332aa92a2f8eca0dae82d981d35958d42d83c121f7ab40192990d18")


EXIT_CODES = {
    1: ("AxiomFailure", "LawFailure", "SplitFail", "NotAlgebraMap", "UnitMismatch", "PremiseFail",
        "NotAssociative", "NotUnital", "NotCoassociative", "CounitFail", "UnitNotGrouplike"),
    2: ("DocumentError", "ShapeMismatch", "FieldMismatch", "PreconditionFail",
        "SearchSpaceTooLarge"),
    3: ("InternalCheckError",),
}


def test_every_error_class_has_its_exit_code(monkeypatch, tmp_path):
    # a class added to errors.py fails here until it is classified, rather
    # than exiting 3 as an unknown exception
    classes = {name: cls for name, cls in vars(errors).items() if isinstance(cls, type)
               and issubclass(cls, errors.XprodError) and cls is not errors.XprodError}
    table = {name: code for code, names in EXIT_CODES.items() for name in names}
    assert sorted(table) == sorted(classes)
    assert {name: cls.exit_code for name, cls in classes.items()} == table
    with pytest.raises(TypeError):  # a class that names no exit code cannot be defined
        class Unclassified(errors.XprodError):
            pass
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(twosided_doc(dict(corpus())["q-dual-flip-trivial"])),
                   encoding="utf-8")
    for name, code in table.items():
        def raise_it(*_, cls=classes[name]):
            raise cls.__new__(cls)

        monkeypatch.setitem(cli._HANDLERS, "check", raise_it)
        rc = main(["check", "--in", str(doc), "--out", str(tmp_path / "report.json")])
        assert rc == code, name


PACKAGE = Path(errors.__file__).parent
# the function and the Report method that build an InternalCheckError from
# a ``routes`` argument
ROUTE_HELPERS = ("_routes_agree", "disagreement")


def called_name(node):
    return getattr(node.func, "id", None) or getattr(node.func, "attr", None)


def package_calls(*names):
    """(module, enclosing top-level definition, call node) of every call of a
    function or method named in ``names`` in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and called_name(node) in names:
                    yield path.stem, getattr(top, "name", None), node


def test_one_internal_error_class_and_each_raise_names_two_routes():
    # exit 3 is one class, and every internal error names the two routes that
    # disagreed: a literal pair, or the pair a route helper was given
    assert [name for name, cls in vars(errors).items() if isinstance(cls, type)
            and issubclass(cls, errors.XprodError) and cls.exit_code == 3
            and cls is not errors.XprodError] == ["InternalCheckError"]
    calls = list(package_calls("InternalCheckError", *ROUTE_HELPERS))
    assert {called_name(node) for _, _, node in calls} >= set(ROUTE_HELPERS)
    for module, top, node in calls:
        routes = node.args[1]
        assert (isinstance(routes, ast.Tuple) and len(routes.elts) == 2) or (
            top in ("_routes_agree", "Report") and isinstance(routes, ast.Name)
            and routes.id == "routes"), (module, top, ast.unparse(node))
    # a function that builds one by hand compares no two maps' columns: every
    # comparison of two maps goes through _routes_agree
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if getattr(top, "name", None) in ROUTE_HELPERS or not any(
                    isinstance(node, ast.Call) and called_name(node) == "InternalCheckError"
                    for node in ast.walk(top)):
                continue
            assert not any(isinstance(node, ast.Attribute) and node.attr == "cols"
                           for node in ast.walk(top)), (path.stem, top.name)
    # and a failing report stops a construction one way, Report.require
    assert [(module, top) for module, top, _ in package_calls("AxiomFailure")] == [
        ("report", "Report")]


def test_routes_agree_looks_for_a_witness_only_when_the_maps_differ(monkeypatch):
    from xprod import algebra

    honest = algebra._column_witness
    monkeypatch.setattr(algebra, "_column_witness", lambda *sides: pytest.fail("scanned"))
    m = flip(Q, 2, 3)
    algebra._routes_agree("flip", ("left", "right"), m, m)
    monkeypatch.setattr(algebra, "_column_witness", honest)
    other = from_columns(Q, m.domain, m.codomain, [m.column(j) for j in (0, 2, 1, 3, 4, 5)])
    with pytest.raises(errors.InternalCheckError) as exc:
        algebra._routes_agree("flip", ("left", "right"), m, other)
    assert str(exc.value) == "flip: left and right disagree at (0, 1)"
    assert (exc.value.routes, exc.value.witness.left, exc.value.witness.right) == (
        ("left", "right"), m.column(1), m.column(2))


def test_any_library_refusal_of_an_entry_is_an_input_error_at_its_path(monkeypatch, tmp_path):
    # not only the refusals that a section parser raises today: any XprodError
    def refuse(*_):
        raise errors.PreconditionFail("boom")

    monkeypatch.setattr(cli, "PointedSpace", refuse)
    rc, raw = run_cli(tmp_path, twosided_doc(dict(corpus())["q-dual-flip-trivial"]))
    assert rc == 2
    assert json.loads(raw)["error"] == {"type": "DocumentError", "message": "$.spaces.V: boom"}

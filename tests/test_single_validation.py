"""The two-sided product is the one algebra that ``agree``, ``transport`` and
``extract`` validate: every other presentation is compared with it exactly.
Corrupting one entry of a derived presentation must surface through that
comparison, and the number of associativity scans per command is pinned."""

import json
from types import SimpleNamespace

import pytest

from fixtures import Q, corpus, dual_numbers, twosided_doc, twosided_graded
from test_cli import all_kinds_doc
from test_pinned_witnesses import with_entry
from xprod import algebra, cli, constructions, crossed, twosided
from xprod.algebra import FinAlgebra
from xprod.cli import main
from xprod.constructions import transport
from xprod.errors import (AxiomFailure, InternalCheckError, NotAlgebraMap, SplitFail,
                          UnitMismatch)
from xprod.record import replace
from xprod.exactla import TensorMap
from xprod.report import ConditionResult, Report, Witness
from xprod.twosided import build_twosided, extract, presentations_agree

CORPUS = dict(corpus())
FLIP_FLIP = CORPUS["q-dual-flip-trivial"]   # R1 = R3 = flip: both transports apply


def bumped(m: TensorMap, *cols) -> TensorMap:
    """m with one added to the entry of row 0 in each of the given columns."""
    for col in cols:
        m = with_entry(m, col, 0, m.field.add(dict(m.cols[col]).get(0, m.field.zero), m.field.one))
    return m


def corrupt(monkeypatch, module, name, *cols):
    """Wrap ``module.name`` so that the map it returns is :func:`bumped`."""
    honest = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: bumped(honest(*args), *cols))


def run_cli(tmp_path, command):
    doc, out = tmp_path / "doc.json", tmp_path / "report.json"
    doc.write_text(json.dumps(twosided_doc(FLIP_FLIP)), encoding="utf-8")
    rc = main([command, "--in", str(doc), "--out", str(out)])
    return rc, json.loads(out.read_text(encoding="utf-8"))


def test_agree_reports_the_first_differing_column(monkeypatch, tmp_path):
    # a presentation that differs from the validated product is an internal
    # error, exit 3, whose witness is the first differing column
    assert [(e.name, e.passed, e.witness) for e in presentations_agree(FLIP_FLIP).entries] == [
        ("brzezinski-presentation", True, None), ("mirror-presentation", True, None)]
    corrupt(monkeypatch, twosided, "_brz_product", 37, 9)
    main_mul = build_twosided(FLIP_FLIP).mul
    with pytest.raises(InternalCheckError) as exc:
        presentations_agree(FLIP_FLIP)
    assert exc.value.routes == ("two-sided product", "crossed-product presentation")
    w = exc.value.witness
    assert w.indices == (1, 1)  # column 9 of the [8, 8] product
    assert w.left == main_mul.column(9)
    assert w.right == (main_mul.column(9)[0] + 1,) + main_mul.column(9)[1:]
    assert w.identity == "structure constants"
    rc, obj = run_cli(tmp_path, "agree")
    assert rc == 3
    assert obj["status"] == "internal-error" and obj["conditions"] == []
    assert obj["error"]["routes"] == ["two-sided product", "crossed-product presentation"]
    assert obj["error"]["witness"] == {
        "indices": [1, 1], "identity": "structure constants",
        "left": [str(x) for x in w.left], "right": [str(x) for x in w.right]}


def test_agree_derived_data_failing_its_conditions_is_internal(monkeypatch, tmp_path):
    # σ gains e_0 in column 9: the derived crossed-product data fail brz4,
    # though the two-sided conditions that imply it pass; the error carries
    # that entry's witness
    honest = twosided.derive_maps
    monkeypatch.setattr(twosided, "derive_maps",
                        lambda d: replace(honest(d), sigma=bumped(honest(d).sigma, 9)))
    with pytest.raises(InternalCheckError) as exc:
        presentations_agree(FLIP_FLIP)
    failure = exc.value.__cause__
    assert isinstance(failure, AxiomFailure) and failure.report.failed_names() == ("brz4",)
    assert exc.value.witness == failure.report.get("brz4").witness
    assert str(exc.value) == ("brz4 of the derived crossed-product data: two-sided conditions "
                              "and crossed-product conditions disagree at (1, 2, 1)")
    rc, obj = run_cli(tmp_path, "agree")
    assert rc == 3
    assert obj["error"]["routes"] == ["two-sided conditions", "crossed-product conditions"]
    assert obj["error"]["witness"]["indices"] == [1, 2, 1]


def test_transported_mirror_data_failing_its_conditions_is_internal(monkeypatch, tmp_path):
    # ν(1_V⊗x) gains e_0: the mirror data that transport derives fail
    # mircocunit and mir1, though the two-sided conditions that imply them
    # pass; the error carries mircocunit's witness
    honest = constructions.MirrorData
    monkeypatch.setattr(constructions, "MirrorData",
                        lambda w, b, p, nu: honest(w, b, p, bumped(nu, 1)))
    with pytest.raises(InternalCheckError) as exc:
        transport(FLIP_FLIP)
    routes = ("two-sided conditions", "mirror conditions")
    assert exc.value.routes == routes
    assert str(exc.value) == ("mircocunit, mir1 of the transported mirror data: two-sided "
                              "conditions and mirror conditions disagree at (1,)")
    witness = {"indices": [1], "identity": "ν(1_W⊗w)=w⊗1_B",
               "left": ["1", "0", "0", "0", "1", "0", "0", "0"],
               "right": ["0", "0", "0", "0", "1", "0", "0", "0"]}
    rc, obj = run_cli(tmp_path, "transport")
    assert rc == 3
    assert obj["status"] == "internal-error"
    assert obj["error"]["routes"] == list(routes)
    assert obj["error"]["witness"] == witness


def test_induced_map_failing_the_algebra_map_check_is_internal(monkeypatch, tmp_path):
    # the product the induced map is checked against gains e_0 in its last
    # column, (x⊗x⊗x)(x⊗x⊗x): the premises pass, so f must be an algebra map
    # out of it, and the check that it is one fails at (7, 7)
    honest = twosided.build_twosided

    def corrupted(d):
        m = honest(d)
        return replace(m, mul=bumped(m.mul, m.dim * m.dim - 1))

    monkeypatch.setattr(twosided, "build_twosided", corrupted)
    doc, out = tmp_path / "doc.json", tmp_path / "report.json"
    doc.write_text(json.dumps(all_kinds_doc()), encoding="utf-8")
    rc = main(["universal", "--dataset", "u", "--in", str(doc), "--out", str(out)])
    obj = json.loads(out.read_text(encoding="utf-8"))
    assert rc == 3
    assert obj["status"] == "internal-error"
    assert obj["error"] == {
        "type": "InternalCheckError",
        "message": "mult of the induced map: premises and algebra-map check disagree at (7, 7)",
        "routes": ["premises", "algebra-map check"],
        "witness": {"indices": [7, 7], "identity": "f(ab)=f(a)f(b)",
                    "left": ["1", "0", "0", "0", "0", "0", "0", "0"], "right": ["0"] * 8}}


@pytest.mark.parametrize("module, name, route, indices", [
    # column 5 of [V, B', V, B'] is (v, b, v', b') = (0, 0, 1, 1): no post-build
    # identity of the mirror product reads it, since v' is not 1_V
    pytest.param(crossed, "_mirror_mul", "mirror presentation", (0, 0, 1, 1),
                 id="xprod.crossed-_mirror_mul-mirror presentation differs from the permuted "
                    "product"),
    # column 5 of [V, A⊗C, V, A⊗C], the domain of the chain through J, T, γ, η
    pytest.param(constructions, "_chain_map", "L-R presentation", (0, 0, 1, 1),
                 id="xprod.constructions-_chain_map-L-R presentation differs from the permuted "
                    "product"),
])
def test_transport_equality_failure_is_internal(monkeypatch, tmp_path, module, name, route,
                                                indices):
    corrupt(monkeypatch, module, name, 5)
    with pytest.raises(InternalCheckError) as exc:
        transport(FLIP_FLIP)
    message = f"transported product: {route} and permuted product disagree at {indices}"
    assert str(exc.value) == message
    assert exc.value.witness.indices == indices
    rc, obj = run_cli(tmp_path, "transport")
    assert rc == 3
    assert obj["status"] == "internal-error"
    assert {key: obj["error"][key] for key in ("type", "message", "routes")} == {
        "type": "InternalCheckError", "message": message,
        "routes": [route, "permuted product"]}
    assert obj["error"]["witness"]["indices"] == list(indices)


def test_transport_refuses_data_failing_the_twosided_conditions():
    # E(1_V⊗x) gains a 1_A⊗1_V⊗1_C term: the one validation of the two-sided
    # product refuses the data before either presentation is built
    data = replace(FLIP_FLIP, E=bumped(FLIP_FLIP.E, 1))
    with pytest.raises(AxiomFailure) as exc:
        transport(data)
    assert str(exc.value) == "two-sided crossed product conditions fail: unit-E, equiv6"


def test_extract_cross_checks_the_rebuilt_product(monkeypatch):
    d = FLIP_FLIP
    m = build_twosided(d)
    corrupt(monkeypatch, twosided, "_chain_map", 5)
    with pytest.raises(InternalCheckError) as exc:
        extract(m, d.A, d.V, d.C)
    assert str(exc.value) == "two-sided product: chain and composite disagree at (0, 0, 0, 1, 0, 1)"


def test_extract_compares_the_rebuilt_product_with_m():
    # (x⊗x⊗x)(x⊗x⊗x), the last column, is read by no split or algebra-map
    # check: the extracted maps are d's, and only the rebuild tells M apart
    d = FLIP_FLIP
    m = build_twosided(d)
    mutant = FinAlgebra(m.field, m.dim, bumped(m.mul, m.dim * m.dim - 1), m.unit)
    with pytest.raises(InternalCheckError) as exc:
        extract(mutant, d.A, d.V, d.C)
    last = m.dim - 1
    assert str(exc.value) == (
        f"the split algebra: input and rebuilt product disagree at {(last, last)}")
    assert exc.value.witness.left == mutant.mul.column(m.dim * m.dim - 1)
    assert exc.value.witness.right == m.mul.column(m.dim * m.dim - 1)


def count_calls(monkeypatch, fn):
    """The argument tuples of every call of ``fn`` made through any package
    module that binds it."""
    calls = []

    def counted(*args):
        calls.append(args)
        return fn(*args)

    for module in (algebra, cli, constructions, crossed, twosided):
        for name, value in list(vars(module).items()):
            if value is fn:
                monkeypatch.setattr(module, name, counted)
    return calls


ALL_KINDS = cli.parse_document(json.dumps(all_kinds_doc()))
# R1 the sign-twisted flip of odd x in A and V, R2 and R3 flips (C is even):
# only remark 2 of transport applies
_dq = dual_numbers(Q)
_r1_super = twosided_doc(twosided_graded(_dq, _dq, _dq, (0, 1), (0, 1), (0, 0)))
_r1_super["datasets"] = {"r1-super": _r1_super["datasets"]["d"]}
R1_SUPER = cli.parse_document(json.dumps(_r1_super))


@pytest.mark.parametrize("command, dataset, counts", [
    ("agree", "d", [1, 1, 1, 1]), ("transport", "d", [2, 1, 1, 1]),
    ("extract", "d", [1, 1, 1, 0]), ("build", "g", [1, 1, 1, 0]),
    ("transport", "r1-super", [2, 1, 1, 0])])
def test_associativity_scans_per_command(monkeypatch, command, dataset, counts):
    # counts: associativity scans, then calls of check_twosided, _raw_product
    # and check_mirror.  "d" has flips for R1, R2 and R3; "g" is coalgebra-based
    # (ma) data; "r1-super" has R3 but not R1 the flip.  The two-sided product,
    # and the one A (x)_R3 C that both remarks of a transport build on, are
    # validated; nothing that must equal them is.  extract checks and rebuilds
    # the maps it extracts only when they differ from the dataset's.
    calls = [count_calls(monkeypatch, fn) for fn in (
        algebra.associativity_witness, twosided.check_twosided, twosided._raw_product,
        crossed.check_mirror)]
    doc = ALL_KINDS if dataset in ALL_KINDS.datasets else R1_SUPER
    kind, entry = doc.datasets[dataset]
    rep, _ = cli._HANDLERS[command](doc, dataset, kind, entry, SimpleNamespace(force=False))
    assert rep.all_pass
    assert [len(c) for c in calls] == counts


def test_extract_command_round_trips_split_maps_that_differ(monkeypatch):
    # a wrong split is refused: the dataset's own maps built the product, so a
    # split map that differs from them is an internal error
    kind, entry = ALL_KINDS.datasets["d"]
    split = cli._split

    def wrong(m, a, v, c):
        got = split(m, a, v, c)
        return replace(got, E=bumped(got.E, len(got.E.cols) - 1))

    monkeypatch.setattr(cli, "_split", wrong)
    with pytest.raises(InternalCheckError) as exc:
        cli._HANDLERS["extract"](ALL_KINDS, "d", kind, entry, SimpleNamespace(force=False))
    assert str(exc.value) == "split map E: dataset and split product disagree at (1, 1)"
    assert exc.value.routes == ("dataset", "split product")
    assert exc.value.witness.identity == "split map E"


SPLIT_WITNESS = Witness((0, 1), (1, 0), (0, 0), "component outside the allowed span")


@pytest.mark.parametrize("error", [
    SplitFail(SPLIT_WITNESS, "ajut1"),
    NotAlgebraMap("a ↦ a⊗1_V⊗1_C", Report((ConditionResult("unit", False),))),
    UnitMismatch("unit of M is not 1_A ⊗ 1_V ⊗ 1_C")], ids=lambda e: type(e).__name__)
def test_extract_command_failing_split_is_an_internal_error(tmp_path, monkeypatch, error):
    # the dataset's maps pass the twelve conditions and built the product, so a
    # split of it that fails is xprod's own fault: exit 3 naming both routes
    def failing(m, a, v, c):
        raise error

    monkeypatch.setattr(cli, "_split", failing)
    doc, out = tmp_path / "doc.json", tmp_path / "report.json"
    doc.write_text(json.dumps(all_kinds_doc()), encoding="utf-8")
    rc = main(["extract", "--in", str(doc), "--dataset", "d", "--out", str(out)])
    rep = json.loads(out.read_text(encoding="utf-8"))
    assert (rc, rep["status"]) == (3, "internal-error")
    assert rep["error"]["type"] == "InternalCheckError"
    assert rep["error"]["routes"] == ["dataset", "split product"]
    assert rep["error"]["message"] == f"{error}: dataset and split product disagree" + (
        " at (0, 1)" if isinstance(error, SplitFail) else "")
    if isinstance(error, SplitFail):
        assert rep["error"]["witness"] == {"indices": [0, 1], "left": ["1", "0"],
                                           "right": ["0", "0"],
                                           "identity": "component outside the allowed span"}
    else:
        assert "witness" not in rep["error"]


def test_failing_ma_build_keeps_its_message():
    kind, entry = ALL_KINDS.datasets["g"]
    # tau(h⊗h') = 0 breaks the unit law of E
    tau = replace(entry.tau, cols=((),) * len(entry.tau.cols))
    with pytest.raises(AxiomFailure) as exc:
        cli.DATASET_TYPES[kind].build(replace(entry, tau=tau))
    assert str(exc.value) == "coalgebra-based data fails two-sided conditions: unit-E"

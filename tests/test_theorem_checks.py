"""A check that the paper's theorems settle fails as an internal error.

Data that pass a construction's conditions give an associative unital
product, and a product split back gives the maps it was built from.  So when
one of these fails, the fault is in xprod: each path below raises
:class:`InternalCheckError` naming the conditions and the check that
disagree, with the failing law's witness, and the command line exits 3.
Each test corrupts its construction past the earlier checks; the split of a
twosided dataset's product is tested in ``test_single_validation.py``."""

import hashlib
import json
import random

import pytest

from fixtures import Q, corpus, dual_numbers, twosided_doc, upper_triangular2
from test_single_validation import bumped, corrupt
from xprod import constructions, crossed, twosided
from xprod.cli import main
from xprod.constructions import iterated_ttp
from xprod.crossed import (
    build_brzezinski,
    build_mirror,
    build_ttp,
    lift_twisting_to_brzezinski,
    lift_twisting_to_mirror,
)
from xprod.errors import InternalCheckError
from xprod.exactla import flip
from xprod.report import Report, Witness
from xprod.twosided import build_twosided

FLIP_FLIP = dict(corpus())["q-dual-flip-trivial"]
DQ, UT = dual_numbers(Q), upper_triangular2(Q)
ASSOCIATIVITY = "(xy)z=x(yz)"


def raised(call, *args):
    with pytest.raises(InternalCheckError) as exc:
        call(*args)
    assert isinstance(exc.value.witness, Witness)
    return exc.value


def test_two_sided_product_failing_a_law_is_internal(monkeypatch):
    # the product's last column, (x⊗x⊗x)(x⊗x⊗x), gains e_0 after the chain
    # and composite routes agreed on it
    corrupt(monkeypatch, twosided, "_raw_product", 63)
    exc = raised(build_twosided, FLIP_FLIP)
    assert str(exc) == ("(xy)z=x(yz): two-sided conditions and built product disagree "
                        "at (1, 6, 7)")
    assert exc.routes == ("two-sided conditions", "built product")
    assert exc.witness.identity == ASSOCIATIVITY


def test_brzezinski_product_failing_a_law_is_internal(monkeypatch):
    # (x⊗e22)(x⊗e22), read by no post-build identity, gains e_0
    corrupt(monkeypatch, crossed, "_brz_product", 35)
    exc = raised(build_brzezinski, lift_twisting_to_brzezinski(DQ, UT, flip(Q, 3, 2)))
    assert exc.routes == ("crossed product conditions", "built product")
    assert (exc.witness.identity, exc.witness.indices) == (ASSOCIATIVITY, (0, 5, 5))


def test_mirror_product_failing_a_law_is_internal(monkeypatch):
    # (e22⊗x)(e22⊗x), read by no post-build identity, gains e_0
    honest = crossed._mirror_product
    monkeypatch.setattr(crossed, "_mirror_product",
                        lambda d: (bumped(honest(d)[0], 35), honest(d)[1]))
    exc = raised(build_mirror, lift_twisting_to_mirror(UT, DQ, flip(Q, 2, 3)))
    assert exc.routes == ("mirror conditions", "built product")
    assert (exc.witness.identity, exc.witness.indices) == (ASSOCIATIVITY, (0, 5, 5))


def test_twisted_tensor_product_failing_a_law_is_internal(monkeypatch):
    # R(x⊗x) gains 1⊗1, and the twisting conditions that refuse it are taken
    # to pass
    monkeypatch.setattr(crossed, "check_twisting", lambda r, a, b: Report(()))
    exc = raised(build_ttp, DQ, DQ, bumped(flip(Q, 2, 2), 3))
    assert str(exc) == ("(xy)z=x(yz): twisting map conditions and built product "
                        "disagree at (1, 1, 2)")
    assert exc.routes == ("twisting map conditions", "built product")


def test_iterated_data_failing_a_two_sided_condition_is_internal(monkeypatch):
    # E(e11⊗e11) gains 1⊗e11⊗1 in A ⊗ B ⊗ C, though the preconditions, which
    # do not read E, pass
    honest = constructions.product_connector
    monkeypatch.setattr(constructions, "product_connector", lambda a, b, c: bumped(
        honest(a, b, c), 0))
    exc = raised(iterated_ttp, DQ, UT, DQ, flip(Q, 3, 2), flip(Q, 2, 3), flip(Q, 2, 2))
    assert exc.routes == ("iterated preconditions", "two-sided conditions")
    assert str(exc) == ("unit-E, equiv6 of iterated data: iterated preconditions and "
                        "two-sided conditions disagree at (0,)")


def run(tmp_path, *argv):
    doc, out = tmp_path / "doc.json", tmp_path / "report.json"
    doc.write_text(json.dumps(twosided_doc(FLIP_FLIP)), encoding="utf-8")
    rc = main([*argv, "--in", str(doc), "--out", str(out)])
    return rc, out.read_bytes()


@pytest.mark.parametrize("command", ["build", "agree"])
def test_command_on_a_product_failing_a_law_exits_3(monkeypatch, tmp_path, command):
    corrupt(monkeypatch, twosided, "_raw_product", 63)
    rc, raw = run(tmp_path, command)
    obj = json.loads(raw)
    assert rc == 3
    assert obj["status"] == "internal-error"
    assert obj["error"]["type"] == "InternalCheckError"
    assert obj["error"]["routes"] == ["two-sided conditions", "built product"]
    assert obj["error"]["witness"]["indices"] == [1, 6, 7]
    assert obj["error"]["witness"]["identity"] == ASSOCIATIVITY


def test_forced_build_of_that_product_reports_the_failure_as_data(monkeypatch, tmp_path):
    # the same bytes as before a failing law became an internal error
    corrupt(monkeypatch, twosided, "_raw_product", 63)
    rc, raw = run(tmp_path, "build", "--force")
    obj = json.loads(raw)
    assert rc == 1
    assert obj["outputs"]["failure"] == "not-associative"
    assert obj["conditions"][0]["witness"]["identity"] == ASSOCIATIVITY
    assert hashlib.sha256(raw).hexdigest() == (
        "76c3721ccb64bebc70bb134a8e61ab3510a8e995a61e1f449d94f47d7e906890")


# -- exit 3 means a bug: no document reaches it ------------------------------------

MUTANT_COMMANDS = (["check"], ["build"], ["build", "--force"], ["agree"], ["extract"],
                   ["transport"])


def scalar_slots(obj):
    """(list, index) of each scalar of a document's units, structure
    constants and map matrices."""
    def leaves(x):
        if isinstance(x, list):
            for i, y in enumerate(x):
                if isinstance(y, list):
                    yield from leaves(y)
                else:
                    yield x, i

    for section, key in (("algebras", "unit"), ("algebras", "mul"), ("spaces", "unit"),
                         ("maps", "matrix")):
        for spec in obj[section].values():
            yield from leaves(spec[key])


@pytest.mark.parametrize("name", [name for name, _ in corpus()])
def test_single_scalar_mutants_never_exit_3(tmp_path, name):
    # four mutants of each corpus document, each with one scalar replaced by
    # a small integer: whatever the commands decide, none is an internal error
    rng = random.Random(f"23:{name}")
    base = json.dumps(twosided_doc(dict(corpus())[name]))
    doc, out = tmp_path / "doc.json", tmp_path / "report.json"
    for _ in range(4):
        obj = json.loads(base)
        slots = list(scalar_slots(obj))
        row, i = rng.choice(slots)
        row[i] = str(rng.randint(-2, 2))
        doc.write_text(json.dumps(obj), encoding="utf-8")
        for argv in MUTANT_COMMANDS:
            rc = main([*argv, "--in", str(doc), "--out", str(out)])
            assert rc in (0, 1, 2), (argv, out.read_text(encoding="utf-8"))

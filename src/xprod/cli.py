"""Command-line interface: parse structure documents, run checks and builds,
emit deterministic machine-readable reports.

Documents are JSON objects with the sections ``field``, ``algebras``,
``spaces``, ``coalgebras``, ``maps`` and ``datasets``; see the README for the
full format.  Scalars are carried as strings ("-1/2" over the rationals, a
canonical residue over a prime field); structure constants are nested arrays
``c[i][j][k]`` with ``e_i e_j = sum_k c[i][j][k] e_k``; matrices are row-major
over flat indices.

Reports are canonical JSON: sorted keys, normalized scalars, LF endings, no
timestamps, so output bytes depend only on the input document and seed.
Exit codes: 0 all conditions pass, 1 axiom failure, 2 input error, 3 internal
error (two internal routes disagreed, or any other unexpected exception).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace
from typing import Callable, Optional

from .algebra import (
    FinAlgebra,
    PointedSpace,
    new_algebra,
    new_coalgebra,
)
from .constructions import (
    MaData,
    SearchSpec,
    iterated_report,
    iterated_ttp,
    ma_build,
    ma_twosided,
    remark1_transport,
    remark2_lr,
    search_fp,
    _prefixed,
)
from .crossed import (
    BrzData,
    MirrorData,
    _brz_shapes,
    _mirror_shapes,
    build_brzezinski,
    build_mirror,
    build_ttp,
    check_brzezinski,
    check_mirror,
    check_twisting,
)
from .errors import (
    AxiomFailure,
    DocumentError,
    FieldMismatch,
    InternalCheckError,
    NotAlgebraMap,
    NotAlgebraMapResult,
    NotAssociative,
    NotCoassociative,
    CounitFail,
    NotUnital,
    PreconditionFail,
    PremiseFail,
    RoundTripMismatch,
    SearchSpaceTooLarge,
    ShapeMismatch,
    SplitFail,
    UnitMismatch,
    UnitNotGrouplike,
)
from .exactla import (
    Field,
    PrimeField,
    RATIONALS,
    TensorMap,
    TensorShape,
    flip,
    from_columns,
    from_rows,
    shape,
)
from .report import ConditionResult, Report, Witness, merge
from .twosided import (
    TWIST_LEGS,
    TwoSidedData,
    build_twosided,
    check_twosided,
    extract,
    force_build_twosided,
    presentations_agree,
    universal_map,
)

# exit code of each error class; the report status of each nonzero code
_EXIT_CODES = {
    AxiomFailure: 1, SplitFail: 1, NotAlgebraMap: 1, UnitMismatch: 1, PremiseFail: 1,
    NotAssociative: 1, NotUnital: 1, NotCoassociative: 1, CounitFail: 1,
    UnitNotGrouplike: 1,
    DocumentError: 2, ShapeMismatch: 2, FieldMismatch: 2, PreconditionFail: 2,
    SearchSpaceTooLarge: 2, ValueError: 2,
    InternalCheckError: 3, RoundTripMismatch: 3, NotAlgebraMapResult: 3,
}
_STATUS = {1: "fail", 2: "error", 3: "internal-error"}


# -- document model -----------------------------------------------------------

@dataclass
class Document:
    field: Field
    algebras: dict
    spaces: dict
    coalgebras: dict
    maps: dict
    map_domains: dict   # map name -> (domain names, codomain names)
    datasets: dict      # name -> (type, resolved entry)
    raw_datasets: dict  # name -> normalized reference dict, for echoing


def _expect(cond, path, message):
    if not cond:
        raise DocumentError(path, message)


def _is_int(value):
    # a JSON boolean is a Python int, but never a count or a modulus
    return isinstance(value, int) and not isinstance(value, bool)


def _excerpt(text):
    # at most 64 characters of a refused scalar, or of the reason, in a message
    return text if len(text) <= 64 else text[:64] + "..."


def _parse_scalar(field, value, path):
    # the field refuses JSON floats and booleans rather than truncating them
    try:
        return field.parse(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise DocumentError(
            path, f"bad scalar {_excerpt(repr(value))}: {_excerpt(str(exc))}") from exc


def _parse_vector(field, value, n, path):
    _expect(isinstance(value, list) and len(value) == n, path,
            f"expected a list of {n} scalars")
    return tuple(_parse_scalar(field, x, f"{path}[{i}]") for i, x in enumerate(value))


def _parse_matrix(field, value, nrows, ncols, path):
    _expect(isinstance(value, list) and len(value) == nrows, path,
            f"expected {nrows} matrix rows")
    return tuple(_parse_vector(field, row, ncols, f"{path}[{r}]")
                 for r, row in enumerate(value))


def _parse_field(obj, path):
    _expect(isinstance(obj, dict), path, "field spec must be an object")
    kind = obj.get("kind")
    if kind == "rationals":
        _expect(set(obj) == {"kind"}, path, "unexpected keys in field spec")
        return RATIONALS
    if kind == "prime":
        _expect(set(obj) == {"kind", "p"}, path, "field spec needs exactly 'kind' and 'p'")
        p = obj.get("p")
        _expect(_is_int(p), f"{path}.p", "modulus must be an integer")
        try:
            return PrimeField(p)
        except ValueError as exc:
            raise DocumentError(f"{path}.p", str(exc)) from exc
    raise DocumentError(f"{path}.kind", f"unknown field kind {kind!r}")


# -- dataset types ------------------------------------------------------------
#
# Every dataset type is declared once here: its references in resolution order,
# each naming an algebra, a pointed space (an algebra name gives its unit), a
# coalgebra, a map or an earlier twosided dataset; the function that turns the
# resolved references into the entry, raising on bad shapes; and its check and
# build.  The twosided, brzezinski, mirror and ma entries are the library's data
# classes, the others the dict of resolved references.  Library functions are
# named inside lambdas so that they are looked up when called: a function
# rebound on this module after import, as the benchmark's span tracer does, is
# then the one that runs.

@dataclass(frozen=True)
class _DatasetType:
    keys: tuple                   # (key, reference kind), in resolution order
    make: Callable                # (refs, spec, path, resolve) -> entry
    check: Optional[Callable] = None
    build: Optional[Callable] = None
    options: tuple = ()           # keys that may be left out


def _ttp_entry(refs, *_):
    a, b, r = refs["A"], refs["B"], refs["R"]
    if r.domain.dims != (b.dim, a.dim) or r.codomain.dims != (a.dim, b.dim):
        raise ShapeMismatch("R must map [B,A] to [A,B]")
    return refs


def _iterated_entry(refs, *_):
    dims = (refs["A"].dim, refs["B"].dim, refs["C"].dim)
    for label, (x, y) in TWIST_LEGS.items():
        dom, cod = (dims[x], dims[y]), (dims[y], dims[x])
        if refs[label].domain.dims != dom or refs[label].codomain.dims != cod:
            raise ShapeMismatch(f"{label} must map {list(dom)} to {list(cod)}")
    return refs


def _extraction_entry(refs, *_):
    if refs["M"].dim != refs["A"].dim * refs["V"].dim * refs["C"].dim:
        raise ShapeMismatch("M dimension does not factor as dim A * dim V * dim C")
    return refs


def _universal_entry(refs, *_):
    d, x = refs["data"], refs["X"]
    for label, src in (("fA", d.A.dim), ("fV", d.V.dim), ("fC", d.C.dim)):
        if refs[label].domain.total != src or refs[label].codomain.total != x.dim:
            raise ShapeMismatch(f"{label} must map [{src}] to [{x.dim}]")
    return refs


def _search_entry(refs, spec, path, resolve):
    mode = spec.get("mode", "exhaustive")
    _expect(mode in ("exhaustive", "randomized"), f"{path}.mode",
            f"unknown search mode {mode!r}")
    frozen_spec = spec.get("frozen", {})
    _expect(isinstance(frozen_spec, dict), f"{path}.frozen",
            "frozen must map labels to map names")
    frozen = {}
    for label, ref in frozen_spec.items():
        _expect(label in ("R1", "R2", "R3", "E"), f"{path}.frozen.{label}",
                "frozen labels must be among R1, R2, R3, E")
        frozen[label] = resolve("map", ref, f"{path}.frozen.{label}")
    counts = {key: spec[key] for key in ("budget", "seed", "cap") if key in spec}
    for key, value in counts.items():
        _expect(_is_int(value) and value >= 0, f"{path}.{key}",
                "must be a nonnegative integer")
    a, v, c = refs["A"], refs["V"], refs["C"]
    return dict(refs, spec=SearchSpec(a.field, (a.dim, v.dim, c.dim), mode,
                                      frozen=frozen, **counts))


_T = _DatasetType
_AVC = (("A", "algebra"), ("V", "space"), ("C", "algebra"))
DATASET_TYPES = {
    "twosided": _T(_AVC + (("R1", "map"), ("R2", "map"), ("R3", "map"), ("E", "map")),
                   lambda refs, *_: TwoSidedData(**refs),
                   lambda e: check_twosided(e), lambda e: build_twosided(e)),
    "brzezinski": _T((("A", "algebra"), ("V", "space"), ("R", "map"), ("sigma", "map")),
                     lambda refs, *_: _brz_shapes(BrzData(**refs)),
                     lambda e: check_brzezinski(e), lambda e: build_brzezinski(e)),
    "mirror": _T((("W", "space"), ("B", "algebra"), ("P", "map"), ("nu", "map")),
                 lambda refs, *_: _mirror_shapes(MirrorData(**refs)),
                 lambda e: check_mirror(e), lambda e: build_mirror(e)),
    "ttp": _T((("A", "algebra"), ("B", "algebra"), ("R", "map")), _ttp_entry,
              lambda e: check_twisting(e["R"], e["A"], e["B"]),
              lambda e: build_ttp(e["A"], e["B"], e["R"])),
    "iterated": _T((("A", "algebra"), ("B", "algebra"), ("C", "algebra"),
                    ("R1", "map"), ("R2", "map"), ("R3", "map")), _iterated_entry,
                   lambda e: iterated_report(e["A"], e["B"], e["C"],
                                             e["R1"], e["R2"], e["R3"]),
                   lambda e: iterated_ttp(e["A"], e["B"], e["C"],
                                          e["R1"], e["R2"], e["R3"])),
    "ma": _T((("H", "coalgebra"), ("A", "algebra"), ("B", "algebra"), ("G", "map"),
              ("R", "map"), ("T", "map"), ("tau", "map")),
             lambda refs, *_: MaData(**refs),
             lambda e: check_twosided(ma_twosided(e)),
             lambda e: build_twosided(ma_build(e))),
    "extraction": _T((("M", "algebra"),) + _AVC, _extraction_entry),
    "universal": _T((("data", "dataset"), ("X", "algebra"), ("fA", "map"),
                     ("fV", "map"), ("fC", "map")), _universal_entry),
    "search": _T(_AVC, _search_entry, options=("mode", "budget", "seed", "cap", "frozen")),
}


def parse_document(text: str) -> Document:
    """Parse and fully validate a document; the first error wins."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"line {exc.lineno}, column {exc.colno}", exc.msg) from exc
    except RecursionError as exc:
        raise DocumentError("$", "document is nested too deeply") from exc
    _expect(isinstance(obj, dict), "$", "document must be a JSON object")
    known = {"field", "algebras", "spaces", "coalgebras", "maps", "datasets"}
    for key in obj:
        _expect(key in known, f"$.{key}", "unknown section")
    _expect("field" in obj, "$.field", "missing field spec")
    field = _parse_field(obj["field"], "$.field")

    def section(name):
        value = obj.get(name, {})
        _expect(isinstance(value, dict), f"$.{name}", "section must be an object")
        return value

    dims_ns: dict[str, int] = {}

    def declare(name, dim, path):
        _expect(isinstance(name, str) and name, path, "names must be nonempty strings")
        _expect(name not in dims_ns, path, f"name {name!r} already defined")
        dims_ns[name] = dim

    algebras = {}
    for name, spec in section("algebras").items():
        path = f"$.algebras.{name}"
        _expect(isinstance(spec, dict), path, "algebra spec must be an object")
        _expect(set(spec) == {"dim", "unit", "mul"}, path,
                "algebra spec needs exactly 'dim', 'unit', 'mul'")
        dim = spec["dim"]
        _expect(_is_int(dim) and dim >= 1, f"{path}.dim",
                "dimension must be a positive integer")
        unit = _parse_vector(field, spec["unit"], dim, f"{path}.unit")
        mul_spec = spec["mul"]
        _expect(isinstance(mul_spec, list) and len(mul_spec) == dim, f"{path}.mul",
                f"structure constants must be a {dim}-element array c[i][j][k]")
        columns = []
        for i, row in enumerate(mul_spec):
            _expect(isinstance(row, list) and len(row) == dim, f"{path}.mul[{i}]",
                    f"expected {dim} entries")
            for j, cell in enumerate(row):
                columns.append(_parse_vector(field, cell, dim, f"{path}.mul[{i}][{j}]"))
        mul = from_columns(field, shape(dim, dim), shape(dim), columns)
        try:
            algebras[name] = new_algebra(field, dim, mul, unit)
        except (NotAssociative, NotUnital) as exc:
            raise DocumentError(path, str(exc)) from exc
        declare(name, dim, path)

    spaces = {}
    for name, spec in section("spaces").items():
        path = f"$.spaces.{name}"
        _expect(isinstance(spec, dict), path, "space spec must be an object")
        _expect(set(spec) == {"dim", "unit"}, path,
                "space spec needs exactly 'dim' and 'unit'")
        dim = spec["dim"]
        _expect(_is_int(dim) and dim >= 1, f"{path}.dim",
                "dimension must be a positive integer")
        unit = _parse_vector(field, spec["unit"], dim, f"{path}.unit")
        try:
            spaces[name] = PointedSpace(field, dim, unit)
        except ShapeMismatch as exc:
            raise DocumentError(path, str(exc)) from exc
        declare(name, dim, path)

    coalgebras = {}
    for name, spec in section("coalgebras").items():
        path = f"$.coalgebras.{name}"
        _expect(isinstance(spec, dict), path, "coalgebra spec must be an object")
        _expect(set(spec) == {"dim", "comul", "counit", "unit"}, path,
                "coalgebra spec needs exactly 'dim', 'comul', 'counit', 'unit'")
        dim = spec["dim"]
        _expect(_is_int(dim) and dim >= 1, f"{path}.dim",
                "dimension must be a positive integer")
        comul = from_rows(field, shape(dim), shape(dim, dim),
                          _parse_matrix(field, spec["comul"], dim * dim, dim,
                                        f"{path}.comul"))
        counit = from_rows(field, shape(dim), shape(1),
                           _parse_matrix(field, spec["counit"], 1, dim,
                                         f"{path}.counit"))
        unit = _parse_vector(field, spec["unit"], dim, f"{path}.unit")
        try:
            coalgebras[name] = new_coalgebra(field, dim, comul, counit, unit)
        except (NotCoassociative, CounitFail, UnitNotGrouplike, ShapeMismatch) as exc:
            raise DocumentError(path, str(exc)) from exc
        declare(name, dim, path)

    maps = {}
    map_shapes = {}
    for name, spec in section("maps").items():
        path = f"$.maps.{name}"
        _expect(isinstance(spec, dict), path, "map spec must be an object")
        _expect(set(spec) == {"domain", "codomain", "matrix"}, path,
                "map spec needs exactly 'domain', 'codomain', 'matrix'")
        _expect(name not in maps, path, f"map {name!r} already defined")

        def resolve_dims(key):
            names = spec[key]
            _expect(isinstance(names, list) and names, f"{path}.{key}",
                    "expected a nonempty list of space names")
            dims = []
            for t, ref in enumerate(names):
                _expect(isinstance(ref, str) and ref in dims_ns, f"{path}.{key}[{t}]",
                        f"unresolved reference {ref!r}")
                dims.append(dims_ns[ref])
            return tuple(names), TensorShape(tuple(dims))

        dom_names, dom = resolve_dims("domain")
        cod_names, cod = resolve_dims("codomain")
        rows = _parse_matrix(field, spec["matrix"], cod.total, dom.total,
                             f"{path}.matrix")
        maps[name] = from_rows(field, dom, cod, rows)
        map_shapes[name] = (list(dom_names), list(cod_names))

    def resolve(kind, ref, path):
        if kind == "dataset":
            _expect(isinstance(ref, str) and datasets.get(ref, (None,))[0] == "twosided",
                    path, f"{ref!r} must name an earlier twosided dataset")
            return datasets[ref][1]
        if kind == "space" and isinstance(ref, str) and ref in algebras:
            return algebras[ref].as_pointed()
        table = {"algebra": algebras, "space": spaces, "coalgebra": coalgebras,
                 "map": maps}[kind]
        _expect(isinstance(ref, str) and ref in table, path,
                f"unresolved {kind} reference {ref!r}")
        return table[ref]

    datasets = {}
    raw_datasets = {}
    for name, spec in section("datasets").items():
        path = f"$.datasets.{name}"
        _expect(isinstance(spec, dict), path, "dataset spec must be an object")
        kind = spec.get("type")
        dtype = DATASET_TYPES.get(kind) if isinstance(kind, str) else None
        if dtype is None:
            raise DocumentError(f"{path}.type", f"unknown dataset type {kind!r}")
        keys = [key for key, _ in dtype.keys]
        required = {"type", *keys}
        _expect(required <= set(spec) <= required | set(dtype.options), path,
                f"{kind} dataset needs {', '.join(keys)}"
                + (" and search options" if dtype.options else ""))
        try:
            refs = {key: resolve(ref_kind, spec[key], f"{path}.{key}")
                    for key, ref_kind in dtype.keys}
            datasets[name] = (kind, dtype.make(refs, spec, path, resolve))
        except (ShapeMismatch, FieldMismatch) as exc:
            raise DocumentError(path, str(exc)) from exc
        raw_datasets[name] = dict(spec)

    return Document(field, algebras, spaces, coalgebras, maps, map_shapes,
                    datasets, raw_datasets)


# -- canonical serialization --------------------------------------------------

def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _vec_obj(field, v):
    return [field.fmt(x) for x in v]


def _matrix_obj(field, m: TensorMap):
    return [[field.fmt(x) for x in row] for row in m.rows]


def _mul_obj(field, alg: FinAlgebra):
    return [[_vec_obj(field, alg.basis_product(i, j)) for j in range(alg.dim)]
            for i in range(alg.dim)]


def serialize_document(doc: Document) -> str:
    field_obj = ({"kind": "rationals"} if doc.field == RATIONALS
                 else {"kind": "prime", "p": doc.field.p})
    obj = {"field": field_obj}
    if doc.algebras:
        obj["algebras"] = {
            name: {"dim": a.dim, "unit": _vec_obj(doc.field, a.unit),
                   "mul": _mul_obj(doc.field, a)}
            for name, a in doc.algebras.items()}
    if doc.spaces:
        obj["spaces"] = {
            name: {"dim": s.dim, "unit": _vec_obj(doc.field, s.unit)}
            for name, s in doc.spaces.items()}
    if doc.coalgebras:
        obj["coalgebras"] = {
            name: {"dim": h.dim, "comul": _matrix_obj(doc.field, h.comul),
                   "counit": _matrix_obj(doc.field, h.counit),
                   "unit": _vec_obj(doc.field, h.unit)}
            for name, h in doc.coalgebras.items()}
    if doc.maps:
        obj["maps"] = {
            name: {"domain": list(doc.map_domains[name][0]),
                   "codomain": list(doc.map_domains[name][1]),
                   "matrix": _matrix_obj(doc.field, m)}
            for name, m in doc.maps.items()}
    if doc.raw_datasets:
        obj["datasets"] = {name: dict(spec) for name, spec in doc.raw_datasets.items()}
    return canonical_json(obj)


def _witness_obj(field, w: Witness | None):
    if w is None:
        return None
    return {"indices": list(w.indices), "identity": w.identity,
            "left": _vec_obj(field, w.left), "right": _vec_obj(field, w.right)}


def _report_obj(field, rep: Report):
    return [{"name": e.name, "passed": e.passed, "informational": e.informational,
             "witness": _witness_obj(field, e.witness)} for e in rep.entries]


def _algebra_obj(field, alg: FinAlgebra):
    return {"dim": alg.dim, "unit": _vec_obj(field, alg.unit),
            "mul": _mul_obj(field, alg)}


# -- command handlers ---------------------------------------------------------
#
# Each handler takes (document, dataset name, dataset type, entry, parsed
# arguments) and returns the report and its outputs.

def _only(kind, wanted, command):
    if kind != wanted:
        raise PreconditionFail(f"{command} applies only to {wanted} datasets")


def _run_check(doc, name, kind, entry, args):
    check = DATASET_TYPES[kind].check
    if check is None:
        raise PreconditionFail(
            f"dataset {name!r} of this type cannot be checked; "
            "use the matching command instead")
    return check(entry), {}


def _run_build(doc, name, kind, entry, args):
    field = doc.field
    if args.force:
        if kind != "twosided":
            raise PreconditionFail("--force applies only to twosided datasets")
        outcome = force_build_twosided(entry)
        n = entry.A.dim * entry.V.dim * entry.C.dim
        mul_nested = [[_vec_obj(field, outcome.mul.column(i * n + j))
                       for j in range(n)] for i in range(n)]
        outputs = {"mul": mul_nested, "unit": _vec_obj(field, outcome.unit)}
        if outcome.failure is not None:
            outputs["failure"] = outcome.failure
        return Report((ConditionResult("built-associative-unital", outcome.failure is None,
                                       outcome.witness),)), outputs
    build = DATASET_TYPES[kind].build
    if build is None:
        raise PreconditionFail(f"dataset {name!r} of this type cannot be built")
    return (Report((ConditionResult("built-associative-unital", True),)),
            {"algebra": _algebra_obj(field, build(entry))})


def _run_agree(doc, name, kind, entry, args):
    _only(kind, "twosided", "agree")
    return presentations_agree(entry), {}


def _maps_obj(field, data: TwoSidedData):
    return {"R1": _matrix_obj(field, data.R1), "R2": _matrix_obj(field, data.R2),
            "R3": _matrix_obj(field, data.R3), "E": _matrix_obj(field, data.E)}


def _run_extract(doc, name, kind, entry, args):
    if kind == "twosided":
        got = extract(build_twosided(entry), entry.A, entry.V, entry.C)
        rep = Report(tuple(
            ConditionResult(f"roundtrip-{label}", getattr(got, label).cols ==
                            getattr(entry, label).cols)
            for label in ("R1", "R2", "R3", "E")))
    elif kind == "extraction":
        got = extract(entry["M"], entry["A"], entry["V"], entry["C"])
        rep = Report((ConditionResult("extracted-and-rebuilt", True),))
    else:
        raise PreconditionFail("extract applies to twosided or extraction datasets")
    return rep, {"maps": _maps_obj(doc.field, got)}


def _run_universal(doc, name, kind, entry, args):
    _only(kind, "universal", "universal")
    f = universal_map(entry["data"], entry["X"], entry["fA"], entry["fV"], entry["fC"])
    labels = ("fA", "fC", "unit-fV", "premise-1", "premise-2", "algebra-map")
    return (Report(tuple(ConditionResult(l, True) for l in labels)),
            {"matrix": _matrix_obj(doc.field, f)})


def _run_search(doc, name, kind, entry, args):
    _only(kind, "search", "search")
    spec = entry["spec"] if args.seed is None else replace(entry["spec"], seed=args.seed)
    results = search_fp(spec, entry["A"], entry["V"], entry["C"])
    sols = [_maps_obj(doc.field, d) for d in results]
    return (Report((ConditionResult("search-complete", True),)),
            {"count": len(results), "solutions": sols})


def _run_transport(doc, name, kind, entry, args):
    _only(kind, "twosided", "transport")
    f = doc.field
    outputs = {}
    reports = []
    remarks = (("remark1", entry.R1, entry.V, lambda: remark1_transport(entry)),
               ("remark2", entry.R3, entry.C, lambda: remark2_lr(entry)))
    for label, r, x, transport in remarks:
        outputs[label] = "not-applicable"
        if r.cols == flip(f, x.dim, entry.A.dim).cols:
            reports.append(_prefixed(label, transport()[-1]))
            outputs[label] = "ok"
    if not reports:
        raise PreconditionFail("neither R1 nor R3 is the flip map")
    return merge(*reports), outputs


# -- entry point --------------------------------------------------------------

_HANDLERS = {"check": _run_check, "build": _run_build, "agree": _run_agree,
             "extract": _run_extract, "universal": _run_universal,
             "search": _run_search, "transport": _run_transport}
COMMANDS = tuple(_HANDLERS)


def _pick_dataset(doc: Document, wanted):
    if wanted is not None:
        if wanted not in doc.datasets:
            raise DocumentError("$.datasets", f"no dataset named {wanted!r}")
        return wanted, doc.datasets[wanted]
    if len(doc.datasets) == 1:
        name = next(iter(doc.datasets))
        return name, doc.datasets[name]
    if not doc.datasets:
        raise DocumentError("$.datasets", "document defines no datasets")
    raise DocumentError("$.datasets",
                        "--dataset is required when a document has several datasets")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="xprod",
        description="Check, build, transport and search crossed-product structures.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--in", dest="infile", required=True, metavar="FILE",
                        help="input document (JSON)")
    parser.add_argument("--out", dest="outfile", metavar="FILE",
                        help="write the report here instead of stdout")
    parser.add_argument("--dataset", metavar="NAME",
                        help="dataset to operate on (default: the only one)")
    parser.add_argument("--condition", metavar="LABEL",
                        help="restrict the report to one named condition")
    parser.add_argument("--seed", type=int, metavar="N",
                        help="override the search seed")
    parser.add_argument("--force", action="store_true",
                        help="build without requiring the checks to pass")
    args = parser.parse_args(argv)

    report_skeleton = {"command": args.command, "dataset": None}
    field = None  # known once the document parses; only witnesses need it

    def finish(obj, code):
        text = canonical_json(obj)
        if args.outfile:
            with open(args.outfile, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return code

    try:
        try:
            with open(args.infile, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise DocumentError(args.infile, f"cannot read input: {exc.strerror}")
        doc = parse_document(text)
        field = doc.field
        name, (kind, entry) = _pick_dataset(doc, args.dataset)
        report_skeleton["dataset"] = name
        rep, outputs = _HANDLERS[args.command](doc, name, kind, entry, args)

        if args.condition is not None:
            rep = rep.restricted([args.condition])
            if not rep.entries:
                raise DocumentError("--condition",
                                    f"no condition named {args.condition!r}")
        return finish(dict(report_skeleton, status="pass" if rep.all_pass else "fail",
                           conditions=_report_obj(field, rep), outputs=outputs),
                      0 if rep.all_pass else 1)

    except Exception as exc:  # any exception outside _EXIT_CODES is a bug: exit 3
        code = next((c for cls, c in _EXIT_CODES.items() if isinstance(exc, cls)), 3)
        return finish(dict(report_skeleton, status=_STATUS[code], conditions=[],
                           outputs={}, error=_error_obj(field, exc)), code)


def _error_obj(field, exc):
    obj = {"type": type(exc).__name__, "message": str(exc)}
    witness = getattr(exc, "witness", None)
    if isinstance(witness, tuple):  # a basis tuple, its two sides kept on the error
        witness = Witness(witness, getattr(exc, "left", ()), getattr(exc, "right", ()))
    if isinstance(witness, Witness):
        obj["witness"] = _witness_obj(field, witness)
    report = getattr(exc, "report", None)
    if report is not None:
        obj["failed"] = list(report.failed_names())
    return obj

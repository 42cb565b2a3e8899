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
Exit codes: 0 all conditions pass, 1 axiom failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .algebra import (
    FinAlgebra,
    PointedSpace,
    new_algebra,
    new_coalgebra,
)
from .constructions import (
    MaData,
    SearchSpec,
    braid_report,
    iterated_ttp,
    ma_build,
    ma_connector,
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
    NotAlgebraMap,
    NotAssociative,
    NotCoassociative,
    CounitFail,
    NotUnital,
    PreconditionFail,
    PremiseFail,
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
    TwoSidedData,
    build_twosided,
    check_twosided,
    extract,
    force_build_twosided,
    presentations_agree,
    universal_map,
)

INPUT_ERRORS = (DocumentError, ShapeMismatch, FieldMismatch, PreconditionFail,
                SearchSpaceTooLarge, ValueError)
AXIOM_ERRORS = (AxiomFailure, SplitFail, NotAlgebraMap, UnitMismatch, PremiseFail,
                NotAssociative, NotUnital, NotCoassociative, CounitFail,
                UnitNotGrouplike)


# -- document model -----------------------------------------------------------

@dataclass(frozen=True)
class TtpEntry:
    A: FinAlgebra
    B: FinAlgebra
    R: TensorMap


@dataclass(frozen=True)
class IterEntry:
    A: FinAlgebra
    B: FinAlgebra
    C: FinAlgebra
    R1: TensorMap
    R2: TensorMap
    R3: TensorMap


@dataclass(frozen=True)
class ExtractionEntry:
    M: FinAlgebra
    A: FinAlgebra
    V: PointedSpace
    C: FinAlgebra


@dataclass(frozen=True)
class UniversalEntry:
    data: TwoSidedData
    X: FinAlgebra
    fA: TensorMap
    fV: TensorMap
    fC: TensorMap


@dataclass(frozen=True)
class SearchEntry:
    spec: SearchSpec
    A: FinAlgebra
    V: PointedSpace
    C: FinAlgebra


@dataclass
class Document:
    field: Field
    algebras: dict
    spaces: dict
    coalgebras: dict
    maps: dict
    map_domains: dict   # map name -> (domain names, codomain names)
    datasets: dict      # name -> resolved entry object
    raw_datasets: dict  # name -> normalized reference dict, for echoing


def _expect(cond, path, message):
    if not cond:
        raise DocumentError(path, message)


def _is_int(value):
    # a JSON boolean is a Python int, but never a count or a modulus
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_scalar(field, value, path):
    # the field refuses JSON floats and booleans rather than truncating them
    try:
        return field.parse(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise DocumentError(path, f"bad scalar {value!r}: {exc}") from exc


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


def parse_document(text: str) -> Document:
    """Parse and fully validate a document; the first error wins."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"line {exc.lineno}, column {exc.colno}", exc.msg) from exc
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
                _expect(ref in dims_ns, f"{path}.{key}[{t}]",
                        f"unresolved reference {ref!r}")
                dims.append(dims_ns[ref])
            return tuple(names), TensorShape(tuple(dims))

        dom_names, dom = resolve_dims("domain")
        cod_names, cod = resolve_dims("codomain")
        rows = _parse_matrix(field, spec["matrix"], cod.total, dom.total,
                             f"{path}.matrix")
        maps[name] = from_rows(field, dom, cod, rows)
        map_shapes[name] = (list(dom_names), list(cod_names))

    def resolve(kind, table, ref, path):
        _expect(isinstance(ref, str) and ref in table, path,
                f"unresolved {kind} reference {ref!r}")
        return table[ref]

    def resolve_pointed(ref, path):
        if isinstance(ref, str) and ref in spaces:
            return spaces[ref]
        if isinstance(ref, str) and ref in algebras:
            return algebras[ref].as_pointed()
        raise DocumentError(path, f"unresolved space reference {ref!r}")

    datasets = {}
    raw_datasets = {}
    for name, spec in section("datasets").items():
        path = f"$.datasets.{name}"
        _expect(isinstance(spec, dict), path, "dataset spec must be an object")
        kind = spec.get("type")
        try:
            if kind == "twosided":
                _expect(set(spec) == {"type", "A", "V", "C", "R1", "R2", "R3", "E"},
                        path, "twosided dataset needs A, V, C, R1, R2, R3, E")
                entry = TwoSidedData(
                    resolve("algebra", algebras, spec["A"], f"{path}.A"),
                    resolve_pointed(spec["V"], f"{path}.V"),
                    resolve("algebra", algebras, spec["C"], f"{path}.C"),
                    resolve("map", maps, spec["R1"], f"{path}.R1"),
                    resolve("map", maps, spec["R2"], f"{path}.R2"),
                    resolve("map", maps, spec["R3"], f"{path}.R3"),
                    resolve("map", maps, spec["E"], f"{path}.E"),
                )
            elif kind == "brzezinski":
                _expect(set(spec) == {"type", "A", "V", "R", "sigma"}, path,
                        "brzezinski dataset needs A, V, R, sigma")
                entry = BrzData(
                    resolve("algebra", algebras, spec["A"], f"{path}.A"),
                    resolve_pointed(spec["V"], f"{path}.V"),
                    resolve("map", maps, spec["R"], f"{path}.R"),
                    resolve("map", maps, spec["sigma"], f"{path}.sigma"),
                )
                _brz_shapes(entry)
            elif kind == "mirror":
                _expect(set(spec) == {"type", "W", "B", "P", "nu"}, path,
                        "mirror dataset needs W, B, P, nu")
                entry = MirrorData(
                    resolve_pointed(spec["W"], f"{path}.W"),
                    resolve("algebra", algebras, spec["B"], f"{path}.B"),
                    resolve("map", maps, spec["P"], f"{path}.P"),
                    resolve("map", maps, spec["nu"], f"{path}.nu"),
                )
                _mirror_shapes(entry)
            elif kind == "ttp":
                _expect(set(spec) == {"type", "A", "B", "R"}, path,
                        "ttp dataset needs A, B, R")
                a = resolve("algebra", algebras, spec["A"], f"{path}.A")
                b = resolve("algebra", algebras, spec["B"], f"{path}.B")
                r = resolve("map", maps, spec["R"], f"{path}.R")
                if r.domain.dims != (b.dim, a.dim) or r.codomain.dims != (a.dim, b.dim):
                    raise ShapeMismatch("R must map [B,A] to [A,B]")
                entry = TtpEntry(a, b, r)
            elif kind == "iterated":
                _expect(set(spec) == {"type", "A", "B", "C", "R1", "R2", "R3"}, path,
                        "iterated dataset needs A, B, C, R1, R2, R3")
                a = resolve("algebra", algebras, spec["A"], f"{path}.A")
                b = resolve("algebra", algebras, spec["B"], f"{path}.B")
                c = resolve("algebra", algebras, spec["C"], f"{path}.C")
                r1 = resolve("map", maps, spec["R1"], f"{path}.R1")
                r2 = resolve("map", maps, spec["R2"], f"{path}.R2")
                r3 = resolve("map", maps, spec["R3"], f"{path}.R3")
                for mname, m, dd, cc in (("R1", r1, (b.dim, a.dim), (a.dim, b.dim)),
                                         ("R2", r2, (c.dim, b.dim), (b.dim, c.dim)),
                                         ("R3", r3, (c.dim, a.dim), (a.dim, c.dim))):
                    if m.domain.dims != dd or m.codomain.dims != cc:
                        raise ShapeMismatch(f"{mname} must map {list(dd)} to {list(cc)}")
                entry = IterEntry(a, b, c, r1, r2, r3)
            elif kind == "ma":
                _expect(set(spec) == {"type", "H", "A", "B", "G", "R", "T", "tau"},
                        path, "ma dataset needs H, A, B, G, R, T, tau")
                entry = MaData(
                    resolve("coalgebra", coalgebras, spec["H"], f"{path}.H"),
                    resolve("algebra", algebras, spec["A"], f"{path}.A"),
                    resolve("algebra", algebras, spec["B"], f"{path}.B"),
                    resolve("map", maps, spec["G"], f"{path}.G"),
                    resolve("map", maps, spec["R"], f"{path}.R"),
                    resolve("map", maps, spec["T"], f"{path}.T"),
                    resolve("map", maps, spec["tau"], f"{path}.tau"),
                )
            elif kind == "extraction":
                _expect(set(spec) == {"type", "M", "A", "V", "C"}, path,
                        "extraction dataset needs M, A, V, C")
                m = resolve("algebra", algebras, spec["M"], f"{path}.M")
                a = resolve("algebra", algebras, spec["A"], f"{path}.A")
                v = resolve_pointed(spec["V"], f"{path}.V")
                c = resolve("algebra", algebras, spec["C"], f"{path}.C")
                if m.dim != a.dim * v.dim * c.dim:
                    raise ShapeMismatch(
                        "M dimension does not factor as dim A * dim V * dim C")
                entry = ExtractionEntry(m, a, v, c)
            elif kind == "universal":
                _expect(set(spec) == {"type", "data", "X", "fA", "fV", "fC"}, path,
                        "universal dataset needs data, X, fA, fV, fC")
                inner = spec["data"]
                _expect(inner in datasets and isinstance(datasets[inner], TwoSidedData),
                        f"{path}.data",
                        f"{inner!r} must name an earlier twosided dataset")
                d = datasets[inner]
                x = resolve("algebra", algebras, spec["X"], f"{path}.X")
                fa = resolve("map", maps, spec["fA"], f"{path}.fA")
                fv = resolve("map", maps, spec["fV"], f"{path}.fV")
                fc = resolve("map", maps, spec["fC"], f"{path}.fC")
                for mname, m, src in (("fA", fa, d.A.dim), ("fV", fv, d.V.dim),
                                      ("fC", fc, d.C.dim)):
                    if m.domain.total != src or m.codomain.total != x.dim:
                        raise ShapeMismatch(f"{mname} must map [{src}] to [{x.dim}]")
                entry = UniversalEntry(d, x, fa, fv, fc)
            elif kind == "search":
                allowed = {"type", "A", "V", "C", "mode", "budget", "seed", "cap",
                           "frozen"}
                _expect(set(spec) <= allowed and {"type", "A", "V", "C"} <= set(spec),
                        path, "search dataset needs A, V, C and search options")
                a = resolve("algebra", algebras, spec["A"], f"{path}.A")
                v = resolve_pointed(spec["V"], f"{path}.V")
                c = resolve("algebra", algebras, spec["C"], f"{path}.C")
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
                    frozen[label] = resolve("map", maps, ref, f"{path}.frozen.{label}")
                for key in ("budget", "seed", "cap"):
                    if key in spec:
                        _expect(_is_int(spec[key]) and spec[key] >= 0,
                                f"{path}.{key}", "must be a nonnegative integer")
                entry = SearchEntry(
                    SearchSpec(field, (a.dim, v.dim, c.dim), mode,
                               spec.get("budget", 256), spec.get("seed", 0), frozen,
                               spec.get("cap", 1 << 16)),
                    a, v, c)
            else:
                raise DocumentError(f"{path}.type", f"unknown dataset type {kind!r}")
        except (ShapeMismatch, FieldMismatch) as exc:
            raise DocumentError(path, str(exc)) from exc
        datasets[name] = entry
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

def _run_check(doc, name, entry):
    if isinstance(entry, TwoSidedData):
        return check_twosided(entry), {}
    if isinstance(entry, BrzData):
        return check_brzezinski(entry), {}
    if isinstance(entry, MirrorData):
        return check_mirror(entry), {}
    if isinstance(entry, TtpEntry):
        return check_twisting(entry.R, entry.A, entry.B), {}
    if isinstance(entry, IterEntry):
        return merge(
            _prefixed("R1", check_twisting(entry.R1, entry.A, entry.B)),
            _prefixed("R2", check_twisting(entry.R2, entry.B, entry.C)),
            _prefixed("R3", check_twisting(entry.R3, entry.A, entry.C)),
            braid_report(entry.R1, entry.R2, entry.R3, entry.A, entry.B, entry.C),
        ), {}
    if isinstance(entry, MaData):
        data = TwoSidedData(
            entry.A, PointedSpace(entry.H.field, entry.H.dim, entry.H.unit), entry.B,
            entry.R, entry.T, flip(entry.H.field, entry.B.dim, entry.A.dim),
            ma_connector(entry))
        return check_twosided(data), {}
    raise PreconditionFail(
        f"dataset {name!r} of this type cannot be checked; "
        "use the matching command instead")


def _run_build(doc, name, entry, force):
    field = doc.field
    if force and not isinstance(entry, TwoSidedData):
        raise PreconditionFail("--force applies only to twosided datasets")
    if isinstance(entry, TwoSidedData):
        if force:
            outcome = force_build_twosided(entry)
            n = entry.A.dim * entry.V.dim * entry.C.dim
            mul_nested = [[_vec_obj(field, outcome.mul.column(i * n + j))
                           for j in range(n)] for i in range(n)]
            outputs = {"mul": mul_nested, "unit": _vec_obj(field, outcome.unit)}
            if outcome.failure is None:
                return Report((ConditionResult("built-associative-unital", True),)), outputs
            outputs["failure"] = outcome.failure
            rep = Report((ConditionResult("built-associative-unital", False,
                                          outcome.witness),))
            return rep, outputs
        alg = build_twosided(entry)
    elif isinstance(entry, BrzData):
        alg = build_brzezinski(entry)
    elif isinstance(entry, MirrorData):
        alg = build_mirror(entry)
    elif isinstance(entry, TtpEntry):
        alg = build_ttp(entry.A, entry.B, entry.R)
    elif isinstance(entry, IterEntry):
        alg = iterated_ttp(entry.A, entry.B, entry.C, entry.R1, entry.R2, entry.R3)
    elif isinstance(entry, MaData):
        alg = build_twosided(ma_build(entry))
    else:
        raise PreconditionFail(f"dataset {name!r} of this type cannot be built")
    return (Report((ConditionResult("built-associative-unital", True),)),
            {"algebra": _algebra_obj(field, alg)})


def _run_agree(doc, name, entry):
    if not isinstance(entry, TwoSidedData):
        raise PreconditionFail("agree applies only to twosided datasets")
    return presentations_agree(entry), {}


def _maps_obj(field, data: TwoSidedData):
    return {"R1": _matrix_obj(field, data.R1), "R2": _matrix_obj(field, data.R2),
            "R3": _matrix_obj(field, data.R3), "E": _matrix_obj(field, data.E)}


def _run_extract(doc, name, entry):
    field = doc.field
    if isinstance(entry, TwoSidedData):
        built = build_twosided(entry)
        got = extract(built, entry.A, entry.V, entry.C)
        entries = tuple(
            ConditionResult(f"roundtrip-{label}", getattr(got, label).cols ==
                            getattr(entry, label).cols)
            for label in ("R1", "R2", "R3", "E"))
        return Report(entries), {"maps": _maps_obj(field, got)}
    if isinstance(entry, ExtractionEntry):
        got = extract(entry.M, entry.A, entry.V, entry.C)
        return (Report((ConditionResult("extracted-and-rebuilt", True),)),
                {"maps": _maps_obj(field, got)})
    raise PreconditionFail("extract applies to twosided or extraction datasets")


def _run_universal(doc, name, entry):
    if not isinstance(entry, UniversalEntry):
        raise PreconditionFail("universal applies only to universal datasets")
    f = universal_map(entry.data, entry.X, entry.fA, entry.fV, entry.fC)
    labels = ("fA", "fC", "unit-fV", "premise-1", "premise-2", "algebra-map")
    return (Report(tuple(ConditionResult(l, True) for l in labels)),
            {"matrix": _matrix_obj(doc.field, f)})


def _run_search(doc, name, entry, seed):
    if not isinstance(entry, SearchEntry):
        raise PreconditionFail("search applies only to search datasets")
    spec = entry.spec
    if seed is not None:
        spec = SearchSpec(spec.field, spec.dims, spec.mode, spec.budget, seed,
                          spec.frozen, spec.cap)
    results = search_fp(spec, entry.A, entry.V, entry.C)
    sols = [_maps_obj(doc.field, d) for d in results]
    return (Report((ConditionResult("search-complete", True),)),
            {"count": len(results), "solutions": sols})


def _run_transport(doc, name, entry):
    if not isinstance(entry, TwoSidedData):
        raise PreconditionFail("transport applies only to twosided datasets")
    f = doc.field
    outputs = {}
    reports = []
    r1_is_flip = entry.R1.cols == flip(f, entry.V.dim, entry.A.dim).cols
    r3_is_flip = entry.R3.cols == flip(f, entry.C.dim, entry.A.dim).cols
    if r1_is_flip:
        _, rep = remark1_transport(entry)
        reports.append(_prefixed("remark1", rep))
        outputs["remark1"] = "ok"
    else:
        outputs["remark1"] = "not-applicable"
    if r3_is_flip:
        _, _, rep = remark2_lr(entry)
        reports.append(_prefixed("remark2", rep))
        outputs["remark2"] = "ok"
    else:
        outputs["remark2"] = "not-applicable"
    if not reports:
        raise PreconditionFail("neither R1 nor R3 is the flip map")
    return merge(*reports), outputs


# -- entry point --------------------------------------------------------------

COMMANDS = ("check", "build", "agree", "extract", "universal", "search", "transport")


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
        name, entry = _pick_dataset(doc, args.dataset)
        report_skeleton["dataset"] = name

        if args.command == "check":
            rep, outputs = _run_check(doc, name, entry)
        elif args.command == "build":
            rep, outputs = _run_build(doc, name, entry, args.force)
        elif args.command == "agree":
            rep, outputs = _run_agree(doc, name, entry)
        elif args.command == "extract":
            rep, outputs = _run_extract(doc, name, entry)
        elif args.command == "universal":
            rep, outputs = _run_universal(doc, name, entry)
        elif args.command == "search":
            rep, outputs = _run_search(doc, name, entry, args.seed)
        else:
            rep, outputs = _run_transport(doc, name, entry)

        if args.condition is not None:
            rep = rep.restricted([args.condition])
            if not rep.entries:
                raise DocumentError("--condition",
                                    f"no condition named {args.condition!r}")
        status = "pass" if rep.all_pass else "fail"
        obj = dict(report_skeleton)
        obj["status"] = status
        obj["conditions"] = _report_obj(doc.field, rep)
        obj["outputs"] = outputs
        return finish(obj, 0 if rep.all_pass else 1)

    except AXIOM_ERRORS as exc:
        obj = dict(report_skeleton)
        obj["status"] = "fail"
        obj["conditions"] = []
        obj["outputs"] = {}
        obj["error"] = _error_obj(exc)
        return finish(obj, 1)
    except INPUT_ERRORS as exc:
        obj = dict(report_skeleton)
        obj["status"] = "error"
        obj["conditions"] = []
        obj["outputs"] = {}
        obj["error"] = _error_obj(exc)
        return finish(obj, 2)


def _error_obj(exc):
    # str() matches the canonical scalar format for both Fraction and int
    obj = {"type": type(exc).__name__, "message": str(exc)}
    witness = getattr(exc, "witness", None)
    report = getattr(exc, "report", None)
    if isinstance(witness, Witness):
        obj["witness"] = {"indices": list(witness.indices),
                          "identity": witness.identity,
                          "left": [str(x) for x in witness.left],
                          "right": [str(x) for x in witness.right]}
    elif isinstance(witness, tuple):
        obj["witness"] = {"indices": list(witness), "identity": "",
                          "left": [str(x) for x in getattr(exc, "left", ())],
                          "right": [str(x) for x in getattr(exc, "right", ())]}
    if report is not None:
        obj["failed"] = list(report.failed_names())
    return obj

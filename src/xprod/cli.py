"""Command-line interface: parse structure documents, run checks and builds,
emit deterministic machine-readable reports.

Documents are JSON objects with the sections ``field``, ``algebras``,
``spaces``, ``coalgebras``, ``maps`` and ``datasets``; see the README for the
full format.  After ``field``, one table parses the sections in that order,
as ``DATASET_TYPES`` does for the dataset types.  Scalars are carried as
strings ("-1/2" over the rationals, a canonical residue over a prime field);
structure constants are nested arrays ``c[i][j][k]`` with
``e_i e_j = sum_k c[i][j][k] e_k``; matrices are row-major over flat indices.

Reports are canonical JSON: sorted keys, normalized scalars, LF endings, no
timestamps, so output bytes depend only on the input document and seed.
Exit codes: 0 all conditions pass, 1 axiom failure, 2 input error, 3 internal
error (two internal routes disagreed, or any other unexpected exception).  A
refused command line also exits 2, with the usage and the reason on stderr.
"""

from __future__ import annotations

import json
import re
import sys
from collections.abc import Callable
from itertools import accumulate
from json.encoder import encode_basestring  # the C encoder where _json is built
from types import SimpleNamespace

from .algebra import (
    FinAlgebra,
    PointedSpace,
    _routes_agree,
    new_algebra,
    new_coalgebra,
)
from .constructions import (
    MaData,
    SearchSpec,
    _iterated_twists,
    iterated_report,
    iterated_ttp,
    ma_build,
    ma_twosided,
    search_fp,
    transport,
)
from .crossed import (
    BrzData,
    MirrorData,
    _twisting_shapes,
    build_brzezinski,
    build_mirror,
    build_ttp,
    check_brzezinski,
    check_mirror,
    check_twisting,
)
from .errors import (
    DocumentError,
    InternalCheckError,
    NotAlgebraMap,
    PreconditionFail,
    SplitFail,
    UnitMismatch,
    XprodError,
)
from .exactla import (
    Field,
    PrimeField,
    RATIONALS,
    TensorMap,
    TensorShape,
    from_columns,
    from_rows,
    shape,
)
from .record import record, replace
from .report import ConditionResult, Report, Witness
from .twosided import (
    MAP_NAMES,
    TwoSidedData,
    _extraction_shapes,
    _split,
    _universal_shapes,
    _validated_product,
    build_twosided,
    check_twosided,
    extract,
    force_build_twosided,
    presentations_agree,
    universal_map,
)

# the report status of each nonzero exit code
_STATUS = {1: "fail", 2: "error", 3: "internal-error"}


# -- document model -----------------------------------------------------------

@record
class Document:
    field: Field
    algebras: dict
    datasets: dict      # name -> (type, entry)


def _expect(cond, path, message):
    if not cond:
        raise DocumentError(path, message)


def _is_int(value):
    # a JSON boolean is a Python int, but never a count or a modulus
    return isinstance(value, int) and not isinstance(value, bool)


def _excerpt(text):
    # at most 64 characters of a refused scalar, or of the reason, in a message
    return text if len(text) <= 64 else text[:64] + "..."


def _spec_dim(spec, path, what, keys):
    """Refuse ``spec`` unless it is an object with exactly ``keys``; return its
    ``dim`` (1 when it has none), refused unless a positive integer."""
    _expect(isinstance(spec, dict), path, f"{what} spec must be an object")
    _expect(set(spec) == set(keys), path, f"{what} spec needs exactly "
            + (" and " if len(keys) == 2 else ", ").join(repr(key) for key in keys))
    dim = spec.get("dim", 1)
    _expect(_is_int(dim) and dim >= 1, f"{path}.dim", "dimension must be a positive integer")
    return dim


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
# resolved references into the entry; and its check and build.  The twosided,
# brzezinski, mirror and ma entries are the library's data classes, which refuse
# bad fields and shapes on construction.  The others are the dict of resolved
# references, once the library's own refusal for that input, given them in
# resolution order, accepts them.  Public library functions are named inside
# lambdas so that they are looked up when called: a function rebound on this
# module after import, as the benchmark's span tracer does, is then the one
# that runs.

@record
class _DatasetType:
    keys: tuple                   # (key, reference kind), in resolution order
    make: Callable                # (refs, spec, path, resolve) -> entry
    check: Callable | None = None
    build: Callable | None = None
    options: tuple = ()           # keys that may be left out


def _search_entry(refs, spec, path, resolve):
    mode = spec.get("mode", "exhaustive")
    _expect(mode in ("exhaustive", "randomized"), f"{path}.mode",
            f"unknown search mode {mode!r}")
    frozen_spec = spec.get("frozen", {})
    _expect(isinstance(frozen_spec, dict), f"{path}.frozen",
            "frozen must map labels to map names")
    frozen = {}
    for label, ref in frozen_spec.items():
        _expect(label in MAP_NAMES, f"{path}.frozen.{label}",
                "frozen labels must be among R1, R2, R3, E")
        frozen[label] = resolve("map", ref, f"{path}.frozen.{label}")
    counts = {key: spec[key] for key in ("budget", "seed", "cap") if key in spec}
    for key, value in counts.items():
        _expect(_is_int(value) and value >= 0, f"{path}.{key}",
                "must be a nonnegative integer")
    return dict(refs, spec=SearchSpec(mode, frozen=frozen, **counts))


_T = _DatasetType
_AVC = (("A", "algebra"), ("V", "space"), ("C", "algebra"))
DATASET_TYPES = {
    "twosided": _T(_AVC + (("R1", "map"), ("R2", "map"), ("R3", "map"), ("E", "map")),
                   lambda refs, *_: TwoSidedData(**refs),
                   lambda e: check_twosided(e), lambda e: build_twosided(e)),
    "brzezinski": _T((("A", "algebra"), ("V", "space"), ("R", "map"), ("sigma", "map")),
                     lambda refs, *_: BrzData(**refs),
                     lambda e: check_brzezinski(e), lambda e: build_brzezinski(e)),
    "mirror": _T((("W", "space"), ("B", "algebra"), ("P", "map"), ("nu", "map")),
                 lambda refs, *_: MirrorData(**refs),
                 lambda e: check_mirror(e), lambda e: build_mirror(e)),
    "ttp": _T((("A", "algebra"), ("B", "algebra"), ("R", "map")),
              lambda refs, *_: _twisting_shapes("R", refs["R"], refs["A"], refs["B"]) or refs,
              lambda e: check_twisting(e["R"], e["A"], e["B"]),
              lambda e: build_ttp(e["A"], e["B"], e["R"])),
    "iterated": _T((("A", "algebra"), ("B", "algebra"), ("C", "algebra"),
                    ("R1", "map"), ("R2", "map"), ("R3", "map")),
                   lambda r, *_: _iterated_twists(r["A"], r["B"], r["C"],
                                                  r["R1"], r["R2"], r["R3"]) and r,
                   lambda e: iterated_report(e["A"], e["B"], e["C"],
                                             e["R1"], e["R2"], e["R3"]),
                   lambda e: iterated_ttp(e["A"], e["B"], e["C"],
                                          e["R1"], e["R2"], e["R3"])),
    "ma": _T((("H", "coalgebra"), ("A", "algebra"), ("B", "algebra"), ("G", "map"),
              ("R", "map"), ("T", "map"), ("tau", "map")),
             lambda refs, *_: MaData(**refs),
             lambda e: check_twosided(ma_twosided(e)),
             lambda e: _validated_product(ma_build(e))),
    "extraction": _T((("M", "algebra"),) + _AVC,
                     lambda r, *_: _extraction_shapes(r["M"], r["A"], r["V"], r["C"]) or r),
    "universal": _T((("data", "dataset"), ("X", "algebra"), ("fA", "map"), ("fV", "map"),
                     ("fC", "map")),
                    lambda r, *_: _universal_shapes(r["data"], r["X"], r["fA"], r["fV"],
                                                    r["fC"]) or r),
    "search": _T(_AVC, _search_entry, options=("mode", "budget", "seed", "cap", "frozen")),
}


# -- document sections --------------------------------------------------------
#
# Every section after ``field`` is declared once here, in parse order, by the
# function that turns one entry's spec into (object, dimension).  An algebra, a
# space or a coalgebra declares its name with its dimension, which a map's
# domain and codomain legs name; a map or a dataset declares none (None).  The
# library's refusals of an entry become input errors at the entry's path.

def _algebra_entry(field, spec, path, resolve):
    dim = _spec_dim(spec, path, "algebra", ("dim", "unit", "mul"))
    unit = _parse_vector(field, spec["unit"], dim, f"{path}.unit")
    _expect(isinstance(spec["mul"], list) and len(spec["mul"]) == dim, f"{path}.mul",
            f"structure constants must be a {dim}-element array c[i][j][k]")
    columns = []
    for i, row in enumerate(spec["mul"]):
        _expect(isinstance(row, list) and len(row) == dim, f"{path}.mul[{i}]",
                f"expected {dim} entries")
        columns += (_parse_vector(field, cell, dim, f"{path}.mul[{i}][{j}]")
                    for j, cell in enumerate(row))
    mul = from_columns(field, shape(dim, dim), shape(dim), columns)
    return new_algebra(field, dim, mul, unit), dim


def _space_entry(field, spec, path, resolve):
    dim = _spec_dim(spec, path, "space", ("dim", "unit"))
    return PointedSpace(field, dim, _parse_vector(field, spec["unit"], dim, f"{path}.unit")), dim


def _coalgebra_entry(field, spec, path, resolve):
    dim = _spec_dim(spec, path, "coalgebra", ("dim", "comul", "counit", "unit"))
    comul = _parse_matrix(field, spec["comul"], dim * dim, dim, f"{path}.comul")
    counit = _parse_matrix(field, spec["counit"], 1, dim, f"{path}.counit")
    unit = _parse_vector(field, spec["unit"], dim, f"{path}.unit")
    return new_coalgebra(field, dim, from_rows(field, shape(dim), shape(dim, dim), comul),
                         from_rows(field, shape(dim), shape(1), counit), unit), dim


def _map_entry(field, spec, path, resolve):
    _spec_dim(spec, path, "map", ("domain", "codomain", "matrix"))

    def legs(key):
        names = spec[key]
        _expect(isinstance(names, list) and names, f"{path}.{key}",
                "expected a nonempty list of space names")
        return TensorShape(tuple(resolve("leg", ref, f"{path}.{key}[{t}]")
                                 for t, ref in enumerate(names)))

    dom, cod = legs("domain"), legs("codomain")
    rows = _parse_matrix(field, spec["matrix"], cod.total, dom.total, f"{path}.matrix")
    return from_rows(field, dom, cod, rows), None


def _dataset_entry(field, spec, path, resolve):
    _expect(isinstance(spec, dict), path, "dataset spec must be an object")
    kind = spec.get("type")
    dtype = DATASET_TYPES.get(kind) if isinstance(kind, str) else None
    _expect(dtype is not None, f"{path}.type", f"unknown dataset type {kind!r}")
    keys = [key for key, _ in dtype.keys]
    required = {"type", *keys}
    _expect(required <= set(spec) <= required | set(dtype.options), path,
            f"{kind} dataset needs {', '.join(keys)}"
            + (" and search options" if dtype.options else ""))
    refs = {key: resolve(ref_kind, spec[key], f"{path}.{key}") for key, ref_kind in dtype.keys}
    return (kind, dtype.make(refs, spec, path, resolve)), None


_SECTIONS = {"algebras": _algebra_entry, "spaces": _space_entry,
             "coalgebras": _coalgebra_entry, "maps": _map_entry, "datasets": _dataset_entry}


# Deeper nesting is refused before decoding, so that the verdict does not depend
# on the caller's stack depth; the deepest valid document nests 6 deep.
_MAX_DEPTH = 64
# a JSON string (an unterminated one runs to the end) or a run of other text
_NOT_BRACKETS = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*(?:"|\Z)|[^\[\]{}"]+', re.S)


def parse_document(text: str) -> Document:
    """Parse and fully validate a document; the first error wins."""
    depths = accumulate(1 if ch in "[{" else -1 for ch in _NOT_BRACKETS.sub("", text))
    _expect(all(d <= _MAX_DEPTH for d in depths), "$", "document is nested too deeply")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"line {exc.lineno}, column {exc.colno}", exc.msg) from exc
    except RecursionError as exc:
        raise DocumentError("$", "document is nested too deeply") from exc
    except ValueError as exc:  # json's only other error: an integer past Python's limit
        raise DocumentError(
            "$", f"an integer has more than {sys.get_int_max_str_digits()} digits") from exc
    _expect(isinstance(obj, dict), "$", "document must be a JSON object")
    for key in obj:
        _expect(key == "field" or key in _SECTIONS, f"$.{key}", "unknown section")
    _expect("field" in obj, "$.field", "missing field spec")
    field = _parse_field(obj["field"], "$.field")
    parsed = {}  # section -> name -> object
    dims = {}    # declared name -> dimension

    def resolve(kind, ref, path):
        """What a reference of ``kind`` names: a map leg's dimension, the
        entry of an earlier twosided dataset, or an algebra, space (an algebra
        gives its unit), coalgebra or map."""
        if kind == "dataset":
            _expect(isinstance(ref, str) and parsed["datasets"].get(ref, (None,))[0]
                    == "twosided", path, f"{ref!r} must name an earlier twosided dataset")
            return parsed["datasets"][ref][1]
        if kind == "space" and isinstance(ref, str) and ref in parsed["algebras"]:
            return parsed["algebras"][ref].as_pointed()
        table = dims if kind == "leg" else parsed[f"{kind}s"]
        _expect(isinstance(ref, str) and ref in table, path,
                "unresolved " + ("" if kind == "leg" else f"{kind} ") + f"reference {ref!r}")
        return table[ref]

    for section, parse_entry in _SECTIONS.items():
        specs = obj.get(section, {})
        _expect(isinstance(specs, dict), f"$.{section}", "section must be an object")
        entries = parsed[section] = {}
        for name, spec in specs.items():
            path = f"$.{section}.{name}"
            try:
                entries[name], dim = parse_entry(field, spec, path, resolve)
            except DocumentError:
                raise
            except XprodError as exc:  # a library refusal of the entry
                raise DocumentError(path, str(exc)) from exc
            if dim is not None:
                _expect(isinstance(name, str) and name, path, "names must be nonempty strings")
                _expect(name not in dims, path, f"name {name!r} already defined")
                dims[name] = dim
    return Document(field, parsed["algebras"], parsed["datasets"])


# -- canonical serialization --------------------------------------------------

def canonical_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False)`` and a
    newline, byte for byte, for the str-keyed dicts, lists, tuples, strings,
    integers, booleans and None that reports are made of, a search's
    :class:`_Solutions` written as the list it stands for.

    ``json`` takes its pure-Python encoder whenever it indents.  Here each
    string goes through the C ``encode_basestring``, and the text is built
    once, as the pieces that :func:`_json_write` hands on.  A list or tuple of
    strings (a matrix row) is one join, and a tuple of strings is kept by
    (value, indent), since rows recur across search solutions.  A matrix, a
    tuple of such rows, is kept from its second visit at an indent on, joined
    from its rows' kept texts: the ``R`` matrices that solutions share
    are kept, and a distinct ``E`` never is.  A value equal to a kept tuple is
    built the same way from equal strings, so it writes the same bytes.  Other
    equal values need not: ``(1,) == (True,)`` and their hashes agree, yet they
    write ``[1]`` and ``[true]``, so only tuples whose leaves are exactly
    ``str`` are kept or counted as visited.  A tuple that holds a list or a
    dict cannot be hashed and is written each time.
    """
    texts = []
    _json_write(obj, texts.append)
    return "".join(texts)


_BATCH = 256  # pieces per text handed to a sink


def _json_write(obj, sink):
    """Hand ``canonical_json(obj)`` to ``sink`` as consecutive texts, each the
    join of about ``_BATCH`` pieces, so the whole text never exists at once.
    A key's head and an indent's brackets are one string per call."""
    pieces, texts, seen = [], {}, set()  # kept texts and visited matrices, by (tuple, indent)
    marks, heads = {}, {}  # an indent's brackets; a key's head, by (separator, key)
    put = pieces.append

    def write(x, nl):  # nl: the newline and indent of the line x starts on
        if len(pieces) >= _BATCH:
            sink("".join(pieces))
            pieces.clear()
        mark = marks.get(nl)
        if mark is None:
            inner = nl + "  "
            mark = marks[nl] = (inner, "{" + inner, "[" + inner, "," + inner, nl + "}", nl + "]")
        inner, brace, bracket, comma, close_brace, close_bracket = mark
        if isinstance(x, dict) and x:
            sep = brace
            for k, v in sorted(x.items()):
                head = heads.get((sep, k))
                if head is None:
                    head = heads[sep, k] = sep + encode_basestring(k) + ": "
                put(head)
                write(v, inner)
                sep = comma
            put(close_brace)
            return
        if not isinstance(x, (list, tuple, _Solutions)):
            put(encode_basestring(x) if isinstance(x, str) else json.dumps(x))
            return
        if not x:
            put("[]")
            return
        key = (x, nl) if type(x) is tuple else None
        try:
            text = texts.get(key)
        except TypeError:  # a tuple that holds a list or a dict
            text = key = None
        if text is None and all(type(y) is str for y in x):  # a row
            text = bracket + comma.join(map(encode_basestring, x)) + close_bracket
            if key is not None:
                texts[key] = text
        if text is not None:
            put(text)
            return
        sep = bracket
        for y in x:
            put(sep)
            write(y, inner)
            sep = comma
        put(close_bracket)
        if key is not None and all(type(y) is tuple and (y, inner) in texts for y in x):
            if key in seen:  # a matrix's second visit: keep its text from now on
                texts[key] = bracket + comma.join([texts[y, inner] for y in x]) + close_bracket
            seen.add(key)

    write(obj, "\n")
    put("\n")
    sink("".join(pieces))


def _vec_obj(field, v):
    return [field.fmt(x) for x in v]


def _mul_obj(field, mul: TensorMap, n):
    # structure constants c[i][j] = e_i e_j of an n-dimensional product
    return [[_vec_obj(field, mul.column(i * n + j)) for j in range(n)] for i in range(n)]


def _algebra_obj(field, alg: FinAlgebra):
    return {"dim": alg.dim, "unit": _vec_obj(field, alg.unit),
            "mul": _mul_obj(field, alg.mul, alg.dim)}


def _witness_obj(field, w: Witness | None):
    if w is None:
        return None
    return {"indices": list(w.indices), "identity": w.identity,
            "left": _vec_obj(field, w.left), "right": _vec_obj(field, w.right)}


def _report_obj(field, rep: Report):
    return [{"name": e.name, "passed": e.passed, "informational": e.informational,
             "witness": _witness_obj(field, e.witness)} for e in rep.entries]


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
        alg = outcome.algebra
        outputs = {"mul": _mul_obj(field, alg.mul, alg.dim), "unit": _vec_obj(field, alg.unit)}
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


def _run_extract(doc, name, kind, entry, args):
    if kind == "twosided":  # the split of the dataset's own product gives its maps back
        product = build_twosided(entry)
        try:
            got = _split(product, entry.A, entry.V, entry.C)
        except (SplitFail, NotAlgebraMap, UnitMismatch) as exc:  # the conditions rule these out
            raise InternalCheckError(str(exc), ("dataset", "split product"),
                                     getattr(exc, "witness", None)) from exc
        for label in MAP_NAMES:
            _routes_agree(f"split map {label}", ("dataset", "split product"),
                          getattr(entry, label), getattr(got, label))
        rep = Report(tuple(ConditionResult(f"roundtrip-{label}", True) for label in MAP_NAMES))
    elif kind == "extraction":
        got = extract(entry["M"], entry["A"], entry["V"], entry["C"])
        rep = Report((ConditionResult("extracted-and-rebuilt", True),))
    else:
        raise PreconditionFail("extract applies to twosided or extraction datasets")
    return rep, {"maps": {label: getattr(got, label).formatted_rows for label in MAP_NAMES}}


def _run_universal(doc, name, kind, entry, args):
    _only(kind, "universal", "universal")
    f = universal_map(entry["data"], entry["X"], entry["fA"], entry["fV"], entry["fC"])
    labels = ("fA", "fC", "unit-fV", "premise-1", "premise-2", "algebra-map")
    return (Report(tuple(ConditionResult(l, True) for l in labels)),
            {"matrix": f.formatted_rows})


def _run_search(doc, name, kind, entry, args):
    _only(kind, "search", "search")
    spec = entry["spec"] if args.seed is None else replace(entry["spec"], seed=args.seed)
    found = search_fp(spec, entry["A"], entry["V"], entry["C"])
    return (Report((ConditionResult("search-complete", True),)),
            {"count": len(found), "solutions": _Solutions(found.rows)})


class _Solutions:
    """A search's solutions as its report lists them, each one's dict made from
    its kept rows as the writer reaches it, so at most one exists at a time.
    An ``E`` is handed on as a list: it is distinct per solution, and the
    writer marks only a tuple of rows as visited."""

    def __init__(self, found):
        self.found = found

    def __len__(self):
        return len(self.found)

    def __iter__(self):
        return (dict(zip(MAP_NAMES, (*rows, list(e_rows))))
                for rows, e_rows, _ in self.found)


def _run_transport(doc, name, kind, entry, args):
    _only(kind, "twosided", "transport")
    _, data, rep = transport(entry)
    return rep, {label: "ok" if label in data else "not-applicable"
                 for label in ("remark1", "remark2")}


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


# The command line reads as ``argparse`` read it, without its import and set-up
# cost: one positional command and these options, each also named by any unique
# prefix and given its value as ``--name=VALUE``.  Each option maps to its
# destination and the conversion of its value, None for a flag.
_OPTIONS = {"-h": ("help", None), "--help": ("help", None), "--in": ("infile", str),
            "--out": ("outfile", str), "--dataset": ("dataset", str),
            "--condition": ("condition", str), "--seed": ("seed", int),
            "--force": ("force", None)}
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")  # an argument, not an option
_CHOICES = "{" + ",".join(COMMANDS) + "}"
_USAGE = f"""usage: xprod [-h] --in FILE [--out FILE] [--dataset NAME] [--condition LABEL]
             [--seed N] [--force]
             {_CHOICES}
"""
_HELP = f"""{_USAGE}
Check, build, transport and search crossed-product structures.

positional arguments:
  {_CHOICES}

options:
  -h, --help            show this help message and exit
  --in FILE             input document (JSON)
  --out FILE            write the report here instead of stdout
  --dataset NAME        dataset to operate on (default: the only one)
  --condition LABEL     restrict the report to one named condition
  --seed N              override the search seed
  --force               build without requiring the checks to pass
"""


def _refuse(message):
    sys.stderr.write(f"{_USAGE}xprod: error: {message}\n")
    raise SystemExit(2)


def _option(arg):
    """How one argument before any ``--`` reads: None for an argument, else
    (the option it names, None for an unknown one; its ``=`` value or None)."""
    if not arg.startswith("-") or arg == "-":
        return None
    if arg in _OPTIONS:
        return arg, None
    name, eq, value = arg.partition("=")
    explicit = value if eq else None
    if eq and name in _OPTIONS:
        return name, explicit
    if arg.startswith("--"):
        matches = [opt for opt in _OPTIONS if opt.startswith(name)]
        if len(matches) > 1:
            _refuse(f"ambiguous option: {arg} could match {', '.join(matches)}")
        if matches:
            return matches[0], explicit
    elif arg.startswith("-h"):
        return "-h", arg[2:]
    return None if _NEGATIVE_NUMBER.match(arg) or " " in arg else (None, None)


def _parse_argv(argv):
    """The command and the option values of ``argv``, read left to right.
    Help exits 0 where it is read.  A refusal exits 2: an ambiguous prefix
    before anything is read, a bad value or command where it is read, and a
    missing command or ``--in``, then an unrecognized argument, at the end."""
    argv = list(sys.argv[1:] if argv is None else argv)
    # "O" an option, "A" an argument, "-" the first "--", after which all are "A"
    kinds, options = "", {}
    for i, arg in enumerate(argv):
        if "-" in kinds:
            kinds += "A"
        elif arg == "--":
            kinds += "-"
        else:
            options[i] = _option(arg)
            kinds += "A" if options[i] is None else "O"
    values = dict.fromkeys(("command", "infile", "outfile", "dataset", "condition", "seed"))
    values["force"] = False
    extras, i = [], 0
    while i < len(argv):
        if kinds[i] == "O":
            opt, explicit = options[i]
            i += 1
            if opt is None:
                extras.append(argv[i - 1])
                continue
            dest, convert = _OPTIONS[opt]
            name = "-h/--help" if dest == "help" else opt
            if convert is None:
                if opt == "-h" and explicit:  # -hh is -h -h
                    explicit = explicit.lstrip("h") or None
                if explicit is not None:
                    _refuse(f"argument {name}: ignored explicit argument {explicit!r}")
                if dest == "help":
                    sys.stdout.write(_HELP)
                    raise SystemExit(0)
                values[dest] = True
                continue
            if explicit is None:
                if kinds[i:i + 1] != "A":
                    _refuse(f"argument {name}: expected one argument")
                explicit, i = argv[i], i + 1
            try:  # argparse drops the first "--" of an option's values: --seed=-- is []
                values[dest] = [] if explicit == "--" else convert(explicit)
            except ValueError:
                _refuse(f"argument {name}: invalid int value: {explicit!r}")
        elif values["command"] is not None or kinds[i:] == "-":
            extras.append(argv[i])
            i += 1
        else:  # the command, with the "--" just before or after it
            i += kinds[i] == "-"
            if argv[i] not in _HANDLERS:
                _refuse(f"argument command: invalid choice: {argv[i]!r} "
                        f"(choose from {', '.join(map(repr, COMMANDS))})")
            values["command"] = argv[i]
            i += 1 + (kinds[i + 1:i + 2] == "-")
    missing = [name for name, dest in (("command", "command"), ("--in", "infile"))
               if values[dest] is None]
    if missing:
        _refuse(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _refuse(f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    args = _parse_argv(argv)

    report_skeleton = {"command": args.command, "dataset": None}
    field = None  # known once the document parses; only witnesses need it

    def finish(obj, code):
        if args.outfile:
            try:
                with open(args.outfile, "w", encoding="utf-8", newline="\n") as fh:
                    _json_write(obj, fh.write)
            except OSError as exc:  # the report goes to stdout as an input error
                code, obj = 2, dict(
                    report_skeleton, status=_STATUS[2], conditions=[], outputs={},
                    error=_error_obj(field, DocumentError(
                        "--out", f"cannot write output: {exc.strerror}")))
            else:
                return code
        _json_write(obj, sys.stdout.write)
        return code

    try:
        # argparse reads --in=-- as the option given no value: [] where a string is due
        for opt in ("--in", "--out", "--dataset", "--condition") + ("--seed",) * (
                args.command == "search"):
            if getattr(args, _OPTIONS[opt][0]) == []:
                raise DocumentError(opt, "expected a value, got '--'")
        try:
            with open(args.infile, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise DocumentError(args.infile, f"cannot read input: {exc.strerror}")
        except ValueError as exc:  # not UTF-8
            raise DocumentError(args.infile, f"cannot read input: {exc}") from exc
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

    except Exception as exc:  # any exception but an XprodError is a bug: exit 3
        code = exc.exit_code if isinstance(exc, XprodError) else 3
        try:
            error = _error_obj(field, exc)
        except PreconditionFail as refusal:  # its witness has a scalar too long to write
            code, error = refusal.exit_code, _error_obj(field, PreconditionFail(
                f"{exc}; its witness cannot be written: {refusal}"))
        return finish(dict(report_skeleton, status=_STATUS[code], conditions=[],
                           outputs={}, error=error), code)


def _error_obj(field, exc):
    obj = {"type": type(exc).__name__, "message": str(exc)}
    if hasattr(exc, "routes"):  # an internal error: the two routes that disagreed
        obj["routes"] = list(exc.routes)
    if isinstance(getattr(exc, "witness", None), Witness):
        obj["witness"] = _witness_obj(field, exc.witness)
    report = getattr(exc, "report", None)
    if report is not None:
        obj["failed"] = list(report.failed_names())
    return obj

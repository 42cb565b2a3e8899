"""Seeded input documents and expected outcomes for the xprod benchmark.

The generator is plain Python and shares no code with ``xprod`` or its tests,
so the expectations it records are an independent oracle.  Every document is
built in a canonical basis and then relabelled by a seeded basis permutation
of every leg.  A relabelling changes no verdict and no count, so expectations
computed in the canonical basis hold for every seed once they are relabelled
the same way.

Scalars are plain integers until rendering: over Q they are written as
integers, over F_p they are reduced mod p.  Every construction here has
integer structure constants, so reduction commutes with the arithmetic.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field as dc_field
from pathlib import Path

Q = None  # the rationals; a prime field is its modulus


# -- small exact linear algebra over Z -----------------------------------------

def unit_vec(n, i):
    v = [0] * n
    v[i] = 1
    return v


def kron(*vecs):
    out = [1]
    for v in vecs:
        out = [x * y for x in out for y in v]
    return out


def columns_to_rows(cols, nrows):
    return [[col[r] for col in cols] for r in range(nrows)]


@dataclass
class Alg:
    """Structure constants mul[i][j] = coordinates of e_i e_j, and the unit."""

    mul: list
    unit: list
    deg: tuple | None = None  # parity of each basis vector, for sign-twisted flips

    @property
    def dim(self):
        return len(self.unit)


def truncated(n):
    """k[t]/(t^n), basis 1, t, ..., t^(n-1); t has odd parity."""
    mul = [[unit_vec(n, i + j) if i + j < n else [0] * n for j in range(n)]
           for i in range(n)]
    return Alg(mul, unit_vec(n, 0), tuple(i % 2 for i in range(n)))


def group_z2():
    """k[Z/2], basis 1, g; g has odd parity."""
    return Alg([[unit_vec(2, (i + j) % 2) for j in range(2)] for i in range(2)],
               unit_vec(2, 0), (0, 1))


def scalar():
    return Alg([[[1]]], [1], (0,))


def flip_cols(d1, d2, deg1=None, deg2=None):
    """Columns of the map e_i (x) e_j -> (+-) e_j (x) e_i on k^d1 (x) k^d2."""
    cols = []
    for i in range(d1):
        for j in range(d2):
            sign = -1 if deg1 and deg2 and deg1[i] and deg2[j] else 1
            cols.append([sign * x for x in unit_vec(d1 * d2, j * d1 + i)])
    return cols


def connector_cols(a, v, c):
    """E(v (x) v') = 1_A (x) vv' (x) 1_C."""
    return [kron(a.unit, v.mul[j][jp], c.unit)
            for j in range(v.dim) for jp in range(v.dim)]


def product_algebra(*algs):
    """Componentwise product on A (x) B (x) ... ."""
    dims = [a.dim for a in algs]
    basis = list(itertools.product(*(range(d) for d in dims)))
    mul = [[kron(*(a.mul[x[t]][y[t]] for t, a in enumerate(algs))) for y in basis]
           for x in basis]
    return Alg(mul, kron(*(a.unit for a in algs)))


@dataclass
class TwoSided:
    """Two-sided data on A (x) V (x) C whose R1, R2, R3 are (sign-twisted) flips."""

    A: Alg
    V: Alg
    C: Alg
    graded: bool
    E: list = None  # columns; defaults to the product connector

    def __post_init__(self):
        if self.E is None:
            self.E = connector_cols(self.A, self.V, self.C)

    def flips(self):
        a, v, c = self.A, self.V, self.C
        g = self.graded
        return (flip_cols(v.dim, a.dim, g and v.deg, g and a.deg),
                flip_cols(c.dim, v.dim, g and c.deg, g and v.deg),
                flip_cols(c.dim, a.dim, g and c.deg, g and a.deg))

    def product(self):
        """The built algebra, by the two-sided product formula."""
        return twosided_product(self.A, self.V.unit, self.C, *self.flips(), self.E)


def _sparse(vecs, p):
    """Nonzero (index, value) pairs of each vector, reduced mod p unless p is None."""
    if p is not None:
        vecs = [[x % p for x in v] for v in vecs]
    return [[(r, x) for r, x in enumerate(v) if x] for v in vecs]


def twosided_product(a: Alg, v_unit, c: Alg, r1, r2, r3, e, p=None) -> Alg:
    """The algebra on A (x) V (x) C, V pointed by ``v_unit``, afforded by any maps
    R1, R2, R3, E (as columns):

        (a⊗v⊗c)(a'⊗v'⊗c') = a (a'_R3)_R1 E_A(v_R1, v'_R2)
                              ⊗ E_V(v_R1, v'_R2) ⊗ E_C(v_R1, v'_R2) (c_R3)_R2 c'.

    Entries are integers, reduced mod p unless p is None."""
    na, nv, nc = a.dim, len(v_unit), c.dim
    n = na * nv * nc
    r1, r2, r3, e = (_sparse(m, p) for m in (r1, r2, r3, e))
    amul = [_sparse(row, p) for row in a.mul]
    cmul = [_sparse(row, p) for row in c.mul]
    basis = list(itertools.product(range(na), range(nv), range(nc)))
    mul = []
    for i, j, k in basis:
        row = []
        for i2, j2, k2 in basis:
            out = [0] * n
            for t3, x3 in r3[k * na + i2]:  # c⊗a' -> a'_R3 ⊗ c_R3
                a3, c3 = divmod(t3, nc)
                for t1, x1 in r1[j * na + a3]:  # v⊗a'_R3 -> (a'_R3)_R1 ⊗ v_R1
                    a1, v1 = divmod(t1, nv)
                    for t2, x2 in r2[c3 * nv + j2]:  # c_R3⊗v' -> v'_R2 ⊗ (c_R3)_R2
                        v2, c2 = divmod(t2, nc)
                        for te, xe in e[v1 * nv + v2]:
                            ea, rest = divmod(te, nv * nc)
                            ev, ec = divmod(rest, nc)
                            coef = x3 * x1 * x2 * xe
                            for s, xs in amul[i][a1]:
                                for s2, xs2 in amul[s][ea]:
                                    for u, xu in cmul[ec][c2]:
                                        for u2, xu2 in cmul[u][k2]:
                                            out[(s2 * nv + ev) * nc + u2] += (
                                                coef * xs * xs2 * xu * xu2)
            row.append(out if p is None else [x % p for x in out])
        mul.append(row)
    return Alg(mul, kron(a.unit, v_unit, c.unit))


def associative_unital(alg: Alg, p=None):
    """Whether the structure constants are associative with the given unit
    (exactly, or mod p)."""
    n = alg.dim
    mul = [_sparse(row, p) for row in alg.mul]
    unit = [(i, x) for i, x in enumerate(alg.unit) if x]

    def times(pairs, y):  # (sum x_m e_m) e_y, as a sparse dict
        out = {}
        for m, x in pairs:
            for t, z in mul[m][y]:
                out[t] = out.get(t, 0) + x * z
        return out

    def rtimes(x, pairs):  # e_x (sum y_m e_m)
        out = {}
        for m, y in pairs:
            for t, z in mul[x][m]:
                out[t] = out.get(t, 0) + y * z
        return out

    def same(u, v):
        keys = u.keys() | v.keys()
        if p is None:
            return all(u.get(k, 0) == v.get(k, 0) for k in keys)
        return all((u.get(k, 0) - v.get(k, 0)) % p == 0 for k in keys)

    for x in range(n):
        ex = {x: 1}
        if not (same(rtimes(x, unit), ex) and same(times(unit, x), ex)):
            return False
    for x in range(n):
        for y in range(n):
            xy = mul[x][y]
            for z in range(n):
                if not same(times(xy, z), rtimes(x, mul[y][z])):
                    return False
    return True


# -- documents -------------------------------------------------------------------

@dataclass
class Doc:
    """A document in the canonical basis, plus the expectations that depend on it.

    ``dims`` names every leg; ``algebras``, ``spaces``, ``coalgebras`` and
    ``maps`` hold integer data.  ``legs`` names the legs of an algebra that lives
    on a tensor product of other legs (the extraction input), so it keeps their
    tensor basis when relabelled.  ``expected_algebras`` and ``expected_maps``
    hold outputs, relabelled along with the document.
    """

    p: int | None
    dims: dict = dc_field(default_factory=dict)
    algebras: dict = dc_field(default_factory=dict)
    legs: dict = dc_field(default_factory=dict)
    spaces: dict = dc_field(default_factory=dict)
    coalgebras: dict = dc_field(default_factory=dict)
    maps: dict = dc_field(default_factory=dict)  # name -> (domain, codomain, columns)
    datasets: dict = dc_field(default_factory=dict)
    expected_algebras: dict = dc_field(default_factory=dict)  # name -> (legs, Alg)
    expected_maps: dict = dc_field(default_factory=dict)

    def algebra(self, name, alg):
        self.dims[name] = alg.dim
        self.algebras[name] = alg

    def space(self, name, alg):
        self.dims[name] = alg.dim
        self.spaces[name] = alg.unit

    def map(self, name, dom, cod, cols):
        self.maps[name] = (tuple(dom), tuple(cod), cols)


def twosided_doc(p, data: TwoSided) -> Doc:
    doc = Doc(p)
    doc.algebra("A", data.A)
    doc.space("V", data.V)
    doc.algebra("C", data.C)
    r1, r2, r3 = data.flips()
    doc.map("R1", "VA", "AV", r1)
    doc.map("R2", "CV", "VC", r2)
    doc.map("R3", "CA", "AC", r3)
    doc.map("E", "VV", "AVC", data.E)
    doc.datasets["d"] = {"type": "twosided", "A": "A", "V": "V", "C": "C",
                         "R1": "R1", "R2": "R2", "R3": "R3", "E": "E"}
    return doc


def _perm_index(legs, dims, perms):
    """Old flat index of every new flat index over the product of ``legs``."""
    shape = [dims[leg] for leg in legs]
    out = []
    for multi in itertools.product(*(range(d) for d in shape)):
        flat = 0
        for leg, d, x in zip(legs, shape, multi):
            flat = flat * d + perms[leg][x]
        out.append(flat)
    return out


def _relabel_alg(alg: Alg, idx) -> Alg:
    # new e_i = old e_idx[i], so c'[i][j][k] = c[idx i][idx j][idx k]
    mul = [[[alg.mul[a][b][c] for c in idx] for b in idx] for a in idx]
    return Alg(mul, [alg.unit[a] for a in idx])


def _relabel_cols(cols, dom_idx, cod_idx):
    return [[cols[s][r] for r in cod_idx] for s in dom_idx]


def random_perms(doc: Doc, rng: random.Random) -> dict:
    """A seeded basis permutation of every leg."""
    perms = {}
    for name, n in sorted(doc.dims.items()):
        order = list(range(n))
        rng.shuffle(order)
        perms[name] = order
    return perms


def relabel(doc: Doc, perms: dict) -> Doc:
    """Relabel every leg's basis: new basis vector i is old basis vector perms[leg][i]."""
    out = Doc(doc.p, dict(doc.dims), legs=doc.legs, datasets=doc.datasets)
    for name, alg in doc.algebras.items():
        out.algebras[name] = _relabel_alg(
            alg, _perm_index(doc.legs.get(name, (name,)), doc.dims, perms))
    for name, u in doc.spaces.items():
        out.spaces[name] = [u[x] for x in perms[name]]
    for name, (comul, counit, u) in doc.coalgebras.items():
        idx = perms[name]
        out.coalgebras[name] = (
            _relabel_cols(comul, idx, _perm_index((name, name), doc.dims, perms)),
            _relabel_cols(counit, idx, [0]), [u[x] for x in idx])
    for name, (dom, cod, cols) in doc.maps.items():
        out.maps[name] = (dom, cod, _relabel_cols(
            cols, _perm_index(dom, doc.dims, perms), _perm_index(cod, doc.dims, perms)))
    for name, (legs, alg) in doc.expected_algebras.items():
        out.expected_algebras[name] = (legs, _relabel_alg(
            alg, _perm_index(legs, doc.dims, perms)))
    for name, (dom, cod, cols) in doc.expected_maps.items():
        out.expected_maps[name] = (dom, cod, _relabel_cols(
            cols, _perm_index(dom, doc.dims, perms), _perm_index(cod, doc.dims, perms)))
    return out


def fmt(p, x):
    return str(x) if p is None else str(x % p)


def fmt_vec(p, v):
    return [fmt(p, x) for x in v]


def fmt_mul(p, alg: Alg):
    return [[fmt_vec(p, cell) for cell in row] for row in alg.mul]


def fmt_rows(p, cols, nrows):
    return [fmt_vec(p, row) for row in columns_to_rows(cols, nrows)]


def render(doc: Doc) -> dict:
    p = doc.p
    obj = {"field": {"kind": "rationals"} if p is None else {"kind": "prime", "p": p}}
    if doc.algebras:
        obj["algebras"] = {n: {"dim": a.dim, "unit": fmt_vec(p, a.unit),
                               "mul": fmt_mul(p, a)} for n, a in doc.algebras.items()}
    if doc.spaces:
        obj["spaces"] = {n: {"dim": len(u), "unit": fmt_vec(p, u)}
                         for n, u in doc.spaces.items()}
    if doc.coalgebras:
        obj["coalgebras"] = {
            n: {"dim": len(u), "comul": fmt_rows(p, comul, len(u) ** 2),
                "counit": fmt_rows(p, counit, 1), "unit": fmt_vec(p, u)}
            for n, (comul, counit, u) in doc.coalgebras.items()}
    if doc.maps:
        obj["maps"] = {}
        for n, (dom, cod, cols) in doc.maps.items():
            obj["maps"][n] = {"domain": list(dom), "codomain": list(cod),
                              "matrix": fmt_rows(p, cols, _total(doc, cod))}
    obj["datasets"] = doc.datasets
    return obj


def expected_matrix(doc: Doc, name):
    _, cod, cols = doc.expected_maps[name]
    return fmt_rows(doc.p, cols, _total(doc, cod))


def expected_algebra(doc: Doc, name):
    _, alg = doc.expected_algebras[name]
    return {"dim": alg.dim, "unit": fmt_vec(doc.p, alg.unit), "mul": fmt_mul(doc.p, alg)}


# -- operations and their expected outcomes --------------------------------------

@dataclass
class Op:
    """One CLI command on one document, with everything its report must show."""

    stage: int
    doc: str            # file name of the document
    args: list          # command and flags after ``--in FILE``
    code: int           # exit code
    status: str         # report status
    checks: dict = dc_field(default_factory=dict)  # further report expectations


@dataclass
class Workload:
    docs: dict          # file name -> document text
    ops: list           # one pass, in order
    stages: tuple       # name of each stage


def _twosided_ops(stage, fname, doc: Doc, data: TwoSided, commands):
    """Expected outcomes of twosided ``commands`` on valid flip-type data."""
    a, v = data.A, data.V
    r1_flip = not (data.graded and doc.p != 2 and any(v.deg) and any(a.deg))
    r3_flip = not (data.graded and doc.p != 2 and any(data.C.deg) and any(a.deg))
    ops = []
    for cmd in commands:
        if cmd == "check":
            ops.append(Op(stage, fname, ["check"], 0, "pass", {"n_conditions": 12}))
        elif cmd == "build":
            ops.append(Op(stage, fname, ["build"], 0, "pass",
                          {"algebra": expected_algebra(doc, "product")}))
        elif cmd == "agree":
            ops.append(Op(stage, fname, ["agree"], 0, "pass", {"n_conditions": 2}))
        elif cmd == "extract":
            maps = {m: fmt_rows(doc.p, doc.maps[m][2], _total(doc, doc.maps[m][1]))
                    for m in ("R1", "R2", "R3", "E")}
            ops.append(Op(stage, fname, ["extract"], 0, "pass", {"maps": maps}))
        elif cmd == "transport":
            if r1_flip or r3_flip:
                outputs = {"remark1": "ok" if r1_flip else "not-applicable",
                           "remark2": "ok" if r3_flip else "not-applicable"}
                ops.append(Op(stage, fname, ["transport"], 0, "pass",
                              {"outputs": outputs}))
            else:
                ops.append(Op(stage, fname, ["transport"], 2, "error",
                              {"error_type": "PreconditionFail"}))
    return ops


def _total(doc, legs):
    n = 1
    for leg in legs:
        n *= doc.dims[leg]
    return n


TWOSIDED_COMMANDS = ("check", "build", "agree", "extract", "transport")


def _with_product(p, data: TwoSided) -> Doc:
    doc = twosided_doc(p, data)
    doc.expected_algebras["product"] = (("A", "V", "C"), data.product())
    return doc


class _Writer:
    def __init__(self, rng):
        self.rng = rng
        self.docs = {}

    def add(self, fname, doc: Doc, perms=None) -> Doc:
        """Relabel (by ``perms``, or at random), render and store a document;
        returns the relabelled copy."""
        doc = relabel(doc, perms or random_perms(doc, self.rng))
        self.docs[fname] = json.dumps(render(doc))
        return doc


# -- ladder-q ------------------------------------------------------------------------

LADDER_RUNGS = (("N8", (2, 2, 2), TWOSIDED_COMMANDS),
                ("N12", (2, 3, 2), TWOSIDED_COMMANDS),
                ("N27", (3, 3, 3), ("check",)))


def ladder_q(seed: int) -> Workload:
    w = _Writer(random.Random(seed))
    ops = []
    for stage, (rung, (na, nv, nc), commands) in enumerate(LADDER_RUNGS):
        data = TwoSided(truncated(na), truncated(nv), truncated(nc), graded=False)
        fname = f"ladder-{rung}.json"
        doc = w.add(fname, _with_product(Q, data))
        ops += _twosided_ops(stage, fname, doc, data, commands)
    return Workload(w.docs, ops, tuple(r[0] for r in LADDER_RUNGS))


# -- search-fp -------------------------------------------------------------------------

def _search_doc(p, frozen: bool, dataset: dict) -> Doc:
    dual = truncated(2)
    doc = Doc(p)
    doc.algebra("A", dual)
    doc.space("V", dual)
    doc.algebra("C", dual)
    doc.map("flVA", "VA", "AV", flip_cols(2, 2))
    doc.map("flCV", "CV", "VC", flip_cols(2, 2))
    doc.map("flCA", "CA", "AC", flip_cols(2, 2))
    spec = {"type": "search", "A": "A", "V": "V", "C": "C"}
    if frozen:
        spec["frozen"] = {"R1": "flVA", "R2": "flCV", "R3": "flCA"}
    spec.update(dataset)
    doc.datasets["s"] = spec
    return doc


# Frozen-flip search on dual numbers over F2: E has one free column of 8
# entries, and all 2^8 candidates pass (a pinned regression value).
PINNED_FROZEN_F2 = 256
F3_BUDGET = 500
REJECT_BUDGET = 1000
# A rejected candidate stops at its first witness, and where that falls depends
# on where each unit sits in the scan order: one relabelling of the three legs
# costs up to three times another.  So the reject phase always covers all eight
# relabellings of the dual-number legs, each with an eighth of the budget, and
# the seed picks their order and the search seeds.
LEG_SWAPS = list(itertools.product((False, True), repeat=3))


def search_fp(seed: int) -> Workload:
    rng = random.Random(seed)
    w = _Writer(rng)
    w.add("search-accept-f2.json", _search_doc(2, True, {"mode": "exhaustive"}))
    w.add("search-accept-f3.json", _search_doc(3, True, {
        "mode": "randomized", "budget": F3_BUDGET, "seed": rng.randrange(1 << 30)}))
    ops = [
        Op(0, "search-accept-f2.json", ["search"], 0, "pass",
           {"count": PINNED_FROZEN_F2, "candidates": 2 ** 8}),
        Op(1, "search-accept-f3.json", ["search"], 0, "pass",
           {"candidates": F3_BUDGET}),
    ]
    budget = REJECT_BUDGET // len(LEG_SWAPS)
    for t, swaps in enumerate(rng.sample(LEG_SWAPS, len(LEG_SWAPS))):
        fname = f"search-reject-f2-{t}.json"
        doc = _search_doc(2, False, {"mode": "randomized", "budget": budget,
                                     "seed": rng.randrange(1 << 30)})
        w.add(fname, doc, {leg: [1, 0] if swap else [0, 1]
                           for leg, swap in zip("ACV", swaps)})
        ops.append(Op(2, fname, ["search"], 0, "pass",
                      {"candidates": budget}))
    return Workload(w.docs, ops, ("accept-f2", "accept-f3", "reject-f2"))


# An independent oracle for search reports.  A candidate fills the columns the
# unit conditions leave free with the base-p digits of one number, most
# significant first, in the order R1, R2, R3, E and, within a map, by domain
# index and then codomain index.  Exhaustive mode tries every number below
# p^slots; randomized mode draws ``budget`` of them with random.Random(seed).
# A candidate passes when the product it affords is associative and unital.

SEARCH_MAPS = (("R1", "VA", "AV"), ("R2", "CV", "VC"), ("R3", "CA", "AC"), ("E", "VV", "AVC"))


def _pinned_column(name, dom_idx, dims, units):
    """The column a unit condition fixes for a basis input, or None if it is free:
    R(x⊗y) = y⊗x when x or y is a unit, and E(1_V⊗v) = E(v⊗1_V) = 1_A⊗v⊗1_C."""
    x, y = dom_idx
    if name == "E":
        if units["V"] not in (x, y):
            return None
        other = y if x == units["V"] else x
        return kron(unit_vec(dims["A"], units["A"]), unit_vec(dims["V"], other),
                    unit_vec(dims["C"], units["C"]))
    dom = SEARCH_MAPS[("R1", "R2", "R3").index(name)][1]
    if x != units[dom[0]] and y != units[dom[1]]:
        return None
    return kron(unit_vec(dims[dom[1]], y), unit_vec(dims[dom[0]], x))


def _read_alg(obj):
    return Alg([[[int(x) for x in cell] for cell in row] for row in obj["mul"]],
               [int(x) for x in obj["unit"]])


def search_candidates(doc_obj):
    """The search document's algebras, field, and every distinct candidate it
    decides, as map name -> columns."""
    p = doc_obj["field"]["p"]
    spec = next(d for d in doc_obj["datasets"].values() if d["type"] == "search")
    a = _read_alg(doc_obj["algebras"][spec["A"]])
    c = _read_alg(doc_obj["algebras"][spec["C"]])
    v_unit = [int(x) for x in doc_obj["spaces"][spec["V"]]["unit"]]
    dims = {"A": a.dim, "V": len(v_unit), "C": c.dim}
    units = {"A": a.unit.index(1), "V": v_unit.index(1), "C": c.unit.index(1)}
    frozen = {}
    templates = []  # (name, columns with None where free, codomain size)
    for name, dom, cod in SEARCH_MAPS:
        if name in spec.get("frozen", {}):
            rows = [[int(x) for x in row]
                    for row in doc_obj["maps"][spec["frozen"][name]]["matrix"]]
            frozen[name] = [list(col) for col in zip(*rows)]
            continue
        cols = [_pinned_column(name, idx, dims, units)
                for idx in itertools.product(range(dims[dom[0]]), range(dims[dom[1]]))]
        templates.append((name, cols, math.prod(dims[leg] for leg in cod)))
    slots = sum(cols.count(None) * n_cod for _, cols, n_cod in templates)
    if spec["mode"] == "exhaustive":
        draws = range(p ** slots)
    else:
        rng = random.Random(spec["seed"])
        draws = sorted({rng.randrange(p ** slots) for _ in range(spec["budget"])})
    candidates = []
    for number in draws:
        digits = [(number // p ** (slots - 1 - t)) % p for t in range(slots)]
        maps = dict(frozen)
        pos = 0
        for name, cols, n_cod in templates:
            maps[name] = []
            for col in cols:
                if col is None:
                    col = digits[pos:pos + n_cod]
                    pos += n_cod
                maps[name].append(col)
        candidates.append(maps)
    return p, a, v_unit, c, candidates


def render_solution(p, maps):
    """A candidate as a search report lists it, in canonical JSON."""
    return json.dumps({name: [[str(x % p) for x in row] for row in zip(*maps[name])]
                       for name, _, _ in SEARCH_MAPS}, sort_keys=True)


def search_solutions(doc_obj):
    """The solutions a search document's report must list, rendered and sorted."""
    p, a, v_unit, c, candidates = search_candidates(doc_obj)
    return sorted(
        render_solution(p, maps) for maps in candidates
        if associative_unital(twosided_product(
            a, v_unit, c, maps["R1"], maps["R2"], maps["R3"], maps["E"], p), p))


# -- cli-small ----------------------------------------------------------------------

def _corpus(rng):
    """The twosided corpus of total dimension at most 8, as (name, p, data)."""
    dual, grp, k = truncated(2), group_z2(), scalar()
    bicocycle_e = [kron(grp.unit, unit_vec(2, 0), grp.unit),
                   kron(grp.unit, unit_vec(2, 1), grp.unit),
                   kron(grp.unit, unit_vec(2, 1), grp.unit),
                   kron(unit_vec(2, 1), unit_vec(2, 0), unit_vec(2, 1))]
    items = [
        ("q-dual-flip", Q, TwoSided(dual, dual, dual, False)),
        ("q-dual-super", Q, TwoSided(dual, dual, dual, True)),
        ("q-group-super", Q, TwoSided(grp, grp, grp, True)),
        ("q-mixed-flip", Q, TwoSided(dual, grp, dual, False)),
        ("q-scalar-ends", Q, TwoSided(k, dual, k, False)),
        ("q-bicocycle", Q, TwoSided(grp, dual, grp, False, bicocycle_e)),
        ("f2-dual-flip", 2, TwoSided(dual, dual, dual, False)),
        ("f2-dual-super", 2, TwoSided(dual, dual, dual, True)),
        ("f2-mixed-flip", 2, TwoSided(grp, dual, k, False)),
    ]
    # Any E(x⊗x) passes with frozen flips over F2 (see PINNED_FROZEN_F2), so a
    # seeded column stands in for a searched solution.
    for t in range(3):
        e = connector_cols(dual, dual, dual)
        e[3] = [rng.randrange(2) for _ in range(8)]
        items.append((f"f2-searched-{t}", 2, TwoSided(dual, dual, dual, False, e)))
    return items


def _other_types(fields, w: _Writer, stage):
    """One document for each non-twosided dataset type, with its commands;
    ``fields`` gives each document's field in turn."""
    dual = truncated(2)
    ops = []

    def emit(fname, doc, dataset, commands):
        doc = w.add(fname, doc)
        for cmd in commands:
            checks = {}
            if cmd == "build":
                checks["algebra"] = expected_algebra(doc, "built")
            elif cmd == "extract":
                checks["maps"] = {m: expected_matrix(doc, m) for m in ("R1", "R2", "R3", "E")}
            elif cmd == "universal":
                checks["matrix"] = expected_matrix(doc, "f")
            ops.append(Op(stage, fname, [cmd, "--dataset", dataset], 0, "pass", checks))

    flip4 = flip_cols(2, 2)
    prod2 = product_algebra(dual, dual)
    prod3 = product_algebra(dual, dual, dual)

    doc = Doc(fields[0])
    doc.algebra("A", dual)
    doc.algebra("B", dual)
    doc.map("R", "BA", "AB", flip4)
    doc.datasets["t"] = {"type": "ttp", "A": "A", "B": "B", "R": "R"}
    doc.expected_algebras["built"] = (("A", "B"), prod2)
    emit("type-ttp.json", doc, "t", ("check", "build"))

    doc = Doc(fields[1])
    doc.algebra("A", dual)
    doc.space("V", dual)
    doc.map("R", "VA", "AV", flip4)
    doc.map("sigma", "VV", "AV", [kron(dual.unit, dual.mul[j][jp])
                                  for j in range(2) for jp in range(2)])
    doc.datasets["b"] = {"type": "brzezinski", "A": "A", "V": "V", "R": "R",
                         "sigma": "sigma"}
    doc.expected_algebras["built"] = (("A", "V"), prod2)
    emit("type-brzezinski.json", doc, "b", ("check", "build"))

    doc = Doc(fields[2])
    doc.space("W", dual)
    doc.algebra("B", dual)
    doc.map("P", "BW", "WB", flip4)
    doc.map("nu", "WW", "WB", [kron(dual.mul[i][ip], dual.unit)
                               for i in range(2) for ip in range(2)])
    doc.datasets["m"] = {"type": "mirror", "W": "W", "B": "B", "P": "P", "nu": "nu"}
    doc.expected_algebras["built"] = (("W", "B"), prod2)
    emit("type-mirror.json", doc, "m", ("check", "build"))

    doc = Doc(fields[3])
    for leg in "ABC":
        doc.algebra(leg, dual)
    doc.map("R1", "BA", "AB", flip4)
    doc.map("R2", "CB", "BC", flip4)
    doc.map("R3", "CA", "AC", flip4)
    doc.datasets["i"] = {"type": "iterated", "A": "A", "B": "B", "C": "C",
                         "R1": "R1", "R2": "R2", "R3": "R3"}
    doc.expected_algebras["built"] = (("A", "B", "C"), prod3)
    emit("type-iterated.json", doc, "i", ("check", "build"))

    # Coalgebra input: H has a basis of grouplikes, G(h_i⊗h_j) = 1_A ⊗ h_(i+j),
    # tau = 1_B, R and T flips; the product is k[Z/2]-graded A ⊗ H ⊗ B.
    doc = Doc(fields[4])
    doc.dims["H"] = 2
    doc.coalgebras["H"] = ([unit_vec(4, 0), unit_vec(4, 3)], [[1], [1]], unit_vec(2, 0))
    doc.algebra("A", dual)
    doc.algebra("B", dual)
    doc.map("G", "HH", "AH", [kron(dual.unit, unit_vec(2, (i + j) % 2))
                              for i in range(2) for j in range(2)])
    doc.map("R", "HA", "AH", flip4)
    doc.map("T", "BH", "HB", flip4)
    doc.map("tau", "HH", "B", [dual.unit] * 4)
    doc.datasets["g"] = {"type": "ma", "H": "H", "A": "A", "B": "B", "G": "G",
                         "R": "R", "T": "T", "tau": "tau"}
    doc.expected_algebras["built"] = (("A", "H", "B"), product_algebra(dual, group_z2(), dual))
    emit("type-ma.json", doc, "g", ("check", "build"))

    data = TwoSided(dual, dual, dual, False)
    r1, r2, r3 = data.flips()
    doc = Doc(fields[5])
    doc.algebra("A", dual)
    doc.space("V", dual)
    doc.algebra("C", dual)
    doc.algebra("M", prod3)
    doc.legs["M"] = ("A", "V", "C")
    doc.datasets["x"] = {"type": "extraction", "M": "M", "A": "A", "V": "V", "C": "C"}
    for name, dom, cod, cols in (("R1", "VA", "AV", r1), ("R2", "CV", "VC", r2),
                                 ("R3", "CA", "AC", r3), ("E", "VV", "AVC", data.E)):
        doc.expected_maps[name] = (tuple(dom), tuple(cod), cols)
    emit("type-extraction.json", doc, "x", ("extract",))

    doc = twosided_doc(fields[6], data)
    doc.algebra("X", prod3)
    for name, slot, leg in (("fA", 0, "A"), ("fV", 1, "V"), ("fC", 2, "C")):
        units = [dual.unit] * 3
        cols = []
        for t in range(2):
            vecs = list(units)
            vecs[slot] = unit_vec(2, t)
            cols.append(kron(*vecs))
        doc.map(name, leg, "X", cols)
    doc.datasets["u"] = {"type": "universal", "data": "d", "X": "X",
                         "fA": "fA", "fV": "fV", "fC": "fC"}
    doc.expected_maps["f"] = (("A", "V", "C"), ("X",),
                              [unit_vec(8, t) for t in range(8)])
    emit("type-universal.json", doc, "u", ("universal",))
    return ops


def _unit_columns(n_dom):
    """Flat input indices of a two-leg domain that touch the unit e_0."""
    d1, d2 = n_dom
    return [i * d2 + j for i in range(d1) for j in range(d2) if i == 0 or j == 0]


MUTATION_BASES = ("q-dual-flip", "q-dual-super", "f2-dual-flip", "q-bicocycle")


def mutation_menu(doc: Doc, map_name):
    """Every (column, row) a mutation of ``map_name`` may change."""
    dom, cod, _ = doc.maps[map_name]
    return [(col, row) for col in _unit_columns([doc.dims[x] for x in dom])
            for row in range(_total(doc, cod))]


def mutation_key(base, map_name, col, row):
    return f"{base}/{map_name}/{col}/{row}"


def _mutants(rng, corpus, count):
    """``count`` unit-pinned single-entry mutations, chosen by the seed."""
    out = []
    by_name = {name: (p, data) for name, p, data in corpus}
    maps = ("R1", "R2", "R3", "E")
    for t in range(count):
        # a fixed schedule of (base, map), so every seed does alike work
        base = MUTATION_BASES[t % len(MUTATION_BASES)]
        map_name = maps[(t + t // len(MUTATION_BASES)) % len(maps)]
        p, data = by_name[base]
        doc = twosided_doc(p, data)
        dom, cod, cols = doc.maps[map_name]
        col, row = rng.choice(mutation_menu(doc, map_name))
        cols = [list(c) for c in cols]
        cols[col][row] += 1
        doc.maps[map_name] = (dom, cod, cols)
        out.append((mutation_key(base, map_name, col, row), doc))
    return out


def _malformed(rng, corpus_docs):
    """(name, text) of documents that must be rejected as input errors."""
    out = []
    for t in range(MALFORMED_PER_KIND):
        text = rng.choice(corpus_docs)
        cut = rng.randrange(1, len(text) - 1)
        out.append((f"bad-json-{t}", text[:cut]))
        bad = json.loads(text)
        slot = rng.choice(["R1", "R2", "R3", "E", "A", "C"])
        bad["datasets"]["d"][slot] = f"missing{rng.randrange(100)}"
        out.append((f"unresolved-{t}", json.dumps(bad)))
        bad = json.loads(text)
        bad["field"] = {"kind": "prime", "p": rng.choice([1, 4, 6, 9, 15, 21, 25])}
        out.append((f"non-prime-{t}", json.dumps(bad)))
        bad = json.loads(text)
        m = rng.choice(["R1", "R2", "R3", "E"])
        rows = bad["maps"][m]["matrix"]
        del rows[rng.randrange(len(rows))]
        out.append((f"shape-{t}", json.dumps(bad)))
    return out


N_MUTANTS = 10
MALFORMED_PER_KIND = 4


def cli_small(seed: int) -> Workload:
    outcomes = load_mutant_outcomes()
    rng = random.Random(seed)
    w = _Writer(rng)
    ops = []
    corpus = _corpus(rng)
    corpus_docs = []
    for name, p, data in corpus:
        fname = f"corpus-{name}.json"
        doc = w.add(fname, _with_product(p, data))
        corpus_docs.append(w.docs[fname])
        ops += _twosided_ops(0, fname, doc, data, TWOSIDED_COMMANDS)
    ops += _other_types((Q, 2, Q, 2, 2, Q, Q), w, 0)
    for key, doc in _mutants(rng, corpus, N_MUTANTS):
        fname = f"mutant-{key.replace('/', '-')}.json"
        w.add(fname, doc)
        failed, failure = outcomes[key]
        ops.append(Op(1, fname, ["check"], 1, "fail", {"failed": failed.split()}))
        ops.append(Op(1, fname, ["build", "--force"], 1, "fail",
                      {"failed": ["built-associative-unital"], "failure": failure}))
    for name, text in _malformed(rng, corpus_docs):
        fname = f"malformed-{name}.json"
        w.docs[fname] = text
        ops.append(Op(2, fname, ["check"], 2, "error", {"error_type": "DocumentError"}))
    return Workload(w.docs, ops, ("valid", "axiom-fail", "input-error"))


WORKLOADS = {"ladder-q": ladder_q, "search-fp": search_fp, "cli-small": cli_small}


def load_mutant_outcomes():
    """Failed conditions under ``check`` and the failure kind under ``build --force``
    for every unit-pinned single-entry mutation of MUTATION_BASES, keyed by
    :func:`mutation_key` in the canonical basis.  A relabelling changes neither.
    The table pins the outcomes at the commit that defined the benchmark;
    ``python3 bench/selftest.py --mutant-table`` prints it afresh."""
    table = json.loads((Path(__file__).parent / "mutants.json").read_text())
    return {key: tuple(value.split("|")) for key, value in table.items()}

"""Ready-made builders on top of the two-sided crossed product, and a
finite-field search that doubles as a fixture oracle.

* :func:`iterated_ttp` glues three pairwise twisting maps satisfying the
  braid relation into the algebra on A (x) B (x) C with multiplication
  ``(a⊗b⊗c)(a'⊗b'⊗c') = a (a'_R3)_R1 ⊗ b_R1 b'_R2 ⊗ (c_R3)_R2 c'``.
* :func:`ma_build` assembles two-sided data from coalgebra-based input
  (G, R, T, τ) with ``E(h⊗h') = (h_1)^G ⊗ (h'_1)_G ⊗ τ(h_2, h'_2)``.
* :func:`transport` validates the two-sided product once and rewrites it on
  V (x) (A (x) C): as a mirror crossed product over the twisted tensor product
  A (x)_R3 C when R1 is the flip (remark 1), and as an L-R-style product built
  from the maps J, T, γ, η when R3 is the flip (remark 2).
* :func:`search_fp` enumerates map tuples over a prime field and returns the
  ones passing every two-sided condition.  It reads the condition table
  :data:`~xprod.twosided.CONDITIONS` that :func:`check_twosided` reports
  from, stops each candidate at its first failing condition, and decides a
  condition that does not read an unfrozen E once per distinct choice of
  the unfrozen maps it reads.  For each R-triple drawn twice, the conditions
  that read E become polynomials in E's free digits, read off one run of
  their declared chains over a symbolic E.  Candidates are drawn one at
  a time in a single thread.  Each solution is kept as its rows as a report
  writes them (:class:`Solutions`), and built as two-sided data when read.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections.abc import Sequence
from math import prod
from types import MappingProxyType

from .algebra import (
    Coalgebra,
    FinAlgebra,
    PointedSpace,
    _column_witness,
    _require_maps,
    _routes_agree,
    _ttp_product,
    _unit_legs,
)
from .crossed import (
    MirrorData,
    _braid,
    _columns_equal,
    _mirror_product,
    _twisting_shapes,
    check_twisting,
)
from .errors import (
    AxiomFailure,
    FieldMismatch,
    InternalCheckError,
    PreconditionFail,
    SearchSpaceTooLarge,
)
from .exactla import (
    PrimeField,
    TensorMap,
    compose,
    flip,
    identity,
    permute_factors,
    shape,
    tensor,
    tensor_vec,
    vector_map,
)
from .record import record, unchecked
from .report import ConditionResult, Report
from .twosided import (
    CONDITIONS,
    MAP_NAMES,
    TWIST_LEGS,
    TwoSidedData,
    _chain_map,
    _named,
    _validated_product,
    build_twosided,
    check_twosided,
)

def product_connector(a: FinAlgebra, b: FinAlgebra, c: FinAlgebra) -> TensorMap:
    """The map v ⊗ v' -> 1_A ⊗ vv' ⊗ 1_C built from the middle algebra."""
    f = a.field
    return tensor(vector_map(f, a.unit), b.mul, vector_map(f, c.unit)).reshaped(
        domain=shape(b.dim, b.dim))


def _prefixed(prefix: str, rep: Report) -> tuple:
    return tuple(ConditionResult(f"{prefix}:{e.name}", e.passed, e.witness, e.informational)
                 for e in rep.entries)


def braid_report(r1: TensorMap, r2: TensorMap, r3: TensorMap) -> Report:
    """The hexagon identity for three twisting maps, checked columnwise."""
    return Report((_columns_equal("braid", _braid(
        r1, r2, r3, "(id⊗R2)∘(R3⊗id)∘(id⊗R1)=(R1⊗id)∘(id⊗R3)∘(R2⊗id)")),))


def _iterated_twists(a: FinAlgebra, b: FinAlgebra, c: FinAlgebra,
                     r1: TensorMap, r2: TensorMap, r3: TensorMap) -> list:
    """(name, R, A', B') for each twisting map R: B'⊗A' -> A'⊗B' of an iterated
    product; refuses the first mis-shaped one by its name."""
    algs, maps = (a, b, c), {"R1": r1, "R2": r2, "R3": r3}
    twists = [(name, maps[name], algs[y], algs[x]) for name, (x, y) in TWIST_LEGS.items()]
    for twist in twists:
        _twisting_shapes(*twist)
    return twists


def iterated_report(a: FinAlgebra, b: FinAlgebra, c: FinAlgebra,
                    r1: TensorMap, r2: TensorMap, r3: TensorMap) -> Report:
    """The preconditions of :func:`iterated_ttp`: each R is a twisting map
    (prefixed R1, R2, R3) and the three satisfy the braid relation."""
    return Report(tuple(
        entry for name, r, a_, b_ in _iterated_twists(a, b, c, r1, r2, r3)
        for entry in _prefixed(name, check_twisting(r, a_, b_)))
        + braid_report(r1, r2, r3).entries)


# the displayed formula of :func:`iterated_ttp` on (a, b, c, a', b', c')
ITERATED_CHAIN = (
    ("R3", 2),  # (c, a') -> a'_R3, c_R3
    ("R1", 1),  # (b, a'_R3) -> (a'_R3)_R1, b_R1
    ("R2", 3),  # (c_R3, b') -> b'_R2, (c_R3)_R2
    ("μ_A", 0), ("μ_B", 1), ("μ_C", 2))


def iterated_ttp(a: FinAlgebra, b: FinAlgebra, c: FinAlgebra,
                 r1: TensorMap, r2: TensorMap, r3: TensorMap) -> FinAlgebra:
    """Iterated twisted tensor product of three algebras.

    Requires R1, R2, R3 to be pairwise twisting maps satisfying the braid
    relation; delegates to the two-sided product with the middle slot pointed
    by 1_B and E(b⊗b') = 1_A ⊗ bb' ⊗ 1_C, whose twelve conditions these imply
    (an internal error otherwise: equiv6, for one, is the associativity of B),
    then verifies the multiplication against its own displayed formula.
    """
    iterated_report(a, b, c, r1, r2, r3).require(
        "iterated twisted tensor product preconditions fail")
    data = TwoSidedData(a, b.as_pointed(), c, r1, r2, r3, product_connector(a, b, c))
    rep = check_twosided(data)
    if not rep.all_pass:
        raise rep.disagreement("iterated data", ("iterated preconditions", "two-sided conditions"))
    out = _validated_product(data)
    named = {"R1": r1, "R2": r2, "R3": r3, "μ_A": a.mul, "μ_B": b.mul, "μ_C": c.mul}
    _routes_agree("iterated twisted tensor product", ("displayed formula", "two-sided product"),
                  _chain_map(a.field, (a.dim, b.dim, c.dim) * 2, ITERATED_CHAIN, named), out.mul)
    return out


@record
class MaData:
    """Coalgebra-based input (H, A, B, G, R, T, τ) for a two-sided product.

    Shapes: G: [H,H] -> [A,H], R: [H,A] -> [A,H], T: [B,H] -> [H,B],
    tau: [H,H] -> [B].
    """

    H: Coalgebra
    A: FinAlgebra
    B: FinAlgebra
    G: TensorMap
    R: TensorMap
    T: TensorMap
    tau: TensorMap

    def __post_init__(self):
        nh, na, nb = self.H.dim, self.A.dim, self.B.dim
        _require_maps("coalgebra-based data", (self.H, self.A, self.B), (
            ("G", self.G, (nh, nh), (na, nh)), ("R", self.R, (nh, na), (na, nh)),
            ("T", self.T, (nb, nh), (nh, nb)), ("tau", self.tau, (nh, nh), (nb,))))


def ma_connector(d: MaData) -> TensorMap:
    """E(h⊗h') = (h_1)^G ⊗ (h'_1)_G ⊗ τ(h_2, h'_2), via the comultiplications."""
    f = d.H.field
    nh = d.H.dim
    idh = identity(f, shape(nh))
    mid_swap = tensor(idh, flip(f, nh, nh), idh)
    return compose(tensor(d.G, d.tau), mid_swap, tensor(d.H.comul, d.H.comul))


def ma_twosided(d: MaData) -> TwoSidedData:
    """Two-sided data with V = (H, 1_H), R1 = R, R2 = T, R3 = flip and E from
    (G, τ), not yet checked."""
    f = d.H.field
    return TwoSidedData(d.A, PointedSpace(f, d.H.dim, d.H.unit), d.B, d.R, d.T,
                        flip(f, d.B.dim, d.A.dim), ma_connector(d))


def ma_build(d: MaData) -> TwoSidedData:
    """Assemble :func:`ma_twosided`'s data and require it to pass every
    two-sided condition; failures are raised as an :class:`AxiomFailure`
    carrying the full report.
    """
    data = ma_twosided(d)
    check_twosided(data).require("coalgebra-based data fails two-sided conditions")
    return data


# -- remark transports --------------------------------------------------------

def _is_flip(m: TensorMap) -> bool:
    """Whether m: X (x) Y -> Y (x) X is the flip map."""
    return m.cols == flip(m.field, *m.domain.dims).cols


@record
class LRData:
    """Maps (J, T, γ, η) presenting a two-sided product on V (x) (A (x) C).

    J((a⊗c)⊗v) = v_R2 ⊗ (a ⊗ c_R2)
    T(v⊗(a⊗c)) = v_R1 ⊗ (a_R1 ⊗ c)
    γ(v⊗v') = v ⊗ v' ⊗ (1_A ⊗ 1_C)
    η(v⊗v') = E_V(v,v') ⊗ (1_A ⊗ E_C(v,v')) ⊗ (E_A(v,v') ⊗ 1_C)

    The A (x) C factor is grouped into a single tensor slot.
    """

    J: TensorMap
    T: TensorMap
    gamma: TensorMap
    eta: TensorMap


# the L-R product of :func:`transport` on (v, x, v', x'), x in A (x)_R3 C with product μ
LR_CHAIN = (
    ((0, 2, 1, 3), 0), ("gamma", 0),  # v, v', 1, x, x'
    ((0, 4, 3, 1, 2), 0), ("T", 0),   # v_T, x'_T, x, v', 1
    ("J", 2), ((0, 2, 3, 4, 1), 0),   # v_T, v'_J, x_J, 1, x'_T
    ("μ", 2), ("μ", 2), ("eta", 0),
    ((0, 1, 3, 2), 0),                # E_V, 1⊗E_C, x_J 1 x'_T, E_A⊗1
    ("μ", 1), ("μ", 1))


def transport(d: TwoSidedData) -> tuple[FinAlgebra, dict, Report]:
    """Present the two-sided product on V (x) (A (x) C) by each remark that applies.

    Both build on B' = A (x)_R3 C.  Remark 1 (R1 = flip) builds the mirror
    crossed product V (x)~_{P,ν} B' with P((a⊗c)⊗v) = v_R2 ⊗ (a ⊗ c_R2) and
    ν(v⊗v') = E_V(v,v') ⊗ (E_A(v,v') ⊗ E_C(v,v')).  Remark 2 (R3 = flip, so
    B' = A (x) C) builds the L-R-style product from its maps J, T, γ, η and the
    product of A (x) C: (v⊗x)•(v'⊗x') = E_V ⊗ (1_A⊗E_C) x_J x'_T (E_A⊗1_C), with
    E = η(v_T⊗v'_J), that is ``(v⊗(a⊗c))•(v'⊗(a'⊗c')) = E_V(v_R1,v'_R2) ⊗ (a
    a'_R1 E_A(v_R1,v'_R2) ⊗ E_C(v_R1,v'_R2) c_R2 c')``; its J is the mirror P.

    Validates the two-sided product and B' once each, and permutes the product
    to V (x) A (x) C.  Each presentation has its own conditions but no
    validation, and must equal the permuted product exactly, else
    :class:`InternalCheckError`; all units are 1_V ⊗ 1_A ⊗ 1_C.  Returns the
    permuted product, the data of each remark that applies (``"remark1"``:
    :class:`MirrorData`, ``"remark2"``: :class:`LRData`) and their report
    entries, prefixed ``remark1:`` and ``remark2:``.  Remark 2's report also
    carries an informational witness showing the product is generally not a
    mirror crossed product: a basis tuple with (v⊗(a⊗c))•(1_V⊗(a'⊗c'))
    different from v ⊗ (a⊗c)(a'⊗c').
    """
    mirror, lr = _is_flip(d.R1), _is_flip(d.R3)
    if not (mirror or lr):
        raise PreconditionFail("neither R1 nor R3 is the flip map")
    f = d.field
    a, v, c = d.A, d.V, d.C
    na, nv, nc = a.dim, v.dim, c.dim
    nac, n = na * nc, na * nv * nc
    to_vac = permute_factors(f, (na, nv, nc), (1, 0, 2))
    to_avc = permute_factors(f, (nv, na, nc) * 2, (1, 0, 2, 4, 3, 5))
    moved = FinAlgebra(f, n, compose(to_vac, build_twosided(d).mul, to_avc).reshaped(
        shape(n, n), shape(n)), tensor_vec(f, v.unit, a.unit, c.unit))
    p_map = compose(to_vac, tensor(identity(f, shape(na)), d.R2)).reshaped(
        domain=shape(nac, nv), codomain=shape(nv, nac))
    ac = _ttp_product(a, c, d.R3)  # build_twosided decided R3's twisting laws as twR31-33
    data, entries = {}, []
    if mirror:
        nu_map = compose(to_vac, d.E).reshaped(codomain=shape(nv, nac))
        mir = data["remark1"] = MirrorData(v, ac, p_map, nu_map)
        try:
            mul, conditions = _mirror_product(mir)
        except AxiomFailure as exc:
            raise exc.report.disagreement("the transported mirror data", (
                "two-sided conditions", "mirror conditions")) from exc
        _routes_agree("transported product", ("mirror presentation", "permuted product"),
                      mul, moved.mul)
        entries += _prefixed("remark1:mirror", conditions)
        entries.append(ConditionResult("remark1:transport-equality", True))
    if lr:
        t_map = compose(to_vac, tensor(d.R1, identity(f, shape(nc)))).reshaped(
            domain=shape(nv, nac), codomain=shape(nv, nac))
        gamma = _unit_legs(f, (v.unit, v.unit, ac.unit), (0, 1))
        eta = compose(_unit_legs(f, (v.unit, a.unit, c.unit, a.unit, c.unit), (0, 2, 3)),
                      permute_factors(f, (na, nv, nc), (1, 2, 0)), d.E).reshaped(
            codomain=shape(nv, nac, nac))
        lr = data["remark2"] = LRData(p_map, t_map, gamma, eta)
        named = {"J": lr.J, "T": lr.T, "gamma": lr.gamma, "eta": lr.eta, "μ": ac.mul}
        _routes_agree("transported product", ("L-R presentation", "permuted product"),
                      _chain_map(f, (nv, nac) * 2, LR_CHAIN, named), moved.mul)
        info = _column_witness((
            compose(moved.mul, _unit_legs(f, (v.unit, a.unit, c.unit) * 2, (0, 1, 2, 4, 5))),
            tensor(identity(f, shape(nv)), ac.mul).reshaped(domain=shape(nv, na, nc, na, nc)),
            "(v⊗(a⊗c))•(1_V⊗(a'⊗c')) vs v⊗(a⊗c)(a'⊗c')"))
        entries += (ConditionResult("remark2:transport-equality", True),
                    ConditionResult("remark2:lr-differs-from-mirror", True, info,
                                    informational=True))
    return moved, data, Report(tuple(entries))


# -- finite-field search ------------------------------------------------------

@record
class SearchSpec:
    """Parameters of a finite-field search for valid two-sided data; the
    field and the dimensions are those of the algebras searched over.

    ``frozen`` maps a subset of {"R1", "R2", "R3", "E"} to fixed maps; the
    remaining maps are enumerated.  Unit conditions pin every matrix column
    whose input involves a distinguished basis vector, so only the remaining
    columns are free.  ``budget`` bounds randomized sampling; ``cap`` bounds
    the exhaustive space.
    """

    mode: str = "exhaustive"
    budget: int = 256
    seed: int = 0
    frozen: dict | MappingProxyType = MappingProxyType({})  # read-only, so safe to share
    cap: int = 1 << 16


def _unit_basis_index(field, unit, what):
    nonzero = [i for i, x in enumerate(unit) if not field.is_zero(x)]
    if len(nonzero) != 1 or unit[nonzero[0]] != field.one:
        raise PreconditionFail(
            f"search requires the unit of {what} to be a standard basis vector")
    return nonzero[0]


# the unit laws that :func:`_map_template`'s pinned columns satisfy
_PINNED_LAWS = ("twR31", "unit-R1", "unit-R2", "unit-E")


def _map_template(f, name, na, nv, nc, ua, uv, uc):
    """The domain and codomain of one map, its columns in domain order (a
    pinned column as its sparse nonzeros, a free one as None), and the number
    of base-p digits its free columns take.

    The unit conditions pin R(1⊗y) = y⊗1 and R(x⊗1) = 1⊗x for a twisting map
    R: x⊗y -> y⊗x, and E(1⊗v) = E(v⊗1) = 1⊗v⊗1 for the connector.
    """
    one = f.one
    if name == "E":
        dom, cod = shape(nv, nv), shape(na, nv, nc)

        def pinned(j, jp):
            if uv not in (j, jp):
                return None
            return (((ua * nv + (jp if j == uv else j)) * nc + uc, one),)
    else:
        legs = ((na, ua), (nv, uv), (nc, uc))
        (nx, ux), (ny, uy) = (legs[t] for t in TWIST_LEGS[name])
        dom, cod = shape(nx, ny), shape(ny, nx)

        def pinned(i, j):
            if i == ux:
                return ((j * nx + ux, one),)
            return ((uy * nx + i, one),) if j == uy else None
    cols = tuple(itertools.starmap(pinned, itertools.product(*map(range, dom.dims))))
    return dom, cod, cols, cols.count(None) * cod.total


def _width(template):
    """The number of base-p digits a map's free columns take."""
    return template[3]


def _fill(f, template, digits, entries=None):
    """The map with the template's pinned columns and its free columns, in
    domain order, read from consecutive runs of the sequence ``digits``: each
    run's nonzero digits are its column's entries, so no dense column is
    built.  A digit is an F_p residue, or a :class:`_Poly` polynomial when
    :func:`_compile` fills E symbolically.  Given ``entries``, a dict, the
    (row, residue) entries are taken from it, and added to it, so the maps
    filled through one dict share them."""
    dom, cod, pinned, _ = template
    n, k, cols = cod.total, 0, []
    for col in pinned:
        if col is None:
            col = tuple(e if entries is None else entries.setdefault(e, e)
                        for e in enumerate(digits[k:k + n]) if e[1])
            k += n
        cols.append(col)
    return TensorMap(f, dom, cod, tuple(cols))


def _digits(n, p, width):
    """The base-p digits of n, most significant first."""
    out = [0] * width
    for t in range(width - 1, -1, -1):
        n, out[t] = divmod(n, p)
    return out


def _candidates(spec: SearchSpec, space: int):
    """The candidate numbers, produced one at a time: every number below
    ``space`` in exhaustive mode, else ``budget`` draws from
    ``random.Random(seed)``."""
    if spec.mode == "exhaustive":
        return iter(range(space))
    rng = random.Random(spec.seed)
    return (rng.randrange(space) for _ in range(spec.budget))


class _Poly:
    """Polynomials over F_p in E's free digits, with the ``one`` and the
    :class:`Field` operations ``add``, ``mul`` and ``is_zero`` that the sparse
    tensor chains of :mod:`~xprod.twosided` use: a constant is its residue, any
    other polynomial a dict from monomials (sorted tuples of digit numbers, a
    square repeats its number) to nonzero coefficients, so zero is ``0``."""

    one = 1

    def __init__(self, p):
        self.p = p

    def terms(self, a):
        return a.items() if isinstance(a, dict) else (((), a),) if a else ()

    def add(self, a, b):
        if not (isinstance(a, dict) or isinstance(b, dict)):
            return (a + b) % self.p
        out = {}
        for m, x in itertools.chain(self.terms(a), self.terms(b)):
            out[m] = (out.get(m, 0) + x) % self.p
        out = {m: x for m, x in out.items() if x}
        return out if out.keys() - {()} else out.get((), 0)

    def mul(self, a, b):
        if not isinstance(a, dict):
            a, b = b, a
        if not isinstance(a, dict):
            return a * b % self.p
        if not isinstance(b, dict):  # a constant scales every coefficient
            return a if b == 1 else {m: x * b % self.p for m, x in a.items()} if b else 0
        return functools.reduce(self.add, ({tuple(sorted(m + n)): x * y % self.p}
                                           for m, x in a.items() for n, y in b.items()))

    def is_zero(self, a):
        return a == 0


def _compile(a, v, c, conds, maps, template):
    """The residual lhs − rhs of every side of ``conds`` as polynomials in E's
    free digits, for the maps other than E in ``maps``, keyed by name.

    E is filled from ``template`` with its free digits as variables, and each
    side's declared chains run once over it, by the interpreter of the scans
    (:func:`~xprod.twosided._chain_map`), so a residual's degree is at most
    the number of E steps in a side's chain: 1 for equiv4 and equiv5, 2 for
    equiv6.  Returns the nonzero residual entries as rows of (monomial,
    coefficient); equal rows are kept once.
    """
    ring = _Poly(a.field.p)
    e = _fill(ring, template, [{(i,): 1} for i in range(_width(template))])
    named = _named(a, v, c, {**maps, "E": e})
    rows = {}
    for cond in conds:
        for legs, sides in cond.scans:
            dims = tuple(named[x] for x in legs)
            for lhs, rhs, _ in sides:
                for left, right in zip(_chain_map(ring, dims, lhs, named).cols,
                                       _chain_map(ring, dims, rhs, named).cols):
                    residual = dict(left)
                    for i, x in right:
                        residual[i] = ring.add(residual.get(i, 0), ring.mul(a.field.p - 1, x))
                    rows.update((tuple(sorted(ring.terms(r))), None) for r in residual.values())
    rows.pop((), None)  # the row of a vanishing entry
    return tuple(rows)


def _holds(rows, x, p) -> bool:
    """Whether the compiled residual ``rows`` vanishes at E's digits x."""
    return all(sum(k * prod(x[i] for i in m) for m, k in row) % p == 0 for row in rows)


class Solutions(Sequence):
    """The solutions of :func:`search_fp` in order, kept as ``rows``: each one's
    (R rows, E rows, n), its R-triple's (R1, R2, R3) and its E as a report
    writes them and its candidate number.  An item read is built from n."""

    def __init__(self, rows, solution):
        self.rows, self._solution = rows, solution

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._solution(n) for _, _, n in self.rows[i]]
        return self._solution(self.rows[i][2])


def search_fp(spec: SearchSpec, a: FinAlgebra, v: PointedSpace, c: FinAlgebra) -> Solutions:
    """Enumerate or sample candidate (R1, R2, R3, E) over the prime field of
    A, V and C, and keep the tuples passing every two-sided condition.

    Candidate n carries the free digits of every unfrozen map, R1, R2, R3, E
    in that order, most significant first, so E's d digits are the lowest and
    n // p^d numbers its R-triple.  Each candidate meets the conditions of
    :data:`~xprod.twosided.CONDITIONS` and is dropped at its first failure;
    the unit laws that an unfrozen map's template pins are skipped.  The
    conditions whose steps do not read an unfrozen E come first, and an
    R-triple meets them once: each is decided once per distinct digit slice
    of the unfrozen maps it reads (its ``maps``), each unfrozen R map is
    decoded once per distinct slice, and a passing triple keeps its maps, so
    a later candidate of it costs its E digits and the E conditions.  (A
    failing triple drawn again reads its verdicts back.)  The conditions that
    read an unfrozen E come last: an R-triple's first two visits scan them,
    and the second also compiles them (:func:`_compile` runs their declared
    chains over polynomials in E's digits) to decide the triple's later
    candidates, raising :class:`~xprod.errors.InternalCheckError` if the two
    routes disagree.  In exhaustive mode each R-triple is one run of
    consecutive candidates, its E digits stepped in order, and a triple that
    fails a condition without E is skipped with the whole run.  Memory grows
    with the distinct R-triples drawn, not with the space.  A solution is
    kept as its rows (:class:`Solutions`), about 200 bytes: its R-triple's
    rows, which the triple's solutions share, a tuple of its E rows, each
    shared with every equal row through a memo of this call, and its number.
    The solutions are sorted by those rows, the matrices as the report writes
    them (:meth:`~xprod.exactla.TensorMap.format_rows`), so the output is
    byte-stable for a fixed spec and seed.  An item read is built from its
    number without checking its shapes again: the templates fix them, and a
    probe candidate checks the frozen maps once.
    """
    f = a.field
    if not isinstance(f, PrimeField):
        raise PreconditionFail("search requires a prime field")
    if {v.field, c.field} != {f}:
        raise FieldMismatch("search algebras over a different field")
    if spec.mode not in ("exhaustive", "randomized"):
        raise PreconditionFail(f"unknown search mode {spec.mode!r}")
    if spec.budget < 0:
        raise PreconditionFail(f"search budget must be nonnegative, got {spec.budget}")
    if spec.seed < 0:
        raise PreconditionFail(f"search seed must be nonnegative, got {spec.seed}")
    for name in spec.frozen:
        if name not in MAP_NAMES:
            raise PreconditionFail(f"frozen label {name!r} is not among R1, R2, R3, E")
    na, nv, nc = a.dim, v.dim, c.dim
    ua = _unit_basis_index(f, a.unit, "A")
    uv = _unit_basis_index(f, v.unit, "V")
    uc = _unit_basis_index(f, c.unit, "C")

    frozen = dict(spec.frozen)
    templates = {name: _map_template(f, name, na, nv, nc, ua, uv, uc)
                 for name in MAP_NAMES if name not in frozen}
    # check the frozen maps' shapes and fields once, on a probe candidate
    TwoSidedData(a, v, c, **frozen, **{name: _fill(f, t, [0] * _width(t))
                                       for name, t in templates.items()})
    slots = sum(_width(t) for t in templates.values())
    space = f.p ** slots
    if spec.mode == "exhaustive" and space > spec.cap:
        raise SearchSpaceTooLarge(space, spec.cap)

    d = _width(templates["E"]) if "E" in templates else 0
    width = f.p ** d  # E's digits are the lowest, so candidate n has R-triple n // width
    layout = {}  # R name -> (divisor, modulus) of its digit slice in an R-triple number
    low = slots - d
    for name, template in templates.items():
        if name != "E":
            low -= _width(template)
            layout[name] = (f.p ** low, f.p ** _width(template))
    # the unit laws of an unfrozen map hold by its template, so they are skipped
    plan = [(cond, tuple(m for m in cond.maps if m in templates)) for cond in CONDITIONS
            if not (cond.label in _PINNED_LAWS and cond.maps[0] in templates)]
    cached = [step for step in plan if "E" not in step[1]]
    e_conds = [cond for cond, unfrozen in plan if "E" in unfrozen]
    verdicts = {}  # (label, digit slices of its unfrozen maps) -> holds
    entries, texts = {}, {}  # the maps' shared column entries and row texts
    triples = {}   # R-triple passing every condition without E -> its maps, R rows
    compiled = {}  # R-triple -> None after one visit to the E conditions, then their residual

    @functools.cache
    def decode(name, part):  # the R map ``name`` of a digit slice
        return _fill(f, templates[name], _digits(part, f.p, _width(templates[name])), entries)

    def triple_maps(t):
        """The maps of R-triple t, a frozen E among them, and their R rows, if
        it passes every condition without E, else None."""
        hit = triples.get(t)
        if hit is not None:
            return hit
        parts = {name: t // div % mod for name, (div, mod) in layout.items()}
        maps = dict(frozen)
        for cond, unfrozen in cached:
            key = (cond.label, *(parts[m] for m in unfrozen))
            holds = verdicts.get(key)
            if holds is None:
                for m in unfrozen:
                    maps[m] = decode(m, parts[m])
                holds = verdicts[key] = cond.witness(a, v, c, maps) is None
            if not holds:
                return None
        for name, part in parts.items():
            maps[name] = decode(name, part)
        hit = triples[t] = maps, tuple(maps[m].format_rows(texts) for m in ("R1", "R2", "R3"))
        return hit

    def e_holds(t, maps, x):
        """Whether the conditions that mention E hold at E digits x of R-triple t."""
        rows = compiled.get(t)
        if rows is not None:
            return _holds(rows, x, f.p)
        named = {**maps, "E": _fill(f, templates["E"], x, entries)}
        scanned = all(cond.witness(a, v, c, named) is None for cond in e_conds)
        if t not in compiled:
            compiled[t] = None
            return scanned
        rows = compiled[t] = _compile(a, v, c, e_conds, maps, templates["E"])
        if _holds(rows, x, f.p) != scanned:
            where = ", ".join(f"{m} #{t // layout[m][0] % layout[m][1]}" if m in layout
                              else f"{m} frozen" for m in ("R1", "R2", "R3"))
            raise InternalCheckError(f"search: E conditions of R-triple ({where}) at E digits "
                                     f"{list(x)}", ("scanned", "compiled"))
        return scanned

    # runs of candidates with one R-triple, as (n, E digits): all its E values
    # in candidate order, or one draw
    if spec.mode == "exhaustive":
        runs = ((t, enumerate(itertools.product(range(f.p), repeat=d), t * width))
                for t in _candidates(spec, space // width))
    else:
        runs = ((n // width, ((n, _digits(n % width, f.p, d)),))
                for n in _candidates(spec, space))
    found, drawn = [], set()  # randomized mode's kept numbers, so a repeated draw is kept once
    for t, run in runs:
        hit = triple_maps(t)
        if hit is None:
            continue  # no E value passes an R-triple that fails without E
        maps, rows = hit
        for n, x in run:
            if e_conds and not e_holds(t, maps, x):
                continue
            if spec.mode == "randomized":
                if n in drawn:
                    continue
                drawn.add(n)
            e = maps["E"] if "E" in frozen else _fill(f, templates["E"], x, entries)
            found.append((rows, e.format_rows(texts), n))
    found.sort()  # distinct numbers have distinct rows, so n is never compared

    def solution(n):
        maps = triples[n // width][0]
        e = maps["E"] if "E" in frozen else _fill(
            f, templates["E"], _digits(n % width, f.p, d), entries)
        return unchecked(TwoSidedData, a, v, c, maps["R1"], maps["R2"], maps["R3"], e)

    return Solutions(found, solution)

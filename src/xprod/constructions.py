"""Ready-made builders on top of the two-sided crossed product, and a
finite-field search that doubles as a fixture oracle.

* :func:`iterated_ttp` glues three pairwise twisting maps satisfying the
  braid relation into the algebra on A (x) B (x) C with multiplication
  ``(a⊗b⊗c)(a'⊗b'⊗c') = a (a'_R3)_R1 ⊗ b_R1 b'_R2 ⊗ (c_R3)_R2 c'``.
* :func:`ma_build` assembles two-sided data from coalgebra-based input
  (G, R, T, τ) with ``E(h⊗h') = (h_1)^G ⊗ (h'_1)_G ⊗ τ(h_2, h'_2)``.
* :func:`remark1_transport` (R1 = flip) rewrites the two-sided product as a
  mirror crossed product over the twisted tensor product A (x)_R3 C.
* :func:`remark2_lr` (R3 = flip) rewrites it as an L-R-style product on
  V (x) (A (x) C) built from the maps J, T, γ, η.
* :func:`search_fp` enumerates map tuples over a prime field and returns the
  ones passing every two-sided condition.  It reads the condition table
  :data:`~xprod.twosided.CONDITIONS` that :func:`check_twosided` reports
  from, stops each candidate at its first failing condition, and decides a
  condition that does not involve E once per distinct choice of the R maps
  it mentions.  Candidates are drawn one at a time in a single thread.
"""

from __future__ import annotations

import itertools
import random
from types import MappingProxyType

from .algebra import (
    Coalgebra,
    FinAlgebra,
    PointedSpace,
    _column_witness,
    _require_maps,
    conjugate_algebra,
    new_algebra,
    ordinary_tensor,
    same_algebra,
)
from .crossed import (
    MirrorData,
    _braid,
    _columns_equal,
    _twisting_shapes,
    _unit_legs,
    build_mirror,
    build_ttp,
    check_mirror,
    check_twisting,
)
from .errors import (
    AxiomFailure,
    FieldMismatch,
    InternalCheckError,
    PreconditionFail,
    SearchSpaceTooLarge,
    ShapeMismatch,
)
from .exactla import (
    Field,
    PrimeField,
    TensorMap,
    basis_vector,
    compose,
    flip,
    from_columns,
    identity,
    permute_factors,
    shape,
    tensor,
    tensor_vec,
    vector_map,
)
from .record import record
from .report import ConditionResult, Report, merge
from .twosided import (
    CONDITIONS,
    TWIST_LEGS,
    TwoSidedData,
    _chain_map,
    build_twosided,
    check_twosided,
)

SEARCH_MAP_NAMES = ("R1", "R2", "R3", "E")


def product_connector(a: FinAlgebra, b: FinAlgebra, c: FinAlgebra) -> TensorMap:
    """The map v ⊗ v' -> 1_A ⊗ vv' ⊗ 1_C built from the middle algebra."""
    f = a.field
    return tensor(vector_map(f, a.unit), b.mul, vector_map(f, c.unit)).reshaped(
        domain=shape(b.dim, b.dim))


def _prefixed(prefix: str, rep: Report) -> Report:
    return Report(tuple(
        ConditionResult(f"{prefix}:{e.name}", e.passed, e.witness, e.informational)
        for e in rep.entries))


def braid_report(r1: TensorMap, r2: TensorMap, r3: TensorMap,
                 a: FinAlgebra, b: FinAlgebra, c: FinAlgebra) -> Report:
    """The hexagon identity for three twisting maps, checked columnwise."""
    return Report((_columns_equal("braid", *_braid(r1, r2, r3),
                                  "(id⊗R2)∘(R3⊗id)∘(id⊗R1)=(R1⊗id)∘(id⊗R3)∘(R2⊗id)"),))


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
    return merge(
        *(_prefixed(name, check_twisting(r, a_, b_))
          for name, r, a_, b_ in _iterated_twists(a, b, c, r1, r2, r3)),
        braid_report(r1, r2, r3, a, b, c),
    )


def iterated_ttp(a: FinAlgebra, b: FinAlgebra, c: FinAlgebra,
                 r1: TensorMap, r2: TensorMap, r3: TensorMap) -> FinAlgebra:
    """Iterated twisted tensor product of three algebras.

    Requires R1, R2, R3 to be pairwise twisting maps satisfying the braid
    relation; delegates to the two-sided product with the middle slot pointed
    by 1_B and E(b⊗b') = 1_A ⊗ bb' ⊗ 1_C, then verifies the multiplication
    against its own displayed formula.
    """
    rep = iterated_report(a, b, c, r1, r2, r3)
    if not rep.all_pass:
        raise AxiomFailure(rep, "iterated twisted tensor product preconditions fail")
    data = TwoSidedData(a, b.as_pointed(), c, r1, r2, r3, product_connector(a, b, c))
    out = build_twosided(data)

    def chain(t):
        t = t.map_at(r3, 2)            # (c, a') -> a'_R3, c_R3
        t = t.map_at(r1, 1)            # (b, a'_R3) -> (a'_R3)_R1, b_R1
        t = t.map_at(r2, 3)            # (c_R3, b') -> b'_R2, (c_R3)_R2
        return t.mul_at(a, 0).mul_at(b, 1).mul_at(c, 2)

    witness = _column_witness(_chain_map(a.field, (a.dim, b.dim, c.dim) * 2, chain), out.mul)
    if witness is not None:
        raise InternalCheckError(
            f"iterated product disagrees with its formula at {witness.indices}")
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
    rep = check_twosided(data)
    if not rep.all_pass:
        raise AxiomFailure(rep, "coalgebra-based data fails two-sided conditions")
    return data


# -- remark transports --------------------------------------------------------

def _is_flip(m: TensorMap) -> bool:
    """Whether m: X (x) Y -> Y (x) X is the flip map."""
    return m.cols == flip(m.field, *m.domain.dims).cols


def _require_flip(m: TensorMap, name: str):
    if not _is_flip(m):
        raise PreconditionFail(f"{name} is not the flip map")


def _transport_to_vac(alg: FinAlgebra, na: int, nv: int, nc: int) -> FinAlgebra:
    """Move the algebra on A (x) V (x) C along the permutation to V (x) A (x) C."""
    perm = permute_factors(alg.field, (na, nv, nc), (1, 0, 2))
    return conjugate_algebra(alg, perm.reshaped(shape(alg.dim), shape(alg.dim)))


def remark1_transport(d: TwoSidedData) -> tuple[MirrorData, Report]:
    """With R1 = flip, present the two-sided product as a mirror crossed product.

    Builds B' = A (x)_R3 C, P((a⊗c)⊗v) = v_R2 ⊗ (a ⊗ c_R2) and
    ν(v⊗v') = E_V(v,v') ⊗ (E_A(v,v') ⊗ E_C(v,v')), then asserts that
    V (x)~_{P,ν} B' equals the permuted two-sided product exactly.
    """
    f = d.field
    a, v, c = d.A, d.V, d.C
    _require_flip(d.R1, "R1")
    transported = _transport_to_vac(build_twosided(d), a.dim, v.dim, c.dim)
    bprime = build_ttp(a, c, d.R3)
    ida = identity(f, shape(a.dim))
    to_vac = permute_factors(f, (a.dim, v.dim, c.dim), (1, 0, 2))
    p_map = compose(to_vac, tensor(ida, d.R2)).reshaped(
        domain=shape(bprime.dim, v.dim), codomain=shape(v.dim, bprime.dim))
    nu_map = compose(to_vac, d.E).reshaped(codomain=shape(v.dim, bprime.dim))
    mir = MirrorData(v, bprime, p_map, nu_map)
    try:
        mirror_alg = build_mirror(mir)
    except AxiomFailure as exc:
        raise InternalCheckError(
            f"transported mirror data fails its own conditions: {exc}") from exc
    if not same_algebra(mirror_alg, transported):
        raise InternalCheckError("mirror presentation differs from the permuted product")
    out = merge(_prefixed("mirror", check_mirror(mir)),
                Report((ConditionResult("transport-equality", True),)))
    return mir, out


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


def remark2_lr(d: TwoSidedData) -> tuple[LRData, FinAlgebra, Report]:
    """With R3 = flip, present the two-sided product as an L-R-style product.

    The product on V (x) (A (x) C) is built from the displayed expansion
    ``(v⊗(a⊗c))•(v'⊗(a'⊗c')) = E_V(v_R1,v'_R2) ⊗ (a a'_R1 E_A(v_R1,v'_R2) ⊗
    E_C(v_R1,v'_R2) c_R2 c')`` and asserted equal to the permuted two-sided
    product.  The report also carries an informational witness showing this
    product is generally not a mirror crossed product: a basis tuple with
    (v⊗(a⊗c))•(1_V⊗(a'⊗c')) different from v ⊗ (a⊗c)(a'⊗c').
    """
    f = d.field
    a, v, c = d.A, d.V, d.C
    na, nv, nc = a.dim, v.dim, c.dim
    _require_flip(d.R3, "R3")
    transported = _transport_to_vac(build_twosided(d), na, nv, nc)
    ac = ordinary_tensor(a, c)
    nac = ac.dim
    ida = identity(f, shape(na))
    idv = identity(f, shape(nv))
    idc = identity(f, shape(nc))
    to_vac = permute_factors(f, (na, nv, nc), (1, 0, 2))
    j_map = compose(to_vac, tensor(ida, d.R2)).reshaped(
        domain=shape(nac, nv), codomain=shape(nv, nac))
    t_map = compose(to_vac, tensor(d.R1, idc)).reshaped(
        domain=shape(nv, nac), codomain=shape(nv, nac))
    gamma = tensor(idv, idv, vector_map(f, ac.unit)).reshaped(
        domain=shape(nv, nv), codomain=shape(nv, nv, nac))
    to_vca = permute_factors(f, (na, nv, nc), (1, 2, 0))
    insert_units = tensor(idv, vector_map(f, a.unit), idc, ida, vector_map(f, c.unit))
    eta = compose(insert_units.reshaped(domain=shape(nv, nc, na)),
                  to_vca, d.E).reshaped(codomain=shape(nv, nac, nac))
    lr = LRData(j_map, t_map, gamma, eta)

    def chain(t):
        t = t.permute((0, 4, 1, 2, 3, 5))      # v, a', a, c, v', c'
        t = t.map_at(d.R1, 0)                  # a'_R1, v_R1, a, c, v', c'
        t = t.map_at(d.R2, 3)                  # ..., v'_R2, c_R2, c'
        t = t.permute((2, 0, 1, 3, 4, 5))      # a, a'_R1, v_R1, v'_R2, c_R2, c'
        t = t.map_at(d.E, 2)                   # a, a'_R1, E_A, E_V, E_C, c_R2, c'
        t = t.mul_at(a, 0).mul_at(a, 0)
        t = t.mul_at(c, 2).mul_at(c, 2)        # E_C c_R2 c'
        return t.permute((1, 0, 2))            # V, A, C

    n = nv * nac
    mul = _chain_map(f, (nv, na, nc) * 2, chain).reshaped(shape(n, n), shape(n))
    lr_alg = new_algebra(f, n, mul, tensor_vec(f, v.unit, ac.unit))
    if not same_algebra(lr_alg, transported):
        raise InternalCheckError("L-R presentation differs from the permuted product")

    info = _column_witness(
        compose(lr_alg.mul, _unit_legs(f, (v.unit, a.unit, c.unit) * 2, (0, 1, 2, 4, 5))),
        tensor(idv, ac.mul).reshaped(domain=shape(nv, na, nc, na, nc)),
        "(v⊗(a⊗c))•(1_V⊗(a'⊗c')) vs v⊗(a⊗c)(a'⊗c')")
    report = Report((
        ConditionResult("transport-equality", True),
        ConditionResult("lr-differs-from-mirror", True, info, informational=True),
    ))
    return lr, lr_alg, report


# -- finite-field search ------------------------------------------------------

@record
class SearchSpec:
    """Parameters of a finite-field search for valid two-sided data.

    ``frozen`` maps a subset of {"R1", "R2", "R3", "E"} to fixed maps; the
    remaining maps are enumerated.  Unit conditions pin every matrix column
    whose input involves a distinguished basis vector, so only the remaining
    columns are free.  ``budget`` bounds randomized sampling; ``cap`` bounds
    the exhaustive space.
    """

    field: Field
    dims: tuple[int, int, int]
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


def _map_template(f, name, na, nv, nc, ua, uv, uc):
    """Pinned columns plus the list of free column inputs for one map.

    The unit conditions pin R(1⊗y) = y⊗1 and R(x⊗1) = 1⊗x for a twisting map
    R: x⊗y -> y⊗x, and E(1⊗v) = E(v⊗1) = 1⊗v⊗1 for the connector.
    """
    pin = {}
    if name == "E":
        dom, cod = shape(nv, nv), shape(na, nv, nc)
        for j, jp in itertools.product(range(nv), repeat=2):
            if j == uv or jp == uv:
                other = jp if j == uv else j
                pin[(j, jp)] = tensor_vec(
                    f, basis_vector(f, na, ua), basis_vector(f, nv, other),
                    basis_vector(f, nc, uc))
    else:
        legs = ((na, ua), (nv, uv), (nc, uc))
        (nx, ux), (ny, uy) = (legs[t] for t in TWIST_LEGS[name])
        dom, cod = shape(nx, ny), shape(ny, nx)
        for i, j in itertools.product(range(nx), range(ny)):
            if i == ux:
                pin[(i, j)] = tensor_vec(f, basis_vector(f, ny, j), basis_vector(f, nx, ux))
            elif j == uy:
                pin[(i, j)] = tensor_vec(f, basis_vector(f, ny, uy), basis_vector(f, nx, i))
    free = [idx for idx in itertools.product(*(range(x) for x in dom.dims))
            if idx not in pin]
    return dom, cod, pin, free


def _width(template):
    """The number of base-p digits a map's free columns take."""
    _, cod, _, free = template
    return len(free) * cod.total


def _fill(f, template, digits):
    """A map with its pinned columns, and its free columns, in domain order,
    read from consecutive runs of ``digits``."""
    dom, cod, pin, _ = template
    digits = iter(digits)
    cols = tuple(
        pin[idx] if idx in pin else tuple(itertools.islice(digits, cod.total))
        for idx in itertools.product(*(range(x) for x in dom.dims)))
    return from_columns(f, dom, cod, cols)


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


def search_fp(spec: SearchSpec, a: FinAlgebra, v: PointedSpace,
              c: FinAlgebra) -> list[TwoSidedData]:
    """Enumerate or sample candidate (R1, R2, R3, E) over F_p and keep the
    tuples passing every two-sided condition.

    Candidate n carries the free digits of every unfrozen map, R1, R2, R3, E
    in that order, most significant first.  Each candidate meets the
    conditions of :data:`~xprod.twosided.CONDITIONS` in order and is dropped
    at its first failure.  A condition that does not involve E is decided
    once per distinct digit slice of the unfrozen maps it mentions, and each
    unfrozen R map is decoded once per distinct slice; nothing involving E is
    cached, so memory grows with the distinct R-triples drawn, not with the
    space.  Results are deduplicated by exact matrix equality and returned in
    a canonical order (sorted by their serialized matrices), so the output is
    byte-stable for a fixed spec and seed.
    """
    f = spec.field
    if not isinstance(f, PrimeField):
        raise PreconditionFail("search requires a prime field")
    if {a.field, v.field, c.field} != {f}:
        raise FieldMismatch("search algebras over a different field")
    if spec.dims != (a.dim, v.dim, c.dim):
        raise ShapeMismatch(f"spec dims {spec.dims} do not match the algebras")
    if spec.mode not in ("exhaustive", "randomized"):
        raise PreconditionFail(f"unknown search mode {spec.mode!r}")
    na, nv, nc = spec.dims
    ua = _unit_basis_index(f, a.unit, "A")
    uv = _unit_basis_index(f, v.unit, "V")
    uc = _unit_basis_index(f, c.unit, "C")

    frozen = {name: m for name, m in spec.frozen.items() if name in SEARCH_MAP_NAMES}
    templates = {name: _map_template(f, name, na, nv, nc, ua, uv, uc)
                 for name in SEARCH_MAP_NAMES if name not in frozen}
    # check the frozen maps' shapes and fields once, on a probe candidate
    TwoSidedData(a, v, c, **frozen, **{name: _fill(f, t, [0] * _width(t))
                                       for name, t in templates.items()})
    slots = sum(_width(t) for t in templates.values())
    space = f.p ** slots
    if spec.mode == "exhaustive" and space > spec.cap:
        raise SearchSpaceTooLarge(space, spec.cap)

    layout = {}  # name -> (divisor, modulus) of its digit slice in a candidate
    low = slots
    for name, template in templates.items():
        low -= _width(template)
        layout[name] = (f.p ** low, f.p ** _width(template))
    plan = [(cond, "E" in cond.maps, tuple(m for m in cond.maps if m in templates))
            for cond in CONDITIONS]
    verdicts = {}  # (label, digit slices of its unfrozen maps) -> holds, E-free only
    r_maps = {}    # (name, digit slice) -> decoded R map

    def decode(name, part):
        m = r_maps.get((name, part))
        if m is None:
            m = _fill(f, templates[name], _digits(part, f.p, _width(templates[name])))
            if name != "E":
                r_maps[name, part] = m
        return m

    def canonical(data: TwoSidedData):
        return tuple(
            tuple(tuple(f.fmt(x) for x in row) for row in m.rows)
            for m in (data.R1, data.R2, data.R3, data.E))

    unique = {}
    for n in _candidates(spec, space):
        parts = {name: n // div % mod for name, (div, mod) in layout.items()}
        maps = dict(frozen)
        for cond, with_e, unfrozen in plan:
            # a condition involving E has no key and is always evaluated
            key = None if with_e else (cond.label, *(parts[m] for m in unfrozen))
            holds = verdicts.get(key)
            if holds is None:
                for m in unfrozen:
                    if m not in maps:
                        maps[m] = decode(m, parts[m])
                holds = cond.witness(a, v, c, *(maps[m] for m in cond.maps)) is None
                if key is not None:
                    verdicts[key] = holds
            if not holds:
                break
        else:
            # equiv4, equiv5 and equiv6 mention E, so they ran and decoded every map
            data = TwoSidedData(a, v, c, **maps)
            unique.setdefault(canonical(data), data)
    return [unique[k] for k in sorted(unique)]

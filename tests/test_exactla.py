"""Scalar arithmetic, index conventions, composition, Kronecker products."""

import fractions
import itertools
import random
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xprod.errors import ShapeMismatch
from xprod.exactla import (
    PrimeField,
    RATIONALS,
    TensorShape,
    basis_vector,
    compose,
    flat_index,
    flip,
    from_columns,
    from_rows,
    graded_flip,
    identity,
    invert,
    permute_factors,
    row_reduce,
    shape,
    tensor,
    tensor_vec,
    unflatten,
    zero_map,
)

Q = RATIONALS
F5 = PrimeField(5)


# -- scalars -----------------------------------------------------------------

def test_prime_field_rejects_bad_moduli():
    for p in (0, 1, 4, 9, 2**31, 2**31 + 11):
        with pytest.raises(ValueError):
            PrimeField(p)
    assert PrimeField(2).p == 2
    assert PrimeField(2**31 - 1).p == 2**31 - 1  # largest admissible prime


def test_large_prime_modulus_refused_before_trial_division():
    # 2^61 - 1 is prime: trial division up to its square root would take
    # about 1.5e9 steps, so the bound must be checked first
    start = time.process_time()
    with pytest.raises(ValueError, match=r"^modulus 2305843009213693951 exceeds 2\^31$"):
        PrimeField(2**61 - 1)
    assert time.process_time() - start < 1.0


def test_rational_parse_normalizes():
    assert Q.parse("3/-6") == Fraction(-1, 2)
    assert Q.fmt(Q.parse("3/-6")) == "-1/2"
    assert Q.fmt(Q.parse("4/2")) == "2"
    assert Q.parse(7) == Fraction(7)
    with pytest.raises(ZeroDivisionError):
        Q.parse("1/0")


@pytest.mark.parametrize("field, bad", [
    (F5, 2.7), (F5, 3.0), (F5, True), (F5, False),
    (Q, 0.1), (Q, 2.0), (Q, True), (Q, False),
])
def test_parse_refuses_floats_and_booleans(field, bad):
    # a float would be truncated or rounded and a boolean read as 0/1
    with pytest.raises(ValueError):
        field.parse(bad)
    assert F5.parse(7) == 2 and F5.parse("-1") == 4
    assert Q.parse(-3) == Fraction(-3) and Q.parse("0.5") == Fraction(1, 2)


@given(st.integers(-40, 40), st.integers(1, 40), st.integers(-40, 40), st.integers(1, 40))
def test_rational_addition_matches_cross_multiplication_oracle(a, b, c, d):
    got = Q.add(Fraction(a, b), Fraction(c, d))
    # independent oracle: cross-multiply and reduce by gcd by hand
    num, den = a * d + c * b, b * d
    g = gcd(num, den)
    num, den = num // g, den // g
    if den < 0:
        num, den = -num, -den
    assert (got.numerator, got.denominator) == (num, den)


@given(st.integers(0, 10**9), st.integers(0, 10**9))
def test_prime_field_matches_bigint_reduction_oracle(x, y):
    p = 2**31 - 1
    f = PrimeField(p)
    a, b = f.from_int(x), f.from_int(y)
    assert f.add(a, b) == (x + y) % p
    assert f.mul(a, b) == (x * y) % p
    assert f.sub(a, b) == (x - y) % p
    if b != 0:
        assert f.mul(f.inv(b), b) == 1


# Q scalars are an int when integral and a reduced Fraction otherwise: every
# operation agrees with Fraction arithmetic and returns the canonical type.
Q_SCALARS = st.integers(-10**6, 10**6) | st.fractions(max_denominator=60).filter(
    lambda x: x.denominator != 1)


def assert_canonical(got, want):
    assert got == want
    assert type(got) is (int if want.denominator == 1 else Fraction)


@given(Q_SCALARS, Q_SCALARS)
@example(Fraction(1, 2), Fraction(1, 2))
@example(Fraction(1, 2), 2)
@example(Fraction(-2, 3), Fraction(3, 2))
@example(0, Fraction(1, 3))
def test_rational_operations_match_fraction_arithmetic(a, b):
    x, y = Fraction(a), Fraction(b)
    assert_canonical(Q.add(a, b), x + y)
    assert_canonical(Q.sub(a, b), x - y)
    assert_canonical(Q.mul(a, b), x * y)
    assert_canonical(Q.neg(a), -x)
    assert Q.fmt(a) == str(x)
    if b:
        assert_canonical(Q.inv(b), 1 / y)
    else:
        with pytest.raises(ZeroDivisionError):
            Q.inv(b)


def parse_before_ints(text):
    """The rational parser as it was when every Q scalar was a Fraction, with
    one rule for the exponent form, read off Fraction's own grammar: a zero
    mantissa is 0 whatever the exponent, and a power of ten 10^|s| of more
    than 4,300 digits is refused, s being the exponent less the digits after
    the point."""
    if isinstance(text, int):
        return Fraction(text)
    text = str(text).strip()
    if "/" in text:
        num, _, den = text.partition("/")
        return Fraction(int(num.strip()), int(den.strip()))
    form = fractions._RATIONAL_FORMAT.match(text)
    if form is not None and form["exp"]:
        decimal = form["decimal"] or ""
        mantissa = int(form["num"] or "0"), int(decimal or "0")
        scale = int(form["exp"]) - len(decimal.replace("_", ""))
        if mantissa == (0, 0):
            return Fraction(0)
        if abs(scale) + 1 > 4300:  # the digits of 10^|scale|
            raise ValueError(f"exponent form scales by 10^{abs(scale)}, more than 4300 digits")
    return Fraction(text)


SCALAR_TEXT = st.text(st.sampled_from("0123456789+-/._eE \t\xa0x٣１"), max_size=9)


@given(SCALAR_TEXT | st.integers(-10**30, 10**30))
@example("-0")
@example(" +007 ")
@example("٣")
@example("1_0")
@example("1__0")
@example("1_0/2")
@example("1/0")
@example("3/-6")
@example(" 3 / 6 ")
@example("0.5")
@example("2.0")
@example("1e3")
@example("7" * 5000)
@example("0E600000")
@example("1e10000000")
@example("1e-10000000")
@example("1e4299")
@example("1e4300")
@example("0.25e-4300")
def test_rational_parse_matches_the_fraction_parser(text):
    # the same value, now canonical, or the same exception and message, which
    # a report quotes
    try:
        want = parse_before_ints(text)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)) as got:
            Q.parse(text)
        assert (got.type, str(got.value)) == (type(exc), str(exc))
    else:
        assert_canonical(Q.parse(text), want)


# -- flat indices -------------------------------------------------------------

def test_flat_index_examples():
    assert flat_index(shape(2, 3), (1, 2)) == 5
    assert flat_index(shape(2, 3), (0, 0)) == 0
    assert flat_index(shape(2, 2, 2), (1, 0, 1)) == 5


def test_flat_index_out_of_range():
    with pytest.raises(ShapeMismatch):
        flat_index(shape(2, 3), (1, 3))
    with pytest.raises(ShapeMismatch):
        flat_index(shape(2, 3), (2, 0))


def test_empty_shape_forbidden():
    with pytest.raises(ShapeMismatch):
        TensorShape(())


@pytest.mark.parametrize("dims", [(2.5, 2), (True, 2), ("3",), (2.0,)])
def test_dimension_that_is_not_an_int_is_refused_not_coerced(dims):
    with pytest.raises(ShapeMismatch, match="must be integers"):
        TensorShape(dims)
    with pytest.raises(ShapeMismatch, match="must be integers"):
        shape(*dims)


@pytest.mark.parametrize("dims", [
    (1,), (7,), (2, 3), (4, 5, 6), (2, 2, 2, 2), (10, 10, 10), (1, 9, 1, 11), (9973,),
])
def test_flat_unflatten_mutually_inverse_exhaustive(dims):
    shp = TensorShape(dims)
    assert shp.total <= 10**4
    seen = set()
    for flat in range(shp.total):
        multi = unflatten(shp, flat)
        assert flat_index(shp, multi) == flat
        seen.add(multi)
    assert len(seen) == shp.total


@given(st.lists(st.integers(1, 6), min_size=1, max_size=4).flatmap(
    lambda dims: st.tuples(st.just(tuple(dims)),
                           st.tuples(*(st.integers(0, d - 1) for d in dims)))))
def test_flat_unflatten_roundtrip_property(case):
    dims, multi = case
    shp = TensorShape(dims)
    assert unflatten(shp, flat_index(shp, multi)) == multi


# -- maps ----------------------------------------------------------------------

def test_compose_identity_and_flip():
    f = flip(Q, 2, 3)
    assert compose(identity(Q, shape(3, 2)), f).rows == f.rows
    assert compose(f, identity(Q, shape(2, 3))).rows == f.rows
    assert compose(flip(Q, 2, 3), flip(Q, 3, 2)).rows == identity(Q, shape(3, 2)).rows


def _matmul_oracle(a, b, reduce=None):
    # plain nested loops over dense rows, independent of the library's compose;
    # reduce maps each plain integer entry into a prime field
    n, k, m = len(a), len(b), len(b[0])
    out = tuple(tuple(sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0))
                      for j in range(m)) for i in range(n))
    return out if reduce is None else tuple(tuple(reduce(x) for x in row) for row in out)


def test_graded_flip_squares_to_identity_via_direct_multiply():
    g = graded_flip(Q, 2, 2, (0, 1), (0, 1))
    prod = _matmul_oracle(g.rows, g.rows)
    assert prod == identity(Q, shape(2, 2)).rows
    assert compose(g, g).rows == prod


@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
       st.data())
@settings(max_examples=50, deadline=None)
def test_compose_is_associative(n0, n1, n2, n3, data):
    def rand_map(dom, cod):
        entries = data.draw(st.lists(
            st.lists(st.integers(0, 4), min_size=dom, max_size=dom),
            min_size=cod, max_size=cod))
        rows = tuple(tuple(F5.from_int(x) for x in row) for row in entries)
        return from_rows(F5, shape(dom), shape(cod), rows)

    a = rand_map(n0, n1)
    b = rand_map(n1, n2)
    c = rand_map(n2, n3)
    assert compose(compose(c, b), a).rows == compose(c, compose(b, a)).rows


def test_tensor_identities_and_convention():
    assert tensor(identity(Q, shape(2)), identity(Q, shape(3))).rows == \
        identity(Q, shape(2, 3)).rows
    m = tensor(flip(Q, 2, 2), identity(Q, shape(2)))
    e = basis_vector(Q, 8, flat_index(shape(2, 2, 2), (1, 0, 1)))
    assert m.apply(e) == basis_vector(Q, 8, flat_index(shape(2, 2, 2), (0, 1, 1)))


def test_tensor_entries_match_product_oracle():
    f = from_rows(Q, shape(2), shape(3), tuple(
        tuple(Fraction(3 * i + j + 1, 2) for j in range(2)) for i in range(3)))
    g = from_rows(Q, shape(3), shape(2), tuple(
        tuple(Fraction(i - j, 3) for j in range(3)) for i in range(2)))
    t = tensor(f, g)
    for i_f in range(3):
        for i_g in range(2):
            for j_f in range(2):
                for j_g in range(3):
                    row = flat_index(shape(3, 2), (i_f, i_g))
                    col = flat_index(shape(2, 3), (j_f, j_g))
                    assert t.rows[row][col] == f.rows[i_f][j_f] * g.rows[i_g][j_g]


def test_tensor_associative_up_to_shape_concatenation():
    f = flip(Q, 2, 2)
    g = identity(Q, shape(3))
    h = graded_flip(Q, 2, 2, (0, 1), (0, 1))
    left = tensor(tensor(f, g), h)
    right = tensor(f, tensor(g, h))
    assert left.rows == right.rows
    assert left.domain.dims == right.domain.dims == (2, 2, 3, 2, 2)


def test_tensor_functoriality():
    f = flip(Q, 2, 2)
    fp = graded_flip(Q, 2, 2, (0, 1), (0, 1))
    g = flip(Q, 2, 3)
    gp = flip(Q, 3, 2)
    lhs = compose(tensor(f, g), tensor(fp, gp))
    rhs = tensor(compose(f, fp), compose(g, gp))
    assert lhs.rows == rhs.rows


def test_flip_examples():
    assert flip(Q, 1, 4).rows == identity(Q, shape(4)).rows
    f = flip(Q, 2, 2)
    assert f.apply(basis_vector(Q, 4, flat_index(shape(2, 2), (0, 1)))) == \
        basis_vector(Q, 4, flat_index(shape(2, 2), (1, 0)))


def test_apply_examples():
    v = tuple(Fraction(x) for x in (1, 2, 3, 4))
    assert identity(Q, shape(4)).apply(v) == v
    assert zero_map(Q, shape(4), shape(2)).apply(v) == (Fraction(0),) * 2
    a, b, c, d = (Fraction(x) for x in (5, 6, 7, 8))
    assert flip(Q, 2, 2).apply((a, b, c, d)) == (a, c, b, d)


def test_apply_length_mismatch():
    with pytest.raises(ShapeMismatch):
        identity(Q, shape(3)).apply((Fraction(1),))


def test_permute_factors():
    p = permute_factors(Q, (2, 3, 4), (1, 0, 2))
    e = basis_vector(Q, 24, flat_index(shape(2, 3, 4), (1, 2, 3)))
    assert p.apply(e) == basis_vector(Q, 24, flat_index(shape(3, 2, 4), (2, 1, 3)))


def test_invert_round_trip():
    g = graded_flip(Q, 2, 2, (0, 1), (0, 1))
    inv = invert(Q, g.rows)
    assert _matmul_oracle(inv, g.rows) == identity(Q, shape(2, 2)).rows
    with pytest.raises(ShapeMismatch):
        invert(Q, ((Fraction(1), Fraction(2)), (Fraction(2), Fraction(4))))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(0, 2), min_size=3, max_size=3),
                min_size=1, max_size=4))
def test_row_reduce_rank_counts_the_row_span(rows):
    # over F3 the row span of a rank-r matrix has exactly 3**r vectors
    f = PrimeField(3)
    span = {tuple(sum(c * x for c, x in zip(coeffs, col)) % 3 for col in zip(*rows))
            for coeffs in itertools.product(range(3), repeat=len(rows))}
    reduced, pivots = row_reduce(f, rows, 3)
    assert 3 ** len(pivots) == len(span)
    for r, col in enumerate(pivots):
        assert [row[col] for row in reduced] == [int(i == r) for i in range(len(rows))]


def test_tensor_vec_convention():
    u = (Fraction(1), Fraction(2))
    v = (Fraction(3), Fraction(5))
    assert tensor_vec(Q, u, v) == (Fraction(3), Fraction(5), Fraction(6), Fraction(10))


def test_from_columns_round_trip():
    cols = [basis_vector(Q, 4, (j + 1) % 4) for j in range(6)]
    m = from_columns(Q, shape(6), shape(4), cols)
    for j in range(6):
        assert m.column(j) == cols[j]


# -- canonical sparse columns ---------------------------------------------------

def _kron_oracle(a, b, reduce=None):
    # plain Kronecker product of dense row tuples, row-major
    out = tuple(tuple(x * y for x in ra for y in rb) for ra in a for rb in b)
    return out if reduce is None else tuple(tuple(reduce(x) for x in row) for row in out)


def _assert_canonical(m):
    for col in m.cols:
        assert [i for i, _ in col] == sorted({i for i, _ in col})
        assert all(0 <= i < m.codomain.total and not m.field.is_zero(x) for i, x in col)


@given(st.sampled_from(["Q", "F5"]), st.integers(1, 3), st.integers(2, 3),
       st.integers(1, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_sparse_columns_match_dense_oracles_with_cancellation(which, n0, n1, n2, data):
    field = Q if which == "Q" else F5
    reduce = None if which == "Q" else (lambda x: int(x) % 5)
    entry = st.integers(-2, 2).map(field.from_int)

    def rand_rows(dom, cod):
        return [data.draw(st.lists(entry, min_size=dom, max_size=dom)) for _ in range(cod)]

    # g has two equal columns and f an extra column x*(e_0 - e_1), so that
    # column of g o f is a sum of nonzero products that cancels to zero
    g_rows = rand_rows(n1, n2)
    g_rows[0][0] = field.one
    for row in g_rows:
        row[1] = row[0]
    f_rows = rand_rows(n0, n1)
    x = data.draw(st.integers(1, 4).map(field.from_int))
    for r, row in enumerate(f_rows):
        row.append(x if r == 0 else field.neg(x) if r == 1 else field.zero)
    g_rows = tuple(tuple(r) for r in g_rows)
    f_rows = tuple(tuple(r) for r in f_rows)
    g = from_rows(field, shape(n1), shape(n2), g_rows)
    f = from_rows(field, shape(n0 + 1), shape(n1), f_rows)

    gf = compose(g, f)
    _assert_canonical(gf)
    assert gf.cols[n0] == ()
    assert gf.rows == _matmul_oracle(g_rows, f_rows, reduce)
    t = tensor(g, f)
    _assert_canonical(t)
    assert t.rows == _kron_oracle(g_rows, f_rows, reduce)
    vec = tuple(data.draw(st.lists(entry, min_size=n0 + 1, max_size=n0 + 1)))
    want = _matmul_oracle(gf.rows, tuple((v,) for v in vec), reduce)
    assert gf.apply(vec) == tuple(row[0] for row in want)

    # equal columns exactly when equal dense matrices, on a rebuilt copy and
    # on a random map of the same shape
    same = from_rows(field, gf.domain, gf.codomain, gf.rows)
    other = from_rows(field, gf.domain, gf.codomain, tuple(map(tuple, rand_rows(n0 + 1, n2))))
    for b in (same, other, compose(identity(field, shape(n2)), gf)):
        assert (gf.cols == b.cols) == (gf.rows == b.rows)
    assert gf.cols == same.cols


@pytest.mark.parametrize("field", [Q, PrimeField(2), PrimeField(3), PrimeField(7)],
                         ids=["Q", "F2", "F3", "F7"])
def test_formatted_rows_equal_the_dense_rows_formatted(field):
    # formatted_rows formats only the stored nonzeros; the oracle formats
    # every entry of the dense matrix
    rng = random.Random(16)
    if field is Q:  # negative and non-integral entries
        values = [Fraction(n, d) for n in range(-4, 5) for d in (1, 2, 3, 6)]
    else:
        values = list(range(field.p))
    shapes = [((1,), (1,)), ((1,), (3,)), ((3,), (1,)), ((2, 2), (2, 2)), ((2, 3), (3,)),
              ((2,), (2, 2, 2))]
    for dom, cod in shapes:
        dom, cod = shape(*dom), shape(*cod)
        for trial in range(12):
            rows = [[rng.choice(values) if rng.random() < 0.6 else field.zero
                     for _ in range(dom.total)] for _ in range(cod.total)]
            if trial % 3 == 1:  # an all-zero row and an all-zero column
                rows[rng.randrange(cod.total)] = [field.zero] * dom.total
                j = rng.randrange(dom.total)
                for row in rows:
                    row[j] = field.zero
            elif trial % 3 == 2:  # the zero map
                rows = [[field.zero] * dom.total for _ in range(cod.total)]
            m = from_rows(field, dom, cod, rows)
            assert m.formatted_rows == tuple(tuple(map(field.fmt, r)) for r in m.rows)
        zero_row = (field.fmt(field.zero),) * dom.total
        assert zero_map(field, dom, cod).formatted_rows == (zero_row,) * cod.total

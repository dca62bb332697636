from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from hopfqt.exactfield import (
    CycloNumber,
    RowSpace,
    cyclo_arith,
    cyclotomic_poly,
    euler_phi,
    nullspace,
    zeta,
)


# ---------------------------------------------------------------------------
# cyclotomic polynomials


def test_cyclotomic_poly_base_case():
    assert cyclotomic_poly(1) == (-1, 1)  # x - 1


def test_cyclotomic_poly_prime():
    assert cyclotomic_poly(3) == (1, 1, 1)  # x^2 + x + 1
    assert cyclotomic_poly(7) == (1,) * 7


def test_cyclotomic_poly_six():
    # divide x^6 - 1 by Phi_1 Phi_2 Phi_3 exactly: x^2 - x + 1
    assert cyclotomic_poly(6) == (1, -1, 1)


def test_cyclotomic_poly_prime_power():
    # Phi_9 = x^6 + x^3 + 1
    assert cyclotomic_poly(9) == (1, 0, 0, 1, 0, 0, 1)


def test_euler_phi():
    assert [euler_phi(n) for n in (1, 2, 3, 4, 9, 21, 49, 63)] == [
        1, 1, 2, 2, 6, 12, 42, 36,
    ]


# ---------------------------------------------------------------------------
# zeta and basic arithmetic


def test_zeta_zero_power_is_one():
    assert zeta(3, 0) == CycloNumber.one()
    assert zeta(3, 0).is_one()


def test_zeta_inverse_pair():
    assert zeta(3, 1) * zeta(3, 2) == CycloNumber.one()
    for n in (5, 7, 9, 12):
        for k in range(1, n):
            assert zeta(n, k) * zeta(n, n - k) == CycloNumber.one()


def test_primitive_cube_roots_sum():
    # evaluate the Phi_3 relation: z + z^2 + 1 = 0
    assert zeta(3, 1) + zeta(3, 2) + 1 == CycloNumber.zero()


def test_sum_of_primitive_cube_roots():
    assert zeta(3, 1) + zeta(3, 2) == CycloNumber.from_rational(-1)


def test_rational_subfield_inverse():
    two = CycloNumber.from_rational(2)
    assert cyclo_arith("inv", two) == CycloNumber.from_rational(Fraction(1, 2))


def test_inv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        CycloNumber.zero().inv()


def test_root_power_order():
    z = zeta(9)
    assert z**9 == CycloNumber.one()
    assert z**3 != CycloNumber.one()
    assert (z**3) == zeta(3)  # lifting identification


def test_nontrivial_inverse_of_sum():
    x = zeta(5) + zeta(5, 4)  # 2 cos(2 pi / 5), not a root of unity
    assert x.as_root() is None
    assert x * x.inv() == CycloNumber.one()


def test_cross_conductor_equality_and_ops():
    assert zeta(3) == zeta(6, 2)
    assert zeta(6, 3) == CycloNumber.from_rational(-1)
    assert zeta(3) + zeta(6) == zeta(6) + zeta(3)


def test_coeffs_field_matches_conductor():
    x = zeta(7, 3)
    assert len(x.coeffs) == euler_phi(7)
    assert x.coeffs[3] == 1


def test_serial_roundtrip():
    x = zeta(7) + CycloNumber.from_rational(Fraction(2, 3))
    den, nums = x.serial()
    y = CycloNumber.from_coeffs(7, [Fraction(c, den) for c in nums])
    assert x == y


@st.composite
def cyclos(draw, conductors=(1, 2, 3, 4, 5, 6, 8, 9, 12)):
    n = draw(st.sampled_from(conductors))
    phi = euler_phi(n)
    nums = draw(st.lists(st.integers(-9, 9), min_size=phi, max_size=phi))
    den = draw(st.integers(1, 9))
    return CycloNumber.from_coeffs(n, [Fraction(c, den) for c in nums])


@settings(max_examples=120, deadline=None)
@given(cyclos(), cyclos(), cyclos())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + CycloNumber.zero() == a
    assert a * CycloNumber.one() == a


@settings(max_examples=80, deadline=None)
@given(cyclos())
def test_multiplicative_inverse(a):
    if not a.is_zero():
        assert a * a.inv() == CycloNumber.one()


@settings(max_examples=80, deadline=None)
@given(cyclos(conductors=(1, 2, 3, 4, 6)), cyclos(conductors=(1, 2, 3, 4, 6)))
def test_lifting_is_ring_embedding(a, b):
    n = 12
    assert (a + b).lift(n) == a.lift(n) + b.lift(n)
    assert (a * b).lift(n) == a.lift(n) * b.lift(n)


def test_root_of_unity_identities_under_lift():
    # zeta_N^N = 1 and Phi_N(zeta_N) = 0 under the arithmetic
    for n in (3, 4, 9, 21):
        z = zeta(n)
        assert z**n == CycloNumber.one()
        poly = cyclotomic_poly(n)
        acc = CycloNumber.zero(n)
        for k, ck in enumerate(poly):
            acc = acc + CycloNumber.from_rational(ck) * z**k
        assert acc.is_zero()


# ---------------------------------------------------------------------------
# sympy as an independent oracle: Q(zeta_N) = Q[x] / (Phi_N(x))


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


@st.composite
def zeta_sums(draw):
    """(N, c, d): two elements sum_k c[k] zeta_N^k and sum_k d[k] zeta_N^k
    with k < N + 2, so powers beyond the power basis occur; about half have
    one or two nonzero terms, which keeps monomials common.  Some d are c
    plus a multiple of x^s Phi_N, the same number in another representation."""
    n = draw(st.sampled_from((1, 3, 4, 5, 7, 9, 12, 21)))
    nonzero = [1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]

    def coeffs():
        if draw(st.booleans()):
            return draw(st.lists(st.sampled_from([0, 0, 0] + nonzero),
                                 min_size=n + 2, max_size=n + 2))
        c = [0] * (n + 2)
        for k in draw(st.lists(st.integers(0, n + 1), min_size=1, max_size=2)):
            c[k] = draw(st.sampled_from(nonzero))
        return c

    c, d = coeffs(), coeffs()
    if draw(st.booleans()):
        phi = cyclotomic_poly(n)
        s = draw(st.integers(0, n + 2 - len(phi)))
        m = draw(st.sampled_from([1, -2, Fraction(1, 3)]))
        d = list(c)
        for i, pi in enumerate(phi):
            d[s + i] += m * pi
    return n, c, d


def _zeta_sum(n, c, step=1):
    out = CycloNumber.zero(n)
    for k, ck in enumerate(c):
        out = out + CycloNumber.from_rational(ck) * zeta(n, k * step)
    return out


def _sympy_class(sympy, n, c, step=1):
    """sum_k c[k] x^(k step) reduced mod Phi_n, as ascending Fractions."""
    x = sympy.Symbol("x")
    terms = {k * step: sympy.Rational(Fraction(ck).numerator, Fraction(ck).denominator)
             for k, ck in enumerate(c)}
    f = sympy.Poly.from_dict({(e,): v for e, v in terms.items()}, x,
                             domain=sympy.QQ)
    return f.rem(sympy.Poly(sympy.cyclotomic_poly(n, x), x, domain=sympy.QQ))


def _sympy_phi(sympy, n):
    x = sympy.Symbol("x")
    return sympy.Poly(sympy.cyclotomic_poly(n, x), x, domain=sympy.QQ)


def _fractions(poly, phi):
    asc = [Fraction(int(r.p), int(r.q)) for r in reversed(poly.all_coeffs())]
    return tuple(asc + [Fraction(0)] * (phi - len(asc)))


@settings(max_examples=150, deadline=None)
@given(zeta_sums())
def test_arithmetic_matches_sympy(sympy, case):
    n, c, d = case
    phi_n = _sympy_phi(sympy, n)
    phi = euler_phi(n)
    a, b = _zeta_sum(n, c), _zeta_sum(n, d)
    fa, fb = _sympy_class(sympy, n, c), _sympy_class(sympy, n, d)
    assert a.coeffs == _fractions(fa, phi)
    assert (a + b).coeffs == _fractions((fa + fb).rem(phi_n), phi)
    assert (a * b).coeffs == _fractions((fa * fb).rem(phi_n), phi)
    assert (a == b) == (fa - fb).is_zero
    if not fa.is_zero:
        assert a.inv().coeffs == _fractions(sympy.invert(fa, phi_n), phi)
    # Q(zeta_n) -> Q(zeta_nk) sends zeta_n to zeta_nk^k
    for k in (2, 3):
        lifted = a.lift(n * k)
        assert lifted.coeffs == _fractions(_sympy_class(sympy, n * k, c, k),
                                           euler_phi(n * k))
        assert lifted == a


# ---------------------------------------------------------------------------
# sparse linear algebra: nullspace and inv run on RowSpace; the eliminations
# they replaced are the oracles below


def _axpy(dst, f, src):
    for k, v in src.items():
        nv = dst.get(k)
        nv = f * v if nv is None else nv + f * v
        if nv:
            dst[k] = nv
        else:
            dst.pop(k, None)


def _rref(rows, ncols):
    """In-place reduced row echelon form on a list of dict rows.

    Returns list of (pivot_col, row_dict) in elimination order.
    """
    pivots = []
    rows = [r for r in rows if r]
    for col in range(ncols):
        piv = None
        for idx, r in enumerate(rows):
            if col in r:
                piv = idx
                break
        if piv is None:
            continue
        prow = rows.pop(piv)
        inv = prow[col].inv()
        prow = {c: inv * v for c, v in prow.items()}
        for r in rows:
            f = r.get(col)
            if f is not None:
                _axpy(r, -f, prow)
        for _, done in pivots:
            f = done.get(col)
            if f is not None:
                _axpy(done, -f, prow)
        pivots.append((col, prow))
        rows = [r for r in rows if r]
    return pivots


def rref_nullspace(columns):
    """The null space basis read off the reduced row echelon form of the
    rows, in the sparse ascending form nullspace returns."""
    rows = _transpose(columns)
    pivots = _rref(list(rows.values()), len(columns))
    pivot_cols = {col for col, _ in pivots}
    basis = []
    for free in range(len(columns)):
        if free in pivot_cols:
            continue
        vec = {free: CycloNumber.one()}
        for col, row in pivots:
            coef = row.get(free)
            if coef is not None:
                vec[col] = -coef
        basis.append(dict(sorted(vec.items())))
    return basis


def matrix_rank(columns) -> int:
    """Rank by an independent column-elimination pass."""
    rank = 0
    work = [{r: v for r, v in c.items() if v} for c in columns]
    work = [c for c in work if c]
    while work:
        col = work.pop(0)
        rank += 1
        prow = min(col)  # eliminate on the lowest-index nonzero row
        pval = col[prow]
        inv = pval.inv()
        rest = []
        for other in work:
            f = other.get(prow)
            if f is not None:
                scale = f * inv
                _axpy(other, -scale, col)
            if other:
                rest.append(other)
        work = rest
    return rank


def _solve_rational_system(mat, rhs):
    # dense Gaussian elimination over Q; mat is square and invertible
    n = len(mat)
    m = [row[:] + [rhs[i]] for i, row in enumerate(mat)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [m[i][n] for i in range(n)]


def _transpose(columns):
    """Row dicts {row key: {column index: value}} of sparse columns."""
    rows = {}
    for c, col in enumerate(columns):
        for r, v in col.items():
            if v:
                rows.setdefault(r, {})[c] = v
    return rows


def _apply(columns, vec):
    """sum_f vec[f] columns[f], sparse."""
    out = {}
    for f, c in vec.items():
        _axpy(out, c, columns[f])
    return out


def _cols(rows):
    columns = [dict() for _ in rows[0]]
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if not isinstance(v, CycloNumber):
                v = CycloNumber.from_rational(v)
            if v:
                columns[j][i] = v
    return columns


def test_nullspace_identity_is_trivial():
    assert nullspace(_cols([[1, 0], [0, 1]])) == []


def test_nullspace_zero_matrix():
    basis = nullspace([{}, {}])
    assert len(basis) == 2
    assert basis[0][0].is_one() and 1 not in basis[0]
    assert basis[1][1].is_one() and 0 not in basis[1]


def test_nullspace_rank_one_cyclotomic():
    # det = 1 - z^3 = 0, so a one-dimensional nullspace spanned by (-z, 1)
    m = _cols([[1, zeta(3)], [zeta(3, 2), 1]])
    basis = nullspace(m)
    assert len(basis) == 1
    v = basis[0]
    scale = v[1]
    assert v[0] * scale.inv() == -zeta(3)
    assert _apply(m, v) == {}


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 4),
    st.integers(2, 4),
    st.data(),
)
def test_nullspace_exact_and_dimension(nr, nc, data):
    columns = [dict() for _ in range(nc)]
    for i in range(nr):
        for j in range(nc):
            k = data.draw(st.integers(-2, 2))
            e = data.draw(st.integers(0, 2))
            if k:
                columns[j][i] = CycloNumber.from_rational(k) * zeta(3, e)
    basis = nullspace(columns)
    for v in basis:
        assert _apply(columns, v) == {}
    # dimension count against an independent rank pass
    assert len(basis) == nc - matrix_rank(columns)


def test_matrix_rank_transpose_invariance():
    m = _cols([[1, zeta(3), 0], [zeta(3, 2), 1, 0]])
    rows = _transpose(m)
    assert matrix_rank(m) == matrix_rank([rows[r] for r in sorted(rows)]) == 1


@st.composite
def column_systems(draw):
    """Sparse columns over Q(zeta_n), keyed by row, where some columns are
    zero, some repeat an earlier column and some are combinations of earlier
    ones, so dependent columns are common."""
    n = draw(st.sampled_from((1, 3, 7, 21)))
    nrows = draw(st.integers(1, 4))
    scales = st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])

    def entry():
        x = CycloNumber.from_rational(draw(scales)) * zeta(n, draw(st.integers(0, n - 1)))
        if draw(st.booleans()):
            x = x + zeta(n, draw(st.integers(0, n - 1)))
        return x

    columns = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("random", "zero", "repeat", "combination"))
                    if columns else st.just("random"))
        if kind == "random":
            rows = draw(st.sets(st.integers(0, nrows - 1), max_size=nrows))
            columns.append({r: entry() for r in sorted(rows)})
        elif kind == "zero":
            columns.append({})
        elif kind == "repeat":
            columns.append(dict(draw(st.sampled_from(columns))))
        else:
            picks = draw(st.sets(st.integers(0, len(columns) - 1), min_size=1))
            columns.append(_apply(columns, {f: entry() for f in sorted(picks)}))
    return columns


@settings(max_examples=150, deadline=None)
@given(column_systems())
def test_nullspace_equals_rref_basis(columns):
    basis = nullspace(columns)
    assert basis == rref_nullspace(columns)
    for v in basis:
        assert list(v) == sorted(v)
        assert _apply(columns, v) == {}
    assert len(basis) == len(columns) - matrix_rank(columns)


def test_nullspace_vectors_ascend_when_pivots_do_not():
    # column 1 takes a smaller pivot row than column 0, so the RowSpace
    # dependence of column 2 names index 1 before index 0
    one = CycloNumber.one(7)
    columns = [{1: one}, {0: one}, {0: one, 1: zeta(7, 2)}]
    basis = nullspace(columns)
    assert basis == rref_nullspace(columns) == [{0: -zeta(7, 2), 1: -one, 2: 1}]
    assert [list(v) for v in basis] == [[0, 1, 2]]


@st.composite
def non_monomials(draw):
    n = draw(st.sampled_from((3, 5, 7, 9, 12, 21)))
    phi = euler_phi(n)
    nums = draw(st.lists(st.integers(-6, 6), min_size=phi, max_size=phi))
    x = CycloNumber.from_coeffs(n, [Fraction(c, draw(st.integers(1, 5))) for c in nums])
    assume(x.as_root() is None and not x.is_zero())
    return x


@settings(max_examples=80, deadline=None)
@given(non_monomials())
def test_inv_matches_dense_solve_and_sympy(sympy, x):
    n, phi = x.conductor, euler_phi(x.conductor)
    # column j of the multiplication matrix is x zeta^j in the power basis
    cols = [(x * zeta(n, j)).coeffs for j in range(phi)]
    mat = [[cols[j][i] for j in range(phi)] for i in range(phi)]
    solved = _solve_rational_system(mat, [Fraction(int(i == 0)) for i in range(phi)])
    assert x.inv().coeffs == tuple(solved)
    # sympy: the inverse of the polynomial class mod Phi_n
    assert x.inv().coeffs == _fractions(
        sympy.invert(_sympy_class(sympy, n, x.coeffs), _sympy_phi(sympy, n)), phi)


def test_rowspace_dependence_tracking():
    rs = RowSpace()
    one = CycloNumber.one()
    assert rs.add({0: one, 1: one})
    assert rs.add({1: one})
    # (2, 1) = 2*(1,1) - 1*(0,1)
    added = rs.add({0: one + one, 1: one})
    assert not added
    dep = rs.last_dependence()
    total = {}
    vecs = [{0: one, 1: one}, {1: one}]
    for i, coef in dep.items():
        for k, v in vecs[i].items():
            total[k] = total.get(k, CycloNumber.zero()) + coef * v
    assert total[0] == one + one and total[1] == one


def test_cyclo_arith_dispatch():
    a, b = zeta(3, 1), zeta(3, 2)
    assert cyclo_arith("add", a, b) == CycloNumber.from_rational(-1)
    assert cyclo_arith("sub", a, a).is_zero()
    assert cyclo_arith("mul", a, b).is_one()
    assert cyclo_arith("neg", a) == -a
    assert cyclo_arith("pow", a, 5) == zeta(3, 2)
    assert cyclo_arith("inv", a) == zeta(3, 2)
    with pytest.raises(ValueError):
        cyclo_arith("frobnicate", a, b)

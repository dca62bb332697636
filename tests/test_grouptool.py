import math
from itertools import combinations_with_replacement, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hopfqt.exactfield import CycloNumber, zeta
from hopfqt.grouptool import (
    AbelianDecomposition,
    FiniteGroup,
    ParameterError,
    abelian_decomposition,
    abelian_group,
    abelian_normal_subgroups,
    beta7_default_params,
    build_group,
    conjugation_map,
    cyclic_group,
    enumerate_bicharacters,
    idempotents,
    is_prime,
    lambda_set,
    largest_abelian_normal,
    semidirect_pq,
)


# ---------------------------------------------------------------------------
# constructors


def test_beta1_is_cyclic_of_order_pq2():
    G = build_group("beta1", p=3, q=5)
    assert G.order == 75
    assert G.order_of(G.generators["g"]) == 75


def test_semidirect_pq_relations():
    # 2^3 = 8 = 1 mod 7
    G = semidirect_pq(7, 3, 2)
    assert G.order == 21
    a, b = G.generators["a"], G.generators["b"]
    assert G.order_of(a) == 7 and G.order_of(b) == 3
    assert G.conjugate(b, a) == G.power(a, 2)
    assert not G.is_abelian()


def test_semidirect_pq_bad_t():
    with pytest.raises(ParameterError):
        semidirect_pq(7, 3, 3)  # 3^3 = 27 = 6 mod 7


def test_beta4_relations():
    # 2^3 = 1 mod 7
    G = build_group("beta4", p=3, q=7, m=2)
    assert G.order == 147
    s, t, u = (G.generators[x] for x in "stu")
    assert G.conjugate(u, t) == G.power(t, 2)
    assert G.conjugate(u, s) == s
    assert G.conjugate(t, s) == s


def test_beta4_bad_m():
    with pytest.raises(ParameterError, match="m"):
        build_group("beta4", p=3, q=7, m=3)  # 3^3 = 27 = 6 mod 7


def test_beta3_exists_at_147_but_not_75():
    G = build_group("beta3", p=3, q=7, m=18)  # 18^3 = 1 mod 49
    assert G.order == 147
    s, t = G.generators["s"], G.generators["t"]
    assert G.order_of(s) == 49
    assert G.conjugate(t, s) == G.power(s, 18)
    # no element of multiplicative order 3 exists mod 25
    for m in range(2, 25):
        with pytest.raises(ParameterError):
            build_group("beta3", p=3, q=5, m=m)


def test_beta7_at_order_75():
    m, n = beta7_default_params(3, 5)
    G = build_group("beta7", p=3, q=5, m=m, n=n)
    assert G.order == 75
    s, t, u = (G.generators[x] for x in "stu")
    assert G.conjugate(u, s) == t
    assert G.conjugate(u, t) == G.mul(G.power(s, m), G.power(t, n))
    assert G.order_of(u) == 3


def test_beta7_rejects_reducible_action():
    # (m, n) = (1, 0) gives the swap action, order 2, reducible
    with pytest.raises(ParameterError):
        build_group("beta7", p=3, q=5, m=1, n=0)
    # a lone m is refused rather than replaced by the default pair
    with pytest.raises(ParameterError, match="both m and n"):
        build_group("beta7", p=3, q=5, m=2)


def test_gamma_constructors():
    g3 = build_group("gamma3", p=7, q=3, m=2)
    assert g3.order == 63
    g5 = build_group("gamma5", p=7, q=3, m=2)
    assert g5.order == 63
    g6 = build_group("gamma6", p=7, q=3, m=2, n=4)
    assert g6.order == 63
    with pytest.raises(ParameterError):
        build_group("gamma6", p=7, q=3, m=2, n=2)
    g4 = build_group("gamma4", p=19, q=3, m=4)  # 4 has order 9 mod 19
    assert g4.order == 171


def test_table_text_roundtrip():
    G = semidirect_pq(7, 3, 2)
    text = G.to_table_text()
    H = FiniteGroup.from_table_text(text)
    assert H.order == G.order
    assert (H.table == G.table).all()


def test_table_verification_rejects_bad_tables():
    with pytest.raises(ParameterError):
        FiniteGroup([[0, 1], [1, 1]])  # not a latin square / no inverse
    with pytest.raises(ParameterError):
        FiniteGroup([[1, 0], [0, 1]])  # 0 not identity


# ---------------------------------------------------------------------------
# largest abelian normal subgroup


def brute_force_abelian_normals(G):
    """Oracle: abelian normal subgroups via closures of all <= 2-element
    generating sets (sufficient at order pq^2, where abelian subgroups have
    rank <= 2), plus the trivial one.  Non-commuting pairs cannot generate an
    abelian subgroup and are skipped."""
    out = {frozenset({0})}
    seen_gens = set()
    for x in range(G.order):
        for y in range(x, G.order):
            if G.mul(x, y) != G.mul(y, x):
                continue
            key = frozenset({x, y})
            if key in seen_gens:
                continue
            seen_gens.add(key)
            sub = G.subgroup_closure([x, y])
            if sub in out:
                continue
            if G.is_abelian_subset(sub) and G.is_normal(sub):
                out.add(sub)
    return out


LARGEST_ABELIAN_NORMAL_CASES = [
    ("semidirect_pq", dict(p=7, q=3, t=2), [7]),
    ("beta5", dict(p=3, q=7, m=2), [7, 7]),
    ("beta4", dict(p=3, q=7, m=2), [7, 7]),
    ("gamma4", dict(p=19, q=3, m=4), [19]),
    ("gamma3", dict(p=7, q=3, m=2), [21]),
    ("gamma5", dict(p=7, q=3, m=2), [21]),
]


@pytest.mark.parametrize("family,params,expected_orders",
                         LARGEST_ABELIAN_NORMAL_CASES)
def test_largest_abelian_normal_catalog(family, params, expected_orders):
    G = build_group(family, **params)
    K = largest_abelian_normal(G)
    assert sorted(K.decomposition.orders) == sorted(expected_orders)
    oracle = brute_force_abelian_normals(G)
    for sub in oracle:
        assert sub <= set(K.ids)


def test_gamma6_largest_includes_central_factor():
    # t u is central, so the largest abelian normal subgroup is Z_7 x Z_3,
    # strictly larger than <s>
    G = build_group("gamma6", p=7, q=3, m=2, n=4)
    K = largest_abelian_normal(G)
    assert len(K.ids) == 21
    z = G.mul(G.generators["t"], G.generators["u"])
    assert z in K
    for sub in brute_force_abelian_normals(G):
        assert sub <= set(K.ids)


def test_largest_abelian_normal_rejects_abelian():
    with pytest.raises(ParameterError):
        largest_abelian_normal(cyclic_group(9))


# Element-by-element subgroup operations: the oracle for the array
# operations on G.table.


def reference_conjugacy_classes(G):
    seen = [False] * G.order
    classes = []
    for i in range(G.order):
        if seen[i]:
            continue
        cl = {G.conjugate(g, i) for g in range(G.order)}
        for x in cl:
            seen[x] = True
        classes.append(sorted(cl))
    return classes


def reference_subgroup_closure(G, gens):
    out = {0}
    frontier = list(set(gens) | {0})
    while frontier:
        new = []
        for x in frontier:
            for y in list(out):
                for z in (G.mul(x, y), G.mul(y, x)):
                    if z not in out:
                        out.add(z)
                        new.append(z)
        frontier = new
    return frozenset(out)


def reference_is_normal(G, ids):
    s = set(ids)
    return all(G.conjugate(g, x) in s for g in range(G.order) for x in s)


def reference_is_abelian_subset(G, ids):
    ids = list(ids)
    return all(G.mul(x, y) == G.mul(y, x) for x in ids for y in ids)


def assert_subgroup_ops_match(G, gens):
    sub = G.subgroup_closure(gens)
    assert sub == reference_subgroup_closure(G, gens)
    assert all(type(x) is int for x in sub)
    for ids in (sub, gens):
        assert G.is_normal(ids) is reference_is_normal(G, ids)
        assert G.is_abelian_subset(ids) is reference_is_abelian_subset(G, ids)


ORACLE_GROUPS = [(f, p) for f, p, _ in LARGEST_ABELIAN_NORMAL_CASES] + [
    ("beta6", dict(p=3, q=7, m=2, n=4)),
    ("beta7", dict(p=3, q=5)),
    ("gamma6", dict(p=7, q=3, m=2, n=4)),
]


@pytest.mark.parametrize("family,params", ORACLE_GROUPS)
def test_subgroup_ops_match_reference(family, params):
    G = build_group(family, **params)
    classes = G.conjugacy_classes()
    assert classes == reference_conjugacy_classes(G)
    assert all(type(x) is int for cl in classes for x in cl)
    for cl in classes:
        assert_subgroup_ops_match(G, cl)
    for gens in ([], [0], list(G.generators.values()),
                 *([g] for g in G.generators.values())):
        assert_subgroup_ops_match(G, gens)
    assert abelian_normal_subgroups(G) == brute_force_abelian_normals(G)


_ORACLE_BUILT = {}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ORACLE_GROUPS), st.data())
def test_subgroup_ops_match_reference_on_random_generators(case, data):
    family, params = case
    key = (family, tuple(sorted(params.items())))
    if key not in _ORACLE_BUILT:
        _ORACLE_BUILT[key] = build_group(family, **params)
    G = _ORACLE_BUILT[key]
    gens = data.draw(st.lists(st.integers(0, G.order - 1), max_size=3))
    assert_subgroup_ops_match(G, gens)


# ---------------------------------------------------------------------------
# idempotents and conjugation


def _full_decomposition(G):
    return abelian_decomposition(G, range(G.order))


def test_idempotents_cyclic3_formula():
    K = _full_decomposition(cyclic_group(3, sym="a"))
    basis = idempotents(K)
    third = CycloNumber.from_rational(1) / 3
    for i, vec in enumerate(basis):
        k = K.elements[i]
        ki = K.exponent_of(k)[0]
        for j in range(3):
            x = K.element_of((j,))
            assert vec[x] == third * zeta(3, ki * j)


def _root_exponents(basis, order, N):
    """(E, scale) with basis[t][x] = scale * zeta_N^E[t, x] for every t and
    every group element x; fails on a coefficient of any other shape."""
    E = np.zeros((len(basis), order), dtype=np.int64)
    scales = set()
    for t, vec in enumerate(basis):
        assert sorted(vec) == list(range(order)), t
        for x, c in vec.items():
            r = c.lift(N).as_root()
            assert r is not None, (t, x, c)
            E[t, x], scale = r
            scales.add(scale)
    assert len(scales) == 1, scales
    return E, scales.pop()


@pytest.mark.parametrize("orders", [[3], [5], [3, 3], [7, 7]])
def test_idempotents_orthogonal_complete(orders):
    # every product u_i u_j in k[G], exactly: its coefficient at z is
    # scale^2 sum_x zeta^(E[i, x] + E[j, x^-1 z]), so count the exponents
    # for each (j, z) and map the counts to the power basis of Q(zeta_N)
    G = abelian_group(orders)
    K = _full_decomposition(G)
    n, N = G.order, math.lcm(*orders)
    E, scale = _root_exponents(idempotents(K), n, N)
    rootmat = np.array([zeta(N, k).serial()[1] for k in range(N)], dtype=np.int64)
    num, den = scale.numerator, scale.denominator
    table = np.array([[G.mul(x, y) for y in range(n)] for x in range(n)])
    # y_of[x, z] is the y with x y = z
    y_of = np.argsort(table, axis=1)
    # completeness: sum_t scale zeta^E[t, x] is 1 at x = 0 and 0 elsewhere
    counts = np.stack([np.bincount(E[:, x] % N, minlength=N) for x in range(n)])
    one = np.zeros((n, rootmat.shape[1]), dtype=np.int64)
    one[0] = zeta(N, 0).serial()[1]
    assert np.array_equal(num * (counts @ rootmat), den * one)
    keys = (np.arange(n * n) * N).reshape(n, 1, n)       # (j, ., z)
    for i in range(n):
        exps = (E[i][None, :, None] + E[:, y_of]) % N    # (j, x, z)
        counts = np.bincount((keys + exps).reshape(-1), minlength=n * n * N)
        prod = counts.reshape(n, n, N) @ rootmat         # (j, z, phi(N))
        # u_i u_j = delta_ij u_i: scale^2 prod = delta_ij scale zeta^E[i]
        expect = np.zeros_like(prod)
        expect[i] = rootmat[E[i] % N]
        assert np.array_equal(num * prod, den * expect), i


def test_conjugation_map_semidirect():
    # b e_{a^i} b^-1 = e_{a^(i t')} with t' = t^(q-1)
    p, q, t = 7, 3, 2
    G = semidirect_pq(p, q, t)
    a, b = G.generators["a"], G.generators["b"]
    K = abelian_decomposition(G, G.subgroup_closure([a]))
    perm = conjugation_map(G, b, K)
    tprime = pow(t, q - 1, p)
    for idx, k in enumerate(K.elements):
        i = K.exponent_of(k)[0]
        expected = K.element_of(((i * tprime) % p,))
        assert K.elements[perm[idx]] == expected


def test_conjugation_map_identity_and_abelian():
    G = abelian_group([3, 3])
    K = _full_decomposition(G)
    for g in range(G.order):
        assert conjugation_map(G, g, K) == list(range(9))


def test_conjugation_map_respects_idempotents():
    G = build_group("beta5", p=3, q=7, m=2)
    K = largest_abelian_normal(G)
    basis = idempotents(K.decomposition)
    for gname in ("s", "t", "u"):
        g = G.generators[gname]
        perm = conjugation_map(G, g, K)
        ginv = G.inv(g)
        for idx, vec in enumerate(basis):
            conj = {G.mul(G.mul(g, x), ginv): c for x, c in vec.items()}
            assert conj == basis[perm[idx]]


def test_conjugation_map_requires_normalizer():
    G = semidirect_pq(7, 3, 2)
    b = G.generators["b"]
    K = abelian_decomposition(G, G.subgroup_closure([b]))
    with pytest.raises(ParameterError):
        conjugation_map(G, G.generators["a"], K)


# ---------------------------------------------------------------------------
# bicharacters


def test_bicharacter_counts():
    k3 = _full_decomposition(cyclic_group(3))
    assert len(enumerate_bicharacters(k3)) == 3
    k77 = _full_decomposition(abelian_group([7, 7]))
    assert len(enumerate_bicharacters(k77)) == 2401
    k1 = _full_decomposition(cyclic_group(1))
    assert len(enumerate_bicharacters(k1)) == 1
    k21 = _full_decomposition(abelian_group([7, 3]))
    assert len(enumerate_bicharacters(k21)) == 21


def test_bicharacter_value_orders():
    K = _full_decomposition(abelian_group([3, 9]))
    # one value per generator pair, order dividing gcd(n_i, n_j)
    for w in enumerate_bicharacters(K)[:30]:
        for i, gi in enumerate(K.gens):
            for j, gj in enumerate(K.gens):
                v = w.value(gi, gj)
                o = math.gcd(K.orders[i], K.orders[j])
                assert (v**o).is_one()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([[3], [5], [3, 3], [9, 3]]), st.data())
def test_bicharacter_bilinearity(orders, data):
    G = abelian_group(orders)
    K = _full_decomposition(G)
    ws = enumerate_bicharacters(K)
    w = ws[data.draw(st.integers(0, len(ws) - 1))]
    xs = data.draw(st.lists(st.integers(0, G.order - 1), min_size=3, max_size=3))
    x, y, z = xs
    assert w.value(G.mul(x, y), z) == w.value(x, z) * w.value(y, z)
    assert w.value(x, G.mul(y, z)) == w.value(x, y) * w.value(x, z)


# ---------------------------------------------------------------------------
# the half-size subset with no inverse pairs


def test_lambda_set_examples():
    assert lambda_set(5) == [1, 2]
    assert lambda_set(3) == [1]
    assert lambda_set(7) == [1, 2, 3]


def test_is_prime_and_lambda_set_rejections():
    assert [n for n in range(-3, 40) if is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    for p in (1, 2, 9, 15):
        with pytest.raises(ParameterError, match="p must be an odd prime"):
            lambda_set(p)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 19])
def test_lambda_set_properties(p):
    s = lambda_set(p)
    assert len(s) == (p - 1) // 2
    assert all(1 <= x <= p - 2 for x in s)
    for x, y in combinations_with_replacement(s, 2):
        if x != y:
            assert (x * y) % p != 1

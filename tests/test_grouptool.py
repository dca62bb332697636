import argparse
import hashlib
import math
import os
import tempfile
from fractions import Fraction
from itertools import combinations_with_replacement, product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hopfqt.cli import _resolve_family_params, _smallest_order_element
from hopfqt.exactfield import CycloNumber, zeta
from hopfqt.grouptool import (
    AbelianDecomposition,
    Bicharacter,
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
from hopfqt.qtlab import _bichar_forms, _keys


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


def test_out_of_range_entries_are_rejected_before_indexing():
    # an entry >= n used to raise IndexError out of the associativity check,
    # and a negative one wrapped around to "not associative"
    for table in ([[0, 1], [1, 2]], [[0, 1], [1, 5]], [[0, 1], [1, -1]],
                  [[0, 1, 2], [1, 2, 0], [2, 0, -3]]):
        n = len(table)
        with pytest.raises(ParameterError, match=rf"^table entries must lie in 0\.\.{n - 1}$"):
            FiniteGroup(table)
    with pytest.raises(ParameterError, match=r"^table entries must lie in 0\.\.1$"):
        build_group("custom", table=[[0, 1], [1, 5]])
    # a table whose identity already fails keeps that message
    with pytest.raises(ParameterError, match="^id 0 is not a two-sided identity$"):
        FiniteGroup([[0, 1], [5, 0]])


# ---------------------------------------------------------------------------
# the replaced per-family constructors and the n^3 table check, as oracles


def oracle_verify_table(t):
    """The group axioms checked on every triple, with the messages and in
    the order of FiniteGroup's checks; for tables with entries in 0..n-1."""
    t = np.asarray(t, dtype=np.int32)
    n = len(t)
    if not (np.all(t[0] == np.arange(n)) and np.all(t[:, 0] == np.arange(n))):
        raise ParameterError("id 0 is not a two-sided identity")
    for i in range(n):
        # (i*j)*k == i*(j*k) for all j, k
        if not np.array_equal(t[t[i]], t[i][t]):
            raise ParameterError("multiplication table is not associative")
    for i in range(n):
        if 0 not in t[i]:
            raise ParameterError(f"element {i} has no inverse")


def _flat(state):
    if isinstance(state, int):
        return (state,)
    return tuple(x for part in state for x in _flat(part))


def oracle_group_from_states(states, op, labels, generators, tag):
    """The table by one op call per pair of states, indexed by position."""
    index = {s: i for i, s in enumerate(states)}
    assert len(index) == len(states)
    n = len(states)
    table = np.array([[index[op(states[i], states[j])] for j in range(n)]
                      for i in range(n)], dtype=np.int32)
    return SimpleNamespace(table=table, labels=labels, generators=generators,
                           family_tag=tag, states=list(states))


def _label(sym_powers):
    parts = [f"{s}^{k}" for s, k in sym_powers if k]
    return "1" if not parts else "".join(parts)


def oracle_cyclic_group(n, sym="g", tag=None):
    states = list(range(n))
    return oracle_group_from_states(
        states, lambda a, b: (a + b) % n,
        [_label([(sym, i)]) for i in states],
        {sym: 1 % n}, tag or f"Z{n}")


def oracle_abelian_group(orders, syms=None, tag=None):
    syms = syms or [chr(ord("a") + i) for i in range(len(orders))]
    states = list(product(*[range(m) for m in orders]))
    def op(x, y):
        return tuple((u + v) % m for u, v, m in zip(x, y, orders))
    gens = {}
    for i, s in enumerate(syms):
        e = tuple(1 if j == i else 0 for j in range(len(orders)))
        gens[s] = states.index(e)
    labels = [_label(list(zip(syms, st))) for st in states]
    return oracle_group_from_states(states, op, labels, gens,
                                    tag or "x".join(f"Z{m}" for m in orders))


def oracle_semidirect_pq(p, q, t):
    states = list(product(range(p), range(q)))
    def op(x, y):
        return ((x[0] + pow(t, x[1], p) * y[0]) % p, (x[1] + y[1]) % q)
    labels = [_label([("a", i), ("b", j)]) for i, j in states]
    return oracle_group_from_states(
        states, op, labels, {"a": states.index((1, 0)), "b": states.index((0, 1))},
        f"Z{p}:Z{q}")


def oracle_two_gen_action_group(p, q, alpha, beta, tag):
    # (Z_q x Z_q) x| Z_p with u acting diagonally: s -> s^alpha, t -> t^beta
    states = [((i, j), k) for k in range(p) for i in range(q) for j in range(q)]
    def op(x, y):
        (i, j), k = x
        (i2, j2), k2 = y
        a = pow(alpha, k, q)
        b = pow(beta, k, q)
        return (((i + a * i2) % q, (j + b * j2) % q), (k + k2) % p)
    states.sort()
    labels = [_label([("s", i), ("t", j), ("u", k)]) for (i, j), k in states]
    gens = {"s": states.index(((1, 0), 0)), "t": states.index(((0, 1), 0)),
            "u": states.index(((0, 0), 1))}
    return oracle_group_from_states(states, op, labels, gens, tag)


def oracle_beta3(p, q, m):
    states = list(product(range(q * q), range(p)))
    def op(x, y):
        return ((x[0] + pow(m, x[1], q * q) * y[0]) % (q * q), (x[1] + y[1]) % p)
    labels = [_label([("s", i), ("t", j)]) for i, j in states]
    return oracle_group_from_states(
        states, op, labels,
        {"s": states.index((1, 0)), "t": states.index((0, 1))}, "beta3")


def oracle_beta7(p, q, m, n):
    m %= q
    n %= q
    states = [((i, j), k) for k in range(p) for i in range(q) for j in range(q)]
    states.sort()
    def act(v, k):
        i, j = v
        for _ in range(k):
            i, j = (m * j) % q, (i + n * j) % q
        return (i, j)
    def op(x, y):
        (v, k), (v2, k2) = x, y
        w = act(v2, k)
        return (((v[0] + w[0]) % q, (v[1] + w[1]) % q), (k + k2) % p)
    labels = [_label([("s", i), ("t", j), ("u", k)]) for (i, j), k in states]
    gens = {"s": states.index(((1, 0), 0)), "t": states.index(((0, 1), 0)),
            "u": states.index(((0, 0), 1))}
    return oracle_group_from_states(states, op, labels, gens, "beta7")


def oracle_gamma34(p, q, m, tag):
    states = list(product(range(p), range(q * q)))
    def op(x, y):
        return ((x[0] + pow(m, x[1], p) * y[0]) % p, (x[1] + y[1]) % (q * q))
    labels = [_label([("s", i), ("t", j)]) for i, j in states]
    return oracle_group_from_states(
        states, op, labels,
        {"s": states.index((1, 0)), "t": states.index((0, 1))}, tag)


def oracle_gamma56(p, q, m_t, m_u, tag):
    # s of order p; t, u of order q acting on s by s -> s^(m_t), s -> s^(m_u)
    states = [(i, (j, k)) for j in range(q) for k in range(q) for i in range(p)]
    states.sort()
    def op(x, y):
        i, (j, k) = x
        i2, (j2, k2) = y
        c = (pow(m_t, j, p) * pow(m_u, k, p)) % p
        return ((i + c * i2) % p, ((j + j2) % q, (k + k2) % q))
    labels = [_label([("s", i), ("t", j), ("u", k)]) for i, (j, k) in states]
    gens = {"s": states.index((1, (0, 0))), "t": states.index((0, (1, 0))),
            "u": states.index((0, (0, 1)))}
    return oracle_group_from_states(states, op, labels, gens, tag)


def oracle_build(family, params):
    """The replaced constructors by family, and the params build_group
    records (beta7 fills in its default m and n)."""
    params = dict(params)
    p, q, m, n = (params.get(k) for k in "pqmn")
    if family in {"beta1", "gamma1"}:
        G = oracle_cyclic_group(p * q * q, tag=family)
    elif family in {"beta2", "gamma2"}:
        G = oracle_abelian_group([p, q, q], syms=["c", "s", "t"], tag=family)
    elif family == "beta3":
        G = oracle_beta3(p, q, m)
    elif family in {"beta4", "beta5", "beta6"}:
        alpha, beta = {"beta4": (1, m), "beta5": (m, m), "beta6": (m, n)}[family]
        G = oracle_two_gen_action_group(p, q, alpha, beta, family)
    elif family == "beta7":
        if m is None:
            params["m"], params["n"] = m, n = beta7_default_params(p, q)
        G = oracle_beta7(p, q, m, n)
    elif family in {"gamma3", "gamma4"}:
        G = oracle_gamma34(p, q, m % p if family == "gamma4" else m, family)
    elif family in {"gamma5", "gamma6"}:
        G = oracle_gamma56(p, q, *((1, m) if family == "gamma5" else (m, n)), family)
    else:
        G = oracle_semidirect_pq(p, q, params["t"])
    G.params = params
    return G


CATALOG_PAIRS = [(3, 7), (3, 13), (5, 11), (3, 19), (3, 5), (3, 11), (5, 19),
                 (7, 3), (13, 3), (19, 3), (11, 5), (31, 5)]


def _catalog_cases():
    """Every catalog family that exists at each pair, with the parameters
    that ``hopfqt reproduce`` resolves for it; semidirect_pq where q | p - 1."""
    cases = []
    for p, q in CATALOG_PAIRS:
        if q > p:
            fams = ["beta1", "beta2"]
            if (q - 1) % p == 0:
                fams += ["beta3", "beta4", "beta5", "beta6"]
            if (q + 1) % p == 0:
                fams.append("beta7")
        else:
            fams = ["gamma1", "gamma2", "gamma3", "gamma5", "gamma6"]
            if (p - 1) % (q * q) == 0:
                fams.append("gamma4")
            cases.append(("semidirect_pq", dict(p=p, q=q, t=_smallest_order_element(p, q))))
        for fam in fams:
            cases.append((fam, _resolve_family_params(
                argparse.Namespace(family=fam, p=p, q=q, m=None, n=None))))
    return cases


CATALOG_CASES = _catalog_cases()


@pytest.mark.parametrize("family,params", CATALOG_CASES,
                         ids=[f"{f}-{c['p']}-{c['q']}" for f, c in CATALOG_CASES])
def test_catalog_groups_match_the_replaced_constructors(family, params):
    """The one semidirect-product constructor numbers, labels and names
    every catalog group as the per-family constructors did, and its states
    are theirs flattened, in the same order."""
    G = build_group(family, **params)
    old = oracle_build(family, params)
    assert G.table.dtype == old.table.dtype
    assert np.array_equal(G.table, old.table)
    assert G.labels == old.labels
    assert list(G.generators.items()) == list(old.generators.items())
    assert G.family_tag == old.family_tag
    assert G.params == old.params
    assert G.states == [_flat(s) for s in old.states]
    if G.order <= 200:
        oracle_verify_table(old.table)


def test_small_groups_match_the_replaced_constructors():
    for G, old in [(cyclic_group(1), oracle_cyclic_group(1)),
                   (cyclic_group(7, sym="h", tag="C7"), oracle_cyclic_group(7, "h", "C7")),
                   (abelian_group([5, 5], syms=["a", "b"]),
                    oracle_abelian_group([5, 5], syms=["a", "b"])),
                   (abelian_group([2, 3, 4]), oracle_abelian_group([2, 3, 4])),
                   (abelian_group([]), oracle_abelian_group([]))]:
        assert np.array_equal(G.table, old.table)
        assert (G.labels, G.generators, G.family_tag) == \
            (old.labels, old.generators, old.family_tag)
        assert G.states == [_flat(s) for s in old.states]
    assert cyclic_group(1).generators == {"g": 0}
    # an action parameter beyond int64 acts by its residue, as pow() did
    assert np.array_equal(semidirect_pq(7, 3, 2 + 7 * 10**30).table,
                          oracle_semidirect_pq(7, 3, 2).table)


def _verdict(check, table):
    try:
        check(table)
    except ParameterError as exc:
        return str(exc)
    return None


_SMALL_TABLES = [np.asarray(G.table) for G in (
    cyclic_group(1), cyclic_group(2), cyclic_group(4), cyclic_group(6),
    abelian_group([2, 2]), abelian_group([3, 3]), semidirect_pq(7, 3, 2),
    build_group("gamma3", p=7, q=3, m=2))]


def _as_loop(T):
    """The principal isotope of the Latin square T with 0 as identity:
    symbols renamed so that row 0 reads 0..n-1, then rows reordered so that
    column 0 does.  A loop isotopic to a group is a group."""
    rename = np.argsort(T[0])
    L = rename[T]
    return L[np.argsort(L[:, 0])]


@st.composite
def magmas(draw):
    kind = draw(st.sampled_from(["catalog", "isotope", "loop", "random"]))
    if kind == "random":
        n = draw(st.integers(1, 5))
        T = np.array(draw(st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                                   min_size=n, max_size=n)), dtype=np.int64)
        if draw(st.booleans()):
            T[0] = T[:, 0] = np.arange(n)
    else:
        T = draw(st.sampled_from(_SMALL_TABLES)).copy()
        n = len(T)
        if kind != "catalog":
            rows = np.array(draw(st.permutations(range(n))))
            cols = np.array(draw(st.permutations(range(n))))
            T = T[rows][:, cols]
            if kind == "loop":
                T = _as_loop(T)
    for _ in range(draw(st.integers(0, 2))):
        i, j, v = (draw(st.integers(0, n - 1)) for _ in range(3))
        T[i, j] = v
    return T.tolist()


@settings(max_examples=300, deadline=None)
@given(magmas())
def test_table_check_matches_the_cubic_oracle(table):
    """FiniteGroup accepts exactly the tables the every-triple check
    accepts, and rejects the others with its message."""
    assert _verdict(FiniteGroup, table) == _verdict(oracle_verify_table, table)


def test_table_check_sees_catalog_perturbations():
    """Each single-entry change of a catalog table is rejected with the
    oracle's message, and the loops isotopic to it are accepted."""
    rng = np.random.default_rng(19)
    for T in _SMALL_TABLES:
        n = len(T)
        assert _verdict(FiniteGroup, _as_loop(T[rng.permutation(n)][:, rng.permutation(n)])) is None
        for _ in range(20 if n > 1 else 0):
            U = T.copy()
            i, j = rng.integers(n, size=2)
            U[i, j] = (U[i, j] + rng.integers(1, n)) % n
            message = _verdict(oracle_verify_table, U)
            assert message is not None
            assert _verdict(FiniteGroup, U) == message


# Element numbering of every group `hopfqt reproduce` builds at (3,5),
# (3,7), (7,3) and (19,3): the catalog families with the parameters it
# resolves, and the groups of make_A and make_B there.  The digests are
# sha256 of table.tobytes() followed by the labels joined by spaces, taken
# from the per-family constructors before the one semidirect-product
# constructor replaced them.  Labels name elements in structure dumps, and
# ids key the bicharacters in reports, so a renumbering must show here.
NUMBERING_PINS = [
    ("beta1", dict(p=3, q=5), "1c496b1b1276fba4bd42cd2c24d83d21b6666847a5878bc611e1c02a1ba421e4"),
    ("beta2", dict(p=3, q=5), "71b6833f821b84423f51f60618fedc84229d6bb53a8dc8c0c0a6c5f48243ba88"),
    ("beta7", dict(p=3, q=5), "5e0823be15c08322e39228809b60e392bda5915bbd66c1c70cc9786fc18c11e4"),
    ("beta1", dict(p=3, q=7), "2602be156e95ec7c4dcb36b254b08b9bca9ec5133740c6b4231c553b473ef2d6"),
    ("beta2", dict(p=3, q=7), "1fcfd4c8df00886750ee3cbef6b1254290bd2bfc533ce7d1f7141ef3c0e3c540"),
    ("beta3", dict(p=3, q=7, m=18), "892e0e26a4046930d1873ff2afaef5af33e43177f461e15c88ba9601bfc49190"),
    ("beta4", dict(p=3, q=7, m=2), "b09b7a18bb80bcda234bdc2ed45b379f6ce34996532f981fa2f47bb60d8ef54a"),
    ("beta5", dict(p=3, q=7, m=2), "3d304d4f42131adee84a4d9c5855ee382ba8f918ab5ec4037d4bbb3e26b4c6ce"),
    ("beta6", dict(p=3, q=7, m=2, n=4), "3069c9ba4bfa024d6e9f118fec8d0eeae6e558f2ed7b2de9aaef7b8357e733cb"),
    ("gamma1", dict(p=7, q=3), "ebe123fff7aa9633ac0b129be26e0dd259b45672b874051011e18b2f14b60b57"),
    ("gamma2", dict(p=7, q=3), "d0900e11b2b71e443418a72d3db918313aba68d0c7469c52c45bc2d962385f24"),
    ("gamma3", dict(p=7, q=3, m=2), "9fecc7a70aece98a56674d1eaea03afa4ccc49be2c70e84a14be52fb9380d173"),
    ("gamma5", dict(p=7, q=3, m=2), "4df2e30eeffa6898640d284675862b3cc385eea1bc59a6d10fe9b4bf2142922e"),
    ("gamma6", dict(p=7, q=3, m=2, n=4), "75a381cc8921f936fea79abd764df1f1c342163f49ac3449e4aa983ba3db1d2b"),
    ("gamma1", dict(p=19, q=3), "d043dcd30ca43e1a6105ad81a45abd68f504bb52f8b2ff01dd8c36f0c44778c1"),
    ("gamma2", dict(p=19, q=3), "87bab980522c467891464288f7bf6471a82ef76e193788926356dc38e60034cd"),
    ("gamma3", dict(p=19, q=3, m=7), "e5b3cc720f9ec9bb8114e179a019451f41c739bca1887e18c9f7bbf6092b864a"),
    ("gamma4", dict(p=19, q=3, m=4), "19557773431e7b78e92e90d4888118033577643816d2c76332ce9c756ee66206"),
    ("gamma5", dict(p=19, q=3, m=7), "313e1ae84a37069e75e6881b91b0ba97336b20e4fdd5478d8dafa5af18ad3e9b"),
    ("gamma6", dict(p=19, q=3, m=7, n=11), "83bddd6389e8f7c9107579f86dcbb3703d6004f270335539a56f491ad31d9847"),
    ("semidirect_pq", dict(p=7, q=3, t=2), "3edf59271856fecdaaff60c3f2fab1142f84e66c0368120c25b9e7ad17180b15"),
    ("semidirect_pq", dict(p=19, q=3, t=7), "292cf18dc3c72421326bbd8b1261d72c7f56364c5a4f06777b608d5c48c1164b"),
]


def _numbering_digest(G):
    return hashlib.sha256(G.table.tobytes() + " ".join(G.labels).encode()).hexdigest()


@pytest.mark.parametrize("family,params,digest", NUMBERING_PINS,
                         ids=[f"{f}-{c['p']}-{c['q']}" for f, c, _ in NUMBERING_PINS])
def test_catalog_element_numbering_is_pinned(family, params, digest):
    assert _numbering_digest(build_group(family, **params)) == digest


def test_matched_pair_group_numbering_is_pinned():
    # make_B(3, 7, ...) builds Z7 x Z7 on a, b and make_A / make_B the cyclic F
    assert _numbering_digest(abelian_group([7, 7], syms=["a", "b"])) == \
        "9ece831f928a063a3286464bbb7e04d501a84cc1ca6e10ea4666b7e58fdd29b2"
    assert _numbering_digest(cyclic_group(3, sym="g")) == \
        "9af0fbcdde796e935e90ec398aec6a2026758496e32a84995c1d581c3ba83a4c"


# ---------------------------------------------------------------------------
# abelian decomposition


def abelian_decomposition_by_closure(G, ids):
    """The decomposition that one subgroup closure per candidate decides,
    kept as the oracle: x joins the generators when |<gens, x>| equals
    |<gens>| ord(x)."""
    ids = sorted(set(ids))
    if ids == [0]:
        return AbelianDecomposition(G, ids, [], [])
    by_order = sorted((x for x in ids if x), key=lambda x: (-G.order_of(x), x))
    gens, orders, span = [], [], {0}
    for x in by_order:
        if x in span:
            continue
        closure = G.subgroup_closure(gens + [x])
        if len(closure) == len(span) * G.order_of(x):
            gens.append(x)
            orders.append(G.order_of(x))
            span = closure
            if len(span) == len(ids):
                break
    return AbelianDecomposition(G, ids, gens, orders)


def _reproduce_decomposition_inputs(monkeypatch, p, q):
    """(G, ids) of every abelian_decomposition call of reproduce at (p, q)."""
    from hopfqt import cli, grouptool, hopfcore, qtlab
    seen = []

    def spy(G, ids, real=grouptool.abelian_decomposition):
        ids = list(ids)
        seen.append((G, ids))
        return real(G, ids)

    for module in (cli, grouptool, hopfcore, qtlab):
        monkeypatch.setattr(module, "abelian_decomposition", spy)
    with tempfile.TemporaryDirectory() as work:
        cli.main(["reproduce", "--p", str(p), "--q", str(q),
                  "--out", os.path.join(work, "r.json")])
    monkeypatch.undo()
    return seen


def _decomposition_inputs_313():
    """What reproduce --p 3 --q 13 decomposes (a spy on one run saw these
    10 calls): Z13 x Z13 of make_B and Z3 twice each, and beta1..beta6,
    whole when abelian, else their largest abelian normal subgroup."""
    groups = [abelian_group([13, 13]), cyclic_group(3)] * 2
    out = [(G, range(G.order)) for G in groups]
    for fam, params in _catalog_cases():
        if (params["p"], params["q"]) == (3, 13):
            G = build_group(fam, **params)
            out.append((G, range(G.order) if G.is_abelian()
                        else largest_abelian_normal(G).ids))
    return out


def test_decomposition_by_orders_mod_span_matches_closures(monkeypatch):
    inputs = [x for p, q in ((3, 5), (7, 3), (13, 3), (3, 7))
              for x in _reproduce_decomposition_inputs(monkeypatch, p, q)]
    assert len(inputs) == 3 + 8 + 8 + 10
    inputs += _decomposition_inputs_313()
    assert len(inputs) == 39
    for G, ids in inputs:
        K, oracle = abelian_decomposition(G, ids), abelian_decomposition_by_closure(G, ids)
        assert (K.gens, K.orders, K.elements) == (oracle.gens, oracle.orders, oracle.elements)


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
    assert sorted(K.orders) == sorted(expected_orders)
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
    assert z in K.ids
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


def reference_idempotents(K):
    """The idempotents of ``idempotents`` as dicts group element ->
    CycloNumber, aligned with K.elements: E_k has the coefficient
    zeta_L^<k, x> / |K| at every x of K, the pairing summed generator by
    generator."""
    order = K.order
    if order == 1:
        return [{0: CycloNumber.one()}]
    conductor = math.lcm(*K.orders)
    inv_order = CycloNumber.from_rational(1) / order
    out = []
    for k in K.elements:
        kv = K.exponent_of(k)
        vec = {}
        for x in K.elements:
            xv = K.exponent_of(x)
            e = 0
            for ki, xi, ni in zip(kv, xv, K.orders):
                e += ki * xi * (conductor // ni)
            vec[x] = inv_order * zeta(conductor, e)
        out.append(vec)
    return out


@pytest.mark.parametrize("orders", [[], [3], [7, 7], [3, 5, 5], [3, 13, 13]])
def test_idempotents_match_reference(orders):
    """The terms of idempotents(K), for K of order 1, 3, 7^2, 3 5^2 and
    3 13^2, are those of reference_idempotents, term for term: the same
    basis elements, ascending, with equal coefficients.  Beyond order 3 the
    elements of K are not in ascending order."""
    G = abelian_group(orders) if orders else cyclic_group(1)
    K = _full_decomposition(G)
    f = idempotents(K)
    ref = reference_idempotents(K)
    assert f.L == math.lcm(1, *orders) and f.scale == Fraction(1, K.order)
    assert (K.elements == sorted(K.elements)) == (K.order <= 3)
    assert f.owner.tolist() == sorted(f.owner.tolist())
    for t, vec in enumerate(ref):
        terms = np.flatnonzero(f.owner == t)
        assert f.idx[terms].tolist() == sorted(vec)
        assert all(0 <= e < f.L for e in f.exp[terms].tolist())
        assert [f.scale * zeta(f.L, e) for e in f.exp[terms].tolist()] == \
            [vec[x] for x in sorted(vec)]
    assert len(f.owner) == K.order ** 2


def test_idempotents_cyclic3_formula():
    K = _full_decomposition(cyclic_group(3, sym="a"))
    basis = reference_idempotents(K)
    third = CycloNumber.from_rational(1) / 3
    for i, vec in enumerate(basis):
        k = K.elements[i]
        ki = K.exponent_of(k)[0]
        for j in range(3):
            x = K.element_of((j,))
            assert vec[x] == third * zeta(3, ki * j)


def _exponent_table(f, order):
    """E with E[t, x] the exponent of the term of E_t at x in the
    Idempotents form f; fails unless every E_t has one term at every group
    element x."""
    E = np.full((order, order), -1, dtype=np.int64)
    E[f.owner, f.idx] = f.exp
    assert len(f.owner) == order * order and (E >= 0).all()
    return E


@pytest.mark.parametrize("orders", [[3], [5], [3, 3], [7, 7]])
def test_idempotents_orthogonal_complete(orders):
    # every product u_i u_j in k[G], exactly: its coefficient at z is
    # scale^2 sum_x zeta^(E[i, x] + E[j, x^-1 z]), so count the exponents
    # for each (j, z) and map the counts to the power basis of Q(zeta_N)
    G = abelian_group(orders)
    K = _full_decomposition(G)
    n, N = G.order, math.lcm(*orders)
    f = idempotents(K)
    E, scale = _exponent_table(f, n), f.scale
    assert f.L == N
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
    basis = reference_idempotents(K)
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
    with pytest.raises(ParameterError, match="does not normalize"):
        conjugation_map(G, G.generators["a"], K)
    with pytest.raises(ParameterError, match="does not normalize"):
        reference_conjugation_map(G, G.generators["a"], K)


def reference_conjugation_map(G, g, K, basis=None):
    """conjugation_map by products in the group algebra: each idempotent
    conjugated term by term and matched against the idempotent basis by
    CycloNumber comparison (basis defaults to reference_idempotents(K))."""
    ids = set(K.ids)
    for x in ids:
        if G.conjugate(g, x) not in ids:
            raise ParameterError("element does not normalize the subgroup")
    basis = reference_idempotents(K) if basis is None else basis
    ginv = G.inv(g)
    perm = []
    for vec in basis:
        conj = {G.mul(G.mul(g, x), ginv): c for x, c in vec.items()}
        for j, cand in enumerate(basis):
            if conj.keys() == cand.keys() and all(conj[x] == cand[x] for x in conj):
                perm.append(j)
                break
        else:
            raise RuntimeError("conjugated idempotent not in basis")
    return perm


def _nonabelian_catalog(p, q):
    """Every nonabelian catalog group at (p, q), at the parameters the cli
    resolves."""
    fams = ["beta3", "beta4", "beta5", "beta6", "beta7"] if q > p else \
        ["gamma3", "gamma4", "gamma5", "gamma6"]
    out = []
    for fam in fams:
        try:
            params = _resolve_family_params(argparse.Namespace(
                family=fam, p=p, q=q, m=None, n=None))
            out.append(build_group(fam, **params))
        except ParameterError:
            continue
    return out


@pytest.mark.parametrize("p,q,every", [
    (3, 5, True), (7, 3, True), (3, 7, False), (19, 3, False)])
def test_conjugation_map_matches_reference(p, q, every):
    """The integer permutation equals the one matched by CycloNumber
    comparison: on every element of every nonabelian catalog group at
    (3,5) and (7,3), and on the generators at (3,7) and (19,3)."""
    groups = _nonabelian_catalog(p, q)
    assert groups
    for G in groups:
        K = largest_abelian_normal(G)
        basis = reference_idempotents(K)
        gs = range(G.order) if every else sorted(set(G.generators.values()))
        for g in gs:
            perm = conjugation_map(G, g, K)
            assert perm == reference_conjugation_map(G, g, K, basis), \
                (G.family_tag, g)
            assert all(type(x) is int for x in perm)


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
    # one value per generator pair: its exponent lies in 0..gcd(n_i, n_j) - 1,
    # so its order divides gcd(n_i, n_j), and every exponent occurs
    K = _full_decomposition(abelian_group([3, 9]))
    E = enumerate_bicharacters(K)
    assert E.dtype == np.int64 and E.shape == (3 * 3 * 3 * 9, 2, 2)
    for i, j in product(range(2), repeat=2):
        o = math.gcd(K.orders[i], K.orders[j])
        assert sorted(set(E[:, i, j].tolist())) == list(range(o))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([[3], [5], [3, 3], [9, 3]]), st.data())
def test_bicharacter_bilinearity(orders, data):
    # the exponent matrix W = X A X^T of a bicharacter is additive in
    # either slot: W[x y, z] = W[x, z] + W[y, z] mod L
    G = abelian_group(orders)
    K = _full_decomposition(G)
    E = enumerate_bicharacters(K)
    X, A, L = _bichar_forms(E, K)
    W = X @ A[data.draw(st.integers(0, len(E) - 1))] @ X.T % L
    pos = {x: i for i, x in enumerate(K.elements)}
    x, y, z = (pos[x] for x in data.draw(
        st.lists(st.integers(0, G.order - 1), min_size=3, max_size=3)))
    xy = pos[G.mul(K.elements[x], K.elements[y])]
    yz = pos[G.mul(K.elements[y], K.elements[z])]
    assert W[xy, z] == (W[x, z] + W[y, z]) % L
    assert W[x, yz] == (W[x, y] + W[x, z]) % L


class ReferenceBicharacter:
    """A bicharacter on an abelian group as an object, stored by
    generator-pair values: ``exps[i][j]`` is the exponent of w(g_i, g_j) as
    a power of the root of unity of order gcd(n_i, n_j); values extend
    biadditively in the exponent vectors.  The oracle of the rows of
    ``enumerate_bicharacters``."""

    def __init__(self, domain, exps):
        self.domain = domain
        self.exps = [list(row) for row in exps]
        r = len(domain.orders)
        self.pair_orders = [
            [math.gcd(domain.orders[i], domain.orders[j]) for j in range(r)]
            for i in range(r)
        ]
        self.conductor = math.lcm(1, *(o for row in self.pair_orders for o in row))

    def exponent(self, x, y):
        """Exponent e with w(x, y) = zeta_conductor^e."""
        xv = self.domain.exponent_of(x)
        yv = self.domain.exponent_of(y)
        L = self.conductor
        e = 0
        for i, xi in enumerate(xv):
            if not xi:
                continue
            for j, yj in enumerate(yv):
                o = self.pair_orders[i][j]
                if yj and o > 1:
                    e += xi * yj * self.exps[i][j] * (L // o)
        return e % L

    def value(self, x, y):
        return zeta(self.conductor, self.exponent(x, y))

    def is_trivial(self):
        return all(e % o == 0 for row, orow in zip(self.exps, self.pair_orders)
                   for e, o in zip(row, orow) if o)

    def inverse(self):
        return ReferenceBicharacter(self.domain,
                                    [[-e for e in row] for row in self.exps])

    def key(self):
        return tuple(
            tuple(e % o if o else 0 for e, o in zip(row, orow))
            for row, orow in zip(self.exps, self.pair_orders)
        )


def reference_bicharacters(K):
    """All bicharacters on K as ReferenceBicharacter objects, one free root
    choice per generator pair, in itertools.product order."""
    r = len(K.orders)
    if r == 0:
        return [ReferenceBicharacter(K, [])]
    ranges = []
    for i in range(r):
        for j in range(r):
            ranges.append(range(math.gcd(K.orders[i], K.orders[j])))
    out = []
    for combo in product(*ranges):
        exps = [list(combo[i * r:(i + 1) * r]) for i in range(r)]
        out.append(ReferenceBicharacter(K, exps))
    return out


def reference_bichar_forms(ws, K):
    """_bichar_forms read off ReferenceBicharacter objects."""
    r = len(K.orders)
    L = math.lcm(1, *K.orders)
    X = np.array([K.exponent_of(x) for x in K.elements],
                 dtype=np.int64).reshape(len(K.elements), r)
    o = np.asarray(K.orders, dtype=np.int64)
    O = np.gcd.outer(o, o)
    E = np.array([w.exps for w in ws], dtype=np.int64).reshape(len(ws), r, r)
    return X, (E % O) * (L // O), L


@pytest.mark.parametrize("orders", [
    [1], [3], [7, 7], [3, 13, 13], [3, 3, 7], [19], [3, 5, 5]])
def test_bicharacters_match_reference(orders):
    """The exponent array has the keys of the object enumeration in its
    order, the same trivial bicharacters and the same forms, entry by
    entry."""
    G = cyclic_group(1) if orders == [1] else abelian_group(orders)
    K = _full_decomposition(G)
    E = enumerate_bicharacters(K)
    ws = reference_bicharacters(K)
    r = len(K.orders)
    assert E.dtype == np.int64 and E.shape == (len(ws), r, r)
    keys = _keys(E)
    assert keys == [w.key() for w in ws]
    assert [Bicharacter(k).is_trivial() for k in keys] == \
        [w.is_trivial() for w in ws]
    for got, want in zip(_bichar_forms(E, K), reference_bichar_forms(ws, K)):
        assert np.array_equal(got, want)


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

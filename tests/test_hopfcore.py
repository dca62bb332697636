import argparse
import copy

import numpy as np
import pytest

from hopfqt import hopfcore
from hopfqt.exactfield import CycloNumber, RowSpace, zeta
from hopfqt.cli import _resolve_family_params
from hopfqt.grouptool import (ParameterError, abelian_group, build_group, cyclic_group,
                              semidirect_pq)
from hopfqt.bismash import build_bismash, dualize_trivial_action, make_A, make_B
from hopfqt.hopfcore import (
    FormatError,
    HopfAlgebra,
    _check_antipode,
    _check_unit_laws,
    antipode_diagnostics,
    dual_hopf,
    dump_structure,
    group_algebra,
    group_likes_bismash,
    load_structure,
    verify_hopf_axioms,
)


def hopf_structures_equal(a: HopfAlgebra, b: HopfAlgebra) -> bool:
    """Equal structure constants, with repeated terms of a row summed."""
    if a.dim != b.dim:
        return False
    summed = hopfcore._summed

    def row(h, i):
        return (summed(((j, k), c) for j, t in h.mult[i].items() for k, c in t),
                summed(((u, v), c) for u, v, c in h.comult[i]),
                summed(h.antipode[i]))

    return (all(row(a, i) == row(b, i) for i in range(a.dim))
            and summed(a.unit.items()) == summed(b.unit.items())
            and all(x == y for x, y in zip(a.counit, b.counit)))


# ---------------------------------------------------------------------------
# element arithmetic


def test_algebra_element_ops():
    H = group_algebra(cyclic_group(5))
    x = H.basis_element(2)
    assert H.one() * x == x and x * H.one() == x
    assert (x + x) == 2 * x
    assert (x - x).is_zero()
    assert H.one().counit_apply().is_one()
    assert x.comult_apply() == {(2, 2): CycloNumber.one()}
    # S(g) = g^-1
    assert x.antipode_apply() == H.basis_element(3)


def test_element_host_mismatch():
    H1 = group_algebra(cyclic_group(3))
    H2 = group_algebra(cyclic_group(3))
    with pytest.raises(ValueError):
        H1.basis_element(0) * H2.basis_element(0)


def test_bismash_product_formula_via_elements():
    mp = make_A(7, 3, 2, 0)
    H = build_bismash(mp)
    a = mp.G.generators["a"]
    x = H.basis_element(H.gf_index(a, 1))
    y = H.basis_element(H.gf_index(mp.act_left[a][1], 1))
    z = x * y
    assert z.coeffs == {H.gf_index(a, 2): zeta(3, mp.sigma[a][1][1])}


# ---------------------------------------------------------------------------
# axiom verification


@pytest.mark.parametrize("G", [cyclic_group(7), semidirect_pq(7, 3, 2),
                               abelian_group([3, 3])])
def test_group_algebra_axioms(G):
    rep = verify_hopf_axioms(group_algebra(G))
    assert rep.passed


def oracle_group_algebra(G, conductor=1):
    """k[G] by one G.mul and G.inv call per entry."""
    n = G.order
    one = CycloNumber.one(conductor)
    mult = [dict() for _ in range(n)]
    for i in range(n):
        for j in range(n):
            mult[i][j] = ((G.mul(i, j), one),)
    antipode = [((G.inv(i), one),) for i in range(n)]
    return mult, antipode


@pytest.mark.parametrize("G", [cyclic_group(1), cyclic_group(7), semidirect_pq(7, 3, 2),
                               build_group("beta7", p=3, q=5)])
def test_group_algebra_matches_per_entry_products(G):
    H = group_algebra(G, conductor=5)
    mult, antipode = oracle_group_algebra(G, 5)
    assert H.mult == mult and H.antipode == antipode
    assert all(type(k) is int for row in H.mult for ((k, _),) in row.values())
    assert [list(row) for row in H.mult] == [list(range(G.order))] * G.order


def reference_group_algebra(G, conductor=1):
    """k[G] from its rows, the tables derived from them: the row builder
    that group_algebra replaced."""
    n = G.order
    one = CycloNumber.one(conductor)
    mult = [{j: ((k, one),) for j, k in enumerate(row)} for row in G.table.tolist()]
    comult = [((i, i, one),) for i in range(n)]
    antipode = [((i, one),) for i in G.inverse.tolist()]
    return HopfAlgebra(n, conductor, mult, comult, {0: one}, [one] * n, antipode,
                       labels=list(G.labels))


def catalog_groups(p, q):
    """Every catalog group at (p, q), at the parameters the cli resolves."""
    fams = [f"beta{i}" for i in range(1, 8)] if q > p else \
        [f"gamma{i}" for i in range(1, 7)]
    out = []
    for fam in fams:
        try:
            params = _resolve_family_params(argparse.Namespace(
                family=fam, p=p, q=q, m=None, n=None))
            out.append(build_group(fam, **{k: v for k, v in params.items()
                                           if k in ("p", "q", "m", "n")}))
        except ParameterError:
            continue
    return out


@pytest.mark.parametrize("p,q", [(3, 5), (3, 7), (7, 3)])
def test_group_algebra_from_tables_matches_reference(p, q):
    """k[G] built from its tables equals the row-built reference on every
    catalog group: the same dump text, byte for byte, the same tables, and
    equal structure constants."""
    groups = catalog_groups(p, q)
    assert len(groups) >= 3
    for G in groups:
        N = G.order % 7 + 1
        H, ref = group_algebra(G, N), reference_group_algebra(G, N)
        assert dump_structure(H) == dump_structure(ref), G.family_tag
        for got, want in ((H.mult_tables(), ref.mult_tables()),
                          (H.comult_tables(), ref.comult_tables())):
            assert all(np.array_equal(a, b) and a.dtype == b.dtype
                       for a, b in zip(got, want, strict=True)), G.family_tag
        assert hopf_structures_equal(H, ref), G.family_tag


def test_axioms_all_families():
    for l in (0, 1, 2):
        assert verify_hopf_axioms(build_bismash(make_A(7, 3, 2, l))).passed
    for lam in (0, 1):
        assert verify_hopf_axioms(build_bismash(make_B(3, 7, 2, lam))).passed


def test_axioms_fail_on_mutated_structure_constant():
    H = build_bismash(make_A(7, 3, 2, 0))
    i = 5
    j, terms = next(iter(H.mult[i].items()))
    k = terms[0][0]
    bad = H.with_scaled_mult_entry(i, j, k, zeta(H.conductor))
    rep = verify_hopf_axioms(bad)
    assert not rep.passed


def generic_copy(H):
    """H without its exponent tables: every sweep takes the generic join."""
    G = copy.copy(H)
    G._mono = G._cmono = None
    return G


def comult_mutant(H, i, t, change):
    """H with term t = (j, k, c) of Delta(b_i) replaced by the list of
    terms change(j, k, c)."""
    comult = list(H.comult)
    terms = list(comult[i])
    terms[t:t + 1] = change(*terms[t])
    comult[i] = tuple(terms)
    return HopfAlgebra(H.dim, H.conductor, H.mult, comult, H.unit, H.counit,
                       H.antipode, H.labels)


def zeta_scaled(N):
    return lambda j, k, c: [(j, k, c * zeta(N))]


def swapped(j, k, c):
    return [(k, j, c)]


def split_one(j, k, c):
    """1 as zeta_6 + zeta_6^5: the same sum, with a repeated key."""
    assert c.is_one()
    return [(j, k, zeta(6)), (j, k, zeta(6, 5))]


# the constant of Bdual(3,7,lam=0) whose zeta-mutant has 190 associativity
# witnesses (a first-row mutant has 192)
BDUAL_SITE = (37, 29)


def zeta_mutant(H, i, j):
    """H with the first constant of b_i b_j scaled by zeta_N: still
    monomial, so the exponent tables apply."""
    return H.with_scaled_mult_entry(i, j, H.mult[i][j][0][0], zeta(H.conductor))


def removed_product(H, i, j):
    """H with the product b_i b_j set to zero: still monomial, and the
    tables must find the triples whose left side b_i b_j is now zero."""
    mult = [dict(row) for row in H.mult]
    del mult[i][j]
    return HopfAlgebra(H.dim, H.conductor, mult, H.comult, H.unit, H.counit,
                       H.antipode, H.labels)


def test_generic_assoc_path_matches_numpy_path():
    cases = [
        (zeta_mutant(build_bismash(make_A(7, 3, 2, 1)), 54, 54), 8),
        (removed_product(build_bismash(make_A(7, 3, 2, 1)), 20, 10), 6),
        (zeta_mutant(group_algebra(build_group("beta7", p=3, q=5), 5), 3, 4), 294),
        (zeta_mutant(build_bismash(dualize_trivial_action(make_B(3, 7, 2, 0))),
                     *BDUAL_SITE), 190),
    ]
    for H, n_assoc in cases:
        assert H.mono_tables() is not None
        G = generic_copy(H)
        assert G.mono_tables() is None
        full = verify_hopf_axioms(H).failures
        assert len(full["associativity"]) == n_assoc
        assert verify_hopf_axioms(G).failures == full


# the sweeps that start on exponent tables: suspect generator -> condition
TABLE_SWEEPS = {"_assoc_suspects": "associativity",
                "_coassoc_suspects": "coassociativity",
                "_counit_suspects": "counit",
                "_delta_mult_suspects": "comultiplication is an algebra map",
                "_eps_mult_suspects": "counit is an algebra map",
                "_antipode_suspects": "antipode"}


def spy_reruns(monkeypatch):
    """Record, per table sweep, the indices the exponent tables left to the
    generic join."""
    reruns = {cond: [] for cond in TABLE_SWEEPS.values()}
    for name, cond in TABLE_SWEEPS.items():
        def spy(H, real=getattr(hopfcore, name), seen=reruns[cond]):
            for w in real(H):
                seen.append(w if isinstance(w, tuple) else (w,))
                yield w
        monkeypatch.setattr(hopfcore, name, spy)
    return reruns


def reading_row(H, row):
    """Per table sweep, the indices whose identity reads Delta(b_row)."""
    n, mt = H.dim, H.mono_tables()[0]
    return {"associativity": set(), "counit is an algebra map": set(),
            "counit": {(row,)}, "antipode": {(row,)},
            "coassociativity": {(i,) for i in range(n)
                                if i == row or any(row in t[:2] for t in H.comult[i])},
            "comultiplication is an algebra map": {
                (i, j) for i in range(n) for j in range(n) if row in (i, j, mt[i, j])}}


def reading_entry(H, a, b):
    """Per table sweep of mult, the indices whose identity reads the
    constant of b_a b_b, found from the rows of mult and comult."""
    n, mult = H.dim, H.mult
    targets = [{j: {t for t, _ in terms} for j, terms in row.items()} for row in mult]
    legs = [[{t[side] for t in H.comult[i]} for i in range(n)] for side in (0, 1)]
    return {
        "associativity": {
            (i, j, k) for i in range(n) for j in range(n) for k in range(n)
            if (i, j) == (a, b) or (j, k) == (a, b)
            or (k == b and a in targets[i].get(j, ()))
            or (i == a and b in targets[j].get(k, ()))},
        "comultiplication is an algebra map": {
            (i, j) for i in range(n) for j in range(n) if (i, j) == (a, b)
            or any(a in side[i] and b in side[j] for side in legs)},
        "counit is an algebra map": {(a, b)},
        "antipode": {(i,) for i in range(n) if any(
            (a in {u for u, _ in H.antipode[j]} and k == b)
            or (j == a and b in {u for u, _ in H.antipode[k]})
            for j, k, _ in H.comult[i])}}


def test_coalgebra_tables_match_generic_join(monkeypatch):
    """The exponent tables accept every index of a clean host and leave to
    the generic join only the failing indices of a mutant, and, where a
    swap made a repeated key, indices reading the mutated row.  The reports
    equal those of the generic join alone, witness by witness.  The
    zeta-mutants of mult constants are also compared in
    test_generic_assoc_path_matches_numpy_path."""
    A1 = build_bismash(make_A(7, 3, 2, 1))
    B1 = build_bismash(make_B(3, 7, 2, 1))
    clean = [build_bismash(make_A(7, 3, 2, l)) for l in (0, 2)] + [
        A1, build_bismash(dualize_trivial_action(make_B(3, 7, 2, 0))), B1,
        group_algebra(build_group("gamma5", p=7, q=3, m=2), 1)]
    # (mutant, the row whose swap made a repeated key)
    mutants = [(zeta_mutant(A1, 20, 9), None),
               (comult_mutant(A1, 25, 20, zeta_scaled(3)), None),
               (comult_mutant(A1, 37, 1, swapped), None),
               (comult_mutant(B1, 142, 8, swapped), 142)]
    for H, row in [(H, None) for H in clean] + mutants:
        assert H.mono_tables() is not None and H.comult_tables() is not None
        generic = verify_hopf_axioms(generic_copy(H)).failures
        assert bool(generic) == (H not in clean)
        reruns = spy_reruns(monkeypatch)
        failures = verify_hopf_axioms(H).failures
        monkeypatch.undo()
        assert failures == generic
        for cond, seen in reruns.items():
            witnesses = set(failures.get(cond, []))
            allowed = witnesses if row is None else reading_row(H, row)[cond]
            assert witnesses <= set(seen) <= allowed
    for H, _ in mutants[1:]:
        assert set(TABLE_SWEEPS.values()) & set(verify_hopf_axioms(H).failures)


def test_assoc_tables_leave_only_failing_triples(monkeypatch):
    """Associativity: the exponent tables accept every triple of a clean
    host and leave to the sparse join exactly the failing triples of a
    monomial mutant; twice a root of unity at b_54 b_54 is an odd entry, and
    only triples that read it are left besides."""
    A1 = build_bismash(make_A(7, 3, 2, 1))
    clean = [A1, group_algebra(build_group("gamma5", p=7, q=3, m=2), 1),
             build_bismash(dualize_trivial_action(make_B(3, 7, 2, 0)))] + [
        build_bismash(make_B(3, 7, 2, lam)) for lam in (0, 1)]
    for H in clean:
        assert list(hopfcore._assoc_suspects(H)) == []
    # the removed product leaves b_20 (b_10 b_k) nonzero where b_20 b_10 = 0,
    # which only the count of row 20 reveals: (20, 10, 19) and (20, 10, 20)
    for H in (zeta_mutant(A1, 54, 54), removed_product(A1, 20, 10)):
        reruns = spy_reruns(monkeypatch)
        witnesses = verify_hopf_axioms(H).failures["associativity"]
        monkeypatch.undo()
        assert reruns["associativity"] == witnesses
    assert {(20, 10, 19), (20, 10, 20)} <= set(witnesses)
    doubled = A1.with_scaled_mult_entry(54, 54, 54, 2)
    assert doubled.mono_tables() is None and doubled.mult_tables()[2].sum() == 1
    reruns = spy_reruns(monkeypatch)
    witnesses = verify_hopf_axioms(doubled).failures["associativity"]
    monkeypatch.undo()
    assert witnesses == verify_hopf_axioms(generic_copy(doubled)).failures["associativity"]
    assert (set(witnesses) <= set(reruns["associativity"])
            <= reading_entry(doubled, 54, 54)["associativity"])
    # a zero product b_t b_k given two terms: an odd entry whose failures
    # show only where (b_i b_j) b_k reads it and b_i (b_j b_k) is zero
    t, k = 20, next(k for k in range(A1.dim) if k not in A1.mult[20])
    mult = [dict(row) for row in A1.mult]
    mult[t][k] = ((0, zeta(3)), (1, zeta(3, 2)))
    added = HopfAlgebra(A1.dim, A1.conductor, mult, A1.comult, A1.unit, A1.counit,
                        A1.antipode)
    reruns = spy_reruns(monkeypatch)
    failures = verify_hopf_axioms(added).failures
    monkeypatch.undo()
    assert failures == verify_hopf_axioms(generic_copy(added)).failures
    assert any(j in A1.mult[i] and A1.mult[i][j][0][0] == t and k not in A1.mult[j]
               for i, j, _ in failures["associativity"])
    for cond, allowed in reading_entry(added, t, k).items():
        assert set(failures.get(cond, [])) <= set(reruns[cond]) <= allowed


def test_tables_accept_only_distinct_keys_with_equal_exponents():
    # identity x owns keys 10x..10x+9; exponents are compared mod 7
    def flagged(left, right):
        arrays = [np.array(side, dtype=np.int64).reshape(-1, 2).T for side in (left, right)]
        return hopfcore._unmatched(*arrays[0], *arrays[1], 7, 10).tolist()

    assert flagged([(3, 1), (4, 2), (12, 0)], [(4, 9), (3, 8), (12, 7)]) == []
    assert flagged([(3, 1)], [(3, 2)]) == [0]            # exponents differ
    assert flagged([(3, 1), (14, 0)], [(3, 1)]) == [1]   # key on one side only
    assert flagged([], [(25, 0), (31, 3)]) == [2, 3]
    # a repeated key, even where both sides match term by term
    assert flagged([(3, 1), (3, 2), (12, 0)], [(3, 1), (3, 2), (12, 0)]) == [0]
    assert flagged([(3, 1), (3, 1)], [(3, 1), (3, 1)]) == [0]


def test_coalgebra_generic_rerun_with_odd_entry_or_repeated_keys(monkeypatch):
    # twice a root of unity: an odd mult entry, so the Delta-algebra-map,
    # counit-algebra-map and antipode laws leave to the generic join the
    # indices that read it, and no more
    doubled = build_bismash(make_A(7, 3, 2, 1)).with_scaled_mult_entry(54, 54, 54, 2)
    assert doubled.mono_tables() is None and doubled.comult_tables() is not None
    # a term 1 of Delta split into zeta_6 + zeta_6^5 = 1: the same algebra,
    # but a repeated key, which the tables must leave to the generic join
    D = dual_hopf(group_algebra(semidirect_pq(7, 3, 2), 6))
    assert zeta(6) + zeta(6, 5) == 1
    split = comult_mutant(D, 4, 2, split_one)
    assert split.comult_tables() is not None
    reruns = spy_reruns(monkeypatch)
    failures = verify_hopf_axioms(doubled).failures
    monkeypatch.undo()
    assert failures == verify_hopf_axioms(generic_copy(doubled)).failures
    assert reruns["coassociativity"] == []
    assert failures["comultiplication is an algebra map"] and failures["antipode"]
    reading = reading_entry(doubled, 54, 54)
    for cond in ("comultiplication is an algebra map", "counit is an algebra map",
                 "antipode"):
        assert set(failures.get(cond, [])) <= set(reruns[cond]) <= reading[cond]
    assert len(reading["comultiplication is an algebra map"]) < doubled.dim ** 2

    reruns = spy_reruns(monkeypatch)
    assert verify_hopf_axioms(split).passed
    monkeypatch.undo()
    # row 4 has the repeated key, and so does every row with 4 as a leg
    assert reruns["coassociativity"] == sorted(reading_row(D, 4)["coassociativity"])
    assert reruns["comultiplication is an algebra map"] == [(4, 4)]


# The product-based sweeps that the sparse joins replaced, kept as the
# oracle: b_i, b_j, b_k as AlgebraElement objects, in the same order.


def _reference_assoc(H):
    n = H.dim
    for i in range(n):
        xi = H.basis_element(i)
        for j in range(n):
            xij = xi * H.basis_element(j)
            for k in range(n):
                lhs = xij * H.basis_element(k)
                rhs = xi * (H.basis_element(j) * H.basis_element(k))
                if lhs != rhs:
                    yield (i, j, k)


def _reference_unit(H):
    one = H.one()
    for i in range(H.dim):
        x = H.basis_element(i)
        if one * x != x or x * one != x:
            yield (i,)


def _reference_antipode(H):
    for i in range(H.dim):
        left = H.zero()
        right = H.zero()
        for j, k, c in H.comult[i]:
            sj = H.basis_element(j).antipode_apply()
            left = left + c * (sj * H.basis_element(k))
            sk = H.basis_element(k).antipode_apply()
            right = right + c * (H.basis_element(j) * sk)
        target = H.one().scale(H.counit[i])
        if left != target or right != target:
            yield (i,)


REFERENCE_SWEEPS = {"associativity": _reference_assoc, "unit": _reference_unit,
                    "antipode": _reference_antipode}


def sweep_failures(sweeps, H):
    """The witnesses the generator sweeps {condition: sweep} yield on H, as
    in Report.failures."""
    out = {c: list(sweep(H)) for c, sweep in sweeps.items()}
    return {c: ws for c, ws in out.items() if ws}


def reference_failures(H, conditions=tuple(REFERENCE_SWEEPS)):
    """Witnesses of the product-based sweeps, as in Report.failures."""
    return sweep_failures({c: REFERENCE_SWEEPS[c] for c in conditions}, H)


def joined_failures(H):
    """verify_hopf_axioms failures of the conditions the reference covers."""
    return {c: ws for c, ws in verify_hopf_axioms(H).failures.items()
            if c in REFERENCE_SWEEPS}


def test_generic_join_matches_product_reference():
    A = build_bismash(make_A(7, 3, 2, 1)).with_scaled_mult_entry(54, 54, 54, 2)
    C4 = group_algebra(cyclic_group(4), conductor=4).with_scaled_mult_entry(
        1, 1, 2, CycloNumber.from_rational(2))
    for bad in (A, C4):
        assert bad.mono_tables() is None
        assert joined_failures(bad) == reference_failures(bad)
    assert not verify_hopf_axioms(C4).passed
    full = joined_failures(A)
    assert len(full["associativity"]) == 8
    assert full["associativity"][0] == (28, 54, 54)
    assert full["unit"] == [(54,)] and full["antipode"] == [(0,)]


def test_unit_and_antipode_joins_match_product_reference():
    # doubled constants in the first rows of A(7,3,l=1), which is neither
    # commutative nor cocommutative: the two sides of the antipode law differ
    H = build_bismash(make_A(7, 3, 2, 1))
    for i in range(9):
        for j in sorted(H.mult[i]):
            bad = H.with_scaled_mult_entry(i, j, H.mult[i][j][0][0], 2)
            joined = sweep_failures({"unit": _check_unit_laws,
                                     "antipode": _check_antipode}, bad)
            assert joined == reference_failures(bad, ("unit", "antipode"))


def _reference_eps_algebra_map(H):
    """The counit law with eps_i eps_j multiplied for every pair absent from
    mult[i], after the pairs mult[i] lists: the oracle for the check that
    multiplies only pairs whose counit values are both nonzero."""
    eps = H.counit
    for i in range(H.dim):
        for j, terms in H.mult[i].items():
            val = CycloNumber.zero(H.conductor)
            for k, c in terms:
                val = val + c * eps[k]
            if val != eps[i] * eps[j]:
                yield (i, j)
        for j in range(H.dim):
            if j not in H.mult[i] and eps[i] * eps[j]:
                yield (i, j)


def test_eps_algebra_map_matches_pair_loop():
    """On clean hosts, on removed products (with both counit values nonzero
    and not), and on loaded dumps with a mutated EPS line: the same
    witnesses in the same order."""
    A1 = build_bismash(make_A(7, 3, 2, 1))
    B1 = build_bismash(make_B(3, 7, 2, 1))
    C3 = group_algebra(cyclic_group(3), 3)
    counit = [i for i in range(A1.dim) if A1.counit[i]]
    text = dump_structure(C3)
    eps_zeta = load_structure(text.replace("EPS 0 1 1 0\n", "EPS 0 1 0 1\n"))
    # one more EPS line: a basis element of counit 0 now has counit 1
    k = next(i for i in range(A1.dim) if not A1.counit[i])
    lines = dump_structure(A1).splitlines(keepends=True)
    last = max(n for n, line in enumerate(lines) if line.startswith("EPS"))
    lines.insert(last + 1, f"EPS {k} 1 1 0\n")
    eps_added = load_structure("".join(lines))
    hosts = [A1, B1, C3, removed_product(A1, 20, 10),
             removed_product(A1, counit[1], counit[2]),
             removed_product(B1, *next((i, j) for i in range(B1.dim) if B1.counit[i]
                                       for j in B1.mult[i] if B1.counit[j])),
             eps_zeta, eps_added]
    failing = 0
    for H in hosts:
        witnesses = list(hopfcore._check_eps_algebra_map(H))
        assert witnesses == list(_reference_eps_algebra_map(H))
        failing += bool(witnesses)
    # the clean hosts and one removed product pass, every other host fails
    assert failing == len(hosts) - 4


# ---------------------------------------------------------------------------
# antipode diagnostics


def test_diagnostics_group_algebra():
    d = antipode_diagnostics(group_algebra(semidirect_pq(7, 3, 2)))
    assert d.s2_is_id and d.s4_is_id and d.semisimple
    assert d.trace_s2 == 21


def test_diagnostics_families():
    for H, dim in ((build_bismash(make_A(7, 3, 2, 0)), 63),
                   (build_bismash(make_B(3, 7, 2, 1)), 147)):
        d = antipode_diagnostics(H)
        assert d.trace_s2 == dim
        assert d.s2_is_id and d.semisimple


# ---------------------------------------------------------------------------
# duality


def test_dual_of_cyclic_group_algebra_is_function_algebra():
    H = group_algebra(cyclic_group(3))
    D = dual_hopf(H)
    # 3 orthogonal idempotents summing to the unit
    for i in range(3):
        assert dict(D.mult[i].get(i, ())) == {i: CycloNumber.one()}
        for j in range(3):
            if j != i:
                assert not D.mult[i].get(j, ())
    assert set(D.unit) == {0, 1, 2}
    assert verify_hopf_axioms(D).passed


def test_double_dual_is_identity():
    for H in (group_algebra(semidirect_pq(7, 3, 2)),
              build_bismash(make_A(7, 3, 2, 1))):
        DD = dual_hopf(dual_hopf(H))
        assert hopf_structures_equal(H, DD)


def test_structures_equal_sums_repeated_terms():
    # a coproduct term 1 split into zeta_6 + zeta_6^5 is the same structure
    D = dual_hopf(group_algebra(semidirect_pq(7, 3, 2), 6))
    split = comult_mutant(D, 4, 2, split_one)
    assert hopf_structures_equal(D, split) and hopf_structures_equal(split, D)
    assert not hopf_structures_equal(D, comult_mutant(D, 4, 2, zeta_scaled(6)))


def test_dual_preserves_axioms():
    H = build_bismash(make_B(3, 7, 2, 1))
    assert verify_hopf_axioms(dual_hopf(H)).passed


# ---------------------------------------------------------------------------
# group-likes


def test_group_likes_of_B_duals():
    gl0 = group_likes_bismash(build_bismash(dualize_trivial_action(make_B(3, 7, 2, 0))))
    assert len(gl0) == 21
    gl1 = group_likes_bismash(build_bismash(dualize_trivial_action(make_B(3, 7, 2, 1))))
    assert len(gl1) == 3


def test_group_likes_verified_and_closed():
    mp = dualize_trivial_action(make_B(3, 7, 2, 1))
    H = build_bismash(mp)
    gl = group_likes_bismash(H)
    one = CycloNumber.one(H.conductor)
    for x in gl:
        dx = x.comult_apply()
        assert dx == {(i, j): ci * cj for i, ci in x.coeffs.items()
                      for j, cj in x.coeffs.items()}
        assert x.counit_apply() == one
    # closure and inverses come with the table; orders divide the group order
    assert sorted(gl.orders)[0] == 1
    assert all(len(gl) % o == 0 for o in gl.orders)


def test_group_likes_span_for_B0_dual():
    mp = dualize_trivial_action(make_B(3, 7, 2, 0))
    H = build_bismash(mp)
    gl = group_likes_bismash(H)
    # support lies in the span of e_(g^i) b^j  (f-part a power of b)
    F2 = mp.F
    b = F2.generators["b"]
    allowed = {H.gf_index(g, F2.power(b, j))
               for g in range(mp.G.order) for j in range(7)}
    for x in gl:
        assert set(x.coeffs) <= allowed
    rs = RowSpace()
    for x in gl:
        rs.add(dict(x.coeffs))
    assert rs.dim == 21


def test_group_likes_untwisted_counts():
    # untwisted k^G # kF with abelian G, F: |G^| * |F| group-likes
    from test_bismash import trivial_pair

    gl = group_likes_bismash(build_bismash(trivial_pair([3], [5])))
    assert len(gl) == 15


# ---------------------------------------------------------------------------
# structure dump


def test_dump_load_roundtrip_bit_exact():
    for H in (group_algebra(semidirect_pq(7, 3, 2)),
              build_bismash(make_A(7, 3, 2, 1)),
              build_bismash(make_B(3, 7, 2, 1))):
        text = dump_structure(H)
        back = load_structure(text)
        assert hopf_structures_equal(H, back)
        assert dump_structure(back) == text


def test_dump_sums_repeated_terms(tmp_path):
    # a term 1 of Delta split into zeta_6 + zeta_6^5 is one CMUL line, and a
    # pair of terms that cancels is none: the dump loads back and verifies
    from hopfqt.cli import main
    D = dual_hopf(group_algebra(semidirect_pq(7, 3, 2), 6))
    split = comult_mutant(D, 4, 2, split_one)
    keys = {(j, k) for j, k, _ in D.comult[5]}
    u, v = next((u, v) for u in range(D.dim) for v in range(D.dim)
                if (u, v) not in keys)
    cancel = comult_mutant(D, 5, 0, lambda j, k, c: [
        (j, k, c), (u, v, zeta(6)), (u, v, -zeta(6))])
    for H in (split, cancel):
        text = dump_structure(H)
        assert text == dump_structure(D)
        back = load_structure(text)
        assert hopf_structures_equal(H, back) and hopf_structures_equal(D, back)
        path = tmp_path / "dump.txt"
        path.write_text(text)
        assert main(["verify", "--in", str(path),
                     "--out", str(tmp_path / "r.json")]) == 0


def test_load_rejects_malformed():
    with pytest.raises(FormatError):
        load_structure("not a dump\n")
    H = group_algebra(cyclic_group(3))
    text = dump_structure(H)
    with pytest.raises(FormatError):
        load_structure(text.replace("END", ""))
    with pytest.raises(FormatError):
        load_structure(text.replace("MUL 1 1 2", "MUL 1 1"))

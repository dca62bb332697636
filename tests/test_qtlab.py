import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from hopfqt.exactfield import CycloNumber, RowSpace, zeta
from hopfqt.grouptool import (
    Bicharacter,
    ParameterError,
    abelian_decomposition,
    abelian_group,
    build_group,
    conjugation_map,
    cyclic_group,
    enumerate_bicharacters,
    idempotents,
    largest_abelian_normal,
    semidirect_pq,
)
from hopfqt import qtlab
from hopfqt.hopfcore import (AlgebraElement, HopfAlgebra, Report, _acc, dual_hopf,
                             group_algebra, group_likes_bismash)
from hopfqt.bismash import (BismashHopf, build_bismash, dualize_trivial_action,
                            make_A, make_B)
from hopfqt.qtlab import (
    BraidingForm,
    CertifiedR,
    IdemSupport,
    braiding_A0_construct,
    braiding_A_search,
    eta,
    exponent_form,
    hopf_images,
    no_qt_B_dual,
    qt_B_enumerate,
    qt_group_algebra_enumerate,
    t2_mul,
    unit_tensor,
    verify_coqt,
    verify_qt,
    verify_qt_certified,
    _bichar_forms,
    _delta_form_values,
    _intertwines,
    _intertwiner_sides,
    _e_r_support,
    _inverse,
    _k_index_table,
    _keys,
    _qt_B_oracle,
)

from test_grouptool import (ReferenceBicharacter, reference_bicharacters,
                            reference_conjugation_map, reference_idempotents)


# ---------------------------------------------------------------------------
# verify_qt basics


def test_trivial_r_on_group_algebra_passes():
    H = group_algebra(cyclic_group(5), conductor=5)
    rep = verify_qt(H, unit_tensor(H))
    assert rep.passed


def index_matrix(e, K):
    """(W, L): the exponent matrix of the bicharacter with generator-pair
    exponents e (a row of enumerate_bicharacters, a key or nested lists) on
    K.elements indices mod the conductor L of the bicharacters on K, as the
    enumerators build it."""
    r = len(K.orders)
    X, A, L = _bichar_forms(np.asarray(e, dtype=np.int64).reshape(1, r, r), K)
    return (X @ A[0] @ X.T) % L, L


def bichar_r(H, K, e):
    """The CertifiedR of the bicharacter with exponents e on the idempotents
    of k[K] inside the group algebra H."""
    sup = IdemSupport(H, idempotents(K), _k_index_table(K))
    return CertifiedR(sup, *index_matrix(e, K))


def test_bicharacters_on_abelian_pass():
    G = cyclic_group(3)
    H = group_algebra(G, conductor=3)
    K = abelian_decomposition(G, range(3))
    for w in reference_bicharacters(K):
        R = bichar_r(H, K, w.exps)
        assert verify_qt(H, R.entries).passed
        if not w.is_trivial():
            assert len(R.entries) == 9


def test_nontrivial_bicharacter_fails_intertwiner_on_nonabelian():
    # t^2 is not 1 mod p, so only the trivial bicharacter is invariant
    G = semidirect_pq(7, 3, 2)
    H = group_algebra(G, conductor=7)
    K = abelian_decomposition(G, G.subgroup_closure([G.generators["a"]]))
    for w in reference_bicharacters(K):
        R = bichar_r(H, K, w.exps)
        rep = verify_qt(H, R.entries)
        if w.is_trivial():
            assert rep.passed
        else:
            assert not rep.passed and "intertwiner" in rep.failures


def test_certified_r_inverse_is_inverted_values():
    G = cyclic_group(3)
    H = group_algebra(G, conductor=3)
    K = abelian_decomposition(G, range(3))
    w = next(x for x in reference_bicharacters(K) if not x.is_trivial())
    R = bichar_r(H, K, w.exps)
    Rinv = bichar_r(H, K, w.inverse().exps)
    assert t2_mul(H, R.entries, Rinv.entries) == unit_tensor(H)
    assert t2_mul(H, Rinv.entries, R.entries) == unit_tensor(H)


def test_zero_divisor_detected():
    # an idempotent tensor is its own square, never invertible
    G = cyclic_group(3)
    H = group_algebra(G, conductor=3)
    K = abelian_decomposition(G, range(3))
    e0 = reference_idempotents(K)[0]
    entries = {}
    for i, ci in e0.items():
        for j, cj in e0.items():
            entries[(i, j)] = ci * cj
    rep = verify_qt(H, entries)
    assert "invertible" in rep.failures


# ---------------------------------------------------------------------------
# group-algebra classification


GROUP_CASES = [
    ("gamma3", dict(p=7, q=3, m=2), 3),
    ("gamma4", dict(p=19, q=3, m=4), 1),
    ("gamma5", dict(p=7, q=3, m=2), 3),
    ("gamma6", dict(p=7, q=3, m=2, n=4), 3),
    ("beta3", dict(p=3, q=7, m=18), 1),
    ("beta4", dict(p=3, q=7, m=2), 7),
    ("beta5", dict(p=3, q=7, m=2), 1),
    ("beta6", dict(p=3, q=7, m=2, n=4), 49),
    ("beta7", dict(p=3, q=5), 25),
]


@pytest.mark.parametrize("fam,params,count", GROUP_CASES)
def test_group_algebra_classification(fam, params, count):
    G = build_group(fam, **params)
    res = qt_group_algebra_enumerate(G)
    assert len(res) == count
    assert res.oracle_equivalent
    assert any(w.is_trivial() for w, _ in res)


def test_group_side_builds_no_scalars_and_one_bicharacter_per_survivor(
        monkeypatch):
    """enumerate_bicharacters and conjugation_map build no CycloNumber, and
    the group enumeration builds a Bicharacter for its survivors only."""
    G = build_group("beta6", p=3, q=7, m=2, n=4)
    K = largest_abelian_normal(G)
    cyclo, bichar = [], []
    cyclo_init, bichar_init = CycloNumber.__init__, Bicharacter.__init__

    def spy_cyclo(self, *args, **kwargs):
        cyclo.append(1)
        cyclo_init(self, *args, **kwargs)

    def spy_bichar(self, *args, **kwargs):
        bichar.append(1)
        bichar_init(self, *args, **kwargs)

    monkeypatch.setattr(CycloNumber, "__init__", spy_cyclo)
    monkeypatch.setattr(Bicharacter, "__init__", spy_bichar)
    E = enumerate_bicharacters(K)
    perms = [conjugation_map(G, g, K) for g in range(G.order)]
    assert cyclo == [] and bichar == []
    assert len(E) == 7 ** 4 and len(perms) == G.order
    # the spy sees the scalars of the idempotents
    reference_idempotents(K)
    assert cyclo
    res = qt_group_algebra_enumerate(G)
    assert len(bichar) == len(res) == 49


def test_group_side_reads_integer_tables(monkeypatch):
    """qt_group_algebra_enumerate on beta6(3,7) reads no mult or comult row
    of its host; group_algebra and idempotents build no CycloNumber per
    pair of elements (one for the unit, counit and antipode); and
    IdemSupport.view calls no as_root.  Each spy is shown to see what it
    watches."""
    G = build_group("beta6", p=3, q=7, m=2, n=4)
    K = largest_abelian_normal(G)
    rows, cyclo, roots = [], [], []
    for name in ("mult", "comult"):
        real = getattr(HopfAlgebra, name)
        monkeypatch.setattr(HopfAlgebra, name, property(
            lambda self, real=real, name=name: rows.append(name) or real.fget(self)))
    cyclo_init, as_root = CycloNumber.__init__, CycloNumber.as_root

    def spy_cyclo(self, *args, **kwargs):
        cyclo.append(1)
        cyclo_init(self, *args, **kwargs)

    def spy_root(self):
        roots.append(1)
        return as_root(self)

    monkeypatch.setattr(CycloNumber, "__init__", spy_cyclo)
    monkeypatch.setattr(CycloNumber, "as_root", spy_root)
    H, f = group_algebra(G, 7), idempotents(K)
    assert len(cyclo) == 1
    sup = IdemSupport(H, f, _k_index_table(K))
    assert sup.view is not None and roots == []
    res = qt_group_algebra_enumerate(G)
    assert len(res) == 49 and rows == []
    res.host.mult, res.host.comult
    reference_idempotents(K)
    exponent_form(sup.vectors, H.conductor)
    assert rows == ["mult", "comult"] and len(cyclo) > G.order and roots


def test_tau_side_reads_integer_tables(monkeypatch):
    """qt_B_enumerate(3,7,2,1) reads no mult or comult row of its host and
    runs verify_qt_certified on no survivor: the stacked check decides them
    on the intertwiner table.  Each spy is shown to see what it watches."""
    rows, calls = [], []
    for name in ("mult", "comult"):
        real = getattr(HopfAlgebra, name)
        monkeypatch.setattr(HopfAlgebra, name, property(
            lambda self, real=real, name=name: rows.append(name) or real.fget(self)))
    verify = qtlab.verify_qt_certified
    monkeypatch.setattr(qtlab, "verify_qt_certified",
                        lambda R, conj: calls.append(R) or verify(R, conj))
    res = qt_B_enumerate(3, 7, 2, 1)
    assert len(res) == 1 and rows == [] and calls == []
    res.host.mult, res.host.comult
    (_, R), = res
    assert qtlab.verify_qt_certified(R, R.sup.conj_perms()).passed
    assert rows == ["mult", "comult"] and calls == [R]


def test_group_algebra_survivor_passes_generic_verifier():
    # the R each pair returns, not a rebuild, passes the exhaustive verifier:
    # its entries are the nonzero tensor sum w(s,t) E_s (x) E_t
    for G in (build_group("gamma5", p=7, q=3, m=2), abelian_group([3])):
        res = qt_group_algebra_enumerate(G)
        assert len(res) == 3 and res.host.dim == G.order
        for w, R in res:
            assert R.host is res.host
            assert isinstance(R, CertifiedR) and R.entries
            assert verify_qt(R.host, R.entries).passed, (G.family_tag, w)


def test_abelian_group_algebra_unconstrained():
    G = abelian_group([3, 3])
    res = qt_group_algebra_enumerate(G)
    assert len(res) == 81
    assert res.oracle_equivalent


def reference_verify_qt_certified(sup, W, L, conj_perms):
    """verify_qt_certified with one W[np.ix_(p, p)] test per conj_perms row:
    the oracle for its stacked test of the distinct rows."""
    rep = Report()
    kmul = sup.kmul
    W = np.asarray(W, dtype=np.int64)
    if not ((W[kmul] - W[:, None, :] - W[None, :, :]) % L == 0).all():
        rep.fail("coproduct identity (left)", ("first-slot multiplicativity",))
    WT = W.T
    if not ((WT[kmul] - WT[:, None, :] - WT[None, :, :]) % L == 0).all():
        rep.fail("coproduct identity (right)", ("second-slot multiplicativity",))
    entries = None
    for h, perm in enumerate(conj_perms):
        if perm is None:
            if entries is None:
                entries = qtlab.r_entries_from_support(sup, W, L)
            holds = _intertwines(sup.host, entries, h)
        else:
            p = np.asarray(perm)
            holds = ((W[np.ix_(p, p)] - W) % L == 0).all()
        if not holds:
            rep.fail("intertwiner", (h,))
    return rep


def test_group_rejections_fail_intertwiner(monkeypatch):
    # K = Z5 x Z5 in beta7(3,5): 625 bicharacters; K = Z21 in gamma3(7,3):
    # 21, also checked with rows forced onto the generic intertwiner
    check_group_rejections(monkeypatch, "beta7", dict(p=3, q=5), 25, False)
    check_group_rejections(monkeypatch, "gamma3", dict(p=7, q=3, m=2), 3, True)


def check_group_rejections(monkeypatch, fam, params, accepted, generic):
    """verify_qt_certified against the reference, witness by witness."""
    G = build_group(fam, **params)
    res = qt_group_algebra_enumerate(G)
    K = largest_abelian_normal(G)
    sup = res[0][1].sup
    conj = sup.conj_perms()
    assert None not in conj
    keys = {w.key() for w, _ in res}
    E = enumerate_bicharacters(K)
    rejected = [e for e, key in zip(E, _keys(E)) if key not in keys]
    assert len(res) == accepted and len(rejected) == len(E) - accepted

    def failures(W, L, rows):
        rep = verify_qt_certified(CertifiedR(sup, W, L), rows)
        assert rep.failures == reference_verify_qt_certified(
            sup, W, L, rows).failures
        return rep.failures

    for w in rejected:
        W, L = index_matrix(w, K)
        assert list(failures(W, L, conj)) == ["intertwiner"], w
    # Wt and 2W of an invariant bicharacter are invariant bicharacters; a
    # shifted diagonal entry (a, a) breaks both hexagons, and the intertwiner
    # at every h whose conjugation moves a
    w = next(w for w, _ in res if not w.is_trivial())
    W, L = index_matrix(w.key(), K)
    gens = sorted(set(G.generators.values()))
    p = next(conj[g] for g in gens if conj[g] != sorted(conj[g]))
    a = next(i for i, x in enumerate(p) if x != i)
    shifted = W.copy()
    shifted[a, a] += 1
    for Wm in (W.T, 2 * W):
        assert failures(Wm % L, L, conj) == {}
    assert {"coproduct identity (left)", "coproduct identity (right)",
            "intertwiner"} == set(failures(shifted % L, L, conj))
    if not generic:
        return
    # rows forced to None go through the generic intertwiner, with the same
    # verdicts; each generic R is built once, since that takes seconds
    build, built = qtlab.r_entries_from_support, {}

    def entries(sup, W, L):
        key = (np.asarray(W, dtype=np.int64).tobytes(), L)
        if key not in built:
            built[key] = build(sup, W, L)
        return built[key]

    monkeypatch.setattr(qtlab, "r_entries_from_support", entries)
    forced = list(conj)
    for h in [0, *gens, G.order - 1]:
        forced[h] = None
    W_rejected = index_matrix(rejected[0], K)[0]
    for Wm in (W, shifted % L, W_rejected):
        assert failures(Wm, L, forced) == failures(Wm, L, conj)
    # the generic intertwiner over the generators agrees with acceptance on
    # every accepted bicharacter, the trivial one included, and a sample of
    # the rejected ones
    for e, accept in ([(w.key(), True) for w, _ in res]
                      + [(e, False) for e in rejected[::6]]):
        R = CertifiedR(sup, *index_matrix(e, K))
        holds = all(_intertwines(sup.host, R.entries, g) for g in gens)
        assert holds == accept, e


# ---------------------------------------------------------------------------
# certified idempotent supports


def group_support(fam, **params):
    """The idempotents of k[K] in k[G], K the largest abelian normal
    subgroup, as qt_group_algebra_enumerate certifies them, as dicts."""
    G = build_group(fam, **params)
    K = largest_abelian_normal(G)
    H = group_algebra(G, conductor=math.lcm(1, *K.orders))
    return H, reference_idempotents(K), _k_index_table(K)


def dict_support(H, vectors, kmul):
    """The IdemSupport of idempotents given as dicts basis index ->
    CycloNumber."""
    return IdemSupport(H, exponent_form(vectors, H.conductor), kmul)


def conj_perms_by_products(H, vectors):
    """conj_perms through AlgebraElement products: the t' with
    (b_h E_t) h^-1 = E_t' for every group-like b_h with a scaled basis
    inverse, else None."""
    N = H.conductor
    one = H.one()
    (u, cu), = H.unit.items()
    idems = [AlgebraElement(H, v) for v in vectors]
    rows = []
    for h in range(H.dim):
        bh = H.basis_element(h)
        inv = None
        if bh.comult_apply() == {(h, h): CycloNumber.one(N)}:
            for j in range(H.dim):
                prod = (bh * H.basis_element(j)).coeffs
                if list(prod) == [u]:
                    cand = H.basis_element(j).scale(cu / prod[u])
                    if bh * cand == one and cand * bh == one:
                        inv = cand
                        break
        if inv is None:
            rows.append(None)
            continue
        perm = []
        for E in idems:
            conj = (bh * E) * inv
            perm.append(next((s for s, F in enumerate(idems) if F == conj), None))
        rows.append(None if None in perm else perm)
    return rows


@pytest.mark.parametrize("fam,params", [
    ("gamma3", dict(p=7, q=3, m=2)),
    ("beta7", dict(p=3, q=5)),
    ("gamma4", dict(p=19, q=3, m=4)),
])
def test_conj_perms_match_products(fam, params):
    H, vectors, kmul = group_support(fam, **params)
    rows = dict_support(H, vectors, kmul).conj_perms()
    assert None not in rows
    assert rows == conj_perms_by_products(H, vectors)


@pytest.mark.parametrize("site", [(20, 60), (41, 3), (32, 13), (4, 15)])
def test_conj_perms_match_products_on_mutants(site):
    # a zeta-scaled structure constant keeps the exponent tables; the rows
    # through h (and through h^-1) change or become None
    H, vectors, kmul = group_support("gamma3", p=7, q=3, m=2)
    i, j = site
    (k, _), = H.mult[i][j]
    Hm = H.with_scaled_mult_entry(i, j, k, zeta(H.conductor))
    rows = dict_support(Hm, vectors, kmul).conj_perms()
    expect = conj_perms_by_products(Hm, vectors)
    assert any(r is None for r in rows)
    for h in range(H.dim):
        assert rows[h] == expect[h], h


def reference_conj_perms(sup):
    """conj_perms one basis element h at a time: each conjugated row of the
    view's E matched against the rows of E by its bytes, the last equal row
    winning, and Delta(b_h) read off the coproduct rows."""
    H = sup.host
    N = H.conductor
    v = sup.view
    root = None
    if len(H.unit) == 1:
        (u, cu), = H.unit.items()
        root = cu.lift(N).as_root()
    if v is None or root is None or root[1] != 1:
        return [None] * H.dim
    mt, me = H.mono_tables()
    M, S, E = v.M, v.S, v.E
    col = np.full(H.dim, -1)
    col[S] = np.arange(len(S))
    row_of = {row.tobytes(): t for t, row in enumerate(E)}
    out = []
    for h in range(H.dim):
        terms = H.comult[h]
        group_like = (len(terms) == 1 and terms[0][:2] == (h, h)
                      and terms[0][2].is_one())
        js = np.flatnonzero(mt[h] == u)
        if not group_like or len(js) != 1:
            out.append(None)
            continue
        j = js[0]
        hx = mt[h, S]
        y = mt[hx, j]
        cols = col[y]
        if (mt[j, h] != u or (me[j, h] - me[h, j]) % N or (hx < 0).any()
                or (y < 0).any() or (cols < 0).any()
                or (np.bincount(cols) > 1).any()):
            out.append(None)
            continue
        shift = (me[h, S] + me[hx, j] + root[0] - me[h, j]) * (M // N)
        conj = np.empty_like(E)
        conj[:, cols] = np.where(E < M, (E + shift) % M, E)
        perm = [row_of.get(row.tobytes()) for row in conj]
        out.append(None if None in perm else perm)
    return out


def test_conj_perms_match_reference(monkeypatch):
    """conj_perms in one array pass gives the rows of the loop over h on
    beta6(3,7), gamma4(19,3) (also on a host of conductor 3 * 19, where the
    view lifts the terms to M = 57) and the group-like support of
    B(3,7,1)*; a view with one exponent shifted gets the loop's rows too,
    None rows among them."""
    cases = []
    for fam, params, f in (("beta6", dict(p=3, q=7, m=2, n=4), 1),
                           ("gamma4", dict(p=19, q=3, m=4), 1),
                           ("gamma4", dict(p=19, q=3, m=4), 3)):
        G = build_group(fam, **params)
        K = largest_abelian_normal(G)
        H = group_algebra(G, conductor=f * math.lcm(1, *K.orders))
        sup = IdemSupport(H, idempotents(K), _k_index_table(K))
        assert sup.certify().view.M == H.conductor
        f = sup.idems
        for a in (len(f.exp) // 3, len(f.exp) - 1):
            exp = f.exp.copy()
            exp[a] = (exp[a] + 1) % f.L
            cases.append((IdemSupport(H, f._replace(exp=exp), sup.kmul), "mutant"))
        cases.append((sup, "clean"))
    _, _, supports = _spy_no_qt_B_dual(monkeypatch, 3, 7, 2, 1)
    cases.append((supports[0], "no rows"))
    for sup, kind in cases:
        rows = sup.conj_perms()
        assert rows == reference_conj_perms(sup), kind
        assert all(type(t) is int for row in rows if row for t in row)
        nones = sum(row is None for row in rows)
        assert nones == {"clean": 0, "no rows": sup.host.dim}.get(kind, nones)
        if kind == "mutant":
            assert 0 < nones < sup.host.dim


def test_conj_perms_refuse_a_conjugation_that_merges_terms():
    """Hosts of gamma3(7,3) whose product b_h b_x2 is redirected to b_h b_x1,
    h a generator outside K: h x h^-1 is no longer one-to-one on K, so the
    row of h is None, as in the loop over h.  Without the check that the
    columns are distinct, some of these rows would be read as
    permutations."""
    G = build_group("gamma3", p=7, q=3, m=2)
    K = largest_abelian_normal(G)
    H = group_algebra(G, conductor=math.lcm(1, *K.orders))
    h, S = G.generators["t"], sorted(K.elements)
    for x1 in S[1:4]:
        for x2 in S:
            if x2 == x1:
                continue
            mult = [dict(row) for row in H.mult]
            mult[h][x2] = mult[h][x1]
            Hm = HopfAlgebra(H.dim, H.conductor, mult, H.comult, H.unit, H.counit,
                             H.antipode)
            sup = IdemSupport(Hm, idempotents(K), _k_index_table(K))
            rows = sup.conj_perms()
            assert rows[h] is None and rows == reference_conj_perms(sup), (x1, x2)


def first_failing_product(H, vectors):
    """The first (s, t), rows s ascending, with E_s E_t != delta_(s,t) E_s
    through AlgebraElement products; () when every product holds."""
    els = [AlgebraElement(H, v) for v in vectors]
    return next(((s, t) for s in range(len(els)) for t in range(len(els))
                 if (els[s] * els[t]).coeffs != (els[s].coeffs if s == t else {})),
                ())


def generic_certify(sup, bad=None):
    """The message IdemSupport.certify raises on sup, found through
    AlgebraElement products and coproducts expanded term by term, or None
    when the support certifies: the oracle for the exponent-view
    certificate, with its checks in the same order.  bad is the
    first_failing_product of the support, when the caller has it."""
    H, m, vectors = sup.host, sup.m, sup.vectors
    if bad is None:
        bad = first_failing_product(H, vectors)
    if bad:
        return "support not orthogonal idempotents at ({},{})".format(*bad)
    total = H.zero()
    for v in vectors:
        total = total + AlgebraElement(H, v)
    if total.coeffs != H.unit:
        return "support does not sum to the unit"
    if not is_group_table(sup.kmul):
        return "support index table is not a group"
    kdiv = np.argsort(sup.kmul, axis=1)
    for t in range(m):
        rhs = {}
        for t1 in range(m):
            for i, ci in vectors[t1].items():
                for j, cj in vectors[kdiv[t1, t]].items():
                    _acc(rhs, (i, j), ci * cj)
        if AlgebraElement(H, vectors[t]).comult_apply() != rhs:
            return "comultiplication does not factor over the support"
    return None


def is_group_table(table):
    """The group axioms on a multiplication table on 0..m-1, checked on
    every triple: the oracle for ``_group_generators``."""
    T = np.asarray(table)
    m = len(T)
    if any(sorted(row) != list(range(m)) for row in T.tolist()):
        return False
    if any(sorted(col) != list(range(m)) for col in T.T.tolist()):
        return False
    units = [e for e in range(m)
             if all(T[e, x] == T[x, e] == x for x in range(m))]
    # (x y) z = x (y z) for every x, y, z
    return len(units) == 1 and bool((T[T] == T[:, T]).all())


def certify_message(sup):
    """The message certify() raises on sup, None when it certifies."""
    try:
        sup.certify()
    except ValueError as exc:
        return str(exc)
    assert sup.certified
    return None


def assert_certify_matches_generic(sup, expect):
    """certify() on sup raises the message the generic oracle gives; expect
    is a fragment of it, or None for a support that certifies."""
    message = certify_message(sup)
    assert message == generic_certify(sup)
    assert message is None if expect is None else expect in message


def test_certify_rejects_broken_support_numpy():
    # the clean support is compared with the oracle in
    # test_orthogonality_certificate_matches_products
    H, vectors, kmul = group_support("gamma3", p=7, q=3, m=2)
    dict_support(H, vectors, kmul).certify()
    bad = [dict(v) for v in vectors]
    x = next(iter(bad[1]))
    bad[1][x] = bad[1][x] * zeta(H.conductor)
    kmul = np.array(kmul)
    non_group = np.where(kmul == 1, 0, kmul)
    for vecs, km, expect in ((bad, kmul, "orthogonal"),
                             (vectors, non_group, "not a group"),
                             (vectors, kmul[np.roll(np.arange(len(kmul)), 1)],
                              "does not factor")):
        assert_certify_matches_generic(dict_support(H, vecs, km), expect)


def e_r_support():
    """(H, vectors, kmul) of the basis idempotents e_r # 1 of B(3,7,2,1), as
    qt_B_enumerate certifies them."""
    mp = make_B(3, 7, 2, 1)
    sup = qtlab._e_r_support(build_bismash(mp),
                             abelian_decomposition(mp.G, range(mp.G.order)))
    return sup.host, sup.vectors, sup.kmul.copy()


def test_certify_rejects_swapped_kmul_on_e_r_support():
    # the basis idempotents e_r # 1 of B are not group-like: their
    # coproducts have one term for each pair (r1, r2) with r1 r2 = r.  Two
    # swapped entries of row 0 leave no identity and repeat entries in
    # columns 0 and 1, so the table is no group; the table relabeled by a
    # transposition that is no automorphism is a group, but not the one of
    # the support
    H, vectors, kmul = e_r_support()
    assert dict_support(H, vectors, kmul).view.M == H.conductor
    assert_certify_matches_generic(dict_support(H, vectors, kmul), None)
    sigma = np.arange(len(kmul))
    sigma[[1, 2]] = sigma[[2, 1]]
    relabeled = sigma[kmul[np.ix_(sigma, sigma)]]
    assert is_group_table(relabeled) and not np.array_equal(relabeled, kmul)
    assert_certify_matches_generic(dict_support(H, vectors, relabeled),
                                   "does not factor")
    kmul[0, [0, 1]] = kmul[0, [1, 0]]
    assert_certify_matches_generic(dict_support(H, vectors, kmul), "not a group")


def with_scaled_comult_term(H, i, k, factor):
    """A copy of H whose coproduct terms (j, k) of Delta(b_i) are multiplied
    by factor."""
    comult = list(H.comult)
    comult[i] = tuple((j, kk, c * factor if kk == k else c)
                      for j, kk, c in comult[i])
    return HopfAlgebra(H.dim, H.conductor, H.mult, comult, H.unit, H.counit,
                       H.antipode, H.labels)


def test_certify_rejects_zeta_scaled_coproduct_terms():
    """A zeta-scaled term of Delta(e_r # 1) on B(3,7,2,1), and of Delta(g)
    for a group-like g of K on gamma3(7,3): the hosts keep their exponent
    tables, and certify() rejects the factorization, as the generic oracle
    does."""
    H, vectors, kmul = e_r_support()
    i, = vectors[3]
    _, k, _ = H.comult[i][1]
    Hm = with_scaled_comult_term(H, i, k, zeta(H.conductor))
    G, gvectors, gkmul = group_support("gamma3", p=7, q=3, m=2)
    g = max(gvectors[0])
    Gm = with_scaled_comult_term(G, g, g, zeta(G.conductor))
    for host, vecs, km in ((Hm, vectors, kmul), (Gm, gvectors, gkmul)):
        sup = dict_support(host, vecs, km)
        assert sup.view is not None
        assert_certify_matches_generic(sup, "does not factor")


@pytest.mark.parametrize("fam,params", [
    ("gamma3", dict(p=7, q=3, m=2)),
    ("gamma4", dict(p=19, q=3, m=4)),
])
def test_orthogonality_certificate_matches_products(fam, params):
    # the product loop is quartic in the number of idempotents, so the
    # supports are the two smallest of the catalog (21 and 19 idempotents)
    H, vectors, kmul = group_support(fam, **params)
    scaled = [dict(v) for v in vectors]
    scaled[2] = {x: c * zeta(H.conductor) for x, c in scaled[2].items()}
    swapped = list(vectors)
    swapped[1], swapped[2] = swapped[2], swapped[1]
    summed = list(vectors)
    summed[1] = dict(vectors[1])
    for x, c in vectors[2].items():
        _acc(summed[1], x, c)
    for vecs, expect in ((vectors, True), (scaled, False), (swapped, True),
                         (summed, False)):
        bad = first_failing_product(H, vecs)
        assert (bad == ()) is expect
        sup = dict_support(H, vecs, kmul)
        if vecs is summed:
            # E_1 + E_2 has coefficients that are no scaled roots of unity:
            # the support has no view, and certify() refuses it
            assert sup.view is None
            with pytest.raises(ValueError, match="no exponent view"):
                sup.certify()
        else:
            # the view decides: () on a good support, else the first
            # failing (s, t) of the product loop
            assert sup._first_nonorthogonal() == bad
            assert certify_message(sup) == generic_certify(sup, bad)


def test_orthogonality_failure_has_the_same_witness_on_both_paths():
    # E_2 scaled by zeta first fails at (2, 2); one scaled coefficient of
    # E_2 makes every E_s E_2 nonzero, so row 0 fails first, at (0, 2)
    H, vectors, kmul = group_support("gamma3", p=7, q=3, m=2)
    whole = [dict(v) for v in vectors]
    whole[2] = {x: c * zeta(H.conductor) for x, c in vectors[2].items()}
    one = [dict(v) for v in vectors]
    x0 = min(one[2])
    one[2][x0] = one[2][x0] * zeta(H.conductor)
    for vecs, witness in ((whole, (2, 2)), (one, (0, 2))):
        sup = dict_support(H, vecs, kmul)
        assert sup._first_nonorthogonal() == witness
        s, t = witness
        message = f"support not orthogonal idempotents at ({s},{t})"
        assert certify_message(sup) == generic_certify(sup) == message


def test_certify_memory_on_beta6():
    # the orthogonality products are built one row of the m x m table at a
    # time; broadcast over all (s, t) at once they would take 117 MB
    import tracemalloc
    H, vectors, kmul = group_support("beta6", p=3, q=7, m=2, n=4)
    H.mono_tables()
    sup = dict_support(H, vectors, kmul)
    tracemalloc.start()
    try:
        sup.certify()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sup.certified
    assert peak < 20 * 2**20, peak


CERTIFY_UNDER_O = """
import math
from hopfqt.grouptool import build_group, idempotents, largest_abelian_normal
from hopfqt.hopfcore import group_algebra
from hopfqt.qtlab import IdemSupport, _k_index_table, exponent_form

G = build_group("gamma3", p=7, q=3, m=2)
K = largest_abelian_normal(G)
H = group_algebra(G, conductor=math.lcm(1, *K.orders))
vectors = IdemSupport(H, idempotents(K), _k_index_table(K)).vectors
mixed = [vectors[0], {i: c * 2 for i, c in vectors[1].items()}, *vectors[2:]]
for vecs in (vectors, mixed):
    sup = IdemSupport(H, exponent_form(vecs, H.conductor), _k_index_table(K))
    try:
        print("certified", sup.certify().view.scale)
    except ValueError as exc:
        print("ValueError:", exc, sup.view)
"""


def test_view_premises_hold_under_optimize():
    """The premise checks of the exponent view are not assert statements:
    under python -O a support whose coefficients have two rational parts
    (one idempotent doubled) has no view and certify() still raises."""
    env = dict(os.environ, PYTHONPATH=str(Path(qtlab.__file__).parents[1]))
    runs = [subprocess.run([sys.executable, *flags, "-c", CERTIFY_UNDER_O],
                           env=env, capture_output=True, text=True, check=True)
            for flags in ([], ["-O"])]
    assert runs[1].stdout == runs[0].stdout
    assert runs[0].stdout.splitlines() == [
        "certified 1/21",
        "ValueError: support has no exponent view on this host None"]


ENUMERATE_GAMMA5 = """
import sys
from hopfqt.grouptool import build_group
from hopfqt.qtlab import qt_group_algebra_enumerate
print(len(qt_group_algebra_enumerate(build_group("gamma5", p=7, q=3, m=2))))
print("numpy.ma" in sys.modules)
"""


def test_group_enumeration_does_not_import_numpy_ma():
    """A 1-D np.unique imports numpy.ma on its first call; the conjugacy
    classes and conj_perms count with bincount instead."""
    env = dict(os.environ, PYTHONPATH=str(Path(qtlab.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", ENUMERATE_GAMMA5], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.splitlines() == ["3", "False"]


def test_every_certified_support_goes_through_the_view(monkeypatch):
    """certify() has one path: every support that the group-algebra and
    tau-twisted enumerations and the B-dual no-go certify has an exponent
    view, and both certificates read it."""
    certified, ran = [], []
    real = {name: getattr(IdemSupport, name)
            for name in ("certify", "_first_nonorthogonal", "_factors")}

    def spy_certify(self):
        certified.append(self)
        return real["certify"](self)

    def spy(name):
        def check(self, *args):
            ran.append((name, id(self)))
            return real[name](self, *args)
        return check

    monkeypatch.setattr(IdemSupport, "certify", spy_certify)
    for name in ("_first_nonorthogonal", "_factors"):
        monkeypatch.setattr(IdemSupport, name, spy(name))
    for fam, params in (("beta6", dict(p=3, q=7, m=2, n=4)),
                        ("beta7", dict(p=3, q=5)),
                        ("gamma4", dict(p=19, q=3, m=4))):
        qt_group_algebra_enumerate(build_group(fam, **params))
    for lam in (0, 1):
        qt_B_enumerate(3, 7, 2, lam)
    no_qt_B_dual(3, 7, 2, 1)
    monkeypatch.undo()
    sups = list({id(sup): sup for sup in certified}.values())
    assert [(sup.host.dim, sup.m, sup.view.M) for sup in sups] == [
        (147, 49, 7), (75, 25, 5), (171, 19, 19), (147, 49, 7), (147, 49, 7),
        (147, 3, 21)]
    for sup in sups:
        assert sup.certified
        assert [name for name, i in ran if i == id(sup)] == [
            "_first_nonorthogonal", "_factors"]


def reference_index_matrix(w, K):
    """index_matrix built generator pair by generator pair."""
    L = w.conductor
    r = len(K.orders)
    if r == 0:
        return np.zeros((1, 1), dtype=np.int64), L
    X = np.array([K.exponent_of(x) for x in K.elements], dtype=np.int64)
    A = np.zeros((r, r), dtype=np.int64)
    for i in range(r):
        for j in range(r):
            o = math.gcd(K.orders[i], K.orders[j])
            A[i, j] = (w.exps[i][j] % o) * (L // o)
    return (X @ A @ X.T) % L, L


def reference_closed_form_survivors(G, ws, K):
    """closed_form_survivors with one index matrix per ReferenceBicharacter
    and the permutations of reference_conjugation_map."""
    gen_names, pair_words = qtlab._CLOSED_FORM[G.family_tag]
    pos = {x: i for i, x in enumerate(K.elements)}
    conds = []
    for gname in gen_names:
        perm = reference_conjugation_map(G, G.generators[gname], K)
        for xw, yw in pair_words:
            ix = pos[qtlab._closed_form_element(G, xw)]
            iy = pos[qtlab._closed_form_element(G, yw)]
            conds.append(((perm[ix], perm[iy]), (ix, iy)))
    out = []
    for w in ws:
        W, L = reference_index_matrix(w, K)
        if all((int(W[a1, b1]) - int(W[a2, b2])) % L == 0
               for (a1, b1), (a2, b2) in conds):
            out.append(w)
    return out


@pytest.mark.parametrize("fam,params", [
    ("beta3", dict(p=3, q=7, m=18)),
    ("beta4", dict(p=3, q=7, m=2)),
    ("beta5", dict(p=3, q=7, m=2)),
    ("beta6", dict(p=3, q=7, m=2, n=4)),
    ("beta7", dict(p=3, q=5)),
    ("gamma3", dict(p=7, q=3, m=2)),
    ("gamma4", dict(p=19, q=3, m=4)),
    ("gamma5", dict(p=7, q=3, m=2)),
    ("gamma6", dict(p=7, q=3, m=2, n=4)),
])
def test_closed_form_survivors_match_reference(fam, params):
    G = build_group(fam, **params)
    assert G.family_tag in qtlab._CLOSED_FORM
    K = largest_abelian_normal(G)
    E = enumerate_bicharacters(K)
    ws = reference_bicharacters(K)
    for e, w in list(zip(E, ws))[::7]:
        W, L = index_matrix(e, K)
        W0, L0 = reference_index_matrix(w, K)
        assert L == L0 and np.array_equal(W, W0)
    got = qtlab.closed_form_survivors(G, E, K)
    assert _keys(got) == [
        w.key() for w in reference_closed_form_survivors(G, ws, K)]
    assert 0 < len(got) < len(E)


def test_bichar_index_matrix_on_trivial_group():
    # K = G = 1: no generators, one bicharacter, the zero 1x1 matrix
    G = build_group("cyclic", n=1)
    K = abelian_decomposition(G, range(G.order))
    e, = enumerate_bicharacters(K)
    w, = reference_bicharacters(K)
    W, L = index_matrix(e, K)
    W0, L0 = reference_index_matrix(w, K)
    assert L == L0 == 1 and np.array_equal(W, W0)
    res = qt_group_algebra_enumerate(G)
    assert [v.key() for v, _ in res] == [w.key()]
    assert res.invariant_keys == res.closed_form_keys == {w.key()}


# ---------------------------------------------------------------------------
# generator shortcuts of the group-algebra enumeration and their oracles


NONABELIAN_CASES = [(fam, params) for fam, params, _ in GROUP_CASES]


def loop_invariant_keys(ws, K, perms):
    """Keys of the ReferenceBicharacters w with W[p, p] = W mod L for every
    p in perms, one exponent matrix at a time: the oracle for the generator
    conditions of qtlab._invariant_mask."""
    keys = set()
    for w in ws:
        W, L = index_matrix(w.exps, K)
        if all(((W[np.ix_(p, p)] - W) % L == 0).all()
               for p in map(np.asarray, perms)):
            keys.add(w.key())
    return keys


@pytest.mark.parametrize("fam,params", NONABELIAN_CASES)
def test_invariance_conditions_match_per_matrix_loop(fam, params, monkeypatch):
    """The invariant bicharacters found on generator pairs are those of the
    per-matrix loop, on every nonabelian catalog family at its smallest
    primes; with every permutation sent to the all-pairs fallback the keys
    stay the same."""
    G = build_group(fam, **params)
    res = qt_group_algebra_enumerate(G)
    K = largest_abelian_normal(G)
    sup = res[0][1].sup
    conj = sup.conj_perms()
    perms = [conj[g] for g in sorted(set(G.generators.values()))]
    assert all(qtlab._respects(np.asarray(p), sup.kmul) for p in perms)
    ws = reference_bicharacters(K)
    assert res.invariant_keys == loop_invariant_keys(ws, K, perms)
    monkeypatch.setattr(qtlab, "_respects", lambda perm, kmul: False)
    again = qt_group_algebra_enumerate(G)
    assert again.invariant_keys == res.invariant_keys
    assert [w.key() for w, _ in again] == [w.key() for w, _ in res]


def test_invariance_fallback_on_permutations_that_are_no_automorphism():
    """A permutation that does not respect kmul gets every pair as a
    condition: the mask equals the per-matrix loop, where the generator
    pairs alone would accept more."""
    G = build_group("beta7", p=3, q=5)
    K = largest_abelian_normal(G)
    E = enumerate_bicharacters(K)
    ws = reference_bicharacters(K)
    kmul = np.array(_k_index_table(K))
    gens = qtlab._group_generators(kmul)
    forms = _bichar_forms(E, K)
    rng = np.random.default_rng(17)
    swap = np.arange(len(kmul))
    swap[gens[1:]] = swap[gens[1:][::-1]]
    # fixes the generators, moves the rest
    fixing = np.arange(len(kmul))
    rest = np.setdiff1d(fixing, gens)
    fixing[rest] = rng.permutation(rest)
    for perm in (swap, fixing, rng.permutation(len(kmul))):
        assert not qtlab._respects(perm, kmul)
        mask = qtlab._invariant_mask(forms, [perm], kmul, gens)
        assert set(_keys(E[mask])) == loop_invariant_keys(ws, K, [perm])
    # the generator pairs alone cannot see that fixing moves the rest
    assert qtlab._sieve(forms, np.array([
        (fixing[x], fixing[y], x, y, 0) for x in gens for y in gens]), 1).all()
    assert qtlab._invariant_mask(forms, [fixing], kmul, gens).sum() < len(E)


def test_braiding_restriction_premise_matches_per_matrix_loop():
    # the conjugation by b on <a> in the sigma-twisted group: only the
    # trivial bicharacter is invariant
    G = make_A(7, 3, 2, 1).G
    dec = abelian_decomposition(G, G.subgroup_closure([G.generators["a"]]))
    perm = conjugation_map(G, G.generators["b"], dec)
    E = enumerate_bicharacters(dec)
    ws = reference_bicharacters(dec)
    kmul = np.array(_k_index_table(dec))
    mask = qtlab._invariant_mask(_bichar_forms(E, dec), [perm], kmul,
                                 qtlab._group_generators(kmul))
    keys = set(_keys(E[mask]))
    assert keys == loop_invariant_keys(ws, dec, [perm])
    assert [w.is_trivial() for w in ws if w.key() in keys] == [True]


LOOP5 = [[0, 1, 2, 3, 4],
         [1, 0, 3, 4, 2],
         [2, 4, 0, 1, 3],
         [3, 2, 4, 0, 1],
         [4, 3, 1, 2, 0]]


def test_k_index_table_matches_per_pair_products():
    """The gathered index table of K equals the one from a G.mul call per
    pair of elements, entry by entry, as nested lists of ints."""
    Ks = [largest_abelian_normal(G) for G in (
        build_group("beta6", p=3, q=7, m=2, n=4), build_group("gamma4", p=19, q=3, m=4),
        make_A(7, 3, 2, 1).G)]
    Ks += [abelian_decomposition(G, range(G.order))
           for G in (cyclic_group(1), abelian_group([3, 9]))]
    for K in Ks:
        G = K.group
        pos = {x: i for i, x in enumerate(K.elements)}
        oracle = [[pos[G.mul(a, b)] for b in K.elements] for a in K.elements]
        table = _k_index_table(K)
        assert table == oracle
        assert all(type(x) is int for row in table for x in row)


def test_group_check_rejects_a_non_associative_loop():
    """Every row and column of LOOP5 is a permutation and 0 is an identity,
    but x x = 0 for all x, which no group of order 5 has.  certify() calls it
    no group, as the oracle checking every triple does; before its columns,
    identity and associativity were checked it passed as a group."""
    loop = np.array(LOOP5)
    assert sorted(map(sorted, loop.tolist())) == [list(range(5))] * 5
    assert sorted(map(sorted, loop.T.tolist())) == [list(range(5))] * 5
    assert not is_group_table(loop)
    assert qtlab._group_generators(loop) is None
    G = cyclic_group(5)
    K = abelian_decomposition(G, range(5))
    H = group_algebra(G, conductor=5)
    assert_certify_matches_generic(IdemSupport(H, idempotents(K), loop),
                                   "not a group")
    assert_certify_matches_generic(
        IdemSupport(H, idempotents(K), _k_index_table(K)), None)


def test_group_generators_match_the_group_axioms():
    """_group_generators against the triple-by-triple oracle on group tables,
    their isotopes (rows and columns permuted) and single swapped entries;
    on a group its list starts at the identity and generates the table."""
    rng = np.random.default_rng(5)
    tables = [np.array(LOOP5)]
    for G in (cyclic_group(1), cyclic_group(5), abelian_group([3, 3]),
              abelian_group([2, 4]), cyclic_group(9)):
        tables.append(np.array(_k_index_table(abelian_decomposition(G, range(G.order)))))
    G = build_group("gamma3", p=7, q=3, m=2)
    tables.append(np.array(G.table))
    for T in list(tables):
        m = len(T)
        tables.append(T[rng.permutation(m)][:, rng.permutation(m)])
        if m > 2:
            U = T.copy()
            U[0, [1, 2]] = U[0, [2, 1]]
            tables.append(U)
    verdicts = []
    for T in tables:
        gens = qtlab._group_generators(T)
        verdicts.append(gens is not None)
        assert verdicts[-1] == is_group_table(T)
        if gens is not None:
            assert (T[gens[0]] == np.arange(len(T))).all()
            span = {gens[0]}
            while True:
                grown = span | {int(T[x, y]) for x in span for y in gens}
                if grown == span:
                    break
                span = grown
            assert span == set(range(len(T)))
            assert 2 ** (len(gens) - 1) <= len(T)
    assert 6 < sum(verdicts) < len(tables)


def test_generator_hexagons_match_the_cubic_check():
    """_multiplicative on the generators of the support group against the
    m^3 broadcast of the reference verifier, witness by witness: seeded
    single-entry mutants of survivors, and an exponent matrix that is
    multiplicative along some generators and not along the others."""
    rng = random.Random(11)
    for fam, params in (("beta7", dict(p=3, q=5)), ("gamma3", dict(p=7, q=3, m=2))):
        G = build_group(fam, **params)
        res = qt_group_algebra_enumerate(G)
        sup = res[0][1].sup
        conj = sup.conj_perms()
        K = largest_abelian_normal(G)
        for _ in range(12):
            w, _ = rng.choice(res)
            W, L = index_matrix(w.key(), K)
            s, t = rng.randrange(sup.m), rng.randrange(sup.m)
            W[s, t] = (W[s, t] + 1 + rng.randrange(L - 1)) % L
            for M in (W, W.T.copy()):
                rep = verify_qt_certified(CertifiedR(sup, M, L), conj)
                assert not rep.passed
                assert rep.failures == reference_verify_qt_certified(
                    sup, M, L, conj).failures
        # W = w + d x_j^2 in the exponent coordinates x of K: additive along
        # the generators with x_j = 0 only
        X = np.array([K.exponent_of(x) for x in K.elements], dtype=np.int64)
        w = next(w for w, _ in res if not w.is_trivial())
        W, L = index_matrix(w.key(), K)
        j = len(K.orders) - 1
        bent = (W + (L // K.orders[j]) * X[:, j:j + 1] ** 2) % L
        along = [g for g in sup.gens if X[g, j] == 0]
        assert 0 < len(along) < len(sup.gens)
        assert qtlab._multiplicative(bent, sup.kmul, L, along)
        for M in (bent, bent.T.copy()):
            assert not qtlab._multiplicative(M, sup.kmul, L, sup.gens)
            assert verify_qt_certified(CertifiedR(sup, M, L), conj).failures == \
                reference_verify_qt_certified(sup, M, L, conj).failures


def test_stacked_check_matches_per_survivor_verifier():
    """_stack_passes on the survivors' exponent matrices, with one replaced
    by a mutant, rejects exactly the mutants that verify_qt_certified
    rejects: seeded single-entry shifts and a bicharacter the sieve drops
    are rejected, the transpose and the double of an invariant bicharacter
    accepted.  On the abelian beta1(3,5), where every conjugation is the
    identity, w with two columns (rows) swapped is a character in its
    first (second) slot only, and fails just the other hexagon.  On the
    tau-twisted host B(3,7,2,0), whose conj_perms rows are all None and
    read off the intertwiner table, a stack with a seeded single-entry
    shift, the transpose or the double of a survivor fails, and
    verify_qt_certified rejects that matrix and passes every other."""
    rng = random.Random(23)
    verdicts = []
    for fam, params in (("beta7", dict(p=3, q=5)), ("gamma3", dict(p=7, q=3, m=2)),
                        ("beta6", dict(p=3, q=7, m=2, n=4)), ("beta1", dict(p=3, q=5))):
        G = build_group(fam, **params)
        res = qt_group_algebra_enumerate(G)
        sup, L = res[0][1].sup, res[0][1].L
        conj = sup.conj_perms()
        perms, which = qtlab._distinct_perms(conj, sup.m)
        Ws = np.stack([R.W for _, R in res])
        assert qtlab._stack_passes(Ws, sup, L, perms, which)
        K = (abelian_decomposition(G, range(G.order)) if G.is_abelian()
             else largest_abelian_normal(G))
        keys = {w.key() for w, _ in res}
        E = enumerate_bicharacters(K)
        w = next(R.W for v, R in res if not v.is_trivial())
        mutants = [w.T, 2 * w]
        if G.is_abelian():
            swap = np.arange(sup.m)
            swap[[1, 2]] = swap[[2, 1]]
            mutants += [w[:, swap], w[swap]]
        else:
            mutants.append(index_matrix(
                next(e for e, key in zip(E, _keys(E)) if key not in keys), K)[0])
        for _ in range(8):
            Wm = rng.choice(res)[1].W.copy()
            s, t = rng.randrange(sup.m), rng.randrange(sup.m)
            Wm[s, t] += 1 + rng.randrange(L - 1)
            mutants.append(Wm)
        for Wm in mutants:
            rep = verify_qt_certified(CertifiedR(sup, Wm, L), conj)
            stack = Ws.copy()
            stack[rng.randrange(len(stack))] = Wm % L
            assert qtlab._stack_passes(stack, sup, L, perms, which) == rep.passed, fam
            verdicts.append((fam, list(rep.failures)))
    assert [v for v in verdicts if not v[1]] == [(fam, []) for fam in (
        "beta7", "beta7", "gamma3", "gamma3", "beta6", "beta6", "beta1", "beta1")]
    assert verdicts[-10:-8] == [("beta1", ["coproduct identity (right)"]),
                                ("beta1", ["coproduct identity (left)"])]
    assert len(verdicts) == 45

    res = qt_B_enumerate(3, 7, 2, 0)
    sup, L = res[0][1].sup, res[0][1].L
    conj = sup.conj_perms()
    perms, which = qtlab._distinct_perms(conj, sup.m)
    assert len(perms) == 0 and set(which) == {-1}
    Ws = np.stack([R.W for _, R in res])
    assert len(Ws) == 7 and qtlab._stack_passes(Ws, sup, L, perms, which)
    w = next(R.W for v, R in res if not v.is_trivial())
    failed = []
    for Wm in [w.T, 2 * w] + [None] * 6:
        if Wm is None:
            Wm = rng.choice(res)[1].W.copy()
            Wm[rng.randrange(sup.m), rng.randrange(sup.m)] += 1 + rng.randrange(L - 1)
        k = rng.randrange(len(Ws))
        stack = Ws.copy()
        stack[k] = Wm % L
        assert not qtlab._stack_passes(stack, sup, L, perms, which)
        reps = [verify_qt_certified(CertifiedR(sup, W, L), conj) for W in stack]
        assert [r.passed for r in reps] == [c != k for c in range(len(stack))]
        failed.append(set(reps[k].failures))
    assert failed[:2] == [{INTERTWINER}, {INTERTWINER}]
    assert all(LEFT in f and RIGHT in f for f in failed[2:])


def test_failing_survivor_reruns_the_per_survivor_verifier(monkeypatch):
    """With the invariance sieve switched off, the stacked check fails and
    verify_qt_certified reruns on the survivors in order, raising at the
    first that fails."""
    calls = []
    real = qtlab.verify_qt_certified

    def spy(R, conj_perms):
        rep = real(R, conj_perms)
        calls.append(rep.passed)
        return rep

    monkeypatch.setattr(qtlab, "_invariant_mask",
                        lambda forms, *args: np.ones(len(forms[1]), dtype=bool))
    monkeypatch.setattr(qtlab, "verify_qt_certified", spy)
    with pytest.raises(AssertionError, match="survivor failed verify_qt_certified"):
        qt_group_algebra_enumerate(build_group("beta7", p=3, q=5))
    assert calls and calls[-1] is False and all(calls[:-1])


def test_distinct_permutations_once_per_support(monkeypatch):
    """The group enumeration finds the distinct conj_perms rows once: one
    np.unique for the 25 survivors of beta7(3,5).  verify_qt_certified
    finds them on each call, with the verdicts of the reference."""
    calls = []
    unique = np.unique

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", spy)
    res = qt_group_algebra_enumerate(build_group("beta7", p=3, q=5))
    monkeypatch.undo()
    assert len(res) == 25 and len(calls) == 1
    # Z7 in Z7 x| Z3, small enough for the generic R of the None rows
    G = semidirect_pq(7, 3, 2)
    K = abelian_decomposition(G, G.subgroup_closure([G.generators["a"]]))
    sup = IdemSupport(group_algebra(G, conductor=7), idempotents(K),
                      _k_index_table(K)).certify()
    conj = sup.conj_perms()
    forced = list(conj)
    for h in sorted(set(G.generators.values())):
        forced[h] = None
    w = next(w for w in reference_bicharacters(K) if not w.is_trivial())
    for rows in (conj, forced, conj, [list(p) for p in conj]):
        for W in (np.zeros((7, 7), dtype=np.int64), index_matrix(w.exps, K)[0]):
            assert verify_qt_certified(CertifiedR(sup, W, 7), rows).failures == \
                reference_verify_qt_certified(sup, W, 7, rows).failures


def view_certify_message(sup, monkeypatch):
    """The message certify() raises on a fresh copy of sup with the
    character certificate switched off, None when it certifies."""
    with monkeypatch.context() as mp:
        mp.setattr(IdemSupport, "_characters", False)
        return certify_message(IdemSupport(sup.host, sup.idems, sup.kmul))


@pytest.mark.parametrize("fam,params", NONABELIAN_CASES + [
    ("beta1", dict(p=3, q=5)), ("beta2", dict(p=3, q=5))])
def test_character_certificate_matches_view_certificate(fam, params, monkeypatch):
    """Every group support of the catalog meets the character premises and
    certifies, as on the sums of roots of the view."""
    G = build_group(fam, **params)
    K = (abelian_decomposition(G, range(G.order)) if G.is_abelian()
         else largest_abelian_normal(G))
    H = group_algebra(G, conductor=math.lcm(1, *K.orders))
    sup = IdemSupport(H, idempotents(K), _k_index_table(K))
    assert sup._characters
    assert certify_message(sup) is None
    assert view_certify_message(sup, monkeypatch) is None


def test_character_certificate_falls_back_on_unmet_premises(monkeypatch):
    """Mutants of the gamma3(7,3) support that each break one premise of the
    character certificate: the view certificate decides, with the verdict
    and message of the generic oracle."""
    H, vectors, kmul = group_support("gamma3", p=7, q=3, m=2)
    z = zeta(H.conductor)
    clean = dict_support(H, vectors, kmul)
    assert clean._characters and certify_message(clean) is None

    def scaled(vecs, t, factor, only=None):
        out = [dict(v) for v in vecs]
        out[t] = {x: c * factor if only in (None, x) else c
                  for x, c in out[t].items()}
        return out

    # b_g E_t: the support is the coset g K, not closed under the product
    g = next(x for x in range(H.dim) if x not in vectors[0])
    coset = [{H.mult[g][x][0][0]: c for x, c in v.items()} for v in vectors]
    Hm = with_scaled_comult_term(H, max(vectors[0]), max(vectors[0]), z)
    # the last two keep products of the clean support, which
    # test_orthogonality_certificate_matches_products finds orthogonal; the
    # oracle is told so (bad=()) rather than multiply them all again
    mutants = [
        ("non-homomorphic row", H, scaled(vectors, 1, z, min(vectors[1])), kmul,
         "orthogonal", None),
        ("two equal rows", H, [vectors[0], vectors[1], vectors[1], *vectors[3:]],
         kmul, "orthogonal", None),
        ("wrong scale", H, [{x: 2 * c for x, c in v.items()} for v in vectors],
         kmul, "orthogonal", None),
        ("support not closed", H, coset, kmul, "orthogonal", None),
        ("m < |S|", H, vectors[:-1], np.array(kmul)[:-1, :-1], "unit", ()),
        ("non-group-like element", Hm, vectors, kmul, "does not factor", ()),
    ]
    for name, host, vecs, km, expect, bad in mutants:
        sup = dict_support(host, vecs, km)
        assert sup.view is not None, name
        # the orthogonality and completeness shortcut applies only where its
        # premises hold: on the host whose Delta(b_g) is zeta b_g (x) b_g
        assert sup._characters == (host is Hm), name
        message = certify_message(sup)
        assert expect in message, (name, message)
        assert message == generic_certify(sup, bad), name
        assert message == view_certify_message(sup, monkeypatch), name


def test_non_character_supports_still_certify(monkeypatch):
    """The basis idempotents e_r # 1 of B(3,7,2,1) and the group-like
    idempotents of B(3,7,1)* (a monomial view at M = 21 on a conductor-7
    host) are no characters of a group of basis elements: they certify on
    the view."""
    H, vectors, kmul = e_r_support()
    _, _, supports = _spy_no_qt_B_dual(monkeypatch, 3, 7, 2, 1)
    dual = supports[0]
    for sup, M in ((dict_support(H, vectors, kmul), H.conductor),
                   (IdemSupport(dual.host, dual.idems, dual.kmul), 21)):
        assert sup.view.M == M
        assert not sup._characters
        assert certify_message(sup) is None


@pytest.mark.parametrize("fam,count", [("beta1", 75), ("beta2", 1875)])
def test_abelian_families_at_3_5(fam, count):
    """Every bicharacter on G is a quasitriangular structure on k[G] for the
    abelian families: the enumeration computes the count that reproduce
    reports."""
    from hopfqt import cli
    G = build_group(fam, p=3, q=5)
    res = qt_group_algebra_enumerate(G)
    K = abelian_decomposition(G, range(G.order))
    assert len(res) == cli._abelian_bicharacter_count(K.orders) == count
    assert res.oracle_equivalent
    assert any(w.is_trivial() for w, _ in res)


# ---------------------------------------------------------------------------
# eta and the tau-twisted enumeration


def test_eta_values():
    mp = make_B(3, 7, 2, 1)
    a, b = mp.G.generators["a"], mp.G.generators["b"]
    assert eta(mp, a, b, 1) == zeta(7, -1)
    for h in range(0, 49, 5):
        for f in range(3):
            assert eta(mp, h, h, f).is_one()


def test_eta_is_bicharacter_on_G():
    mp = make_B(3, 7, 2, 1)
    G = mp.G
    for f in range(mp.F.order):
        for x in (1, 7, 8):
            for y in (1, 7, 9):
                for z in (2, 10):
                    assert eta(mp, G.mul(x, y), z, f) == \
                        eta(mp, x, z, f) * eta(mp, y, z, f)
                    assert eta(mp, x, G.mul(y, z), f) == \
                        eta(mp, x, y, f) * eta(mp, x, z, f)


def cyclonumber_B_conditions(mp, m, lam, ws):
    """Keys of the ReferenceBicharacters meeting the four printed generator
    conditions, evaluated on CycloNumber values one bicharacter at a time:
    the oracle of the integer filter ``_B_condition_keys``."""
    G = mp.G
    a, b = G.generators["a"], G.generators["b"]
    am, bml = G.power(a, m), G.power(b, m ** lam)

    def cond(w):
        return (w.value(a, a) == w.value(am, am)
                and w.value(a, b) == w.value(am, bml) * eta(mp, am, bml, 1)
                and w.value(b, a) == w.value(bml, am) * eta(mp, bml, am, 1)
                and w.value(b, b) == w.value(bml, bml))

    return {w.key() for w in ws if cond(w)}


@pytest.mark.parametrize("lam", [0, 1])
def test_B_condition_filter_matches_cyclonumber_conditions(lam):
    m = 2
    mp = make_B(3, 7, m, lam)
    G = mp.G
    dec = abelian_decomposition(G, range(G.order))
    E = enumerate_bicharacters(dec)
    ws = reference_bicharacters(dec)
    forms = _bichar_forms(E, dec)
    a, b = G.generators["a"], G.generators["b"]
    am, bml = G.power(a, m), G.power(b, m ** lam)
    # tau scaled where eta(a^m, b^(m^lam)) reads it, and where no condition does
    pairs = [mp, mp.with_tau_scaled(am, bml, 1, 1), mp.with_tau_scaled(bml, am, 1, 3),
             mp.with_tau_scaled(a, b, 1, 1)]
    keys = [qtlab._B_condition_keys(x, m, lam, E, dec, forms) for x in pairs]
    assert keys == [cyclonumber_B_conditions(x, m, lam, ws) for x in pairs]
    assert keys[1] != keys[0] != keys[2] and keys[3] == keys[0]
    assert keys[0] == qt_B_enumerate(3, 7, m, lam).filter_keys


def test_qt_B_counts_and_oracle():
    res0 = qt_B_enumerate(3, 7, 2, 0)
    assert len(res0) == 7 and res0.oracle_equivalent
    res1 = qt_B_enumerate(3, 7, 2, 1)
    assert len(res1) == 1 and res1.oracle_equivalent
    # the twisted coproduct is never cocommutative, so even the trivial
    # bicharacter fails: R = 1x1 is not among the survivors
    assert not any(w.is_trivial() for w, _ in res0)
    assert not any(w.is_trivial() for w, _ in res1)


def reference_qt_B_oracle(H, dec, E):
    """_qt_B_oracle through Python loops over the mult rows: both sides of
    Delta-op(g) R = R Delta(g), templated once per host from the Delta(g)
    terms and the idempotent columns each mult row meets."""
    N = H.conductor
    mt, me = H.mono_tables()
    g_embedded = H.embed_f(1)
    dg = g_embedded.comult_apply()          # Delta(g), real comult
    idem_ids = {H.gf_index(r, 0): ri for ri, r in enumerate(dec.elements)}

    # LHS: Delta-op(g) * R; the join hits exactly one idempotent column in
    # each mult row, so each output coordinate carries one w-slot
    dg_op = {(k, j): c for (j, k), c in dg.items()}
    lcoords, lfix, lw1, lw2 = [], [], [], []
    for (i, j), c in dg_op.items():
        ks = [k for k in H.mult[i] if k in idem_ids]
        ls = [l for l in H.mult[j] if l in idem_ids]
        assert len(ks) == 1 and len(ls) == 1
        k, l = ks[0], ls[0]
        lcoords.append((int(mt[i, k]), int(mt[j, l])))
        lfix.append(c.lift(N).as_root()[0] + me[i, k] + me[j, l])
        lw1.append(idem_ids[k])
        lw2.append(idem_ids[l])
    lfix = np.array(lfix, dtype=np.int64)
    lw1 = np.array(lw1, dtype=np.int64)
    lw2 = np.array(lw2, dtype=np.int64)

    # RHS: R * Delta(g); per R entry ((c,0),(d,0)) the unique compatible
    # Delta(g) term is joined through the mult rows
    rcoords, rfix, rw1, rw2 = [], [], [], []
    dg_first = {}
    for (i, j), c in dg.items():
        dg_first.setdefault(i, {})[j] = c
    for ci_elem in dec.elements:
        for di_elem in dec.elements:
            i = H.gf_index(ci_elem, 0)
            j = H.gf_index(di_elem, 0)
            ks = [k for k in H.mult[i] if k in dg_first]
            assert len(ks) == 1
            k = ks[0]
            sub = dg_first[k]
            ls = [l for l in H.mult[j] if l in sub]
            assert len(ls) == 1
            l = ls[0]
            rcoords.append((int(mt[i, k]), int(mt[j, l])))
            rfix.append(sub[l].lift(N).as_root()[0] + me[i, k] + me[j, l])
            rw1.append(idem_ids[i])
            rw2.append(idem_ids[j])
    rfix = np.array(rfix, dtype=np.int64)
    rw1 = np.array(rw1, dtype=np.int64)
    rw2 = np.array(rw2, dtype=np.int64)

    assert len(set(lcoords)) == len(lcoords) and len(set(rcoords)) == len(rcoords)
    order_l = {c: i for i, c in enumerate(lcoords)}
    align = np.array([order_l[c] for c in rcoords], dtype=np.int64)
    assert set(lcoords) == set(rcoords)

    X, A, L = _bichar_forms(E, dec)
    # compare at the common conductor lcm(N, L)
    M = N * L // math.gcd(N, L)
    keys = set()
    for key, Aw in zip(_keys(E), A):
        W = (X @ Aw @ X.T) % L
        le = (lfix * (M // N) + W[lw1, lw2] * (M // L)) % M
        re = (rfix * (M // N) + W[rw1, rw2] * (M // L)) % M
        if np.array_equal(le[align], re):
            keys.add(key)
    return keys


def loop_qt_B_oracle(H, dec, E):
    """_qt_B_oracle with the rows e_r # g templated on their own and one
    integer compare per bicharacter: the oracle for its blocked sieve."""
    N = H.conductor
    mt, me = H.mono_tables()
    rows, lefts, rights, dexp = H.comult_tables()
    idem = np.array([H.gf_index(r, 0) for r in dec.elements])
    sel = np.isin(rows, [H.gf_index(r, 1) for r in dec.elements])
    T1, T2, TE = lefts[sel], rights[sel], dexp[sel]

    def meet(hits):
        # the one idempotent each row of hits meets
        if not (hits.sum(axis=1) == 1).all():
            raise AssertionError("a leg does not meet exactly one idempotent")
        return hits.argmax(axis=1)

    # Delta-op(g) R: (b_T2 (x) b_T1)(E_k (x) E_l)
    k, l = meet(mt[np.ix_(T2, idem)] >= 0), meet(mt[np.ix_(T1, idem)] >= 0)
    lkey = mt[T2, idem[k]].astype(np.int64) * H.dim + mt[T1, idem[l]]
    lfix = TE + me[T2, idem[k]] + me[T1, idem[l]]
    # R Delta(g): (E_i (x) E_j)(b_T1 (x) b_T2)
    i, j = meet(mt[np.ix_(idem, T1)].T >= 0), meet(mt[np.ix_(idem, T2)].T >= 0)
    rkey = mt[idem[i], T1].astype(np.int64) * H.dim + mt[idem[j], T2]
    rfix = TE + me[idem[i], T1] + me[idem[j], T2]
    # both sides have pairwise distinct coordinates, and the same ones
    lo, ro = np.argsort(lkey), np.argsort(rkey)
    if not (np.array_equal(lkey[lo], rkey[ro]) and (np.diff(lkey[lo]) > 0).all()):
        raise AssertionError("the two sides do not share distinct coordinates")

    X, A, L = _bichar_forms(E, dec)
    M = math.lcm(N, L)
    fix = (lfix[lo] - rfix[ro]) * (M // N)
    k, l, i, j = k[lo], l[lo], i[ro], j[ro]
    keys = set()
    for key, Aw in zip(_keys(E), A):
        W = (X @ Aw @ X.T) % L
        if (((W[k, l] - W[i, j]) * (M // L) + fix) % M == 0).all():
            keys.add(key)
    return keys


def _oracle_keys_or_assertion(oracle, *args):
    try:
        return oracle(*args)
    except AssertionError:
        return AssertionError


def _B_oracle_inputs(lam):
    H = build_bismash(make_B(3, 7, 2, lam))
    dec = abelian_decomposition(H.mp.G, range(H.mp.G.order))
    return H, dec, enumerate_bicharacters(dec)


@pytest.mark.parametrize("lam", [0, 1])
def test_qt_B_oracle_matches_reference(lam):
    H, dec, E = _B_oracle_inputs(lam)
    keys = _qt_B_oracle(H, dec, E, _e_r_support(H, dec))
    assert keys == reference_qt_B_oracle(H, dec, E)
    assert len(keys) == (7 if lam == 0 else 1)


def _bismash_with(H, mult=None, comult=None):
    """A copy of the bismash host H with its mult or comult rows replaced."""
    return BismashHopf(H.mp, H.dim, H.conductor, mult or H.mult,
                       comult or H.comult, H.unit, H.counit, H.antipode, H.labels)


def test_qt_B_oracle_matches_reference_on_mutants():
    """zeta-scaled MUL and CMUL constants of B(3,7,1) at entries both sides
    of the oracle read: Delta(g) terms, and products of a Delta(g) leg with
    an idempotent e_r # 1 on either side."""
    H, dec, E = _B_oracle_inputs(1)
    z = zeta(H.conductor)
    rng = random.Random(3)
    idem = [H.gf_index(r, 0) for r in dec.elements]
    dg_rows = [H.gf_index(r, 1) for r in dec.elements]
    legs = sorted({x for i in dg_rows for j, k, _ in H.comult[i] for x in (j, k)})
    sites = [(i, rng.choice([j for j in idem if j in H.mult[i]]))
             for i in rng.sample(legs, 3)]
    sites += [(i, rng.choice([j for j in legs if j in H.mult[i]]))
              for i in rng.sample(idem, 3)]
    mutants = []
    for i, j in sites:
        k = H.mult[i][j][0][0]
        mutants.append(_bismash_with(
            H, mult=H.with_scaled_mult_entry(i, j, k, z).mult))
    for i in rng.sample(dg_rows, 3):
        comult = list(H.comult)
        terms = list(comult[i])
        t = rng.randrange(len(terms))
        j, k, c = terms[t]
        terms[t] = (j, k, c * z)
        comult[i] = tuple(terms)
        mutants.append(_bismash_with(H, comult=comult))
    keys = _qt_B_oracle(H, dec, E, _e_r_support(H, dec))
    changed = 0
    for Hm in mutants:
        got = _oracle_keys_or_assertion(_qt_B_oracle, Hm, dec, E,
                                        _e_r_support(Hm, dec))
        assert got == _oracle_keys_or_assertion(reference_qt_B_oracle, Hm, dec, E)
        changed += got != keys
    # the mutants are seen: some of them change the oracle's key set
    assert changed > 0


def B_oracle_mutants(H, dec):
    """The host mutants of test_qt_B_oracle_matches_reference_on_mutants,
    from the same seed."""
    z = zeta(H.conductor)
    rng = random.Random(3)
    idem = [H.gf_index(r, 0) for r in dec.elements]
    dg_rows = [H.gf_index(r, 1) for r in dec.elements]
    legs = sorted({x for i in dg_rows for j, k, _ in H.comult[i] for x in (j, k)})
    sites = [(i, rng.choice([j for j in idem if j in H.mult[i]]))
             for i in rng.sample(legs, 3)]
    sites += [(i, rng.choice([j for j in legs if j in H.mult[i]]))
              for i in rng.sample(idem, 3)]
    mutants = []
    for i, j in sites:
        k = H.mult[i][j][0][0]
        mutants.append(_bismash_with(
            H, mult=H.with_scaled_mult_entry(i, j, k, z).mult))
    for i in rng.sample(dg_rows, 3):
        comult = list(H.comult)
        terms = list(comult[i])
        t = rng.randrange(len(terms))
        j, k, c = terms[t]
        terms[t] = (j, k, c * z)
        comult[i] = tuple(terms)
        mutants.append(_bismash_with(H, comult=comult))
    return mutants


@pytest.mark.parametrize("lam", [0, 1])
def test_qt_B_oracle_sieve_matches_loop(lam):
    H, dec, E = _B_oracle_inputs(lam)
    assert _qt_B_oracle(H, dec, E, _e_r_support(H, dec)) == \
        loop_qt_B_oracle(H, dec, E)
    if lam == 0:
        return
    for Hm in B_oracle_mutants(H, dec):
        assert _oracle_keys_or_assertion(_qt_B_oracle, Hm, dec, E,
                                         _e_r_support(Hm, dec)) == \
            _oracle_keys_or_assertion(loop_qt_B_oracle, Hm, dec, E)


ORACLE_UNDER_O = """
from hopfqt.bismash import BismashHopf, build_bismash, make_B
from hopfqt.exactfield import zeta
from hopfqt.grouptool import abelian_decomposition, enumerate_bicharacters
from hopfqt.qtlab import _e_r_support, _qt_B_oracle

H = build_bismash(make_B(3, 7, 2, 1))
dec = abelian_decomposition(H.mp.G, range(H.mp.G.order))
E = enumerate_bicharacters(dec)
idem = {H.gf_index(r, 0) for r in dec.elements}
# a leg of Delta(e_0 # g) times an idempotent e_r # 1
i = H.comult[H.gf_index(0, 1)][0][1]
j = min(x for x in H.mult[i] if x in idem)
(k, c), = H.mult[i][j]
scaled, dropped = [dict(row) for row in H.mult], [dict(row) for row in H.mult]
scaled[i][j] = ((k, c * zeta(H.conductor)),)
del dropped[i][j]
for mult in (H.mult, scaled, dropped):
    Hm = BismashHopf(H.mp, H.dim, H.conductor, mult, H.comult, H.unit,
                     H.counit, H.antipode, H.labels)
    try:
        print(sorted(map(repr, _qt_B_oracle(Hm, dec, E, _e_r_support(Hm, dec)))))
    except AssertionError as exc:
        print("AssertionError:", exc)
"""


def test_qt_B_oracle_premises_hold_under_optimize():
    """The oracle's premise checks are not assert statements: under python -O
    a zeta-scaled product of a Delta(g) leg with an idempotent gives the same
    key set, and the same product set to zero, so that the leg meets no
    idempotent, raises the same AssertionError."""
    env = dict(os.environ, PYTHONPATH=str(Path(qtlab.__file__).parents[1]))
    runs = [subprocess.run([sys.executable, *flags, "-c", ORACLE_UNDER_O],
                           env=env, capture_output=True, text=True, check=True)
            for flags in ([], ["-O"])]
    plain, scaled, dropped = runs[0].stdout.splitlines()
    assert runs[1].stdout == runs[0].stdout
    assert plain.startswith("[") and scaled.startswith("[")
    assert dropped.startswith("AssertionError")


def B_dec(H):
    """The decomposition of the whole G of the tau-twisted host H, the
    domain of its bicharacters."""
    return abelian_decomposition(H.mp.G, range(H.mp.G.order))


def explicit_B_entries(H, w):
    """R = sum w(s,t) (e_s # 1) (x) (e_t # 1) for the Bicharacter w on the
    G of H, entry by entry."""
    ref = ReferenceBicharacter(B_dec(H), w.key())
    elements = ref.domain.elements
    return {(H.gf_index(s, 0), H.gf_index(t, 0)): ref.value(s, t)
            for s in elements for t in elements}


@pytest.mark.parametrize("lam", [0, 1])
def test_qt_B_survivors_pass_exhaustive_verifier(lam):
    res = qt_B_enumerate(3, 7, 2, lam)
    H = res.host
    assert H.mp.name == f"B_{lam}(p=3,q=7,m=2)"
    for w, R in res:
        assert R.host is H
        assert R.entries == explicit_B_entries(H, w)
        assert verify_qt(H, R.entries).passed


def test_qt_B_enumerate_builds_no_generic_R(monkeypatch):
    """The intertwiner table decides every row for the survivors: the
    enumeration makes no _intertwines call and builds no generic R; each R
    builds its entries once, on first read, and they are the explicit
    tensor."""
    generic, built = [], []
    real_intertwines, real_entries = qtlab._intertwines, qtlab.r_entries_from_support

    def spy_intertwines(H, entries, h):
        generic.append(h)
        return real_intertwines(H, entries, h)

    def spy_entries(sup, W, L):
        built.append(np.array(W))
        return real_entries(sup, W, L)

    monkeypatch.setattr(qtlab, "_intertwines", spy_intertwines)
    monkeypatch.setattr(qtlab, "r_entries_from_support", spy_entries)
    for lam, count in ((0, 7), (1, 1)):
        built.clear()
        res = qt_B_enumerate(3, 7, 2, lam)
        assert len(res) == count and generic == [] and built == []
        for n, (w, R) in enumerate(res, 1):
            assert R.entries == explicit_B_entries(R.host, w)
            assert R.entries is R.entries
            assert len(built) == n and np.array_equal(built[-1], R.W)


LEFT, RIGHT, INTERTWINER = ("coproduct identity (left)",
                            "coproduct identity (right)", "intertwiner")


def test_qt_B_certified_matches_exhaustive_on_mutants():
    (w, R), = qt_B_enumerate(3, 7, 2, 1)
    H, sup = R.host, R.sup
    conj = sup.conj_perms()
    assert all(row is None for row in conj)
    W, L = index_matrix(w.key(), B_dec(H))
    assert np.array_equal(R.W, W) and R.L == L
    shifted, shifted_at_unit = W.copy(), W.copy()
    shifted[3, 5] += 1
    shifted_at_unit[0, 0] += 2
    noise = np.random.default_rng(7).integers(0, L, size=W.shape)
    mutants = [
        (shifted, {LEFT, RIGHT, INTERTWINER}),
        (shifted_at_unit, {LEFT, RIGHT}),
        (noise, {LEFT, RIGHT, INTERTWINER}),   # not a bicharacter
        (W.T, {INTERTWINER}),
        (2 * W, {INTERTWINER}),
    ]
    for Wm, failed in mutants:
        Rm = CertifiedR(sup, Wm % L, L)
        full = verify_qt(H, Rm.entries)
        cert = verify_qt_certified(Rm, conj)
        assert not full.passed and not cert.passed
        assert set(full.failures) == set(cert.failures) == failed
        assert full.failures.get(INTERTWINER) == cert.failures.get(INTERTWINER)


def assert_table_matches_generic(sup, W, L, exhaustive=False):
    """verify_qt_certified through the intertwiner table against the
    reference with every row generic, witness by witness, and optionally
    against verify_qt (the same failed identities and intertwiner
    witnesses)."""
    H = sup.host
    R = CertifiedR(sup, W % L, L)
    cert = verify_qt_certified(R, sup.conj_perms())
    ref = reference_verify_qt_certified(sup, W % L, L, [None] * H.dim)
    assert cert.failures == ref.failures
    # the table is exact: it rejects the failing rows and no others
    rejects = sup.intertwiner_rejects(W % L, L)
    assert np.flatnonzero(rejects).tolist() == \
        [h for h, in ref.failures.get(INTERTWINER, [])]
    if exhaustive:
        full = verify_qt(H, R.entries)
        assert set(full.failures) == set(cert.failures)
        assert full.failures.get(INTERTWINER) == cert.failures.get(INTERTWINER)
    return cert.failures


@pytest.mark.parametrize("lam", [0, 1])
def test_qt_B_intertwiner_table_matches_generic(lam):
    res = qt_B_enumerate(3, 7, 2, lam)
    sup = res[0][1].sup
    assert sup.intertwiner_table is not None
    for w, R in res:
        assert assert_table_matches_generic(sup, R.W, R.L) == {}
    w, R = next((w, R) for w, R in res if not w.is_trivial())
    W, L = R.W, R.L
    shifted, shifted_at_unit = W.copy(), W.copy()
    shifted[3, 5] += 1
    shifted_at_unit[0, 0] += 2
    noise = np.random.default_rng(lam).integers(0, L, size=W.shape)
    for Wm in (shifted, shifted_at_unit, noise, 2 * W):
        assert_table_matches_generic(sup, Wm, L)
    assert INTERTWINER in assert_table_matches_generic(sup, W.T, L, exhaustive=True)
    keys = {w.key() for w, _ in res}
    dec = B_dec(res.host)
    E = enumerate_bicharacters(dec)
    rejected = [e for e, key in zip(E, _keys(E)) if key not in keys]
    for n, e in enumerate(rejected[::len(rejected) // 2][:3]):
        failed = assert_table_matches_generic(sup, *index_matrix(e, dec),
                                              exhaustive=n == 0)
        assert list(failed) == [INTERTWINER]


def test_qt_B_intertwiner_table_on_host_mutants():
    """zeta-scaled MUL entries (a leg of Delta(e_r # g^2) times an
    idempotent) and CMUL entries on rows e_r # g^2 of B(3,7,1): the support
    stays certified, the table rejects rows the host no longer satisfies,
    and the generic rerun there gives the reference's verdict."""
    (w, R), = qt_B_enumerate(3, 7, 2, 1)
    H, sup = R.host, R.sup
    z = zeta(H.conductor)
    rng = random.Random(5)
    idem = [H.gf_index(r, 0) for r in B_dec(H).elements]
    g2_rows = [H.gf_index(r, 2) for r in B_dec(H).elements]
    mutants = []
    for i in rng.sample(g2_rows, 2):
        j = rng.choice([j for j in idem if j in H.mult[i]])
        mutants.append(H.with_scaled_mult_entry(i, j, H.mult[i][j][0][0], z).mult)
    mutants = [_bismash_with(H, mult=mult) for mult in mutants]
    for i in rng.sample(g2_rows, 2):
        comult = list(H.comult)
        terms = list(comult[i])
        t = rng.randrange(len(terms))
        j, k, c = terms[t]
        terms[t] = (j, k, c * z)
        comult[i] = tuple(terms)
        mutants.append(_bismash_with(H, comult=comult))
    for Hm in mutants:
        sup_m = IdemSupport(Hm, sup.idems, sup.kmul)
        assert sup_m.intertwiner_table is not None
        failed = assert_table_matches_generic(sup_m, R.W, R.L)
        assert list(failed) == [INTERTWINER]


def test_intertwiner_table_absent_on_unreadable_supports(monkeypatch):
    # idempotents that are sums of basis elements: beta7(3,5) in its group
    # algebra; and the group-like idempotents of B(3,7,1)*, single basis
    # elements whose rows have distinct coordinates, but not the same ones
    # on both sides
    assert dict_support(*group_support("beta7", p=3, q=5)).intertwiner_table is None
    _, _, supports = _spy_no_qt_B_dual(monkeypatch, 3, 7, 2, 1)
    assert supports[0].view is not None
    assert supports[0].intertwiner_table is None
    # single basis elements that every leg of Z3 meets twice, although each
    # row has one coordinate on each side, and the same one
    H = group_algebra(cyclic_group(3), conductor=3)
    one = CycloNumber.one(3)
    twice = dict_support(H, [{0: one}, {1: one}], [[0, 1], [1, 0]])
    assert twice.intertwiner_table is None


def test_qt_B_members_have_small_left_image():
    # the triple reference_hopf_images gives on the entries of this R; that
    # closure takes tens of seconds, so its result is pinned here
    (w, R), = qt_B_enumerate(3, 7, 2, 1)
    H = R.host
    assert hopf_images(R) == (49, 49, 49)
    # support lies in the function-algebra idempotent span
    for (i, j) in R.entries:
        assert H.basis_gf(i)[1] == 0 and H.basis_gf(j)[1] == 0


# ---------------------------------------------------------------------------
# braidings on the sigma-twisted family


def test_braiding_A0_constructions_pass():
    H = build_bismash(make_A(7, 3, 2, 0))
    for k in range(3):
        form = braiding_A0_construct(H, k)
        assert verify_coqt(form.host, form).passed


def test_braiding_A0_rejects_non_cube_root():
    with pytest.raises(ParameterError):
        braiding_A0_construct(build_bismash(make_A(7, 3, 2, 0)), zeta(9, 1))


def test_braiding_A0_rejects_twisted_host():
    # the construction is the index-0 family only; A_1 has sigma != 1
    H = build_bismash(make_A(7, 3, 2, 1))
    with pytest.raises(ParameterError, match="sigma = 1"):
        braiding_A0_construct(H, 1)


def test_braiding_A0_j_zero_column():
    form = braiding_A0_construct(build_bismash(make_A(7, 3, 2, 0)), 1)
    H = form.host
    mp = H.mp
    G = mp.G
    b = G.generators["b"]
    # <e_h g^i, e_k # 1> = [h = 1][k = b^-i]
    for h in (0, 1, b):
        for i in range(3):
            for k in (0, b, G.power(b, -1)):
                v = form.value(H.gf_index(h, i), H.gf_index(k, 0))
                expect = h == 0 and k == G.power(b, -i)
                assert bool(v) == expect
                if expect:
                    assert v.is_one()


def test_braiding_search_counts():
    forms = braiding_A_search(build_bismash(make_A(7, 3, 2, 0)))
    assert len(forms) == 3
    lams = sorted(repr(f.params[2]) for f in forms)
    # exactly the cube roots of unity
    for f in forms:
        assert (f.params[2] ** 3).is_one()
    assert braiding_A_search(build_bismash(make_A(7, 3, 2, 1))) == []
    assert braiding_A_search(build_bismash(make_A(7, 3, 2, 2))) == []


def test_braiding_search_matches_construction():
    H = build_bismash(make_A(7, 3, 2, 0))
    forms = braiding_A_search(H)
    built = [braiding_A0_construct(H, k) for k in range(3)]
    for f in forms:
        assert any(f.values == g.values for g in built)
    for g in built:
        assert any(f.values == g.values for f in forms)


def test_braiding_search_g0_g1_character_identity():
    # every found braiding satisfies phi^l(g0) = phi^l(g1); the searches at
    # l > 0 are empty so the identity holds vacuously there
    for l in (0, 1, 2):
        for f in braiding_A_search(build_bismash(make_A(7, 3, 2, l))):
            g0, g1, _ = f.params
            mp = f.host.mp
            _, j0 = mp.G.states[g0]
            _, j1 = mp.G.states[g1]
            assert zeta(3, l * j0) == zeta(3, l * j1)


def test_coqt_trivial_form_on_function_algebra():
    # <x, y> = eps(x) eps(y) on the dual of a group algebra
    H = dual_hopf(group_algebra(semidirect_pq(7, 3, 2), conductor=7))
    values = {}
    for i in range(H.dim):
        for j in range(H.dim):
            v = H.counit[i] * H.counit[j]
            if v:
                values[(i, j)] = v
    form = BraidingForm(H, values)
    assert verify_coqt(H, form).passed


def test_coqt_mutated_form_fails():
    form = braiding_A0_construct(build_bismash(make_A(7, 3, 2, 0)), 1)
    (i, j), v = next(iter(form.values.items()))
    bad_values = dict(form.values)
    bad_values[(i, j)] = v * zeta(3, 1)
    bad = BraidingForm(form.host, bad_values)
    assert not verify_coqt(form.host, bad).passed


# ---------------------------------------------------------------------------
# the braiding axioms swept on H: the oracle for verify_coqt, which checks a
# form as the R-matrix it defines on the dual


def conv_mul(H, B1, B2):
    """Convolution product of two bilinear forms (dicts on basis pairs)."""
    r1, r2 = form_rows(H, B1), form_rows(H, B2)
    out = {}
    for a in range(H.dim):
        for b in range(H.dim):
            acc = {}
            for a1, a2, ca in H.comult[a]:
                row1, row2 = r1[a1], r2[a2]
                if not row1 or not row2:
                    continue
                for b1, b2, cb in H.comult[b]:
                    v1, v2 = row1.get(b1), row2.get(b2)
                    if v1 is not None and v2 is not None:
                        _acc(acc, 0, ca * cb * v1 * v2)
            if acc:
                out[(a, b)] = acc[0]
    return out


def conv_unit(H):
    return {(i, j): H.counit[i] * H.counit[j]
            for i in range(H.dim) for j in range(H.dim)
            if H.counit[i] and H.counit[j]}


def form_rows(H, values):
    rows = [dict() for _ in range(H.dim)]
    for (i, j), v in values.items():
        rows[i][j] = v
    return rows


def reference_coqt(H, form, inverse=None):
    """The braiding axioms on all basis tuples of H, under their own names:
    <ab,c> = <a,c1><b,c2>, <a,bc> = <a1,c><a2,b>, the commutation identity
    <a1,b1> a2 b2 = b1 a1 <a2,b2> and convolution invertibility.  A
    candidate ``inverse`` form is tried before the minimal polynomial."""
    rep = Report()
    n, mult = H.dim, H.mult
    rows = form_rows(H, form.values)
    cols = form_rows(H, {(j, i): v for (i, j), v in form.values.items()})

    for c in range(n):
        rhs = {}
        for c1, c2, cc in H.comult[c]:
            for a, va in cols[c1].items():
                for b, vb in cols[c2].items():
                    _acc(rhs, (a, b), cc * va * vb)
        lhs = {}
        for a in range(n):
            for b, terms in mult[a].items():
                for t, ct in terms:
                    v = rows[t].get(c)
                    if v is not None:
                        _acc(lhs, (a, b), ct * v)
        if lhs != rhs:
            rep.fail("product pairing", c)

    for a in range(n):
        rhs = {}
        for a1, a2, ca in H.comult[a]:
            for cx, v1 in rows[a1].items():
                for bx, v2 in rows[a2].items():
                    _acc(rhs, (bx, cx), ca * v1 * v2)
        lhs = {}
        for b in range(n):
            for c, terms in mult[b].items():
                for t, ct in terms:
                    v = rows[a].get(t)
                    if v is not None:
                        _acc(lhs, (b, c), ct * v)
        if lhs != rhs:
            rep.fail("coproduct pairing", a)

    for a in range(n):
        for b in range(n):
            left, right = {}, {}
            for a1, a2, ca in H.comult[a]:
                for b1, b2, cb in H.comult[b]:
                    v = rows[a1].get(b1)
                    if v is not None:
                        for t, ct in mult[a2].get(b2, ()):
                            _acc(left, t, ca * cb * v * ct)
                    v2 = rows[a2].get(b2)
                    if v2 is not None:
                        for t, ct in mult[b1].get(a1, ()):
                            _acc(right, t, ca * cb * v2 * ct)
            if left != right:
                rep.fail("commutation", (a, b))

    mul, unit = partial(conv_mul, H), conv_unit(H)
    if not (inverse is not None and mul(form.values, inverse) == unit
            and mul(inverse, form.values) == unit):
        if _inverse(form.values, mul, unit, n ** 2) is None:
            rep.fail("convolution invertibility", ())
    return rep


COQT_AS_QT = {"product pairing": LEFT, "coproduct pairing": RIGHT,
              "commutation": INTERTWINER,
              "convolution invertibility": "invertible"}


def grid_form(H, g0, g1, lam):
    """The (g0, g1, lambda) form and its convolution-inverse candidate."""
    mp, G = H.mp, H.mp.G
    return (BraidingForm(H, _delta_form_values(H, mp, g0, g1, lam),
                         params=(g0, g1, lam)),
            _delta_form_values(H, mp, G.inv(g0), G.inv(g1), lam.inv()))


def assert_coqt_matches_reference(form, inverse):
    H = form.host
    ref = reference_coqt(H, form, inverse)
    rep = verify_coqt(H, form)
    assert rep.passed == ref.passed, form
    assert set(rep.failures) == {COQT_AS_QT[c] for c in ref.failures}, form
    return rep


def assert_inverse_form_inverts(form, inverse):
    # the (g0^-1, g1^-1, lambda^-1) form inverts R in D (x) D
    D, R = dual_hopf(form.host), form.values
    assert t2_mul(D, R, inverse) == unit_tensor(D) == t2_mul(D, inverse, R), form


def test_coqt_matches_reference_on_search_candidates(monkeypatch):
    # every candidate braiding_A_search passes its two prefilters at (7,3)
    seen = []

    def recording(H, form):
        seen.append(form)
        return verify_coqt(H, form)

    monkeypatch.setattr(qtlab, "verify_coqt", recording)
    found = [f for l in (0, 1, 2)
             for f in braiding_A_search(build_bismash(make_A(7, 3, 2, l)))]
    assert len(seen) == 9 and len(found) == 3
    passed = 0
    for form in seen:
        _, inverse = grid_form(form.host, *form.params)
        passed += assert_coqt_matches_reference(form, inverse).passed
        assert_inverse_form_inverts(form, inverse)
    assert passed == 3


def test_coqt_matches_reference_on_random_grid_forms():
    rng = random.Random(20261018)
    for l in (0, 1, 2):
        H = build_bismash(make_A(7, 3, 2, l))
        for _ in range(10):
            form, inverse = grid_form(H, rng.randrange(H.mp.G.order),
                                      rng.randrange(H.mp.G.order),
                                      zeta(9, rng.randrange(9)))
            assert_coqt_matches_reference(form, inverse)
            assert_inverse_form_inverts(form, inverse)


def test_coqt_matches_reference_on_A0_mutants():
    form = braiding_A0_construct(build_bismash(make_A(7, 3, 2, 0)), 1)
    H = form.host
    _, inverse = grid_form(H, *form.params)
    assert assert_coqt_matches_reference(form, inverse).passed
    for key, v in sorted(form.values.items()):
        for mutated in (v * zeta(3, 1), None):
            values = dict(form.values)
            if mutated is None:
                del values[key]
            else:
                values[key] = mutated
            rep = assert_coqt_matches_reference(BraidingForm(H, values), inverse)
            assert not rep.passed, (key, mutated)


# ---------------------------------------------------------------------------
# the no-go branches


def test_no_qt_on_B_duals():
    rep1 = no_qt_B_dual(3, 7, 2, 1)
    assert rep1.branch == "nonzero"
    assert rep1.candidates_checked == 3
    assert rep1.no_qt_on_support
    rep0 = no_qt_B_dual(3, 7, 2, 0)
    assert rep0.branch == "zero"
    assert rep0.nullspace_dim == 49
    assert rep0.support_condition_holds and rep0.annihilator_holds
    assert rep0.no_qt_on_support


@pytest.mark.parametrize("lam, branch, candidates, nullspace_dim",
                         [(0, "zero", 169, 169), (1, "nonzero", 3, None)])
def test_no_qt_on_B_duals_at_3_13(lam, branch, candidates, nullspace_dim):
    rep = no_qt_B_dual(3, 13, 3, lam)
    assert rep.branch == branch
    assert rep.candidates_checked == candidates
    assert rep.nullspace_dim == nullspace_dim
    assert rep.all_fail and rep.support_condition_holds and rep.annihilator_holds
    assert rep.no_qt_on_support


@pytest.mark.parametrize("q, m, dim", [(7, 2, 49), (13, 3, 169)])
def test_diagonal_no_go_system_matches_nullspace(monkeypatch, q, m, dim):
    """The lam = 0 columns of no_qt_B_dual share no row key, and the null
    vectors read off the zero columns are those nullspace returns, vector
    for vector.  (3, 5) has no tau-twisted family, since 3 does not divide
    5 - 1; (3, 13) is the next pair.)"""
    seen = []
    real = qtlab._null_vectors

    def spy(columns):
        seen.append(columns)
        return real(columns)

    monkeypatch.setattr(qtlab, "_null_vectors", spy)
    monkeypatch.setattr(qtlab, "nullspace", None)
    rep = no_qt_B_dual(3, q, m, 0)
    monkeypatch.undo()
    columns, = seen
    keys = [key for col in columns for key in col]
    assert len(set(keys)) == len(keys)
    basis = qtlab.nullspace(columns)
    assert real(columns) == basis and rep.nullspace_dim == len(basis) == dim


def test_null_vectors_fall_back_on_a_shared_key(monkeypatch):
    """A column set in which two columns share a row key goes to
    nullspace; the diagonal reading would miss the null vector c0 - c2."""
    one = CycloNumber.one(7)
    z = zeta(7)
    columns = [{(0, 1): one}, {}, {(0, 1): one}, {(2, 2): z}, {}]
    calls = []
    real = qtlab.nullspace
    monkeypatch.setattr(qtlab, "nullspace",
                        lambda cols: calls.append(cols) or real(cols))
    basis = qtlab._null_vectors(columns)
    assert calls == [columns] and basis == real(columns)
    assert basis == [{1: CycloNumber.one()}, {0: -one, 2: one},
                     {4: CycloNumber.one()}]
    assert qtlab._null_vectors([columns[0], {}, columns[3]]) == \
        [{1: CycloNumber.one()}] and len(calls) == 1


def reference_B_dual_candidates(gl, p, N):
    """The lam != 0 candidates of no_qt_B_dual built by hand, over a host
    of conductor N: the primitive
    idempotents of the group-like span k[Z_p] and R = sum zeta_p^(e r s)
    E_r (x) E_s for e = 0..p-1."""
    L = math.lcm(p, N)
    gen_idx = next(i for i, o in enumerate(gl.orders) if o == p)
    powers = [gl.identity]
    for _ in range(p - 1):
        powers.append(gl.table[powers[-1]][gen_idx])
    inv_p = CycloNumber.from_rational(Fraction(1, p))
    idem = []
    for i in range(p):
        vec = {}
        for k2, gidx in enumerate(powers):
            c = inv_p * zeta(L, -i * k2 * (L // p))
            for bidx, cb in gl.elements[gidx].coeffs.items():
                _acc(vec, bidx, c * cb)
        idem.append(vec)
    out = []
    for e in range(p):
        entries = {}
        for r in range(p):
            for s in range(p):
                c = zeta(L, e * r * s * (L // p))
                for i1, c1 in idem[r].items():
                    for j1, c2 in idem[s].items():
                        _acc(entries, (i1, j1), c * c1 * c2)
        out.append(entries)
    return out


def _spy_no_qt_B_dual(monkeypatch, p, q, m, lam):
    """no_qt_B_dual's report, every (R, delta) it passes to
    _intertwiner_sides, and every support it builds an R on."""
    sides, supports = [], []
    real_sides, real_entries = qtlab._intertwiner_sides, qtlab.r_entries_from_support

    def spy_sides(H, entries, delta):
        sides.append((entries, delta))
        return real_sides(H, entries, delta)

    def spy_entries(sup, W, L):
        supports.append(sup)
        return real_entries(sup, W, L)

    monkeypatch.setattr(qtlab, "_intertwiner_sides", spy_sides)
    monkeypatch.setattr(qtlab, "r_entries_from_support", spy_entries)
    rep = no_qt_B_dual(p, q, m, lam)
    monkeypatch.undo()
    return rep, sides, supports


def test_no_qt_B_dual_candidates_are_not_vacuous(monkeypatch):
    """The lam != 0 candidates equal reference_B_dual_candidates; each one
    satisfies the intertwiner identity at Delta(1) = 1 (x) 1 and fails it
    at Delta(1 # a), so the check that rejects them can also accept."""
    rep, sides, supports = _spy_no_qt_B_dual(monkeypatch, 3, 7, 2, 1)
    assert rep.candidates_checked == 3 and rep.no_qt_on_support
    gl = group_likes_bismash(build_bismash(dualize_trivial_action(make_B(3, 7, 2, 1))))
    H = supports[0].host
    da = H.embed_f(H.mp.F.generators["a"]).comult_apply()
    assert [R for R, _ in sides] == reference_B_dual_candidates(gl, 3, H.conductor)
    for R, delta in sides:
        assert delta == da and R
        lhs, rhs = _intertwiner_sides(H, R, unit_tensor(H))
        assert lhs == rhs == R
        lhs, rhs = _intertwiner_sides(H, R, delta)
        assert lhs != rhs


def test_certify_group_like_idempotents_of_B_dual(monkeypatch):
    """The group-like idempotents of B(3,7,1)* are three single basis
    elements with coefficients in Q(zeta_21) on a host of conductor 7: the
    view is monomial at M = 21, and certify() decides as the generic oracle
    does.  conj_perms gives no rows, since the unit spans three basis
    elements; a broken copy of the support raises the certificate's own
    error."""
    _, _, supports = _spy_no_qt_B_dual(monkeypatch, 3, 7, 2, 1)
    sup = supports[0]
    H, vectors, kmul = sup.host, sup.vectors, sup.kmul
    assert sup.certified
    fresh = dict_support(H, vectors, kmul)
    assert [len(v) for v in vectors] == [1, 1, 1]
    assert (H.conductor, fresh.view.M) == (7, 21)
    assert_certify_matches_generic(fresh, None)
    assert fresh.conj_perms() == [None] * H.dim
    z3 = zeta(3)
    scaled = [vectors[0], {i: z3 * c for i, c in vectors[1].items()}, vectors[2]]
    assert_certify_matches_generic(dict_support(H, scaled, kmul),
                                   "orthogonal idempotents at (1,1)")
    assert_certify_matches_generic(dict_support(H, vectors, np.zeros_like(kmul)),
                                   "not a group")


# ---------------------------------------------------------------------------
# images


def reference_hopf_images(H, entries):
    """(dim H_l, dim H_r, dim of the unital subalgebra they generate) of the
    tensor with these entries, by exact row reduction: the row spaces of the
    entry matrix and its transpose, and the closure of both under products
    of AlgebraElements."""
    rows, cols = {}, {}
    for (i, j), c in entries.items():
        rows.setdefault(i, {})[j] = c
        cols.setdefault(j, {})[i] = c
    rs_l = RowSpace()
    for i, vec in sorted(rows.items()):
        rs_l.add(vec)
    rs_r = RowSpace()
    for j, vec in sorted(cols.items()):
        rs_r.add(vec)

    span = RowSpace()
    reps = []

    def try_add(vec):
        if span.add(dict(vec)):
            reps.append(AlgebraElement(H, dict(vec)))
            return True
        return False

    try_add(dict(H.unit))
    for i, vec in sorted(rows.items()):
        try_add(vec)
    for j, vec in sorted(cols.items()):
        try_add(vec)
    grew = True
    while grew:
        grew = False
        current = list(reps)
        for x in current:
            for y in current:
                z = x * y
                if z.coeffs and try_add(z.coeffs):
                    grew = True
    return rs_l.dim, rs_r.dim, span.dim


def test_hopf_images_cases():
    G = cyclic_group(3)
    H = group_algebra(G, conductor=3)
    K = abelian_decomposition(G, range(3))
    sup = IdemSupport(H, idempotents(K), _k_index_table(K))
    assert hopf_images(CertifiedR(sup, np.zeros((3, 3)), 3)) == (1, 1, 1)
    G = cyclic_group(7)
    K = abelian_decomposition(G, range(7))
    H7 = group_algebra(G, conductor=7)
    e = next(e for e in enumerate_bicharacters(K) if e[0, 0] == 1)
    assert hopf_images(bichar_r(H7, K, e)) == (7, 7, 7)


def test_hopf_images_match_reference():
    """hopf_images on W against the row-reduction closure on the entries:
    all of k[Z9], every fourth bicharacter of k[Z3 x Z3] and a nontrivial
    survivor of gamma5(7,3)."""
    cases = []
    for orders, step in (([9], 1), ([3, 3], 4)):
        G = abelian_group(orders)
        H = group_algebra(G, conductor=max(orders))
        K = abelian_decomposition(G, range(G.order))
        cases += [bichar_r(H, K, e) for e in enumerate_bicharacters(K)[::step]]
    res = qt_group_algebra_enumerate(build_group("gamma5", p=7, q=3, m=2))
    cases.append(next(R for w, R in res if not w.is_trivial()))
    seen = set()
    for R in cases:
        got = hopf_images(R)
        assert got == reference_hopf_images(R.host, R.entries), R
        seen.add(got)
    # the sample is not degenerate: trivial, partial and full images
    assert {(1, 1, 1), (3, 3, 3), (9, 9, 9)} <= seen


def test_hopf_images_rejects_non_bicharacter():
    (w, R), = qt_B_enumerate(3, 7, 2, 1)
    noise = np.random.default_rng(7).integers(0, R.L, size=R.W.shape)
    with pytest.raises(ValueError, match="not a bicharacter"):
        hopf_images(CertifiedR(R.sup, noise, R.L))
    shifted = R.W.copy()
    shifted[3, 5] += 1
    with pytest.raises(ValueError, match="not a bicharacter"):
        hopf_images(CertifiedR(R.sup, shifted, R.L))

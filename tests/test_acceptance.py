"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance is exact equality; there are no numeric thresholds anywhere.
Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
"""

import math
import random
import time

import pytest

from hopfqt.exactfield import CycloNumber, RowSpace, nullspace, zeta
from hopfqt.grouptool import (
    ParameterError,
    abelian_decomposition,
    build_group,
    conjugation_map,
    enumerate_bicharacters,
)
from hopfqt.hopfcore import (
    antipode_diagnostics,
    group_likes_bismash,
    verify_hopf_axioms,
)
from hopfqt.bismash import (
    build_bismash,
    dual_iso_check,
    dualize_trivial_action,
    make_A,
    make_B,
    validate_matched_pair,
)
from hopfqt.qtlab import (
    BraidingForm,
    CertifiedR,
    braiding_A0_construct,
    braiding_A_search,
    no_qt_B_dual,
    qt_B_enumerate,
    qt_group_algebra_enumerate,
    verify_coqt,
    verify_qt_certified,
)

import numpy as np

from test_hopfcore import comult_mutant, zeta_scaled
from test_qtlab import index_matrix


def report(num, title, detail):
    print(f"\nACCEPTANCE {num:02d} {title}: PASS ({detail})")


@pytest.fixture(scope="module")
def families():
    out = {}
    for l in (0, 1, 2):
        out[f"A{l}"] = build_bismash(make_A(7, 3, 2, l))
    for lam in (0, 1):
        out[f"B{lam}"] = build_bismash(make_B(3, 7, 2, lam))
    return out


def test_criterion_01_construction_soundness(families):
    times = {}
    for name, H in families.items():
        t0 = time.monotonic()
        rep = verify_hopf_axioms(H)
        times[name] = time.monotonic() - t0
        assert rep.passed, f"{name}: {rep.summary()}"
        assert times[name] < 60.0
    dims = {name: H.dim for name, H in families.items()}
    assert dims == {"A0": 63, "A1": 63, "A2": 63, "B0": 147, "B1": 147}
    report(1, "construction soundness",
           f"A0,A1,A2 dim 63 and B0,B1 dim 147 verified, slowest "
           f"{max(times.values()):.1f}s")


def test_criterion_02_semisimplicity(families):
    for name, H in families.items():
        diag = antipode_diagnostics(H)
        assert diag.trace_s2 == H.dim, name
        assert diag.s2_is_id and diag.s4_is_id and diag.semisimple, name
    report(2, "semisimplicity", "trace(S^2) = dim and S^2 = id on all five")


def test_criterion_03_duality():
    for lam in (0, 1):
        assert dual_iso_check(make_B(3, 7, 2, lam)).passed
    # the dualized cocycle table matches the closed formula
    p, q, m, lam = 3, 7, 2, 1
    mp = make_B(p, q, m, lam)
    d = dualize_trivial_action(mp)
    F2 = d.F
    u = pow(m, -1, q)
    r = pow(u, lam + 1, q)
    c = [sum(pow(r, s, q) for s in range(n)) % q for n in range(p)]
    for n in range(p):
        for i in range(q):
            for j in range(q):
                for k in range(q):
                    for l in range(q):
                        x = F2.states.index((i, j))
                        y = F2.states.index((k, l))
                        expect = c[n] * j * k * pow(m, (lam + 1) * n, q) % q
                        assert d.sigma[n][x][y] == expect
    report(3, "duality", "explicit isomorphism verified for both duals; "
           "dual cocycle table matches the closed formula at all "
           f"{p * q**4} entries")


def _poly_eval(coeffs, x, N):
    acc = CycloNumber.zero(N)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _poly_trim(a):
    while a and a[-1].is_zero():
        a = a[:-1]
    return a


def _poly_monic(a):
    inv = a[-1].inv()
    return [c * inv for c in a]


def _poly_mod(a, b):
    a = list(a)
    db = len(b) - 1
    inv = b[-1].inv()
    while len(a) - 1 >= db and _poly_trim(a):
        a = _poly_trim(a)
        if len(a) - 1 < db:
            break
        f = a[-1] * inv
        shift = len(a) - 1 - db
        for i, c in enumerate(b):
            a[shift + i] = a[shift + i] - f * c
        a = _poly_trim(a)
    return a


def _poly_gcd(a, b):
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        a, b = b, _poly_trim(_poly_mod(a, b))
    return _poly_monic(a)


def _squarefree_part(p, N):
    deriv = [CycloNumber.from_rational(k + 1) * c
             for k, c in enumerate(p[1:])]
    g = _poly_gcd(p, _poly_trim(deriv))
    if len(g) == 1:
        return _poly_monic(list(p))
    # exact division p / g
    q = []
    rem = list(p)
    dg = len(g) - 1
    inv = g[-1].inv()
    for shift in range(len(p) - len(g), -1, -1):
        f = rem[shift + dg] * inv
        q.append(f)
        for i, c in enumerate(g):
            rem[shift + i] = rem[shift + i] - f * c
    assert not _poly_trim(rem)
    return _poly_monic(list(reversed(q)))


def _brute_force_group_likes(H, span_ids, value_order):
    """Independent group-like search inside a subcoalgebra span W.

    A group-like x in W is an algebra character of the dual algebra W*, so
    its u-th coordinate is a root of the minimal polynomial of the u-th dual
    basis functional.  Each minimal polynomial is computed exactly from the
    transposed comultiplication; the candidate roots are {0} plus roots of
    unity of order dividing value_order, and completeness is certified by
    checking that every minimal polynomial splits into distinct linear
    factors over the candidates.  Group-likes also satisfy the linear
    condition (u* (x) id)(Delta x) = x_u x, so nested exact nullspaces prune
    the candidate tuples; every survivor is subjected to the quadratic check
    Delta(x) = x (x) x and counit(x) = 1.
    """
    d = len(span_ids)
    pos = {b: i for i, b in enumerate(span_ids)}
    N = H.conductor
    span_set = set(span_ids)
    zero = CycloNumber.zero(N)
    one = CycloNumber.one(N)
    mats = [dict() for _ in range(d)]  # mats[u][(v, x)] = coefficient
    for x in span_ids:
        for j, k, c in H.comult[x]:
            assert j in span_set and k in span_set, "span is not a subcoalgebra"
            key = (pos[k], pos[x])
            mats[pos[j]][key] = mats[pos[j]].get(key, zero) + c

    # dual-algebra products u* v* from the transposed comultiplication
    dualmul = [[dict() for _ in range(d)] for _ in range(d)]
    for x in span_ids:
        for j, k, c in H.comult[x]:
            dualmul[pos[j]][pos[k]][pos[x]] = \
                dualmul[pos[j]][pos[k]].get(pos[x], zero) + c
    eps_vec = {w: H.counit[span_ids[w]] for w in range(d)
               if H.counit[span_ids[w]]}

    candidates = [zero] + [zeta(value_order, e) for e in range(value_order)]
    root_sets = []
    for u in range(d):
        rs = RowSpace()
        powers = [dict(eps_vec)]
        rs.add(dict(eps_vec))
        cur = dict(eps_vec)
        minpoly = None
        for _ in range(d + 1):
            nxt = {}
            for a, ca in cur.items():
                for w, c in dualmul[a][u].items():
                    s = nxt.get(w, zero) + ca * c
                    if s:
                        nxt[w] = s
                    else:
                        nxt.pop(w, None)
            powers.append(nxt)
            if not rs.add(dict(nxt)):
                combo = rs.last_dependence()
                deg = len(powers) - 1
                minpoly = [-combo.get(k, zero) for k in range(deg)] + [one]
                break
            cur = nxt
        assert minpoly is not None
        roots = [mu for mu in candidates
                 if _poly_eval(minpoly, mu, N).is_zero()]
        # completeness certificate: the squarefree part of the minimal
        # polynomial splits into distinct linear factors over the candidates,
        # so the candidate list covers every possible character value
        sf = _squarefree_part(minpoly, N)
        prod = [one]
        for r in roots:
            nxt = [zero] * (len(prod) + 1)
            for i, c in enumerate(prod):
                nxt[i + 1] = nxt[i + 1] + c
                nxt[i] = nxt[i] + (-r) * c
            prod = nxt
        assert len(prod) == len(sf) and \
            all(a == b for a, b in zip(prod, sf)), \
            "minimal polynomial does not split over the candidate roots"
        root_sets.append(roots)

    def split(basis_vectors, u, tuples):
        if u == d:
            return [tuples]
        out = []
        for mu in root_sets[u]:
            # column ci is the image of basis vector ci under
            # (u* (x) id) Delta - mu id
            columns = []
            for vec in basis_vectors:
                img = {}
                for (vpos, xpos), c in mats[u].items():
                    cx = vec.get(xpos)
                    if cx is not None:
                        img[vpos] = img.get(vpos, zero) + c * cx
                for vpos, c in vec.items():
                    img[vpos] = img.get(vpos, zero) - mu * c
                columns.append(img)
            combos = nullspace(columns)
            if not combos:
                continue
            sub = []
            for combo in combos:
                vec = {}
                for ci, coef in combo.items():
                    for vpos, c in basis_vectors[ci].items():
                        s = vec.get(vpos, zero) + coef * c
                        if s:
                            vec[vpos] = s
                        else:
                            vec.pop(vpos, None)
                sub.append(vec)
            out.extend(split(sub, u + 1, tuples + [mu]))
        return out

    start = [{i: one} for i in range(d)]
    found = []
    for tuples in split(start, 0, []):
        coeffs = {span_ids[i]: tuples[i] for i in range(d) if tuples[i]}
        if not coeffs:
            continue
        x = H.element(coeffs)
        dx = x.comult_apply()
        xx = {}
        for i, ci in x.coeffs.items():
            for j, cj in x.coeffs.items():
                key = (i, j)
                s = xx.get(key, zero) + ci * cj
                if s:
                    xx[key] = s
        if dx == xx and x.counit_apply() == one:
            found.append(x)
    return found


def test_criterion_04_group_likes():
    mp0 = dualize_trivial_action(make_B(3, 7, 2, 0))
    H0 = build_bismash(mp0)
    gl0 = group_likes_bismash(H0)
    assert len(gl0) == 21
    mp1 = dualize_trivial_action(make_B(3, 7, 2, 1))
    H1 = build_bismash(mp1)
    gl1 = group_likes_bismash(H1)
    assert len(gl1) == 3

    # span check: the 21 group-likes span exactly {e_(g^i) b^j}
    F2 = mp0.F
    b = F2.generators["b"]
    allowed = {H0.gf_index(g, F2.power(b, j)) for g in range(3) for j in range(7)}
    rs = RowSpace()
    for x in gl0:
        assert set(x.coeffs) <= allowed
        rs.add(dict(x.coeffs))
    assert rs.dim == 21

    # independent brute force on the 21-dimensional span for both duals
    span1 = sorted(H1.gf_index(g, F2.power(b, j))
                   for g in range(3) for j in range(7))
    brute1 = _brute_force_group_likes(H1, span1, 21)
    assert len(brute1) == 3
    for x in brute1:
        assert any(dict(x.coeffs) == dict(y.coeffs) for y in gl1)
    span0 = sorted(allowed)
    brute0 = _brute_force_group_likes(H0, span0, 21)
    assert len(brute0) == 21
    report(4, "group-likes", "21 and 3 group-likes; span = 21-dim idempotent "
           "band; brute-force eigenspace search agrees on both duals")


def test_criterion_05_A0_braidings():
    H = build_bismash(make_A(7, 3, 2, 0))
    forms = braiding_A_search(H)
    assert len(forms) == 3
    built = [braiding_A0_construct(H, k) for k in range(3)]
    for f in forms:
        assert verify_coqt(f.host, f).passed
        assert any(f.values == g.values for g in built)
    for g in built:
        assert any(f.values == g.values for f in forms)
    report(5, "braidings on the untwisted index", "exactly 3 forms, all "
           "verified, equal to the cube-root parametrized family")


def test_criterion_06_A_nogo():
    # restriction premise: only the trivial invariant bicharacter on <a>
    mp = make_A(7, 3, 2, 1)
    G = mp.G
    a = G.generators["a"]
    dec = abelian_decomposition(G, G.subgroup_closure([a]))
    perm = np.asarray(conjugation_map(G, G.generators["b"], dec))
    invariant = []
    for e in enumerate_bicharacters(dec):
        W, L = index_matrix(e, dec)
        if ((W[np.ix_(perm, perm)] - W) % L == 0).all():
            invariant.append(e)
    assert len(invariant) == 1 and not invariant[0].any()

    assert braiding_A_search(build_bismash(make_A(7, 3, 2, 1))) == []
    assert braiding_A_search(build_bismash(make_A(7, 3, 2, 2))) == []
    report(6, "no braidings at twisted indices", "searches at indices 1, 2 "
           "return empty; restriction premise independently verified")


def test_criterion_07_B_classification():
    expected = {0: 7, 1: 1}
    for lam in (0, 1):
        t0 = time.monotonic()
        res = qt_B_enumerate(3, 7, 2, lam)
        elapsed = time.monotonic() - t0
        assert elapsed < 600.0
        assert res.oracle_equivalent
        assert res.filter_keys == res.oracle_keys
        assert len(res) == expected[lam]  # frozen regression counts
        assert len(res) > 0
    report(7, "tau-twisted classification", "filter set = oracle set over all "
           "2401 bicharacters at both indices; survivors 7 and 1, all fully "
           "verified")


def test_criterion_08_B_dual_nogo():
    rep1 = no_qt_B_dual(3, 7, 2, 1)
    assert rep1.branch == "nonzero"
    assert rep1.candidates_checked == 3 and rep1.all_fail
    rep0 = no_qt_B_dual(3, 7, 2, 0)
    assert rep0.branch == "zero"
    assert rep0.nullspace_dim == 49
    assert rep0.support_condition_holds
    assert rep0.annihilator_holds
    report(8, "no-go on the duals", "every bicharacter fails the intertwiner "
           "at the nonzero index; at index 0 all 49 nullspace solutions are "
           "supported on the identity idempotent and annihilated")


def test_criterion_09_group_algebras():
    # frozen survivor counts per family
    cases = [
        ("gamma3", dict(p=7, q=3, m=2), 63, 3),
        ("gamma5", dict(p=7, q=3, m=2), 63, 3),
        ("gamma6", dict(p=7, q=3, m=2, n=4), 63, 3),
        ("beta7", dict(p=3, q=5), 75, 25),
        ("beta4", dict(p=3, q=7, m=2), 147, 7),
        ("beta5", dict(p=3, q=7, m=2), 147, 1),
        ("beta6", dict(p=3, q=7, m=2, n=4), 147, 49),
        # the order-75 variant of the cyclic-kernel family does not exist
        # (no residue of order 3 mod 25); its smallest instance is order 147
        ("beta3", dict(p=3, q=7, m=18), 147, 1),
    ]
    for fam, params, order, count in cases:
        G = build_group(fam, **params)
        assert G.order == order
        res = qt_group_algebra_enumerate(G)
        assert res.oracle_equivalent, fam
        assert len(res) == count, fam
        assert any(w.is_trivial() for w, _ in res), fam
    for m in range(2, 25):
        with pytest.raises(ParameterError):
            build_group("beta3", p=3, q=5, m=m)
    report(9, "group algebras", "invariance filter, closed-form conditions "
           "and full verifier coincide on all eight families; 1x1 always "
           "present; the order-75 cyclic-kernel variant is correctly "
           "rejected as nonexistent")


def test_criterion_10_mutation_sensitivity():
    rng = random.Random(20260808)
    total = 0
    for tag, mp in (("A1", make_A(7, 3, 2, 1)), ("B1", make_B(3, 7, 2, 1))):
        N = mp.conductor
        ng, nf = mp.G.order, mp.F.order
        H = build_bismash(mp)
        for _ in range(14):
            kind = rng.randrange(3)
            if kind == 0:
                bad = mp.with_sigma_scaled(rng.randrange(ng), rng.randrange(nf),
                                           rng.randrange(nf), 1)
                assert not validate_matched_pair(bad).passed
            elif kind == 1:
                bad = mp.with_tau_scaled(rng.randrange(ng), rng.randrange(ng),
                                         rng.randrange(nf), 1)
                assert not validate_matched_pair(bad).passed
            else:
                i = rng.randrange(H.dim)
                j = rng.choice(sorted(H.mult[i]))
                k = H.mult[i][j][0][0]
                badH = H.with_scaled_mult_entry(i, j, k, zeta(N))
                assert not verify_hopf_axioms(badH).passed
            total += 1
    # single-entry braiding-form mutants of the A0 forms: one value scaled
    # by zeta_q, or dropped
    braidings = 0
    A0 = build_bismash(make_A(7, 3, 2, 0))
    for k in range(3):
        form = braiding_A0_construct(A0, k)
        keys = sorted(form.values)
        for _ in range(3):
            key = rng.choice(keys)
            values = dict(form.values)
            if rng.randrange(2):
                values[key] = values[key] * zeta(3)
            else:
                del values[key]
            bad = BraidingForm(form.host, values)
            assert not verify_coqt(form.host, bad).passed, key
            braidings += 1
    # single Delta coefficients scaled by zeta_N: the mutants keep their
    # exponent tables, so the coalgebra sweeps run on the tables
    coproducts = 0
    for mp in (make_A(7, 3, 2, 1), make_B(3, 7, 2, 1)):
        H = build_bismash(mp)
        for _ in range(4):
            i = rng.randrange(H.dim)
            t = rng.randrange(len(H.comult[i]))
            badH = comult_mutant(H, i, t, zeta_scaled(mp.conductor))
            assert badH.comult_tables() is not None
            assert not verify_hopf_axioms(badH).passed, (i, t)
            coproducts += 1
    # single entries of an invariant bicharacter's exponent matrix shifted:
    # the R-matrix mutants go through the certified verifier of the
    # group-algebra enumeration
    r_matrices = 0
    for fam, params in (("gamma3", dict(p=7, q=3, m=2)), ("beta7", dict(p=3, q=5))):
        res = qt_group_algebra_enumerate(build_group(fam, **params))
        sup = res[0][1].sup
        conj = sup.conj_perms()
        for _ in range(4):
            _, R = rng.choice(res)
            W, L = R.W.copy(), R.L
            s, t = rng.randrange(sup.m), rng.randrange(sup.m)
            W[s, t] = (W[s, t] + 1 + rng.randrange(L - 1)) % L
            assert not verify_qt_certified(CertifiedR(sup, W, L), conj).passed, \
                (fam, s, t)
            r_matrices += 1
    assert total >= 28 and braidings == 9 and coproducts == 8 and r_matrices == 8
    report(10, "mutation sensitivity", f"{total} random single-value "
           f"mutations, {coproducts} coproduct mutations, {braidings} "
           f"braiding-form mutations and {r_matrices} R-matrix mutations, "
           "every one caught by a verifier")

import random
import tracemalloc

import numpy as np
import pytest

from hopfqt.exactfield import CycloNumber, zeta
from hopfqt.grouptool import ParameterError, abelian_group, cyclic_group
from hopfqt import bismash
from hopfqt.bismash import (
    BismashHopf,
    MatchedPair,
    build_bismash,
    dual_iso_check,
    dualize_trivial_action,
    dump_matched_pair,
    load_matched_pair,
    make_A,
    make_B,
    validate_matched_pair,
)
from hopfqt.hopfcore import dual_hopf, dump_structure, group_algebra, verify_hopf_axioms

from test_hopfcore import hopf_structures_equal


def trivial_pair(orders_g, orders_f):
    """Untwisted data on abelian G, F with trivial actions and sigma=tau=1."""
    G = abelian_group(orders_g)
    F = abelian_group(orders_f)
    act_left = [[g for _ in range(F.order)] for g in range(G.order)]
    act_right = [[f for f in range(F.order)] for _ in range(G.order)]
    sigma = np.zeros((G.order, F.order, F.order), dtype=np.int64)
    tau = np.zeros((G.order, G.order, F.order), dtype=np.int64)
    return MatchedPair(G, F, act_left, act_right, sigma, tau, 1, name="trivial")


def failure_profile(rep):
    """(condition, witness count, first witness) in the order found."""
    return [(cond, len(ws), ws[0]) for cond, ws in rep.failures.items()]


# ---------------------------------------------------------------------------
# validation


def test_validate_A_family():
    assert validate_matched_pair(make_A(7, 3, 2, 0)).passed
    assert validate_matched_pair(make_A(7, 3, 2, 1)).passed
    assert validate_matched_pair(make_A(7, 3, 2, 2)).passed


def test_validate_B_family():
    assert validate_matched_pair(make_B(3, 7, 2, 0)).passed
    assert validate_matched_pair(make_B(3, 7, 2, 1)).passed


def test_B_top_index_has_no_valid_cocycle():
    # at lam = p-1 the geometric-sum exponent degenerates (base 1) and the
    # tau transport cannot close up around the F-cycle
    rep = validate_matched_pair(make_B(3, 7, 2, 2))
    assert not rep.passed
    assert failure_profile(validate_matched_pair(make_B(3, 7, 2, 2))) == [
        ("sigma-tau compatibility", 5292, (1, 7, 1, 2))]


def test_validate_mutated_sigma_fails():
    mp = make_A(7, 3, 2, 1)
    bad = mp.with_sigma_scaled(mp.G.generators["b"], 1, 1, 1)
    assert not validate_matched_pair(bad).passed
    assert failure_profile(validate_matched_pair(bad)) == [
        ("sigma cocycle", 4, (1, 1, 1, 2)),
        ("sigma-tau compatibility", 58, (1, 1, 1, 1))]


def test_validate_mutated_tau_fails():
    mp = make_B(3, 7, 2, 1)
    bad = mp.with_tau_scaled(mp.G.generators["a"], mp.G.generators["b"], 1, 1)
    assert not validate_matched_pair(bad).passed
    assert failure_profile(validate_matched_pair(bad)) == [
        ("tau cocycle", 190, (1, 7, 1, 1)),
        ("sigma-tau compatibility", 5, (7, 1, 1, 1))]


def test_validate_unit_block_order():
    # the unit block checks its conditions element by element
    mp = trivial_pair([3], [5])
    mp.act_left[1][0] = 2
    mp.act_right[0][1] = 0
    unit = [("g <| 1 = g", 1, (1,)), ("1 |> f = f", 1, (1,))]
    assert failure_profile(validate_matched_pair(mp)) == unit + [
        ("g |> (f f') = (g |> f)((g <| f) |> f')", 10, (0, 1, 1)),
        ("(g g') <| f = (g <| (g' |> f))(g' <| f)", 5, (1, 0, 1))]


def test_make_A_parameter_validation():
    with pytest.raises(ParameterError):
        make_A(7, 3, 3, 0)  # 3^3 = 27 = 6 mod 7
    with pytest.raises(ParameterError):
        make_A(5, 3, 2, 0)  # 5 != 1 mod 3
    with pytest.raises(ParameterError):
        make_A(7, 3, 2, 3)  # l out of range


def test_make_B_parameter_validation():
    with pytest.raises(ParameterError):
        make_B(3, 7, 3, 0)  # 3^3 = 27 = 6 mod 7
    with pytest.raises(ParameterError):
        make_B(3, 5, 2, 0)  # 5 != 1 mod 3


# ---------------------------------------------------------------------------
# cocycle values against the defining formulas


def test_A_sigma_values():
    mp = make_A(7, 3, 2, 1)
    G, b = mp.G, mp.G.generators["b"]
    # carry(2,2) = 1, j = 1, l = 1: sigma(b, g^2, g^2) = omega
    assert mp.sigma[b][2][2] == 1
    a = G.generators["a"]
    for m in range(3):
        for n in range(3):
            assert mp.sigma[a][m][n] == 0
    # l = 0 kills the twist entirely
    mp0 = make_A(7, 3, 2, 0)
    assert all(mp0.sigma[g][m][n] == 0
               for g in range(21) for m in range(3) for n in range(3))


def test_B_tau_values():
    mp = make_B(3, 7, 2, 1)
    G = mp.G
    a, b = G.generators["a"], G.generators["b"]
    # tau(-, -, identity of F) = 1
    assert all(mp.tau[g][g2][0] == 0 for g in range(49) for g2 in range(49))
    # first power of the geometric sum is 1: tau(b, a, g) = zeta
    assert mp.tau[b][a][1] == 1
    assert mp.tau[a][b][1] == 0
    # no b-part in the first slot kills the exponent
    for g2 in range(49):
        for n in range(mp.F.order):
            assert mp.tau[a][g2][n] == 0


# ---------------------------------------------------------------------------
# construction


def test_build_dimensions():
    assert build_bismash(make_A(7, 3, 2, 0)).dim == 63
    assert build_bismash(make_B(3, 7, 2, 0)).dim == 147


def test_build_rejects_invalid_pair():
    mp = make_A(7, 3, 2, 1)
    bad = mp.with_sigma_scaled(mp.G.generators["b"], 1, 1, 1)
    with pytest.raises(ParameterError) as err:
        build_bismash(bad)
    assert str(err.value) == ("matched pair invalid: sigma cocycle fails at "
                              "(1, 1, 1, 2)")


def reference_build_bismash(mp):
    """k^G # kF from its rows, one FiniteGroup.mul or inv call per entry,
    the tables derived from the rows: the row builder that build_bismash
    replaced."""
    assert validate_matched_pair(mp).passed
    G, F = mp.G, mp.F
    ng, nf, N = G.order, F.order, mp.conductor
    root = {}

    def rt(e):
        return root.setdefault(e % N, zeta(N, e % N))

    al, ar = mp.act_left.tolist(), mp.act_right.tolist()
    sig, tau = mp.sigma.tolist(), mp.tau.tolist()
    idx = lambda g, f: g * nf + f
    mult = [dict() for _ in range(ng * nf)]
    for g in range(ng):
        for f in range(nf):
            for f2 in range(nf):
                mult[idx(g, f)][idx(al[g][f], f2)] = ((idx(g, F.mul(f, f2)),
                                                       rt(sig[g][f][f2])),)
    comult = []
    for g in range(ng):
        for f in range(nf):
            terms = []
            for g1 in range(ng):
                g2 = G.mul(G.inv(g1), g)
                terms.append((idx(g1, ar[g2][f]), idx(g2, f), rt(tau[g1][g2][f])))
            comult.append(tuple(terms))
    one = rt(0)
    unit = {idx(g, 0): one for g in range(ng)}
    counit = [one if g == 0 else CycloNumber.zero(N) for g in range(ng) for _ in range(nf)]
    antipode = []
    for g in range(ng):
        ginv = G.inv(g)
        for f in range(nf):
            gf_r_inv = F.inv(ar[g][f])
            e = -sig[ginv][ar[g][f]][gf_r_inv] - tau[ginv][g][f]
            antipode.append(((idx(G.inv(al[g][f]), gf_r_inv), rt(e)),))
    labels = [f"e({G.label(g)})#{F.label(f)}" for g in range(ng) for f in range(nf)]
    return BismashHopf(mp, ng * nf, N, mult, comult, unit, counit, antipode, labels)


def oracle_pairs():
    """A(7,3,l), B(3,7,lam), the valid duals, the trivial pair, and
    B(3,7,2,1) loaded back at conductor 14 with sigma and tau doubled."""
    pairs = [make_A(7, 3, 2, l) for l in range(3)] + [make_B(3, 7, 2, lam)
                                                      for lam in range(2)]
    pairs += [dualize_trivial_action(mp) for mp in pairs if mp.right_trivial()]
    mp = make_B(3, 7, 2, 1)
    lines = dump_matched_pair(MatchedPair(
        mp.G, mp.F, mp.act_left, mp.act_right, 2 * mp.sigma, 2 * mp.tau, 14,
        name="B(3,7,2,1) at 14")).splitlines()
    return pairs + [trivial_pair([3], [5]), load_matched_pair("\n".join(lines) + "\n")]


def test_build_from_tables_matches_reference():
    """build_bismash equals the row-built reference: the same dump bytes,
    tables and dtypes, structure constants, and key order of every mult
    row (which orders the witnesses of the counit algebra-map sweep)."""
    pairs = oracle_pairs()
    assert len(pairs) == 12 and pairs[-1].conductor == 14
    assert pairs[-1].sigma.any() or pairs[-1].tau.any()
    for mp in pairs:
        H, ref = build_bismash(mp), reference_build_bismash(mp)
        # compared outside the assert: pytest's diff of two dumps takes minutes
        same_dump = dump_structure(H) == dump_structure(ref)
        assert same_dump, mp.name
        for got, want in ((H.mult_tables(), ref.mult_tables()),
                          (H.comult_tables(), ref.comult_tables())):
            assert all(np.array_equal(a, b) and a.dtype == b.dtype
                       for a, b in zip(got, want, strict=True)), mp.name
        assert hopf_structures_equal(H, ref), mp.name
        assert [list(row) for row in H.mult] == [list(row) for row in ref.mult]


def _rows_peak(H):
    tracemalloc.start()
    try:
        H.mult, H.comult
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_row_reads_allocate_by_entries_not_conductor():
    """Reading the rows of a table host builds one root per exponent that
    occurs, not one per exponent below the conductor."""
    N = 10**6
    mp = trivial_pair([3], [5])
    mp = MatchedPair(mp.G, mp.F, mp.act_left, mp.act_right, mp.sigma, mp.tau, N)
    for H in (group_algebra(cyclic_group(3), N), build_bismash(mp)):
        assert H.conductor == N
        assert _rows_peak(H) <= 2**16
        assert H.mult[1] == {j: ((k, CycloNumber.one(N)),)
                             for j, k in enumerate(H.mult_tables()[0][1].tolist())
                             if k >= 0}


def test_trivial_pair_gives_group_algebra_like_hopf():
    H = build_bismash(trivial_pair([3], [5]))
    assert H.dim == 15
    rep = verify_hopf_axioms(H)
    assert rep.passed
    # untwisted case: S^2 = id
    from hopfqt.hopfcore import antipode_diagnostics
    assert antipode_diagnostics(H).s2_is_id


def test_product_formula_spot_check():
    mp = make_A(7, 3, 2, 0)
    H = build_bismash(mp)
    G = mp.G
    a = G.generators["a"]
    # e_a # g times e_(a <| g) # g = sigma(a, g, g) e_a # g^2
    i = H.gf_index(a, 1)
    j = H.gf_index(mp.act_left[a][1], 1)
    terms = H.mult[i][j]
    assert len(terms) == 1
    k, c = terms[0]
    assert k == H.gf_index(a, 2)
    assert c == zeta(3, mp.sigma[a][1][1])


def test_dual_basis_product_identity():
    # E_(g;f) E_(g';f') = delta_(f,f') tau(g,g',f) E_(gg';f) when |> is trivial
    for mp in (make_A(7, 3, 2, 1), make_B(3, 7, 2, 1)):
        H = build_bismash(mp)
        Hd = dual_hopf(H)
        G, F = mp.G, mp.F
        for g in range(G.order):
            for g2 in range(G.order):
                for f in range(F.order):
                    for f2 in range(F.order):
                        i, j = H.gf_index(g, f), H.gf_index(g2, f2)
                        terms = dict(Hd.mult[i].get(j, ()))
                        if f != f2:
                            assert not terms
                            continue
                        k = H.gf_index(G.mul(g, g2), f)
                        assert set(terms) == {k}
                        assert terms[k] == zeta(mp.conductor, mp.tau[g][g2][f])
            if g > 6:
                break  # full sweep is quadratic; a band suffices here


# ---------------------------------------------------------------------------
# dualization


def test_dualize_matches_derived_sigma_table():
    # sigma'(g^n, a^i b^j, a^k b^l) = zeta_n^(j k m^((lam+1) n)) with the
    # consistency-corrected zeta_n
    p, q, m, lam = 3, 7, 2, 1
    mp = make_B(p, q, m, lam)
    d = dualize_trivial_action(mp)
    G2, F2 = d.G, d.F  # G' = Z_p, F' = Z_q x Z_q
    assert G2.order == p and F2.order == q * q
    u = pow(m, -1, q)
    r = pow(u, lam + 1, q)
    c = [sum(pow(r, s, q) for s in range(n)) % q for n in range(p)]
    for n in range(p):
        for (i, j) in [(1, 0), (0, 1), (2, 3), (4, 5)]:
            for (k, l) in [(1, 0), (0, 1), (3, 2), (6, 1)]:
                x = F2.states.index((i, j))
                y = F2.states.index((k, l))
                expected = c[n] * j * k * pow(m, (lam + 1) * n, q) % q
                assert d.sigma[n][x][y] == expected


def test_dualize_B0_tau_trivial():
    d = dualize_trivial_action(make_B(3, 7, 2, 0))
    assert all(d.tau[f][f2][g] == 0
               for f in range(3) for f2 in range(3) for g in range(49))


def test_dualize_requires_trivial_right_action():
    d = dualize_trivial_action(make_B(3, 7, 2, 1))
    with pytest.raises(ParameterError):
        dualize_trivial_action(d)


def test_dualize_involution_on_trivial_data():
    mp = trivial_pair([3], [5])
    dd = dualize_trivial_action(dualize_trivial_action(mp))
    assert dd.G.order == mp.G.order and dd.F.order == mp.F.order
    assert np.array_equal(dd.act_left, mp.act_left)
    assert np.array_equal(dd.act_right, mp.act_right)
    assert all(dd.sigma[g][f][f2] == mp.sigma[g][f][f2]
               for g in range(3) for f in range(5) for f2 in range(5))


def test_dual_iso_check_families():
    assert dual_iso_check(make_B(3, 7, 2, 0)).passed
    assert dual_iso_check(make_B(3, 7, 2, 1)).passed
    assert dual_iso_check(trivial_pair([3], [5])).passed
    assert dual_iso_check(make_A(7, 3, 2, 0)).passed


# ---------------------------------------------------------------------------
# matched-pair text format


def test_matched_pair_roundtrip():
    for mp in (make_A(7, 3, 2, 1), make_B(3, 7, 2, 1)):
        text = dump_matched_pair(mp)
        back = load_matched_pair(text)
        assert back.conductor == mp.conductor
        assert np.array_equal(back.act_left, mp.act_left)
        assert np.array_equal(back.act_right, mp.act_right)
        ng, nf = mp.G.order, mp.F.order
        assert all(back.sigma[g][f][f2] == mp.sigma[g][f][f2]
                   for g in range(ng) for f in range(nf) for f2 in range(nf))
        assert all(back.tau[g][g2][f] == mp.tau[g][g2][f]
                   for g in range(ng) for g2 in range(ng) for f in range(nf))
        assert validate_matched_pair(back).passed


def test_load_matched_pair_rejects_truncation():
    text = dump_matched_pair(trivial_pair([3], [5]))
    lines = text.splitlines()
    for cut in (0, 2, lines.index("actl") + 2, len(lines) - 2):
        with pytest.raises(ValueError, match="truncated after line"):
            load_matched_pair("\n".join(lines[:cut]) + "\n")


@pytest.mark.parametrize("value", ["0", "-3", "x", str(2**64 + 13)])
def test_load_matched_pair_rejects_bad_conductor(value):
    lines = dump_matched_pair(trivial_pair([3], [5])).splitlines()
    lines[1] = f"conductor {value}"
    with pytest.raises(ValueError, match="at line 2$"):
        load_matched_pair("\n".join(lines) + "\n")


@pytest.mark.parametrize("header", ["sigma", "tau"])
def test_load_matched_pair_rejects_out_of_range_exponent(header):
    # 5 is no exponent of a cube root of unity
    lines = dump_matched_pair(trivial_pair([3], [5])).splitlines()
    lines[1] = "conductor 3"
    i = lines.index(header) + 1
    lines[i] = " ".join(["5"] + lines[i].split()[1:])
    with pytest.raises(ValueError, match=f"at line {i + 1}$"):
        load_matched_pair("\n".join(lines) + "\n")


@pytest.mark.parametrize("header,value", [("actl", "7"), ("actl", "-1"),
                                          ("actr", "5"), ("actr", "-1")])
def test_load_matched_pair_rejects_out_of_range_action(header, value):
    # |G| = 3 and |F| = 5: actl entries lie in G, actr entries in F
    lines = dump_matched_pair(trivial_pair([3], [5])).splitlines()
    i = lines.index(header) + 1
    lines[i] = " ".join([value] + lines[i].split()[1:])
    with pytest.raises(ValueError, match=f"at line {i + 1}$"):
        load_matched_pair("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# mutation sensitivity


@pytest.mark.parametrize("seed", [0, 1])
def test_mutation_sensitivity_sampled(seed):
    rng = random.Random(1234 + seed)
    mp = make_A(7, 3, 2, 1) if seed == 0 else make_B(3, 7, 2, 1)
    N = mp.conductor
    ng, nf = mp.G.order, mp.F.order
    for _ in range(5):
        if rng.random() < 0.5:
            g = rng.randrange(ng)
            f, f2 = rng.randrange(nf), rng.randrange(nf)
            bad = mp.with_sigma_scaled(g, f, f2, 1)
        else:
            g, g2 = rng.randrange(ng), rng.randrange(ng)
            f = rng.randrange(nf)
            bad = mp.with_tau_scaled(g, g2, f, 1)
        assert not validate_matched_pair(bad).passed


def test_mutation_sensitivity_exhaustive():
    # every single-site sigma and tau mutant of A_1(7,3): 189 + 1323 sites
    mp = make_A(7, 3, 2, 1)
    assert mp.sigma.size + mp.tau.size == 1512
    missed = [("sigma", s) for s in np.ndindex(mp.sigma.shape)
              if validate_matched_pair(mp.with_sigma_scaled(*s, 1)).passed]
    missed += [("tau", s) for s in np.ndindex(mp.tau.shape)
               if validate_matched_pair(mp.with_tau_scaled(*s, 1)).passed]
    assert not missed


def test_build_raises_the_first_failure_of_the_full_report():
    """build_bismash stops at the first failing witness; its message names
    the first condition and witness of the full validate_matched_pair
    report, on sigma, tau and action mutants of A(7,3,l=1) and B(3,7,lam=1)."""
    rng = random.Random(20)
    raised = 0
    for mp in (make_A(7, 3, 2, 1), make_B(3, 7, 2, 1)):
        ng, nf, N = mp.G.order, mp.F.order, mp.conductor
        for _ in range(120):
            kind = rng.choice(["sigma", "tau", "left", "right"])
            if kind == "sigma":
                site = (rng.randrange(ng), rng.randrange(nf), rng.randrange(nf))
                bad = mp.with_sigma_scaled(*site, rng.randrange(1, N))
            elif kind == "tau":
                site = (rng.randrange(ng), rng.randrange(ng), rng.randrange(nf))
                bad = mp.with_tau_scaled(*site, rng.randrange(1, N))
            else:
                al, ar = mp.act_left.copy(), mp.act_right.copy()
                g, f = rng.randrange(ng), rng.randrange(nf)
                if kind == "left":
                    al[g, f] = (al[g, f] + rng.randrange(1, ng)) % ng
                else:
                    ar[g, f] = (ar[g, f] + rng.randrange(1, nf)) % nf
                bad = MatchedPair(mp.G, mp.F, al, ar, mp.sigma, mp.tau, N,
                                  name=f"{mp.name}+{kind}-mutation")
            rep = validate_matched_pair(bad)
            assert not rep.passed
            cond, wits = next(iter(rep.failures.items()))
            with pytest.raises(ParameterError) as err:
                build_bismash(bad)
            assert str(err.value) == f"matched pair invalid: {cond} fails at {wits[0]}"
            raised += 1
    assert raised == 240


# ---------------------------------------------------------------------------
# blocked validation against the one-table-per-g generator


def reference_failures(mp):
    """The (condition, witness) sequence of _matched_pair_failures, with each
    cocycle and compatibility condition as one whole table per value of its
    first argument: |F|^3 elements per g for the sigma cocycle."""
    N = mp.conductor
    ng, nf = mp.G.order, mp.F.order
    gt, ft = mp.G.table, mp.F.table
    al, ar, sig, tau = mp.act_left, mp.act_right, mp.sigma, mp.tau

    def record(condition, bad, *prefix):
        return ((condition, (*prefix, *idx)) for idx in np.argwhere(bad).tolist())

    unit_g = np.stack([al[:, 0] != np.arange(ng), ar[:, 0] != 0], axis=1)
    for g, c in np.argwhere(unit_g).tolist():
        yield ("g <| 1 = g", "g |> 1 = 1")[c], (g,)
    unit_f = np.stack([al[0] != 0, ar[0] != np.arange(nf)], axis=1)
    for f, c in np.argwhere(unit_f).tolist():
        yield ("1 <| f = 1", "1 |> f = f")[c], (f,)
    for g in range(ng):
        yield from record("g |> (f f') = (g |> f)((g <| f) |> f')",
                          ar[g][ft] != ft[ar[g][:, None], ar[al[g]]], g)
    for g in range(ng):
        yield from record("(g g') <| f = (g <| (g' |> f))(g' <| f)",
                          al[gt[g]] != gt[al[g][ar], al], g)
    yield from record("sigma(1,f,f') = 1", sig[0] != 0)
    yield from record("sigma(g,1,f) = sigma(g,f,1) = 1",
                      (sig[:, 0] != 0) | (sig[:, :, 0] != 0))
    for g in range(ng):
        s = sig[g]
        yield from record("sigma cocycle",
                          (sig[al[g]] + s[:, ft] - s[:, :, None] - s[ft]) % N != 0, g)
    yield from record("tau(g,g',1) = 1", tau[:, :, 0] != 0)
    yield from record("tau(g,1,f) = tau(1,g',f) = 1", (tau[:, 0] != 0) | (tau[0] != 0))
    for g in range(ng):
        t = tau[g]
        yield from record("tau cocycle", (tau[gt[g]] + t[:, ar] - tau - t[gt]) % N != 0, g)
    for g in range(ng):
        t = tau[g]
        lhs = sig[gt[g]] + t[:, ft]
        rhs = (sig[g][ar[:, :, None], ar[al]] + sig + t[:, :, None]
               + tau[al[g][ar][:, :, None], al[:, :, None], np.arange(nf)])
        yield from record("sigma-tau compatibility", (lhs - rhs) % N != 0, g)


def test_blocked_validation_matches_whole_tables(monkeypatch):
    """Every witness in the same order as the whole-table generator, on
    sigma and tau mutants of A(7,3,1), B(3,7,1) and Bdual(3,7,1).  A block
    of 1000 elements splits the tau cocycle of A and B into ragged blocks
    of g' and gives one f (one g') per sigma cocycle (compatibility) block
    of Bdual; 5000 gives blocks of two."""
    rng = random.Random(22)
    pairs = (make_A(7, 3, 2, 1), make_B(3, 7, 2, 1),
             dualize_trivial_action(make_B(3, 7, 2, 1)))
    for mp in pairs:
        ng, nf, N = mp.G.order, mp.F.order, mp.conductor
        for _ in range(50):
            if rng.random() < 0.5:
                site = (rng.randrange(ng), rng.randrange(nf), rng.randrange(nf))
                bad = mp.with_sigma_scaled(*site, rng.randrange(1, N))
            else:
                site = (rng.randrange(ng), rng.randrange(ng), rng.randrange(nf))
                bad = mp.with_tau_scaled(*site, rng.randrange(1, N))
            expected = list(reference_failures(bad))
            assert expected
            for block in (1000, 5000, bismash.BLOCK):
                with monkeypatch.context() as m:
                    m.setattr(bismash, "BLOCK", block)
                    assert list(bismash._matched_pair_failures(bad)) == expected, \
                        (bad.name, site, block)


def _validation_peak(mp):
    tracemalloc.start()
    try:
        assert validate_matched_pair(mp).passed
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_validation_memory_is_bounded_by_the_block():
    # a loaded pair of |G| = 1, |F| = 150 is 120 KB of text, and one
    # |F|^3 table of the sigma cocycle alone would be 27 MB
    F = cyclic_group(150)
    wide = MatchedPair(abelian_group([]), F, [[0] * 150], [list(range(150))],
                       np.zeros((1, 150, 150), dtype=np.int64),
                       np.zeros((1, 1, 150), dtype=np.int64), 1, name="wide")
    text = dump_matched_pair(wide)
    assert 100_000 < len(text) < 140_000
    assert _validation_peak(load_matched_pair(text)) <= 16 * 2**20
    # Bdual(3,13): |G| = 3, |F| = 169
    assert _validation_peak(dualize_trivial_action(make_B(3, 13, 3, 0))) <= 16 * 2**20

"""Matched pairs of groups with cocycle data, and the twisted product
Hopf algebras k^G # kF built from them.

The built-in families are the two twisted series on groups of order p*q^2
(one with a nontrivial 2-cocycle sigma on the kF side, one with a nontrivial
dual cocycle tau on the k^G side) together with the dualization that swaps
the roles of G and F when the right action is trivial.
"""

from __future__ import annotations

import numpy as np

from .exactfield import CycloNumber
from .grouptool import (
    FiniteGroup,
    ParameterError,
    abelian_group,
    cyclic_group,
    is_prime,
    semidirect_pq,
)
from .hopfcore import HopfAlgebra, Report, _acc, _roots, dual_hopf


class MatchedPair:
    """The data (G, F, act_left, act_right, sigma, tau) as int64 tables.

    act_left[g, f] = g <| f in G and act_right[g, f] = g |> f in F, both of
    shape (|G|, |F|).  The cocycles take N-th roots of unity (N the
    conductor) and are stored as exponents e in 0..N-1, meaning zeta_N^e:
    sigma[g, f, f'] of shape (|G|, |F|, |F|) and tau[g, g', f] of shape
    (|G|, |G|, |F|).
    """

    def __init__(self, G: FiniteGroup, F: FiniteGroup, act_left, act_right,
                 sigma, tau, conductor, name=None):
        self.G = G
        self.F = F
        self.act_left = np.asarray(act_left, dtype=np.int64)
        self.act_right = np.asarray(act_right, dtype=np.int64)
        self.sigma = np.asarray(sigma, dtype=np.int64) % conductor
        self.tau = np.asarray(tau, dtype=np.int64) % conductor
        self.conductor = conductor
        self.name = name or "matched-pair"

    def left_trivial(self):
        return bool((self.act_left == np.arange(self.G.order)[:, None]).all())

    def right_trivial(self):
        return bool((self.act_right == np.arange(self.F.order)).all())

    def with_sigma_scaled(self, g, f, f2, k) -> "MatchedPair":
        """Copy with sigma(g, f, f2) multiplied by zeta_N^k."""
        sigma = self.sigma.copy()
        sigma[g, f, f2] += k
        return MatchedPair(self.G, self.F, self.act_left, self.act_right,
                           sigma, self.tau, self.conductor,
                           name=self.name + "+sigma-mutation")

    def with_tau_scaled(self, g, g2, f, k) -> "MatchedPair":
        """Copy with tau(g, g2, f) multiplied by zeta_N^k."""
        tau = self.tau.copy()
        tau[g, g2, f] += k
        return MatchedPair(self.G, self.F, self.act_left, self.act_right,
                           self.sigma, tau, self.conductor,
                           name=self.name + "+tau-mutation")

    def __repr__(self):
        return f"<MatchedPair {self.name}: |G|={self.G.order}, |F|={self.F.order}>"


def validate_matched_pair(mp: MatchedPair) -> Report:
    """Every witness of every condition of _matched_pair_failures."""
    rep = Report()
    for condition, witness in _matched_pair_failures(mp):
        rep.fail(condition, witness)
    return rep


# elements per block of a four-argument condition's table, so that validation
# allocates a few blocks and not |F|^3 per g
BLOCK = 2**18


def _matched_pair_failures(mp: MatchedPair):
    """(condition, witness) of each failing matched-pair identity, cocycle
    identity, normalization and the sigma-tau compatibility condition.

    Cocycle identities are exponent identities mod the conductor.  Each
    condition is one numpy table, or one per value of the first group
    argument when it has three arguments and per value of the first and block
    of the second (at most BLOCK elements, or one value) when it has four,
    built when the consumer asks past the witnesses before it, which come in
    lexicographic order.
    """
    N = mp.conductor
    ng, nf = mp.G.order, mp.F.order
    gt, ft = mp.G.table, mp.F.table
    al, ar, sig, tau = mp.act_left, mp.act_right, mp.sigma, mp.tau

    def record(condition, bad, *prefix, start=0):
        """The failures: the indices of True in bad, the first shifted by
        start, after prefix."""
        return ((condition, (*prefix, i[0] + start, *i[1:]))
                for i in np.argwhere(bad).tolist())

    def blocks(n, per_value):
        """Slices of 0..n-1 of at most BLOCK // per_value values each."""
        step = max(1, BLOCK // per_value)
        return (slice(lo, lo + step) for lo in range(0, n, step))

    # unit behaviour of the actions; the two conditions on G (and the two on
    # F) are checked element by element, so their witnesses interleave
    unit_g = np.stack([al[:, 0] != np.arange(ng), ar[:, 0] != 0], axis=1)
    for g, c in np.argwhere(unit_g).tolist():
        yield ("g <| 1 = g", "g |> 1 = 1")[c], (g,)
    unit_f = np.stack([al[0] != 0, ar[0] != np.arange(nf)], axis=1)
    for f, c in np.argwhere(unit_f).tolist():
        yield ("1 <| f = 1", "1 |> f = f")[c], (f,)
    for g in range(ng):
        # axes (f, f')
        yield from record("g |> (f f') = (g |> f)((g <| f) |> f')",
                          ar[g][ft] != ft[ar[g][:, None], ar[al[g]]], g)
    for g in range(ng):
        # axes (g', f)
        yield from record("(g g') <| f = (g <| (g' |> f))(g' <| f)",
                          al[gt[g]] != gt[al[g][ar], al], g)

    # sigma normalization and cocycle identity
    yield from record("sigma(1,f,f') = 1", sig[0] != 0)
    yield from record("sigma(g,1,f) = sigma(g,f,1) = 1",
                      (sig[:, 0] != 0) | (sig[:, :, 0] != 0))
    for g in range(ng):
        # axes (f, f', f''): sigma(g <| f, f', f'') sigma(g, f, f' f'')
        #                    = sigma(g, f, f') sigma(g, f f', f'')
        s = sig[g]
        for b in blocks(nf, nf * nf):
            bad = (sig[al[g, b]] + s[b][:, ft] - s[b, :, None] - s[ft[b]]) % N != 0
            yield from record("sigma cocycle", bad, g, start=b.start)

    # tau normalization and cocycle identity
    yield from record("tau(g,g',1) = 1", tau[:, :, 0] != 0)
    yield from record("tau(g,1,f) = tau(1,g',f) = 1", (tau[:, 0] != 0) | (tau[0] != 0))
    for g in range(ng):
        # axes (g', g'', f): tau(g g', g'', f) tau(g, g', g'' |> f)
        #                    = tau(g', g'', f) tau(g, g' g'', f)
        t = tau[g]
        for b in blocks(ng, ng * nf):
            bad = (tau[gt[g, b]] + t[b][:, ar] - tau[b] - t[gt[b]]) % N != 0
            yield from record("tau cocycle", bad, g, start=b.start)

    # compatibility of sigma and tau
    for g in range(ng):
        # axes (g', f, f'): sigma(g g', f, f') tau(g, g', f f')
        #   = sigma(g, g' |> f, (g' <| f) |> f') sigma(g', f, f')
        #     tau(g, g', f) tau(g <| (g' |> f), g' <| f, f')
        t = tau[g]
        for b in blocks(ng, nf * nf):
            lhs = sig[gt[g, b]] + t[b][:, ft]
            rhs = (sig[g][ar[b, :, None], ar[al[b]]] + sig[b] + t[b, :, None]
                   + tau[al[g][ar[b]][:, :, None], al[b, :, None], np.arange(nf)])
            yield from record("sigma-tau compatibility", (lhs - rhs) % N != 0,
                              g, start=b.start)


# ---------------------------------------------------------------------------


class BismashHopf(HopfAlgebra):
    """Hopf algebra on the basis e_g # f with the twisted product/coproduct.

    Basis index of e_g # f is g * |F| + f.
    """

    def __init__(self, mp: MatchedPair, *args, **kw):
        super().__init__(*args, **kw)
        self.mp = mp

    def gf_index(self, g, f):
        return g * self.mp.F.order + f

    def basis_gf(self, i):
        nf = self.mp.F.order
        return divmod(i, nf)

    def embed_f(self, f):
        """The group element f of F as sum_g e_g # f."""
        one = CycloNumber.one(self.conductor)
        return self.element({self.gf_index(g, f): one
                             for g in range(self.mp.G.order)})


def build_bismash(mp: MatchedPair) -> BismashHopf:
    """The Hopf algebra k^G # kF of a validated matched pair.  The product
    and the coproduct are passed as their exponent tables:
    b_(g,f) b_(g<|f, f2) = zeta^sigma(g,f,f2) b_(g, f f2), every other product
    zero, and Delta(b_(g,f)) = sum_(g1 g2 = g) zeta^tau(g1,g2,f)
    b_(g1, g2|>f) (x) b_(g2, f), terms in ascending g1."""
    for cond, witness in _matched_pair_failures(mp):
        raise ParameterError(f"matched pair invalid: {cond} fails at {witness}")
    G, F = mp.G, mp.F
    ng, nf = G.order, F.order
    dim = ng * nf
    N = mp.conductor
    al, ar, sig, tau = mp.act_left, mp.act_right, mp.sigma, mp.tau
    g, f = np.indices((ng, nf))

    targets = np.full((ng, nf, ng, nf), -1, dtype=np.int32)
    exps = np.zeros((ng, nf, ng, nf), dtype=np.int64)
    targets[g, f, al] = g[..., None] * nf + F.table[f]
    exps[g, f, al] = sig
    mult = (targets.reshape(dim, dim), exps.reshape(dim, dim),
            np.zeros((dim, dim), dtype=bool))

    # axes (g, f, g1) with g2 = g1^-1 g
    g1 = np.arange(ng)
    g2 = G.table[G.inverse[g1], g[..., None]]
    f3 = f[..., None]
    comult = tuple(np.broadcast_to(x, g2.shape).ravel() for x in (
        g[..., None] * nf + f3, g1 * nf + ar[g2, f3], g2 * nf + f3, tau[g1, g2, f3]))

    root = _roots(N)
    one = root(0)
    unit = {idx: one for idx in range(0, dim, nf)}
    counit = [one if g == 0 else CycloNumber.zero(N)
              for g in range(ng) for _ in range(nf)]
    # S(e_g # f) = zeta^e e_(g<|f)^-1 # (g|>f)^-1 with
    # e = -sigma(g^-1, g|>f, (g|>f)^-1) - tau(g^-1, g, f)
    ginv, arinv = G.inverse[g], F.inverse[ar]
    target = G.inverse[al] * nf + arinv
    e = -(sig[ginv, ar, arinv] + tau[ginv, g, f]) % N
    antipode = [((t, root(x)),) for t, x in zip(target.ravel().tolist(),
                                                 e.ravel().tolist())]

    labels = [f"e({G.label(g)})#{F.label(f)}" for g in range(ng) for f in range(nf)]
    return BismashHopf(mp, dim, N, mult, comult, unit, counit, antipode, labels)


# ---------------------------------------------------------------------------
# built-in families


def _states(G: FiniteGroup, shape):
    """The two state coordinates of every element of G, and the element at
    each pair of coordinates."""
    i, j = np.array(G.states).T
    ids = np.empty(shape, dtype=np.int64)
    ids[i, j] = np.arange(G.order)
    return i, j, ids


def make_A(p: int, q: int, t: int, l: int) -> MatchedPair:
    """Twisted family on G = Z_p x| Z_q, F = Z_q with a sigma cocycle.

    sigma(a^i b^j, g^m, g^n) = omega^(j*l*carry(m,n)) where carry(m,n) =
    floor((m+n)/q) and omega is a primitive q-th root of unity; tau = 1.
    """
    if not (is_prime(p) and is_prime(q)) or p == q or q == 2 or p == 2:
        raise ParameterError("p, q must be distinct odd primes")
    if (p - 1) % q:
        raise ParameterError("family A requires p = 1 (mod q)")
    if pow(t, q, p) != 1 or t % p == 1:
        raise ParameterError("t must have multiplicative order q mod p")
    if not 0 <= l <= q - 1:
        raise ParameterError("family index l out of range 0..q-1")
    G = semidirect_pq(p, q, t)
    F = cyclic_group(q, sym="g")
    i, j, ids = _states(G, (p, q))
    n = np.arange(q)
    t_pow = np.array([pow(t, k, p) for k in range(q)])
    act_left = ids[i[:, None] * t_pow % p, j[:, None]]
    act_right = np.tile(n, (G.order, 1))
    sigma = l * j[:, None, None] * ((n[:, None] + n) // q)
    tau = np.zeros((G.order, G.order, q), dtype=np.int64)
    return MatchedPair(G, F, act_left, act_right, sigma, tau, q,
                       name=f"A_{l}(p={p},q={q},t={t})")


def make_B(p: int, q: int, m: int, lam: int) -> MatchedPair:
    """Twisted family on G = Z_q x Z_q, F = Z_p with a tau cocycle.

    tau(a^i b^j, a^k b^l, g^n) = zeta_n^(j*k) with zeta_n =
    zeta^(1 + r + ... + r^(n-1)), r = m^(lam+1); sigma = 1.  The left action
    is a <| g^-i = a^(m^i), b <| g^-i = b^(m^(lam*i)).
    """
    if not (is_prime(p) and is_prime(q)) or p == q or q == 2 or p == 2:
        raise ParameterError("p, q must be distinct odd primes")
    if (q - 1) % p:
        raise ParameterError("family B requires q = 1 (mod p)")
    if pow(m, p, q) != 1 or m % q == 1:
        raise ParameterError("m must have multiplicative order p mod q")
    if not 0 <= lam <= p - 1:
        raise ParameterError("family index out of range 0..p-1")
    G = abelian_group([q, q], syms=["a", "b"])
    F = cyclic_group(p, sym="g")
    u = pow(m, -1, q)
    i, j, ids = _states(G, (q, q))
    u_a = np.array([pow(u, k, q) for k in range(p)])
    u_b = np.array([pow(u, lam * k, q) for k in range(p)])
    act_left = ids[i[:, None] * u_a % q, j[:, None] * u_b % q]
    act_right = np.tile(np.arange(p), (G.order, 1))
    sigma = np.zeros((G.order, p, p), dtype=np.int64)
    # the cocycle transport of <| forces the geometric-sum base u^(lam+1),
    # u = m^-1; with base m^(lam+1) the compatibility condition fails
    r = pow(u, lam + 1, q)
    zeta_exp = np.array([sum(pow(r, s, q) for s in range(n)) % q for n in range(p)])
    tau = j[:, None, None] * i[None, :, None] * zeta_exp
    return MatchedPair(G, F, act_left, act_right, sigma, tau, q,
                       name=f"B_{lam}(p={p},q={q},m={m})")


# ---------------------------------------------------------------------------
# dualization


def dualize_trivial_action(mp: MatchedPair) -> MatchedPair:
    """The matched-pair data of the dual Hopf algebra, for trivial |>.

    Swaps G and F; the new right action is f |>' g = g <| f^-1, the new
    cocycles are sigma'(f, g, g') = tau(g <| f^-1, g' <| f^-1, f) and
    tau'(f, f', g) = sigma(g <| (f f')^-1, f, f').
    """
    if not mp.right_trivial():
        raise ParameterError("dualization requires the right action |> to be trivial")
    G, F = mp.G, mp.F
    f = np.arange(F.order)
    # G' = F with trivial <|'; F' = G with f |>' g = g <| f^-1
    act_left = np.tile(f[:, None], (1, G.order))
    act_right = mp.act_left[:, F.inverse].T
    sigma = mp.tau[act_right[:, :, None], act_right[:, None, :], f[:, None, None]]
    # axes (f, f', g) of g <| (f f')^-1
    twisted = mp.act_left[:, F.inverse[F.table]].transpose(1, 2, 0)
    tau = mp.sigma[twisted, f[:, None, None], f[None, :, None]]
    return MatchedPair(F, G, act_left, act_right, sigma, tau, mp.conductor,
                       name=f"dual({mp.name})")


def dual_iso_check(mp: MatchedPair) -> Report:
    """Verify that E_(g;f) -> e_f # (g <| f) is a Hopf isomorphism from the
    dual of k^G # kF onto the dualized matched-pair algebra."""
    rep = Report()
    H = build_bismash(mp)
    Hd = dual_hopf(H)
    D = build_bismash(dualize_trivial_action(mp))

    # phi as an index map: dual index (g, f) -> D index (f, g <| f)
    phi = [D.gf_index(f, gf) for row in mp.act_left.tolist()
           for f, gf in enumerate(row)]
    if len(set(phi)) != H.dim:
        rep.fail("bijective", ())
        return rep

    n = H.dim
    for i in range(n):
        for j, terms in Hd.mult[i].items():
            image = {}
            for k, c in terms:
                _acc(image, phi[k], c)
            if image != dict(D.mult[phi[i]].get(phi[j], ())):
                rep.fail("algebra map", (i, j))
        for j in range(n):
            if j not in Hd.mult[i] and phi[j] in D.mult[phi[i]]:
                rep.fail("algebra map (zero pattern)", (i, j))

    for i in range(n):
        lhs = {}
        for j, k, c in Hd.comult[i]:
            _acc(lhs, (phi[j], phi[k]), c)
        if lhs != {(j, k): c for j, k, c in D.comult[phi[i]]}:
            rep.fail("coalgebra map", (i,))

    image_unit = {}
    for i, c in Hd.unit.items():
        _acc(image_unit, phi[i], c)
    if image_unit != D.unit:
        rep.fail("unit", ())
    for i in range(n):
        if Hd.counit[i] != D.counit[phi[i]]:
            rep.fail("counit", (i,))
    for i in range(n):
        sa = {phi[j]: c for j, c in Hd.antipode[i]}
        sb = dict(D.antipode[phi[i]])
        if sa != sb:
            rep.fail("antipode", (i,))
    return rep


# ---------------------------------------------------------------------------
# matched-pair text format


def dump_matched_pair(mp: MatchedPair) -> str:
    """Structured text: group tables inline, then the action tables and the
    sigma/tau exponent tables at the declared conductor, one row per line."""
    ng, nf = mp.G.order, mp.F.order
    lines = ["hopfqt-matched-pair 1", f"conductor {mp.conductor}",
             f"name {mp.name}", "group G", mp.G.to_table_text().rstrip("\n"),
             "group F", mp.F.to_table_text().rstrip("\n")]
    for header, table in (("actl", mp.act_left), ("actr", mp.act_right),
                          ("sigma", mp.sigma.reshape(ng * nf, nf)),
                          ("tau", mp.tau.reshape(ng * ng, nf))):
        lines.append(header)
        lines += [" ".join(map(str, row)) for row in table.tolist()]
    lines.append("end")
    return "\n".join(lines) + "\n"


def load_matched_pair(text: str) -> MatchedPair:
    """Inverse of dump_matched_pair.  Truncated input, a conductor that is
    not an integer in 1..2^60, rows of the wrong width, action entries outside the
    group and exponents outside 0..conductor-1 raise ValueError naming the
    line."""
    lines = [(n, ln.rstrip()) for n, ln in enumerate(text.splitlines(), 1)
             if ln.strip()]
    pos = 0

    def take(count):
        nonlocal pos
        if pos + count > len(lines):
            last = lines[-1][0] if lines else 0
            raise ValueError(f"matched pair truncated after line {last}")
        pos += count
        return lines[pos - count:pos]

    def expect(prefix):
        [(n, ln)] = take(1)
        if not ln.startswith(prefix):
            raise ValueError(f"expected {prefix!r} at line {n}")
        return ln[len(prefix):].strip()

    expect("hopfqt-matched-pair 1")
    # the validator adds up to six exponents in int64
    conductor = expect("conductor")
    if not conductor.isdecimal() or not 1 <= int(conductor) <= 2**60:
        raise ValueError("conductor must be an integer in 1..2^60 at line "
                         f"{lines[pos - 1][0]}")
    N = int(conductor)
    name = expect("name")

    def read_group():
        order = expect("order ")
        if not order.isdigit():
            raise ValueError(f"bad group order at line {lines[pos - 1][0]}")
        rows = [ln for _, ln in take(int(order))]
        return FiniteGroup.from_table_text("\n".join([f"order {order}"] + rows))

    expect("group G")
    G = read_group()
    expect("group F")
    F = read_group()
    ng, nf = G.order, F.order

    def read_rows(count, bound=None):
        rows = []
        for n, ln in take(count):
            try:
                row = [int(x) for x in ln.split()]
            except ValueError:
                row = []
            if len(row) != nf or (
                    bound is not None and not all(0 <= x < bound for x in row)):
                span = "integers" if bound is None else f"integers in 0..{bound - 1}"
                raise ValueError(f"expected {nf} {span} at line {n}")
            rows.append(row)
        return rows

    expect("actl")
    act_left = read_rows(ng, ng)
    expect("actr")
    act_right = read_rows(ng, nf)
    expect("sigma")
    sigma = read_rows(ng * nf, N)
    expect("tau")
    tau = read_rows(ng * ng, N)
    expect("end")
    return MatchedPair(G, F, act_left, act_right, np.reshape(sigma, (ng, nf, nf)),
                       np.reshape(tau, (ng, ng, nf)), N, name=name)

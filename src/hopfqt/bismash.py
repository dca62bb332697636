"""Matched pairs of groups with cocycle data, and the twisted product
Hopf algebras k^G # kF built from them.

The built-in families are the two twisted series on groups of order p*q^2
(one with a nontrivial 2-cocycle sigma on the kF side, one with a nontrivial
dual cocycle tau on the k^G side) together with the dualization that swaps
the roles of G and F when the right action is trivial.
"""

from __future__ import annotations

from .exactfield import CycloNumber, zeta
from .grouptool import (
    FiniteGroup,
    ParameterError,
    abelian_group,
    cyclic_group,
    semidirect_pq,
)
from .hopfcore import HopfAlgebra, Report, dual_hopf


class MatchedPair:
    """The data (G, F, act_left, act_right, sigma, tau).

    act_left[g][f] = g <| f in G; act_right[g][f] = g |> f in F.
    sigma[g][f][f'] and tau[g][g'][f] are CycloNumbers (roots of unity).
    """

    def __init__(self, G: FiniteGroup, F: FiniteGroup, act_left, act_right,
                 sigma, tau, conductor, name=None):
        self.G = G
        self.F = F
        self.act_left = act_left
        self.act_right = act_right
        self.sigma = sigma
        self.tau = tau
        self.conductor = conductor
        self.name = name or "matched-pair"

    def left_trivial(self):
        return all(self.act_left[g][f] == g for g in range(self.G.order)
                   for f in range(self.F.order))

    def right_trivial(self):
        return all(self.act_right[g][f] == f for g in range(self.G.order)
                   for f in range(self.F.order))

    def with_sigma_scaled(self, g, f, f2, factor) -> "MatchedPair":
        sigma = [[row[:] for row in plane] for plane in self.sigma]
        sigma[g][f][f2] = sigma[g][f][f2] * factor
        return MatchedPair(self.G, self.F, self.act_left, self.act_right,
                           sigma, self.tau, self.conductor,
                           name=self.name + "+sigma-mutation")

    def with_tau_scaled(self, g, g2, f, factor) -> "MatchedPair":
        tau = [[row[:] for row in plane] for plane in self.tau]
        tau[g][g2][f] = tau[g][g2][f] * factor
        return MatchedPair(self.G, self.F, self.act_left, self.act_right,
                           self.sigma, tau, self.conductor,
                           name=self.name + "+tau-mutation")

    def __repr__(self):
        return f"<MatchedPair {self.name}: |G|={self.G.order}, |F|={self.F.order}>"


def validate_matched_pair(mp: MatchedPair, mode: str = "full") -> Report:
    """Check every matched-pair identity, cocycle identity, normalization and
    the sigma-tau compatibility condition on all argument tuples."""
    rep = Report()
    fast = mode == "fast"
    G, F = mp.G, mp.F
    ng, nf = G.order, F.order
    al, ar, sig, tau = mp.act_left, mp.act_right, mp.sigma, mp.tau

    def done():
        return fast and rep.failures

    # unit behaviour of the actions
    for g in range(ng):
        if al[g][0] != g:
            rep.fail("g <| 1 = g", (g,))
        if ar[g][0] != 0:
            rep.fail("g |> 1 = 1", (g,))
    for f in range(nf):
        if al[0][f] != 0:
            rep.fail("1 <| f = 1", (f,))
        if ar[0][f] != f:
            rep.fail("1 |> f = f", (f,))
    if done():
        return rep
    for g in range(ng):
        for f in range(nf):
            for f2 in range(nf):
                lhs = ar[g][F.mul(f, f2)]
                rhs = F.mul(ar[g][f], ar[al[g][f]][f2])
                if lhs != rhs:
                    rep.fail("g |> (f f') = (g |> f)((g <| f) |> f')", (g, f, f2))
                    if done():
                        return rep
    for g in range(ng):
        for g2 in range(ng):
            for f in range(nf):
                lhs = al[G.mul(g, g2)][f]
                rhs = G.mul(al[g][ar[g2][f]], al[g2][f])
                if lhs != rhs:
                    rep.fail("(g g') <| f = (g <| (g' |> f))(g' <| f)", (g, g2, f))
                    if done():
                        return rep

    # sigma normalization and cocycle identity
    one = CycloNumber.one(mp.conductor)
    for f in range(nf):
        for f2 in range(nf):
            if sig[0][f][f2] != one:
                rep.fail("sigma(1,f,f') = 1", (f, f2))
                if done():
                    return rep
    for g in range(ng):
        for f in range(nf):
            if sig[g][0][f] != one or sig[g][f][0] != one:
                rep.fail("sigma(g,1,f) = sigma(g,f,1) = 1", (g, f))
                if done():
                    return rep
    for g in range(ng):
        for f in range(nf):
            for f2 in range(nf):
                for f3 in range(nf):
                    lhs = sig[al[g][f]][f2][f3] * sig[g][f][F.mul(f2, f3)]
                    rhs = sig[g][f][f2] * sig[g][F.mul(f, f2)][f3]
                    if lhs != rhs:
                        rep.fail("sigma cocycle", (g, f, f2, f3))
                        if done():
                            return rep

    # tau normalization and cocycle identity
    for g in range(ng):
        for g2 in range(ng):
            if tau[g][g2][0] != one:
                rep.fail("tau(g,g',1) = 1", (g, g2))
                if done():
                    return rep
    for g in range(ng):
        for f in range(nf):
            if tau[g][0][f] != one or tau[0][g][f] != one:
                rep.fail("tau(g,1,f) = tau(1,g',f) = 1", (g, f))
                if done():
                    return rep
    for g in range(ng):
        for g2 in range(ng):
            for g3 in range(ng):
                for f in range(nf):
                    lhs = tau[G.mul(g, g2)][g3][f] * tau[g][g2][ar[g3][f]]
                    rhs = tau[g2][g3][f] * tau[g][G.mul(g2, g3)][f]
                    if lhs != rhs:
                        rep.fail("tau cocycle", (g, g2, g3, f))
                        if done():
                            return rep

    # compatibility of sigma and tau
    for g in range(ng):
        for g2 in range(ng):
            for f in range(nf):
                for f2 in range(nf):
                    lhs = sig[G.mul(g, g2)][f][f2] * tau[g][g2][F.mul(f, f2)]
                    g2f = ar[g2][f]          # g' |> f
                    g2_f = al[g2][f]         # g' <| f
                    rhs = (sig[g][g2f][ar[g2_f][f2]] * sig[g2][f][f2]
                           * tau[g][g2][f] * tau[al[g][g2f]][g2_f][f2])
                    if lhs != rhs:
                        rep.fail("sigma-tau compatibility", (g, g2, f, f2))
                        if done():
                            return rep
    return rep


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
    """The Hopf algebra k^G # kF of a validated matched pair."""
    rep = validate_matched_pair(mp, mode="fast")
    if not rep.passed:
        cond, wits = next(iter(rep.failures.items()))
        raise ParameterError(f"matched pair invalid: {cond} fails at {wits[0]}")
    G, F = mp.G, mp.F
    ng, nf = G.order, F.order
    dim = ng * nf
    N = mp.conductor
    idx = lambda g, f: g * nf + f

    mult = [dict() for _ in range(dim)]
    for g in range(ng):
        for f in range(nf):
            i = idx(g, f)
            gf = mp.act_left[g][f]
            row = mult[i]
            for f2 in range(nf):
                c = mp.sigma[g][f][f2]
                if c:
                    row[idx(gf, f2)] = ((idx(g, F.mul(f, f2)), c),)

    comult = []
    for g in range(ng):
        for f in range(nf):
            terms = []
            for g1 in range(ng):
                # g1 * g2 = g
                g2 = G.mul(G.inv(g1), g)
                c = mp.tau[g1][g2][f]
                terms.append((idx(g1, mp.act_right[g2][f]), idx(g2, f), c))
            comult.append(tuple(terms))

    one = CycloNumber.one(N)
    unit = {idx(g, 0): one for g in range(ng)}
    counit = [one if g == 0 else CycloNumber.zero(N)
              for g in range(ng) for _ in range(nf)]

    antipode = []
    for g in range(ng):
        ginv = G.inv(g)
        for f in range(nf):
            gf_r = mp.act_right[g][f]          # g |> f
            gf_r_inv = F.inv(gf_r)
            target = idx(G.inv(mp.act_left[g][f]), gf_r_inv)
            c = (mp.sigma[ginv][gf_r][gf_r_inv].inv()
                 * mp.tau[ginv][g][f].inv())
            antipode.append(((target, c),))

    labels = [f"e({G.label(g)})#{F.label(f)}" for g in range(ng) for f in range(nf)]
    return BismashHopf(mp, dim, N, mult, comult, unit, counit, antipode, labels)


# ---------------------------------------------------------------------------
# built-in families


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


def make_A(p: int, q: int, t: int, l: int) -> MatchedPair:
    """Twisted family on G = Z_p x| Z_q, F = Z_q with a sigma cocycle.

    sigma(a^i b^j, g^m, g^n) = omega^(j*l*carry(m,n)) where carry(m,n) =
    floor((m+n)/q) and omega is a primitive q-th root of unity; tau = 1.
    """
    if not (_is_prime(p) and _is_prime(q)) or p == q or q == 2 or p == 2:
        raise ParameterError("p, q must be distinct odd primes")
    if (p - 1) % q:
        raise ParameterError("family A requires p = 1 (mod q)")
    if pow(t, q, p) != 1 or t % p == 1:
        raise ParameterError("t must have multiplicative order q mod p")
    if not 0 <= l <= q - 1:
        raise ParameterError("family index l out of range 0..q-1")
    G = semidirect_pq(p, q, t)
    F = cyclic_group(q, sym="g")
    ng, nf = G.order, F.order

    act_right = [[f for f in range(nf)] for _ in range(ng)]
    act_left = [[0] * nf for _ in range(ng)]
    for g in range(ng):
        i, j = G.states[g]
        for m in range(nf):
            act_left[g][m] = G.states.index(((i * pow(t, m, p)) % p, j))

    one = CycloNumber.one(q)
    sigma = [[[one for _ in range(nf)] for _ in range(nf)] for _ in range(ng)]
    for g in range(ng):
        _, j = G.states[g]
        for m in range(nf):
            for n in range(nf):
                carry = (m + n) // q
                sigma[g][m][n] = zeta(q, j * l * carry)
    tau = [[[one for _ in range(nf)] for _ in range(ng)] for _ in range(ng)]
    return MatchedPair(G, F, act_left, act_right, sigma, tau, q,
                       name=f"A_{l}(p={p},q={q},t={t})")


def make_B(p: int, q: int, m: int, lam: int) -> MatchedPair:
    """Twisted family on G = Z_q x Z_q, F = Z_p with a tau cocycle.

    tau(a^i b^j, a^k b^l, g^n) = zeta_n^(j*k) with zeta_n =
    zeta^(1 + r + ... + r^(n-1)), r = m^(lam+1); sigma = 1.  The left action
    is a <| g^-i = a^(m^i), b <| g^-i = b^(m^(lam*i)).
    """
    if not (_is_prime(p) and _is_prime(q)) or p == q or q == 2 or p == 2:
        raise ParameterError("p, q must be distinct odd primes")
    if (q - 1) % p:
        raise ParameterError("family B requires q = 1 (mod p)")
    if pow(m, p, q) != 1 or m % q == 1:
        raise ParameterError("m must have multiplicative order p mod q")
    if not 0 <= lam <= p - 1:
        raise ParameterError("family index out of range 0..p-1")
    G = abelian_group([q, q], syms=["a", "b"])
    F = cyclic_group(p, sym="g")
    ng, nf = G.order, F.order
    u = pow(m, -1, q)

    act_right = [[f for f in range(nf)] for _ in range(ng)]
    act_left = [[0] * nf for _ in range(ng)]
    for g in range(ng):
        i, j = G.states[g]
        for n in range(nf):
            act_left[g][n] = G.states.index(
                ((i * pow(u, n, q)) % q, (j * pow(u, lam * n, q)) % q))

    one = CycloNumber.one(q)
    sigma = [[[one for _ in range(nf)] for _ in range(nf)] for _ in range(ng)]
    # the cocycle transport of <| forces the geometric-sum base u^(lam+1),
    # u = m^-1; with base m^(lam+1) the compatibility condition fails
    r = pow(u, lam + 1, q)
    zeta_exp = [sum(pow(r, s, q) for s in range(n)) % q for n in range(nf)]
    tau = [[[one for _ in range(nf)] for _ in range(ng)] for _ in range(ng)]
    for g1 in range(ng):
        _, j = G.states[g1]
        for g2 in range(ng):
            k, _ = G.states[g2]
            for n in range(nf):
                tau[g1][g2][n] = zeta(q, zeta_exp[n] * j * k)
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
    ng, nf = G.order, F.order

    # G' = F with trivial <|'; F' = G with f |>' g = g <| f^-1
    act_left = [[f for _ in range(ng)] for f in range(nf)]
    act_right = [[0] * ng for _ in range(nf)]
    for f in range(nf):
        finv = F.inv(f)
        for g in range(ng):
            act_right[f][g] = mp.act_left[g][finv]

    one = CycloNumber.one(mp.conductor)
    sigma = [[[one for _ in range(ng)] for _ in range(ng)] for _ in range(nf)]
    for f in range(nf):
        finv = F.inv(f)
        for g in range(ng):
            for g2 in range(ng):
                sigma[f][g][g2] = mp.tau[mp.act_left[g][finv]][mp.act_left[g2][finv]][f]
    tau = [[[one for _ in range(ng)] for _ in range(nf)] for _ in range(nf)]
    for f in range(nf):
        for f2 in range(nf):
            ff2_inv = F.inv(F.mul(f, f2))
            for g in range(ng):
                tau[f][f2][g] = mp.sigma[mp.act_left[g][ff2_inv]][f][f2]
    return MatchedPair(F, G, act_left, act_right, sigma, tau, mp.conductor,
                       name=f"dual({mp.name})")


def dual_iso_check(mp: MatchedPair) -> Report:
    """Verify that E_(g;f) -> e_f # (g <| f) is a Hopf isomorphism from the
    dual of k^G # kF onto the dualized matched-pair algebra."""
    rep = Report()
    H = build_bismash(mp)
    Hd = dual_hopf(H)
    D = build_bismash(dualize_trivial_action(mp))
    G, F = mp.G, mp.F
    nf = F.order

    # phi as an index map: dual index (g, f) -> D index (f, g <| f)
    phi = [0] * H.dim
    for g in range(G.order):
        for f in range(nf):
            phi[H.gf_index(g, f)] = D.gf_index(f, mp.act_left[g][f])
    if len(set(phi)) != H.dim:
        rep.fail("bijective", ())
        return rep

    n = H.dim
    for i in range(n):
        for j, terms in Hd.mult[i].items():
            image = {}
            for k, c in terms:
                image[phi[k]] = image.get(phi[k], CycloNumber.zero(H.conductor)) + c
            direct = dict(D.mult[phi[i]].get(phi[j], ()))
            image = {k: v for k, v in image.items() if v}
            if image != direct:
                rep.fail("algebra map", (i, j))
        for j in range(n):
            if j not in Hd.mult[i] and phi[j] in D.mult[phi[i]]:
                rep.fail("algebra map (zero pattern)", (i, j))

    for i in range(n):
        lhs = {}
        for j, k, c in Hd.comult[i]:
            key = (phi[j], phi[k])
            lhs[key] = lhs.get(key, CycloNumber.zero(H.conductor)) + c
        rhs = {(j, k): c for j, k, c in D.comult[phi[i]]}
        lhs = {k: v for k, v in lhs.items() if v}
        if lhs != rhs:
            rep.fail("coalgebra map", (i,))

    image_unit = {}
    for i, c in Hd.unit.items():
        image_unit[phi[i]] = image_unit.get(phi[i], CycloNumber.zero(H.conductor)) + c
    if {k: v for k, v in image_unit.items() if v} != D.unit:
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
    """Structured text: group tables inline, action tables, and sigma/tau as
    root-of-unity exponent tables at the declared conductor."""
    N = mp.conductor
    lines = [f"hopfqt-matched-pair 1", f"conductor {N}", f"name {mp.name}"]
    lines.append("group G")
    lines.append(mp.G.to_table_text().rstrip("\n"))
    lines.append("group F")
    lines.append(mp.F.to_table_text().rstrip("\n"))
    ng, nf = mp.G.order, mp.F.order
    lines.append("actl")
    for g in range(ng):
        lines.append(" ".join(str(mp.act_left[g][f]) for f in range(nf)))
    lines.append("actr")
    for g in range(ng):
        lines.append(" ".join(str(mp.act_right[g][f]) for f in range(nf)))

    def root_exp(c):
        r = c.lift(N).as_root()
        if r is None or r[1] != 1:
            raise ValueError("cocycle value is not a root of unity")
        return r[0]

    lines.append("sigma")
    for g in range(ng):
        for f in range(nf):
            lines.append(" ".join(str(root_exp(mp.sigma[g][f][f2]))
                                  for f2 in range(nf)))
    lines.append("tau")
    for g in range(ng):
        for g2 in range(ng):
            lines.append(" ".join(str(root_exp(mp.tau[g][g2][f]))
                                  for f in range(nf)))
    lines.append("end")
    return "\n".join(lines) + "\n"


def load_matched_pair(text: str) -> MatchedPair:
    """Inverse of dump_matched_pair.  Truncated input, rows of the wrong
    width and action entries outside the group raise ValueError naming the
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
    N = int(expect("conductor"))
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
    sig_rows = read_rows(ng * nf)
    expect("tau")
    tau_rows = read_rows(ng * ng)
    expect("end")

    sigma = [[[zeta(N, sig_rows[g * nf + f][f2]) for f2 in range(nf)]
              for f in range(nf)] for g in range(ng)]
    tau = [[[zeta(N, tau_rows[g * ng + g2][f]) for f in range(nf)]
            for g2 in range(ng)] for g in range(ng)]
    return MatchedPair(G, F, act_left, act_right, sigma, tau, N, name=name)

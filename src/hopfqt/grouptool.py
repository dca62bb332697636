"""Finite-group machinery: catalog constructors for groups of order p*q^2,
subgroup analysis, orthogonal idempotents and bicharacters of finite abelian
groups.

Groups are explicit multiplication tables on ids 0..n-1 with id 0 the
identity.  Every catalog group is one split extension N x| Q of abelian
groups, Q acting on N by integer matrices, built as one array broadcast.
Every table is verified: entries in range, the identity, associativity by
Light's test on a generating set, r n^2 work for r <= log2 n generators
(A. H. Clifford and G. B. Preston, *The algebraic theory of semigroups*,
Vol. I, 1.2), and inverses; each catalog group additionally checks its
defining relations, so a bad parameter can never produce a silently wrong
group.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from typing import NamedTuple

import numpy as np


class ParameterError(ValueError):
    """Raised when constructor parameters violate a stated condition."""


# ---------------------------------------------------------------------------


class FiniteGroup:
    def __init__(self, table, labels=None, generators=None, family_tag=None,
                 states=None):
        self.table = np.asarray(table, dtype=np.int32)
        n = self.table.shape[0]
        if self.table.shape != (n, n):
            raise ParameterError("multiplication table must be square")
        self.order = n
        self.labels = list(labels) if labels else [f"x{i}" for i in range(n)]
        self.generators = dict(generators or {})
        self.family_tag = family_tag
        self.states = states
        self._verify_table()
        # a verified table is a group's, so each row holds exactly one 0
        self.inverse = np.nonzero(self.table == 0)[1].astype(np.int32)

    def _verify_table(self):
        t = self.table
        n = self.order
        if not (np.all(t[0] == np.arange(n)) and np.all(t[:, 0] == np.arange(n))):
            raise ParameterError("id 0 is not a two-sided identity")
        if ((t < 0) | (t >= n)).any():
            raise ParameterError(f"table entries must lie in 0..{n - 1}")
        if _light_generators(t, 0) is None:
            raise ParameterError("multiplication table is not associative")
        for i in range(n):
            if 0 not in t[i]:
                raise ParameterError(f"element {i} has no inverse")

    # -- basic operations

    def mul(self, i, j):
        return int(self.table[i, j])

    def inv(self, i):
        return int(self.inverse[i])

    def power(self, i, k):
        if k < 0:
            i, k = self.inv(i), -k
        out, base = 0, i
        while k:
            if k & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            k >>= 1
        return out

    def order_of(self, i):
        k, x = 1, i
        while x != 0:
            x = self.mul(x, i)
            k += 1
        return k

    def conjugate(self, g, x):
        return self.mul(self.mul(g, x), self.inv(g))

    def label(self, i):
        return self.labels[i]

    def word(self, letters):
        """Product of named generators, e.g. word("a", "b", ("a", -1))."""
        out = 0
        for item in letters:
            if isinstance(item, tuple):
                name, k = item
                out = self.mul(out, self.power(self.generators[name], k))
            else:
                out = self.mul(out, self.generators[item])
        return out

    def is_abelian(self):
        return bool(np.array_equal(self.table, self.table.T))

    def conjugacy_classes(self):
        # conj[g, x] = g x g^-1
        conj = self.table[self.table, self.inverse[:, None]]
        seen = np.zeros(self.order, dtype=bool)
        classes = []
        for i in range(self.order):
            if seen[i]:
                continue
            # the distinct conjugates of i, ascending
            cl = np.flatnonzero(np.bincount(conj[:, i], minlength=self.order))
            seen[cl] = True
            classes.append(cl.tolist())
        return classes

    def subgroup_closure(self, gens):
        mask = np.zeros(self.order, dtype=bool)
        mask[0] = True
        mask[np.fromiter(gens, dtype=np.intp)] = True
        size = 1
        while mask.sum() > size:
            S = np.flatnonzero(mask)
            size = len(S)
            mask[self.table[np.ix_(S, S)].ravel()] = True
        return frozenset(np.flatnonzero(mask).tolist())

    def is_normal(self, ids):
        mask = np.zeros(self.order, dtype=bool)
        s = np.fromiter(ids, dtype=np.intp)
        mask[s] = True
        # g x g^-1 for every g (rows) and every x in ids (columns)
        return bool(mask[self.table[self.table[:, s], self.inverse[:, None]]].all())

    def is_abelian_subset(self, ids):
        s = np.fromiter(ids, dtype=np.intp)
        T = self.table[np.ix_(s, s)]
        return bool(np.array_equal(T, T.T))

    # -- plain-text multiplication-table format

    def to_table_text(self):
        lines = [f"order {self.order}"]
        for row in self.table:
            lines.append(" ".join(str(int(x)) for x in row))
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_table_text(text, **kw):
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        head = lines[0].split()
        if len(head) != 2 or head[0] != "order":
            raise ValueError("expected header 'order n'")
        n = int(head[1])
        if len(lines) != n + 1:
            raise ValueError(f"expected {n} table rows, got {len(lines) - 1}")
        table = [[int(x) for x in ln.split()] for ln in lines[1:]]
        if not all(0 <= x < n for row in table for x in row):
            raise ValueError(f"table entries must lie in 0..{n - 1}")
        return FiniteGroup(table, **kw)

    def __repr__(self):
        tag = f" {self.family_tag}" if self.family_tag else ""
        return f"<FiniteGroup order={self.order}{tag}>"


# ---------------------------------------------------------------------------
# group-table checks


def _light_generators(T, e):
    """[e, g_1, ..., g_r] for a multiplication table T on 0..m-1 (entries in
    range) with two-sided identity e: elements that generate T, taken
    greedily in index order, so that on a group each at least doubles the
    span and r <= log2 m.  None when Light's associativity test fails.

    Light's test (x g) y = x (g y) holds for all x, y and each listed g,
    which is r m^2 integer work.  The g that pass the test are closed under
    products, since (x (g h)) y = ((x g) h) y = (x g)(h y) = x (g (h y)) =
    x ((g h) y), and the listed g generate the table under products, so the
    test on them makes the whole table associative (A. H. Clifford and
    G. B. Preston, *The algebraic theory of semigroups*, Vol. I, 1.2)."""
    m = len(T)
    gens = [e]
    span = np.zeros(m, dtype=bool)
    span[gens] = True
    for x in range(m):
        if span[x]:
            continue
        gens.append(x)
        span[x] = True
        # close the span under products
        while True:
            S = np.flatnonzero(span)
            grown = span.copy()
            grown[T[np.ix_(S, S)]] = True
            if (grown == span).all():
                break
            span = grown
    for g in gens:
        if (T[T[:, g]] != T[:, T[g]]).any():
            return None
    return gens


def _group_generators(table):
    """``_light_generators`` of a multiplication table on 0..m-1 that is a
    group, at its identity; None when the table is not a group.  Checked
    first: the rows and the columns are permutations, and there is a
    two-sided identity (a loop)."""
    T = np.asarray(table)
    m = len(T)
    ar = np.arange(m)
    if T.shape != (m, m) or not ((np.sort(T, axis=1) == ar).all()
                                 and (np.sort(T, axis=0) == ar[:, None]).all()):
        return None
    ids = np.flatnonzero((T == ar).all(axis=1))
    if len(ids) != 1 or (T[:, ids[0]] != ar).any():
        return None
    return _light_generators(T, int(ids[0]))


# ---------------------------------------------------------------------------
# catalog constructors


def _semidirect(n_orders, q_orders, actions, syms, tag, relations=()):
    """N x| Q for N = Z_n1 x ... x Z_na and Q = Z_k1 x ... x Z_kb, the j-th
    generator of Q acting on the column vectors of N by the integer matrix
    actions[j]: (x, k)(y, k') = (x + A(k) y, k + k') with
    A(k) = A_1^k1 ... A_b^kb, every coordinate mod its order.  Elements are
    numbered in lexicographic order of their coordinates (x, k), labelled by
    the coordinates on syms, and syms[i] names the i-th unit vector.
    FiniteGroup checks the group axioms of the table, then each relation
    lhs = rhs is checked as a word in the generators."""
    orders = [*n_orders, *q_orders]
    # the place value of each coordinate in the lexicographic numbering
    place = np.array([math.prod(orders[r + 1:]) for r in range(len(orders))],
                     dtype=np.int64)
    a, nq = len(n_orders), math.prod(q_orders)
    coords = np.array(list(product(*map(range, orders))), dtype=np.int64)
    X, K = coords[:, :a], coords[:, a:]
    L = math.lcm(*n_orders)
    # A(k) for the first |Q| elements, which run through Q in order; element
    # i acts by the matrix at i mod |Q|
    mats = np.broadcast_to(np.eye(a, dtype=np.int64), (nq, a, a))
    for j, A in enumerate(actions):
        A = np.array([[x % L for x in row] for row in A], dtype=np.int64)
        powers = [np.eye(a, dtype=np.int64)]
        for _ in range(1, q_orders[j]):
            powers.append(powers[-1] @ A % L)
        mats = mats @ np.array(powers)[K[:nq, j]] % L
    AY = np.einsum("qrc,jc->qjr", mats, X)[np.arange(len(coords)) % nq]
    prod_coords = np.concatenate([X[:, None] + AY, K[:, None] + K], axis=2)
    table = prod_coords % np.array(orders, dtype=np.int64) @ place
    states = [tuple(c) for c in coords.tolist()]
    labels = [_mono_label(list(zip(syms, c))) for c in states]
    gens = {s: (1 % o) * int(v) for s, o, v in zip(syms, orders, place)}
    G = FiniteGroup(table, labels=labels, generators=gens, family_tag=tag,
                    states=states)
    for lhs, rhs in relations:
        if G.word(lhs) != G.word(rhs):
            raise ParameterError(f"defining relation {lhs} = {rhs} fails for {tag}")
    return G


def _mono_label(sym_powers):
    parts = [f"{s}^{k}" for s, k in sym_powers if k]
    return "1" if not parts else "".join(parts)


def cyclic_group(n, sym="g", tag=None):
    return _semidirect([n], [], [], [sym], tag or f"Z{n}")


def abelian_group(orders, syms=None, tag=None):
    syms = syms or [chr(ord("a") + i) for i in range(len(orders))]
    return _semidirect(orders, [], [], syms, tag or "x".join(f"Z{m}" for m in orders))


def _check_mult_order(m, modulus, exponent, name="m"):
    m %= modulus
    if math.gcd(m, modulus) != 1:
        raise ParameterError(f"{name} must be invertible mod {modulus}")
    if pow(m, exponent, modulus) != 1:
        raise ParameterError(f"{name}^{exponent} != 1 (mod {modulus})")
    if m == 1:
        raise ParameterError(f"{name} == 1 (mod {modulus})")


def semidirect_pq(p, q, t):
    """Z_p x| Z_q = <a, b | a^p = b^q = 1, b a b^-1 = a^t>."""
    _check_primes(p, q)
    _check_mult_order(t, p, q, "t")
    return _semidirect(
        [p], [q], [[[t]]], "ab", f"Z{p}:Z{q}",
        relations=[((("a", p),), ()), ((("b", q),), ()),
                   (("b", "a", ("b", -1)), (("a", t % p),))])


def is_prime(n):
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


def _check_primes(p, q):
    if not (is_prime(p) and is_prime(q)):
        raise ParameterError("p and q must be prime")
    if p == q:
        raise ParameterError("p and q must be distinct")
    if p == 2 or q == 2:
        raise ParameterError("p and q must be odd")


def _beta7(p, q, m, n):
    # u acts on <s, t> = Z_q x Z_q by s -> t, t -> s^m t^n; the action must
    # have order exactly p and admit no eigenvector (irreducible char poly),
    # otherwise the pair (m, n) does not realize this isomorphism type
    if (q + 1) % p:
        raise ParameterError("beta7 requires p | (q+1)")
    m %= q
    n %= q
    mat = np.array([[0, m], [1, n]], dtype=object)
    power = np.eye(2, dtype=object)
    for _ in range(p):
        power = (power @ mat) % q
    if not np.array_equal(power, np.eye(2, dtype=object) % q):
        raise ParameterError(f"action matrix for (m={m}, n={n}) does not have order dividing {p}")
    if m == 0 or np.array_equal(mat % q, np.eye(2, dtype=object) % q):
        raise ParameterError("action matrix is singular or trivial")
    # char poly x^2 - n x - m must have no root mod q
    if any((x * x - n * x - m) % q == 0 for x in range(q)):
        raise ParameterError(f"x^2 - {n}x - {m} has a root mod {q}; not the irreducible type")
    return _semidirect(
        [q, q], [p], [[[0, m], [1, n]]], "stu", "beta7",
        relations=[(("u", "s", ("u", -1)), ("t",)),
                   (("u", "t", ("u", -1)), (("s", m), ("t", n)))])


def beta7_default_params(p, q):
    """Smallest (m, n) realizing the beta7 action, found by search."""
    for m in range(1, q):
        for n in range(q):
            try:
                _beta7(p, q, m, n)
                return m, n
            except ParameterError:
                continue
    raise ParameterError(f"no beta7 parameters exist for p={p}, q={q}")


def build_group(family: str, **params) -> FiniteGroup:
    """Construct a catalog group; raises ParameterError naming any violated
    condition.  Families: beta1..beta7, gamma1..gamma6, cyclic, abelian,
    semidirect_pq, custom (explicit table)."""
    G = _build_group(family, params)
    G.params = dict(params)
    return G


def _build_group(family: str, params) -> FiniteGroup:
    fam = family.lower()
    p = params.get("p")
    q = params.get("q")
    if fam in {"beta1", "gamma1"}:
        _check_primes(p, q)
        return cyclic_group(p * q * q, tag=fam)
    if fam in {"beta2", "gamma2"}:
        _check_primes(p, q)
        return abelian_group([p, q, q], syms=["c", "s", "t"], tag=fam)
    if fam == "beta3":
        _check_primes(p, q)
        if q < p:
            raise ParameterError("beta families require q > p")
        m = params["m"]
        _check_mult_order(m, q * q, p, "m")
        return _semidirect([q * q], [p], [[[m]]], "st", "beta3",
                           relations=[(("t", "s", ("t", -1)), (("s", m % (q * q)),))])
    if fam in {"beta4", "beta5", "beta6"}:
        _check_primes(p, q)
        if q < p:
            raise ParameterError("beta families require q > p")
        m = params["m"]
        _check_mult_order(m, q, p, "m")
        if fam == "beta4":
            # (Z_q x Z_q) x| Z_p with u acting by s -> s, t -> t^m
            return _semidirect(
                [q, q], [p], [[[1, 0], [0, m]]], "stu", fam,
                relations=[(("t", "s", ("t", -1)), ("s",)),
                           (("u", "s", ("u", -1)), ("s",)),
                           (("u", "t", ("u", -1)), (("t", m % q),))])
        n = m if fam == "beta5" else params["n"]
        if fam == "beta6":
            _check_mult_order(n, q, p, "n")
            if (m - n) % q == 0:
                raise ParameterError("beta6 requires m != n (mod q)")
        # u acts by s -> s^m, t -> t^n, and n = m for beta5
        return _semidirect(
            [q, q], [p], [[[m, 0], [0, n]]], "stu", fam,
            relations=[(("u", "s", ("u", -1)), (("s", m % q),)),
                       (("u", "t", ("u", -1)), (("t", n % q),))])
    if fam == "beta7":
        _check_primes(p, q)
        if q < p:
            raise ParameterError("beta families require q > p")
        m = params.get("m")
        n = params.get("n")
        if (m is None) != (n is None):
            raise ParameterError("beta7 takes both m and n, or neither")
        if m is None:
            m, n = beta7_default_params(p, q)
            params["m"], params["n"] = m, n
        return _beta7(p, q, m, n)
    if fam in {"gamma3", "gamma4"}:
        _check_primes(p, q)
        if q > p:
            raise ParameterError("gamma families require q < p")
        m = params["m"]
        if fam == "gamma3":
            _check_mult_order(m, p, q, "m")
        else:
            m %= p
            if pow(m, q * q, p) != 1:
                raise ParameterError(f"m^(q^2) != 1 (mod {p})")
            if pow(m, q, p) == 1:
                raise ParameterError(f"m^q == 1 (mod {p})")
        return _semidirect([p], [q * q], [[[m]]], "st", fam,
                           relations=[(("t", "s", ("t", -1)), (("s", m % p),))])
    if fam in {"gamma5", "gamma6"}:
        _check_primes(p, q)
        if q > p:
            raise ParameterError("gamma families require q < p")
        m = params["m"]
        _check_mult_order(m, p, q, "m")
        if fam == "gamma5":
            m_t, m_u = 1, m
        else:
            n = params["n"]
            _check_mult_order(n, p, q, "n")
            if (m - n) % p == 0:
                raise ParameterError("gamma6 requires m != n (mod p)")
            m_t, m_u = m, n
        # s of order p; t, u of order q acting on s by s -> s^(m_t), s -> s^(m_u)
        return _semidirect(
            [p], [q, q], [[[m_t]], [[m_u]]], "stu", fam,
            relations=[(("t", "u", ("t", -1)), ("u",)),
                       (("t", "s", ("t", -1)), (("s", m_t % p),)),
                       (("u", "s", ("u", -1)), (("s", m_u % p),))])
    if fam == "semidirect_pq":
        return semidirect_pq(p, q, params["t"])
    if fam == "cyclic":
        return cyclic_group(params["n"])
    if fam == "abelian":
        return abelian_group(params["orders"])
    if fam == "custom":
        return FiniteGroup(params["table"], labels=params.get("labels"),
                           generators=params.get("generators"), family_tag="custom")
    raise ParameterError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# abelian structure


class AbelianDecomposition:
    """An abelian subgroup with an independent generating set.

    ``gens``/``orders`` give an internal direct-product decomposition; every
    element of the subgroup has a unique exponent vector, which is verified by
    enumeration on construction.
    """

    def __init__(self, group: FiniteGroup, ids, gens, orders):
        self.group = group
        self.ids = tuple(sorted(ids))
        self.gens = list(gens)
        self.orders = list(orders)
        self.elements = []
        self.exponents = {}
        for vec in product(*[range(m) for m in orders]):
            x = self.element_of(vec)
            if x in self.exponents:
                raise ValueError("generators are not independent")
            self.exponents[x] = vec
            self.elements.append(x)
        if set(self.elements) != set(self.ids):
            raise ValueError("generators do not span the subgroup")

    @property
    def order(self):
        return len(self.ids)

    def exponent_of(self, x):
        return self.exponents[x]

    def exponent_matrix(self):
        """int64 array (order, r): row a is the exponent vector of elements[a]."""
        return np.array([self.exponents[x] for x in self.elements],
                        dtype=np.int64).reshape(self.order, len(self.orders))

    def element_of(self, vec):
        x = 0
        for g, k in zip(self.gens, vec):
            x = self.group.mul(x, self.group.power(g, k))
        return x

    def __repr__(self):
        return f"<AbelianDecomposition orders={self.orders}>"


def abelian_decomposition(G: FiniteGroup, ids) -> AbelianDecomposition:
    """Decompose an abelian subgroup into independent cyclic factors: by
    descending order, x joins the generators when its order modulo their
    span equals its order, so that the span grows by the factor ord(x)."""
    ids = sorted(set(ids))
    if not G.is_abelian_subset(ids):
        raise ValueError("subset is not abelian")
    if ids == [0]:
        return AbelianDecomposition(G, ids, [], [])
    target = len(ids)
    # every element order from one pass of powers over the table
    order, power, k = np.zeros(G.order, dtype=np.int64), np.arange(G.order), 1
    while not order.all():
        order[(power == 0) & (order == 0)] = k
        power, k = G.table[power, np.arange(G.order)], k + 1
    order = order.tolist()
    by_order = sorted((x for x in ids if x), key=lambda x: (-order[x], x))
    gens, orders = [], []
    span = np.zeros(G.order, dtype=bool)
    span[0] = True
    size = 1
    for x in by_order:
        if span[x]:
            continue
        powers = [x]
        while not span[powers[-1]]:
            powers.append(int(G.table[powers[-1], x]))
        if len(powers) == order[x]:
            gens.append(x)
            orders.append(order[x])
            span[G.table[np.ix_(np.flatnonzero(span), powers)]] = True
            size *= order[x]
            if size == target:
                break
    if size != target:
        raise ValueError("could not find an independent generating set")
    return AbelianDecomposition(G, ids, gens, orders)


def abelian_normal_subgroups(G: FiniteGroup):
    """All abelian normal subgroups, as frozensets of ids.

    Seeds are subgroup closures of single conjugacy classes; the collection
    is then saturated under joins of commuting members.
    """
    found = set()
    for cl in G.conjugacy_classes():
        sub = G.subgroup_closure(cl)
        if G.is_abelian_subset(sub) and G.is_normal(sub):
            found.add(sub)
    found.add(frozenset({0}))
    changed = True
    while changed:
        changed = False
        items = sorted(found, key=sorted)
        for i, a in enumerate(items):
            for b in items[i + 1:]:
                if a <= b or b <= a:
                    continue
                join = G.subgroup_closure(a | b)
                if join not in found and G.is_abelian_subset(join):
                    found.add(join)
                    changed = True
    return found


def largest_abelian_normal(G: FiniteGroup) -> AbelianDecomposition:
    """The unique abelian normal subgroup containing all others, decomposed."""
    if G.is_abelian():
        raise ParameterError("group is abelian; the largest abelian normal subgroup is the group itself")
    subs = [s for s in abelian_normal_subgroups(G) if len(s) > 1]
    if not subs:
        raise ParameterError("no nontrivial abelian normal subgroup")
    maximal = [s for s in subs if not any(s < t for t in subs)]
    if len(maximal) != 1:
        raise ParameterError("no largest abelian normal subgroup")
    return abelian_decomposition(G, maximal[0])


# ---------------------------------------------------------------------------
# idempotents and conjugation


class Idempotents(NamedTuple):
    """Idempotents E_t given by their terms: entry a is the term
    scale * zeta_L^exp[a] b_idx[a] of E_owner[a], with exp[a] in 0..L-1 and
    one rational scale for all; the entries run by owner, then by ascending
    basis index."""

    owner: np.ndarray
    idx: np.ndarray
    exp: np.ndarray
    scale: Fraction
    L: int


def _pairing(K: AbelianDecomposition):
    """(P, L): P[a, b] = <k, x> mod L, for k = K.elements[a] and
    x = K.elements[b], the character pairing <g_i, g_j> = (L / n_i) delta_ij
    on the generators extended biadditively, L the lcm of their orders."""
    L = math.lcm(1, *K.orders)
    X = K.exponent_matrix()
    return X * (L // np.asarray(K.orders, dtype=np.int64)) @ X.T % L, L


def idempotents(K: AbelianDecomposition) -> Idempotents:
    """The orthogonal primitive idempotents
    E_t = (1/|K|) sum_x zeta_L^<k, x> b_x of the group algebra of K, one per
    element k = K.elements[t], with <k, x> the character pairing of
    ``_pairing`` read from K.exponent_matrix()."""
    P, L = _pairing(K)
    m = K.order
    order = np.argsort(K.elements)
    return Idempotents(np.repeat(np.arange(m), m),
                       np.tile(np.asarray(K.elements, dtype=np.int64)[order], m),
                       P[:, order].ravel(), Fraction(1, m), L)


def conjugation_map(G: FiniteGroup, g, K: AbelianDecomposition):
    """The permutation k -> phi_g(k) of K induced on idempotent indices.

    The idempotent E_k of ``idempotents`` has the coefficient
    zeta_L^P[k, x] / |K| at x, with P the character pairing, so g E_k g^-1
    has it at g x g^-1; phi_g(k) is the index whose row of P equals that
    conjugated row.  Only the exponent vectors of K and G.table are read.
    Raises if g does not normalize K."""
    pos = np.full(G.order, -1)
    pos[K.elements] = np.arange(K.order)
    # conj[a] is the index of g x g^-1 for x = K.elements[a]
    conj = pos[G.table[G.table[g, K.elements], G.inverse[g]]]
    if (conj < 0).any():
        raise ParameterError("element does not normalize the subgroup")
    P, _ = _pairing(K)
    Q = np.empty_like(P)
    Q[:, conj] = P
    rows = {row.tobytes(): j for j, row in enumerate(P)}
    perm = [rows.get(row.tobytes()) for row in Q]
    if None in perm:
        raise RuntimeError("conjugated idempotent not in basis")
    return perm


# ---------------------------------------------------------------------------
# bicharacters


class Bicharacter:
    """A bicharacter on an abelian group by its key: its row of
    ``enumerate_bicharacters``, the generator-pair exponents, as a tuple of
    tuples of ints."""

    def __init__(self, key):
        self._key = key

    def key(self):
        return self._key

    def is_trivial(self):
        return not any(map(any, self._key))

    def __repr__(self):
        return f"<Bicharacter {self._key}>"


def enumerate_bicharacters(K: AbelianDecomposition):
    """All bicharacters on K, as an int64 array of shape (count, r, r) for
    the r generators of K: entry [i, j] is the exponent of w(g_i, g_j) as a
    power of the root of unity of order gcd(n_i, n_j), in 0..gcd - 1, and
    values extend biadditively in the exponent vectors.  The rows run
    through the entries in lexicographic order, [r - 1, r - 1] fastest."""
    r = len(K.orders)
    o = np.asarray(K.orders, dtype=np.int64)
    O = np.gcd.outer(o, o).ravel().tolist()
    count = math.prod(O)
    grid = np.indices(O, dtype=np.int64).reshape(r * r, count)
    return grid.T.reshape(count, r, r)


# ---------------------------------------------------------------------------


def lambda_set(p: int):
    """A subset of {1..p-2} of size (p-1)/2 whose pairwise products of
    distinct members are never 1 mod p: greedy scan, skipping any value whose
    inverse was already taken."""
    if p < 3 or not is_prime(p):
        raise ParameterError("p must be an odd prime")
    out = []
    taken = set()
    for x in range(1, p - 1):
        if pow(x, -1, p) in taken:
            continue
        out.append(x)
        taken.add(x)
        if len(out) == (p - 1) // 2:
            break
    return out

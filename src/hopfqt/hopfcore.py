"""Finite-dimensional Hopf algebras by sparse structure constants.

All structure data lives over one cyclotomic conductor.  Verification is
exact on every basis tuple.  All axiom sweeps but the unit law start on
integer exponent tables via numpy, which hold each structure constant that
is one root of unity (all of them in group algebras, bismash products and
their duals) and mark the others odd.  The tables only accept: an identity is
accepted when it reads no odd entry and both sides are sums over
pairwise-distinct keys with equal root exponents.  Every identity the tables
cannot accept, the unit law, and every sweep on a host without tables, run a
sparse join over the rows of the structure constants (mult, comult,
antipode, unit) in exact CycloNumber arithmetic.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from operator import itemgetter
from fractions import Fraction

import numpy as np

from .exactfield import CycloNumber, euler_phi, zeta
from .grouptool import FiniteGroup, ParameterError, abelian_decomposition


class HopfAlgebra:
    """Hopf algebra on basis 0..dim-1 with sparse structure constants.

    mult[i][j] is a tuple of (k, coeff) pairs for b_i b_j; comult[i] is a
    tuple of (j, k, coeff) for Delta(b_i); unit is a sparse dict; counit a
    dense list; antipode[i] a tuple of (j, coeff) for S(b_i).

    The product and the coproduct are each passed either as these rows, from
    which mult_tables() and comult_tables() are derived on first use, or as
    those tables, a tuple of arrays with no entry odd and every exponent in
    0..N-1, from which the rows are built on first read.
    """

    def __init__(self, dim, conductor, mult, comult, unit, counit, antipode,
                 labels=None):
        self.dim = dim
        self.conductor = conductor
        self._mult = mult
        self._comult = comult
        self.unit = {i: c for i, c in unit.items() if c}
        self.counit = list(counit)
        self.antipode = antipode
        self.labels = list(labels) if labels else [f"b{i}" for i in range(dim)]
        self._mono = -1  # lazy caches, -1 = not computed
        self._cmono = -1

    @property
    def mult(self):
        if isinstance(self._mult, tuple):
            targets, exps, _ = self._mult
            root = _roots(self.conductor)
            self._mult = [{j: ((k, root[e]),) for j, (k, e) in enumerate(zip(ks, es))
                           if k >= 0}
                          for ks, es in zip(targets.tolist(), exps.tolist())]
        return self._mult

    @property
    def comult(self):
        if isinstance(self._comult, tuple):
            root, rows = _roots(self.conductor), [[] for _ in range(self.dim)]
            for i, j, k, e in zip(*(a.tolist() for a in self._comult)):
                rows[i].append((j, k, root[e]))
            self._comult = [tuple(row) for row in rows]
        return self._comult

    # -- elements

    def element(self, coeffs) -> "AlgebraElement":
        return AlgebraElement(self, coeffs)

    def basis_element(self, i) -> "AlgebraElement":
        return AlgebraElement(self, {i: CycloNumber.one(self.conductor)})

    def one(self) -> "AlgebraElement":
        return AlgebraElement(self, dict(self.unit))

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, {})

    # -- monomial extraction for integer fast paths

    def mult_tables(self):
        """(targets, exponents, odd) int arrays over the products b_i b_j, as
        _one_term_rows gives them; a zero product has target -1."""
        if self._mono == -1:
            if isinstance(self._mult, tuple):
                self._mono = self._mult
            else:
                n, rows = self.dim, self._mult
                chain = itertools.chain.from_iterable
                i = np.repeat(np.arange(n), list(map(len, rows)))
                j = np.fromiter(chain(rows), np.int64, len(i))
                self._mono = (np.full((n, n), -1, dtype=np.int32),
                              np.zeros((n, n), dtype=np.int64),
                              np.zeros((n, n), dtype=bool))
                entries = _one_term_rows(list(chain(map(dict.values, rows))),
                                         self.conductor)
                for table, x in zip(self._mono, entries):
                    table[i, j] = x
        return self._mono

    def mono_tables(self):
        """(targets, exponents) of mult_tables() when every product of basis
        elements is zero or a power of zeta_N times one; None otherwise."""
        tables = self.mult_tables()
        return None if tables is None or tables[2].any() else tables[:2]

    def comult_tables(self):
        """(rows, lefts, rights, exponents) int arrays, one entry per term
        (j, k, zeta_N^e) of each Delta(b_i), rows ascending, when every
        coproduct coefficient is a power of zeta_N and the packed tensor keys
        of the coalgebra sweeps fit in int64; None otherwise."""
        if self._cmono == -1:
            N = self.conductor
            if (self.dim ** 4 << (N.bit_length() + 1)) >= 2 ** 63:
                self._cmono = None
            elif isinstance(self._comult, tuple):
                self._cmono = self._comult
            else:
                exps = _root_exponents((c for row in self._comult for _, _, c in row), N)
                legs = [(i, j, k) for i, row in enumerate(self._comult) for j, k, _ in row]
                self._cmono = None if (exps < 0).any() else \
                    (*np.array(legs, dtype=np.int64).reshape(-1, 3).T, exps)
        return self._cmono

    def with_scaled_mult_entry(self, i, j, k, factor) -> "HopfAlgebra":
        """Copy with the coefficient of b_k in b_i b_j multiplied by factor."""
        mult = [dict(row) for row in self.mult]
        terms = list(mult[i].get(j, ()))
        for idx, (t, c) in enumerate(terms):
            if t == k:
                terms[idx] = (t, c * factor)
                break
        else:
            raise ValueError("no such structure constant")
        mult[i][j] = tuple(terms)
        return HopfAlgebra(self.dim, self.conductor, mult, self.comult,
                           self.unit, self.counit, self.antipode, self.labels)


class AlgebraElement:
    """Sparse element of a HopfAlgebra; zero coefficients are never stored."""

    __slots__ = ("host", "coeffs")

    def __init__(self, host, coeffs):
        self.host = host
        self.coeffs = {i: c for i, c in coeffs.items() if c}

    def _same_host(self, other):
        if self.host is not other.host:
            raise ValueError("elements live in different algebras")

    def __add__(self, other):
        self._same_host(other)
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            s = out.get(i)
            s = c if s is None else s + c
            if s:
                out[i] = s
            else:
                out.pop(i, None)
        return AlgebraElement(self.host, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return AlgebraElement(self.host, {i: -c for i, c in self.coeffs.items()})

    def scale(self, c):
        return AlgebraElement(self.host, {i: c * v for i, v in self.coeffs.items()})

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, CycloNumber)):
            return self.scale(other if isinstance(other, CycloNumber)
                              else CycloNumber.from_rational(other))
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycloNumber)):
            return self.__rmul__(other)
        self._same_host(other)
        mult = self.host.mult
        out = {}
        for i, ci in self.coeffs.items():
            row = mult[i]
            for j, cj in other.coeffs.items():
                terms = row.get(j)
                if not terms:
                    continue
                c = ci * cj
                for k, ck in terms:
                    s = out.get(k)
                    s = c * ck if s is None else s + c * ck
                    if s:
                        out[k] = s
                    else:
                        out.pop(k, None)
        return AlgebraElement(self.host, out)

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.host is other.host and self.coeffs == other.coeffs

    def is_zero(self):
        return not self.coeffs

    def comult_apply(self):
        """Delta(x) as a sparse dict (j, k) -> coefficient."""
        out = {}
        for i, ci in self.coeffs.items():
            for j, k, c in self.host.comult[i]:
                _acc(out, (j, k), ci * c)
        return out

    def counit_apply(self) -> CycloNumber:
        eps = self.host.counit
        out = CycloNumber.zero(self.host.conductor)
        for i, c in self.coeffs.items():
            out = out + c * eps[i]
        return out

    def antipode_apply(self) -> "AlgebraElement":
        out = {}
        for i, ci in self.coeffs.items():
            for j, c in self.host.antipode[i]:
                _acc(out, j, ci * c)
        return AlgebraElement(self.host, out)

    def __repr__(self):
        labels = self.host.labels
        parts = [f"{c!r}*{labels[i]}" for i, c in sorted(self.coeffs.items())]
        return " + ".join(parts) if parts else "0"


def _acc(out, key, val):
    """Add val to out[key] in a sparse dict, dropping the key at zero."""
    s = out.get(key)
    s = val if s is None else s + val
    if s:
        out[key] = s
    else:
        out.pop(key, None)


def unit_tensor(H: HopfAlgebra) -> dict:
    """1 (x) 1 in H (x) H, sparse."""
    out = {}
    for i, ci in H.unit.items():
        for j, cj in H.unit.items():
            _acc(out, (i, j), ci * cj)
    return out


def _root_exponents(coeffs, N):
    """int64 array of e with c = zeta_N^e and e in 0..N-1 for each c in
    coeffs, and -1 where c is no power of zeta_N (zero included)."""
    # structure constants share a few unhashable scalars: memoized by identity
    memo, out = {}, []
    for c in coeffs:
        e = memo.get(id(c))
        if e is None:
            r = c.lift(N).as_root()
            e, scale = r if r else (-1, 1)
            if scale != 1:
                e = e + N // 2 if scale == -1 and N % 2 == 0 else -1
            memo[id(c)] = e
        out.append(e)
    return np.array(out, dtype=np.int64)


def _roots(N):
    """[zeta_N^e for e in 0..N-1]."""
    return [zeta(N, e) for e in range(N)]


def _one_term_rows(rows, N):
    """(targets, exponents, odd) int arrays over rows of (index, coefficient)
    terms: a row that is one term zeta_N^e b_t has target t and exponent e;
    odd marks every other row, with target -1 and exponent 0."""
    t, e = np.full(len(rows), -1, dtype=np.int64), np.zeros(len(rows), dtype=np.int64)
    one = np.fromiter(map(len, rows), np.int64, len(rows)) == 1
    if one.any():
        firsts = list(map(itemgetter(0), itertools.compress(rows, one.tolist())))
        exps = _root_exponents(map(itemgetter(1), firsts), N)
        keys = np.fromiter(map(itemgetter(0), firsts), np.int64, len(firsts))
        one[one] = root = exps >= 0
        t[one], e[one] = keys[root], exps[root]
    return t, e, ~one


# ---------------------------------------------------------------------------
# constructions


def group_algebra(G: FiniteGroup, conductor: int = 1) -> HopfAlgebra:
    """k[G]: basis the group elements, Delta(g) = g (x) g, S(g) = g^-1.  The
    product and the coproduct are passed as their exponent tables, b_g b_h =
    b_(G.table[g, h]) and Delta(b_g) = b_g (x) b_g with every exponent 0."""
    n = G.order
    one = CycloNumber.one(conductor)
    ar = np.arange(n)
    mult = (G.table, np.zeros((n, n), dtype=np.int64), np.zeros((n, n), dtype=bool))
    comult = (ar, ar, ar, np.zeros(n, dtype=np.int64))
    antipode = [((i, one),) for i in G.inverse.tolist()]
    return HopfAlgebra(n, conductor, mult, comult, {0: one}, [one] * n, antipode,
                       labels=list(G.labels))


def dual_hopf(H: HopfAlgebra) -> HopfAlgebra:
    """Transpose of all structure constants; dual index i pairs with basis i."""
    n = H.dim
    mult = [dict() for _ in range(n)]
    for k in range(n):
        for i, j, c in H.comult[k]:
            row = mult[i]
            row[j] = row.get(j, ()) + ((k, c),)
    comult = [[] for _ in range(n)]
    for i in range(n):
        for j, terms in H.mult[i].items():
            for k, c in terms:
                comult[k].append((i, j, c))
    unit = {i: c for i, c in enumerate(H.counit) if c}
    counit = [H.unit.get(i, CycloNumber.zero(H.conductor)) for i in range(n)]
    antipode = [[] for _ in range(n)]
    for i in range(n):
        for j, c in H.antipode[i]:
            antipode[j].append((i, c))
    return HopfAlgebra(n, H.conductor, mult, [tuple(t) for t in comult],
                       unit, counit, [tuple(t) for t in antipode],
                       labels=[f"{lab}^" for lab in H.labels])


# ---------------------------------------------------------------------------
# axiom verification


class Report:
    """Outcome of a verification sweep: ``failures`` maps each failed
    condition to its witnesses in the order found; ``checked`` lists the
    conditions noted as checked."""

    def __init__(self):
        self.failures = {}
        self.checked = []

    def fail(self, condition, witness):
        self.failures.setdefault(condition, []).append(witness)

    def note(self, condition):
        self.checked.append(condition)

    @property
    def passed(self):
        return not self.failures

    def summary(self):
        if self.passed:
            return f"all conditions hold ({', '.join(self.checked)})"
        lines = []
        for condition, ws in self.failures.items():
            lines.append(f"{condition}: {len(ws)} failures, first witness {ws[0]}")
        return "; ".join(lines)

    def __repr__(self):
        return f"<Report {'PASS' if self.passed else 'FAIL'}: {self.summary()}>"


def verify_hopf_axioms(H: HopfAlgebra) -> Report:
    """Exact verification of all Hopf axioms on every basis tuple, recording
    every failing witness of every axiom."""
    rep = Report()
    for condition, sweep in _AXIOM_SWEEPS:
        rep.note(condition)
        for witness in sweep(H):
            rep.fail(condition, witness)
    return rep


def _check_assoc(H):
    # (b_i b_j) b_k and b_i (b_j b_k), joined over the rows of mult
    mult = H.mult
    for i, j, k in _assoc_suspects(H):
        lhs, rhs = {}, {}
        for t, c in mult[i].get(j, ()):
            for u, d in mult[t].get(k, ()):
                _acc(lhs, u, c * d)
        for t, c in mult[j].get(k, ()):
            for u, d in mult[i].get(t, ()):
                _acc(rhs, u, d * c)
        if lhs != rhs:
            yield i, j, k


def _assoc_suspects(H):
    """(i, j, k) in ascending order whose associativity fails on the tables
    or reads an odd entry.  A host without tables leaves every triple with
    b_i b_j or b_j b_k nonzero; both sides of the others are zero."""
    n, N = H.dim, H.conductor
    tables = H.mult_tables()
    if tables is None:
        nz = [sorted(j for j, terms in row.items() if terms) for row in H.mult]
        for i, j in itertools.product(range(n), repeat=2):
            for k in range(n) if H.mult[i].get(j) else nz[j]:
                yield i, j, k
        return
    mt, me, odd = tables  # an odd entry counts as a zero product
    any_odd = odd.any()
    nzm = mt >= 0
    # reach[i]: the number of (j, k) with b_i (b_j b_k) nonzero
    reach = nzm.astype(np.int64) @ np.bincount(mt[nzm], minlength=n)
    for i in range(n):
        # b_i b_j = zeta^me[i, j] b_mt[i, j] is nonzero at the j in js, where
        # both sides are compared at every k (-1 marks a zero product)
        js = np.flatnonzero(nzm[i])
        t, s = mt[i, js], mt[js]
        lt, rt = mt[t], np.where(s >= 0, mt[i, s], -1)
        ok = (me[i, js, None] + me[t] - me[js] - me[i, s]) % N == 0
        bad = np.flatnonzero((lt != rt) | ((lt >= 0) & ~ok))
        jk = js[bad // n] * n + bad % n
        # at the other j the left side is zero, and so is every right side
        # when the nonzero b_i (b_j b_k) all matched above
        if np.count_nonzero((lt >= 0) & (lt == rt) & ok) != reach[i]:
            zs = np.flatnonzero(~nzm[i])
            s = mt[zs]
            z = np.flatnonzero((s >= 0) & (mt[i, s] >= 0))
            jk = np.sort(np.concatenate((jk, zs[z // n] * n + z % n)))
        if any_odd:
            # (j, k) where b_i b_j, b_j b_k, b_(ij) b_k or b_i b_(jk) is odd
            rd = odd | odd[i][:, None]
            rd[js] |= odd[t]
            rd |= nzm & odd[i][mt]
            jk = _distinct(jk, np.flatnonzero(rd))
        yield from ((i, *divmod(x, n)) for x in jk.tolist())


def _check_unit_laws(H):
    mult, unit = H.mult, H.unit.items()
    one = CycloNumber.one(H.conductor)
    for i in range(H.dim):
        left, right = {}, {}
        for u, c in unit:
            for t, d in mult[u].get(i, ()):
                _acc(left, t, c * d)
            for t, d in mult[i].get(u, ()):
                _acc(right, t, d * c)
        if left != {i: one} or right != {i: one}:
            yield (i,)


def _check_coassoc(H):
    for i in _coassoc_suspects(H):
        left, right = {}, {}
        for j, k, c in H.comult[i]:
            for a, b, c2 in H.comult[j]:
                _acc(left, (a, b, k), c * c2)
            for a, b, c2 in H.comult[k]:
                _acc(right, (j, a, b), c * c2)
        if left != right:
            yield (i,)


def _check_counit_laws(H):
    eps = H.counit
    if not H.one().counit_apply().is_one():
        yield ("counit(unit) != 1",)
    for i in _counit_suspects(H):
        left, right = {}, {}
        for j, k, c in H.comult[i]:
            _acc(left, k, c * eps[j])
            _acc(right, j, c * eps[k])
        expect = {i: CycloNumber.one(H.conductor)}
        if left != expect or right != expect:
            yield (i,)


def _check_delta_algebra_map(H):
    n = H.dim
    one_elt = H.one()
    delta_one = one_elt.comult_apply()
    if delta_one != unit_tensor(H):
        yield ("Delta(1) != 1x1",)
    # index Delta(b_j) by left leg for the join
    cleft = []
    for j in range(n):
        d = {}
        for u, v, c in H.comult[j]:
            d.setdefault(u, []).append((v, c))
        cleft.append(d)
    mult = H.mult
    for i, j in _delta_mult_suspects(H):
        dj = cleft[j]
        rhs = {}
        for u1, v1, c1 in H.comult[i]:
            row_u = mult[u1]
            row_v = mult[v1]
            for u2 in row_u.keys() & dj.keys():
                for v2, c2 in dj[u2]:
                    terms_v = row_v.get(v2)
                    if not terms_v:
                        continue
                    c12 = c1 * c2
                    for tu, cu in row_u[u2]:
                        for tv, cv in terms_v:
                            _acc(rhs, (tu, tv), c12 * cu * cv)
        lhs = {}
        for k, ck in mult[i].get(j, ()):
            for u, v, c in H.comult[k]:
                _acc(lhs, (u, v), ck * c)
        if lhs != rhs:
            yield i, j


# Exponent-table acceptance for the two coalgebra sweeps above.  Each side of
# an identity is a list of terms zeta_N^e * (tensor key), the keys packed into
# one int64 with the index of the identity most significant.  Rows of Delta
# are processed in blocks of about _BLOCK terms to bound the temporaries.

_BLOCK = 1 << 14


def _row_blocks(cost):
    """Consecutive row ranges [r0, r1) of about _BLOCK summed cost each."""
    r0, acc = 0, 0
    for r, c in enumerate(cost.tolist()):
        if acc and acc + c > _BLOCK:
            yield r0, r
            r0, acc = r, 0
        acc += c
    yield r0, len(cost)


def _expand(starts, counts):
    """Ragged join: (x, starts[x] + o) for every x and o in 0..counts[x]-1."""
    x = np.repeat(np.arange(len(counts)), counts)
    first = np.cumsum(counts) - counts
    return x, starts[x] + np.arange(x.size) - first[x]


def _unmatched(lkey, lexp, rkey, rexp, N, span):
    """The identities, ascending, that the tables cannot accept.  Identity x
    owns the keys x*span..(x+1)*span-1; it is accepted when at each of its
    keys the (key, exponent) terms of both sides are one term each, with
    exponents equal mod N, so that the two sums are equal."""
    # term -> key, exponent mod N, side (0 left, 1 right) in one int64;
    # sorted, an accepted key is a matched pair v, v + 1 with v even
    shift = N.bit_length() + 1
    top = max(lexp.max(initial=0), rexp.max(initial=0)) + 1
    red = np.arange(top) % N << 1
    v = np.concatenate(((lkey << shift) | red[lexp], (rkey << shift) | red[rexp] | 1))
    v.sort()
    pair = (v[1:] - v[:-1] == 1) & (v[:-1] & 1 == 0)
    alone = np.ones(v.size, dtype=bool)
    alone[:-1] &= ~pair
    alone[1:] &= ~pair
    key = v >> shift
    paired = key[:-1][pair]
    return _distinct(key[alone] // span, paired[1:][paired[1:] == paired[:-1]] // span)


def _distinct(*arrays):
    """The distinct values of the int arrays, ascending; asked for indices,
    np.unique does not import numpy.ma on its first call in a process."""
    return np.unique(np.concatenate(arrays), return_index=True)[0]


def _comult_rows(tables, n):
    """Number of terms and offset of the first term of each Delta(b_i)."""
    rows = tables[0]
    cnt = np.bincount(rows, minlength=n)
    return cnt, np.r_[0, np.cumsum(cnt)]


def _coassoc_suspects(H):
    """Ascending i whose coassociativity the exponent tables cannot accept:
    every i when the host has no tables."""
    n, N = H.dim, H.conductor
    tables = H.comult_tables()
    if tables is None:
        yield from range(n)
        return
    rows, lefts, rights, exps = tables
    cnt, ptr = _comult_rows(tables, n)
    legs = lefts * n + rights
    lbase = rows * n ** 3 + rights          # key (i, ., ., k)
    rbase = (rows * n + lefts) * n ** 2     # key (i, j, ., .)
    cost = np.bincount(rows, weights=cnt[lefts] + cnt[rights], minlength=n)
    for r0, r1 in _row_blocks(cost):
        t = np.arange(ptr[r0], ptr[r1])
        # (Delta (x) id) Delta(b_i): a term (a, b) of Delta(b_j) per term (j, k)
        x, s = _expand(ptr[lefts[t]], cnt[lefts[t]])
        tl = t[x]
        # (id (x) Delta) Delta(b_i): a term (a, b) of Delta(b_k) per term (j, k)
        x, s2 = _expand(ptr[rights[t]], cnt[rights[t]])
        tr = t[x]
        yield from _unmatched(lbase[tl] + legs[s] * n, exps[tl] + exps[s],
                              rbase[tr] + legs[s2], exps[tr] + exps[s2],
                              N, n ** 3).tolist()


def _delta_mult_suspects(H):
    """(i, j) in lexicographic order whose Delta(b_i b_j) = Delta(b_i) Delta(b_j)
    fails on the tables or reads an odd entry; every pair when the host has
    no tables."""
    n, N = H.dim, H.conductor
    mono, tables = H.mult_tables(), H.comult_tables()
    if mono is None or tables is None:
        yield from itertools.product(range(n), repeat=2)
        return
    mt, me, odd = mono  # an odd entry counts as a zero product
    rows, lefts, rights, exps = tables
    cnt, ptr = _comult_rows(tables, n)
    # (i, j) reads odd[i, j], and odd[a, b] for legs a, b of Delta(b_i), Delta(b_j)
    reads = odd.copy()
    for legs in (lefts, rights) if odd.any() else ():
        inc = np.zeros((n, n))
        inc[rows, legs] = 1
        reads |= inc @ odd @ inc.T > 0
    # nonzero products b_u b_v, v listed by u
    nzu, nzv = np.nonzero(mt >= 0)
    nnz = np.bincount(nzu, minlength=n)
    nzptr = np.r_[0, np.cumsum(nnz)]
    # Delta(b_i) Delta(b_j) joins a term (u1, v1) of Delta(b_i) with the
    # terms (u2, v2) of any Delta(b_j) where b_u1 b_u2 and b_v1 b_v2 are
    # nonzero: looked up by both legs, or by the left leg alone when that
    # gives fewer candidates (group algebras, whose every product is nonzero)
    cost_pair = nnz[lefts] * nnz[rights]
    cost_left = np.bincount(nzu, weights=np.bincount(lefts, minlength=n)[nzv],
                            minlength=n)[lefts]
    by_pair = cost_pair.sum() <= cost_left.sum()
    index = lefts * n + rights if by_pair else lefts
    order = np.argsort(index, kind="stable")
    index = index[order]
    lhs_cost = np.bincount(nzu, weights=cnt[mt[nzu, nzv]], minlength=n)
    rhs_cost = np.bincount(rows, weights=cost_pair if by_pair else cost_left,
                           minlength=n)
    for r0, r1 in _row_blocks(lhs_cost + rhs_cost):
        # Delta(b_i b_j) = zeta^me[i, j] Delta(b_mt[i, j])
        ii, jj = np.nonzero(mt[r0:r1] >= 0)
        ii += r0
        k = mt[ii, jj]
        x, s = _expand(ptr[k], cnt[k])
        lkey = ((ii[x] * n + jj[x]) * n + lefts[s]) * n + rights[s]
        lexp = me[ii, jj][x] + exps[s]
        t = np.arange(ptr[r0], ptr[r1])
        x, a = _expand(nzptr[lefts[t]], nnz[lefts[t]])
        t, q = t[x], nzv[a]
        if by_pair:
            x, a = _expand(nzptr[rights[t]], nnz[rights[t]])
            t, q = t[x], q[x] * n + nzv[a]
        lo = np.searchsorted(index, q)
        x, a = _expand(lo, np.searchsorted(index, q, side="right") - lo)
        t1, t2 = t[x], order[a]
        keep = mt[rights[t1], rights[t2]] >= 0
        t1, t2 = t1[keep], t2[keep]
        u1, v1, u2, v2 = lefts[t1], rights[t1], lefts[t2], rights[t2]
        rkey = ((rows[t1] * n + rows[t2]) * n + mt[u1, u2]) * n + mt[v1, v2]
        rexp = exps[t1] + exps[t2] + me[u1, u2] + me[v1, v2]
        bad = _distinct(_unmatched(lkey, lexp, rkey, rexp, N, n * n),
                        np.flatnonzero(reads[r0:r1]) + r0 * n)
        yield from (divmod(ij, n) for ij in bad.tolist())


def _counit_exponents(H):
    """(exponents, zero, odd) arrays over the counit values and, at index -1,
    a zero product; odd marks the values neither zero nor a power of zeta_N."""
    e = np.append(_root_exponents(H.counit, H.conductor), -1)
    zero = np.array([not c for c in H.counit] + [True])
    return np.maximum(e, 0), zero, ~zero & (e < 0)


def _check_eps_algebra_map(H):
    eps, mult = H.counit, H.mult
    for i, j in _eps_mult_suspects(H):
        val = CycloNumber.zero(H.conductor)
        for k, c in mult[i].get(j, ()):
            val = val + c * eps[k]
        if val != eps[i] * eps[j]:
            yield i, j


def _eps_mult_suspects(H):
    """(i, j) whose eps(b_i b_j) = eps(b_i) eps(b_j) fails on the tables or
    reads an odd value, every pair when the host has no tables; per i, the
    j of mult[i] in dict order, then the absent j ascending."""
    n, N = H.dim, H.conductor
    tables, (ce, cz, codd) = H.mult_tables(), _counit_exponents(H)
    for r0, r1 in _row_blocks(np.full(n, n)):
        if tables is None:
            sus = np.ones((r1 - r0, n), dtype=bool)
        else:
            mt, me, odd = (x[r0:r1] for x in tables)
            b = np.arange(r0, r1)[:, None]
            lz, rz = cz[mt], cz[b] | cz[:n]
            ok = (lz == rz) & (lz | ((me + ce[mt] - ce[b] - ce[:n]) % N == 0))
            sus = ~ok | odd | codd[mt] | codd[b] | codd[:n]
        for i in np.flatnonzero(sus.any(axis=1)).tolist():
            row, s = H.mult[r0 + i], sus[i].tolist()
            yield from ((r0 + i, j) for j in row if s[j])
            yield from ((r0 + i, j) for j in range(n) if s[j] and j not in row)


def _counit_suspects(H):
    """Ascending i whose counit laws, sum c eps(b_j) b_k = b_i (law 0) and
    sum c eps(b_k) b_j = b_i (law 1) over Delta(b_i), the exponent tables
    cannot accept: every i when the host has no tables."""
    if H.comult_tables() is None:
        return range(H.dim)
    ce, cz, codd = _counit_exponents(H)
    return _law_suspects(H, lambda j, k: [(np.where(cz[j], -1, k), ce[j], codd[j]),
                                          (np.where(cz[k], -1, j), ce[k], codd[k])],
                         lambda i: (i, i, 0 * i, i[:0]))


def _law_suspects(H, sides, target):
    """Ascending i whose two laws sum c side(j, k) = target(i) over Delta(b_i)
    the tables cannot accept.  sides(j, k) gives per law the terms' (u of b_u
    or -1, exponent added to c's, odd); target(i) the (i, u, exponent) of the
    target terms of rows i, and the odd rows."""
    n, N = H.dim, H.conductor
    rows, lefts, rights, exps = tables = H.comult_tables()
    cnt, ptr = _comult_rows(tables, n)
    for r0, r1 in _row_blocks(cnt):
        t = np.arange(ptr[r0], ptr[r1])
        r = rows[t]
        keys, lexp, odd = map(np.concatenate, zip(*(
            (((2 * r + law) * n + u)[u >= 0], (exps[t] + e)[u >= 0], r[o])
            for law, (u, e, o) in enumerate(sides(lefts[t], rights[t])))))
        i, u, e, rd = target(np.arange(r0, r1))
        rkey = np.concatenate(((2 * i) * n + u, (2 * i + 1) * n + u))
        yield from _distinct(_unmatched(keys, lexp, rkey, np.tile(e, 2), N, 2 * n),
                             odd, rd).tolist()


def _check_antipode(H):
    mult, s = H.mult, H.antipode
    for i in _antipode_suspects(H):
        # sum S(b_j) b_k and sum b_j S(b_k) over Delta(b_i), against eps(b_i) 1
        left, right, target = {}, {}, {}
        for j, k, c in H.comult[i]:
            for a, sa in s[j]:
                for u, d in mult[a].get(k, ()):
                    _acc(left, u, c * sa * d)
            for a, sa in s[k]:
                for u, d in mult[j].get(a, ()):
                    _acc(right, u, c * sa * d)
        for u, c in H.unit.items():
            _acc(target, u, H.counit[i] * c)
        if left != target or right != target:
            yield (i,)


def _antipode_suspects(H):
    """Ascending i whose antipode laws, sum c S(b_j) b_k = eps(b_i) 1 and
    sum c b_j S(b_k) = eps(b_i) 1 over Delta(b_i), the exponent tables
    cannot accept, with S(b_j) = zeta^se[j] b_sa[j]: every i when the host
    has no tables or its unit is not a sum of terms zeta_N^e b_u."""
    mono, N = H.mult_tables(), H.conductor
    uk, ue = np.array(list(H.unit), dtype=np.int64), _root_exponents(H.unit.values(), N)
    if mono is None or H.comult_tables() is None or (ue < 0).any():
        return range(H.dim)
    mt, me, odd = mono
    sa, se, sodd = _one_term_rows(H.antipode, N)
    ce, cz, codd = _counit_exponents(H)

    def target(i):
        nz = i[~cz[i]]
        return (np.repeat(nz, len(uk)), np.tile(uk, len(nz)),
                (ce[nz, None] + ue).ravel(), i[codd[i]])

    return _law_suspects(H, lambda j, k: [
        (mt[sa[j], k], me[sa[j], k] + se[j], odd[sa[j], k] | sodd[j]),
        (mt[j, sa[k]], me[j, sa[k]] + se[k], odd[j, sa[k]] | sodd[k])], target)


# each sweep yields the failing witnesses of its axiom in the order found
_AXIOM_SWEEPS = (
    ("associativity", _check_assoc),
    ("unit", _check_unit_laws),
    ("coassociativity", _check_coassoc),
    ("counit", _check_counit_laws),
    ("comultiplication is an algebra map", _check_delta_algebra_map),
    ("counit is an algebra map", _check_eps_algebra_map),
    ("antipode", _check_antipode),
)


# ---------------------------------------------------------------------------
# antipode diagnostics


class AntipodeDiagnostics:
    def __init__(self, s2, trace_s2, s2_is_id, s4_is_id, semisimple):
        self.s2 = s2
        self.trace_s2 = trace_s2
        self.s2_is_id = s2_is_id
        self.s4_is_id = s4_is_id
        self.semisimple = semisimple

    def __repr__(self):
        return (f"<AntipodeDiagnostics trace={self.trace_s2!r} "
                f"S2=id:{self.s2_is_id} S4=id:{self.s4_is_id} "
                f"semisimple:{self.semisimple}>")


def _mat_compose(H, a, b):
    # (a o b)[i] = sum over b[i] of a rows
    out = []
    for i in range(H.dim):
        acc = {}
        for j, c in b[i]:
            for k, c2 in a[j]:
                _acc(acc, k, c * c2)
        out.append(tuple(acc.items()))
    return out


def antipode_diagnostics(H: HopfAlgebra) -> AntipodeDiagnostics:
    """S^2, Tr(S^2), and the standard semisimplicity flags (Tr(S^2) != 0)."""
    s = H.antipode
    s2 = _mat_compose(H, s, s)
    s4 = _mat_compose(H, s2, s2)
    trace = CycloNumber.zero(H.conductor)
    for i in range(H.dim):
        for j, c in s2[i]:
            if j == i:
                trace = trace + c
    def is_identity(mat):
        for i in range(H.dim):
            terms = [t for t in mat[i] if t[1]]
            if len(terms) != 1 or terms[0][0] != i or not terms[0][1].is_one():
                return False
        return True
    return AntipodeDiagnostics(
        s2, trace, is_identity(s2), is_identity(s4), bool(trace))


# ---------------------------------------------------------------------------
# group-like elements of bismash products


class GroupLikeSet:
    """Group-like elements together with their group structure."""

    def __init__(self, elements, table, orders, identity):
        self.elements = elements
        self.table = table
        self.orders = orders
        self.identity = identity

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def group_likes_bismash(H) -> GroupLikeSet:
    """All group-like elements of the bismash product H, for matched pairs
    H.mp with a trivial action on one side.

    Candidates are twisted characters: x = (sum_g chi(g) e_g) # f where f is
    fixed by the right action of every g and chi(g')chi(g'') =
    tau(g', g'', f) chi(g'g'').  Support analysis shows every group-like has
    this shape (the support of a group-like is all of G and its f-part is a
    single fixed point); each candidate is then verified via Delta(x) =
    x (x) x and counit(x) = 1, exactly.
    """
    mp = H.mp
    G, F = mp.G, mp.F
    if not (mp.left_trivial() or mp.right_trivial()):
        raise ParameterError("group-like search requires one trivial action")
    N = H.conductor

    fixed_fs = np.flatnonzero((mp.act_right == np.arange(F.order)).all(axis=0))
    tau = mp.tau.tolist()

    candidates = []
    for f in fixed_fs.tolist():
        for chi in _twisted_characters(G, lambda a, b: zeta(N, tau[a][b][f]), N):
            coeffs = {H.gf_index(g, f): chi[g] for g in range(G.order)}
            candidates.append(AlgebraElement(H, coeffs))

    one = CycloNumber.one(N)
    group_likes = []
    for x in candidates:
        dx = x.comult_apply()
        xx = {}
        for i, ci in x.coeffs.items():
            for j, cj in x.coeffs.items():
                _acc(xx, (i, j), ci * cj)
        if dx == xx and x.counit_apply() == one:
            group_likes.append(x)

    unit = AlgebraElement(H, dict(H.unit))
    ident = next(i for i, x in enumerate(group_likes) if x == unit)
    table = []
    for x in group_likes:
        row = []
        for y in group_likes:
            z = x * y
            idx = next((k for k, g in enumerate(group_likes) if g == z), None)
            if idx is None:
                raise RuntimeError("group-likes not closed under product")
            row.append(idx)
        table.append(row)
    orders = []
    for i in range(len(group_likes)):
        cur, k = i, 1
        while cur != ident:
            cur = table[cur][i]
            k += 1
        orders.append(k)
    return GroupLikeSet(group_likes, table, orders, ident)


def _twisted_characters(G: FiniteGroup, tau, conductor):
    """All chi: G -> roots of unity with chi(a)chi(b) = tau(a,b) chi(ab),
    for abelian G and tau with values roots of unity.

    Per independent generator g of order n the cyclic extension chain forces
    chi(g)^n = prod_k tau(g^k, g); the finitely many root solutions are
    combined and every combination is checked on all pairs.
    """
    if not G.is_abelian():
        raise ParameterError("twisted characters implemented for abelian groups")
    dec = abelian_decomposition(G, range(G.order))
    one = CycloNumber.one(conductor)
    if not dec.gens:
        return [{0: one}]

    per_gen = []
    for g, n in zip(dec.gens, dec.orders):
        forced = one
        x = g
        for _ in range(n - 1):
            forced = forced * tau(x, g)
            x = G.mul(x, g)
        L = n * conductor
        vals = [v for v in (zeta(L, e) for e in range(L)) if v**n == forced]
        per_gen.append(vals)

    out = []
    for combo in itertools.product(*per_gen):
        # extend along the lexicographic exponent chain
        chi = {0: one}
        for gi, (g, n, val) in enumerate(zip(dec.gens, dec.orders, combo)):
            prev_layer = dict(chi)
            layer = prev_layer
            for _ in range(1, n):
                nxt = {}
                for x, cx in layer.items():
                    xg = G.mul(x, g)
                    nxt[xg] = cx * val / tau(x, g)
                chi.update(nxt)
                layer = nxt
        if len(chi) != G.order:
            continue
        if all(chi[a] * chi[b] == tau(a, b) * chi[G.mul(a, b)]
               for a in range(G.order) for b in range(G.order)):
            out.append(chi)
    return out


# ---------------------------------------------------------------------------
# structure-constant dump: bit-exact text round-trip


class FormatError(ValueError):
    """Raised on malformed structure dumps."""


def _serial_coeff(c: CycloNumber, conductor):
    den, nums = c.lift(conductor).serial()
    return f"{den} " + " ".join(str(x) for x in nums)


def dump_structure(H: HopfAlgebra) -> str:
    """Text dump of all structure constants, one line per (tag, indices)
    with repeated terms of a row summed and zero sums left out; loads back
    to an algebra with equal structure constants."""
    N = H.conductor
    out = [f"hopfqt-structure 1", f"dim {H.dim}", f"conductor {N}"]
    for i, lab in enumerate(H.labels):
        out.append(f"label {i} {lab}")
    for i, c in sorted(H.unit.items()):
        out.append(f"UNIT {i} {_serial_coeff(c, N)}")
    for i, c in enumerate(H.counit):
        if c:
            out.append(f"EPS {i} {_serial_coeff(c, N)}")
    for i in range(H.dim):
        for j in sorted(H.mult[i]):
            for k, c in sorted(_summed(H.mult[i][j]).items()):
                out.append(f"MUL {i} {j} {k} {_serial_coeff(c, N)}")
    for i in range(H.dim):
        terms = _summed(((j, k), c) for j, k, c in H.comult[i])
        for (j, k), c in sorted(terms.items()):
            out.append(f"CMUL {i} {j} {k} {_serial_coeff(c, N)}")
    for i in range(H.dim):
        for j, c in sorted(_summed(H.antipode[i]).items()):
            out.append(f"S {i} {j} {_serial_coeff(c, N)}")
    out.append("END")
    return "\n".join(out) + "\n"


def _parse_coeff(fields, conductor, phi):
    if len(fields) != phi + 1:
        raise FormatError("bad coefficient field count")
    den = int(fields[0])
    if den <= 0:
        raise FormatError(f"denominator {den} is not positive")
    nums = [int(x) for x in fields[1:]]
    return CycloNumber.from_coeffs(conductor, [Fraction(x, den) for x in nums])


# The field of a conductor N tabulates N powers of zeta_N over phi(N)
# coordinates, so loading costs time and memory quadratic in N.  The dumps
# hopfqt writes have conductor 1 (group algebras) or q (bismash products).
MAX_CONDUCTOR = 1024


def load_structure(text: str) -> HopfAlgebra:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    try:
        if not lines or lines[0].split() != ["hopfqt-structure", "1"]:
            raise FormatError("missing header")
        if not lines[1].startswith("dim ") or not lines[2].startswith("conductor "):
            raise FormatError("missing dim/conductor")
        dim = int(lines[1].split()[1])
        conductor = int(lines[2].split()[1])
        # bound the header before allocating: a dump has a CMUL line per
        # basis element, and N < 8 phi(N) for every N < 10^30
        if not 1 <= dim <= len(lines) - 4:
            raise FormatError(f"dim {dim} is not in 1..{len(lines) - 4}, "
                              "the number of structure lines")
        coeff_at = {"UNIT": 2, "EPS": 2, "MUL": 4, "CMUL": 4, "S": 3}
        degree = next((len(parts) - coeff_at[parts[0]] - 1
                       for parts in map(str.split, lines[3:-1])
                       if parts[0] in coeff_at), 0)
        if not 1 <= conductor <= 8 * degree:
            raise FormatError(f"conductor {conductor} is not in 1..{8 * degree}, "
                              "8 times the field degree of the first coefficient line")
        if conductor > MAX_CONDUCTOR:
            raise FormatError(f"conductor {conductor} exceeds {MAX_CONDUCTOR}")
        phi = euler_phi(conductor)
        labels = [f"b{i}" for i in range(dim)]
        zero = CycloNumber.zero(conductor)
        mult = [dict() for _ in range(dim)]
        comult = [[] for _ in range(dim)]
        unit = {}
        counit = [zero] * dim
        antipode = [[] for _ in range(dim)]
        if lines[-1] != "END":
            raise FormatError("missing END")

        def index(field):
            i = int(field)
            if not 0 <= i < dim:
                raise FormatError(f"basis index {i} out of range 0..{dim - 1}")
            return i

        # each distinct coefficient is parsed once per load
        coeff = functools.cache(lambda *fields: _parse_coeff(fields, conductor, phi))

        # a second line for the same (tag, indices) would silently overwrite
        # or add to the first, so it is rejected: here for the tags with one
        # index, and row by row below for the others
        singles = set()
        for ln in lines[3:-1]:
            parts = ln.split()
            tag = parts[0]
            if tag != "label" and tag not in coeff_at:
                raise FormatError(f"unknown tag {tag!r}")
            at = coeff_at.get(tag, 2)
            idx = tuple(index(f) for f in parts[1:at])
            if at == 2:
                if (tag, idx) in singles:
                    raise FormatError(f"repeated {tag} line for {idx[0]}")
                singles.add((tag, idx))
            if tag == "label":
                labels[idx[0]] = parts[2]
            elif tag == "UNIT":
                unit[idx[0]] = coeff(*parts[at:])
            elif tag == "EPS":
                counit[idx[0]] = coeff(*parts[at:])
            elif tag == "MUL":
                i, j, k = idx
                mult[i][j] = mult[i].get(j, ()) + ((k, coeff(*parts[at:])),)
            elif tag == "CMUL":
                i, j, k = idx
                comult[i].append((j, k, coeff(*parts[at:])))
            else:
                i, j = idx
                antipode[i].append((j, coeff(*parts[at:])))
        for i in range(dim):
            for tag, keys in (
                    ("MUL", [(j, k) for j, t in mult[i].items() for k, _ in t]),
                    ("CMUL", [(j, k) for j, k, _ in comult[i]]),
                    ("S", [(j,) for j, _ in antipode[i]])):
                if len(set(keys)) < len(keys):
                    key = next(x for x, m in Counter(keys).items() if m > 1)
                    raise FormatError(f"repeated {tag} line for {i} "
                                      + " ".join(map(str, key)))
    except (IndexError, ValueError) as exc:
        if isinstance(exc, FormatError):
            raise
        raise FormatError(f"malformed structure dump: {exc}") from exc
    return HopfAlgebra(dim, conductor, mult, [tuple(t) for t in comult],
                       unit, counit, [tuple(t) for t in antipode], labels)


def _summed(terms):
    """Sparse dict of (key, coefficient) terms, repeated keys summed."""
    out = {}
    for key, c in terms:
        _acc(out, key, c)
    return out

"""Quasitriangular and coquasitriangular structure laboratory.

Verifiers check the defining identities exactly.  Enumerators sweep finite
candidate spaces (bicharacters, or the (g0, g1, lambda) parameter grid for
braiding forms) and return only candidates that pass their verifier.  Every
R-matrix the enumerations find, on the group algebras and on the
tau-twisted family, is R = sum w(s,t) E_s (x) E_t for a bicharacter w and a
certified family of orthogonal idempotents E_t, and both enumerators return
it as a ``CertifiedR``: the support, the integer exponent matrix W of w and
its conductor, with the ``CycloNumber`` entries built only when read.
``verify_qt_certified`` checks such an R through integer exponent
identities: the coproduct identities on W, the intertwiner on the
support's conjugation permutations or, on the tau-twisted host, its
intertwiner table, with sparse products only where these cannot accept.
``hopf_images`` reads its image dimensions off W.  The certificates and
tables themselves are established by actual products of structure
constants, or for the characters of a group of basis elements by the
orthogonality of characters, once per support, all read off one integer
view of the idempotents at the conductor M of their coefficients
(``IdemSupport.view``).
``verify_qt`` checks every identity on all basis tuples and is the
exhaustive oracle for that path.  It is also the braiding verifier: a
braiding form on H is checked as the R-matrix it defines on the dual Hopf
algebra (``verify_coqt``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from .exactfield import CycloNumber, RowSpace, nullspace, zeta
from .grouptool import (
    AbelianDecomposition,
    Bicharacter,
    FiniteGroup,
    Idempotents,
    ParameterError,
    _group_generators,
    abelian_decomposition,
    conjugation_map,
    cyclic_group,
    enumerate_bicharacters,
    idempotents,
    largest_abelian_normal,
)
from .hopfcore import (_BLOCK, AlgebraElement, HopfAlgebra, Report, _acc,
                       _comult_rows, _expand, dual_hopf, group_algebra,
                       group_likes_bismash, unit_tensor)
from .bismash import (BismashHopf, MatchedPair, build_bismash, dualize_trivial_action,
                      make_B)


# ---------------------------------------------------------------------------
# sparse tensors in H (x) H


def _join(mult, A, B, carry):
    """The sparse product of two tensors through ``mult``: the sum of
    a b (b_i b_k) (x) (b_j b_l) over entries (i, j) -> a of A and
    (k, l) -> b of B, keyed (u, v) by the basis elements in the two products.
    With ``carry`` only the first legs multiply and the second legs are
    carried along: the product R13 R12 in H (x) H (x) H, keyed (u, l, j)."""
    out = {}
    bf = {}
    for (k, l), b in B.items():
        bf.setdefault(k, {})[l] = b
    for (i, j), a in A.items():
        row_i = mult[i]
        row_j = mult[j]
        ks = row_i.keys() & bf.keys() if len(row_i) < len(bf) else \
            [k for k in bf if k in row_i]
        for k in ks:
            sub = bf[k]
            ti = row_i[k]
            if carry:
                for l, b in sub.items():
                    ab = a * b
                    for u, cu in ti:
                        _acc(out, (u, l, j), ab * cu)
                continue
            ls = row_j.keys() & sub.keys() if len(row_j) < len(sub) else \
                [l for l in sub if l in row_j]
            for l in ls:
                c2 = a * sub[l]
                for u, cu in ti:
                    for v, cv in row_j[l]:
                        _acc(out, (u, v), c2 * cu * cv)
    return out


def t2_mul(H: HopfAlgebra, A: dict, B: dict) -> dict:
    """Product of two sparse tensors in H (x) H (dict entries)."""
    return _join(H.mult, A, B, False)


def _hexagon_sides(H, R, op):
    """Both sides of the right coproduct identity (id (x) Delta)(R) = R13 R12.
    With ``op`` the left side applies Delta-op instead; on the flip R21 of R
    this gives the left identity (Delta (x) id)(R) = R13 R23 with every key
    reversed."""
    lhs = {}
    for (i, j), c in R.items():
        for u, v, cc in H.comult[j]:
            _acc(lhs, (i, v, u) if op else (i, u, v), c * cc)
    return lhs, _join(H.mult, R, R, True)


def _inverse(x, mul, unit, dim):
    """Two-sided inverse of x in an algebra of dimension dim with product
    ``mul`` and ``unit``, read off the minimal polynomial of x; None when x
    is a zero divisor."""
    powers = [unit]
    rs = RowSpace()
    rs.add(dict(unit))
    cur = unit
    # dim + 2 powers in a dim-dimensional space are always dependent
    for _ in range(dim + 1):
        cur = mul(cur, x)
        powers.append(cur)
        if not rs.add(dict(cur)):
            # x^d = sum combo[k] x^k over k < d, so with
            # g = x^(d-1) - sum_(k>=1) combo[k] x^(k-1): x g = combo[0] 1
            combo = rs.last_dependence()
            g = dict(powers[-2])
            for k, a in combo.items():
                if k >= 1:
                    for key, v in powers[k - 1].items():
                        _acc(g, key, -a * v)
            a0 = combo.get(0)
            if not a0:
                return None
            inv = {k: v / a0 for k, v in g.items()}
            return inv if mul(x, inv) == unit and mul(inv, x) == unit else None
    raise RuntimeError("minimal polynomial search did not terminate")


# ---------------------------------------------------------------------------
# certified idempotent support


class ExponentView(NamedTuple):
    """The idempotents of an IdemSupport as integers.

    Entry a stands for scale * zeta_M^exp[a] b_idx[a], a term of E_owner[a];
    the entries of E_t are ptr[t]..ptr[t+1]-1, in ascending basis order.  M
    is the lcm of the host conductor and the conductor of the terms.
    E[t, c] is the exponent of E_t at the basis element S[c] of the sorted
    support S, and 2M where E_t has no such term.  pos[i] numbers basis
    element i among the nz that the support, its products and the legs of
    their coproducts reach, and rootmat[k] is zeta_M^k in the power basis.
    A sum of roots is counted in width = 4M + 1 bins per key, room for the
    sum of two exponents of E."""

    owner: np.ndarray
    idx: np.ndarray
    exp: np.ndarray
    ptr: np.ndarray
    S: np.ndarray
    E: np.ndarray
    scale: object
    M: int
    pos: np.ndarray
    nz: int
    rootmat: np.ndarray
    width: int

    def unequal(self, n, prods, terms):
        """Boolean over the keys 0..n-1: True where scale * sum zeta_M^e over
        the bins key * width + e of prods differs from the same sum over the
        bins of terms.  Exponents e of 2M and above mark absent terms."""
        M = self.M
        # scale^2 sum_prods = scale sum_terms, i.e. num sum_prods = den sum_terms
        diff = np.bincount(prods, minlength=n * self.width)
        diff *= self.scale.numerator
        np.subtract.at(diff, terms, self.scale.denominator)
        diff = diff.reshape(n, -1)
        return ((diff[:, :M] + diff[:, M:2 * M]) @ self.rootmat).any(axis=1)


def _numbered(space, keys, more):
    """(met, slot): the ascending keys in range(space) that occur in keys or
    in more, and slot[k] the number of key k among them."""
    hit = np.bincount(keys, minlength=space) > 0
    hit[more] = True
    return np.flatnonzero(hit), np.cumsum(hit) - 1


def exponent_form(vectors, conductor):
    """The ``Idempotents`` form of idempotents given as dicts basis index ->
    CycloNumber, with L the lcm of conductor and the conductors of the
    coefficients; None when there is no coefficient, a coefficient is no
    rational multiple of a power of zeta_L, or two coefficients have
    different rational parts."""
    entries = [(t, i, vec[i]) for t, vec in enumerate(vectors) for i in sorted(vec)]
    L = math.lcm(conductor, *(c.conductor for _, _, c in entries))
    roots = [c.lift(L).as_root() for _, _, c in entries]
    if not roots or None in roots or any(r[1] != roots[0][1] for r in roots):
        return None
    owner, idx = np.array([e[:2] for e in entries], dtype=np.int64).T
    return Idempotents(owner, idx, np.array([r[0] for r in roots], dtype=np.int64),
                       roots[0][1], L)


class IdemSupport:
    """A complete orthogonal idempotent family {E_t} in H indexed by an
    abelian group given as a multiplication table kmul on 0..m-1, the
    idempotents given by their terms as ``grouptool.Idempotents`` (None for
    a family without that form, see ``exponent_form``).

    certify() establishes, by actual structure-constant computation:
    orthogonality E_s E_t = delta E_s, completeness sum E_t = 1, and the
    comultiplication factorization Delta(E_t) = sum_{t1 t2 = t} E_t1 (x) E_t2.
    Tensors supported on a certified family can then be verified through
    integer exponent identities.  Every check reads one ``ExponentView`` of
    the support at conductor M: each coefficient is a rational scale, common
    to all, times a power of zeta_M, and the structure constants come from
    the host's exponent tables (``mono_tables``, ``comult_tables``).  Both
    identities are exact comparisons of sums of roots of unity at M, unless
    the idempotents are the characters of a group of basis elements
    (``_characters``), where integer identities of the view certify them.
    Orthogonality builds the products E_s E_t one row s at a time, so its
    memory is linear in the number m of idempotents times the products in
    the support, not quadratic in m.  A support without a view is refused.
    """

    def __init__(self, host, idems, kmul):
        self.host = host
        self.idems = idems
        self.kmul = np.asarray(kmul, dtype=np.int64)
        self.m = len(self.kmul)
        self.certified = False

    @cached_property
    def vectors(self):
        """The idempotents as dicts basis index -> CycloNumber, built from
        their terms on first read."""
        f = self.idems
        root = {e: CycloNumber.from_rational(f.scale) * zeta(f.L, e)
                for e in set(f.exp.tolist())}
        out = [{} for _ in range(self.m)]
        for t, i, e in zip(f.owner.tolist(), f.idx.tolist(), f.exp.tolist()):
            out[t][i] = root[e]
        return out

    @cached_property
    def view(self):
        """The ExponentView of the idempotents, at M = lcm(N, L) for the host
        conductor N and the conductor L of the terms; None when the family
        has no terms form or the host has no exponent tables."""
        H, f = self.host, self.idems
        tables, ctables = H.mono_tables(), H.comult_tables()
        if f is None or tables is None or ctables is None:
            return None
        M = math.lcm(H.conductor, f.L)
        owner, idx, exp = f.owner, f.idx, f.exp * (M // f.L)
        # the support, then the basis elements its products and the legs of
        # their coproducts reach
        hit = np.zeros(H.dim, dtype=bool)
        hit[idx] = True
        S = np.flatnonzero(hit)
        E = np.full((self.m, len(S)), 2 * M)
        E[owner, np.searchsorted(S, idx)] = exp
        rows, lefts, rights, _ = ctables
        legs, prods = hit[rows], tables[0][np.ix_(S, S)]
        hit[prods[prods >= 0]] = hit[lefts[legs]] = hit[rights[legs]] = True
        return ExponentView(
            owner, idx, exp, np.r_[0, np.cumsum(np.bincount(owner, minlength=self.m))],
            S, E, f.scale, M, np.cumsum(hit) - 1, int(hit.sum()),
            np.array([zeta(M, k).serial()[1] for k in range(M)], dtype=np.int64),
            4 * M + 1)

    def certify(self):
        """Establish orthogonality, completeness and the factorization of
        Delta(E_t), and that kmul is a group; raise ValueError naming the
        first that fails.  Where the ``_characters`` premises hold,
        orthogonality and completeness follow from the orthogonality of
        characters and the factorization from an integer identity of the
        view (see ``_factors``); every identity whose shortcut does not
        apply is decided by the sums of roots of the view."""
        if self.certified:
            return self
        if self.view is None:
            raise ValueError("support has no exponent view on this host")
        bad = self._first_nonorthogonal()
        if bad:
            raise ValueError("support not orthogonal idempotents at ({},{})".format(*bad))
        if not self._characters:
            total = {}
            for vec in self.vectors:
                for i, c in vec.items():
                    _acc(total, i, c)
            if total != self.host.unit:
                raise ValueError("support does not sum to the unit")
        if self.gens is None:
            raise ValueError("support index table is not a group")
        # kdiv[t1, t] is the t2 with t1 t2 = t
        if not self._factors(np.argsort(self.kmul, axis=1)):
            raise ValueError("comultiplication does not factor over the support")
        self.certified = True
        return self

    @cached_property
    def gens(self):
        """``_group_generators`` of kmul: the identity index, then indices
        that generate the index group; None when kmul is not a group."""
        return _group_generators(self.kmul)

    @cached_property
    def _characters(self):
        """True when the idempotents are E_t = (1/|S|) sum_x chi_t(x) b_x
        for the |S| distinct characters chi_t of a group S of basis
        elements.  Then E_s E_t = delta E_s and sum_t E_t = 1 hold exactly
        by the orthogonality of characters (J.-P. Serre, *Linear
        representations of finite groups*, 2.3): E_s E_t is
        (1/|S|^2) sum_z chi_t(z) b_z sum_x (chi_s / chi_t)(x), and the inner
        sum is 0 for s != t; the sum over all characters of chi(x) is
        |S| [x = e], and b_e is the unit.

        Premises, each an integer check on the view: the support S is a group
        under the host product with b_x b_y = b_xy (exponent 0) whose
        identity is the unit of the host; every E_t has a term at every
        element of S; each row E[t] is a homomorphism S -> Z_M, checked on
        generators of S at the view's conductor M (see ``_multiplicative``);
        the m rows are pairwise distinct mod M, m = |S|, and the scale is
        1/|S|."""
        v, H = self.view, self.host
        if v is None:
            return False
        S, n = v.S, len(v.S)
        if self.m != n or v.scale != Fraction(1, n) or (v.E >= v.M).any():
            return False
        mt, me = H.mono_tables()
        prods = mt[np.ix_(S, S)]
        col = np.full(H.dim, -1)
        col[S] = np.arange(n)
        smul = np.where(prods >= 0, col[prods], -1)
        gens = _group_generators(smul)
        if gens is None or (me[np.ix_(S, S)] % H.conductor).any():
            return False
        return (H.unit == {int(S[gens[0]]): CycloNumber.one(H.conductor)}
                and _multiplicative(v.E.T, smul, v.M, gens)
                and len({row.tobytes() for row in v.E % v.M}) == n)

    def _first_nonorthogonal(self):
        """The first (s, t), rows s ascending, with E_s E_t != delta E_s;
        () when every product holds: at once when ``_characters`` holds,
        else from the sums of roots of the view."""
        if self._characters:
            return ()
        v, m, w = self.view, self.m, self.view.width
        mt, me = self.host.mono_tables()
        # the products b_x b_y of x = S[c] with each entry y = idx[b] of any
        # E_t, keyed (owner[b], b_x b_y); the same keys serve every row s,
        # and a zero product gets key 0 and exponent 2M
        grid = mt[v.S[:, None], v.idx]
        nonzero = grid >= 0
        keys = np.where(nonzero, v.owner * v.nz + v.pos[grid], 0)
        diag = v.owner * v.nz + v.pos[v.idx]
        met, slot = _numbered(m * v.nz, keys.ravel(), diag)
        f = v.M // self.host.conductor
        prods = slot[keys] * w + np.where(
            nonzero, (v.exp + me[v.S[:, None], v.idx] * f) % v.M, 2 * v.M)
        diag = slot[diag] * w + v.exp
        for s in range(m):
            bad = v.unequal(len(met), (prods + v.E[s, :, None]).ravel(),
                            diag[v.ptr[s]:v.ptr[s + 1]])
            if bad.any():
                return s, int(met[bad.argmax()]) // v.nz
        return ()

    def _factors(self, kdiv):
        """Delta(E_t) = sum_(t1 t2 = t) E_t1 (x) E_t2 for every t, with
        kdiv[t1, t] the t2, on a support whose index table is a group.

        Accepted at once when ``_characters`` holds, every b_x of S is
        group-like and E[kmul[t1, t2]] = E[t1] + E[t2] mod M (checked on
        generators of kmul, see ``_multiplicative``): then chi_t2 is
        chi_t / chi_t1, the right side is
        (1/|S|^2) sum_(x, y) chi_t(y) b_x (x) b_y sum_t1 chi_t1(x y^-1), and
        the inner sum over all characters is |S| [x = y] (Serre, 2.3), which
        leaves (1/|S|) sum_x chi_t(x) b_x (x) b_x = Delta(E_t).  Otherwise
        both sides are compared as sums of roots of the view, keyed by the
        positions of the two legs."""
        v, m, nz, w = self.view, self.m, self.view.nz, self.view.width
        if self._characters and _group_likes(self.host)[v.S].all() \
                and _multiplicative(v.E, self.kmul, v.M, self.gens):
            return True
        _, lefts, rights, dexp = tables = self.host.comult_tables()
        ccnt, cptr = _comult_rows(tables, self.host.dim)
        f = v.M // self.host.conductor
        # P[t, j], E[t, j]: position and exponent of the j-th entry of E_t,
        # padded with exponent 2M
        j = np.arange(len(v.idx)) - v.ptr[v.owner]
        P = np.zeros((m, j.max() + 1), dtype=np.int64)
        E = np.full(P.shape, 2 * v.M)
        P[v.owner, j], E[v.owner, j] = v.pos[v.idx], v.exp
        left = P[:, :, None] * nz
        for t in range(m):
            # Delta(E_t): the terms of Delta(b_x) for each entry x of E_t
            a = np.arange(v.ptr[t], v.ptr[t + 1])
            x, c = _expand(cptr[v.idx[a]], ccnt[v.idx[a]])
            lkey = v.pos[lefts[c]] * nz + v.pos[rights[c]]
            # every product of an entry of E_t1 and one of E_t2, t1 t2 = t
            t2 = kdiv[:, t]
            pkey = left + P[t2, None, :]
            met, slot = _numbered(nz * nz, pkey.ravel(), lkey)
            slot *= w
            prods = slot[pkey]
            prods += E[:, :, None] + E[t2, None, :]
            if v.unequal(len(met), prods.ravel(),
                         slot[lkey] + v.exp[a[x]] + dexp[c] * f).any():
                return False
        return True

    def conj_perms(self):
        """For each basis element h of the host: the permutation t -> t' with
        h E_t h^-1 = E_t' when h is group-like with a scaled basis inverse,
        read off the exponent view; None rows mark elements where this shape
        fails (all rows when the support has no view or the unit is not one
        basis element).

        All h are taken at once.  h E_t h^-1 depends on h only through the
        column map and the exponent shift below, so each distinct pair of
        them is conjugated once, as many pairs at a time as fit in _BLOCK
        entries (at least one); each conjugated row is looked up among the
        rows of E by its bytes, and the index found is confirmed by
        comparing the two rows entry by entry.  Where rows of E repeat, the
        last of them is found."""
        H = self.host
        N, n = H.conductor, H.dim
        v = self.view
        out = [None] * n
        root = None
        if len(H.unit) == 1:
            (u, cu), = H.unit.items()
            root = cu.lift(N).as_root()
        if v is None or root is None or root[1] != 1:
            return out
        mt, me = H.mono_tables()
        M, S, E = v.M, v.S, v.E
        col = np.full(n, -1)
        col[S] = np.arange(len(S))
        # h^-1 = zeta^(e_u - me[h, j]) b_j for the unique j with b_h b_j ~ b_u
        hits = mt == u
        h = np.flatnonzero(_group_likes(H) & (hits.sum(axis=1) == 1))
        j = hits[h].argmax(axis=1)
        keep = (mt[j, h] == u) & ((me[j, h] - me[h, j]) % N == 0)
        h, j = h[keep, None], j[keep, None]
        # b_h b_x h^-1 = zeta^(me[h,x] + me[hx,j] + e_u - me[h,j]) b_y, x in S
        hx = mt[h, S]
        y = mt[hx, j]
        cols = col[y]
        keep = ((hx >= 0) & (y >= 0) & (cols >= 0)).all(axis=1)
        keep[keep] = (np.diff(np.sort(cols[keep], axis=1), axis=1) > 0).all(axis=1)
        if not keep.any():
            return out
        h, j, hx, cols = h[keep], j[keep], hx[keep], cols[keep]
        shift = (me[h, S] + me[hx, j] + root[0] - me[h, j]) * (M // N) % M
        first, which = _row_classes(np.concatenate([cols, shift], axis=1))
        keys = _row_keys(E)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        perms = []
        step = max(1, _BLOCK // E.size)
        for c in range(0, len(first), step):
            f = first[c:c + step]
            # conj[b, t, cols[f[b], x]] = E[t, x] shifted by shift[f[b], x]
            conj = np.where(E < M, (E + shift[f, None, :]) % M, E)
            conj = np.take_along_axis(conj, np.argsort(cols[f])[:, None, :], axis=2)
            conj = conj.reshape(-1, E.shape[1])
            t = order[np.searchsorted(keys, _row_keys(conj), side="right") - 1]
            found = (E[t] == conj).all(axis=1).reshape(len(f), -1).all(axis=1)
            t = t.reshape(len(f), -1).tolist()
            perms += [row if ok else None for row, ok in zip(t, found.tolist())]
        for k, row in zip(h.ravel().tolist(), which.tolist()):
            out[k] = None if perms[row] is None else list(perms[row])
        return out

    @cached_property
    def intertwiner_table(self):
        """Delta-op(b_h) R = R Delta(b_h) at every basis row h, for every
        R = sum w(k,l) E_k (x) E_l on this support, as integer arrays
        (rows, coords, k, l, i, j, fix) with one entry per Delta(b_h) term,
        sorted by row and coordinate; None where the premises below fail.

        Premises: the support has an exponent view, every E_k is c_k b_(s_k),
        and every leg of every Delta(b_h) term meets exactly one E_k on each
        side.  Then each side has one term per Delta(b_h) term: the left
        (b_T2 E_k) (x) (b_T1 E_l) with w-slot (k, l), the right
        (E_i b_T1) (x) (E_j b_T2) with w-slot (i, j).  Where, third premise,
        the coordinates of each row are pairwise distinct and the same on
        both sides, the identity at b_h is w(k,l) - w(i,j) + fix = 0 at each
        entry of row h, in exponents of zeta (fix in units of zeta_M, M the
        conductor of the view)."""
        H = self.host
        N, n = H.conductor, H.dim
        v = self.view
        if v is None or (np.diff(v.ptr) != 1).any() or len(v.S) != self.m:
            return None
        s, e, f = v.idx, v.exp, v.M // N
        (mt, me), (rows, lefts, rights, dexp) = H.mono_tables(), H.comult_tables()

        def meets(hits):
            # per basis element: the one idempotent it meets, else -1
            return np.where(hits.sum(axis=1) == 1, hits.argmax(axis=1), -1)

        after, before = meets(mt[:, s] >= 0), meets(mt[s, :].T >= 0)
        k, l, i, j = after[rights], after[lefts], before[lefts], before[rights]
        if (np.concatenate([k, l, i, j]) < 0).any():
            return None
        lkey = (rows * n + mt[rights, s[k]]) * n + mt[lefts, s[l]]
        rkey = (rows * n + mt[s[i], lefts]) * n + mt[s[j], rights]
        lo, ro = np.argsort(lkey), np.argsort(rkey)
        if not (np.array_equal(lkey[lo], rkey[ro])
                and (np.diff(lkey[lo]) > 0).all()):
            return None
        fix = ((me[rights, s[k]] + me[lefts, s[l]] + dexp) * f + e[k] + e[l])[lo] \
            - ((me[s[i], lefts] + me[s[j], rights] + dexp) * f + e[i] + e[j])[ro]
        return (rows[lo], lkey[lo] % (n * n), k[lo], l[lo], i[ro], j[ro],
                fix % v.M)

    def intertwiner_rejects(self, W, L):
        """Boolean array over the host basis, True at the rows h where the
        table shows Delta-op(b_h) R != R Delta(b_h) for the R with exponent
        matrix W mod L; None without a table."""
        if self.intertwiner_table is None:
            return None
        rows, _, k, l, i, j, fix = self.intertwiner_table
        M = math.lcm(self.view.M, L)
        bad = ((W[k, l] - W[i, j]) * (M // L) + fix * (M // self.view.M)) % M != 0
        return np.bincount(rows[bad], minlength=self.host.dim) > 0


def _group_likes(H):
    """Boolean array over the basis of H: Delta(b_i) = b_i (x) b_i, read off
    the comult tables, which every host with an exponent view has."""
    rows, lefts, rights, exps = tables = H.comult_tables()
    cnt, ptr = _comult_rows(tables, H.dim)
    first = np.minimum(ptr[:-1], len(rows) - 1)
    i = np.arange(H.dim)
    return (cnt == 1) & (lefts[first] == i) & (rights[first] == i) & (exps[first] == 0)


def _row_keys(A):
    """The rows of the 2-D array A as one bytes key each (numpy void), so
    that equal keys are equal rows."""
    A = np.ascontiguousarray(A)
    return A.view(np.dtype((np.void, A.dtype.itemsize * A.shape[1]))).ravel()


def _row_classes(A):
    """(first, which) for the rows of the 2-D array A, by their bytes: the
    index of one row of each distinct row, and for each row the number of
    its class in first."""
    keys = _row_keys(A)
    order = np.argsort(keys, kind="stable")
    new = np.r_[True, keys[order][1:] != keys[order][:-1]]
    which = np.empty(len(A), dtype=np.int64)
    which[order] = np.cumsum(new) - 1
    return order[new], which


def _distinct_perms(conj_perms, m):
    """(perms, which): the distinct permutation rows of conj_perms, as an
    (count, m) array, and for each basis row h the index of its
    permutation in perms, -1 for a None row."""
    rows = [h for h, perm in enumerate(conj_perms) if perm is not None]
    perms = np.zeros((0, m), dtype=np.int64)
    which = np.full(len(conj_perms), -1)
    if rows:
        perms, inverse = np.unique(np.array([conj_perms[h] for h in rows]),
                                   axis=0, return_inverse=True)
        which[rows] = inverse.reshape(-1)
    return perms, which.tolist()


# ---------------------------------------------------------------------------
# verify_qt


def verify_qt(H: HopfAlgebra, entries: dict) -> Report:
    """Exact verification of R, given as its sparse tensor ``entries``
    (i, j) -> coefficient of b_i (x) b_j: invertibility of R, both coproduct
    identities (Delta (x) id)R = R13 R23 and (id (x) Delta)R = R13 R12, and
    the intertwiner identity Delta-op(h) R = R Delta(h) for every basis h.
    Every condition is checked: each coproduct identity is witnessed by its
    first differing tensor key, the intertwiner by every failing h."""
    rep = Report()

    if _inverse(entries, partial(t2_mul, H), unit_tensor(H), H.dim ** 2) is None:
        rep.fail("invertible", ("zero divisor or no inverse",))

    flip = {(j, i): c for (i, j), c in entries.items()}
    for name, T, op in (("coproduct identity (left)", flip, True),
                        ("coproduct identity (right)", entries, False)):
        lhs, rhs = _hexagon_sides(H, T, op)
        if lhs != rhs:
            key, = _first_diff(lhs, rhs)
            rep.fail(name, (key[::-1] if op else key,))
    for h in range(H.dim):
        if not _intertwines(H, entries, h):
            rep.fail("intertwiner", (h,))
    return rep


def _intertwines(H, entries, h):
    """Delta-op(b_h) R = R Delta(b_h)."""
    delta = {}
    for j, k, c in H.comult[h]:
        _acc(delta, (j, k), c)
    lhs, rhs = _intertwiner_sides(H, entries, delta)
    return lhs == rhs


def _intertwiner_sides(H, entries, delta):
    """(Delta-op(h) R, R Delta(h)) for the coproduct tensor delta = Delta(h)."""
    flip = {(k, j): c for (j, k), c in delta.items()}
    return t2_mul(H, flip, entries), t2_mul(H, entries, delta)


def _first_diff(a, b):
    for k in a.keys() | b.keys():
        if a.get(k) != b.get(k):
            return (k,)
    return ()


class CertifiedR:
    """R = sum w(s,t) E_s (x) E_t on the IdemSupport sup, held as the
    integer exponent matrix W of w on support indices mod the conductor L.
    W is passed as an array, or as the pair (X, A) of its factors
    W = X A X^T mod L (``_bichar_forms``), from which it is built on first
    read.  ``entries``, the sparse tensor in H (x) H that verify_qt reads,
    is built by r_entries_from_support on first use and then kept."""

    def __init__(self, sup: IdemSupport, W, L: int):
        self.sup = sup
        self.host = sup.host
        self.L = L
        if isinstance(W, tuple):
            self._factors = W
        else:
            self.W = np.asarray(W, dtype=np.int64)

    @cached_property
    def W(self):
        X, A = self._factors
        return X @ A @ X.T % self.L

    @cached_property
    def entries(self) -> dict:
        return r_entries_from_support(self.sup, self.W, self.L)

    def __repr__(self):
        return f"<CertifiedR m={self.sup.m} L={self.L}>"


def r_entries_from_support(sup: IdemSupport, W, L) -> dict:
    entries = {}
    for s in range(sup.m):
        for t in range(sup.m):
            c = zeta(L, int(W[s, t]))
            for i, ci in sup.vectors[s].items():
                for j, cj in sup.vectors[t].items():
                    _acc(entries, (i, j), c * ci * cj)
    return entries


def _multiplicative(W, kmul, L, gens):
    """W[kmul[s, g], t] = W[s, t] + W[g, t] mod L for all s, g, t: each
    column s -> W[s, t] is a character of the group kmul.  Checked for g in
    gens only, the identity and a generating set of the group
    (``_group_generators``), which is r m^2 integer work, not m^3.  At
    g = e it gives W[e] = 0.  By associativity the g for which it holds are
    closed under products: W[s(gh)] = W[(sg)h] = W[sg] + W[h] = W[s] + W[g]
    + W[h] = W[s] + W[gh], so by induction on words in the generators it
    holds for every g of the finite group.

    W holds entries in 0..L-1 in a type that holds 3L (``_reduced``), so
    a = b + c mod L is a = b + c or a + L = b + c.  W may be a stack
    (count, m, m) of such matrices, checked all at once."""
    g = np.asarray(gens)
    a = W[..., kmul[:, g], :]
    s = W[..., :, None, :] + W[..., None, g, :]
    return bool(((a == s) | (a + L == s)).all())


def _reduced(W, L):
    """W mod L, C-contiguous, in the smallest signed integer type that holds
    3L: the form that _multiplicative and _invariant_under read."""
    return np.ascontiguousarray(W % L, dtype=np.min_scalar_type(-3 * L))


def verify_qt_certified(R: CertifiedR, conj_perms) -> Report:
    """verify_qt for R = sum w(s,t) E_s (x) E_t on a certified support;
    the verifier both enumerations run on their survivors.

    Orthogonality, completeness and Delta(E_t) = sum_(t1 t2 = t) E_t1 (x) E_t2
    of R.sup are certified, so the coproduct identities are multiplicativity
    of R.W in each slot mod R.L, checked on generators of the support group
    (``_multiplicative``), and R is always invertible, with inverse w -> -w.
    conj_perms is R.sup.conj_perms().  At a row perm the intertwiner is
    W[perm, perm] = W mod L, tested once per distinct permutation (a group
    algebra has few: one per coset of the centralizer of K).  Its None rows
    (every row of the tau-twisted host, whose basis elements are not
    group-like) are read from R.sup.intertwiner_table, where the identity is
    an exact exponent identity of W at each row; the table only accepts.  A
    row it rejects, and every row when there is no table, is checked on
    R.entries, so the generic R is built at most once and stays on R.
    Failures are reported in ascending basis order.
    """
    sup = R.sup.certify()
    rep = Report()
    L = R.L
    W = _reduced(R.W, L)
    if not _multiplicative(W, sup.kmul, L, sup.gens):
        rep.fail("coproduct identity (left)", ("first-slot multiplicativity",))
    if not _multiplicative(W.T, sup.kmul, L, sup.gens):
        rep.fail("coproduct identity (right)", ("second-slot multiplicativity",))
    # intertwiner over all basis elements of the host
    perms, which = _distinct_perms(conj_perms, sup.m)
    ok = [_invariant_under(W, perm) for perm in perms]
    rejects = sup.intertwiner_rejects(R.W, L)
    for h, k in enumerate(which):
        if k >= 0:
            holds = ok[k]
        else:
            holds = (rejects is not None and not rejects[h]) or \
                _intertwines(R.host, R.entries, h)
        if not holds:
            rep.fail("intertwiner", (h,))
    return rep


def _invariant_under(W, perm):
    """W[perm, perm] = W, for W ``_reduced`` mod L: the bicharacter with
    exponent matrix W is invariant under the permutation perm of its
    support indices; for a stack W of exponent matrices, every one is."""
    perm = np.asarray(perm)
    return np.array_equal(np.take(np.take(W, perm, axis=-2), perm, axis=-1), W)


# entries of the largest array a block of survivors' checks builds
_VERIFY_BLOCK = 1 << 22


def _stack_passes(Ws, sup, L, perms):
    """True when every exponent matrix of the stack Ws (count, m, m) passes
    verify_qt_certified on the certified support sup, for conj_perms rows
    that are all permutations, perms the distinct ones: both
    multiplicativities and invariance under each of perms, each checked on
    the whole stack at once."""
    Ws = _reduced(Ws, L)
    return (_multiplicative(Ws, sup.kmul, L, sup.gens)
            and _multiplicative(np.ascontiguousarray(np.swapaxes(Ws, 1, 2)),
                                sup.kmul, L, sup.gens)
            and all(_invariant_under(Ws, perm) for perm in perms))


def _verified_survivors(sup, X, A, L, conj_perms):
    """CertifiedR(sup, (X, A[k]), L) for every k, each passing
    verify_qt_certified(R, conj_perms) on the certified support sup, else
    AssertionError.  Where no row of conj_perms is None, the exponent
    matrices W = X A[k] X^T mod L are checked a block at a time by
    ``_stack_passes``.  If a block fails, verify_qt_certified reruns on each
    R in order and raises at the first that fails."""
    perms, which = _distinct_perms(conj_perms, sup.m)
    step = max(1, _VERIFY_BLOCK // (sup.m ** 2 * len(sup.gens)))
    passed = -1 not in which and all(
        _stack_passes(X @ A[c:c + step] @ X.T, sup, L, perms)
        for c in range(0, len(A), step))
    out = [CertifiedR(sup, (X, Aw), L) for Aw in A]
    for R in out if not passed else ():
        if not verify_qt_certified(R, conj_perms).passed:
            raise AssertionError(
                "conjugation-invariant bicharacter failed verify_qt_certified")
    return out


# ---------------------------------------------------------------------------
# bicharacters on a subgroup as exponent matrices


def _k_index_table(K: AbelianDecomposition):
    pos = np.full(K.group.order, -1)
    pos[K.elements] = np.arange(len(K.elements))
    return pos[K.group.table[np.ix_(K.elements, K.elements)]].tolist()


def _bichar_forms(E, K: AbelianDecomposition):
    """(X, A, L) with X @ A[k] @ X.T the exponent matrix of the bicharacter
    E[k] of ``enumerate_bicharacters(K)`` on K.elements indices, mod the
    common conductor L of the bicharacters on K: X holds the exponent
    vectors of K.elements, and A[k][i, j] the generator pair value of E[k]
    as a power of zeta_L."""
    L = math.lcm(1, *K.orders)
    o = np.asarray(K.orders, dtype=np.int64)
    return K.exponent_matrix(), E * (L // np.gcd.outer(o, o)), L


def _keys(E):
    """The ``Bicharacter`` keys of the rows of E, generator-pair exponents
    as ``enumerate_bicharacters`` gives them: tuples of tuples of ints."""
    return [tuple(map(tuple, e)) for e in E.tolist()]


# ---------------------------------------------------------------------------
# group-algebra enumeration


# family -> (acting generator names, printed generator pairs).  The printed
# conditions are the generator instances of conjugation invariance; the image
# of each label is taken through the actual idempotent-conjugation
# permutation, which keeps the conditions independent of the duality
# convention used to index the idempotents.
_CLOSED_FORM = {
    "beta3": (("t",), [("s", "s")]),
    "beta4": (("u",), [("s", "t"), ("t", "s"), ("t", "t")]),
    "beta5": (("u",), [("s", "s"), ("s", "t"), ("t", "s"), ("t", "t")]),
    "beta6": (("u",), [("s", "s"), ("s", "t"), ("t", "s"), ("t", "t")]),
    "beta7": (("u",), [("s", "s"), ("s", "t"), ("t", "s"), ("t", "t")]),
    "gamma3": (("t",), [("s", "s"), ("s", "tq"), ("tq", "s")]),
    "gamma4": (("t",), [("s", "s")]),
    "gamma5": (("u",), [("s", "s"), ("s", "t"), ("t", "s")]),
    "gamma6": (("t", "u"), [("s", "s")]),
}


def _closed_form_element(G: FiniteGroup, name):
    params = getattr(G, "params", {})
    if name == "tq":
        return G.power(G.generators["t"], params["q"])
    return G.generators[name]


def closed_form_survivors(G: FiniteGroup, E, K: AbelianDecomposition):
    """The rows of E = enumerate_bicharacters(K) passing the printed
    generator conditions of the family, with conjugation images taken from
    ``conjugation_map``."""
    conds_for_family = _CLOSED_FORM.get(G.family_tag)
    if conds_for_family is None:
        raise ParameterError(f"no closed-form conditions for {G.family_tag!r}")
    gen_names, pair_words = conds_for_family
    pos = {x: i for i, x in enumerate(K.elements)}
    conds = []
    for gname in gen_names:
        perm = conjugation_map(G, G.generators[gname], K)
        for (xw, yw) in pair_words:
            ix = pos[_closed_form_element(G, xw)]
            iy = pos[_closed_form_element(G, yw)]
            # w(phi(x), phi(y)) = w(x, y)
            conds.append((perm[ix], perm[iy], ix, iy, 0))
    return E[_sieve(_bichar_forms(E, K), np.array(conds), 1)]


# conditions per block of _sieve; the first block of the _qt_B_oracle
# conditions holds 2,401 x 32 int64 exponents at (3,7), 64 raised the peak
# memory of a run
_SIEVE_BLOCK = 32


def _sieve(forms, C, N):
    """Mask of the bicharacters w of forms = _bichar_forms(E, K) meeting
    every condition (x, y, u, v, e), a row of the integer array C, on
    indices of K.elements: w(x, y) = w(u, v) zeta_N^e.  Each condition is
    linear in the generator-pair form A_w of w, since W = X A_w X^T:
    X[x] A_w X[y]^T - X[u] A_w X[v]^T = e, compared at the conductor
    lcm(L, N).  All bicharacters go through the conditions a block at a
    time, and each one is dropped at its first failing block."""
    X, A, L = forms
    r = X.shape[1]
    M = math.lcm(L, N)
    x, y, u, v, e = C.T
    P = (X[x, :, None] * X[y, None, :]
         - X[u, :, None] * X[v, None, :]).reshape(len(C), r * r)
    P, F = P.T * (M // L), e * (M // N)
    A = A.reshape(len(A), r * r)
    alive = np.arange(len(A))
    for c in range(0, len(F), _SIEVE_BLOCK):
        block = slice(c, c + _SIEVE_BLOCK)
        V = A[alive] @ P[:, block]
        V -= F[block]
        V %= M
        alive = alive[~V.any(axis=1)]
    keep = np.zeros(len(A), dtype=bool)
    keep[alive] = True
    return keep


def _respects(perm, kmul):
    """perm[kmul[a, b]] = kmul[perm[a], perm[b]] for all a, b: the
    permutation perm of the support indices is an automorphism of kmul."""
    return np.array_equal(perm[kmul], kmul[np.ix_(perm, perm)])


def _invariant_mask(forms, perms, kmul, gens):
    """Mask of the bicharacters w of forms = _bichar_forms(E, K), with kmul
    the index table of K, invariant under every permutation perm in perms:
    w(perm x, perm y) = w(x, y) for all x, y, i.e. W[perm, perm] = W mod L,
    as ``_invariant_under`` tests it on one W.

    Where gens is the identity and a generating set of the group kmul
    (``_group_generators``) and perm respects kmul (``_respects``),
    w o (perm x perm) is again a bicharacter, and two bicharacters agree
    when they agree on all pairs of generators; so the conditions are needed
    on the pairs of generators only.  For any other perm, every pair is a
    condition.  One ``_sieve`` decides them all, and no exponent matrix is
    built."""
    conds = [np.zeros((0, 5), dtype=np.int64)]
    for perm in perms:
        perm = np.asarray(perm)
        automorphism = gens is not None and _respects(perm, kmul)
        idx = np.array(gens[1:] if automorphism else range(len(kmul)),
                       dtype=np.int64)
        x, y = (a.ravel() for a in np.meshgrid(idx, idx, indexing="ij"))
        conds.append(np.stack([perm[x], perm[y], x, y, 0 * x], axis=1))
    return _sieve(forms, np.concatenate(conds), 1)


class QTEnumeration(list):
    """list of (Bicharacter, CertifiedR) on ``host``, the algebra the
    R-matrices live on; each key set of the
    independent checks is an attribute (``invariant_keys`` and
    ``closed_form_keys`` for group algebras, ``filter_keys`` and
    ``oracle_keys`` for the tau-twisted family).  Every listed pair passed
    its verifier; an enumeration raises rather than leave out a filtered
    candidate that fails it."""

    def __init__(self, host, pairs, **key_sets):
        super().__init__(pairs)
        self.host = host
        vars(self).update(key_sets)
        self._key_sets = list(key_sets.values())

    @property
    def oracle_equivalent(self):
        return all(k == self._key_sets[0] for k in self._key_sets)


def qt_group_algebra_enumerate(G: FiniteGroup) -> QTEnumeration:
    """All quasitriangular structures on k[G] supported on K, which is G
    itself or its largest abelian normal subgroup: the bicharacters on K
    invariant under conjugation by the generators of G, whose permutations
    are the rows of the certified support's conj_perms.  Invariance is
    decided for all bicharacters at once, on pairs of generators of K
    (``_invariant_mask``); the survivors pass verify_qt_certified, checked
    on their stacked exponent matrices (``_verified_survivors``), and are
    cross-checked against the printed closed-form conditions (every
    bicharacter when G is abelian)."""
    abelian = G.is_abelian()
    K = (abelian_decomposition(G, range(G.order)) if abelian
         else largest_abelian_normal(G))
    E = enumerate_bicharacters(K)
    H = group_algebra(G, conductor=math.lcm(1, *K.orders))
    sup = IdemSupport(H, idempotents(K), _k_index_table(K)).certify()
    conj = sup.conj_perms()
    gen_perms = [conj[g] for g in sorted(set(G.generators.values()))]
    if None in gen_perms:
        raise AssertionError("a generator does not permute the idempotents of K")

    X, A, L = forms = _bichar_forms(E, K)
    found = np.flatnonzero(_invariant_mask(forms, gen_perms, sup.kmul, sup.gens))
    pairs = list(zip(map(Bicharacter, _keys(E[found])),
                     _verified_survivors(sup, X, A[found], L, conj)))
    closed = E if abelian else closed_form_survivors(G, E, K)
    return QTEnumeration(H, pairs, invariant_keys={w.key() for w, _ in pairs},
                         closed_form_keys=set(_keys(closed)))


# ---------------------------------------------------------------------------
# eta and the twisted-family enumeration


def eta(mp: MatchedPair, h: int, k: int, f: int) -> CycloNumber:
    """tau(h, k, f) tau(k, h, f)^-1."""
    return zeta(mp.conductor, int(mp.tau[h, k, f] - mp.tau[k, h, f]))


def qt_B_enumerate(p, q, m, lam) -> QTEnumeration:
    """All quasitriangular structures on the tau-twisted family, on the
    algebra it builds as the enumeration's host.

    Filters the q^4 bicharacters on G by the four generator conditions,
    cross-checks against the independent intertwiner test Delta-op(g) R =
    R Delta(g) of ``_qt_B_oracle``, read off the intertwiner table of the
    basis idempotents e_r # 1 for every candidate, asserts the two sets
    coincide, and verifies every survivor with verify_qt_certified on that
    support, whose intertwiner rows the same table decides: no survivor's
    CycloNumber entries are built until they are read.
    """
    mp = make_B(p, q, m, lam)
    H = build_bismash(mp)
    dec = abelian_decomposition(mp.G, range(mp.G.order))
    E = enumerate_bicharacters(dec)
    X, A, L = forms = _bichar_forms(E, dec)
    filter_keys = _B_condition_keys(mp, m, lam, E, dec, forms)

    sup = _e_r_support(H, dec)
    oracle_keys = _qt_B_oracle(H, dec, E, sup)
    if filter_keys != oracle_keys:
        raise AssertionError("generator-condition filter disagrees with the "
                             "direct intertwiner oracle")

    sup.certify()
    conj = sup.conj_perms()
    pairs = []
    for key, Aw in zip(_keys(E), A):
        if key not in filter_keys:
            continue
        R = CertifiedR(sup, (X @ Aw @ X.T) % L, L)
        rep = verify_qt_certified(R, conj)
        if not rep.passed:
            raise AssertionError(f"survivor failed verification: {rep!r}")
        pairs.append((Bicharacter(key), R))
    return QTEnumeration(H, pairs, filter_keys=filter_keys, oracle_keys=oracle_keys)


def _B_condition_keys(mp, m, lam, E, dec, forms):
    """Keys of the bicharacters w in E, with forms = _bichar_forms(E, dec),
    meeting the four printed generator conditions of the tau-twisted family
    on mp: w(x, y) = w(x', y') eta(x', y', g) for x, y in {a, b}, where
    a' = a^m, b' = b^(m^lam) and g generates F (eta(h, h, g) = 1)."""
    G = mp.G
    a, b = G.generators["a"], G.generators["b"]
    image = {a: G.power(a, m), b: G.power(b, m ** lam)}
    pos = {x: i for i, x in enumerate(dec.elements)}
    conds = [(pos[x], pos[y], pos[image[x]], pos[image[y]],
              mp.tau[image[x], image[y], 1] - mp.tau[image[y], image[x], 1])
             for x in (a, b) for y in (a, b)]
    return set(_keys(E[_sieve(forms, np.array(conds), mp.conductor)]))


def _e_r_support(H, dec):
    """The basis idempotents E_r = e_r # 1, r in dec.elements, uncertified."""
    m = len(dec.elements)
    idx = np.array([H.gf_index(r, 0) for r in dec.elements], dtype=np.int64)
    return IdemSupport(H, Idempotents(np.arange(m), idx, np.zeros(m, dtype=np.int64),
                                      Fraction(1), 1), _k_index_table(dec))


def _qt_B_oracle(H, dec, E, sup):
    """Keys of the bicharacters w in E whose R = sum w(r,s) E_r (x) E_s,
    with E_r = e_r # 1, satisfies Delta-op(g) R = R Delta(g) at the
    generator 1 # g = sum_r e_r # g of F, read off the rows e_r # g of the
    intertwiner table of the support sup (``_e_r_support``).

    The rows have pairwise disjoint coordinates, so the identity at 1 # g
    holds exactly when it holds at every row e_r # g.  Each condition of
    those rows is a condition w(k, l) = w(i, j) zeta^-fix, which
    ``_sieve`` decides for all bicharacters at once.  Raises
    AssertionError when the host does not have the table, or the rows share
    a coordinate.
    """
    table = sup.intertwiner_table
    if table is None:
        raise AssertionError("the intertwiner table premises fail on this host")
    rows, coords, k, l, i, j, fix = table
    sel = np.isin(rows, [H.gf_index(r, 1) for r in dec.elements])
    if not (np.diff(np.sort(coords[sel])) > 0).all():
        raise AssertionError("the rows e_r # g share a coordinate")
    keep = _sieve(_bichar_forms(E, dec),
                  np.stack([k[sel], l[sel], i[sel], j[sel], -fix[sel]], axis=1),
                  sup.view.M)
    return set(_keys(E[keep]))


# ---------------------------------------------------------------------------
# braiding forms


class BraidingForm:
    """Bilinear form on H given by a dim x dim matrix of CycloNumbers."""

    def __init__(self, host: HopfAlgebra, values, params=None):
        self.host = host
        self.values = values            # dict (i, j) -> CycloNumber, sparse
        self.params = params            # optional (g0, g1, lambda)

    def value(self, i, j):
        v = self.values.get((i, j))
        return v if v is not None else CycloNumber.zero(self.host.conductor)

    def pair_elements(self, x: AlgebraElement, y: AlgebraElement) -> CycloNumber:
        out = CycloNumber.zero(self.host.conductor)
        for (i, j), v in self.values.items():
            ci, cj = x.coeffs.get(i), y.coeffs.get(j)
            if ci is not None and cj is not None:
                out = out + ci * cj * v
        return out

    def __repr__(self):
        return f"<BraidingForm nnz={len(self.values)} params={self.params}>"


def verify_coqt(H: HopfAlgebra, form: BraidingForm) -> Report:
    """Exact verification of the braiding axioms of ``form`` on H, as the
    R-matrix R = sum form(b_i, b_j) b_i* (x) b_j* on the dual Hopf algebra,
    whose basis element i is the dual of basis element i of H.

    verify_qt on the dual reports each braiding axiom under its R-matrix name:
    <ab, c> = <a, c1><b, c2> is ``coproduct identity (left)``,
    <a, bc> = <a1, c><a2, b> is ``coproduct identity (right)``, the
    commutation identity <a1, b1> a2 b2 = b1 a1 <a2, b2> is ``intertwiner``
    and convolution invertibility is ``invertible``."""
    D = dual_hopf(H)
    return verify_qt(D, form.values)


# ---------------------------------------------------------------------------
# braiding constructions for the sigma-twisted family


def braiding_A0_construct(H: BismashHopf, lam) -> BraidingForm:
    """The braiding <e_h g^i, e_k g^j> = [h = b^j][k = b^-i] lam^(i j) on
    the sigma-twisted algebra H of index 0, for lam a q-th root of unity.
    Raises ParameterError when the sigma of H is not trivial."""
    mp, q = H.mp, H.mp.F.order
    if mp.sigma.any():
        raise ParameterError("the braiding construction needs sigma = 1")
    if isinstance(lam, int):
        lam = zeta(q, lam)
    if not (lam ** q).is_one():
        raise ParameterError("lambda must satisfy lambda^q = 1")
    G = mp.G
    b = G.generators["b"]
    return BraidingForm(H, _delta_form_values(H, mp, b, G.inv(b), lam),
                        params=(b, G.inv(b), lam))


def _delta_form_values(H, mp, g0, g1, lam):
    """<e_(g0^j) g^i, e_(g1^i) g^j> = lam^(i j); the parameters
    (g0^-1, g1^-1, lam^-1) give its convolution inverse."""
    G, q = mp.G, mp.F.order
    values = {}
    for i in range(q):
        for j in range(q):
            values[(H.gf_index(G.power(g0, j), i),
                    H.gf_index(G.power(g1, i), j))] = lam ** (i * j)
    return values


def braiding_A_search(H: BismashHopf) -> list[BraidingForm]:
    """Exhaustive constrained search for braiding structures on the
    sigma-twisted algebra H, whose G, F = Z_q and actions it reads off H.mp:
    candidates (g0, g1, lambda) in G x G x mu_(q^2),
    each extended multiplicatively to a full form; cheap necessary axiom
    instances prune the grid and every survivor passes the full verifier."""
    mp, q = H.mp, H.mp.F.order
    G = mp.G

    # the trivial-restriction premise: the only conjugation-invariant
    # bicharacter on the largest abelian normal subgroup is trivial
    a = G.generators["a"]
    sub_ids = G.subgroup_closure([a])
    dec = abelian_decomposition(G, sub_ids)
    perm = conjugation_map(G, G.generators["b"], dec)
    E = enumerate_bicharacters(dec)
    kmul = np.array(_k_index_table(dec))
    keep = _invariant_mask(_bichar_forms(E, dec), [perm], kmul,
                           _group_generators(kmul))
    if E[keep].any():
        raise AssertionError("restriction premise fails: nontrivial invariant "
                             "bicharacter on the abelian normal subgroup")

    results = []
    lam_candidates = [zeta(q * q, e) for e in range(q * q)]
    # g and g^(q+1) for the axiom-1 chain below; neither depends on a candidate
    g_embedded = H.embed_f(1)
    g_q1 = g_embedded
    for _ in range(q):
        g_q1 = g_q1 * g_embedded
    for g0 in range(G.order):
        # necessary instance: the commutation axiom with b = e_k forces
        # h <| g = g0 h g0^-1 (and dually for g1); check on the action table
        if any(mp.act_left[h][1] != G.conjugate(g0, h) for h in range(G.order)):
            continue
        for g1 in range(G.order):
            if any(mp.act_left[h][1] != G.conjugate(G.inv(g1), h)
                   for h in range(G.order)):
                continue
            for lam in lam_candidates:
                form = BraidingForm(H, _delta_form_values(H, mp, g0, g1, lam),
                                    params=(g0, g1, lam))
                # necessary instance: pairing the (q+1)-th power of the
                # embedded group-like against it (axiom-1 chain)
                lhs = form.pair_elements(g_q1, g_embedded)
                chain = form.pair_elements(g_embedded, g_embedded) ** (q + 1)
                if lhs != chain:
                    continue
                rep = verify_coqt(H, form)
                if rep.passed:
                    results.append(form)
    return results


# ---------------------------------------------------------------------------
# the no-go check for the dualized tau-twisted family


_HOLDS = "intertwiner holds unexpectedly"
_OFF_SUPPORT = "nonzero coefficient off the identity idempotent"
_NOT_ANNIHILATED = "annihilator product nonzero"


class NoQTReport:
    """Outcome of no_qt_B_dual; ``checks`` records every candidate that
    escapes the no-go argument as a failure."""

    def __init__(self, lam, branch):
        self.lam = lam
        self.branch = branch
        self.candidates_checked = 0
        self.nullspace_dim = None
        self.checks = Report()
        self.note = ("any quasitriangular structure is supported on the "
                     "group-like span (structural dichotomy for minimal "
                     "quasitriangular subalgebras); on that support none exists")

    @property
    def all_fail(self):
        return _HOLDS not in self.checks.failures

    @property
    def support_condition_holds(self):
        return _OFF_SUPPORT not in self.checks.failures

    @property
    def annihilator_holds(self):
        return _NOT_ANNIHILATED not in self.checks.failures

    @property
    def no_qt_on_support(self):
        return self.checks.passed

    def __repr__(self):
        return (f"<NoQTReport lam={self.lam} branch={self.branch} "
                f"no_qt={self.no_qt_on_support}>")


def no_qt_B_dual(p, q, m, lam) -> NoQTReport:
    """The two no-go branches for the dual of the tau-twisted family, on
    the one algebra it builds.

    lam != 0: the group-like span is k[Z_p]; its primitive idempotents, the
    grouptool idempotents of Z_p pushed through the powers of a group-like
    generator, are certified as an IdemSupport, and for every bicharacter w
    on Z_p the R = sum w(r,s) E_r (x) E_s fails the intertwiner identity at
    the embedded generator a.
    lam == 0: the intertwiner identity is solved as an exact linear system on
    the (pq)^2-dimensional group-like tensor support; every solution has
    first-leg support only on the identity idempotent and is annihilated by
    e_(g^1) (x) e_(g^0), hence is a zero divisor.
    Both branches test the identity at a through ``_intertwiner_sides``.
    """
    H = build_bismash(dualize_trivial_action(make_B(p, q, m, lam)))
    report = NoQTReport(lam, "nonzero" if lam else "zero")
    Fp = H.mp.F                     # Z_q x Z_q
    N = H.conductor
    da = H.embed_f(Fp.generators["a"]).comult_apply()

    if lam != 0:
        gl = group_likes_bismash(H)
        if len(gl) != p:
            raise AssertionError(f"expected {p} group-likes, found {len(gl)}")
        K = abelian_decomposition(cyclic_group(p), range(p))
        gen = next(i for i, o in enumerate(gl.orders) if o == p)
        powers = [gl.identity]
        for _ in range(p - 1):
            powers.append(gl.table[powers[-1]][gen])
        f = idempotents(K)
        vectors = [{} for _ in range(p)]
        for t, x, e in zip(f.owner.tolist(), f.idx.tolist(), f.exp.tolist()):
            c = f.scale * zeta(f.L, e)
            for i, ci in gl.elements[powers[x]].coeffs.items():
                _acc(vectors[t], i, c * ci)
        sup = IdemSupport(H, exponent_form(vectors, N), _k_index_table(K)).certify()
        X, A, L = _bichar_forms(enumerate_bicharacters(K), K)
        for e, Aw in enumerate(A):
            R = CertifiedR(sup, (X @ Aw @ X.T) % L, L)
            lhs, rhs = _intertwiner_sides(H, R.entries, da)
            report.candidates_checked += 1
            if lhs == rhs:
                report.checks.fail(_HOLDS, e)
        return report

    # lam == 0: linear system on the group-like tensor support
    b = Fp.generators["b"]
    support = [H.gf_index(i, Fp.power(b, k)) for i in range(p) for k in range(q)]
    pairs = [(u, v) for u in support for v in support]
    columns = []
    for uv in pairs:
        lhs, rhs = _intertwiner_sides(H, {uv: CycloNumber.one(N)}, da)
        for key, val in rhs.items():
            _acc(lhs, key, -val)
        columns.append(lhs)
    basis = _null_vectors(columns)
    report.nullspace_dim = len(basis)

    e_g1_e_g0 = {(H.gf_index(1, 0), H.gf_index(0, 0)): CycloNumber.one(N)}
    for n, vec in enumerate(basis):
        sol = {pairs[cidx]: val for cidx, val in vec.items()}
        for (u, v), val in sol.items():
            gi, _ = H.basis_gf(u)
            if gi != 0:
                report.checks.fail(_OFF_SUPPORT, (u, v))
        if t2_mul(H, e_g1_e_g0, sol):
            report.checks.fail(_NOT_ANNIHILATED, n)
    report.candidates_checked = len(basis)
    return report


def _null_vectors(columns):
    """nullspace(columns), read off the keys when no two columns share a row
    key: columns with pairwise-disjoint supports are independent unless they
    are zero, so the null space is spanned by the unit vectors e_f of the
    zero columns f, which is the reduced basis nullspace returns.  Where two
    columns share a key, nullspace decides."""
    keys = [key for col in columns for key in col]
    if len(set(keys)) < len(keys):
        return nullspace(columns)
    return [{f: CycloNumber.one()} for f, col in enumerate(columns) if not col]


# ---------------------------------------------------------------------------
# images of the R-matrix maps


def hopf_images(R: CertifiedR):
    """(dim H_l, dim H_r, dim of the unital subalgebra they generate) for
    the CertifiedR R = sum w(s,t) E_s (x) E_t, read off its exponent matrix.

    H_l is spanned by the sum_s w(s,t) E_s, one for each column t of W, and
    H_r by the sum_t w(s,t) E_t, one for each row s.  Once both slots of W
    are multiplicative each of these vectors is a character of the support
    group, written in orthogonal idempotents that sum to 1; products of such
    elements add their exponent vectors, and distinct characters are
    linearly independent.  So dim H_l and dim H_r are the numbers of
    distinct columns and rows of W mod L, and the generated subalgebra has
    the order of the subgroup of (Z_L)^m that the columns and rows generate.
    Raises ValueError when W is not multiplicative in both slots.
    """
    sup = R.sup.certify()
    W, L = R.W % R.L, R.L
    if not (_multiplicative(_reduced(W, L), sup.kmul, L, sup.gens)
            and _multiplicative(_reduced(W.T, L), sup.kmul, L, sup.gens)):
        raise ValueError("exponent matrix is not a bicharacter on the support")
    cols, rows = np.unique(W.T, axis=0), np.unique(W, axis=0)
    # span + <g> is the union of the cosets span + k g, k below the order of
    # g modulo span
    span = np.zeros((1, sup.m), dtype=np.int64)
    for g in np.concatenate([cols, rows]):
        seen = {x.tobytes() for x in span}
        cosets, c = [span], g
        while c.tobytes() not in seen:
            cosets.append((span + c) % L)
            c = (c + g) % L
        span = np.concatenate(cosets)
    return len(cols), len(rows), len(span)

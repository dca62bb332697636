"""Exact arithmetic in cyclotomic fields Q(zeta_N) and exact sparse linear algebra.

A scalar is stored canonically as integer numerators over a positive common
denominator with respect to the power basis 1, z, ..., z^(phi(N)-1) of
Q(zeta_N), reduced modulo the N-th cyclotomic polynomial.  Values that happen
to be a rational multiple of a single root of unity carry a monomial tag, so
products of roots of unity cost O(1) integer work.  There are no tolerance
parameters anywhere; every comparison is exact.

There is one Gaussian elimination, the incremental ``RowSpace`` over sparse
dict vectors, and ``nullspace`` adds a matrix's columns to it.  A
non-monomial ``CycloNumber`` inverts through its Galois conjugates.
"""

from __future__ import annotations

import math
from fractions import Fraction


# ---------------------------------------------------------------------------
# integer polynomials, ascending coefficients


def _poly_trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return c[:i]


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _poly_trim(out)


def _poly_div_exact(a, b):
    # a, b monic integer polynomials with b | a
    a = list(a)
    db, da = len(b) - 1, len(a) - 1
    out = [0] * (da - db + 1)
    for k in range(da - db, -1, -1):
        c = a[k + db]
        out[k] = c
        if c:
            for i in range(db + 1):
                a[k + i] -= c * b[i]
    assert not any(a[:db]), "inexact polynomial division"
    return out


_CYCLO = {1: (-1, 1)}


def cyclotomic_poly(n: int):
    """Coefficients of the n-th cyclotomic polynomial, ascending, as ints."""
    if n < 1:
        raise ValueError("conductor must be >= 1")
    poly = _CYCLO.get(n)
    if poly is None:
        num = [0] * (n + 1)
        num[0], num[n] = -1, 1
        den = (1,)
        for d in range(1, n):
            if n % d == 0:
                den = _poly_mul(den, cyclotomic_poly(d))
        poly = tuple(_poly_div_exact(num, den))
        _CYCLO[n] = poly
    return poly


def euler_phi(n: int) -> int:
    return len(cyclotomic_poly(n)) - 1


# ---------------------------------------------------------------------------
# per-conductor tables: x^k mod Phi_n, and monomial detection patterns


class _Field:
    __slots__ = ("n", "phi", "powtab", "pattern", "pattern_sizes")

    def __init__(self, n):
        self.n = n
        poly = cyclotomic_poly(n)
        phi = len(poly) - 1
        self.phi = phi
        # x^phi = -(poly[0] + poly[1] x + ...)
        top = [-c for c in poly[:phi]]
        rows = [[0] * phi for _ in range(max(n, 2 * phi - 1))]
        rows[0][0] = 1
        for k in range(1, len(rows)):
            prev = rows[k - 1]
            row = [0] + prev[:-1]
            lead = prev[phi - 1]
            if lead:
                for i in range(phi):
                    row[i] += lead * top[i]
            rows[k] = row
        self.powtab = [tuple(r) for r in rows]
        # normalized patterns of root vectors for monomial detection;
        # for even n only exponents below n/2 (the rest differ by a sign)
        upper = 1 if n <= 2 else (n // 2 if n % 2 == 0 else n)
        pat = {}
        for e in range(upper):
            pat[_patkey(self.powtab[e])] = e
        self.pattern = pat
        self.pattern_sizes = {sum(1 for c in row if c)
                              for row in self.powtab[:upper]}


def _patkey(vec):
    i0 = next(i for i, c in enumerate(vec) if c)
    g = 0
    for c in vec:
        g = math.gcd(g, abs(c))
    s = 1 if vec[i0] > 0 else -1
    return tuple(s * c // g for c in vec)


_FIELDS: dict[int, _Field] = {}


def _field(n) -> _Field:
    f = _FIELDS.get(n)
    if f is None:
        f = _FIELDS[n] = _Field(n)
    return f


def _mono_norm(n, e, num, den):
    if num == 0:
        return (0, 0, 1)
    if den < 0:
        num, den = -num, -den
    e %= n
    if n == 2 and e:
        e, num = 0, -num
    elif n > 2 and n % 2 == 0 and e >= n // 2:
        e, num = e - n // 2, -num
    g = math.gcd(abs(num), den)
    return (e, num // g, den // g)


# ---------------------------------------------------------------------------


class CycloNumber:
    """An element of Q(zeta_N), exactly.

    Public fields: ``conductor`` and ``coeffs`` (a tuple of Fractions of
    length phi(N) in the power basis, canonically reduced mod Phi_N).
    Instances are immutable; all operations return new values.  Operands at
    different conductors are lifted to the least common conductor first.
    """

    __slots__ = ("n", "_m", "_v")

    def __init__(self, n, _m=None, _v=None):
        self.n = n
        self._m = _m
        self._v = _v

    # -- constructors

    @staticmethod
    def zero(n=1):
        return CycloNumber(n, _m=(0, 0, 1))

    @staticmethod
    def one(n=1):
        return CycloNumber(n, _m=(0, 1, 1))

    @staticmethod
    def from_rational(r, n=1):
        r = Fraction(r)
        return CycloNumber(n, _m=_mono_norm(n, 0, r.numerator, r.denominator))

    @staticmethod
    def from_coeffs(n, coeffs):
        phi = _field(n).phi
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != phi:
            raise ValueError(f"need {phi} coefficients for conductor {n}")
        den = math.lcm(*(c.denominator for c in coeffs)) if coeffs else 1
        nums = [int(c * den) for c in coeffs]
        return _from_vec(n, nums, den)

    # -- representation access

    @property
    def conductor(self):
        return self.n

    @property
    def coeffs(self):
        nums, den = self._vec()
        return tuple(Fraction(c, den) for c in nums)

    def _vec(self):
        v = self._v
        if v is None:
            e, num, den = self._m
            root = _field(self.n).powtab[e]
            nums = [num * c for c in root]
            v = self._v = (tuple(nums), den)
        return v

    def as_root(self):
        """(exponent, rational scale) if the value is scale * zeta^exponent."""
        if self._m is None:
            return None
        e, num, den = self._m
        if num == 0:
            return None
        return e, Fraction(num, den)

    def is_zero(self):
        return self._m is not None and self._m[1] == 0

    def is_one(self):
        return self._m == (0, 1, 1)

    def __bool__(self):
        return not self.is_zero()

    # -- conductor lifting

    def lift(self, n2):
        """Image under the embedding Q(zeta_n) -> Q(zeta_n2), n | n2."""
        n = self.n
        if n2 == n:
            return self
        if n2 % n:
            raise ValueError(f"cannot lift conductor {n} into {n2}")
        k = n2 // n
        if self._m is not None:
            e, num, den = self._m
            return CycloNumber(n2, _m=_mono_norm(n2, e * k, num, den))
        nums, den = self._v
        f2 = _field(n2)
        out = [0] * f2.phi
        for t, c in enumerate(nums):
            if c:
                row = f2.powtab[t * k]
                for i, r in enumerate(row):
                    if r:
                        out[i] += c * r
        return _from_vec(n2, out, den)

    # -- arithmetic

    def __add__(self, other):
        a, b = _pair(self, other)
        if a is NotImplemented:
            return NotImplemented
        ma, mb = a._m, b._m
        if ma is not None and mb is not None and ma[0] == mb[0]:
            num = ma[1] * mb[2] + mb[1] * ma[2]
            return CycloNumber(a.n, _m=_mono_norm(a.n, ma[0], num, ma[2] * mb[2]))
        (na, da), (nb, db) = a._vec(), b._vec()
        return _from_vec(a.n, [x * db + y * da for x, y in zip(na, nb)], da * db)

    __radd__ = __add__

    def __neg__(self):
        if self._m is not None:
            e, num, den = self._m
            return CycloNumber(self.n, _m=(e, -num, den))
        nums, den = self._v
        return CycloNumber(self.n, _v=(tuple(-c for c in nums), den))

    def __sub__(self, other):
        a, b = _pair(self, other)
        if a is NotImplemented:
            return NotImplemented
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = _pair(self, other)
        if a is NotImplemented:
            return NotImplemented
        n = a.n
        ma, mb = a._m, b._m
        if ma is not None and mb is not None:
            return CycloNumber(
                n, _m=_mono_norm(n, ma[0] + mb[0], ma[1] * mb[1], ma[2] * mb[2])
            )
        if ma is not None or mb is not None:
            if ma is None:
                a, b, ma = b, a, mb
            e, num, den = ma
            if num == 0:
                return CycloNumber.zero(n)
            nums, vden = b._vec()
            f = _field(n)
            out = [0] * f.phi
            for t, c in enumerate(nums):
                if c:
                    row = f.powtab[(t + e) % n]  # zeta^n = 1
                    for i, r in enumerate(row):
                        if r:
                            out[i] += c * r
            return _from_vec(n, [num * c for c in out], den * vden)
        (na, da), (nb, db) = a._vec(), b._vec()
        f = _field(n)
        phi = f.phi
        conv = [0] * (2 * phi - 1)
        for i, x in enumerate(na):
            if x:
                for j, y in enumerate(nb):
                    if y:
                        conv[i + j] += x * y
        out = list(conv[:phi])
        for k in range(phi, len(conv)):
            c = conv[k]
            if c:
                row = f.powtab[k]
                for i, r in enumerate(row):
                    if r:
                        out[i] += c * r
        return _from_vec(n, out, da * db)

    __rmul__ = __mul__

    def inv(self):
        """Multiplicative inverse; raises ZeroDivisionError on zero.

        A monomial inverts in O(1).  Otherwise, with sigma_k the Galois
        automorphism zeta -> zeta^k, the product c of the sigma_k(self) over
        the units k != 1 mod N is nonzero, and self * c is the field norm,
        a nonzero rational; so self^-1 = c / (self * c)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        if self._m is not None:
            e, num, den = self._m
            return CycloNumber(self.n, _m=_mono_norm(self.n, -e, den, num))
        n, f = self.n, _field(self.n)
        nums, den = self._v
        c = CycloNumber.one(n)
        for k in range(2, n):
            if math.gcd(k, n) == 1:
                # sigma_k(self): zeta^t goes to zeta^(t k)
                out = [0] * f.phi
                for t, a in enumerate(nums):
                    if a:
                        for i, r in enumerate(f.powtab[t * k % n]):
                            if r:
                                out[i] += a * r
                c = c * _from_vec(n, out, den)
        return c * (self * c).inv()

    def __truediv__(self, other):
        a, b = _pair(self, other)
        if a is NotImplemented:
            return NotImplemented
        return a * b.inv()

    def __rtruediv__(self, other):
        return self.inv() * other

    def __pow__(self, k):
        if k == 0:
            return CycloNumber.one(self.n)
        base = self if k > 0 else self.inv()
        k = abs(k)
        if base._m is not None:
            e, num, den = base._m
            return CycloNumber(base.n, _m=_mono_norm(base.n, e * k, num**k, den**k))
        out = CycloNumber.one(base.n)
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    # -- comparison

    def __eq__(self, other):
        a, b = _pair(self, other)
        if a is NotImplemented:
            return NotImplemented
        if a._m is not None and b._m is not None:
            return a._m == b._m
        return a._vec() == b._vec()

    def __ne__(self, other):
        r = self.__eq__(other)
        return r if r is NotImplemented else not r

    __hash__ = None  # equality lifts conductors; hashing would be unsound

    def __repr__(self):
        if self._m is not None:
            e, num, den = self._m
            if num == 0:
                return "0"
            scale = "" if (num, den) == (1, 1) else (
                f"{num}" if den == 1 else f"{num}/{den}"
            )
            if e == 0:
                return scale or "1"
            zpart = f"z{self.n}" + (f"^{e}" if e > 1 else "")
            return f"{scale}*{zpart}" if scale else zpart
        nums, den = self._v
        terms = []
        for i, c in enumerate(nums):
            if c:
                terms.append(f"{c}*z{self.n}^{i}")
        s = " + ".join(terms)
        return f"({s})/{den}" if den != 1 else s

    # -- serialization: positive denominator plus integer numerator vector

    def serial(self):
        nums, den = self._vec()
        return den, list(nums)


def _from_vec(n, nums, den):
    if den < 0:
        den = -den
        nums = [-c for c in nums]
    g = den
    for c in nums:
        g = math.gcd(g, abs(c))
        if g == 1:
            break
    if g > 1:
        den //= g
        nums = [c // g for c in nums]
    nnz = sum(1 for c in nums if c)
    if not nnz:
        return CycloNumber.zero(n)
    f = _field(n)
    if nnz not in f.pattern_sizes:
        return CycloNumber(n, _v=(tuple(nums), den))
    key = _patkey(nums)
    e = f.pattern.get(key)
    if e is not None:
        root = f.powtab[e]
        i0 = next(i for i, c in enumerate(root) if c)
        return CycloNumber(n, _m=_mono_norm(n, e, nums[i0], den * root[i0]),
                           _v=(tuple(nums), den))
    return CycloNumber(n, _v=(tuple(nums), den))


def _pair(a, b):
    if not isinstance(b, CycloNumber):
        if isinstance(b, (int, Fraction)):
            b = CycloNumber.from_rational(b, 1)
        else:
            return NotImplemented, NotImplemented
    if a.n == b.n:
        return a, b
    n = math.lcm(a.n, b.n)
    return a.lift(n), b.lift(n)


def zeta(n: int, k: int = 1) -> CycloNumber:
    """zeta_n^k as a CycloNumber of conductor n; zeta(n, 0) == 1."""
    if n < 1:
        raise ValueError("conductor must be >= 1")
    return CycloNumber(n, _m=_mono_norm(n, k, 1, 1))


def cyclo_arith(op: str, a, b=None):
    """Dispatch arithmetic by name: add, sub, mul, inv, pow, neg."""
    a = a if isinstance(a, CycloNumber) else CycloNumber.from_rational(a)
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "neg":
        return -a
    if op == "inv":
        return a.inv()
    if op == "pow":
        return a ** b
    raise ValueError(f"unknown operation {op!r}")


# ---------------------------------------------------------------------------
# exact linear algebra on sparse dict vectors: one elimination, RowSpace


def _axpy(dst, f, src):
    """dst += f * src on sparse dict vectors, dropping entries that vanish."""
    for k, v in src.items():
        nv = dst.get(k)
        nv = f * v if nv is None else nv + f * v
        if nv:
            dst[k] = nv
        else:
            dst.pop(k, None)


class RowSpace:
    """Incremental exact row space of sparse dict vectors, the one Gaussian
    elimination of the package: nullspace and the minimal polynomials behind
    R-matrix inverses run on it.

    Keys must be totally ordered (ints or tuples of ints).  Tracks how each
    reduced basis row is expressed in terms of the vectors passed to ``add``,
    which yields dependence combinations for minimal-polynomial computations.
    """

    def __init__(self):
        self._rows = []  # (pivot_key, row_dict, combo_dict)
        self.added = 0

    @property
    def dim(self):
        return len(self._rows)

    def reduce(self, vec):
        """Return (residual, combo) with vec = residual + sum combo[i]*added_i."""
        vec = {k: v for k, v in vec.items() if v}
        combo = {}
        for pivot, row, rcombo in self._rows:
            f = vec.get(pivot)
            if f is not None:
                _axpy(vec, -f, row)
                _axpy(combo, f, rcombo)
        return vec, combo

    def add(self, vec) -> bool:
        """Add a vector; returns True if it enlarged the space."""
        idx = self.added
        self.added += 1
        residual, combo = self.reduce(vec)
        if not residual:
            self._last_combo = combo
            return False
        pivot = min(residual.keys())
        inv = residual[pivot].inv()
        row = {k: inv * v for k, v in residual.items()}
        combo = {i: -inv * v for i, v in combo.items()}
        combo[idx] = inv
        # stored combo expresses the reduced row via the added vectors
        for pk, prow, pcombo in self._rows:
            f = prow.get(pivot)
            if f is not None:
                _axpy(prow, -f, row)
                _axpy(pcombo, -f, combo)
        self._rows.append((pivot, row, combo))
        self._rows.sort(key=lambda t: t[0])
        return True

    def last_dependence(self):
        """After add() returned False: combo expressing that vector in prior ones."""
        return dict(self._last_combo)


def nullspace(columns):
    """Basis of the null space of the matrix with the given sparse columns:
    the vectors c, as dicts column index -> CycloNumber in ascending index,
    with sum_f c[f] columns[f] = 0; empty when the columns are independent.

    The columns go into one RowSpace in order, and each column f that depends
    on the earlier ones gives e_f - sum last_dependence().  This is the
    reduced row echelon basis, vector for vector: greedy insertion keeps
    exactly its pivot columns, and its basis vector at a non-pivot column f
    is the unique null vector with 1 at f and 0 at the other non-pivot
    columns."""
    rs = RowSpace()
    basis = []
    for f, col in enumerate(columns):
        if not rs.add(col):
            vec = {i: -c for i, c in rs.last_dependence().items()}
            vec[f] = CycloNumber.one()
            basis.append(dict(sorted(vec.items())))
    return basis

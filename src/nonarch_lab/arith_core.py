"""Exact arithmetic core: p-adic valuations and residues of exact
rationals, balls with valuative radii in Z_p^m, the prime fields and Q,
and the one polynomial type, sparse multivariate over either.

Q_p is modelled only through exact rationals: no element is ever carried
at finite precision.  Norms are never materialized as floats.  |x| <= |y|
is decided as ord(x) >= ord(y); a ball of valuative radius alpha is
{x : ord(x-c) >= alpha}.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import CapExceededError, PrecisionError, RingMismatchError

INF = math.inf


def is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def val_int(n, p):
    """p-adic valuation of an integer; INF for 0."""
    if n == 0:
        return INF
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def val_fraction(x, p):
    """p-adic valuation of a Fraction or int; INF for 0."""
    if isinstance(x, int):
        return val_int(x, p)
    if x == 0:
        return INF
    return val_int(x.numerator, p) - val_int(x.denominator, p)


def val_factorial(i, p):
    """v_p(i!) by Legendre's formula."""
    v = 0
    q = p
    while q <= i:
        v += i // q
        q *= p
    return v


def rational_residue(x, p, k):
    """Representative of a p-integral rational modulo p^k, in [0, p^k)."""
    x = Fraction(x)
    num, den = x.numerator, x.denominator
    if den % p == 0:
        raise PrecisionError(f"{x} is not p-integral at p={p}")
    if k == 0:
        return 0
    m = p ** k
    return num * pow(den, -1, m) % m


class Ball:
    """Closed ball (box) of equal valuative radius alpha in Z_p^m, p prime.

    Membership: ord(x_i - c_i) >= alpha for every coordinate.  Two balls of
    equal radius are identical or disjoint.
    """

    __slots__ = ("p", "m", "alpha", "center", "_key")

    def __init__(self, p, center, alpha, m=None):
        if not is_prime(p):
            raise RingMismatchError(f"p = {p} is not prime")
        if alpha < 0:
            raise RingMismatchError("valuative radius must be >= 0")
        center = tuple(Fraction(c) for c in center)
        self.p = p
        self.m = len(center) if m is None else m
        if len(center) != self.m:
            raise RingMismatchError("center dimension mismatch")
        self.alpha = alpha
        for c in center:
            if val_fraction(c, p) < 0:
                raise RingMismatchError("ball center must lie in Z_p^m")
        self.center = center
        self._key = tuple(rational_residue(c, p, alpha) for c in center)

    def canonical_center(self):
        return self._key

    def __repr__(self):
        return f"Ball(p={self.p}, center={self._key}, alpha={self.alpha})"

    def contains(self, point):
        if len(point) != self.m:
            return False
        for x, c in zip(point, self.center):
            d = Fraction(x) - c
            if val_fraction(d, self.p) < self.alpha:
                return False
        return True

    def residue_count(self, K):
        return self.p ** ((K - self.alpha) * self.m)

    def residues(self, K, cap=None):
        """Integer representative tuples mod p^K of the ball's residue classes."""
        if K < self.alpha:
            raise PrecisionError(f"K={K} below valuative radius {self.alpha}")
        total = self.residue_count(K)
        if cap is not None and total > cap:
            raise CapExceededError(f"{total} residues exceed cap {cap}")
        p, a = self.p, self.alpha
        step = p ** a
        width = p ** (K - a)
        idx = [0] * self.m
        while True:
            yield tuple(c + step * j for c, j in zip(self._key, idx))
            i = self.m - 1
            while i >= 0:
                idx[i] += 1
                if idx[i] < width:
                    break
                idx[i] = 0
                i -= 1
            if i < 0:
                return


# ---------------------------------------------------------------------------
# coefficient rings for sparse polynomials
# ---------------------------------------------------------------------------

class GF:
    """Prime field F_p with elements represented as ints in [0, p)."""

    __slots__ = ("p",)

    def __init__(self, p):
        if not is_prime(p):
            raise RingMismatchError(
                f"q={p} is not prime; only prime fields are supported")
        self.p = p

    def coerce(self, x):
        return x % self.p

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        return pow(a, -1, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def __eq__(self, other):
        return isinstance(other, GF) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


class _RationalField:
    """The rationals, with exact Fraction arithmetic."""

    def coerce(self, x):
        return Fraction(x)

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        return 1 / Fraction(a)

    def is_zero(self, a):
        return a == 0

    def __eq__(self, other):
        return isinstance(other, _RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


QQ = _RationalField()


# ---------------------------------------------------------------------------
# sparse multivariate polynomials
# ---------------------------------------------------------------------------

class MultiPoly:
    """Sparse multivariate polynomial: exponent tuple -> coefficient."""

    __slots__ = ("nvars", "terms", "ring")

    def __init__(self, nvars, terms=None, ring=QQ):
        self.nvars = nvars
        self.ring = ring
        cleaned = {}
        for exp, c in (terms or {}).items():
            c = ring.coerce(c)
            if not ring.is_zero(c):
                cleaned[tuple(exp)] = c
        self.terms = cleaned

    @classmethod
    def constant(cls, nvars, c, ring=QQ):
        return cls(nvars, {(0,) * nvars: c}, ring)

    @classmethod
    def variable(cls, nvars, i, ring=QQ):
        exp = [0] * nvars
        exp[i] = 1
        return cls(nvars, {tuple(exp): ring.one()}, ring)

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return not self.is_zero()

    def degree(self):
        """Total degree; None for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=None)

    def _match(self, other):
        if isinstance(other, MultiPoly):
            if other.nvars != self.nvars or other.ring != self.ring:
                raise RingMismatchError("polynomial rings differ")
            return other
        return MultiPoly.constant(self.nvars, self.ring.coerce(other), self.ring)

    def __add__(self, other):
        other = self._match(other)
        R = self.ring
        out = dict(self.terms)
        for exp, c in other.terms.items():
            s = R.add(out.get(exp, R.zero()), c)
            if R.is_zero(s):
                out.pop(exp, None)
            else:
                out[exp] = s
        return MultiPoly(self.nvars, out, R)

    def __neg__(self):
        R = self.ring
        return MultiPoly(self.nvars, {e: R.neg(c) for e, c in self.terms.items()}, R)

    def __sub__(self, other):
        return self + (-self._match(other))

    def __mul__(self, other):
        other = self._match(other)
        R = self.ring
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                s = R.add(out.get(exp, R.zero()), R.mul(c1, c2))
                if R.is_zero(s):
                    out.pop(exp, None)
                else:
                    out[exp] = s
        return MultiPoly(self.nvars, out, R)

    def __rmul__(self, other):
        return self * other

    def scale(self, c):
        R = self.ring
        c = R.coerce(c)
        return MultiPoly(self.nvars, {e: R.mul(v, c) for e, v in self.terms.items()}, R)

    def __pow__(self, e):
        out = MultiPoly.constant(self.nvars, self.ring.one(), self.ring)
        base = self
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def __eq__(self, other):
        try:
            other = self._match(other)
        except RingMismatchError:
            return False
        return self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def eval(self, args):
        """Evaluate at ring elements, exactly."""
        R = self.ring
        args = [R.coerce(a) for a in args]
        acc = R.zero()
        pow_cache = {}
        for exp, c in self.terms.items():
            t = c
            for j, e in enumerate(exp):
                if e:
                    key = (j, e)
                    if key not in pow_cache:
                        pow_cache[key] = _ring_pow(R, args[j], e)
                    t = R.mul(t, pow_cache[key])
            acc = R.add(acc, t)
        return acc

    def substitute(self, args):
        """Substitute MultiPoly arguments for the variables."""
        nv = args[0].nvars
        R = self.ring
        acc = MultiPoly(nv, {}, R)
        pow_cache = {}
        for exp, c in self.terms.items():
            t = MultiPoly.constant(nv, c, R)
            for j, e in enumerate(exp):
                if e:
                    key = (j, e)
                    if key not in pow_cache:
                        pow_cache[key] = args[j] ** e
                    t = t * pow_cache[key]
            acc = acc + t
        return acc

    def __repr__(self):
        if not self.terms:
            return "MultiPoly(0)"
        parts = []
        for exp in sorted(self.terms, key=lambda e: (sum(e), e)):
            mono = "*".join(f"x{i}^{e}" for i, e in enumerate(exp) if e) or "1"
            parts.append(f"{self.terms[exp]}*{mono}")
        return "MultiPoly(" + " + ".join(parts) + ")"


def _ring_pow(R, a, e):
    out = R.one()
    for _ in range(e):
        out = R.mul(out, a)
    return out


def divided_derivative(f, beta):
    """The divided derivative (1/beta!) d^beta f, exact on any ring where
    binomial coefficients make sense (computed as integer binomials)."""
    R = f.ring
    out = {}
    for exp, c in f.terms.items():
        coef = c
        ok = True
        new = []
        for g, b in zip(exp, beta):
            if g < b:
                ok = False
                break
            coef = R.mul(coef, R.coerce(math.comb(g, b)))
            new.append(g - b)
        if ok and not R.is_zero(coef):
            key = tuple(new)
            s = R.add(out.get(key, R.zero()), coef)
            if R.is_zero(s):
                out.pop(key, None)
            else:
                out[key] = s
    return MultiPoly(f.nvars, out, R)


def gauss_valuation(f, p):
    """Min coefficient valuation of a MultiPoly (the valuation of the Gauss
    norm); INF for 0."""
    return min((val_fraction(c, p) for c in f.terms.values()), default=INF)

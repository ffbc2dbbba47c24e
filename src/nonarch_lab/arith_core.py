"""Exact arithmetic core: p-adic valuations and residues of exact
rationals, balls with valuative radii in Z_p^m, and the one polynomial
type, sparse multivariate over Q with plain Fraction coefficients.

Q_p is modelled only through exact rationals: no element is ever carried
at finite precision.  Norms are never materialized as floats.  |x| <= |y|
is decided as ord(x) >= ord(y); a ball of valuative radius alpha is
{x : ord(x-c) >= alpha}.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import PrecisionError, RingMismatchError

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
    equal radius are identical or disjoint.  The residue classes mod p^K
    (K >= alpha) are built at once as one integer array by residue_array.
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
        """x lies in the ball when each coordinate is p-integral and
        congruent to the centre modulo p^alpha: num = key * den mod p^alpha
        for x = num/den in lowest terms, den a unit."""
        if len(point) != self.m:
            return False
        p, step = self.p, self.p ** self.alpha
        for x, k in zip(point, self._key):
            if not isinstance(x, (int, Fraction)):
                x = Fraction(x)
            num, den = x.numerator, x.denominator
            if den % p == 0 or (num - k * den) % step:
                return False
        return True

    def residue_count(self, K):
        return self.p ** ((K - self.alpha) * self.m)

    def residue_array(self, K):
        """The ball's residue representatives mod p^K as an (R, m) array:
        key + p^alpha * digits, digits running over [0, p^(K-alpha))^m with
        the last coordinate fastest.  int64 when every representative is
        below 2^62, an object array of Python ints otherwise."""
        if K < self.alpha:
            raise PrecisionError(f"K={K} below valuative radius {self.alpha}")
        step = self.p ** self.alpha
        width = self.p ** (K - self.alpha)
        digits = np.indices((width,) * self.m).reshape(self.m, width ** self.m).T
        top = max(self._key, default=0) + step * (width - 1)
        if top < 1 << 62:
            return np.array(self._key, dtype=np.int64) + step * digits
        return np.array(self._key, dtype=object) + step * digits.astype(object)


# ---------------------------------------------------------------------------
# sparse multivariate polynomials over Q
# ---------------------------------------------------------------------------

class MultiPoly:
    """Sparse multivariate polynomial over Q: exponent tuple -> Fraction."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        cleaned = {}
        for exp, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                cleaned[tuple(exp)] = c
        self.terms = cleaned

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars, i):
        exp = [0] * nvars
        exp[i] = 1
        return cls(nvars, {tuple(exp): 1})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return not self.is_zero()

    def degree(self):
        """Total degree; None for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=None)

    def _match(self, other):
        if isinstance(other, MultiPoly):
            if other.nvars != self.nvars:
                raise RingMismatchError("polynomial rings differ")
            return other
        return MultiPoly.constant(self.nvars, other)

    def __add__(self, other):
        other = self._match(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            s = out.get(exp, 0) + c
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
        return MultiPoly(self.nvars, out)

    def __neg__(self):
        return MultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._match(other))

    def __mul__(self, other):
        other = self._match(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(exp, 0) + c1 * c2
                if s:
                    out[exp] = s
                else:
                    out.pop(exp, None)
        return MultiPoly(self.nvars, out)

    def __rmul__(self, other):
        return self * other

    def scale(self, c):
        c = Fraction(c)
        return MultiPoly(self.nvars, {e: v * c for e, v in self.terms.items()})

    def __pow__(self, e):
        out = MultiPoly.constant(self.nvars, 1)
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
        """Evaluate at rational arguments, exactly."""
        args = [Fraction(a) for a in args]
        acc = Fraction(0)
        pow_cache = {}
        for exp, c in self.terms.items():
            t = c
            for j, e in enumerate(exp):
                if e:
                    key = (j, e)
                    if key not in pow_cache:
                        pow_cache[key] = args[j] ** e
                    t = t * pow_cache[key]
            acc = acc + t
        return acc

    def substitute(self, args):
        """Substitute MultiPoly arguments for the variables."""
        nv = args[0].nvars
        acc = MultiPoly(nv, {})
        pow_cache = {}
        for exp, c in self.terms.items():
            t = MultiPoly.constant(nv, c)
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


def divided_derivative(f, beta):
    """The divided derivative (1/beta!) d^beta f: each term c x^e becomes
    C(e, beta) c x^(e - beta), with integer binomials."""
    out = {}
    for exp, c in f.terms.items():
        if all(g >= b for g, b in zip(exp, beta)):
            for g, b in zip(exp, beta):
                c = c * math.comb(g, b)
            out[tuple(g - b for g, b in zip(exp, beta))] = c
    return MultiPoly(f.nvars, out)


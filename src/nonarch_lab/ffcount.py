"""Function-field point counting: exact counts of the degree-<r
F_q[t]-points of a variety by t-adic lifting, the expanded scheme in r*n
scalar variables, power-law fits of counts across field sizes, and checks
of the dimension bounds delta <= r*m and delta <= r*(m-1) + ceil(r/d).

The defining polynomials live in Z[t][X_1..X_n] and are reduced mod p per
run; membership requires them to vanish identically in F_q[t], so the
expanded scheme has one equation per t-power of the expansion, including
powers >= r.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

from . import _kernels
from .arith_core import MultiPoly, is_prime
from .errors import CapExceededError, ConfigError, RingMismatchError, config_int


@dataclass
class VarietySpec:
    """Closed subscheme of A^n over Z[t] with declared geometry.

    polynomials: list of sparse polynomials, each a dict mapping an exponent
    tuple (length n, entries integers >= 0) to a t-polynomial given as a
    tuple of integers (c_0, c_1, ...).  Declared m >= 0, d >= 1 and
    irreducibility are user assertions echoed in reports, never
    recomputed.
    """

    n: int
    polynomials: list
    m: int = 1
    d: int = 1
    irreducible: bool = False
    name: str = ""

    def __post_init__(self):
        config_int(self.n, "n", 0)
        config_int(self.m, "m", 0)
        config_int(self.d, "d", 1)
        if not isinstance(self.irreducible, bool):
            raise ConfigError(
                f"irreducible must be true or false, got {self.irreducible!r}")
        cleaned = []
        for poly in self.polynomials:
            terms = {}
            for exp, coeff in poly.items():
                exp = tuple(config_int(e, "exponent", 0) for e in exp)
                if len(exp) != self.n:
                    raise ConfigError("exponent arity mismatch")
                terms[exp] = tuple(config_int(c, "coefficient") for c in coeff)
            cleaned.append(terms)
        self.polynomials = cleaned

    @classmethod
    def from_json(cls, data):
        """Terms with the same exponent are summed."""
        polys = []
        for poly in data["polynomials"]:
            terms = {}
            for term in poly:
                exp = tuple(term["exp"])
                coeff = [config_int(c, "coefficient") for c in term["coeff"]]
                terms[exp] = tuple(a + b for a, b in zip_longest(
                    terms.get(exp, ()), coeff, fillvalue=0))
            polys.append(terms)
        return cls(n=data["n"], polynomials=polys, m=data.get("m", 1),
                   d=data.get("d", 1), irreducible=data.get("irreducible", False),
                   name=data.get("name", ""))

    def to_json(self):
        return {
            "n": self.n, "m": self.m, "d": self.d,
            "irreducible": self.irreducible, "name": self.name,
            "polynomials": [
                [{"exp": list(e), "coeff": list(c)} for e, c in sorted(p.items())]
                for p in self.polynomials
            ],
        }

    def reduce_mod(self, q):
        """Defining polynomials mod q, each a list of (t-coefficients mod q,
        exp) terms: trailing zero t-coefficients and zero terms are
        dropped.  Both _kernels.ff_count and expand_scheme read this
        format.  Raises RingMismatchError unless q is prime."""
        if not is_prime(q):
            raise RingMismatchError(
                f"q={q} is not prime; only prime fields are supported")
        out = []
        for poly in self.polynomials:
            terms = []
            for exp, coeff in poly.items():
                cs = [c % q for c in coeff]
                while cs and not cs[-1]:
                    cs.pop()
                if cs:
                    terms.append((cs, exp))
            out.append(terms)
        return out


def _decode(idx, q, r, n):
    coeffs = []
    v = idx
    for _ in range(n):
        cs = []
        for _ in range(r):
            cs.append(v % q)
            v //= q
        coeffs.append(tuple(cs))
    return tuple(coeffs)


def enumerate_Xr(X, q, r, cap=2 * 10**7, want_points=False):
    """Exact count of n-tuples of degree-<r polynomials over F_q solving
    every defining polynomial identically in F_q[t].

    Runs the t-adic lifting of the int64 kernel, which prunes a
    branch as soon as a low t-coefficient fails; cap bounds the q^(r*n)
    assignments the search ranges over.  With want_points the solutions
    are decoded into coefficient tuples (ascending t-powers per
    coordinate), in ascending assignment-index order.
    """
    if r < 1:
        raise ConfigError("need r >= 1")
    if cap < 0:
        raise ConfigError(f"need cap >= 0, got {cap}")
    total = q ** (r * X.n)
    if total > cap:
        raise CapExceededError(f"q^(r*n) = {total} exceeds cap {cap}")
    equations = X.reduce_mod(q)
    if want_points:
        count, idx = _kernels.ff_count(q, r, X.n, equations, want_indices=True)
        points = [_decode(int(i), q, r, X.n) for i in idx]
        return count, points
    return _kernels.ff_count(q, r, X.n, equations)


def expand_scheme(X, q, r):
    """Substitute generic degree-<r polynomials and expand over F_q[t]:
    one scalar equation per t-power per defining polynomial (including
    t-powers >= r, which must vanish identically).

    t is one more variable: each defining polynomial becomes a MultiPoly
    in x_1..x_n, t, and x_i = sum_g a_{i,g} t^g is substituted into it over
    Z; each coefficient is reduced mod q as the terms are grouped by their
    t-power, and reduction Z -> F_q is a ring map.  Returns a list of
    MultiPoly with coefficients in [0, q) in the r*n coefficient variables
    a_{i,gamma}, ordered variable-major: a_{1,0}, a_{1,1}, ..., a_{n,r-1};
    per defining polynomial, one for each t-power with a nonzero term mod
    q, ascending.
    """
    if r < 1:
        raise ConfigError("need r >= 1")
    nv = r * X.n
    generic = []
    for i in range(X.n):
        terms = {}
        for g in range(r):
            exp = [0] * (nv + 1)
            exp[i * r + g], exp[nv] = 1, g
            terms[tuple(exp)] = 1
        generic.append(MultiPoly(nv + 1, terms))
    generic.append(MultiPoly.variable(nv + 1, nv))
    equations = []
    for poly in X.reduce_mod(q):
        f = MultiPoly(X.n + 1, {exp + (k,): c for cs, exp in poly
                                for k, c in enumerate(cs)})
        by_power = {}
        for exp, c in f.substitute(generic).terms.items():
            if c % q:
                by_power.setdefault(exp[nv], {})[exp[:nv]] = c % q
        equations.extend(MultiPoly(nv, by_power[k]) for k in sorted(by_power))
    return equations


# ---------------------------------------------------------------------------
# power-law fits and bound checks
# ---------------------------------------------------------------------------

@dataclass
class CountRecord:
    q: int
    r: int
    count: int
    delta: int | None = None
    mu: Fraction | None = None
    slack_sq: Fraction | None = None

    def to_json(self):
        return {
            "q": self.q, "r": self.r, "count": self.count,
            "delta": self.delta,
            "mu": None if self.mu is None else str(self.mu),
            "slack_sq": None if self.slack_sq is None else str(self.slack_sq),
        }


def _slack_sq(counts, delta, mu):
    """max over q of (count - mu*q^delta)^2 / q^(2*delta - 1): the square of
    the bound constant C in |count - mu q^delta| <= C q^(delta - 1/2),
    exactly (square roots of q never materialize).  mu is an integer; each
    value stays an integer fraction num/den, den > 0, and the maximum is
    taken by cross-multiplication, so one Fraction is built per call."""
    num, den = 0, 1
    for q, c in counts.items():
        if delta:
            n, d = (c - mu * q ** delta) ** 2, q ** (2 * delta - 1)
        else:
            n, d = (c - mu) ** 2 * q, 1
        if n * den > num * d:
            num, den = n, d
    return Fraction(num, den)


def estimate_delta(counts, r, n, mu_cap=64):
    """Fit (delta, mu): delta an integer in [0, r*n], mu an integer in
    [1, mu_cap] (a free rational mu would overfit larger delta with a tiny
    mu).  The least squared slack wins, ties broken by smaller delta then
    smaller mu.

    For fixed delta the squared slack is a maximum over q of quadratics in
    mu with positive leading coefficient q, so it is convex in mu, and its
    values f(1), f(2), ... have nondecreasing differences.  The smallest k
    with f(k) <= f(k+1) (or mu_cap when there is none) is therefore the
    smallest minimizing mu, found by binary search in about 2*log2(mu_cap)
    exact evaluations instead of mu_cap.

    counts: dict q -> exact count (>= 2 entries, not all zero).
    """
    if len(counts) < 2:
        raise ConfigError("need counts for at least two field sizes")
    if all(c == 0 for c in counts.values()):
        raise ConfigError("all counts are zero; nothing to fit")
    if mu_cap < 1:
        raise ConfigError(f"mu_cap must be >= 1, got {mu_cap}")
    best = None
    for delta in range(0, r * n + 1):
        lo, hi = 1, mu_cap
        while lo < hi:
            mid = (lo + hi) // 2
            if _slack_sq(counts, delta, mid) <= _slack_sq(counts, delta, mid + 1):
                hi = mid
            else:
                lo = mid + 1
        key = (_slack_sq(counts, delta, lo), delta, Fraction(lo))
        if best is None or key < best:
            best = key
    sq, delta, mu = best
    return delta, mu, sq


@dataclass
class BoundReport:
    r: int
    delta: int
    mu: Fraction
    slack_sq: Fraction
    trivial_bound: int
    trivial_ok: bool
    motivic_bound: int | None
    motivic_ok: bool | None
    cohen_ratio_sq: dict

    def to_json(self):
        return {
            "r": self.r, "delta": self.delta, "mu": str(self.mu),
            "slack_sq": str(self.slack_sq),
            "trivial_bound": self.trivial_bound, "trivial_ok": self.trivial_ok,
            "motivic_bound": self.motivic_bound, "motivic_ok": self.motivic_ok,
            "cohen_ratio_sq": {str(q): str(v) for q, v in self.cohen_ratio_sq.items()},
        }


def verify_bounds(counts, X, r, mu_cap=64):
    """Check the fitted delta against the trivial bound r*m and, when the
    variety is declared irreducible, against r*(m-1) + ceil(r/d); also
    report the Cohen-style ratio count / (r * q^(r*(m-1/2))) squared."""
    delta, mu, slack_sq = estimate_delta(counts, r, X.n, mu_cap=mu_cap)
    trivial_bound = r * X.m
    trivial_ok = delta <= trivial_bound
    motivic_bound = motivic_ok = None
    if X.irreducible:
        motivic_bound = r * (X.m - 1) + -(-r // X.d)
        motivic_ok = delta <= motivic_bound
    cohen = {}
    for q, c in counts.items():
        # ratio^2 = count^2 * q^r / (r^2 * q^(2*r*m)) stays rational
        cohen[q] = Fraction(c * c * q ** r, r * r * q ** (2 * r * X.m))
    return BoundReport(r, delta, mu, slack_sq, trivial_bound, trivial_ok,
                       motivic_bound, motivic_ok, cohen)


def load_variety(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError as err:
        raise ConfigError(f"no such file: {path}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"malformed variety JSON at line {err.lineno}, "
                          f"column {err.colno}: {err.msg}") from err
    return VarietySpec.from_json(data)

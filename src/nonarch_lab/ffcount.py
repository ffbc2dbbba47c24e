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

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

from . import _kernels
from .arith_core import MultiPoly, is_prime
from .errors import (Budget, ConfigError, RingMismatchError, config_int,
                     config_list, load_json)


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
        for poly in config_list(data["polynomials"], "polynomials"):
            terms = {}
            for term in config_list(poly, "polynomial"):
                exp = tuple(config_list(term["exp"], "exponent"))
                coeff = [config_int(c, "coefficient")
                         for c in config_list(term["coeff"], "coefficient")]
                terms[exp] = tuple(a + b for a, b in zip_longest(
                    terms.get(exp, ()), coeff, fillvalue=0))
            polys.append(terms)
        return cls(n=data["n"], polynomials=polys, m=data.get("m", 1),
                   d=data.get("d", 1), irreducible=data.get("irreducible", False),
                   name=data.get("name", ""))

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


def enumerate_Xr(X, q, r, cap=2 * 10**7, counts=None):
    """Exact count of n-tuples of degree-<r polynomials over F_q solving
    every defining polynomial identically in F_q[t].

    Runs the t-adic lifting of the int64 kernel, which extends a jet
    only by the level-k coefficients at which each equation's t^k
    coefficient vanishes and checks the t-powers >= r on the full
    assignments, every coefficient a truncated t-series convolution of
    the jet's digits and every power a product over the base-q digits of
    its exponent (_kernels.power_plan); cap bounds the q^(r*n) assignments
    the search ranges over, whatever the lifting visits, checked first.

    counts, when given, is a dict keyed by the degree bounds the caller
    will ask for at this q, each mapped to its count or None.  A call
    whose r has no count yet makes one lift, to the largest unfilled key
    whose q^(k*n) the cap admits (r when there is none), which counts r
    and every unfilled key below on the way and stores them all; a call
    whose r has a count returns it.
    """
    if r < 1:
        raise ConfigError("need r >= 1")
    Budget(cap, "assignments q^(r*n)", "--cap").charge(q ** (r * X.n))
    if counts is None:
        counts = {}
    if counts.get(r) is None:
        equations = X.reduce_mod(q)
        limit = min(cap, _kernels.INT64_MAX)
        pending = {k for k, c in counts.items()
                   if c is None and k >= 1 and q ** (k * X.n) <= limit} | {r}
        top = max(pending)
        below = dict.fromkeys((k for k in pending if k < top), 0)
        counts[top] = _kernels.ff_count(q, top, X.n, equations, below=below)
        counts.update(below)
    return counts[r]


def expand(q, r, n, terms):
    """t-expansion of one reduced equation under x_i = sum_{g<r} a_{i,g} t^g,
    in integers mod q: a dict mapping each t-power k to the t^k coefficient,
    itself a dict monomial -> nonzero coefficient mod q, monomials being
    exponent tuples in the r*n variables a_{1,0}, a_{1,1}, ..., a_{n,r-1}.
    Powers with no nonzero term are absent.  Reduction Z -> F_q is a ring
    map, so reducing as the products are formed changes nothing.  Each
    _kernels.power_plan factor (i, s) multiplies by sum_g a_{i,g}^s t^(g s)."""
    zero = (0,) * (r * n)
    acc = {}
    for cs, exps in terms:
        poly = {(k, zero): c for k, c in enumerate(cs) if c}
        for i, s in _kernels.power_plan(q, exps):
            prod = {}
            for (k, mono), c in poly.items():
                for g in range(r):
                    v = i * r + g
                    key = (k + g * s, mono[:v] + (mono[v] + s,) + mono[v + 1:])
                    prod[key] = prod.get(key, 0) + c
            poly = {key: c % q for key, c in prod.items()}
        for key, c in poly.items():
            acc[key] = acc.get(key, 0) + c
    by_power = {}
    for (k, mono), c in acc.items():
        if c % q:
            by_power.setdefault(k, {})[mono] = c % q
    return by_power


def expand_scheme(X, q, r):
    """Substitute generic degree-<r polynomials and expand over F_q[t]:
    one scalar equation per t-power per defining polynomial (including
    t-powers >= r, which must vanish identically).

    Each defining polynomial is expanded under x_i = sum_g a_{i,g} t^g by
    expand, in integers mod q.  The lifting kernel reads no expansion: it
    evaluates the same coefficients as t-series at each assignment.
    Returns a list of MultiPoly with coefficients in [0, q) in the r*n
    coefficient variables a_{i,gamma}, ordered variable-major: a_{1,0},
    a_{1,1}, ..., a_{n,r-1}; per defining polynomial, one for each t-power
    with a nonzero term mod q, ascending.
    """
    if r < 1:
        raise ConfigError("need r >= 1")
    equations = []
    for terms in X.reduce_mod(q):
        by_power = expand(q, r, X.n, terms)
        equations.extend(MultiPoly(r * X.n, by_power[k]) for k in sorted(by_power))
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
    exactly (square roots of q never materialize), as an integer pair
    (num, den) with den > 0.  mu is an integer; the maximum is taken by
    cross-multiplication, so no Fraction is built."""
    num, den = 0, 1
    for q, c in counts.items():
        if delta:
            n, d = (c - mu * q ** delta) ** 2, q ** (2 * delta - 1)
        else:
            n, d = (c - mu) ** 2 * q, 1
        if n * den > num * d:
            num, den = n, d
    return num, den


def _below(a, b):
    """a < b for integer pairs (num, den) with den > 0."""
    return a[0] * b[1] < b[0] * a[1]


def estimate_delta(counts, r, n, mu_cap=64):
    """Fit (delta, mu): delta an integer in [0, r*n], mu an integer in
    [1, mu_cap] (a free rational mu would overfit larger delta with a tiny
    mu).  The least squared slack wins, ties broken by smaller delta then
    smaller mu.

    For fixed delta the squared slack is a maximum over q of quadratics in
    mu with positive leading coefficient q, so it is convex in mu, and its
    values f(1), f(2), ... have nondecreasing differences.  The smallest k
    with f(k) <= f(k+1) (or mu_cap when there is none) is therefore the
    smallest minimizing mu, found by binary search instead of mu_cap
    exact evaluations.  The per-q quadratic is least at c/q^delta, so f
    strictly decreases up to the least of these ratios and does not
    decrease past the largest: the search runs between their floor and
    ceiling only.  The slacks stay integer pairs compared by
    cross-multiplication; only the winning (mu, slack) become Fractions.

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
        lo = min(mu_cap, max(1, min(c // q ** delta for q, c in counts.items())))
        hi = min(mu_cap, max(1, max(-(-c // q ** delta) for q, c in counts.items())))
        while lo < hi:
            mid = (lo + hi) // 2
            if _below(_slack_sq(counts, delta, mid + 1), _slack_sq(counts, delta, mid)):
                lo = mid + 1
            else:
                hi = mid
        sq = _slack_sq(counts, delta, lo)
        # delta ascends, so a tie keeps the smaller delta
        if best is None or _below(sq, best[0]):
            best = (sq, delta, lo)
    sq, delta, mu = best
    return delta, Fraction(mu), Fraction(*sq)


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
    return VarietySpec.from_json(load_json(path))

"""Monomial order, small-scale Buchberger, Hilbert functions, exponent
statistics of standard monomials, and the (delta, alpha) selection for the
curve-case determinant argument.

An ideal reaches its table by one path: its generators go to groebner,
whose reduced basis comes sorted by leading term, and the leading
exponents of that basis, which are the minimal generators of LT(I), go to
HilbertTable(nvars, lt_gens).  A zero generator is dropped; no generator
at all leaves LT(I) = (0).  H(s) and the exponent sums sigma_i(s) of the
standard monomials come in closed form from the multigraded Hilbert
numerator of LT(I), one polynomial computed by a memoized recursion over
the minimal generators (hilbert_numerator); no monomial of degree s is
listed.

The fixed monomial order is degree-first; at equal degree the monomial with
the larger exponent at the first differing index is the smaller one (a
reverse graded lexicographic order up to reindexing).  No reindexing search
is performed.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .arith_core import MultiPoly
from .errors import Budget, ConfigError


def grevlex_key(exp):
    """Sort key realizing the fixed order: tuples compare by total degree,
    then lexicographically on negated exponents."""
    return (sum(exp), tuple(-e for e in exp))


def monomials_of_degree(nvars, s):
    """Exponent vectors of total degree exactly s, grevlex-sorted; empty
    for s < 0."""
    if s < 0:
        return []
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(tuple(prefix + [remaining]))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e, slots - 1)

    if nvars == 0:
        return [()] if s == 0 else []
    rec([], s, nvars)
    out.sort(key=grevlex_key)
    return out


@functools.lru_cache(maxsize=None)
def delta_exponents(n, d):
    """Exponent vectors in N^n of total degree <= d, grevlex-sorted, as a
    tuple computed once per (n, d)."""
    # grevlex compares total degree first, so the degrees concatenate
    return tuple(exp for s in range(d + 1) for exp in monomials_of_degree(n, s))


# ---------------------------------------------------------------------------
# Buchberger at desk scale
# ---------------------------------------------------------------------------

def leading_term(f):
    if f.is_zero():
        raise ConfigError("zero polynomial has no leading term")
    exp = max(f.terms, key=grevlex_key)
    return exp, f.terms[exp]


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _quot(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _minimalize(gens):
    """The minimal generators of the monomial ideal spanned by gens, as a
    sorted tuple: a proper divisor has lower degree, so it comes first."""
    minimal = []
    for g in sorted(set(gens), key=sum):
        if not any(_divides(h, g) for h in minimal):
            minimal.append(g)
    return tuple(sorted(minimal))


def _mono_mul(f, exp, coeff):
    return MultiPoly(f.nvars,
                     {tuple(e + g for e, g in zip(t, exp)): c * coeff
                      for t, c in f.terms.items()})


def normal_form(f, basis):
    """Full multivariate division remainder of f by the basis."""
    rem = MultiPoly(f.nvars, {})
    work = f
    lts = [leading_term(g) for g in basis]
    while not work.is_zero():
        exp, c = leading_term(work)
        hit = next((i for i, (ge, _) in enumerate(lts) if _divides(ge, exp)), None)
        if hit is None:
            rem = rem + MultiPoly(work.nvars, {exp: c})
            work = work - MultiPoly(work.nvars, {exp: c})
        else:
            ge, gc = lts[hit]
            work = work - _mono_mul(basis[hit], _quot(exp, ge), c / gc)
    return rem


def s_polynomial(f, g):
    fe, fc = leading_term(f)
    ge, gc = leading_term(g)
    lcm = tuple(max(a, b) for a, b in zip(fe, ge))
    return _mono_mul(f, _quot(lcm, fe), 1 / fc) - _mono_mul(g, _quot(lcm, ge), 1 / gc)


def groebner(generators, s_pair_budget=10000):
    """Reduced Groebner basis under the fixed order, exact over Q.

    Plain Buchberger charging each S-pair to a --budget Budget, which
    raises CapExceededError rather than truncating silently.
    """
    budget = Budget(s_pair_budget, "S-pairs", "--budget")
    basis = [g for g in generators if not g.is_zero()]
    if not basis:
        return []
    pairs = [(i, j) for i in range(len(basis)) for j in range(i)]
    while pairs:
        i, j = pairs.pop(0)
        budget.charge()
        # product criterion: coprime leading monomials reduce to zero
        fe, _ = leading_term(basis[i])
        ge, _ = leading_term(basis[j])
        if all(min(a, b) == 0 for a, b in zip(fe, ge)):
            continue
        rem = normal_form(s_polynomial(basis[i], basis[j]), basis)
        if not rem.is_zero():
            basis.append(rem)
            pairs.extend((len(basis) - 1, k) for k in range(len(basis) - 1))
    # minimize: the first element of each minimal leading exponent
    lts = [leading_term(g)[0] for g in basis]
    minimal = [basis[lts.index(e)] for e in _minimalize(lts)]
    # reduce and normalize monic
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        rem = normal_form(g, others) if others else g
        if rem.is_zero():
            continue
        _, c = leading_term(rem)
        reduced.append(rem.scale(1 / c))
    reduced.sort(key=lambda g: grevlex_key(leading_term(g)[0]))
    return reduced


# ---------------------------------------------------------------------------
# Hilbert tables
# ---------------------------------------------------------------------------

def _numerator(G, memo):
    """N(G) of hilbert_numerator for a minimalized generator tuple G."""
    if G not in memo:
        *rest, g = G
        rest = tuple(rest)
        out = dict(_numerator(rest, memo))
        colon = _minimalize(tuple(max(x, y) - y for x, y in zip(h, g)) for h in rest)
        for a, c in _numerator(colon, memo).items():
            ag = tuple(x + y for x, y in zip(a, g))
            out[ag] = out.get(ag, 0) - c
            if not out[ag]:
                del out[ag]
        memo[G] = out
    return memo[G]


def hilbert_numerator(nvars, lt_gens):
    """The multigraded Hilbert numerator {a: c_a} of the monomial ideal
    spanned by lt_gens: the sum of x^m over the standard monomials m is
    sum_a c_a x^a / prod_i (1 - x_i) (Bayer-Stillman; Bigatti).

    One recursion over the minimal generators G, memoized on G:
    N(()) = 1, and N(G + (g,)) = N(G) - x^g N(G : g) with the colon ideal
    G : g = (max(h, g) - g for h in G), minimalized again.  A zero
    generator (the unit ideal) leaves N = 0 by the same recursion."""
    return _numerator(_minimalize(tuple(g) for g in lt_gens), {(): {(0,) * nvars: 1}})


@dataclass
class HilbertTable:
    """Standard-monomial statistics of a homogeneous ideal, driven entirely
    by the leading-term exponents (I and LT(I) share the Hilbert function):
    for an ideal, the leading exponents of its reduced groebner basis.  Any
    list of exponent tuples is read as the monomial ideal it spans.

    The standard monomials are those divisible by no element of lt_gens.
    Their generating function is N / prod_i (1 - x_i), N = sum_a c_a x^a
    the hilbert_numerator of lt_gens, computed once.  A term c_a x^a
    contributes x^a times every monomial u of degree k = s - |a| >= 0, of
    which there are C(k + n - 1, n - 1), and the u_i of which sum to
    C(k + n - 1, n).  So, in n >= 1 variables,

        H(s)       = sum_a c_a C(k + n - 1, n - 1),
        sigma_i(s) = sum_a c_a (a_i C(k + n - 1, n - 1) + C(k + n - 1, n)),

    and with n = 0 the only monomial is 1, of degree 0.  (H(s), sigma(s))
    is cached per degree, so all statistics below share one evaluation.
    """

    nvars: int
    lt_gens: list
    _stats: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    @functools.cached_property
    def _terms(self):
        """(|a|, a, c_a) for each term c_a x^a of the Hilbert numerator."""
        numerator = hilbert_numerator(self.nvars, self.lt_gens)
        return [(sum(a), a, c) for a, c in numerator.items()]

    def _stat(self, s):
        """(H(s), sigma(s)); (0, zeros) below degree 0."""
        n = self.nvars
        if s not in self._stats:
            H, sig = 0, [0] * n
            for deg, a, c in self._terms:
                k = s - deg
                if k < 0:
                    continue
                count, spread = ((math.comb(k + n - 1, n - 1), math.comb(k + n - 1, n))
                                 if n else (int(k == 0), 0))
                H += c * count
                for i in range(n):
                    sig[i] += c * (a[i] * count + spread)
            self._stats[s] = H, tuple(sig)
        return self._stats[s]

    def standard_monomials(self, s):
        """Standard monomials of degree s, in the monomials_of_degree order."""
        return [m for m in monomials_of_degree(self.nvars, s)
                if not any(_divides(g, m) for g in self.lt_gens)]

    def hilbert_function(self, s):
        return self._stat(s)[0]

    def sigma_all(self, s):
        return self._stat(s)[1]

    def a_estimates(self, s):
        """Finite-s ratios sigma_i / (s * H(s)); they sum to 1 exactly."""
        H = self.hilbert_function(s)
        if s < 1 or H == 0:
            raise ConfigError("need s >= 1 with H(s) > 0")
        return tuple(Fraction(x, s * H) for x in self.sigma_all(s))

    def mu_e(self, delta):
        """Curve-case constants: mu = H(delta), e = mu(mu-1)/2."""
        mu = self.hilbert_function(delta)
        return mu, mu * (mu - 1) // 2


@dataclass
class SalbergerReport:
    s: int
    ratio: Fraction
    bound: Fraction
    ok: bool

    def to_json(self):
        return {"s": self.s, "ratio": str(self.ratio),
                "bound": str(self.bound), "ok": self.ok}


def salberger_check(table, s, m, slack=None):
    """Check (sigma_1 + ... + sigma_n)/(s*H) <= m/(m+1) + slack at finite s
    (default slack 2/s).  Assumes the variety meets x_0 = 0 properly."""
    slack = Fraction(2, s) if slack is None else Fraction(slack)
    H = table.hilbert_function(s)
    if H == 0:
        raise ConfigError(f"the Salberger check needs H(s) > 0; H({s}) = 0")
    sig = table.sigma_all(s)
    ratio = Fraction(sum(sig[1:]), s * H)
    bound = Fraction(m, m + 1) + slack
    return SalbergerReport(s, ratio, bound, ratio <= bound)


def select_delta_alpha(table, d, r, scan_cap=500):
    """Smallest delta admitting an integer alpha with
    (r-1)(sigma_1+sigma_2)/e < alpha <= ceil(r/d), and the smallest such
    alpha; exact rational comparisons.  Each delta scanned is charged to
    the scan_cap Budget."""
    if table.nvars != 3:
        raise ConfigError("the (delta, alpha) selection is for plane curves")
    budget = Budget(scan_cap, "degrees delta", "scan_cap")
    ceil_rd = -(-r // d)
    last = None
    for delta in itertools.count(1):
        budget.charge(note=f"; last ratio {last}")
        mu, e = table.mu_e(delta)
        if mu < 2 or e == 0:
            continue
        sig = table.sigma_all(delta)
        ratio = Fraction((r - 1) * (sig[1] + sig[2]), e)
        last = ratio
        alpha = math.floor(ratio) + 1
        if alpha <= ceil_rd:
            # exact re-check of both inequalities
            assert ratio < alpha <= ceil_rd
            return delta, alpha

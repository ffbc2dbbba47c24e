"""Exact C^r-norms over balls and the T_r certificate: degree-(r-1)
Taylor approximation with remainder |x-y|^r, verified exhaustively: the
C^r half on Mahler test sets, the remainder by a pair sweep over the
residue classes in one variable and on Mahler test sets in several.

Every check reads one table of divided derivatives g_beta = (1/beta!)
d^beta f per component, built once from the terms.  It lists only the
beta below some exponent of the component, the g_beta that are not
identically zero, and beta = 0 always, ordered by (|beta|, beta), so the
C^r entries (|beta| <= r) come first.  For a polynomial f the remainder
f(x) - T_y(x) is sum_{|beta|>=r} g_beta(y) (x-y)^beta.  With s the
p-denominator exponent of the coefficients of f, the C^r half asks only
whether p^s divides p^s * g_beta(y) (|beta| <= r); reduction modulo p^s
is a ring map, so it is decided on the table modulo p^s.  One evaluator
serves every check: _scaled reduces a g_beta once to the coefficient
residues of p^s * g_beta mod p^s, and _value evaluates them in Python ints
from the modular _powers of a point.  When s = 0 nothing can fail, and
neither the table nor the residues are built.

Verdict and witness depend only on s and alpha, not on the precision K,
for every K >= K* = max(s, alpha) + 1; a check reports K as given.  The
one K below K* that a check accepts, K = max(s, alpha), lists in one
variable no x = y mod p^K other than x = y: where that diagonal class
fails first, the witness is a C^r one instead.  The verdict stays, since
there the remainder fails only through g_r(y), which the C^r half tests.
Put y = key + p^alpha z.  Each value
tested is a polynomial in z with p-integral coefficients, of period
p^(s-alpha) in z_i, so by Mahler's criterion it vanishes everywhere once
it vanishes on the box of min(degree + 1, period) points per coordinate;
and the first failing y in ball order lies in that box, since a slice
that fails at some digit fails at one inside it: _first_failure scans it.
In one variable the remainder factors as (x-y)^r * S(x,y) with S =
sum_{j>=r} g_j(y) (x-y)^(j-r), and the pair sweep asks whether p^s * S
vanishes modulo p^s on the residue pairs mod p^min(K, K*), K* = max(s,
alpha) + 1.  In several variables put x - y = p^v u, alpha <= v < s: once
the C^r half holds, the bound at (x, y) asks whether sum_{|beta|>r} p^s
g_beta(y) p^(v(|beta|-r)) u^beta vanishes modulo p^s, a polynomial in z
and u of period p^(s-v) in u_i, tested on the same kind of box.  All u
are tested, not only primitive ones: u = p^j u' gives p^(jr) times the
level-(v + j) sum.  Witness ords are exact, from the same table.  Every
verdict is a proof for all Z_p-points of the ball.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import _kernels
from .arith_core import (
    Ball,
    MultiPoly,
    rational_residue,
    val_fraction,
    val_int,
)
from .combinatorics import select_divisibility
from .errors import BoundViolation, Budget, ConfigError, PrecisionError

INF = math.inf


class PolyMap:
    """Polynomial map O^m -> O^n with exact rational coefficients and a
    declared domain.

    Restricted power series are admitted only as truncations f with a
    declared tail_floor F: a lower bound on the Gauss valuation of the
    omitted tail h in the ball coordinate z, y = c + p^alpha z.  When F >=
    alpha*r, h alone has its divided derivatives of order <= r integral
    and its remainder within |x-y|^r, so by the ultrametric inequality a
    verdict for f, and its witness, carries over to f + h: certificates
    over such maps read "exact" provenance then, and "up-to-tail" when F <
    alpha*r.
    """

    __slots__ = ("m", "n", "components", "domain", "tail_floor")

    def __init__(self, m, n, components, domain=None, tail_floor=None):
        if len(components) != n:
            raise ConfigError("component count must equal codomain dimension")
        comps = []
        for c in components:
            if not isinstance(c, MultiPoly):
                raise ConfigError("components must be MultiPoly instances")
            if c.nvars != m:
                raise ConfigError("component arity mismatch")
            comps.append(c)
        self.m = m
        self.n = n
        self.components = tuple(comps)
        self.domain = domain
        self.tail_floor = tail_floor

    @classmethod
    def univariate(cls, coeffs, domain=None, tail_floor=None):
        """Map Z_p -> Z_p from dense rational coefficients c_0..c_D."""
        terms = {(i,): Fraction(c) for i, c in enumerate(coeffs)}
        return cls(1, 1, [MultiPoly(1, terms)], domain, tail_floor)

    def eval(self, point):
        return tuple(c.eval(point) for c in self.components)

    def degree(self):
        return max((c.degree() or 0) for c in self.components)

    def __repr__(self):
        return f"PolyMap({self.m}->{self.n}, deg {self.degree()})"


def compose(g, f):
    """g after f; domains must be compatible (f maps into g's domain)."""
    if g.m != f.n:
        raise ConfigError("dimension mismatch in composition")
    comps = [c.substitute(list(f.components)) for c in g.components]
    return PolyMap(f.m, g.n, comps, domain=f.domain,
                   tail_floor=f.tail_floor if f.tail_floor is not None else g.tail_floor)


def power_compose(f, N, b):
    """The map x |-> f(b * x^N) with domain the preimage of f's domain."""
    if N < 1:
        raise ConfigError("need N >= 1")
    if isinstance(b, (int, Fraction)):
        b = (b,) * f.m
    comps = []
    for comp in f.components:
        terms = {}
        for exp, c in comp.terms.items():
            scale = Fraction(1)
            for bi, e in zip(b, exp):
                scale *= Fraction(bi) ** e
            new = tuple(N * e for e in exp)
            terms[new] = terms.get(new, Fraction(0)) + c * scale
        comps.append(MultiPoly(f.m, terms))
    dom = PowerPreimage(f.domain, N, tuple(Fraction(x) for x in b)) \
        if f.domain is not None else None
    return PolyMap(f.m, f.n, comps, domain=dom, tail_floor=f.tail_floor)


@dataclass(frozen=True)
class PowerPreimage:
    """Domain {x : b * x^N lies in base}, materialized as maximal balls."""

    base: Ball
    N: int
    b: tuple

    @property
    def p(self):
        return self.base.p

    def maximal_balls(self):
        if self.base.m != 1:
            raise ConfigError("power preimages are supported in one variable")
        p, alpha = self.base.p, self.base.alpha
        j = max(alpha, 1)
        # membership of a residue class mod p^j equals membership of its
        # representative: b*x^N - b*u^N is divisible by p^j on the class.
        # b*u^N - c = (b_n c_d u^N - c_n b_d) / (b_d c_d), so u is a member
        # when p^(alpha + v_p(b_d c_d)) divides the integer numerator
        b, c = self.b[0], self.base.center[0]
        lead, const = b.numerator * c.denominator, c.numerator * b.denominator
        mod = p ** (alpha + val_int(b.denominator * c.denominator, p))
        members = {u for u in range(p ** j)
                   if (lead * pow(u, self.N, mod) - const) % mod == 0}
        return merge_residue_balls(members, p, j)


def merge_residue_balls(residues, p, depth):
    """Merge a set of residues mod p^depth into maximal balls.

    A class at depth d-1 is full iff all p of its children at depth d are;
    a full class is maximal iff its parent is not full.
    """
    full = {depth: set(residues)}
    for d in range(depth, 0, -1):
        counts = {}
        for u in full[d]:
            key = u % p ** (d - 1)
            counts[key] = counts.get(key, 0) + 1
        full[d - 1] = {u for u, cnt in counts.items() if cnt == p}
    balls = []
    for d in range(0, depth + 1):
        for u in sorted(full.get(d, ())):
            if d == 0 or u % p ** (d - 1) not in full[d - 1]:
                balls.append(Ball(p, (u,), d))
    return balls


def cr_norm(f, r, ball):
    """Valuation of the C^r-norm of f over the ball: the least coefficient
    valuation, over the divided derivatives g_b with |b| <= r, of
    g_b(c + p^alpha z) as a polynomial in z.  Its z^beta coefficient is
    p^(alpha |beta|) C(b + beta, beta) g_(b+beta)(c), so the table
    evaluated once at the centre c gives every one.  Larger is smaller
    norm."""
    _same_dimension(f, ball)
    p, a = ball.p, ball.alpha
    best = INF
    for entries in _derivative_table(f):
        at_c = [(gamma, val_fraction(MultiPoly(ball.m, g).eval(ball.center), p))
                for gamma, g in entries]
        for b, _g in entries:
            if sum(b) > r:
                break
            for gamma, v in at_c:
                if all(gi >= bi for gi, bi in zip(gamma, b)):
                    best = min(best, v + a * (sum(gamma) - sum(b)) + sum(
                        val_int(math.comb(gi, bi), p) for gi, bi in zip(gamma, b)))
    return best


# ---------------------------------------------------------------------------
# T_r certification
# ---------------------------------------------------------------------------

PAIR_CAP = 5 * 10**8  # residue pairs a 1-D check sweeps, evaluations a multivariate one makes
ZERO_TABLE_ROWS = 20000  # s = 0: rows of the zero tables a 1-D check sweeps


@dataclass
class TrCertificate:
    subject: PolyMap
    r: int
    domain: object
    # "holds" | "fails"; a check that cannot decide raises
    verdict: str
    strategy: str
    K: int
    witness: dict | None = None
    provenance: str = "exact"

    @property
    def holds(self):
        return self.verdict == "holds"

    def to_json(self):
        wit = None
        if self.witness is not None:
            wit = {k: (tuple(_json_exact(e) for e in v) if isinstance(v, tuple)
                       else _json_exact(v))
                   for k, v in self.witness.items()}
        return {
            "r": self.r,
            "verdict": self.verdict,
            "strategy": self.strategy,
            "K": self.K,
            "witness": wit,
            "provenance": self.provenance,
        }


def _json_exact(v):
    return str(v) if isinstance(v, Fraction) else v


def _derivative_table(f):
    """Per component, the divided derivatives (beta, g_beta) for the beta
    that lie below some exponent of the component, and beta = 0 always,
    ordered by (|beta|, beta); each g_beta is a dict exponent ->
    coefficient.  The beta left out have g_beta = 0; in one variable none
    is, up to the degree.  One pass over the terms: c x^e adds C(e, beta)
    c x^(e - beta) to g_beta for every beta <= e, and distinct terms give
    distinct exponents."""
    table = []
    for comp in f.components:
        derivs = {(0,) * f.m: {}}
        for exp, c in comp.terms.items():
            for beta in itertools.product(*[range(e + 1) for e in exp]):
                coef = c
                for e, b in zip(exp, beta):
                    if 0 < b < e:
                        coef = coef * math.comb(e, b)
                derivs.setdefault(beta, {})[tuple([e - b for e, b in zip(exp, beta)])] = coef
        table.append(sorted(derivs.items(), key=lambda item: (sum(item[0]), item[0])))
    return table


def _denominator_exponent(f, p):
    """s, the largest exponent of p in a denominator of the divided
    derivatives of f.  Integer binomials only cancel denominators, so it is
    read off the coefficients of f themselves."""
    return max((val_int(c.denominator, p) for comp in f.components
                for c in comp.terms.values()), default=0)


def check_Tr(f, r, domain=None, K=None):
    """Certify (or refute, with a witness) the T_r property of f: C^r-norm
    at most 1 on the domain together with |f(x) - T_y(x)| <= |x-y|^r for
    all x, y.

    The check is exhaustive, with values carried modulo p^s (s the
    p-denominator exponent of the coefficients): on the residue classes in
    one variable, on Mahler test sets in several.  For polynomial f the
    verdict covers every Z_p-point of the domain (not only the
    representatives), and witnesses are computed in exact arithmetic.  K
    is the reported modulus exponent, K >= s; the default is max(alpha*r +
    8, s + 2, alpha + 1).  From K* = max(s, alpha) + 1 on, K sets only the
    reported K and the rows of a 1-D check's s = 0 zero tables, which only
    an explicit K builds; at K = max(s, alpha) a 1-D witness can differ
    (see the module docstring), the verdict cannot.
    """
    if K is not None and K < 0:
        raise ConfigError(f"need K >= 0, got {K}")
    if r < 1:
        raise ConfigError("need r >= 1")
    ball = domain if domain is not None else f.domain
    if ball is None:
        raise ConfigError("no domain declared and none supplied")
    if not isinstance(ball, Ball):
        raise ConfigError(
            f"check_Tr needs a Ball domain, got {type(ball).__name__}; "
            "check each ball of its maximal_balls() instead")
    _same_dimension(f, ball)
    s = _denominator_exponent(f, ball.p)
    reported = _default_K(K, ball, r, s)
    if f.m == 1:
        witness = _check_tr_1d(f, r, ball, K, s)
    else:
        # with s = 0 every divided derivative is p-integral: nothing can fail
        witness = _check_tr_nd(f, r, ball, s) if s else None
    return TrCertificate(f, r, ball, "holds" if witness is None else "fails",
                         f"exhaustive-mod-{ball.p}^{reported}", reported, witness,
                         "exact" if f.tail_floor is None or f.tail_floor >= ball.alpha * r
                         else "up-to-tail")


def _same_dimension(f, ball):
    if ball.m != f.m:
        raise ConfigError(
            f"ball of dimension {ball.m} for a map in {f.m} variables")


def _default_K(K, ball, r, s):
    """The modulus exponent K of a check on `ball`.  An explicit K below
    the ball's valuative radius is a configuration error, decided before
    any residue count is taken; one below s cannot conclude."""
    if K is not None:
        if K < ball.alpha:
            raise ConfigError(f"K={K} below valuative radius {ball.alpha}")
        if K < s:
            raise PrecisionError(f"K={K} below divided-derivative denominator exponent {s}")
        return K
    return max(ball.alpha * r + 8, s + 2, ball.alpha + 1)


def _check_tr_1d(f, r, ball, K, s):
    """First violation per component, or None: the remainder sweep over
    the residues mod p^min(K, K*), K = None meaning K*, then the pointwise
    C^r bound on the Mahler box of y.  Both depend on y and x mod p^s only,
    but for the skipped x = y, so the first failing pair mod p^K has y =
    key + p^alpha d, d < P = p^(K* - 1 - alpha), and x below that too, or x
    = y + p^alpha P when the class x = y mod p^s fails: both lie among the
    residues mod p^K*.  The sweep's table holds p^s * g_j(x) mod p^s from
    _scaled and _value, one row per residue x, each distinct x mod p^s with
    its powers formed once; numpy holds only the arrays the sweep is given.
    With s = 0 nothing can fail: no residue is listed, and numpy loads only
    for the zero tables of an explicit K."""
    p = ball.p
    if s == 0:
        # up to ZERO_TABLE_ROWS the sweep gets the zero table of shape
        # (p^(K - alpha), deg + 1) at modulus 1, where it returns at once;
        # p^(K - alpha) >= 2^(K - alpha) exceeds it for a long exponent,
        # so a huge K never forms the power
        if K is None or K - ball.alpha >= ZERO_TABLE_ROWS.bit_length():
            return None
        n_res = ball.residue_count(K)
        if n_res <= ZERO_TABLE_ROWS:
            for comp in f.components:
                width = (comp.degree() or 0) + 1
                if width > r:
                    import numpy as np

                    zeros = np.zeros((n_res, width), dtype=np.int64)
                    _kernels.tr_pair_sweep(zeros, zeros[:, 0], 1, r)
        return None

    K = max(s, ball.alpha) + 1 if K is None else min(K, max(s, ball.alpha) + 1)
    derivs = _derivative_table(f)
    n_res = ball.residue_count(K)
    Budget(PAIR_CAP, f"residue pairs mod p^{K}", "taylor.PAIR_CAP").charge(
        n_res * n_res * sum(len(entries) > r for entries in derivs))

    # every test asks whether p^s divides a scaled value: all runs mod p^s
    mod, period = p ** s, p ** max(s - ball.alpha, 0)
    key, step = ball.canonical_center()[0], p ** ball.alpha
    xs = [(key + step * d) % mod for d in range(p ** (K - ball.alpha))]
    for entries in derivs:
        terms = [_scaled(g, p, s) for _beta, g in entries]
        top = [len(entries) - 1]  # the degree: every power of y up to it is listed

        # remainder sweep first: the factored remainder must stay integral;
        # earlier components passed every pair, so the exact re-check
        # names this one
        if len(terms) > r:
            import numpy as np

            dtype = np.int64 if _kernels.int64_safe(mod) else object
            # x, and so its row, repeats with period p^(s - alpha) in d
            table = [[_value(t, rows, mod) for t in terms]
                     for rows in (_powers((x,), top, mod) for x in xs[:period])]
            by, bx = _kernels.tr_pair_sweep(
                np.array([table[d % period] for d in range(len(xs))], dtype=dtype),
                np.array(xs, dtype=dtype), mod, r)
            if by >= 0:
                x, y = ball.representative((bx,)), ball.representative((by,))
                return _confirmed(_exact_pair_violation(derivs, r, x, y, p),
                                  f"the pair x = {x[0]}, y = {y[0]}")

        # pointwise C^r bound at the first y with a nonzero scaled value of
        # order <= r; earlier components passed every y, so the exact
        # re-check names this one
        z = _first_failure(terms[:r + 1], ball, top, mod, [range(min(top[0] + 1, period))])
        if z is not None:
            y = ball.representative(z)
            return _confirmed(_exact_point_violation(derivs, r, y, p), f"the point y = {y[0]}")
    return None


def _scaled(g, p, s):
    """p^s * g modulo p^s as (coefficient, exponent) pairs, zero terms
    left out, for one divided derivative g of a _derivative_table."""
    mod = p ** s
    terms = ((rational_residue(c * mod, p, s), exp) for exp, c in g.items())
    return [(c, exp) for c, exp in terms if c]


def _powers(point, top, mod):
    """rows[i][e] = point[i]^e mod `mod` for e <= top[i]."""
    return [[pow(x, e, mod) for e in range(d + 1)] for x, d in zip(point, top)]


def _value(terms, rows, mod):
    """The value mod `mod` of the (coefficient, exponent) terms at the
    point whose _powers are rows."""
    total = 0
    for c, exp in terms:
        for row, e in zip(rows, exp):
            c *= row[e]
        total += c
    return total % mod


def _first_failure(terms, ball, top, mod, box, budget=None):
    """The first z of the product of the ranges in box, in ball order, at
    which one of the term lists (from _scaled, exponents of variable i up
    to top[i]) is nonzero at y = key + p^alpha z; or None.  budget, when
    given, is charged the number of lists evaluated at each z."""
    for z in itertools.product(*box):
        if budget is not None:
            budget.charge(len(terms))
        rows = _powers(ball.representative(z), top, mod)
        if any(_value(t, rows, mod) for t in terms):
            return z
    return None


def _remainder_ords(entries, r, x, y, p):
    """Exact ord of f(x) - sum_{|beta|<r} g_beta(y) (x-y)^beta and of
    |x-y|^r, from one component's entries of a _derivative_table (f is
    g_0, the first entry)."""
    x = tuple(Fraction(c) for c in x)
    y = tuple(Fraction(c) for c in y)
    h = [a - b for a, b in zip(x, y)]
    diff = MultiPoly(len(x), entries[0][1]).eval(x)
    for beta, g in entries:
        if sum(beta) >= r:
            break
        term = MultiPoly(len(y), g).eval(y)
        for hi, b in zip(h, beta):
            term *= hi ** b
        diff -= term
    return val_fraction(diff, p), r * min(val_fraction(hi, p) for hi in h)


def recheck_witness(f, r, witness, p):
    """Re-verify a failure witness in exact rational arithmetic."""
    if witness["kind"] == "remainder":
        entries = _derivative_table(f)[witness["component"]]
        lhs, rhs = _remainder_ords(entries, r, _astuple(witness["x"]),
                                   _astuple(witness["y"]), p)
        return lhs < rhs
    if witness["kind"] == "cr_norm":
        entries = dict(_derivative_table(f)[witness["component"]])
        g = entries.get(tuple(witness["order"]), {})  # left out: g = 0
        return val_fraction(MultiPoly(f.m, g).eval(_astuple(witness["y"])), p) < 0
    raise ConfigError(f"unknown witness kind {witness['kind']!r}")


def _astuple(v):
    return tuple(v) if isinstance(v, (tuple, list)) else (v,)


def _confirmed(witness, flagged):
    """The exact re-check's witness at what a modular sweep flagged.  The
    two decide the same bound, so a re-check that clears the flagged pair
    or point is a BoundViolation, never a verdict: returning its None
    would report "holds" and hide every later failure."""
    if witness is None:
        raise BoundViolation(
            f"the modular sweep flags {flagged}, which the exact re-check clears")
    return witness


def _exact_pair_violation(derivs, r, x, y, p):
    """First component whose remainder bound fails at (x, y), as a
    witness, from a _derivative_table; or None."""
    if tuple(x) == tuple(y):
        return None
    for ci, entries in enumerate(derivs):
        lhs, rhs = _remainder_ords(entries, r, x, y, p)
        if lhs < rhs:
            return {"kind": "remainder", "component": ci,
                    "x": x[0] if len(x) == 1 else x,
                    "y": y[0] if len(y) == 1 else y,
                    "ord_lhs": lhs, "bound_rhs": rhs}
    return None


def _exact_point_violation(derivs, r, y, p):
    """First order-<=r divided derivative of negative valuation at y, in
    (component, beta) order, from a _derivative_table, as a witness; only
    the C^r entries at the head of each component are read.  y is kept as
    given: ints from the 1-D check, Fractions from the others."""
    for ci, entries in enumerate(derivs):
        for beta, g in entries:
            if sum(beta) > r:
                break
            v = val_fraction(MultiPoly(len(y), g).eval(y), p)
            if v < 0:
                return {"kind": "cr_norm", "component": ci, "order": beta,
                        "y": y[0] if len(y) == 1 else y, "valuation": v}
    return None


def _check_tr_nd(f, r, ball, s):
    """First violation of a multivariate map, or None, on Mahler test sets
    in Python ints: the C^r half over all components first, then, once it
    holds and s > alpha, the remainder half at each level v in [alpha, s),
    and the first failing x among the classes of x - y mod p^s, for the
    first failing y alone.  Each y tested counts its columns towards
    PAIR_CAP, and each x class scanned counts one."""
    p, m, alpha = ball.p, ball.m, ball.alpha
    mod, period = p ** s, p ** max(s - alpha, 0)
    derivs = _derivative_table(f)
    # each component's entries split at `low`: the C^r entries (|beta| <= r)
    # first, the remainder entries after them
    low = [sum(sum(beta) <= r for beta, _g in entries) for entries in derivs]
    budget = Budget(PAIR_CAP, f"evaluations mod p^{s}", "taylor.PAIR_CAP")
    cr = [t for entries, n in zip(derivs, low) for _beta, g in entries[:n]
          if (t := _scaled(g, p, s))]
    # g_0 = f is a C^r entry, and a remainder entry's nonzero terms come from
    # f's with smaller exponents: these degrees bound both halves
    top = [max((exp[i] for t in cr for _c, exp in t), default=0) for i in range(m)]
    box = [range(min(d + 1, period)) for d in top]

    z = _first_failure(cr, ball, top, mod, box, budget)
    if z is not None:
        y = ball.representative(z)
        return _confirmed(_exact_point_violation(derivs, r, tuple(map(Fraction, y)), p),
                          f"the point y = {y}")
    if s <= alpha:
        # every |beta| > r term carries p^(v(|beta|-r)) with v >= alpha >= s
        return None

    high = [[(beta, t) for beta, g in entries[n:] if (t := _scaled(g, p, s))]
            for entries, n in zip(derivs, low)]
    utop = [max((beta[i] for h in high for beta, _t in h), default=0) for i in range(m)]
    uboxes = {v: list(itertools.product(*[range(min(d + 1, p ** (s - v))) for d in utop]))
              for v in range(alpha, s)}
    urows = {u: _powers(u, utop, mod) for u in uboxes[alpha]}  # the largest u-box
    columns = sum(map(len, uboxes.values()))

    def sums(z):
        # per level v, each component's remainder sum at y = key + p^alpha z
        # as (coefficient, beta) terms; v(|beta| - r) >= s leaves a term out
        rows = _powers(ball.representative(z), top, mod)
        vals = [[(_value(t, rows, mod), beta) for beta, t in h] for h in high]
        return {v: [[(c, beta) for a, beta in comp
                     if (c := a * pow(p, v * (sum(beta) - r), mod) % mod)] for comp in vals]
                for v in uboxes}

    def remainder_fails(z):
        budget.charge(columns)
        at = sums(z)
        return any(_value(comp, urows[u], mod) for v, us in uboxes.items() for u in us
                   for comp in at[v])

    z = next(filter(remainder_fails, itertools.product(*box)), None)
    if z is None:
        return None
    at = sums(z)
    # the first x in ball order whose class x - y = p^alpha delta = p^v u,
    # u primitive, fails at y
    for d in itertools.product(range(period), repeat=m):
        budget.charge()
        delta = [(a - b) % period for a, b in zip(d, z)]
        if any(delta):
            j = min(val_int(c, p) for c in delta if c)
            rows = _powers([c // p ** j for c in delta], utop, mod)
            if any(_value(comp, rows, mod) for comp in at[alpha + j]):
                break
    x, y = ball.representative(d), ball.representative(z)
    return _confirmed(_exact_pair_violation(derivs, r, x, y, p), f"the pair x = {x}, y = {y}")


# ---------------------------------------------------------------------------
# Gauss-norm bound verifications
# ---------------------------------------------------------------------------

@dataclass
class GaussReport:
    ok: bool
    hypothesis_val: object
    lam_val: int
    entries: list

    def to_json(self):
        return {"ok": self.ok,
                "hypothesis_valuation": _json_val(self.hypothesis_val),
                "lambda_valuation": self.lam_val,
                "bounds": [{"i": i, "lhs": _json_val(l), "rhs": _json_val(rh),
                            "ok": ok} for i, l, rh, ok in self.entries]}


def _json_val(v):
    return "inf" if v is INF else int(v)


def verify_gauss0(g, lam_val, a_val, p):
    """On the box a*M (valuative radius a_val + 1): certify |g| <= |lambda|
    by Gauss norm after recentering/scaling, then check the divided
    derivative bounds |g^(i)/i!| <= |lambda| / |a|^i for every i <= deg g."""
    if isinstance(g, PolyMap):
        if g.m != 1 or g.n != 1:
            raise ConfigError("verify_gauss0 expects a univariate map")
    else:
        g = PolyMap(1, 1, [g])
    derivs = _derivative_table(g)[0]
    # sup over the associated set of |g| equals max_i |c_i a^i|
    hyp = min((val_fraction(c, p) + i * a_val
               for (i,), c in derivs[0][1].items()), default=INF)
    if hyp < lam_val:
        raise ConfigError(
            f"hypothesis |g| <= |lambda| not certifiable: Gauss valuation "
            f"{hyp} < {lam_val}")
    entries = []
    ok = True
    for (i,), gi in derivs[1:]:
        lhs = min((val_fraction(c, p) + j * a_val
                   for (j,), c in gi.items()), default=INF)
        rhs = lam_val - i * a_val
        good = lhs >= rhs
        ok = ok and good
        entries.append((i, lhs, rhs, good))
    return GaussReport(ok, hyp, lam_val, entries)


@dataclass
class Gauss1aReport:
    n: int
    N: int
    divisibility: int
    balls: list
    certificates: list

    @property
    def all_hold(self):
        return all(c.holds for c in self.certificates)

    def to_json(self):
        return {"n": self.n, "N": self.N, "v_p(n)": self.divisibility,
                "balls": [{"center": b.canonical_center()[0], "alpha": b.alpha}
                          for b in self.balls],
                "certificates": [c.to_json() for c in self.certificates],
                "all_hold": self.all_hold}


def verify_gauss1a(g, r, p, i_max, b=1, K=8):
    """Compose g with x -> x^N for the divisibility rule n = p^k,
    k = max(1, ceil(v_p(i_max!)/r)), N = n^r, and run the exhaustive T_r
    check on each maximal ball of {x : x^N in b*(1+nM)}.

    Requires g to have C^1-norm at most 1 on b*(1+nM).
    """
    if isinstance(g, PolyMap):
        gmap = g
    else:
        gmap = PolyMap(1, 1, [g])
    k = select_divisibility(p, r, i_max)
    n = p ** k
    N = n ** r
    b = Fraction(b)
    vb = val_fraction(b, p)
    if vb < 0 or vb is INF:
        raise ConfigError("b must be a nonzero integral element")
    B = Ball(p, (b,), int(vb) + k + 1)
    c1 = cr_norm(gmap, 1, B)
    if c1 < 0:
        raise ConfigError(f"C^1-norm of g exceeds 1 on the ball (valuation {c1})")
    gN = power_compose(gmap, N, 1)
    pre = PowerPreimage(B, N, (Fraction(1),))
    balls = pre.maximal_balls()
    certs = [check_Tr(gN, r, ball, K=K) for ball in balls]
    return Gauss1aReport(n, N, k, balls, certs)

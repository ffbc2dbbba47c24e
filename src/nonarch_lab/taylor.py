"""Exact C^r-norms over balls and the T_r certificate: degree-(r-1)
Taylor approximation with remainder |x-y|^r, verified exhaustively: the
C^r half on Mahler test sets, the remainder by a pair sweep over the
residue classes in one variable and on Mahler test sets in several.
A check's domain is one Ball, held by its integer key; the preimage of a
ball under x |-> b x^N is the list of maximal balls from preimage_balls,
each checked on its own.

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

Verdict and witness depend only on s and alpha, not on the precision K:
a check runs at K* = max(s, alpha) + 1 whatever K it is given, and
reports K as given.  Put y = key + p^alpha z.  Each value
tested is a polynomial in z with p-integral coefficients, of period
p^(s-alpha) in z_i, so by Mahler's criterion it vanishes everywhere once
it vanishes on the box of min(degree + 1, period) points per coordinate;
and the first failing y in ball order lies in that box, since a slice
that fails at some digit fails at one inside it: _first_failure scans it.
In one variable the remainder factors as (x-y)^r * S(x,y) with S =
sum_{j>=r} g_j(y) (x-y)^(j-r), and the pair sweep asks whether p^s * S
vanishes modulo p^s on the residue pairs mod p^K*.  In several variables put x - y = p^v u, alpha <= v < s: once
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
from fractions import Fraction

from . import _kernels
from .arith_core import (
    INF,
    Ball,
    MultiPoly,
    rational_residue,
    val_fraction,
    val_int,
)
from .combinatorics import select_divisibility
from .errors import BoundViolation, Budget, ConfigError, PrecisionError


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


def power_compose(f, N, b):
    """The map x |-> f(b * x^N), with no domain: in one variable, the
    preimage of f's domain is the list preimage_balls(f.domain, N, b).
    c x^e becomes c b^e x^(N e); e |-> N e is injective, so no two terms
    meet, and a coordinate with b_i = 1 or e_i = 0 scales nothing."""
    if N < 1:
        raise ConfigError("need N >= 1")
    if isinstance(b, (int, Fraction)):
        b = (b,) * f.m
    b = [Fraction(bi) for bi in b]
    comps = []
    for comp in f.components:
        terms = {}
        for exp, c in comp.terms.items():
            for bi, e in zip(b, exp):
                if e and bi != 1:
                    c = c * bi ** e
            terms[tuple([N * e for e in exp])] = c
        comps.append(MultiPoly(f.m, terms))
    return PolyMap(f.m, f.n, comps, tail_floor=f.tail_floor)


def preimage_balls(base, N, b):
    """The maximal balls of {x in Z_p : b * x^N lies in base}, for a ball
    base in one variable: the residues mod p^j, j = max(alpha + v_p(b_d),
    1) with b = b_n / b_d, that are members, merged."""
    if base.m != 1:
        raise ConfigError("power preimages are supported in one variable")
    p, alpha = base.p, base.alpha
    # the centre is the integer key c, so b*u^N - c = (b_n u^N - c b_d) / b_d,
    # and u is a member when p^(alpha + v_p(b_d)) divides the numerator,
    # which depends on u mod p^(alpha + v_p(b_d)) only: a class mod p^j is
    # a member when its representative is
    b = Fraction(b)
    depth = alpha + val_int(b.denominator, p)
    mod = p ** depth
    const = base.center[0] * b.denominator
    j = max(depth, 1)
    members = {u for u in range(p ** j)
               if (b.numerator * pow(u, N, mod) - const) % mod == 0}
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


# ---------------------------------------------------------------------------
# T_r certification
# ---------------------------------------------------------------------------

PAIR_CAP = 5 * 10**8  # residue pairs a 1-D check sweeps, evaluations a multivariate one makes
ZERO_TABLE_ROWS = 20000  # s = 0: rows of the zero tables a 1-D check sweeps


class TrCertificate:
    def __init__(self, subject, r, domain, verdict, strategy, K, witness=None,
                 provenance="exact"):
        self.subject, self.r, self.domain = subject, r, domain
        # "holds" | "fails"; a check that cannot decide raises
        self.verdict, self.strategy, self.K = verdict, strategy, K
        self.witness, self.provenance = witness, provenance

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
    is the reported modulus exponent, K >= max(s, alpha); the default is
    max(alpha*r + 8, s + 2, alpha + 1).  The check runs at K* = max(s,
    alpha) + 1 for every K, so K sets only the reported K and the rows of
    a 1-D check's s = 0 zero tables, which only an explicit K builds.
    """
    if K is not None and K < 0:
        raise ConfigError(f"need K >= 0, got {K}")
    if r < 1:
        raise ConfigError("need r >= 1")
    ball = domain if domain is not None else f.domain
    if ball is None:
        raise ConfigError("no domain declared and none supplied")
    if not isinstance(ball, Ball):
        raise ConfigError(f"check_Tr needs a Ball domain, got {type(ball).__name__}")
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
    the residues mod p^K*, K* = max(s, alpha) + 1, whatever K is given,
    then the pointwise C^r bound on the Mahler box of y.  Both depend on y
    and x mod p^s only, but for the skipped x = y, so the first failing
    pair mod any p^K, K >= K*, has y = key + p^alpha d, d < P = p^(K* - 1 -
    alpha), and x below that too, or x = y + p^alpha P when the class x = y
    mod p^s fails: both lie among the residues mod p^K*.  The sweep's table holds p^s * g_j(x) mod p^s from
    _scaled and _value, one row per residue x, each distinct x mod p^s with
    its powers formed once; numpy holds only the arrays the sweep is given.
    With s = 0 nothing can fail: no residue is listed, and numpy loads only
    for the zero-stride zero tables of an explicit K."""
    p = ball.p
    if s == 0:
        # up to ZERO_TABLE_ROWS the sweep gets a zero table of shape
        # (p^(K - alpha), deg + 1) at modulus 1, where it returns at once
        # without reading it, so the table is one read-only zero seen
        # through strides (0, 0) (np.broadcast_to makes the same view at
        # several times the cost); p^(K - alpha) >= 2^(K - alpha) exceeds
        # ZERO_TABLE_ROWS for a long exponent, so a huge K never forms the
        # power
        if K is None or K - ball.alpha >= ZERO_TABLE_ROWS.bit_length():
            return None
        n_res = ball.residue_count(K)
        if n_res <= ZERO_TABLE_ROWS:
            for comp in f.components:
                width = (comp.degree() or 0) + 1
                if width > r:
                    import numpy as np

                    zeros = np.ndarray((n_res, width), dtype=np.int64, buffer=bytes(8),
                                       strides=(0, 0))
                    _kernels.tr_pair_sweep(zeros, zeros[:, 0], 1, r)
        return None

    K = max(s, ball.alpha) + 1
    derivs = _derivative_table(f)
    n_res = ball.residue_count(K)
    Budget(PAIR_CAP, f"residue pairs mod p^{K}", "taylor.PAIR_CAP").charge(
        n_res * n_res * sum(len(entries) > r for entries in derivs))

    # every test asks whether p^s divides a scaled value: all runs mod p^s
    mod, period = p ** s, p ** max(s - ball.alpha, 0)
    key, step = ball.center[0], p ** ball.alpha
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
    witness, from a _derivative_table: the exact ord of f(x) -
    sum_{|beta|<r} g_beta(y) (x-y)^beta (f is g_0, the first entry) below
    that of |x-y|^r; or None."""
    if tuple(x) == tuple(y):
        return None
    h = [Fraction(a - b) for a, b in zip(x, y)]
    rhs = r * min(val_fraction(hi, p) for hi in h)
    for ci, entries in enumerate(derivs):
        diff = MultiPoly(len(x), entries[0][1]).eval(x)
        for beta, g in entries:
            if sum(beta) >= r:
                break
            term = MultiPoly(len(y), g).eval(y)
            for hi, b in zip(h, beta):
                term *= hi ** b
            diff -= term
        lhs = val_fraction(diff, p)
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

class Gauss1aReport:
    def __init__(self, n, N, divisibility, balls, certificates):
        self.n, self.N, self.divisibility = n, N, divisibility
        self.balls, self.certificates = balls, certificates

    @property
    def all_hold(self):
        return all(c.holds for c in self.certificates)

    def to_json(self):
        return {"n": self.n, "N": self.N, "v_p(n)": self.divisibility,
                "balls": [{"center": b.center[0], "alpha": b.alpha}
                          for b in self.balls],
                "certificates": [c.to_json() for c in self.certificates],
                "all_hold": self.all_hold}


def verify_gauss1a(g, r, p, i_max, b=1, K=8):
    """Compose the PolyMap g with x -> x^N for the divisibility rule n =
    p^k, k = max(1, ceil(v_p(i_max!)/r)), N = n^r, and run the exhaustive
    T_r check on each maximal ball of {x : x^N in b*(1+nM)}.

    The rule needs g to have C^1-norm at most 1 on b*(1+nM).  For a g with
    p-integral coefficients that is a theorem, as in check_Tr's s = 0 rule:
    every coefficient C(e, beta) a_e of a divided derivative is in Z_p, and
    the ball lies in Z_p.  So g must have p-integral coefficients; a g with
    p in a denominator is refused before anything is composed.
    """
    k = select_divisibility(p, r, i_max)
    n = p ** k
    N = n ** r
    vb = val_fraction(Fraction(b), p)
    if vb < 0 or vb is INF:
        raise ConfigError("b must be a nonzero integral element")
    B = Ball(p, (b,), int(vb) + k + 1)  # an int b is its own key
    if _denominator_exponent(g, p):
        raise ConfigError(f"g has {p} in a coefficient denominator; need {p}-integral coefficients")
    gN = power_compose(g, N, 1)
    balls = preimage_balls(B, N, 1)
    certs = [check_Tr(gN, r, ball, K=K) for ball in balls]
    return Gauss1aReport(n, N, k, balls, certs)

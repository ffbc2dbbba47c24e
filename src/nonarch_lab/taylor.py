"""Exact C^r-norms over balls and the T_r certificate: degree-(r-1)
Taylor approximation with remainder |x-y|^r, verified exhaustively on
residue classes.

Every check reads one table of divided derivatives g_beta = (1/beta!)
d^beta f per component, built once from the terms.  It lists only the
beta below some exponent of the component, the g_beta that are not
identically zero, and beta = 0 always, ordered by (|beta|, beta), so the
C^r entries (|beta| <= r) come first.  For a polynomial f the remainder
f(x) - T_y(x) is sum_{|beta|>=r} g_beta(y) (x-y)^beta.  With s the
p-denominator exponent of the coefficients of f, the C^r half asks only
whether p^s divides p^s * g_beta(y) (|beta| <= r); reduction modulo p^s
is a ring map, so it is decided on the table modulo p^s.  When s = 0
nothing can fail, and neither the table nor the residues are built.

Verdict and witness depend only on s and alpha, not on the precision K:
a check runs on the residues mod p^min(K, K*), K* = max(s, alpha) + 1,
and reports the K it was given.  In one variable the remainder factors
as (x-y)^r * S(x,y) with S = sum_{j>=r} g_j(y) (x-y)^(j-r), and the pair
sweep asks whether p^s * S vanishes modulo p^s on those residue pairs.
In several variables write x = y + p^v u with u primitive: once the C^r
half holds, the bound at (x, y) asks whether sum_{|beta|>r} p^s g_beta(y)
p^(v(|beta|-r)) u^beta vanishes modulo p^s, which depends only on y and
x - y modulo p^s; verdict and witness are found on those classes, and the
remainder columns are built only after the C^r columns pass.  Witness
ords are exact, from the same table.  Every exhaustive verdict is a proof
for all Z_p-points of the ball.
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
    divided_derivative,
    rational_residue,
    val_fraction,
    val_int,
)
from .combinatorics import select_divisibility
from .errors import BoundViolation, CapExceededError, ConfigError, PrecisionError

INF = math.inf


class PolyMap:
    """Polynomial map O^m -> O^n with exact rational coefficients and a
    declared domain.

    Restricted power series are admitted only as truncations with a declared
    tail valuation floor; certificates over such maps carry "up-to-tail"
    provenance.
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

PAIR_CAP = 5 * 10**8  # residue pairs, or classes of pairs, a check may test
ZERO_TABLE_ROWS = 20000  # s = 0: rows of the zero tables a 1-D check sweeps


@dataclass
class ExhaustiveStrategy:
    """Decide T_r on every residue class of the domain: a proof for all
    Z_p-points once K >= s (s the p-denominator exponent of the
    coefficients), with values carried modulo p^s.  The default K is
    alpha*r + 8; `lean` drops it to s + 2.  Past max(s, alpha) + 1, K sets
    only the reported K and the rows of a 1-D check's s = 0 zero tables.
    """

    K: int | None = None
    lean: bool = False

    def __post_init__(self):
        _check_K(self.K)

    def tag(self, p, K):
        return f"exhaustive-mod-{p}^{K}"


@dataclass
class SampledStrategy:
    """Seeded random residue pairs; a falsifier, not a proof.  A run that
    finds no violation is "indeterminate", unless s = 0, where nothing
    can fail and the verdict "holds" is a proof."""

    seed: int = 0
    samples: int = 1000
    K: int | None = None

    def __post_init__(self):
        if self.samples < 1:
            raise ConfigError(f"need samples >= 1, got {self.samples}")
        _check_K(self.K)

    def tag(self, p, K):
        return f"sampled-mod-{p}^{K}-seed-{self.seed}"


def _check_K(K):
    if K is not None and K < 0:
        raise ConfigError(f"need K >= 0, got {K}")


@dataclass
class TrCertificate:
    subject: PolyMap
    r: int
    domain: object
    # "holds" | "fails" | "indeterminate" (a sampled run that found no
    # violation on a map with s > 0); an exhaustive check that cannot
    # decide raises
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


def check_Tr(f, r, strategy=None, domain=None):
    """Certify (or refute, with a witness) the T_r property of f: C^r-norm
    at most 1 on the domain together with |f(x) - T_y(x)| <= |x-y|^r for
    all x, y.

    The exhaustive strategy decides on residue classes; for polynomial f
    the verdict covers every Z_p-point of the domain (not only the
    representatives).  The sampled strategy only refutes: without a
    violation its verdict is "indeterminate" unless s = 0.  Witnesses are
    computed in exact arithmetic.
    """
    if r < 1:
        raise ConfigError("need r >= 1")
    strategy = strategy or ExhaustiveStrategy()
    ball = domain if domain is not None else f.domain
    if ball is None:
        raise ConfigError("no domain declared and none supplied")
    if not isinstance(ball, Ball):
        raise ConfigError(
            f"check_Tr needs a Ball domain, got {type(ball).__name__}; "
            "check each ball of its maximal_balls() instead")
    s = _denominator_exponent(f, ball.p)
    sampled = isinstance(strategy, SampledStrategy)
    if sampled and f.m > 1 and strategy.K is None:
        K = max(ball.alpha * r + 4, s + 2)
    else:
        K = _default_K(strategy, ball, r, s)
    if s == 0 and (sampled or f.m > 1):
        # every divided derivative is p-integral: nothing can fail
        witness = None
    elif sampled:
        witness = _check_tr_sampled(f, r, strategy, ball, K)
    else:
        witness = _check_tr_1d(f, r, ball, K, s) if f.m == 1 else _check_tr_nd(f, r, ball, s)
    if witness is not None:
        verdict = "fails"
    elif sampled and s:
        # samples without a violation prove nothing once something can fail
        verdict = "indeterminate"
    else:
        verdict = "holds"
    return TrCertificate(f, r, ball, verdict, strategy.tag(ball.p, K), K, witness,
                         "up-to-tail" if f.tail_floor is not None else "exact")


def _default_K(strategy, ball, r, s):
    """The modulus exponent K of a check on `ball`.  An explicit K below
    the ball's valuative radius is a configuration error, decided before
    any residue count is taken; one below s cannot conclude."""
    if strategy.K is not None:
        if strategy.K < ball.alpha:
            raise ConfigError(
                f"K={strategy.K} below valuative radius {ball.alpha}")
        if strategy.K < s:
            raise PrecisionError(
                f"K={strategy.K} below divided-derivative denominator exponent {s}")
        return strategy.K
    if getattr(strategy, "lean", False):
        return max(s + 2, ball.alpha + 1)
    return max(ball.alpha * r + 8, s + 2, ball.alpha + 1)


def _check_tr_1d(f, r, ball, K, s):
    """First violation on the residues mod p^min(K, K*), per component:
    the remainder sweep, then the pointwise C^r bound; or None.  Both
    depend on y and x mod p^s only, but for the skipped x = y, so the first
    failure mod p^K has y = key + p^alpha d, d < P = p^(K* - 1 - alpha), and
    x below that too, or x = y + p^alpha P when the class x = y mod p^s
    fails: both lie among the residues mod p^K*.  With s = 0 nothing can
    fail, and no residue or table is built."""
    import numpy as np

    p = ball.p
    if s == 0:
        # up to ZERO_TABLE_ROWS the sweep gets the zero table of shape
        # (p^(K - alpha), deg + 1) at modulus 1, where it returns at once
        n_res = ball.residue_count(K)
        if n_res <= ZERO_TABLE_ROWS:
            for comp in f.components:
                width = (comp.degree() or 0) + 1
                if width > r:
                    zeros = np.zeros((n_res, width), dtype=np.int64)
                    _kernels.tr_pair_sweep(zeros, zeros[:, 0], 1, r)
        return None

    K = min(K, max(s, ball.alpha) + 1)
    derivs = _derivative_table(f)
    n_res = ball.residue_count(K)
    pairs = n_res * n_res * sum(len(entries) > r for entries in derivs)
    if pairs > PAIR_CAP:
        raise CapExceededError(f"{pairs} residue pairs mod p^{K} exceed cap {PAIR_CAP}")

    residues = ball.residue_array(K)[:, 0]
    # every test asks whether p^s divides a scaled value: all runs mod p^s
    mod = p ** s
    xs = _reduce(residues, mod)
    for entries in derivs:
        table = _residue_table(entries, xs[:, None], p, s)

        # remainder sweep first: the factored remainder must stay integral;
        # earlier components passed every pair, so the exact re-check
        # names this one
        if table.shape[1] > r:
            by, bx = _kernels.tr_pair_sweep(table, xs, mod, r)
            if by >= 0:
                x, y = (int(residues[bx]),), (int(residues[by]),)
                return _confirmed(_exact_pair_violation(derivs, r, x, y, p),
                                  f"the pair x = {x[0]}, y = {y[0]}")

        # pointwise C^r bound at the first y with a nonzero scaled value of
        # order <= r; earlier components passed every y, so the exact
        # re-check names this one
        bad = (table[:, :r + 1] != 0).any(axis=1)
        if bad.any():
            y = (int(residues[int(bad.argmax())]),)
            return _confirmed(_exact_point_violation(derivs, r, y, p), f"the point y = {y[0]}")
    return None


def _reduce(residues, mod):
    """A residue array modulo p^s: int64 when int64_safe(p^s), an object
    array of Python ints otherwise, whatever the dtype of the residues."""
    import numpy as np

    if _kernels.int64_safe(mod):
        return (residues % mod).astype(np.int64, copy=False)
    return residues.astype(object) % mod


def _residue_table(entries, points, p, s):
    """table[y, k] = p^s * g(points[y]) modulo p^s for the k-th entry
    (beta, g) of `entries`, a run of one component's _derivative_table (the
    C^r entries, |beta| <= r, or the remainder entries after them), shape
    (R, len(entries)).  points is an (R, m) array of residues mod p^s,
    int64 when int64_safe(p^s) and object otherwise; the table has its
    dtype."""
    import numpy as np

    R, m = points.shape
    table = np.zeros((R, len(entries)), dtype=points.dtype)
    mod = p ** s
    scale = Fraction(mod)
    # powers[i][e] = points[:, i]^e mod p^s up to the top exponent of
    # variable i in the given entries
    powers = []
    for i in range(m):
        col = [np.ones(R, dtype=points.dtype)]
        for _ in range(max((e[i] for _beta, g in entries for e in g), default=0)):
            col.append(col[-1] * points[:, i] % mod)
        powers.append(col)
    for k, (_beta, g) in enumerate(entries):
        val = table[:, k]
        for exp, c in g.items():
            term = np.full(R, rational_residue(c * scale, p, s), dtype=points.dtype)
            for i, e in enumerate(exp):
                if e:
                    term = term * powers[i][e] % mod
            val += term
            val %= mod
    return table


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
        comp = f.components[witness["component"]]
        dd = divided_derivative(comp, tuple(witness["order"]))
        val = val_fraction(dd.eval(_astuple(witness["y"])), p)
        return val < 0
    raise ConfigError(f"unknown witness kind {witness['kind']!r}")


def _astuple(v):
    return tuple(v) if isinstance(v, (tuple, list)) else (v,)


def _check_tr_sampled(f, r, strategy, ball, K):
    """First violation among seeded residue pairs mod p^K, or None."""
    import random

    p = ball.p
    rng = random.Random(strategy.seed)
    derivs = _derivative_table(f)
    width = ball.residue_count(K)
    # choice(seq) is seq[_randbelow(len(seq))], so drawing row indices
    # draws the same residues as choosing from the list of rows
    residues = ball.residue_array(K) if width <= 1 << 16 else None
    rows = range(width)
    for _ in range(strategy.samples):
        if residues is not None:
            x = tuple(residues[rng.choice(rows)].tolist())
            y = tuple(residues[rng.choice(rows)].tolist())
        else:
            x = tuple(c + p ** ball.alpha * rng.randrange(p ** (K - ball.alpha))
                      for c in ball.canonical_center())
            y = tuple(c + p ** ball.alpha * rng.randrange(p ** (K - ball.alpha))
                      for c in ball.canonical_center())
        bad = (_exact_pair_violation(derivs, r, x, y, p)
               or _exact_point_violation(derivs, r, tuple(map(Fraction, y)), p))
        if bad is not None:
            return bad
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
    """First violation of a multivariate map, decided on residue classes
    modulo p^s, or None: the C^r half on y mod p^max(s, alpha) over all
    components first, from the |beta| <= r columns alone, then the
    remainder half on the classes of y and of x - y, whose columns and
    difference weights are built only once the C^r half holds and
    s > alpha.  Whatever K is, the first failing y in ball order is the
    first failing y-class, and so is the first failing x: the class
    x = y mod p^s cannot fail once the C^r half holds."""
    import numpy as np

    p, m, alpha = ball.p, ball.m, ball.alpha
    # with s > alpha there are p^(m(s - alpha)) y-classes and as many
    # difference classes
    n_cls = p ** (m * max(s - alpha, 0))
    if n_cls * n_cls > PAIR_CAP:
        raise CapExceededError(
            f"{n_cls}^2 residue-class pairs mod p^{s} exceed cap {PAIR_CAP}")
    derivs = _derivative_table(f)
    # each component's entries split at `low`: the C^r entries (|beta| <= r)
    # first, the remainder entries after them
    low = [sum(sum(beta) <= r for beta, _g in entries) for entries in derivs]
    mod = p ** s
    ys = ball.residue_array(max(s, alpha))
    points = _reduce(ys, mod)

    bad = np.concatenate([_residue_table(entries[:n], points, p, s)
                          for entries, n in zip(derivs, low)], axis=1) != 0
    if bad.any():
        y = tuple(ys[int(bad.any(axis=1).argmax())].tolist())
        return _confirmed(_exact_point_violation(derivs, r, tuple(map(Fraction, y)), p),
                          f"the point y = {y}")
    if s <= alpha:
        # every |beta| > r term carries p^(v(|beta|-r)) with v >= alpha >= s
        return None

    # differences x - y = p^alpha d, 0 <= d_i < p^(s - alpha), last
    # coordinate fastest
    width = p ** (s - alpha)
    diffs = np.indices((width,) * m).reshape(m, n_cls).T
    tables, weights = [], []
    for entries, n in zip(derivs, low):
        t = _residue_table(entries[n:], points, p, s)
        w = _difference_weights(entries[n:], r, diffs, p, s, alpha)
        # a term whose column or weight row is 0 mod p^s adds nothing
        keep = (t != 0).any(axis=0) & (w != 0).any(axis=1)
        tables.append(t[:, keep])
        weights.append(w[keep])

    # an int64 sum takes `per` products before a reduction, the largest
    # count with (mod - 1) + per (mod - 1)^2 < 2^63; Python ints take one
    per = (1 if points.dtype == object
           else (_kernels.INT64_MAX - (mod - 1)) // (mod - 1) ** 2)

    def remainder_bad(y0, y1):
        """bad[y, j]: the bound fails at (y, y + p^alpha diffs[j]) for some
        component, y over the y-classes y0..y1-1."""
        bad = np.zeros((y1 - y0, n_cls), dtype=bool)
        for t, w in zip(tables, weights):
            val = np.zeros((y1 - y0, n_cls), dtype=t.dtype)
            for k0 in range(0, len(w), per):
                for k in range(k0, min(k0 + per, len(w))):
                    val += t[y0:y1, k, None] * w[k]
                val %= mod
            bad |= val != 0
        return bad

    rows = max(1, _kernels.SWEEP_BLOCK // n_cls)
    for y0 in range(0, len(ys), rows):
        bad = remainder_bad(y0, min(y0 + rows, len(ys)))
        if bad.any():
            yi = y0 + int(bad.any(axis=1).argmax())
            break
    else:
        return None

    # the first x in ball order whose difference class fails at y; the
    # digits of ys[k] are diffs[k], so its class is diffs[k] - diffs[yi]
    j = np.ravel_multi_index(((diffs - diffs[yi]) % width).T, (width,) * m)
    xi = int(remainder_bad(yi, yi + 1)[0][j].argmax())
    x, y = tuple(ys[xi].tolist()), tuple(ys[yi].tolist())
    return _confirmed(_exact_pair_violation(derivs, r, x, y, p), f"the pair x = {x}, y = {y}")


def _difference_weights(high, r, diffs, p, s, alpha):
    """w[k, j] = p^(v(|beta|-r)) u^beta mod p^s for the k-th entry (beta, g)
    of `high` (those with |beta| > r) and h_j = p^alpha diffs[j] = p^v u,
    u primitive; 0 for h_j = 0.  Once the C^r half holds, sum_k p^s
    g_beta(y) w[k, j] is p^s (f(y + h_j) - T_y(y + h_j)) / p^(rv) mod p^s,
    zero exactly when the bound holds at (y, y + h_j)."""
    import numpy as np

    mod = p ** s
    dtype = np.int64 if _kernels.int64_safe(mod) else object
    rel = np.zeros(len(diffs), dtype=np.int64)  # v - alpha where d != 0
    for e in range(1, s - alpha):
        rel[(diffs % p ** e == 0).all(axis=1)] = e
    u = (diffs // (p ** rel)[:, None]).astype(dtype)
    v = alpha + rel
    pw = np.array([p ** e % mod for e in range(s + 1)], dtype=dtype)
    w = np.zeros((len(high), len(diffs)), dtype=dtype)
    for k, (beta, _g) in enumerate(high):
        col = pw[np.minimum(v * (sum(beta) - r), s)] * diffs.any(axis=1)
        for i, b in enumerate(beta):
            for _ in range(b):
                col = col * u[:, i] % mod
        w[k] = col
    return w


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
    certs = [check_Tr(gN, r, ExhaustiveStrategy(K=K), ball) for ball in balls]
    return Gauss1aReport(n, N, k, balls, certs)

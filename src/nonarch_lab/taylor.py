"""Taylor polynomials, exact C^r-norms via Gauss norms, and the T_r
certificate: degree-(r-1) Taylor approximation with remainder |x-y|^r,
verified exhaustively on residue classes.

Every check reads one table of divided derivatives g_beta = (1/beta!)
d^beta f per component, built once from the terms.  For a polynomial f
the remainder f(x) - T_y(x) is sum_{|beta|>=r} g_beta(y) (x-y)^beta; in
one variable it factors as (x-y)^r * S(x,y) with S(x,y) = sum_{j>=r}
g_j(y) (x-y)^(j-r), so the remainder half of T_r is the integrality of S.
With s the p-denominator exponent of the divided derivatives, the C^r
half asks only whether p^s divides p^s * g_beta(y) (|beta| <= r), in any
dimension, and in one variable the remainder half asks the same of
p^s * S(x,y); reduction modulo p^s is a ring map, so these are decided on
one residue table modulo p^s, and an exhaustive sweep over residues mod
p^K is a proof for all Z_p-points once K >= s (K only sets the number of
residues).  When s = 0 nothing can fail.  The univariate remainder sweep
runs on the int64 kernels; the multivariate remainder is checked pair by
pair in exact rationals.  Failures are re-checked in exact rational
arithmetic and reported as witnesses.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import _kernels
from .arith_core import (
    Ball,
    MultiPoly,
    divided_derivative,
    gauss_valuation,
    rational_residue,
    val_fraction,
    val_int,
)
from .combinatorics import select_divisibility
from .errors import CapExceededError, ConfigError, PrecisionError

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


class TaylorPolynomial:
    """Divided-derivative Taylor data of a map at a base point."""

    __slots__ = ("base", "order", "coeffs", "m")

    def __init__(self, base, order, coeffs, m):
        self.base = tuple(Fraction(b) for b in base)
        self.order = order  # degree bound is order-1
        self.coeffs = coeffs  # tuple (per component) of dicts alpha -> Fraction
        self.m = m

    def eval(self, point):
        point = tuple(Fraction(x) for x in point)
        h = tuple(x - b for x, b in zip(point, self.base))
        out = []
        for comp in self.coeffs:
            acc = Fraction(0)
            for alpha, c in comp.items():
                if sum(alpha) >= self.order:
                    continue
                t = c
                for hi, a in zip(h, alpha):
                    t *= hi ** a
                acc += t
            out.append(acc)
        return tuple(out)


def taylor_poly(f, y, r):
    """Exact Taylor data of f at y: coefficients are the divided
    derivatives (1/alpha!) d^alpha f(y), obtained by basis shift."""
    if r < 1:
        raise ConfigError("need r >= 1")
    y = tuple(Fraction(c) for c in y)
    coeffs = []
    for comp in f.components:
        shifted = _shift(comp, y)
        coeffs.append(dict(shifted.terms))
    return TaylorPolynomial(y, r, tuple(coeffs), f.m)


def _shift(poly, y):
    """Coefficients of poly(y + h) as a polynomial in h."""
    args = [MultiPoly(poly.nvars, {(0,) * poly.nvars: Fraction(y[i]),
                                   _unit(poly.nvars, i): Fraction(1)})
            for i in range(poly.nvars)]
    return poly.substitute(args)


def _unit(n, i):
    e = [0] * n
    e[i] = 1
    return tuple(e)


def _ball_gauss_valuation(g, ball):
    """Gauss valuation of g(c + p^alpha * z) as a polynomial in z, for a
    coefficient dict g (exact)."""
    p, a, nv = ball.p, ball.alpha, ball.m
    args = [MultiPoly(nv, {(0,) * nv: ball.center[i], _unit(nv, i): Fraction(p) ** a})
            for i in range(nv)]
    return gauss_valuation(MultiPoly(nv, g).substitute(args), p)


def cr_norm(f, r, ball):
    """Valuation of the C^r-norm of f over the ball: recenter at the ball
    center, scale by p^alpha, and take the min coefficient valuation over
    all divided derivatives of order <= r.  Larger is smaller norm."""
    best = INF
    for entries in _derivative_table(f):
        for beta, g in entries:
            if sum(beta) > r:
                break
            if g:
                best = min(best, _ball_gauss_valuation(g, ball))
    return best


def _multi_indices(m, up_to):
    for total in range(up_to + 1):
        for combo in _compositions(total, m):
            yield combo


def _compositions(total, m):
    if m == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, m - 1):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# T_r certification
# ---------------------------------------------------------------------------

@dataclass
class ExhaustiveStrategy:
    """Check every residue pair of the domain modulo p^K.

    For polynomial maps this is a proof for all Z_p-points of the domain:
    with s the p-denominator exponent of the divided derivatives and
    K >= s, every verdict is conclusive for the whole residue class.  In
    one variable the values are carried modulo p^s, not p^(K+s): K only
    sets the number of residues swept.  The default K is alpha*r + 8;
    `lean` drops it to the minimal conclusive s + 2, which keeps residue
    counts small when certificates are only a stepping stone (determinant
    runs).
    """

    K: int | None = None
    residue_cap: int = 20000
    pair_cap: int = 5 * 10**8
    lean: bool = False

    def __post_init__(self):
        _check_K(self.K)

    def tag(self, p, K):
        return f"exhaustive-mod-{p}^{K}"


@dataclass
class SampledStrategy:
    """Seeded random residue pairs; a falsifier, not a proof."""

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
    verdict: str  # "holds" | "fails"; a check that cannot decide raises
    strategy: str
    K: int
    witness: dict | None = None
    provenance: str = "exact"
    detail: dict = field(default_factory=dict)

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
    """Per component, the divided derivatives (beta, g_beta) for |beta| up
    to the component's degree, in _multi_indices order; each g_beta is a
    dict exponent -> coefficient.  One pass over the terms: c x^e adds
    C(e, beta) c x^(e - beta) to g_beta for every beta <= e, and distinct
    terms give distinct exponents."""
    table = []
    for comp in f.components:
        derivs = {beta: {} for beta in _multi_indices(f.m, comp.degree() or 0)}
        for exp, c in comp.terms.items():
            for beta in itertools.product(*[range(e + 1) for e in exp]):
                coef = c
                for e, b in zip(exp, beta):
                    if 0 < b < e:
                        coef = coef * math.comb(e, b)
                derivs[beta][tuple([e - b for e, b in zip(exp, beta)])] = coef
        table.append(list(derivs.items()))
    return table


def _denominator_exponent(derivs, p):
    """s, the largest exponent of p in a denominator of the divided
    derivatives.  Integer binomials only cancel denominators, so it is
    read off the order-0 entries, the coefficients themselves."""
    return max((val_int(c.denominator, p) for entries in derivs
                for c in entries[0][1].values()), default=0)


def check_Tr(f, r, strategy=None, domain=None):
    """Certify (or refute, with a witness) the T_r property of f: C^r-norm
    at most 1 on the domain together with |f(x) - T_y(x)| <= |x-y|^r for
    all x, y.

    The exhaustive strategy enumerates residues mod p^K; for polynomial f
    the verdict then covers every Z_p-point of the domain (not only the
    representatives).  Witnesses are re-checked in exact arithmetic.
    """
    if r < 1:
        raise ConfigError("need r >= 1")
    strategy = strategy or ExhaustiveStrategy()
    domain = domain if domain is not None else f.domain
    if domain is None:
        raise ConfigError("no domain declared and none supplied")
    if isinstance(domain, PowerPreimage):
        balls = domain.maximal_balls()
        if not balls:
            raise ConfigError("empty domain")
        certs = [check_Tr(f, r, strategy, ball) for ball in balls]
        verdict = "holds"
        witness = None
        for c in certs:
            if c.verdict == "fails":
                verdict, witness = "fails", c.witness
                break
        return TrCertificate(f, r, domain, verdict, certs[0].strategy,
                             certs[0].K, witness,
                             certs[0].provenance,
                             detail={"balls": len(balls)})
    ball = domain
    p = ball.p

    if f.m == 1:
        return _check_tr_1d(f, r, strategy, ball)
    return _check_tr_nd(f, r, strategy, ball)


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


def _check_tr_1d(f, r, strategy, ball):
    p = ball.p
    provenance = "up-to-tail" if f.tail_floor is not None else "exact"

    derivs = _derivative_table(f)
    s = _denominator_exponent(derivs, p)
    K = _default_K(strategy, ball, r, s)

    if isinstance(strategy, SampledStrategy):
        return _check_tr_sampled(f, r, strategy, ball, K, derivs)

    n_res = ball.residue_count(K)
    if n_res > strategy.residue_cap:
        raise CapExceededError(
            f"{n_res} residues exceed cap {strategy.residue_cap}")
    if n_res * n_res * len(f.components) > strategy.pair_cap:
        raise CapExceededError("pair sweep exceeds cap")

    residues = ball.residue_array(K)[:, 0]
    tag = strategy.tag(p, K)

    # every test below asks whether p^s divides a scaled value, so the
    # whole check runs modulo p^s; K only sets the number of residues
    mod = p ** s
    xs = _reduce(residues, mod)

    for comp_idx, entries in enumerate(derivs):
        table = _residue_table(entries, xs[:, None], p, s)

        # remainder sweep first: the factored remainder must stay integral
        if len(entries) > r:
            by, bx = _kernels.tr_pair_sweep(table, xs, mod, r)
            if by >= 0:
                witness = _remainder_witness(f, r, comp_idx, (int(residues[bx]),),
                                             (int(residues[by]),), p)
                return TrCertificate(f, r, ball, "fails", tag, K, witness,
                                     provenance)

        # pointwise C^r bound: the first (y, j <= r) whose scaled value is
        # nonzero mod p^s; its exact valuation goes into the witness
        bad = table[:, :r + 1] != 0
        if bad.any():
            yi, j = divmod(int(bad.argmax()), bad.shape[1])
            beta, g = entries[j]
            y = (int(residues[yi]),)
            v = val_fraction(MultiPoly(1, g).eval(y), p)
            return TrCertificate(f, r, ball, "fails", tag, K,
                                 _cr_witness(comp_idx, beta, y, v), provenance)

    return TrCertificate(f, r, ball, "holds", tag, K, None, provenance)


def _reduce(residues, mod):
    """A residue array modulo p^s: int64 when int64_safe(p^s), an object
    array of Python ints otherwise, whatever the dtype of the residues."""
    if _kernels.int64_safe(mod):
        return (residues % mod).astype(np.int64, copy=False)
    return residues.astype(object) % mod


def _residue_table(entries, points, p, s):
    """table[y, k] = p^s * g(points[y]) modulo p^s for the k-th entry
    (beta, g) of one component of a _derivative_table, shape (R, len(entries)).
    points is an (R, m) array of residues mod p^s, int64 when
    int64_safe(p^s) and object otherwise; the table has its dtype.  All
    zeros when s = 0."""
    R, m = points.shape
    table = np.zeros((R, len(entries)), dtype=points.dtype)
    if s == 0:
        return table
    mod = p ** s
    scale = Fraction(mod)
    # powers[i][e] = points[:, i]^e mod p^s up to the top exponent of g_0,
    # which bounds the exponents of every g_beta
    powers = []
    for i in range(m):
        col = [np.ones(R, dtype=points.dtype)]
        for _ in range(max((e[i] for e in entries[0][1]), default=0)):
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


def _cr_witness(comp_idx, beta, y, valuation):
    return {
        "kind": "cr_norm",
        "component": comp_idx,
        "order": beta,
        "y": y[0] if len(y) == 1 else y,
        "valuation": valuation,
    }


def _remainder_witness(f, r, comp_idx, x, y, p):
    lhs, rhs = _remainder_ords(f, r, comp_idx, x, y, p)
    return {
        "kind": "remainder",
        "component": comp_idx,
        "x": x[0] if len(x) == 1 else x,
        "y": y[0] if len(y) == 1 else y,
        "ord_lhs": lhs,
        "bound_rhs": rhs,
    }


def _remainder_ords(f, r, comp_idx, x, y, p):
    """Exact ord of f(x) - T_y(x) and of |x-y|^r, for the witness record."""
    x = tuple(Fraction(c) for c in x)
    y = tuple(Fraction(c) for c in y)
    tp = taylor_poly(f, y, r)
    fx = f.components[comp_idx].eval(x)
    tx = tp.eval(x)[comp_idx]
    lhs = val_fraction(fx - tx, p)
    v = min(val_fraction(a - b, p) for a, b in zip(x, y))
    return lhs, r * v


def recheck_witness(f, r, witness, p):
    """Re-verify a failure witness in exact rational arithmetic."""
    if witness["kind"] == "remainder":
        lhs, rhs = _remainder_ords(f, r, witness["component"],
                                   _astuple(witness["x"]), _astuple(witness["y"]), p)
        return lhs < rhs
    if witness["kind"] == "cr_norm":
        comp = f.components[witness["component"]]
        dd = divided_derivative(comp, tuple(witness["order"]))
        val = val_fraction(dd.eval(_astuple(witness["y"])), p)
        return val < 0
    raise ConfigError(f"unknown witness kind {witness['kind']!r}")


def _astuple(v):
    return tuple(v) if isinstance(v, (tuple, list)) else (v,)


def _check_tr_sampled(f, r, strategy, ball, K, derivs):
    import random

    p = ball.p
    rng = random.Random(strategy.seed)
    provenance = "up-to-tail" if f.tail_floor is not None else "exact"
    tag = strategy.tag(p, K)
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
        bad = _exact_pair_violation(f, r, x, y, p)
        if bad is not None:
            return TrCertificate(f, r, ball, "fails", tag, K, bad, provenance)
        bad = _exact_point_violation(derivs, r, y, p)
        if bad is not None:
            return TrCertificate(f, r, ball, "fails", tag, K, bad, provenance)
    return TrCertificate(f, r, ball, "holds", tag, K, None, provenance)


def _exact_pair_violation(f, r, x, y, p):
    if tuple(x) == tuple(y):
        return None
    for ci in range(f.n):
        lhs, rhs = _remainder_ords(f, r, ci, x, y, p)
        if lhs < rhs:
            return _remainder_witness(f, r, ci, x, y, p)
    return None


def _exact_point_violation(derivs, r, y, p):
    """First order-<=r divided derivative of negative valuation at y, in
    (component, beta) order, from a _derivative_table, as a witness."""
    y = tuple(Fraction(c) for c in y)
    for ci, entries in enumerate(derivs):
        for beta, g in entries:
            if sum(beta) > r:
                break
            v = val_fraction(MultiPoly(len(y), g).eval(y), p)
            if v < 0:
                return _cr_witness(ci, beta, y, v)
    return None


def _check_tr_nd(f, r, strategy, ball):
    """Multivariate exhaustive check: s = 0 holds by the Gauss all-orders
    criterion before any residue is built; otherwise the residue array
    mod p^K feeds the C^r half on the residue table modulo p^s, then an
    exact rational sweep over residue pairs for the remainder."""
    p = ball.p
    provenance = "up-to-tail" if f.tail_floor is not None else "exact"
    derivs = _derivative_table(f)
    s = _denominator_exponent(derivs, p)
    if isinstance(strategy, SampledStrategy):
        K = (max(ball.alpha * r + 4, s + 2) if strategy.K is None
             else _default_K(strategy, ball, r, s))
        return _check_tr_sampled(f, r, strategy, ball, K, derivs)

    K = _default_K(strategy, ball, r, s)
    tag = strategy.tag(p, K)
    n_res = ball.residue_count(K)
    if n_res > strategy.residue_cap:
        raise CapExceededError(f"{n_res} residues exceed cap")

    # all-orders Gauss criterion: with s = 0 every divided derivative has
    # p-integral coefficients, so each has Gauss valuation >= 0 on every
    # ball of Z_p^m; with s > 0 some term c x^e has ord(c) < 0 and g_e is
    # the constant c, so the criterion holds exactly when s = 0
    if s == 0:
        return TrCertificate(f, r, ball, "holds", tag, K, None, provenance,
                             detail={"remainder": "gauss-all-orders"})

    # pointwise C^r bound: the first (y, component, beta) whose scaled
    # value is nonzero mod p^s; the witness is rebuilt exactly at that y
    mod = p ** s
    res = ball.residue_array(K)
    points = _reduce(res, mod)
    bad = np.concatenate(
        [_residue_table([(beta, g) for beta, g in entries if sum(beta) <= r],
                        points, p, s) for entries in derivs], axis=1) != 0
    if bad.any():
        y = tuple(res[int(bad.any(axis=1).argmax())].tolist())
        return TrCertificate(f, r, ball, "fails", tag, K,
                             _exact_point_violation(derivs, r, y, p), provenance)

    if n_res * n_res > strategy.pair_cap:
        raise CapExceededError("pair sweep exceeds cap")
    residues = list(map(tuple, res.tolist()))
    for y in residues:
        for x in residues:
            bad = _exact_pair_violation(f, r, x, y, p)
            if bad is not None:
                return TrCertificate(f, r, ball, "fails", tag, K, bad, provenance)
    return TrCertificate(f, r, ball, "holds", tag, K, None, provenance)


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


def verify_gauss1a(g, r, p, i_max, b=1, K=8, residue_cap=20000):
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
    certs = [check_Tr(gN, r, ExhaustiveStrategy(K=K, residue_cap=residue_cap),
                      ball) for ball in balls]
    return Gauss1aReport(n, N, k, balls, certs)

"""Taylor polynomials, exact C^r-norms via Gauss norms, and the T_r
certificate: degree-(r-1) Taylor approximation with remainder |x-y|^r,
verified exhaustively on residue classes.

For a polynomial f the remainder f(x) - T_y(x) factors exactly as
(x-y)^r * S(x,y) with S(x,y) = sum_{j>=r} g_j(y) (x-y)^(j-r), where g_j is
the j-th divided derivative.  The remainder half of T_r is therefore the
integrality of S, which is decidable on residues.  With s the
p-denominator exponent of the divided derivatives, both halves ask only
whether p^s divides p^s * g_j(y) (j <= r) and p^s * S(x,y); reduction
modulo p^s is a ring map, so the univariate check is decided entirely
modulo p^s, and an exhaustive sweep over residues mod p^K is a proof for
all Z_p-points once K >= s (K only sets the number of residues).  When
s = 0 nothing can fail.  The sweep runs on the int64 kernels; failures are
re-checked in exact rational arithmetic and reported as witnesses.
"""

from __future__ import annotations

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
        # representative: b*x^N - b*u^N is divisible by p^j on the class
        members = set()
        c = self.base.center[0]
        b = self.b[0]
        for u in range(p ** j):
            if val_fraction(b * Fraction(u) ** self.N - c, p) >= alpha:
                members.add(u)
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


def _shift_scale(poly, ball):
    """poly(c + p^alpha * z) as a polynomial in z (exact)."""
    p, a = ball.p, ball.alpha
    nv = poly.nvars
    args = [MultiPoly(nv, {(0,) * nv: Fraction(ball.center[i]),
                           _unit(nv, i): Fraction(p) ** a})
            for i in range(nv)]
    return poly.substitute(args)


def cr_norm(f, r, ball):
    """Valuation of the C^r-norm of f over the ball: recenter at the ball
    center, scale by p^alpha, and take the min coefficient valuation over
    all divided derivatives of order <= r.  Larger is smaller norm."""
    p = ball.p
    best = INF
    for comp in f.components:
        for beta in _multi_indices(f.m, r):
            dd = divided_derivative(comp, beta)
            if dd.is_zero():
                continue
            best = min(best, gauss_valuation(_shift_scale(dd, ball), p))
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

    def tag(self, p, K):
        return f"sampled-mod-{p}^{K}-seed-{self.seed}"


@dataclass
class TrCertificate:
    subject: PolyMap
    r: int
    domain: object
    verdict: str  # "holds" | "fails" | "indeterminate"
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


def _dense_univariate(poly):
    deg = poly.degree()
    if deg is None:
        return [Fraction(0)]
    out = [Fraction(0)] * (deg + 1)
    for exp, c in poly.terms.items():
        out[exp[0]] = c
    return out


def _divided_lists(coeffs):
    """g_j[i] = C(i+j, j) * c_{i+j}: coefficient lists of all divided
    derivatives of a univariate polynomial."""
    D = len(coeffs) - 1
    lists = []
    for j in range(D + 1):
        lists.append([math.comb(i + j, j) * coeffs[i + j] for i in range(D - j + 1)])
    return lists


def _denominator_exponent(lists, p):
    s = 0
    for gj in lists:
        for c in gj:
            if c:
                s = max(s, -min(0, val_fraction(c, p)))
    return int(s)


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
            if c.verdict == "indeterminate":
                verdict = "indeterminate"
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
    if strategy.K is not None:
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

    all_lists = []
    s = 0
    for comp in f.components:
        lists = _divided_lists(_dense_univariate(comp))
        all_lists.append(lists)
        s = max(s, _denominator_exponent(lists, p))

    K = _default_K(strategy, ball, r, s)

    if isinstance(strategy, SampledStrategy):
        return _check_tr_sampled(f, r, strategy, ball, K)

    n_res = ball.residue_count(K)
    if n_res > strategy.residue_cap:
        raise CapExceededError(
            f"{n_res} residues exceed cap {strategy.residue_cap}")
    if n_res * n_res * len(f.components) > strategy.pair_cap:
        raise CapExceededError("pair sweep exceeds cap")

    xs_list = [x[0] for x in ball.residues(K)]
    tag = strategy.tag(p, K)

    # every test below asks whether p^s divides a scaled value, so the
    # whole check runs modulo p^s; K only sets the number of residues
    mod = p ** s
    dtype = np.int64 if _kernels.int64_safe(mod) else object
    xs = np.array([x % mod for x in xs_list], dtype=dtype)

    for comp_idx, lists in enumerate(all_lists):
        J = len(lists)
        table = _residue_table(lists, xs, p, s)

        # remainder sweep first: the factored remainder must stay integral
        if J > r:
            by, bx = _kernels.tr_pair_sweep(table, xs, mod, r)
            if by >= 0:
                witness = _remainder_witness(f, r, comp_idx,
                                             (xs_list[bx],), (xs_list[by],), p)
                return TrCertificate(f, r, ball, "fails", tag, K, witness,
                                     provenance)

        # pointwise C^r bound: the first (y, j <= r) whose scaled value is
        # nonzero mod p^s; its exact valuation goes into the witness
        bad = table[:, :r + 1] != 0
        if bad.any():
            yi, j = divmod(int(bad.argmax()), bad.shape[1])
            x = xs_list[yi]
            v = val_fraction(sum(c * Fraction(x) ** i
                                 for i, c in enumerate(lists[j])), p)
            witness = _cr_witness(f, comp_idx, j, (x,), p, v)
            return TrCertificate(f, r, ball, "fails", tag, K, witness,
                                 provenance)

    return TrCertificate(f, r, ball, "holds", tag, K, None, provenance)


def _residue_table(lists, xs, p, s):
    """table[y, j] = p^s * g_j(xs[y]) modulo p^s, shape (R, J), in the
    dtype of xs; all zeros when s = 0."""
    R, J = len(xs), len(lists)
    table = np.zeros((R, J), dtype=xs.dtype)
    if s == 0:
        return table
    mod = p ** s
    scale = Fraction(p) ** s
    for j, gj in enumerate(lists):
        cs = [rational_residue(c * scale, p, s) for c in reversed(gj)]
        table[:, j] = _kernels.horner_values(cs, xs, mod)
    return table


def _cr_witness(f, comp_idx, order, y, p, valuation):
    beta = (order,) if f.m == 1 else order
    return {
        "kind": "cr_norm",
        "component": comp_idx,
        "order": beta if isinstance(beta, tuple) else (beta,),
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


def _check_tr_sampled(f, r, strategy, ball, K):
    import random

    p = ball.p
    rng = random.Random(strategy.seed)
    provenance = "up-to-tail" if f.tail_floor is not None else "exact"
    tag = strategy.tag(p, K)
    width = ball.residue_count(K)
    xs = list(ball.residues(K)) if width <= 1 << 16 else None
    derivs = _derivative_table(f, r)
    for _ in range(strategy.samples):
        if xs is not None:
            x = rng.choice(xs)
            y = rng.choice(xs)
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


def _derivative_table(f, order):
    """Per component, the divided derivatives (beta, dd) for |beta| <= order,
    in _multi_indices order; computed once per check."""
    return [[(beta, divided_derivative(comp, beta))
             for beta in _multi_indices(f.m, order)]
            for comp in f.components]


def _exact_point_violation(derivs, r, y, p):
    """First order-<=r divided derivative of negative valuation at y, from a
    _derivative_table of order >= r."""
    y = tuple(Fraction(c) for c in y)
    for ci, table in enumerate(derivs):
        for beta, dd in table:
            if sum(beta) > r:
                break
            v = val_fraction(dd.eval(y), p)
            if v < 0:
                return {"kind": "cr_norm", "component": ci, "order": beta,
                        "y": y[0] if len(y) == 1 else y, "valuation": v}
    return None


def _check_tr_nd(f, r, strategy, ball):
    """Multivariate exhaustive check: exact rational sweeps (small domains),
    with the all-orders Gauss criterion as the remainder certificate when
    the pair budget is tight."""
    p = ball.p
    provenance = "up-to-tail" if f.tail_floor is not None else "exact"
    if isinstance(strategy, SampledStrategy):
        K = strategy.K if strategy.K is not None else ball.alpha * r + 4
        return _check_tr_sampled(f, r, strategy, ball, K)

    deg = f.degree()
    derivs = _derivative_table(f, max(r, deg))
    s = 0
    for table in derivs:
        for _beta, dd in table:
            for c in dd.terms.values():
                s = max(s, -min(0, val_fraction(c, p)))
    K = _default_K(strategy, ball, r, s)
    tag = strategy.tag(p, K)
    n_res = ball.residue_count(K)
    if n_res > strategy.residue_cap:
        raise CapExceededError(f"{n_res} residues exceed cap")

    residues = list(ball.residues(K))
    for y in residues:
        bad = _exact_point_violation(derivs, r, y, p)
        if bad is not None:
            return TrCertificate(f, r, ball, "fails", tag, K, bad, provenance)

    # all-orders Gauss criterion proves the remainder bound outright
    gauss_ok = all(
        gauss_valuation(_shift_scale(dd, ball), p) >= 0
        for table in derivs for _beta, dd in table if not dd.is_zero())
    if gauss_ok:
        return TrCertificate(f, r, ball, "holds", tag, K, None, provenance,
                             detail={"remainder": "gauss-all-orders"})

    if n_res * n_res > strategy.pair_cap:
        raise CapExceededError("pair sweep exceeds cap")
    for y in residues:
        for x in residues:
            bad = _exact_pair_violation(f, r, x, y, p)
            if bad is not None:
                return TrCertificate(f, r, ball, "fails", tag, K, bad, provenance)
        # pairs hiding inside one residue class need the higher orders to
        # carry margin -(|beta|-r)*K
        yf = tuple(Fraction(c) for c in y)
        for table in derivs:
            for beta, dd in table:
                if sum(beta) <= r:
                    continue
                v = val_fraction(dd.eval(yf), p)
                if v < -(sum(beta) - r) * K:
                    return TrCertificate(
                        f, r, ball, "indeterminate", tag, K,
                        {"kind": "precision", "order": beta, "y": y}, provenance)
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
        poly = g.components[0]
    else:
        poly = g
    coeffs = _dense_univariate(poly)
    # sup over the associated set of |g| equals max_i |c_i a^i|
    hyp = min((val_fraction(c, p) + i * a_val
               for i, c in enumerate(coeffs) if c), default=INF)
    if hyp < lam_val:
        raise ConfigError(
            f"hypothesis |g| <= |lambda| not certifiable: Gauss valuation "
            f"{hyp} < {lam_val}")
    lists = _divided_lists(coeffs)
    entries = []
    ok = True
    for i in range(1, len(coeffs)):
        lhs = min((val_fraction(c, p) + j * a_val
                   for j, c in enumerate(lists[i]) if c), default=INF)
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

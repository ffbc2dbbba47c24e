"""Exact C^r-norms over balls and the T_r certificate: degree-(r-1)
Taylor approximation with remainder |x-y|^r, verified exhaustively on
residue classes.

Every check reads one table of divided derivatives g_beta = (1/beta!)
d^beta f per component, built once from the terms.  For a polynomial f
the remainder f(x) - T_y(x) is sum_{|beta|>=r} g_beta(y) (x-y)^beta.
With s the p-denominator exponent of the coefficients of f, the C^r half
asks only whether p^s divides p^s * g_beta(y) (|beta| <= r); reduction
modulo p^s is a ring map, so it is decided on the table modulo p^s.
When s = 0 nothing can fail and the table is not built.

In one variable the remainder factors as (x-y)^r * S(x,y) with
S = sum_{j>=r} g_j(y) (x-y)^(j-r), and the pair sweep asks whether
p^s * S vanishes modulo p^s on every residue pair mod p^K.  In several
variables write x = y + p^v u with u primitive: once the C^r half holds,
the bound at (x, y) asks whether sum_{|beta|>r} p^s g_beta(y)
p^(v(|beta|-r)) u^beta vanishes modulo p^s, which depends only on y and
x - y modulo p^s; the verdict is decided on those classes, and only a
failure lists the residues mod p^K, to name the first failing pair.
Witness ords are exact, from the same table.  Every exhaustive verdict
with K >= s is a proof for all Z_p-points of the ball.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
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

RESIDUE_CAP = 20000  # residues mod p^K an exhaustive check may list
PAIR_CAP = 5 * 10**8  # residue pairs, or classes of pairs, it may test


@dataclass
class ExhaustiveStrategy:
    """Decide T_r on every residue class of the domain: a proof for all
    Z_p-points once K >= s (s the p-denominator exponent of the
    coefficients), with values carried modulo p^s.  In one variable the
    remainder sweep runs over the residue pairs mod p^K.  In several
    variables the verdict is taken on classes modulo p^s whatever K is,
    and only a failure lists the residues mod p^K, to find its witness.
    The default K is alpha*r + 8; `lean` drops it to the minimal
    conclusive s + 2, which keeps residue counts small when certificates
    are only a stepping stone (determinant runs).
    """

    K: int | None = None
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
    representatives).  Witnesses are computed in exact arithmetic.
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
        witness = (_check_tr_1d if f.m == 1 else _check_tr_nd)(f, r, ball, K, s)
    return TrCertificate(f, r, ball, "holds" if witness is None else "fails",
                         strategy.tag(ball.p, K), K, witness,
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
    """First violation on the residues mod p^K, per component: the
    remainder sweep, then the pointwise C^r bound; or None."""
    import numpy as np

    p = ball.p
    n_res = ball.residue_count(K)
    if n_res > RESIDUE_CAP:
        raise CapExceededError(f"{n_res} residues exceed cap {RESIDUE_CAP}")
    if n_res * n_res * len(f.components) > PAIR_CAP:
        raise CapExceededError("pair sweep exceeds cap")

    residues = ball.residue_array(K)[:, 0]
    # every test below asks whether p^s divides a scaled value, so the
    # whole check runs modulo p^s; K only sets the number of residues
    mod = p ** s
    xs = _reduce(residues, mod)

    derivs = _derivative_table(f) if s else None
    for comp_idx, comp in enumerate(f.components):
        if s == 0:
            # nothing can fail: the sweep returns at once at modulus 1, on
            # a zero table of the shape (R, deg + 1) a real one would have
            table = np.zeros((len(xs), (comp.degree() or 0) + 1), dtype=xs.dtype)
        else:
            entries = derivs[comp_idx]
            table = _residue_table(entries, xs[:, None], p, s)

        # remainder sweep first: the factored remainder must stay integral;
        # earlier components passed every pair, so the exact re-check
        # names this one
        if table.shape[1] > r:
            by, bx = _kernels.tr_pair_sweep(table, xs, mod, r)
            if by >= 0:
                return _exact_pair_violation(derivs, r, (int(residues[bx]),),
                                             (int(residues[by]),), p)

        # pointwise C^r bound: the first (y, j <= r) whose scaled value is
        # nonzero mod p^s; its exact valuation goes into the witness
        bad = table[:, :r + 1] != 0
        if bad.any():
            yi, j = divmod(int(bad.argmax()), bad.shape[1])
            beta, g = entries[j]
            y = (int(residues[yi]),)
            return _cr_witness(comp_idx, beta, y,
                               val_fraction(MultiPoly(1, g).eval(y), p))
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
    (beta, g) of one component of a _derivative_table, shape (R, len(entries)).
    points is an (R, m) array of residues mod p^s, int64 when
    int64_safe(p^s) and object otherwise; the table has its dtype."""
    import numpy as np

    R, m = points.shape
    table = np.zeros((R, len(entries)), dtype=points.dtype)
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
               or _exact_point_violation(derivs, r, y, p))
        if bad is not None:
            return bad
    return None


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


def _check_tr_nd(f, r, ball, K, s):
    """First violation of a multivariate map, decided on residue classes
    modulo p^s, or None: the C^r half on y mod p^max(s, alpha) over all
    components first, then the remainder half on the classes of y and of
    x - y.  The first failing y in ball order mod p^K is the first failing
    y-class, so only a remainder failure lists the residues mod p^K."""
    import numpy as np

    p, m, alpha = ball.p, ball.m, ball.alpha
    # with s > alpha there are p^(m(s - alpha)) y-classes and as many
    # difference classes
    n_cls = p ** (m * max(s - alpha, 0))
    if n_cls * n_cls > PAIR_CAP:
        raise CapExceededError(
            f"{n_cls}^2 residue-class pairs mod p^{s} exceed cap {PAIR_CAP}")
    derivs = _derivative_table(f)
    low = [sum(sum(beta) <= r for beta, _g in entries) for entries in derivs]
    mod = p ** s
    ys = ball.residue_array(max(s, alpha))
    points = _reduce(ys, mod)
    tables = [_residue_table(entries, points, p, s) for entries in derivs]

    bad = np.concatenate([t[:, :n] for t, n in zip(tables, low)], axis=1) != 0
    if bad.any():
        y = tuple(ys[int(bad.any(axis=1).argmax())].tolist())
        return _exact_point_violation(derivs, r, y, p)
    if s <= alpha:
        # every |beta| > r term carries p^(v(|beta|-r)) with v >= alpha >= s
        return None

    # differences x - y = p^alpha d, 0 <= d_i < p^(s - alpha), last
    # coordinate fastest
    width = p ** (s - alpha)
    diffs = np.indices((width,) * m).reshape(m, n_cls).T
    weights = [_difference_weights(entries[n:], r, diffs, p, s, alpha)
               for entries, n in zip(derivs, low)]

    def remainder_bad(y0, y1):
        """bad[y, j]: the bound fails at (y, y + p^alpha diffs[j]) for some
        component, y over the y-classes y0..y1-1."""
        bad = np.zeros((y1 - y0, n_cls), dtype=bool)
        for t, n, w in zip(tables, low, weights):
            val = np.zeros((y1 - y0, n_cls), dtype=t.dtype)
            for k in range(len(w)):
                val += t[y0:y1, n + k, None] * w[k]
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

    # the first x in ball order mod p^K whose difference class fails at y
    n_res = ball.residue_count(K)
    if n_res > RESIDUE_CAP:
        raise CapExceededError(f"{n_res} residues exceed cap {RESIDUE_CAP}")
    res = ball.residue_array(K)
    d = (res - ys[yi]) % mod // p ** alpha
    j = np.zeros(len(res), dtype=np.int64)
    for i in range(m):
        j = j * width + d[:, i].astype(np.int64)
    xi = int(remainder_bad(yi, yi + 1)[0][j].argmax())
    return _exact_pair_violation(derivs, r, tuple(res[xi].tolist()),
                                 tuple(ys[yi].tolist()), p)


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

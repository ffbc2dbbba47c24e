"""Bombieri-Pila determinant method over Q_p at desk scale.

Monomial-evaluation determinants of points in a small ball have valuation
at least e * alpha; integrality of heights forces them to vanish once the
ball is small enough, which yields one auxiliary polynomial of degree <= d
per parameter ball covering all enumerated points of bounded height.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith_core import (
    Ball,
    MultiPoly,
    PadicNumber,
    rational_residue,
    val_fraction,
)
from .combinatorics import DetSetup, alpha_bound
from .errors import (
    BoundViolation,
    ConfigError,
    FullRankError,
    PrecisionError,
)
from .heights import points_Z
from .hilbert import delta_exponents
from .taylor import ExhaustiveStrategy, check_Tr

INF = float("inf")


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------

def exact_det(rows):
    """Determinant of a square matrix of ints or Fractions, by elimination
    over Q."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if any(len(r) != n for r in rows):
        raise ConfigError("determinant needs a square matrix")
    m = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            if m[r][c] == 0:
                continue
            factor = m[r][c] * inv
            for k in range(c, n):
                m[r][k] -= factor * m[c][k]
    return det


def rational_rank(rows):
    """Exact rank of a matrix over Q."""
    if not rows:
        return 0
    m = [[Fraction(x) for x in r] for r in rows]
    nr, nc = len(m), len(m[0])
    rank = 0
    for c in range(nc):
        piv = next((r for r in range(rank, nr) if m[r][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][c]
        for r in range(rank + 1, nr):
            if m[r][c] == 0:
                continue
            factor = m[r][c] * inv
            for k in range(c, nc):
                m[r][k] -= factor * m[rank][k]
        rank += 1
        if rank == nr:
            break
    return rank


@dataclass
class PivotCertificate:
    pivots: list  # (original row, original col, valuation)

    def to_json(self):
        return [{"row": r, "col": c, "valuation": v} for r, c, v in self.pivots]


def rank_padic(rows, p=None, K=None):
    """Rank by Gaussian elimination with minimal-valuation pivots.

    Entries are PadicNumbers (Fractions are coerced when p is given).  The
    result is provably correct when every elimination decision is
    determinate at precision; a remaining block that is zero only at
    precision (not exactly) raises PrecisionError.
    """
    from .arith_core import DEFAULT_PRECISION

    K = K or DEFAULT_PRECISION
    work = []
    for r in rows:
        row = []
        for x in r:
            if isinstance(x, PadicNumber):
                row.append(x)
            else:
                if p is None:
                    raise ConfigError("rational entries need an explicit prime")
                row.append(PadicNumber.from_rational(Fraction(x), p, K))
        work.append(row)
    if not work:
        return 0, PivotCertificate([])
    nr, nc = len(work), len(work[0])
    row_ids = list(range(nr))
    pivots = []
    rank = 0
    for _step in range(min(nr, nc)):
        best = None
        pending = False
        for i in range(rank, nr):
            for j in range(nc):
                x = work[i][j]
                if x.is_exact_zero:
                    continue
                if x.is_zero_at_precision:
                    pending = True
                    continue
                key = (x.ord(), i, j)
                if best is None or key < best:
                    best = key
        if best is None:
            if pending:
                raise PrecisionError(
                    "rank indeterminate: remaining candidates are zero-at-precision")
            break
        v, i, j = best
        work[rank], work[i] = work[i], work[rank]
        row_ids[rank], row_ids[i] = row_ids[i], row_ids[rank]
        pivots.append((row_ids[rank], j, v))
        piv = work[rank][j]
        for r2 in range(rank + 1, nr):
            x = work[r2][j]
            if x.is_exact_zero:
                continue
            factor = x / piv
            work[r2] = [a - factor * b for a, b in zip(work[r2], work[rank])]
        rank += 1
    return rank, PivotCertificate(pivots)


# ---------------------------------------------------------------------------
# determinant estimate
# ---------------------------------------------------------------------------

@dataclass
class MonomialMatrix:
    setup: DetSetup
    points: list
    exponents: list
    entries: list  # rows indexed by exponents, columns by points

    @classmethod
    def build(cls, psi, points, d):
        setup = DetSetup.for_dims(psi.m, psi.n, d)
        if len(points) != setup.mu:
            raise ConfigError(f"need mu={setup.mu} points, got {len(points)}")
        exps = delta_exponents(psi.n, d)
        values = [psi.eval(pt) for pt in points]
        entries = []
        for alpha in exps:
            row = []
            for val in values:
                prod = Fraction(1)
                for comp, e in zip(val, alpha):
                    prod *= Fraction(comp) ** e
                row.append(prod)
            entries.append(row)
        return cls(setup, list(points), exps, entries)

    def determinant(self):
        return exact_det(self.entries)


@dataclass
class DetBoundReport:
    setup: DetSetup
    alpha: int
    ord_delta: object
    bound: int
    ok: bool
    delta: Fraction

    def to_json(self):
        return {
            "m": self.setup.m, "n": self.setup.n, "d": self.setup.d,
            "mu": self.setup.mu, "r": self.setup.r, "e": self.setup.e,
            "alpha": self.alpha,
            "ord_delta": "inf" if self.ord_delta == INF else int(self.ord_delta),
            "bound": self.bound,
            "ok": self.ok,
        }


def det_bound_check(psi, points, ball, d, certificates=None):
    """Assert ord(det(psi^alpha(P_j))) >= e * alpha for mu points of a ball
    of valuative radius alpha, given T_r certificates for the components
    (monomials inherit T_r under products and composition)."""
    setup = DetSetup.for_dims(psi.m, psi.n, d)
    if not setup.check_bracketing():
        raise ConfigError("bracketing hypothesis D_m(r-1) <= mu < D_m(r) fails")
    if certificates is None:
        certificates = certify_components(psi, setup.r, ball)
    for cert in certificates:
        if not cert.holds:
            raise ConfigError("component lacks a holding T_r certificate")
        if cert.r < setup.r:
            raise ConfigError(f"certificate order {cert.r} below required r={setup.r}")
    for pt in points:
        if not ball.contains(pt):
            raise ConfigError(f"point {pt} outside the ball")
    mm = MonomialMatrix.build(psi, points, d)
    delta = mm.determinant()
    ordd = val_fraction(delta, ball.p)
    bound = setup.e * ball.alpha
    return DetBoundReport(setup, ball.alpha, ordd, bound, ordd >= bound, delta)


def certify_components(psi, r, ball, K=None):
    """T_r certificates for each component of psi on the ball; the lean
    modulus keeps the sweep small while staying a class-conclusive proof."""
    from .taylor import PolyMap

    out = []
    for comp in psi.components:
        single = PolyMap(psi.m, 1, [comp], domain=ball)
        out.append(check_Tr(single, r, ExhaustiveStrategy(K=K, lean=K is None), ball))
    return out


# ---------------------------------------------------------------------------
# auxiliary polynomials and the covering
# ---------------------------------------------------------------------------

@dataclass
class AuxPolynomial:
    poly: MultiPoly
    beta: tuple
    beta_coeff: Fraction
    rank: int

    def degree(self):
        return self.poly.degree()


def auxiliary_polynomial(points, d, n=None):
    """A nonzero polynomial of degree <= d over Q vanishing at all points,
    from a maximal-rank monomial submatrix augmented by the grevlex-smallest
    missing monomial row.

    Raises FullRankError when the monomial matrix has full rank D_n(d).
    """
    if not points:
        raise ConfigError("need at least one point")
    pts = [tuple(Fraction(c) for c in pt) for pt in points]
    if len(set(pts)) != len(pts):
        raise ConfigError("points must be pairwise distinct")
    n = n if n is not None else len(pts[0])
    exps = delta_exponents(n, d)

    def mono(pt, exp):
        prod = Fraction(1)
        for c, e in zip(pt, exp):
            prod *= c ** e
        return prod

    full = [[mono(pt, exp) for pt in pts] for exp in exps]

    # greedy maximal independent point columns
    sel = []
    for j in range(len(pts)):
        cand = sel + [j]
        sub = [[full[i][c] for c in cand] for i in range(len(exps))]
        if rational_rank(sub) == len(cand):
            sel.append(j)
    a = len(sel)
    if a >= len(exps):
        raise FullRankError(
            f"monomial matrix has full rank D_{n}({d}) = {len(exps)}")

    # greedy row support
    I = []
    for i in range(len(exps)):
        cand = I + [i]
        sub = [[full[r][c] for c in sel] for r in cand]
        if rational_rank(sub) == len(cand):
            I.append(i)
        if len(I) == a:
            break
    beta_idx = next(i for i in range(len(exps)) if i not in I)

    rows_idx = sorted(I + [beta_idx])
    terms = {}
    for k, ri in enumerate(rows_idx):
        minor = [[full[rj][c] for c in sel] for rj in rows_idx if rj != ri]
        coeff = exact_det(minor) if minor else Fraction(1)
        if k % 2:
            coeff = -coeff
        if coeff:
            terms[exps[ri]] = coeff
    poly = MultiPoly(n, terms)
    beta = exps[beta_idx]
    beta_coeff = poly.terms.get(beta, Fraction(0))
    if not beta_coeff:
        raise BoundViolation("auxiliary polynomial lost its pivot coefficient")
    for pt in pts:
        if poly.eval(pt) != 0:
            raise BoundViolation(f"auxiliary polynomial fails to vanish at {pt}")
    return AuxPolynomial(poly, beta, beta_coeff, a)


@dataclass
class CoverRecord:
    ball: Ball
    points: list
    aux: AuxPolynomial


@dataclass
class HypersurfaceCover:
    degree: int
    setup: DetSetup
    alpha: int
    p: int
    records: list
    total_points: int

    @property
    def size(self):
        return len(self.records)

    @property
    def cover_bound(self):
        return self.p ** (self.alpha * self.setup.m)

    def to_json(self):
        return {
            "degree": self.degree,
            "alpha": self.alpha,
            "cover_size": self.size,
            "cover_bound": self.cover_bound,
            "total_points": self.total_points,
            "records": [
                {
                    "ball_center": rec.ball.canonical_center()[0],
                    "ball_alpha": rec.ball.alpha,
                    "points": [[str(c) for c in pt] for pt in rec.points],
                    "aux_poly": [{"exp": list(e), "coeff": str(c)}
                                 for e, c in sorted(rec.aux.poly.terms.items())],
                    "beta": list(rec.aux.beta),
                    "beta_coeff": str(rec.aux.beta_coeff),
                }
                for rec in self.records
            ],
        }

    def csv_rows(self, p):
        rows = [("ball_id", "n_points", "poly_degree", "beta_coeff_valuation")]
        for rec in self.records:
            rows.append((
                rec.ball.canonical_center()[0],
                len(rec.points),
                rec.aux.poly.degree(),
                val_fraction(rec.aux.beta_coeff, p),
            ))
        return rows


def _parameter_of(psi, point, p):
    """Invert a one-parameter polynomial map at an exact point via one of
    its degree-1 components."""
    if psi.m != 1:
        raise ConfigError("covering runs are one-parameter")
    saw_linear = False
    for idx, comp in enumerate(psi.components):
        const = comp.terms.get((0,), Fraction(0))
        lin = comp.terms.get((1,), Fraction(0))
        if lin and (comp.degree() or 0) <= 1:
            saw_linear = True
            u = (Fraction(point[idx]) - const) / lin
            if psi.eval((u,)) == tuple(Fraction(c) for c in point) \
                    and val_fraction(u, p) >= 0:
                return u
    if not saw_linear:
        raise ConfigError(
            "parameter recovery needs a degree-1 component in the parametrization")
    return None


def cover_points(X, psi, T, d, p, cap=10**7, cert_K=None):
    """Cover X(Z,T) by one auxiliary polynomial of degree <= d per parameter
    ball of valuative radius alpha = alpha_bound(setup, T, p).

    Asserts: every enumerated point is covered exactly once, the number of
    nonempty balls is at most p^(alpha*m), and every auxiliary polynomial
    vanishes at its points.
    """
    setup = DetSetup.for_dims(psi.m, psi.n, d)
    alpha = alpha_bound(setup, T, p)

    unit_ball = Ball(p, (Fraction(0),) * psi.m, 0)
    certs = certify_components(psi, setup.r, unit_ball, K=cert_K)
    for cert in certs:
        if not cert.holds:
            raise BoundViolation(
                f"parametrization component lacks T_{setup.r} on Z_p: {cert.witness}")

    pts = points_Z(X, T, cap=cap)
    groups = {}
    for pt in pts:
        u = _parameter_of(psi, pt, p)
        if u is None:
            raise BoundViolation(f"parametrization does not cover point {pt}")
        res = rational_residue(u, p, alpha)
        groups.setdefault(res, []).append(pt)

    records = []
    for res in sorted(groups):
        ball = Ball(p, (res,), alpha)
        aux = auxiliary_polynomial(groups[res], d, psi.n)
        records.append(CoverRecord(ball, groups[res], aux))

    cover = HypersurfaceCover(d, setup, alpha, p, records, len(pts))
    if cover.size > p ** (alpha * psi.m):
        raise BoundViolation(
            f"cover size {cover.size} exceeds p^(alpha*m) = {p ** (alpha * psi.m)}")
    covered = [pt for rec in records for pt in rec.points]
    if sorted(covered) != sorted(pts) or len(covered) != len(pts):
        raise BoundViolation("cover does not partition the enumerated points")
    return cover

"""Bombieri-Pila determinant method over Q_p at desk scale.

Monomial-evaluation determinants of points in a small ball have valuation
at least e * alpha; integrality of heights forces them to vanish once the
ball is small enough, which yields one auxiliary polynomial of degree <= d
per parameter ball covering all enumerated points of bounded height.

A dimension count decides some determinants before any entry is computed:
each row psi^a (|a| <= d) of the monomial matrix is a polynomial of degree
<= d * deg(psi) in the m parameters, so the rows span at most
C(d * deg(psi) + m, m) dimensions, and delta = 0 whenever mu is larger.

Values of psi come from arith_core's one exact evaluator, in integers, so
the monomial matrices are integer matrices and Fractions are made only for
results.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from fractions import Fraction

from .arith_core import (INF, Ball, MultiPoly, cleared, eval_cleared, integer_form,
                         rational_residue, val_fraction)
from .combinatorics import DetSetup, alpha_bound, delta_count
from .errors import BoundViolation, ConfigError, FullRankError
from .heights import points_Z
from .hilbert import delta_exponents
from .taylor import PolyMap, _same_dimension, check_Tr


def _point_str(pt):
    """A point as the reports print coordinates: (-4, 16) or (1/2)."""
    return "(" + ", ".join(str(c) for c in pt) + ")"


# ---------------------------------------------------------------------------
# exact linear algebra: fraction-free elimination over Z
# ---------------------------------------------------------------------------

def _integer_rows(rows):
    """Each row scaled to integers by its common denominator, and the
    product of those scales.  Scaling a row by a nonzero integer keeps the
    rank and multiplies the determinant by that integer."""
    out = []
    scale = 1
    for row in rows:
        ints, den = cleared(row)
        out.append(ints)
        scale *= den
    return out, scale


def _bareiss(m):
    """Bareiss elimination (Math. Comp. 1968) of integer rows, in place.

    Returns (rank, sign of the row permutation, last pivot).  Columns are
    taken left to right; one with no nonzero entry among the rows not yet
    used is skipped.  After each pivot every remaining entry is a minor of
    the row-permuted matrix on the pivot columns so far plus its own
    column, so each division by the previous pivot is exact.  A skipped
    column changes no entry and no pivot, which keeps that true.  For a
    square matrix of full rank the last pivot is the determinant up to the
    sign.
    """
    nr = len(m)
    nc = len(m[0]) if m else 0
    rank, sign, prev = 0, 1, 1
    for c in range(nc):
        piv = next((r for r in range(rank, nr) if m[r][c]), None)
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            sign = -sign
        top = m[rank]
        pc = top[c]
        for r in range(rank + 1, nr):
            row = m[r]
            f = row[c]
            for k in range(c + 1, nc):
                row[k] = (pc * row[k] - f * top[k]) // prev
        prev = pc
        rank += 1
        if rank == nr:
            break
    return rank, sign, prev


def exact_det(rows):
    """Determinant of a square matrix of ints or Fractions.

    Each row is cleared of denominators (row scale s_i), the integer
    determinant comes from Bareiss elimination with exact divisions, and
    the result is det / prod(s_i) as a Fraction."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if any(len(r) != n for r in rows):
        raise ConfigError("determinant needs a square matrix")
    m, scale = _integer_rows(rows)
    rank, sign, last = _bareiss(m)
    return Fraction(sign * last if rank == n else 0, scale)


def rational_rank(rows):
    """Exact rank of a matrix over Q by Bareiss elimination on ints.  Rows
    of plain ints (every call from auxiliary_polynomial) are eliminated on
    a copy as they are; any other rows, bools included, are first cleared
    of denominators, which keeps the rank."""
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ConfigError("rank needs rows of equal length")
    if all(type(x) is int for row in rows for x in row):
        m = [list(row) for row in rows]
    else:
        m, _ = _integer_rows(rows)
    return _bareiss(m)[0]


# ---------------------------------------------------------------------------
# determinant estimate
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _monomial_plan(n, d):
    """How to build the monomials of delta_exponents(n, d) one product at a
    time: for each exponent after the constant, (k, i) with exponent k
    equal to it minus the i-th unit vector (i its first nonzero
    coordinate), and for every exponent its spare degree d - |e|.  Degrees
    come in ascending order, so k always names an earlier exponent."""
    exps = delta_exponents(n, d)
    index = {e: k for k, e in enumerate(exps)}
    steps = []
    for e in exps[1:]:
        i = next(j for j, x in enumerate(e) if x)
        steps.append((index[e[:i] + (e[i] - 1,) + e[i + 1:]], i))
    return tuple(steps), tuple(d - sum(e) for e in exps)


def _monomial_matrix(columns, n, d):
    """Integer monomial matrix, rows by the exponents of delta_exponents(n,
    d) and columns by point, of points given as (numerators a, common
    denominator D).  The column of a point holds prod a_i^e_i * D^(d - |e|):
    the rational column prod x_i^e_i scaled by D^d.  Each monomial is one
    product with an earlier one (_monomial_plan), and the powers of D are
    taken only when D != 1."""
    steps, spare = _monomial_plan(n, d)
    cols = []
    for a, den in columns:
        col = [1]
        for k, i in steps:
            col.append(col[k] * a[i])
        if den != 1:
            dpow = [den ** k for k in range(d + 1)]
            col = [t * dpow[s] for t, s in zip(col, spare)]
        cols.append(col)
    return [list(row) for row in zip(*cols)]


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
    (monomials inherit T_r under products and composition).

    The hypotheses are enforced: the ball has psi's dimension m, and there
    is one holding certificate of order >= r per component, for that
    component on this ball (same p, alpha and canonical centre).

    Row a (|a| <= d) of the matrix holds the values at the points of psi^a,
    a polynomial of total degree <= d * deg(psi) in the m parameters (a
    zero component counts as degree 0).  So every row lies in the image of
    a space of dimension C(d * deg(psi) + m, m), and delta = 0 when mu
    exceeds it: then no matrix is built.  Otherwise the matrix is built in
    integers: column j is the rational column times D_j^d, D_j the common
    denominator of psi(P_j), so delta is its determinant over prod_j D_j^d.
    """
    setup = DetSetup.for_dims(psi.m, psi.n, d)
    _same_dimension(psi, ball)
    if certificates is None:
        certificates = certify_components(psi, setup.r, ball)
    if len(certificates) != psi.n:
        raise ConfigError(
            f"need one T_r certificate per component: {psi.n}, got {len(certificates)}")
    where = (ball.p, ball.alpha, ball.center)
    for comp, cert in zip(psi.components, certificates):
        if not cert.holds:
            raise ConfigError("component lacks a holding T_r certificate")
        if cert.r < setup.r:
            raise ConfigError(f"certificate order {cert.r} below required r={setup.r}")
        if cert.subject.components != (comp,):
            raise ConfigError(f"certificate is not for the component {comp}")
        dom = cert.domain
        if (dom.p, dom.alpha, dom.center) != where:
            raise ConfigError(f"certificate on {dom}, not on {ball}")
    for pt in points:
        if not ball.contains(pt):
            raise ConfigError(f"point {_point_str(pt)} outside the ball")
    if len(points) != setup.mu:
        raise ConfigError(f"need mu={setup.mu} points, got {len(points)}")
    if setup.mu > delta_count(psi.m, d * psi.degree()):
        delta = Fraction(0)
    else:
        form = integer_form(psi.components)
        values = [eval_cleared(form, pt, psi.m) for pt in points]
        scale = 1
        for _num, den in values:
            scale *= den ** d
        rank, sign, last = _bareiss(_monomial_matrix(values, psi.n, d))
        delta = Fraction(sign * last if rank == setup.mu else 0, scale)
    ordd = val_fraction(delta, ball.p)
    bound = setup.e * ball.alpha
    return DetBoundReport(setup, ball.alpha, ordd, bound, ordd >= bound, delta)


def certify_components(psi, r, ball):
    """T_r certificates for each component of psi on the ball, each from
    check_Tr at the modulus exponent K that check_Tr works out."""
    return [check_Tr(PolyMap(psi.m, 1, [comp], domain=ball), r, ball)
            for comp in psi.components]


# ---------------------------------------------------------------------------
# auxiliary polynomials and the covering
# ---------------------------------------------------------------------------

@dataclass
class AuxPolynomial:
    poly: MultiPoly
    beta: tuple
    beta_coeff: Fraction
    rank: int


def auxiliary_polynomial(points, d):
    """A nonzero polynomial of degree <= d over Q in the points' n
    coordinates vanishing at all points, from a maximal-rank monomial
    submatrix augmented by the grevlex-smallest missing monomial row.

    The monomial matrix is built in integers: point j, written as integer
    numerators over its common denominator D_j, gives the rational column
    times D_j^d.  Column scaling keeps every rank the greedy selections ask
    for.  The greedy selections give a independent point columns `sel`
    and a independent monomial rows I; beta is the first row not in I, so
    it sits at position beta in the sorted rows I + [beta].  The
    coefficient vector spans the one-dimensional left kernel of those a + 1
    rows on `sel`, and comes from one fraction-free elimination: Bareiss
    on the augmented system [M_I^T | m_beta] gives D = det of the
    row-permuted M_I^T, and back-substitution with exact divisions gives
    y = D * x for M_I^T x = m_beta.  With t = (-1)^beta times the sign of
    the row permutation, c_beta = t * D and c_I = -t * y are the signed
    a x a minors of the cofactor expansion; each is divided by
    prod_{j in sel} D_j^d.

    Raises FullRankError when the monomial matrix has full rank D_n(d).
    """
    if not points:
        raise ConfigError("need at least one point")
    pts = [tuple(Fraction(c) for c in pt) for pt in points]
    n = len(pts[0])
    if any(len(pt) != n for pt in pts):
        raise ConfigError(f"every point needs {n} coordinates")
    if len(set(pts)) != len(pts):
        raise ConfigError("points must be pairwise distinct")
    exps = delta_exponents(n, d)
    columns = [cleared(pt) for pt in pts]
    full = _monomial_matrix(columns, n, d)

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

    # [M_I^T | m_beta] on the selected columns, one row per selected point
    m = [[full[i][c] for i in I] + [full[beta_idx][c]] for c in sel]
    _, sign, D = _bareiss(m)
    y = [0] * a
    for i in range(a - 1, -1, -1):
        row = m[i]
        acc = D * row[a]
        for k in range(i + 1, a):
            acc -= row[k] * y[k]
        y[i] = acc // row[i]

    scale = 1
    for j in sel:
        scale *= columns[j][1] ** d
    t = -sign if beta_idx % 2 else sign
    coeffs = dict(zip(I, (Fraction(-t * v, scale) for v in y)))
    coeffs[beta_idx] = Fraction(t * D, scale)
    terms = {exps[i]: coeffs[i] for i in sorted(coeffs) if coeffs[i]}
    poly = MultiPoly(n, terms)
    beta = exps[beta_idx]
    beta_coeff = poly.terms.get(beta, Fraction(0))
    if not beta_coeff:
        raise BoundViolation("auxiliary polynomial lost its pivot coefficient")
    for pt in pts:
        if poly.eval(pt) != 0:
            raise BoundViolation(f"auxiliary polynomial fails to vanish at {_point_str(pt)}")
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
                    "ball_center": rec.ball.center[0],
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
                rec.ball.center[0],
                len(rec.points),
                rec.aux.poly.degree(),
                val_fraction(rec.aux.beta_coeff, p),
            ))
        return rows


def _parameter_of(psi, point, p):
    """Invert a one-parameter polynomial map at an exact point via one of
    its degree-1 components; None when none of them gives a p-integral
    parameter that maps to the point."""
    for idx, comp in enumerate(psi.components):
        if comp.degree() == 1:
            u = (Fraction(point[idx]) - comp.terms.get((0,), 0)) / comp.terms[(1,)]
            if psi.eval((u,)) == tuple(Fraction(c) for c in point) \
                    and val_fraction(u, p) >= 0:
                return u
    return None


def cover_points(X, psi, T, d, p, cap=10**7):
    """Cover X(Z,T) by one auxiliary polynomial of degree <= d per parameter
    ball of valuative radius alpha = alpha_bound(setup, T, p).  psi is
    one-parameter (m = 1) with a degree-1 component, from which each
    point's parameter is recovered; both are checked before any
    certificate or grid point, so the answer does not depend on whether X
    has a point.

    Asserts: every component of psi has T_r on Z_p (a witness names its
    index in psi), every enumerated point is covered exactly once, the
    number of nonempty balls is at most p^(alpha*m), and every auxiliary
    polynomial vanishes at its points.
    """
    if psi.m != 1:
        raise ConfigError("covering runs are one-parameter")
    if not any(comp.degree() == 1 for comp in psi.components):
        raise ConfigError(
            "parameter recovery needs a degree-1 component in the parametrization")
    if psi.n != X.nvars:
        raise ConfigError(
            f"parametrization has {psi.n} components for a curve in {X.nvars} variables")
    setup = DetSetup.for_dims(psi.m, psi.n, d)
    alpha = alpha_bound(setup, T, p)

    unit_ball = Ball(p, (0,), 0)
    for i, cert in enumerate(certify_components(psi, setup.r, unit_ball)):
        if not cert.holds:
            witness = dict(cert.to_json()["witness"], component=i)
            raise BoundViolation(f"parametrization component lacks T_{setup.r} on Z_p: "
                                 f"{json.dumps(witness, sort_keys=True)}")

    pts = points_Z(X, T, cap=cap)
    groups = {}
    for pt in pts:
        u = _parameter_of(psi, pt, p)
        if u is None:
            raise BoundViolation(f"parametrization does not cover point {_point_str(pt)}")
        res = rational_residue(u, p, alpha)
        groups.setdefault(res, []).append(pt)

    records = []
    for res in sorted(groups):
        ball = Ball(p, (res,), alpha)
        aux = auxiliary_polynomial(groups[res], d)
        records.append(CoverRecord(ball, groups[res], aux))

    cover = HypersurfaceCover(d, setup, alpha, p, records, len(pts))
    if cover.size > p ** (alpha * psi.m):
        raise BoundViolation(
            f"cover size {cover.size} exceeds p^(alpha*m) = {p ** (alpha * psi.m)}")
    covered = [pt for rec in records for pt in rec.points]
    if sorted(covered) != sorted(pts) or len(covered) != len(pts):
        raise BoundViolation("cover does not partition the enumerated points")
    return cover

"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately written from scratch against the raw
definitions (double loops, dense linear algebra over Q, direct convolution
arithmetic mod q) and never calls the code paths it checks.
"""

from fractions import Fraction
from itertools import product
from math import comb, factorial, gcd

from nonarch_lab.errors import CapExceededError


def rationals_of_height(T):
    """All rationals with max(|num|, den) <= T via the plain double loop."""
    out = set()
    for num in range(-T, T + 1):
        for den in range(1, T + 1):
            if gcd(abs(num), den) == 1 and max(abs(num), den) <= T:
                out.add(Fraction(num, den))
    return out


def min_relation_height(x, k, T_max):
    """Minimal max|a_i| over nonzero integer tuples with sum a_i x^i = 0,
    by scanning the full cube at height T_max; None when none exists."""
    x = Fraction(x)
    best = None
    for a in product(range(-T_max, T_max + 1), repeat=k + 1):
        if all(c == 0 for c in a):
            continue
        if sum(c * x ** i for i, c in enumerate(a)) == 0:
            h = max(abs(c) for c in a)
            if best is None or h < best:
                best = h
    return best


def grid_points(X, values):
    """Members of the SemialgSpec X in values^n: X.accepts on every grid
    point, in itertools.product order."""
    return [tuple(pt) for pt in product(values, repeat=X.nvars) if X.accepts(pt)]


def circle_points(T):
    """Rational points on x^2 + y^2 = 1 of height <= T (double loop)."""
    vals = sorted(rationals_of_height(T))
    return sorted((x, y) for x in vals for y in vals if x * x + y * y == 1)


def dense_rank(rows):
    """Rank over Q by textbook elimination on dense Fraction lists."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    rank = 0
    ncols = len(m[0])
    for c in range(ncols):
        pivot = None
        for r in range(rank, len(m)):
            if m[r][c] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pr = m[rank]
        for r in range(len(m)):
            if r != rank and m[r][c] != 0:
                f = m[r][c] / pr[c]
                m[r] = [a - f * b for a, b in zip(m[r], pr)]
        rank += 1
    return rank


def fraction_det(rows):
    """Determinant over Q by Gaussian elimination on Fraction rows."""
    n = len(rows)
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


def auxiliary_polynomial_fraction(points, d):
    """The determinant method's auxiliary polynomial over Q, with every
    rank and minor taken by Fraction elimination on the rational monomial
    matrix: (terms, beta, beta_coeff, rank).  Raises the error types the
    production routine raises."""
    from nonarch_lab.errors import BoundViolation, ConfigError, FullRankError
    from nonarch_lab.hilbert import delta_exponents

    if not points:
        raise ConfigError("need at least one point")
    pts = [tuple(Fraction(c) for c in pt) for pt in points]
    n = len(pts[0])
    if any(len(pt) != n for pt in pts):
        raise ConfigError("point arity")
    if len(set(pts)) != len(pts):
        raise ConfigError("points must be pairwise distinct")
    exps = delta_exponents(n, d)

    def mono(pt, exp):
        prod = Fraction(1)
        for c, e in zip(pt, exp):
            prod *= c ** e
        return prod

    full = [[mono(pt, exp) for pt in pts] for exp in exps]
    sel = []
    for j in range(len(pts)):
        cand = sel + [j]
        if dense_rank([[full[i][c] for c in cand] for i in range(len(exps))]) == len(cand):
            sel.append(j)
    a = len(sel)
    if a >= len(exps):
        raise FullRankError("full rank")
    I = []
    for i in range(len(exps)):
        cand = I + [i]
        if dense_rank([[full[r][c] for c in sel] for r in cand]) == len(cand):
            I.append(i)
        if len(I) == a:
            break
    beta_idx = next(i for i in range(len(exps)) if i not in I)
    rows_idx = sorted(I + [beta_idx])
    terms = {}
    for k, ri in enumerate(rows_idx):
        coeff = fraction_det([[full[rj][c] for c in sel] for rj in rows_idx if rj != ri])
        if k % 2:
            coeff = -coeff
        if coeff:
            terms[exps[ri]] = coeff
    beta = exps[beta_idx]
    beta_coeff = terms.get(beta, Fraction(0))
    if not beta_coeff:
        raise BoundViolation("lost pivot coefficient")
    return terms, beta, beta_coeff, a


def monomials_exact_degree(nvars, s):
    if nvars == 0:
        return [()] if s == 0 else []
    out = []
    for e in range(s + 1):
        for rest in monomials_exact_degree(nvars - 1, s - e):
            out.append((e,) + rest)
    return out


def standard_monomials_filter(nvars, lt_gens, s):
    """Exponent vectors of degree s divisible by no element of lt_gens, by
    testing every monomial of degree s against every leading term; sorted
    descending lexicographically, which at one degree is the grevlex order
    of nonarch_lab.hilbert."""
    mons = [m for m in monomials_exact_degree(nvars, s)
            if not any(all(g <= e for g, e in zip(gen, m)) for gen in lt_gens)]
    return sorted(mons, reverse=True)


def hilbert_codimension(generators, nvars, s):
    """dim of the degree-s slice minus the rank of the generator multiples:
    the brute-force Hilbert function of a homogeneous ideal over Q.

    generators: list of dicts exponent -> Fraction.
    """
    mons = monomials_exact_degree(nvars, s)
    col = {m: i for i, m in enumerate(mons)}
    rows = []
    for gen in generators:
        degs = {sum(e) for e in gen}
        (deg,) = degs
        if deg > s:
            continue
        for mult in monomials_exact_degree(nvars, s - deg):
            row = [Fraction(0)] * len(mons)
            for e, cf in gen.items():
                tot = tuple(a + b for a, b in zip(e, mult))
                row[col[tot]] += Fraction(cf)
            rows.append(row)
    return len(mons) - dense_rank(rows)


def slack_sq_fraction(counts, delta, mu):
    """max over q of (count - mu*q^delta)^2 / q^(2*delta - 1), one Fraction
    power and quotient per field size."""
    worst = Fraction(0)
    for q, c in counts.items():
        val = Fraction(c - mu * q ** delta) ** 2 / Fraction(q) ** (2 * delta - 1)
        worst = max(worst, val)
    return worst


def fit_delta_bruteforce(counts, r, n, mu_cap):
    """(delta, mu, slack^2) with the least max_q (c - mu q^delta)^2 /
    q^(2 delta - 1) over every delta in [0, r n] and every integer mu in
    [1, mu_cap], ties to smaller delta then smaller mu: the full double
    loop."""
    best = None
    for delta in range(r * n + 1):
        for mu in range(1, mu_cap + 1):
            sq = slack_sq_fraction(counts, delta, mu)
            if best is None or (sq, delta, mu) < best:
                best = (sq, delta, mu)
    sq, delta, mu = best
    return delta, Fraction(mu), sq


def permutation_det(rows):
    """Determinant by full permutation expansion (n <= 6)."""
    n = len(rows)
    from itertools import permutations

    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = Fraction(1)
        for i in range(n):
            term *= Fraction(rows[i][perm[i]])
        total += sign * term
    return total


def polymul_mod(a, b, q):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % q
    return out


def ff_graph_count(poly_terms, n, q, r):
    """Count n-tuples of degree-<r polynomials over F_q killing every
    polynomial, with raw convolution arithmetic (independent of the
    package's polynomial types and kernels).

    poly_terms: list of lists of (coeff_t_poly list, exponent tuple).
    """
    count = 0
    for flat in product(range(q), repeat=n * r):
        coords = [list(flat[i * r:(i + 1) * r]) for i in range(n)]
        ok = True
        for terms in poly_terms:
            acc = [0]
            for coeff, exps in terms:
                term = [c % q for c in coeff]
                for var, e in enumerate(exps):
                    for _ in range(e):
                        term = polymul_mod(term, coords[var], q)
                if len(term) > len(acc):
                    acc += [0] * (len(term) - len(acc))
                for i, c in enumerate(term):
                    acc[i] = (acc[i] + c) % q
            if any(acc):
                ok = False
                break
        if ok:
            count += 1
    return count


def ff_count_full_range(q, r, n, equations, idx):
    """Mask of the assignment indices `idx` (an int64 array, base-q digits
    a_{i,g} at position i*r + g) at which every equation in
    VarietySpec.reduce_mod's format vanishes identically: numpy
    convolutions of whole t-series, every t-power of each equation at
    once, with the digits decoded from the indices.  The full-range
    reference the t-adic lifting is compared with."""
    import numpy as np

    chunk = idx.shape[0]
    digits = np.empty((n, r, chunk), dtype=np.int64)
    v = idx.copy()
    for i in range(n):
        for g in range(r):
            digits[i, g] = v % q
            v //= q
    mask = np.ones(chunk, dtype=bool)
    for terms in equations:
        limit = max((len(cs) + sum(exps) * (r - 1) for cs, exps in terms), default=0)
        acc = np.zeros((limit, chunk), dtype=np.int64)
        for cs, exps in terms:
            cur = len(cs)
            poly = np.array(cs, dtype=np.int64)[:, None]
            for i, e in enumerate(exps):
                for _ in range(e):
                    out = np.zeros((cur + r - 1, chunk), dtype=np.int64)
                    for b in range(r):
                        out[b:b + cur] = (out[b:b + cur] + poly * digits[i, b]) % q
                    poly, cur = out, cur + r - 1
            acc[:cur] = (acc[:cur] + poly) % q
        mask &= ~np.any(acc, axis=0)
    return mask


def tr_pair_sweep_scalar(table, xs, mod, r):
    """First residue pair (y, x), x != y, with sum_{j>=r} table[y][j] *
    (xs[x] - xs[y])^(j-r) nonzero modulo mod, or (-1, -1): one pair at a
    time in ascending (y, x) order, by scalar Horner on Python ints."""
    if mod == 1:
        return -1, -1
    R = len(xs)
    for y in range(R):
        coeffs = table[y]
        for x in range(R):
            if x == y:
                continue
            h = (xs[x] - xs[y]) % mod
            val = 0
            for j in range(len(coeffs) - 1, r - 1, -1):
                val = (val * h + coeffs[j]) % mod
            if val:
                return y, x
    return -1, -1


def padic_val(x, p):
    x = Fraction(x)
    if x == 0:
        return float("inf")
    v = 0
    num = abs(x.numerator)
    while num % p == 0:
        num //= p
        v += 1
    den = x.denominator
    while den % p == 0:
        den //= p
        v -= 1
    return v


def tr_residue_oracle(components, r, p, residues):
    """First T_r violation of a univariate polynomial map on the given
    residues, straight from the definition, or None.

    Per component (dense ascending rational coefficients): every ordered
    pair x != y must satisfy ord(f(x) - T_y(x)) >= r * ord(x - y), with T_y
    the degree-(r-1) Taylor polynomial built from f^(j)(y) / j!; then every
    y must satisfy ord(f^(j)(y) / j!) >= 0 for j <= r.  Returns
    ("remainder", component, x, y) or ("cr_norm", component, j, y, ord).
    """
    def ev(cs, x):
        return sum(c * Fraction(x) ** i for i, c in enumerate(cs))

    fact = [1]
    for j in range(1, r + 1):
        fact.append(fact[-1] * j)
    for ci, coeffs in enumerate(components):
        derivs = [[Fraction(c) for c in coeffs]]
        for _ in range(len(coeffs)):
            prev = derivs[-1]
            derivs.append([i * prev[i] for i in range(1, len(prev))])
        taylor = {y: [ev(derivs[j], y) / fact[j] if j < len(derivs) else Fraction(0)
                      for j in range(r + 1)]
                  for y in residues}
        for y in residues:
            for x in residues:
                if x == y:
                    continue
                t_y = sum(taylor[y][j] * Fraction(x - y) ** j for j in range(r))
                if padic_val(ev(coeffs, x) - t_y, p) < r * padic_val(x - y, p):
                    return ("remainder", ci, x, y)
        for y in residues:
            for j in range(r + 1):
                v = padic_val(taylor[y][j], p)
                if v < 0:
                    return ("cr_norm", ci, j, y, v)
    return None


def legendre_check(p, n, r, i_max):
    """Whether |n|^r / |i!| <= 1 for 1 <= i <= i_max, that is r v_p(n) >=
    v_p(i!) throughout the range, with v_p(i!) summed factor by factor.
    The inequality fails for large i at fixed n, which is why the range is
    an argument.  p must divide n."""
    from nonarch_lab.errors import ConfigError

    vn = padic_val(n, p)
    if vn == 0 or vn == float("inf"):
        raise ConfigError("p must divide n")
    v_fact = 0
    for i in range(1, i_max + 1):
        v_fact += padic_val(i, p)
        if v_fact > r * vn:
            return False
    return True


def ac_eq_residue_rule(g, p, depth, value):
    """Whether the angular component of the rational g at `depth` is
    `value`, by residues mod p^depth: g = 0 passes when value is 0 mod
    p^depth, and otherwise the unit part g / p^v(g) must be value mod
    p^depth."""
    mod = p ** depth
    g = Fraction(g)
    if g == 0:
        return value % mod == 0
    unit = g / Fraction(p) ** padic_val(g, p)
    return unit.numerator * pow(unit.denominator, -1, mod) % mod == value % mod


def ball_residues(ball, K):
    """Integer representative tuples mod p^K of a ball's residue classes,
    key + p^alpha * digits with the last coordinate fastest, one tuple at a
    time by counting the digits up like an odometer."""
    p, a = ball.p, ball.alpha
    step = p ** a
    width = p ** (K - a)
    key = ball.center
    idx = [0] * ball.m
    while True:
        yield tuple(c + step * j for c, j in zip(key, idx))
        i = ball.m - 1
        while i >= 0:
            idx[i] += 1
            if idx[i] < width:
                break
            idx[i] = 0
            i -= 1
        if i < 0:
            return


def ball_contains(p, center, alpha, point):
    """ord(x_i - c_i) >= alpha for every coordinate, in Fractions."""
    return all(padic_val(Fraction(x) - Fraction(c), p) >= alpha
               for x, c in zip(point, center))


def gauss_cr_valuation(components, r, p, center, alpha):
    """Min over the components and the orders |beta| <= r of the Gauss
    valuation in z of g_beta(c + p^alpha z), g_beta = (1/beta!) d^beta f,
    with each g_beta expanded term by term at the rational centre c by the
    binomial theorem."""
    best = float("inf")
    m = len(center)
    for terms in components:
        for beta in _betas(m, r):
            expanded = {}
            for exp, coef in divided_derivative(terms, beta).items():
                parts = [{k: comb(e, k) * Fraction(c) ** (e - k) * Fraction(p) ** (alpha * k)
                          for k in range(e + 1)} for e, c in zip(exp, center)]
                for ks in product(*[range(e + 1) for e in exp]):
                    t = Fraction(coef)
                    for part, k in zip(parts, ks):
                        t *= part[k]
                    expanded[ks] = expanded.get(ks, Fraction(0)) + t
            best = min([best] + [padic_val(c, p) for c in expanded.values() if c])
    return best


def power_preimage_residues(p, N, b, c, alpha):
    """(residues, j): the residues u mod p^j with ord(b u^N - c) >= alpha,
    each tested in Fractions, at the depth j = max(alpha + e, 1), p^e the
    p-part of b's denominator.  b u^N - c is the numerator b_n u^N - c b_d
    over b_d, which is a member exactly when p^(alpha + e) divides the
    numerator, and that depends on u mod p^(alpha + e) only."""
    b = Fraction(b)
    e = -min(padic_val(b, p), 0)
    j = max(alpha + e, 1)
    return {u for u in range(p ** j)
            if padic_val(b * Fraction(u) ** N - Fraction(c), p) >= alpha}, j


def fraction_eval(terms, point):
    """A polynomial {exponent: coefficient} at a rational point, term by
    term in Fraction arithmetic, each power x_j^e formed once."""
    args = [Fraction(a) for a in point]
    acc = Fraction(0)
    pow_cache = {}
    for exp, c in terms.items():
        t = Fraction(c)
        for j, e in enumerate(exp):
            if e:
                if (j, e) not in pow_cache:
                    pow_cache[j, e] = args[j] ** e
                t *= pow_cache[j, e]
        acc += t
    return acc


def divided_derivative(terms, beta):
    """The divided derivative (1/beta!) d^beta of {exponent: coefficient},
    as such a dict: each term c x^e with e >= beta becomes C(e, beta) c
    x^(e - beta)."""
    out = {}
    for exp, c in terms.items():
        if all(g >= b for g, b in zip(exp, beta)):
            for g, b in zip(exp, beta):
                c = c * comb(g, b)
            out[tuple(g - b for g, b in zip(exp, beta))] = c
    return out


def _deriv_at(terms, beta, y):
    """(1/beta!) d^beta of sum c x^e at y, term by term from the power rule."""
    acc = Fraction(0)
    for exp, c in terms.items():
        if any(e < b for e, b in zip(exp, beta)):
            continue
        t = Fraction(c)
        for e, b, yi in zip(exp, beta, y):
            t *= Fraction(factorial(e), factorial(e - b) * factorial(b)) * Fraction(yi) ** (e - b)
        acc += t
    return acc


def _betas(m, r):
    return sorted((b for b in product(range(r + 1), repeat=m) if sum(b) <= r),
                  key=lambda b: (sum(b), b))


def _cr_violation(components, r, p, y):
    """("cr_norm", component, beta, y, ord) for the first component and
    |beta| <= r with ord((1/beta!) d^beta f(y)) < 0, or None."""
    for ci, terms in enumerate(components):
        for beta in _betas(len(y), r):
            v = padic_val(_deriv_at(terms, beta, y), p)
            if v < 0:
                return ("cr_norm", ci, beta, y, v)
    return None


def _remainder_violation(components, r, p, x, y):
    """("remainder", component, x, y, ord_lhs, bound_rhs) for the first
    component with ord(f(x) - T_y(x)) < r * min_i ord(x_i - y_i), or None
    (also for x = y)."""
    if x == y:
        return None
    low = [b for b in _betas(len(y), r) if sum(b) < r]
    bound = r * min(padic_val(a - b, p) for a, b in zip(x, y))
    for ci, terms in enumerate(components):
        t_y = Fraction(0)
        for beta in low:
            mono = Fraction(1)
            for a, b, k in zip(x, y, beta):
                mono *= Fraction(a - b) ** k
            t_y += _deriv_at(terms, beta, y) * mono
        lhs = padic_val(_deriv_at(terms, (0,) * len(y), x) - t_y, p)
        if lhs < bound:
            return ("remainder", ci, x, y, lhs, bound)
    return None


def witness_point(v):
    """A witness coordinate as a tuple of Fractions: one value alone (a
    point in one variable) or a sequence of them."""
    return tuple(map(Fraction, v)) if isinstance(v, (tuple, list)) else (Fraction(v),)


def recheck_witness(f, r, witness, p):
    """Whether a T_r failure witness of the polynomial map f is one,
    straight from the definition and reading only the terms of f's
    components: a "remainder" witness names x != y with ord(f(x) - T_y(x))
    < r * min_i ord(x_i - y_i), a "cr_norm" one a y and an order |beta| <=
    r with ord((1/beta!) d^beta f(y)) < 0.  Coordinates may be ints,
    Fractions or the strings of a report, as witness_point reads them."""
    terms = f.components[witness["component"]].terms
    y = witness_point(witness["y"])
    if witness["kind"] == "remainder":
        return _remainder_violation([terms], r, p, witness_point(witness["x"]), y) is not None
    if witness["kind"] == "cr_norm":
        beta = tuple(witness["order"])
        return sum(beta) <= r and padic_val(_deriv_at(terms, beta, y), p) < 0
    raise ValueError(f"unknown witness kind {witness['kind']!r}")


def tr_check_oracle(components, r, p, center, alpha, K):
    """First T_r violation of a polynomial map Z_p^m -> Z_p^n on the ball
    center + p^alpha Z_p^m, over its residues mod p^K, straight from the
    definition, or None.

    components are dicts exponent tuple -> rational coefficient.  Residues
    run over c_i + p^alpha * j_i with the last coordinate fastest.  First
    every residue y must satisfy ord((1/beta!) d^beta f(y)) >= 0 for each
    component and |beta| <= r (beta by total degree, then lexicographic);
    then every ordered pair x != y, ascending (y, x), must satisfy
    ord(f(x) - T_y(x)) >= r * min_i ord(x_i - y_i), with T_y the Taylor
    polynomial of the orders < r at y.  Returns ("cr_norm", component,
    beta, y, ord) or ("remainder", component, x, y, ord_lhs, bound_rhs).
    """
    m = len(center)
    step = p ** alpha
    residues = [tuple(c + step * j for c, j in zip(center, idx))
                for idx in product(range(p ** (K - alpha)), repeat=m)]
    for y in residues:
        bad = _cr_violation(components, r, p, y)
        if bad is not None:
            return bad
    for y in residues:
        for x in residues:
            bad = _remainder_violation(components, r, p, x, y)
            if bad is not None:
                return bad
    return None


def count_expanded(equations, q, r, n, cap=2 * 10**7):
    """Exhaustive solution count of an expanded scheme over F_q^(r*n): each
    scalar equation has integer coefficients, which are reduced mod q and
    evaluated at every assignment with modular powers; the assignment
    solves it when the value is 0 mod q."""
    nv = r * n
    total = q ** nv
    if total > cap:
        raise CapExceededError(f"{total} assignments exceed cap {cap}")
    systems = []
    for eq in equations:
        terms = []
        for exp, c in eq.terms.items():
            assert Fraction(c).denominator == 1, c
            terms.append((int(c) % q, [(i, e) for i, e in enumerate(exp) if e]))
        systems.append(terms)

    def solves(a, terms):
        value = 0
        for c, factors in terms:
            for i, e in factors:
                c = c * pow(a[i], e, q)
            value += c
        return value % q == 0

    return sum(1 for a in product(range(q), repeat=nv)
               if all(solves(a, terms) for terms in systems))


def expand_scheme_substitute(X, q, r):
    """The expanded scheme of a VarietySpec by MultiPoly substitution: t is
    one more variable, each defining polynomial mod q becomes a MultiPoly
    in x_1..x_n, t, x_i = sum_g a_{i,g} t^g is substituted into it over Z,
    and the terms are grouped by t-power with coefficients reduced mod q.
    One MultiPoly per t-power with a nonzero term, ascending, per defining
    polynomial, in the variables a_{1,0}, ..., a_{n,r-1}."""
    from nonarch_lab.arith_core import MultiPoly

    nv = r * X.n
    generic = []
    for i in range(X.n):
        terms = {}
        for g in range(r):
            exp = [0] * (nv + 1)
            exp[i * r + g], exp[nv] = 1, g
            terms[tuple(exp)] = 1
        generic.append(MultiPoly(nv + 1, terms))
    generic.append(MultiPoly.variable(nv + 1, nv))
    equations = []
    for poly in X.reduce_mod(q):
        f = MultiPoly(X.n + 1, {exp + (k,): c for cs, exp in poly
                                for k, c in enumerate(cs)})
        by_power = {}
        for exp, c in substitute(f, generic).terms.items():
            if c % q:
                by_power.setdefault(exp[nv], {})[exp[:nv]] = c % q
        equations.extend(MultiPoly(nv, by_power[k]) for k in sorted(by_power))
    return equations


def substitute(poly, args):
    """The MultiPoly poly with the MultiPoly args put for its variables,
    term by term: each power args[j]^e is formed once."""
    from nonarch_lab.arith_core import MultiPoly

    nv = args[0].nvars
    acc = MultiPoly(nv, {})
    powers = {}
    for exp, c in poly.terms.items():
        t = MultiPoly.constant(nv, c)
        for j, e in enumerate(exp):
            if e:
                if (j, e) not in powers:
                    powers[j, e] = args[j] ** e
                t = t * powers[j, e]
        acc = acc + t
    return acc


def minimal_monomial_generators(exps):
    """The minimal generators of the monomial ideal spanned by exps, each
    once, by testing every pair; sorted by total degree and then descending
    lexicographically, which is the grevlex order of nonarch_lab.hilbert."""
    gens = set(map(tuple, exps))
    minimal = [g for g in gens
               if not any(h != g and all(a <= b for a, b in zip(h, g)) for h in gens)]
    return sorted(minimal, key=lambda e: (-sum(e), e), reverse=True)


def compose(g, f):
    """The polynomial map g after f, its components by MultiPoly
    substitution, on f's domain; the tail floor is f's, else g's."""
    from nonarch_lab.errors import ConfigError
    from nonarch_lab.taylor import PolyMap

    if g.m != f.n:
        raise ConfigError("dimension mismatch in composition")
    comps = [substitute(c, f.components) for c in g.components]
    return PolyMap(f.m, g.n, comps, domain=f.domain,
                   tail_floor=f.tail_floor if f.tail_floor is not None else g.tail_floor)


def epsilon_of(m, n, d):
    """The covering exponent m V / e as an exact rational."""
    from nonarch_lab.combinatorics import V_of, e_of

    return Fraction(m * V_of(n, d), e_of(m, n, d))


def compare_order(a, b):
    """-1, 0, +1 as a precedes, equals or follows b in the monomial order
    of nonarch_lab.hilbert, read from its sort key."""
    from nonarch_lab.errors import ConfigError
    from nonarch_lab.hilbert import grevlex_key

    if len(a) != len(b):
        raise ConfigError("exponent arity mismatch")
    ka, kb = grevlex_key(a), grevlex_key(b)
    return -1 if ka < kb else (0 if ka == kb else 1)


def power_compose_terms(components, N, b):
    """The components of x |-> f(b * x^N) as dicts exponent -> coefficient,
    f's components given as such dicts: every term c x^e scaled by the
    Fraction product of b_i^e_i, one factor per coordinate, and added at
    N e, zero sums dropped.  b is one value for every coordinate or a tuple
    of them."""
    out = []
    for terms in components:
        m = len(next(iter(terms))) if terms else 0
        bs = b if isinstance(b, tuple) else (b,) * m
        acc = {}
        for exp, c in terms.items():
            scale = Fraction(1)
            for bi, e in zip(bs, exp):
                scale *= Fraction(bi) ** e
            new = tuple(N * e for e in exp)
            acc[new] = acc.get(new, Fraction(0)) + Fraction(c) * scale
        out.append({e: c for e, c in acc.items() if c})
    return out

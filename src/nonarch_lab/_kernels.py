"""Hot enumeration kernels over exact int64 modular arithmetic.

Two loops dominate runtime in this package: the count of F_q[t]-points of
a variety, and the residue-pair sweep behind exhaustive Taylor-approximation
checks.  The F_q[t] count reads the equations as VarietySpec.reduce_mod
gives them and lifts assignments level by level in t: at level k the
t-coefficients below k already vanish on the frontier, so only the t^k
coefficient is evaluated, and for k >= 1 it is affine in the new digits,
[t^k]F(x^{<k} + a_k t^k) = [t^k]F(x^{<k}) + J(a_0)·a_k.  One evaluator,
_series, gives every coefficient the count checks, as truncated t-series
convolutions of the digit columns the lifting carries: the levels, J and
the t-powers past t^(r-1) on the survivors of the last level.  It and
ffcount.expand read every power from power_plan: over F_q[t], x(t)^q =
x(t^q), so x^e is prod_j x(t^(q^j))^(e_j) over the base-q digits e_j of e,
at most (q - 1)(log_q e + 1) factors instead of e.  The depth-k
frontier of that lift, read with its digits below k, holds the degree-<k
candidates, so one lift per field size counts every requested degree
bound: each smaller bound k gets its t-powers past t^(k-1) checked on the
jets that reach depth k, which are then lifted further.  The pair
sweep works modulo p^s (s the p-denominator exponent of the divided
derivatives).  Both are block-vectorized numpy.

Throughout the package, numpy is imported inside the functions that build
arrays, never at module top, so subcommands that build no array start
without it.

Everything here is exact: int64 arrays are used only while products of two
residues stay below 2^62 (int64_safe); past that the pair sweep runs the
same code on numpy object arrays of Python ints.
"""

from __future__ import annotations

from .errors import CapExceededError

INT64_SAFE_MOD = 1 << 31  # products of two residues stay below 2^62
INT64_MAX = (1 << 63) - 1
LIFT_BLOCK = 1 << 15  # extensions per block in the t-adic lifting


def backend():
    return "numpy"


# ---------------------------------------------------------------------------
# F_q[t] point-count kernel
#
# Equations come in the reduced format of VarietySpec.reduce_mod: per
# equation a list of (cs, exps) terms, cs the t-adic coefficients (mod q)
# of the term's F_q[t]-coefficient and exps its monomial exponents.  An
# assignment is held as a digit column of n*r entries: the entry at
# i*r + g is the t^g coefficient a_{i,g} of coordinate i.  Its index, in
# base q with the same digit order, is formed only for the solutions.
# ---------------------------------------------------------------------------

def power_plan(q, exps):
    """The factors of prod_i x_i^(exps[i]) over F_q[t], as (i, step) pairs:
    e_j pairs (i, q^j) per base-q digit e_j of exps[i].  A factor (i, s)
    is sum_g a_{i,g}^s t^(g s), by Frobenius (q is prime)."""
    plan = []
    for i, e in enumerate(exps):
        step = 1
        while e:
            e, digit = divmod(e, q)
            plan += [(i, step)] * digit
            step *= q
    return plan


def _series(q, r, terms, digits, known, lo, hi):
    """The t^lo .. t^(hi-1) coefficients mod q of one reduced equation at
    the assignments whose digit columns are `digits` (shape (n*r, N)), as
    an array of shape (hi - lo, N).  Coordinate i is read as the truncated
    t-series sum_{g<known} a_{i,g} t^g, so only the digits of the first
    `known` levels matter.  Each term is its t-coefficients times one
    convolution per power_plan factor (i, s), digit g at offset g*s since
    a^s = a on F_q, cut at t^hi; the last factor forms only the
    coefficients from t^lo on.  Both operands of every product are reduced
    mod q, and each product is added to a reduced value, so int64 holds
    every value whenever q < 2^31."""
    import numpy as np

    out = np.zeros((hi - lo, digits.shape[1]), dtype=np.int64)
    for cs, exps in terms:
        factors = power_plan(q, exps)
        # series holds the t^off .. t^(off + len(series) - 1) coefficients
        off = next((k for k, c in enumerate(cs) if c), hi)
        series = np.array(cs[off:hi], dtype=np.int64)[:, None]
        for j, (i, s) in enumerate(factors):
            if not len(series):
                break
            start = max(off, lo if j == len(factors) - 1 else 0)
            end = min(off + len(series) + (known - 1) * s, hi)
            prod = np.zeros((max(end - start, 0), digits.shape[1]), dtype=np.int64)
            for g in range(known):
                a, b = max(start, off + g * s), min(end, off + len(series) + g * s)
                if a < b:
                    view = prod[a - start:b - start]
                    view += series[a - off - g * s:b - off - g * s] * digits[i * r + g]
                    view %= q
            series, off = prod, start
        a, b = max(lo, off), min(hi, off + len(series))
        if a < b:
            view = out[a - lo:b - lo]
            view += series[a - off:b - off]
            view %= q
    return out


def ff_count(q, r, n, equations, want_indices=False, below=None):
    """Count assignments solving every equation over F_q, exactly;
    equations in the reduced format above.

    Depth-first t-adic lifting from the empty jet, on digit columns.
    Level k extends each frontier jet (its digits of levels < k, under
    which the t-coefficients below k of every equation vanish) by each of
    the q^n choices a_k of the t^k coefficients of all n coordinates, and
    keeps the extensions whose t^k coefficients vanish: only that
    coefficient can newly fail.  Level 0 evaluates it on the choices.  For
    k >= 1 it is affine in a_k, [t^k]F(x^{<k} + a_k t^k) = [t^k]F(x^{<k})
    + J(a_0)·a_k, with J(a_0) the partial derivatives at t^0: both are
    evaluated once per block of jets, and a block of jets times choices is
    a broadcast of base + J·a_k.  The survivors of the last level are
    checked on the t-powers >= r of the equations whose expansion reaches
    that far.  _series computes every coefficient.  Jets and choices are
    sliced so that no block holds more than LIFT_BLOCK extensions.
    Returns count, or (count, sorted indices array) when want_indices is
    set.

    The frontier at depth k < r holds, read with its digits below k, the
    degree-<k assignments whose t-powers below k vanish, so the same lift
    counts every smaller degree bound on the way: below maps such bounds
    k to counts, and each block of jets that reaches a depth k in below
    gets the check that ff_count(q, k, ...) runs on its last level, the
    t-powers >= k with the digits below k, adds its survivors to below[k]
    and is lifted further whole.  Keys outside 1..r-1 are left alone.
    """
    import numpy as np

    if q >= INT64_SAFE_MOD or q ** (r * n) > INT64_MAX:
        raise CapExceededError(
            f"q = {q}, r*n = {r * n}: int64 needs q < 2^31 and q^(r*n) < 2^63, which "
            f"bounds the choice range q^n, the lift depth r and the indices")
    # in 0 variables the empty tuple is the one assignment at every degree
    # bound, and depth 1 checks all its t-powers: no r-deep recursion
    same, r = ([k for k in below or () if 1 <= k < r], 1) if n == 0 else ((), r)

    def tail_checks(k):
        """(terms, one past its highest t-power) of each equation whose
        expansion at degree bound k passes t^(k-1)."""
        out = []
        for terms in equations:
            top = max((len(cs) + sum(exps) * (k - 1) for cs, exps in terms), default=0)
            if top > k:
                out.append((terms, top))
        return out

    # per equation, (i, terms of [t^0] dF/dx_i) for each x_i it has
    jacobian = []
    for terms in equations:
        row = []
        for i in range(n):
            d = [([exps[i] * cs[0] % q], exps[:i] + (exps[i] - 1,) + exps[i + 1:])
                 for cs, exps in terms if cs and exps[i] * cs[0] % q]
            if d:
                row.append((i, d))
        jacobian.append(row)
    tails = {k: tail_checks(k) for k in below or () if 1 <= k < r}
    tails[r] = tail_checks(r)
    choices = q ** n
    step = min(choices, LIFT_BLOCK)
    rows = max(1, LIFT_BLOCK // step)
    found = []

    def choice_block(c0):
        c = np.arange(c0, min(c0 + step, choices), dtype=np.int64)
        digits = np.empty((n, len(c)), dtype=np.int64)
        for i in range(n):
            digits[i] = c % q
            c //= q
        return digits

    # the only block unless q^n > LIFT_BLOCK; past that every jet runs
    # through all blocks in turn, so they are rebuilt rather than held
    first = choice_block(0)

    def choice_blocks():
        for c0 in range(0, choices, step):
            yield first if c0 == 0 else choice_block(c0)

    def vanishing(jets, known, lo, checks):
        """The columns of jets at which each (terms, hi) of checks has its
        t^lo .. t^(hi-1) coefficients zero."""
        for terms, hi in checks:
            jets = jets[:, ~_series(q, r, terms, jets, known, lo, hi).any(axis=0)]
            if not jets.shape[1]:
                break
        return jets

    def lift(jets, k):
        if k < r and k in tails:
            below[k] += vanishing(jets, k, k, tails[k]).shape[1]
        if k == r:
            jets = vanishing(jets, r, r, tails[r])
            found.append(q ** np.arange(r * n, dtype=np.int64) @ jets
                         if want_indices else jets.shape[1])
            return
        for f0 in range(0, jets.shape[1], rows):
            block = jets[:, f0:f0 + rows]
            base = [_series(q, r, terms, block, k, k, k + 1)[0] for terms in equations]
            jac = [[(i, _series(q, r, d, block, 1, 0, 1)[0]) for i, d in row]
                   for row in jacobian]
            for new in choice_blocks():
                ok = np.ones((block.shape[1], new.shape[1]), dtype=bool)
                for b, row in zip(base, jac):
                    val = b[:, None]
                    for i, d in row:
                        val = (val + d[:, None] * new[i]) % q
                    ok &= val == 0
                f, c = np.nonzero(ok)
                if len(f):
                    sub = block[:, f]
                    sub[k::r] = new[:, c]
                    lift(sub, k + 1)

    level0 = [(terms, 1) for terms in equations]
    for new in choice_blocks():
        jets = np.zeros((r * n, new.shape[1]), dtype=np.int64)
        jets[::r] = new
        jets = vanishing(jets, 1, 0, level0)
        if jets.shape[1]:
            lift(jets, 1)
    count = sum(map(len, found)) if want_indices else sum(found)
    for k in same:
        below[k] += count
    if not want_indices:
        return count
    indices = np.sort(np.concatenate(found)) if found else np.zeros(0, dtype=np.int64)
    return len(indices), indices


# ---------------------------------------------------------------------------
# Taylor residue-pair sweep
#
# table[y, j] holds p^s times the j-th divided derivative at residue y,
# modulo `mod` = p^s, where s is the p-denominator exponent of the divided
# derivatives.  The remainder half of the Taylor property asks that the
# factored remainder  S_y(h) = sum_{j>=r} g_j(y) h^(j-r)  have valuation
# >= 0 at h = x - y for every ordered residue pair, i.e. that p^s * S_y(h)
# vanish modulo p^s.  With s = 0 the modulus is 1 and nothing can fail.
# ---------------------------------------------------------------------------

SWEEP_BLOCK = 1 << 16  # int64 entries per block of the 2-D Horner


def tr_pair_sweep(table, xs, mod, r):
    """First residue pair (y, x), x != y, at which the factored remainder is
    nonzero modulo mod, or (-1, -1); scan order is ascending y then
    ascending x.  A 2-D Horner runs over blocks of y rows by all residues.
    table and xs are int64 arrays when int64_safe(mod), object arrays of
    Python ints otherwise; the same code is exact on both."""
    import numpy as np

    if mod == 1:
        return -1, -1
    R, J = table.shape
    xs = xs % mod
    rows = max(1, SWEEP_BLOCK // R)
    for y0 in range(0, R, rows):
        y1 = min(y0 + rows, R)
        h = xs[None, :] - xs[y0:y1, None]
        h %= mod
        val = np.zeros_like(h)
        for j in range(J - 1, r - 1, -1):
            val *= h
            val += table[y0:y1, j, None]
            val %= mod
        val[np.arange(y1 - y0), np.arange(y0, y1)] = 0
        bad = val.ravel() != 0
        first = int(bad.argmax())
        if bad[first]:
            return y0 + first // R, first % R
    return -1, -1


def int64_safe(mod):
    return mod < INT64_SAFE_MOD

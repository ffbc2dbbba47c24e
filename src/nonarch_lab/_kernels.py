"""Hot enumeration kernels over exact int64 modular arithmetic.

Two loops dominate runtime in this package: the count of F_q[t]-points of
a variety, and the residue-pair sweep behind exhaustive Taylor-approximation
checks.  The F_q[t] count reads the equations as VarietySpec.reduce_mod
gives them, the format expand_scheme reads too.  It lifts assignments
level by level in t (the t^k coefficient of an equation involves only
coordinate coefficients of degree <= k) and prunes every branch whose low
coefficients do not vanish.  The pair sweep works modulo p^s (s the
p-denominator exponent of the divided derivatives).  Both are
block-vectorized numpy.

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
LIFT_BLOCK = 1 << 15  # assignment indices per array in the t-adic lifting


def backend():
    return "numpy"


# ---------------------------------------------------------------------------
# F_q[t] point-count kernel
#
# Equations come in the reduced format of VarietySpec.reduce_mod: per
# equation a list of (cs, exps) terms, cs the t-adic coefficients (mod q)
# of the term's F_q[t]-coefficient and exps its monomial exponents.  An
# assignment index encodes the n*r coordinate coefficients in base q: the
# digit at position i*r + g is the t^g coefficient of coordinate i.
# ---------------------------------------------------------------------------

def _ff_count_numpy_chunk(q, r, n, equations, idx, upto=None):
    """Vectorized evaluation of all equations on a chunk of assignment
    indices; returns the mask of those whose t-coefficients below upto (all
    of them when upto is None) vanish.  Coefficient j depends only on
    coordinate levels <= j, so digits of levels not yet chosen may be 0.
    Each equation is expanded only up to its own length, the largest
    len(cs) + sum(exps) * (r - 1) over its terms."""
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
        limit = max((len(cs) + sum(exps) * (r - 1) for cs, exps in terms),
                    default=0)
        if upto is not None:
            limit = min(limit, upto)
        acc = np.zeros((limit, chunk), dtype=np.int64)
        for cs, exps in terms:
            cur = min(len(cs), limit)
            poly = np.array(cs[:cur], dtype=np.int64)[:, None]
            for i, e in enumerate(exps):
                for _ in range(e):
                    new_len = min(cur + r - 1, limit)
                    out = np.zeros((new_len, chunk), dtype=np.int64)
                    for b in range(min(r, new_len)):
                        width = min(cur, new_len - b)
                        out[b:b + width] = (out[b:b + width]
                                            + poly[:width] * digits[i, b]) % q
                    poly, cur = out, new_len
            acc[:cur] = (acc[:cur] + poly) % q
        mask &= ~np.any(acc, axis=0)
        if not mask.any():
            break
    return mask


def ff_count(q, r, n, equations, want_indices=False):
    """Count assignments solving every equation over F_q, exactly;
    equations in the reduced format above.

    Depth-first t-adic lifting from index 0: level k adds each of the q^n
    choices of the t^k coefficients of all n coordinates and keeps the
    indices whose t-coefficients below k + 1 vanish; the last level checks
    every coefficient.  Frontier and choices are sliced so that no array
    holds more than LIFT_BLOCK indices.  Returns count, or (count, sorted
    indices array) when want_indices is set.
    """
    import numpy as np

    if q >= INT64_SAFE_MOD or q ** (r * n) > INT64_MAX:
        raise CapExceededError(
            f"q = {q}, r*n = {r * n}: assignment indices exceed int64")
    choices = q ** n
    step = min(choices, LIFT_BLOCK)
    rows = max(1, LIFT_BLOCK // step)
    digit_weights = q ** (np.arange(n, dtype=np.int64) * r)
    leaves = []

    def lift(frontier, k):
        last = k >= r - 1
        for c0 in range(0, choices, step):
            c = np.arange(c0, min(c0 + step, choices), dtype=np.int64)
            offsets = np.zeros_like(c)
            for w in digit_weights:
                offsets += (c % q) * w
                c //= q
            offsets *= q ** k
            for f0 in range(0, len(frontier), rows):
                cand = (frontier[f0:f0 + rows, None] + offsets).ravel()
                mask = _ff_count_numpy_chunk(q, r, n, equations, cand,
                                             None if last else k + 1)
                if not mask.any():
                    continue
                if not last:
                    lift(cand[mask], k + 1)
                elif want_indices:
                    leaves.append(cand[mask])
                else:
                    leaves.append(int(np.count_nonzero(mask)))

    lift(np.zeros(1, dtype=np.int64), 0)
    if not want_indices:
        return sum(leaves)
    indices = np.sort(np.concatenate(leaves)) if leaves else np.zeros(0, dtype=np.int64)
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

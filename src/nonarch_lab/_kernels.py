"""Hot enumeration kernels over exact int64 modular arithmetic.

Two loops dominate runtime in this package: the count of F_q[t]-points of
a variety, and the residue-pair sweep behind exhaustive Taylor-approximation
checks.  The F_q[t] count lifts assignments level by level in t (the t^k
coefficient of an equation involves only coordinate coefficients of degree
<= k) and prunes every branch whose low coefficients do not vanish.  The
pair sweep works modulo p^s (s the p-denominator exponent of the divided
derivatives).  Both are block-vectorized numpy.

Everything here is exact: int64 arrays are used only while products of two
residues stay below 2^62 (int64_safe); past that the pair sweep runs the
same code on numpy object arrays of Python ints.
"""

from __future__ import annotations

import numpy as np

from .errors import CapExceededError

INT64_SAFE_MOD = 1 << 31  # products of two residues stay below 2^62
INT64_MAX = (1 << 63) - 1
LIFT_BLOCK = 1 << 15  # assignment indices per array in the t-adic lifting


def backend():
    return "numpy"


# ---------------------------------------------------------------------------
# F_q[t] point-count kernel
#
# Equations are packed as flat term tables: term_coeffs[t] holds the t-adic
# coefficients (mod q) of the term's F_q[t]-coefficient, term_exps[t] the
# monomial exponents, eq_offsets delimits equations.  An assignment index
# encodes the n*r coordinate coefficients in base q: the digit at position
# i*r + g is the t^g coefficient of coordinate i.
# ---------------------------------------------------------------------------

def _ff_count_numpy_chunk(q, r, n, packed, idx, upto=None):
    """Vectorized evaluation of all equations on a chunk of assignment
    indices; returns the mask of those whose t-coefficients below upto (all
    of them when upto is None) vanish.  Coefficient j depends only on
    coordinate levels <= j, so digits of levels not yet chosen may be 0."""
    term_coeffs, term_lens, term_exps, eq_offsets, res_len = packed
    limit = res_len if upto is None else min(upto, res_len)
    chunk = idx.shape[0]
    digits = np.empty((n, r, chunk), dtype=np.int64)
    v = idx.copy()
    for i in range(n):
        for g in range(r):
            digits[i, g] = v % q
            v //= q
    mask = np.ones(chunk, dtype=bool)
    n_eq = len(eq_offsets) - 1
    for e in range(n_eq):
        acc = np.zeros((limit, chunk), dtype=np.int64)
        for t in range(eq_offsets[e], eq_offsets[e + 1]):
            cur = min(int(term_lens[t]), limit)
            poly = np.broadcast_to(
                term_coeffs[t, :cur, None], (cur, chunk)).copy()
            for i in range(n):
                for _ in range(int(term_exps[t, i])):
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


def pack_equations(eq_terms, q, r, n):
    """Pack [(coeff_list_mod_q, exp_tuple), ...] per equation into flat
    int64 tables; returns (term_coeffs, term_lens, term_exps, eq_offsets,
    res_len)."""
    all_terms = []
    offsets = [0]
    for terms in eq_terms:
        all_terms.extend(terms)
        offsets.append(len(all_terms))
    if not all_terms:
        return (np.zeros((0, 1), dtype=np.int64), np.zeros(0, dtype=np.int64),
                np.zeros((0, n), dtype=np.int64),
                np.array(offsets, dtype=np.int64), 1)
    res_len = 1
    clen_max = 1
    for coeffs, exps in all_terms:
        clen = max(len(coeffs), 1)
        clen_max = max(clen_max, clen)
        deg = clen - 1 + sum(exps) * (r - 1)
        res_len = max(res_len, deg + 1)
    term_coeffs = np.zeros((len(all_terms), max(clen_max, res_len)), dtype=np.int64)
    term_lens = np.zeros(len(all_terms), dtype=np.int64)
    term_exps = np.zeros((len(all_terms), n), dtype=np.int64)
    for t, (coeffs, exps) in enumerate(all_terms):
        cs = [c % q for c in coeffs] or [0]
        term_coeffs[t, :len(cs)] = cs
        term_lens[t] = len(cs)
        term_exps[t] = exps
    return term_coeffs, term_lens, term_exps, np.array(offsets, dtype=np.int64), res_len


def ff_count(q, r, n, packed, want_indices=False):
    """Count assignments solving every packed equation over F_q, exactly.

    Depth-first t-adic lifting from index 0: level k adds each of the q^n
    choices of the t^k coefficients of all n coordinates and keeps the
    indices whose t-coefficients below k + 1 vanish; the last level checks
    every coefficient.  Frontier and choices are sliced so that no array
    holds more than LIFT_BLOCK indices.  Returns count, or (count, sorted
    indices array) when want_indices is set.
    """
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
                mask = _ff_count_numpy_chunk(q, r, n, packed, cand,
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

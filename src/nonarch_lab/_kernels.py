"""Hot enumeration kernels over exact int64 modular arithmetic.

Two loops dominate runtime in this package: the q^(r*n) sweep counting
F_q[t]-points of a variety, and the residue-pair sweep behind exhaustive
Taylor-approximation checks.  The F_q[t] count runs under numba @njit when
numba is importable and on a numpy fallback otherwise; set
NONARCH_LAB_NO_NUMBA=1 to force the numpy path.  The pair sweep works
modulo p^s (s the p-denominator exponent of the divided derivatives) and
is block-vectorized numpy.

Everything here is exact: moduli are kept small enough that int64 products
cannot overflow (callers fall back to big-int Python code otherwise).
"""

from __future__ import annotations

import os

import numpy as np

INT64_SAFE_MOD = 1 << 31  # products of two residues stay below 2^62


def _numba_disabled():
    return os.environ.get("NONARCH_LAB_NO_NUMBA", "").strip() in ("1", "true", "yes")


try:
    if _numba_disabled():
        raise ImportError("numba disabled by NONARCH_LAB_NO_NUMBA")
    from numba import njit

    HAVE_NUMBA = True
except ImportError:
    njit = None
    HAVE_NUMBA = False


def backend():
    return "numba" if HAVE_NUMBA else "numpy"


# ---------------------------------------------------------------------------
# F_q[t] point-count kernel
#
# Equations are packed as flat term tables: term_coeffs[t] holds the t-adic
# coefficients (mod q) of the term's F_q[t]-coefficient, term_exps[t] the
# monomial exponents, eq_offsets delimits equations.  An assignment index
# encodes the n*r coordinate coefficients in base q.
# ---------------------------------------------------------------------------

def _ff_count_core_py(q, r, n, term_coeffs, term_lens, term_exps, eq_offsets,
                      res_len, start, stop):
    count = 0
    n_eq = len(eq_offsets) - 1
    xc = np.zeros((n, r), dtype=np.int64)
    acc = np.zeros(res_len, dtype=np.int64)
    buf = np.zeros(res_len, dtype=np.int64)
    tmp = np.zeros(res_len, dtype=np.int64)
    for idx in range(start, stop):
        v = idx
        for i in range(n):
            for g in range(r):
                xc[i, g] = v % q
                v //= q
        good = True
        for e in range(n_eq):
            for k in range(res_len):
                acc[k] = 0
            for t in range(eq_offsets[e], eq_offsets[e + 1]):
                cur = term_lens[t]
                for k in range(cur):
                    buf[k] = term_coeffs[t, k]
                for i in range(n):
                    for _ in range(term_exps[t, i]):
                        new_len = min(cur + r - 1, res_len)
                        for k in range(new_len):
                            tmp[k] = 0
                        for a in range(cur):
                            ba = buf[a]
                            if ba == 0:
                                continue
                            for b in range(r):
                                tmp[a + b] = (tmp[a + b] + ba * xc[i, b]) % q
                        cur = new_len
                        for k in range(cur):
                            buf[k] = tmp[k]
                for k in range(cur):
                    acc[k] = (acc[k] + buf[k]) % q
            for k in range(res_len):
                if acc[k] != 0:
                    good = False
                    break
            if not good:
                break
        if good:
            count += 1
    return count


if HAVE_NUMBA:
    _ff_count_core = njit(cache=False, nogil=True)(_ff_count_core_py)
else:
    _ff_count_core = None


def _ff_count_numpy_chunk(q, r, n, packed, idx):
    """Vectorized evaluation of all equations on a chunk of assignment
    indices; returns the boolean solution mask."""
    term_coeffs, term_lens, term_exps, eq_offsets, res_len = packed
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
        acc = np.zeros((res_len, chunk), dtype=np.int64)
        for t in range(eq_offsets[e], eq_offsets[e + 1]):
            cur = int(term_lens[t])
            poly = np.broadcast_to(
                term_coeffs[t, :cur, None], (cur, chunk)).copy()
            for i in range(n):
                for _ in range(int(term_exps[t, i])):
                    new_len = min(cur + r - 1, res_len)
                    out = np.zeros((new_len, chunk), dtype=np.int64)
                    for b in range(r):
                        out[b:b + cur] = (out[b:b + cur] + poly * digits[i, b]) % q
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


def ff_count(q, r, n, packed, threads=1, want_indices=False, chunk=1 << 15):
    """Count assignments solving every packed equation over F_q, exactly.

    Returns count, or (count, indices array) when want_indices is set (the
    numpy path is used in that case regardless of backend).
    """
    term_coeffs, term_lens, term_exps, eq_offsets, res_len = packed
    total = q ** (r * n)

    if want_indices:
        found = []
        for s in range(0, total, chunk):
            idx = np.arange(s, min(s + chunk, total), dtype=np.int64)
            mask = _ff_count_numpy_chunk(q, r, n, packed, idx)
            found.append(idx[mask])
        indices = np.concatenate(found) if found else np.zeros(0, dtype=np.int64)
        return len(indices), indices

    def run_range(s, e):
        if HAVE_NUMBA:
            return _ff_count_core(q, r, n, term_coeffs, term_lens, term_exps,
                                  eq_offsets, res_len, s, e)
        c = 0
        for cs in range(s, e, chunk):
            idx = np.arange(cs, min(cs + chunk, e), dtype=np.int64)
            c += int(_ff_count_numpy_chunk(q, r, n, packed, idx).sum())
        return c

    if threads <= 1 or total < 4 * chunk:
        return run_range(0, total)

    from concurrent.futures import ThreadPoolExecutor

    block = -(-total // threads)
    ranges = [(s, min(s + block, total)) for s in range(0, total, block)]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return sum(ex.map(lambda se: run_range(*se), ranges))


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
    ascending x.  A 2-D Horner runs over blocks of y rows by all residues."""
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


def tr_pair_sweep_bigint(table, xs, mod, r):
    """Big-integer sweep for moduli beyond int64 safety; same contract as
    tr_pair_sweep, with table[y][j] and xs Python ints."""
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


def horner_values(coeffs_desc, xs, mod):
    """Evaluate one integer polynomial (descending coefficients) at all xs
    modulo mod, vectorized."""
    val = np.zeros(len(xs), dtype=np.int64)
    for c in coeffs_desc:
        val = (val * xs + c) % mod
    return val


def int64_safe(mod):
    return mod < INT64_SAFE_MOD

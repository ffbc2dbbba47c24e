"""Hot enumeration kernels over exact int64 modular arithmetic.

Two loops dominate runtime in this package: the count of F_q[t]-points of
a variety, and the residue-pair sweep behind exhaustive Taylor-approximation
checks.  The F_q[t] count reads the equations as VarietySpec.reduce_mod
gives them and expands them once, in integers mod q, by expand (which
expand_scheme reads too).  It lifts assignments level by level in t: at
level k the t-coefficients below k already vanish on the frontier, so only
the t^k coefficient is evaluated, and for k >= 1 it is affine in the new
digits, [t^k]F(x^{<k} + a_k t^k) = [t^k]F(x^{<k}) + J(a_0)·a_k.  A block of
frontier jets times level-k choices is then one outer product per group of
monomials; the coefficients past t^(r-1) are checked on the survivors of
the last level.  The pair sweep works modulo p^s (s the p-denominator
exponent of the divided derivatives).  Both are block-vectorized numpy.

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
# digit at position i*r + g is the t^g coefficient a_{i,g} of coordinate i.
# Monomials in these r*n variables are exponent tuples in the same
# variable-major order, a_{1,0}, a_{1,1}, ..., a_{n,r-1}.
# ---------------------------------------------------------------------------

def expand(q, r, n, terms, below=None):
    """t-expansion of one reduced equation under x_i = sum_{g<r} a_{i,g} t^g,
    in integers mod q: a dict mapping each t-power k to the t^k coefficient,
    itself a dict monomial -> nonzero coefficient mod q.  Powers with no
    nonzero term are absent, and so are powers >= below when it is given
    (no term of a power < below is lost: factors only raise the t-power).
    Reduction Z -> F_q is a ring map, so reducing as the products are
    formed changes nothing."""
    zero = (0,) * (r * n)
    acc = {}
    for cs, exps in terms:
        poly = {(k, zero): c for k, c in enumerate(cs[:below]) if c}
        for i, e in enumerate(exps):
            for _ in range(e):
                prod = {}
                for (k, mono), c in poly.items():
                    for g in range(r if below is None else min(r, below - k)):
                        v = i * r + g
                        key = (k + g, mono[:v] + (mono[v] + 1,) + mono[v + 1:])
                        prod[key] = prod.get(key, 0) + c
                poly = {key: c % q for key, c in prod.items()}
        for key, c in poly.items():
            acc[key] = acc.get(key, 0) + c
    by_power = {}
    for (k, mono), c in acc.items():
        if c % q:
            by_power.setdefault(k, {})[mono] = c % q
    return by_power


def _expansion_length(terms, r):
    """One more than the highest t-power an equation's expansion can reach."""
    return max((len(cs) + sum(exps) * (r - 1) for cs, exps in terms), default=0)


def _ff_count_numpy_chunk(q, r, n, equations, idx, upto=None):
    """Vectorized evaluation of all equations on a chunk of assignment
    indices; returns the mask of those whose t-coefficients below upto (all
    of them when upto is None) vanish.  Coefficient j depends only on
    coordinate levels <= j, so digits of levels not yet chosen may be 0.
    Each equation is expanded only up to its own length.  The lifting
    calls it on its last-level survivors; it is also the full-range
    evaluator the tests compare the lifting with."""
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
        limit = _expansion_length(terms, r)
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


def _level_terms(q, r, n, equations):
    """Per level k < r, per equation with a t^k term: its t^k coefficient
    with the terms grouped by their level-k factor, a list of pairs
    (level-k factors, [(coefficient, lower factors), ...]), factors being
    (variable, exponent) pairs; the level-k variable of coordinate i is
    named by i, a lower one by its position i*r + g.  For k >= 1 the t^k
    coefficient is affine in the level-k digits,
    [t^k]F(x^{<k} + a_k t^k) = [t^k]F(x^{<k}) + J(a_0)·a_k, so each
    level-k factor is () or one digit to the first power."""
    levels = [[] for _ in range(r)]
    for terms in equations:
        for k, monos in expand(q, r, n, terms, below=r).items():
            groups = {}
            for mono, c in monos.items():
                new = tuple([(i, e) for i, e in enumerate(mono[k::r]) if e])
                old = [(v, e) for v, e in enumerate(mono) if e and v % r < k]
                groups.setdefault(new, []).append((c, old))
            levels[k].append(list(groups.items()))
    return levels


def _lift_mask(q, equations, jets, choices):
    """Mask of shape (jets, choices) of the extensions at which the t^k
    coefficient of every equation vanishes; equations are one level of
    _level_terms, jets holds the frontier's digit columns with shape
    (n*r, nf, 1) and choices the level-k digits with shape (n, nc).  Each
    group adds one outer product, its lower factor over the frontier
    times its level-k factor over the choices; a factor with no digit
    stays a Python int.  Both operands of every product are reduced mod q
    first and a sum only adds reduced values, so int64 holds every value
    whenever q < 2^31."""
    import numpy as np

    ok = np.ones((jets.shape[1], choices.shape[1]), dtype=bool)
    for groups in equations:
        val = 0
        for new, old in groups:
            low = 0
            for c, factors in old:
                term = c
                for v, e in factors:
                    for _ in range(e):
                        term = term % q * jets[v]
                low = low + term % q
            for i, e in new:
                for _ in range(e):
                    low = low % q * choices[i]
            val = val + low % q
        ok &= val % q == 0
    return ok


def ff_count(q, r, n, equations, want_indices=False):
    """Count assignments solving every equation over F_q, exactly;
    equations in the reduced format above.

    Depth-first t-adic lifting from the empty jet.  Level k extends each
    frontier jet (its digits of levels < k, under which the t-coefficients
    below k of every equation vanish) by each of the q^n choices of the
    t^k coefficients of all n coordinates, and keeps the extensions whose
    t^k coefficients vanish: only that coefficient can newly fail, and it
    is evaluated from _level_terms, one outer product per group.  The
    frontier's digit columns and indices are carried down the recursion.
    Survivors of level r - 1 go through _ff_count_numpy_chunk with only
    the equations whose expansion reaches past t^(r-1): their t-powers
    >= r are all it can newly find nonzero.  Frontier and choices are
    sliced so that no block holds more than LIFT_BLOCK extensions.
    Returns count, or (count, sorted indices array) when want_indices is
    set.
    """
    import numpy as np

    if q >= INT64_SAFE_MOD or q ** (r * n) > INT64_MAX:
        raise CapExceededError(
            f"q = {q}, r*n = {r * n}: assignment indices exceed int64")
    levels = _level_terms(q, r, n, equations)
    tails = [terms for terms in equations if _expansion_length(terms, r) > r]
    choices = q ** n
    step = min(choices, LIFT_BLOCK)
    rows = max(1, LIFT_BLOCK // step)
    digit_weights = q ** (np.arange(n, dtype=np.int64) * r)
    leaves = []

    def choice_block(c0):
        c = np.arange(c0, min(c0 + step, choices), dtype=np.int64)
        digits = np.empty((n, len(c)), dtype=np.int64)
        for i in range(n):
            digits[i] = c % q
            c //= q
        return digits, digit_weights @ digits

    # the only block unless q^n > LIFT_BLOCK; past that every jet runs
    # through all blocks in turn, so they are rebuilt rather than held
    first = choice_block(0)

    def lift(idx, digits, k):
        for f0 in range(0, len(idx), rows):
            jets = digits[:, f0:f0 + rows]
            for c0 in range(0, choices, step):
                new, offsets = first if c0 == 0 else choice_block(c0)
                f, c = np.nonzero(_lift_mask(q, levels[k], jets[:, :, None], new))
                if not len(f):
                    continue
                sub = idx[f0 + f] + offsets[c] * q ** k
                if k < r - 1:
                    sub_digits = jets[:, f]
                    sub_digits[k::r] = new[:, c]
                    lift(sub, sub_digits, k + 1)
                    continue
                if tails:
                    sub = sub[_ff_count_numpy_chunk(q, r, n, tails, sub)]
                leaves.append(sub if want_indices else len(sub))

    lift(np.zeros(1, dtype=np.int64), np.zeros((r * n, 1), dtype=np.int64), 0)
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

import numpy as np
import pytest

import oracles
from nonarch_lab import _kernels
from nonarch_lab.arith_core import Ball
from nonarch_lab.errors import CapExceededError


# (p, s) per case: the sweep modulus is p^s
SWEEP_CASES = ((2, 3), (3, 2), (5, 1))


def _sweep_case(seed, p, s, R=300, J=7, r=2):
    """Residues mod p^9 and a sparse random table mod p^s whose remainder
    columns vanish on the whole first block of the 2-D Horner, so any
    violation lies past a block boundary.  Remainder entries carry random
    valuations, so some pairs (y, x) pass where x - y is divisible by p."""
    rng = np.random.default_rng(seed)
    mod = p ** s
    xs = rng.choice(p ** 9, size=R, replace=False).astype(np.int64)
    table = rng.integers(0, mod, size=(R, J), dtype=np.int64)
    table[:, r:] *= rng.random((R, J - r)) < 0.01
    table[:, r:] = table[:, r:] * p ** rng.integers(0, s, size=(R, J - r)) % mod
    table[:_kernels.SWEEP_BLOCK // R, r:] = 0
    return xs, table, mod, r


def _sweep(table, xs, mod, r):
    """The kernel's first failing pair on the int64 table and on object
    copies of it, both checked against the scalar oracle."""
    want = oracles.tr_pair_sweep_scalar(table.tolist(), xs.tolist(), mod, r)
    for dtype in (np.int64, object):
        got = _kernels.tr_pair_sweep(table.astype(dtype), xs.astype(dtype), mod, r)
        assert tuple(int(v) for v in got) == want, dtype
    return want


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("case", [0, 1, 2])
def test_pair_sweep_backends_agree(seed, case):
    p, s = SWEEP_CASES[case]
    xs, table, mod, r = _sweep_case(seed, p, s)
    want = _sweep(table, xs, mod, r)
    # the witness lies past the first block of the 2-D Horner
    assert want[0] >= _kernels.SWEEP_BLOCK // table.shape[0]
    # times p^64 modulo p^(s+64), past int64: p^64 * S vanishes modulo
    # p^(s+64) exactly when S vanishes modulo p^s, so the witness stays
    lift = p ** 64
    got = _kernels.tr_pair_sweep(table.astype(object) * lift, xs.astype(object),
                                 mod * lift, r)
    assert tuple(int(v) for v in got) == want


def test_pair_sweep_skips_diagonal_in_every_block():
    # S_y(h) = 1 + h mod 2 vanishes at every odd h; with xs[y] the only even
    # residue, only the excluded pair x = y (h = 0) is nonzero
    R, y = 300, 250
    assert y >= _kernels.SWEEP_BLOCK // R  # past the first block
    xs = np.arange(1, 2 * R, 2, dtype=np.int64)
    xs[y] = 0
    table = np.zeros((R, 5), dtype=np.int64)
    table[y, 2:4] = 1
    assert _sweep(table, xs, 2, 2) == (-1, -1)


def test_pair_sweep_witness_order_is_lexicographic():
    # plant a violation at (y=2, x=0) and a later one; the earlier wins
    mod = 3
    xs = np.array([0, 1, 2, 4], dtype=np.int64)
    table = np.zeros((4, 4), dtype=np.int64)
    table[2, 2] = 1   # S_y constant term nonzero mod p^s
    table[3, 2] = 1
    assert _sweep(table, xs, mod, 2) == (2, 0)
    # within a row the first failing x wins: S_0(h) = h vanishes mod 3 at
    # x = 1 (h = 3) and is nonzero at x = 2 (h = 1)
    xs = np.array([0, 3, 1, 2], dtype=np.int64)
    table[:] = 0
    table[0, 3] = 1
    assert _sweep(table, xs, mod, 2) == (0, 2)


def test_pair_sweep_mod_one_is_vacuous():
    # s = 0: every value is 0 modulo p^0, so no pair can fail
    rng = np.random.default_rng(5)
    xs = np.arange(50, dtype=np.int64)
    table = rng.integers(1, 100, size=(50, 6), dtype=np.int64)
    assert _sweep(table, xs, 1, 2) == (-1, -1)


def test_ff_count_lift_blocks_agree(monkeypatch):
    from conftest import ELLIPTIC, PARAB_T

    series = _kernels._series
    widths = []

    def bounded(q, r, terms, digits, known, lo, hi):
        # every coefficient is evaluated on one block of jets, of level-0
        # choices or of last-level survivors: never empty, never more
        # than LIFT_BLOCK digit columns
        assert 1 <= digits.shape[1] <= _kernels.LIFT_BLOCK
        widths.append(digits.shape[1])
        return series(q, r, terms, digits, known, lo, hi)

    monkeypatch.setattr(_kernels, "_series", bounded)
    for X, q, r in ((ELLIPTIC, 5, 2), (ELLIPTIC, 3, 3), (PARAB_T, 5, 3)):
        equations = X.reduce_mod(q)
        runs = []
        for block in (1, 7, 1 << 15):
            monkeypatch.setattr(_kernels, "LIFT_BLOCK", block)
            count, idx = _kernels.ff_count(q, r, X.n, equations, want_indices=True)
            assert count == _kernels.ff_count(q, r, X.n, equations)
            runs.append((count, idx.tolist()))
        assert runs[0] == runs[1] == runs[2] and runs[0][0] > 0
    assert 1 in widths and 7 in widths  # the small blocks were exercised


def test_power_plan_steps_are_base_q_digits():
    # per variable the steps sum to the exponent, each step a power of q
    # taken as often as the base-q digit at its place
    assert _kernels.power_plan(3, (5, 0, 9)) == [(0, 1), (0, 1), (0, 3), (2, 9)]
    assert _kernels.power_plan(2, (0, 0)) == []
    for q in (2, 3, 5, 7):
        powers = {q ** j for j in range(100)}  # q^99 > 10^30
        for exps in [(0, 1, q - 1), (q, q * q, q * q - 1), (10**4, 1, 0), (10**30,)]:
            plan = _kernels.power_plan(q, exps)
            for i, e in enumerate(exps):
                steps = [s for j, s in plan if j == i]
                assert sum(steps) == e, (q, exps, i)
                assert set(steps) <= powers, (q, exps, i)
                assert all(steps.count(s) < q for s in steps), (q, exps, i)


def test_ff_count_int64_guard():
    # x = 0 in one variable: one solution whatever the degree bound
    x = [[([1], (1,))]]
    assert _kernels.ff_count(2, 62, 1, x, want_indices=True)[0] == 1
    with pytest.raises(CapExceededError, match=r"q\^\(r\*n\) < 2\^63, which bounds the "
                                               r"choice range q\^n, the lift depth r and"):
        _kernels.ff_count(2, 63, 1, x)  # 2^63 indices overflow int64
    with pytest.raises(CapExceededError):
        _kernels.ff_count(_kernels.INT64_SAFE_MOD, 1, 1, x)  # residue products overflow


def test_int64_guard():
    assert _kernels.int64_safe(3 ** 8)
    assert not _kernels.int64_safe(2 ** 40)


def test_sweep_gets_residues_mod_p_s(monkeypatch):
    # a one-variable check hands the sweep the residues mod p^s of its
    # ball's classes mod p^(s + 1), in ball order, and a table of the same
    # length: int64 when int64_safe(p^s), Python ints in object arrays past
    # it
    from fractions import Fraction

    from nonarch_lab.taylor import PolyMap, check_Tr

    calls = []
    real = _kernels.tr_pair_sweep

    def spy(table, xs, mod, r):
        calls.append((table.dtype, xs.dtype, table.shape, xs.tolist(), mod))
        return real(table, xs, mod, r)

    monkeypatch.setattr(_kernels, "tr_pair_sweep", spy)
    for s, alpha, dtype in ((2, 1, np.int64), (25, 24, object)):
        ball = Ball(3, (1,), alpha)
        f = PolyMap.univariate([0, 0, 0, Fraction(1, 3 ** s)], domain=ball)
        calls.clear()
        check_Tr(f, 1)
        want = [x % 3 ** s for (x,) in oracles.ball_residues(ball, s + 1)]
        assert len(want) == 3 ** (s + 1 - alpha)
        [(table_dtype, xs_dtype, shape, xs, mod)] = calls
        assert (table_dtype, xs_dtype, shape, mod) == (dtype, dtype, (len(want), 4), 3 ** s)
        assert xs == want and all(type(x) is int for x in xs)

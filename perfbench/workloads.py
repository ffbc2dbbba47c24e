"""The four benchmark workloads: their inputs, their job lists and why each
was chosen.

A job is one call a user would make: a CLI subcommand run in-process through
``nonarch_lab.cli.main``, or, for suites that have no subcommand, one call
of the public library function behind the suite.  Every job returns
``(exit_code, report_bytes)``; the runner compares both with the goldens.
Library jobs serialize their result the way the CLI does (sorted, indented
JSON with exact values as strings), so one comparison covers both kinds.

Workloads (why each one is here):

ff-sparse
    ``count-ff`` on y^2 = x^3 - x over q in {5,7,11,13} for r = 1..3 with
    two threads: 6,778,236 sweep states per pass, almost all rejected.  The
    q^(rn) kernel does nearly all the work, so t-adic lifting, pruning and
    thread scaling show here.
tr-deep
    The criterion-11 gauss1a suite at K=8 (power maps of degree up to 128)
    plus one degree-7 ``taylor-check`` on 1+3Z_3: full residue-pair sweeps,
    so ``_kernels.tr_pair_sweep`` dominates.  Mahler's criterion shows here.
cover
    ``det-cover`` for y = x^2 at T=100, ``heights`` on the circle at T=100,
    seeded determinant-valuation trials and auxiliary polynomials on
    (u, u^3): the Fraction height grid and the exact linear algebra.
    Fibred height enumeration and Bareiss elimination show here.
lab-mix
    Small single-threaded jobs that use the same layers the other way:
    dense counts, low-degree and failing T_r checks, the multivariate
    exact path, rational and polynomial heights, Hilbert tables and the
    bounds constants.  Fixed per-job costs dominate; a gain on one use that
    costs another shows here.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# ---------------------------------------------------------------------------
# input files, written into the work directory during set-up
# ---------------------------------------------------------------------------


def _poly(*terms):
    """[(exp, coeff), ...] -> the CLI's polynomial-over-Q schema."""
    return [{"exp": list(e), "coeff": str(c)} for e, c in terms]


ELLIPTIC = {
    "name": "y^2=x^3-x", "n": 2, "m": 1, "d": 3, "irreducible": True,
    "polynomials": [[{"exp": [0, 2], "coeff": [1]}, {"exp": [3, 0], "coeff": [-1]},
                     {"exp": [1, 0], "coeff": [1]}]],
}
LINE = {
    "name": "x+y=0", "n": 2, "m": 1, "d": 1, "irreducible": True,
    "polynomials": [[{"exp": [1, 0], "coeff": [1]}, {"exp": [0, 1], "coeff": [1]}]],
}
PARABOLA_T = {
    "name": "y=x^2+tx", "n": 2, "m": 1, "d": 2, "irreducible": True,
    "polynomials": [[{"exp": [0, 1], "coeff": [1]}, {"exp": [2, 0], "coeff": [-1]},
                     {"exp": [1, 0], "coeff": [0, -1]}]],
}
CIRCLE = {
    "vars": 2,
    "equations": [_poly(((2, 0), 1), ((0, 2), 1), ((0, 0), -1))],
}
COVER = {
    "curve": {"vars": 2, "equations": [_poly(((0, 1), 1), ((2, 0), -1))]},
    "psi": {"m": 1, "n": 2, "p": 3,
            "components": [_poly(((1,), 1)), _poly(((2,), 1))],
            "domain": {"center": ["0"], "alpha": 0}},
    "T": 100, "d": 2, "p": 3,
}
# f = 2 - x + 4x^2 + 5x^4 - 3x^5 + x^6 + 7x^7 on the ball 1 + 3Z_3
TR_DEG7 = {
    "m": 1, "n": 1, "p": 3,
    "components": [_poly(((0,), 2), ((1,), -1), ((2,), 4), ((4,), 5),
                         ((5,), -3), ((6,), 1), ((7,), 7))],
    "domain": {"center": ["1"], "alpha": 1},
}
TR_X2 = {
    "m": 1, "n": 1, "p": 3,
    "components": [_poly(((2,), 1))],
    "domain": {"center": ["0"], "alpha": 0},
}
TR_BINOMIAL = {
    "m": 1, "n": 1, "p": 2,
    "components": [_poly(((1,), "-1/2"), ((2,), "1/2"))],
    "domain": {"center": ["0"], "alpha": 0},
}
TR_2D_HOLDS = {
    "m": 2, "n": 1, "p": 3,
    "components": [_poly(((2, 1), 1), ((0, 3), 1), ((1, 0), 3))],
    "domain": {"center": ["0", "0"], "alpha": 0},
}
TR_2D_HALF = {
    "m": 2, "n": 1, "p": 2,
    "components": [_poly(((2, 0), "1/2"), ((0, 1), 1))],
    "domain": {"center": ["0", "0"], "alpha": 0},
}
CONIC = {"vars": 3, "generators": [_poly(((1, 0, 1), 1), ((0, 2, 0), -1))]}
TWISTED_CUBIC = {
    "vars": 4,
    "generators": [_poly(((1, 0, 1, 0), 1), ((0, 2, 0, 0), -1)),
                   _poly(((0, 1, 0, 1), 1), ((0, 0, 2, 0), -1)),
                   _poly(((1, 0, 0, 1), 1), ((0, 1, 1, 0), -1))],
}

INPUT_FILES = {
    "elliptic.json": ELLIPTIC,
    "line.json": LINE,
    "parabola_t.json": PARABOLA_T,
    "circle.json": CIRCLE,
    "cover.json": COVER,
    "tr_deg7.json": TR_DEG7,
    "tr_x2.json": TR_X2,
    "tr_binomial.json": TR_BINOMIAL,
    "tr_2d_holds.json": TR_2D_HOLDS,
    "tr_2d_half.json": TR_2D_HALF,
    "conic.json": CONIC,
    "twisted_cubic.json": TWISTED_CUBIC,
}


def write_inputs(workdir):
    for name, data in INPUT_FILES.items():
        with open(os.path.join(workdir, name), "w") as fh:
            json.dump(data, fh)


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------


@dataclass
class Job:
    id: str
    run: Callable[[], tuple]
    cli: bool = False


def report_bytes(obj):
    """Serialize a library result the way the CLI serializes reports."""
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


def cli_job(job_id, workdir, argv):
    """A CLI job; argv names input files relative to the work directory."""
    from nonarch_lab import cli

    argv = [os.path.join(workdir, a) if a.endswith(".json") else a for a in argv]

    def run():
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
        return code, out.getvalue().encode()

    return Job(job_id, run, cli=True)


# Library jobs call module.function at run time, so the tracer's wrappers
# are the ones called.

def gauss1a_job(p, r, coeffs, name):
    from nonarch_lab import taylor

    def run():
        rep = taylor.verify_gauss1a(taylor.PolyMap.univariate(coeffs), r, p,
                                    i_max=2 * r, K=8)
        return (0 if rep.all_hold else 1), report_bytes(rep.to_json())

    return Job(f"gauss1a-p{p}-r{r}-{name}", run)


def aux_job(d, k):
    from nonarch_lab import detmethod

    points = [(u, u ** 3) for u in range(1, k + 1)]

    def run():
        aux = detmethod.auxiliary_polynomial(points, d)
        return 0, report_bytes({
            "poly": [{"exp": list(e), "coeff": str(c)}
                     for e, c in sorted(aux.poly.terms.items())],
            "beta": list(aux.beta), "beta_coeff": str(aux.beta_coeff),
            "rank": aux.rank,
        })

    return Job(f"aux-d{d}-k{k}", run)


# ---------------------------------------------------------------------------
# seeded determinant-valuation trials (cover)
# ---------------------------------------------------------------------------

TRIAL_P = 3
TRIALS = 200
TRIALS_PER_JOB = 50


def make_trials(seed):
    """Plain-data trial inputs drawn from the workload seed: a one-parameter
    map psi with n integer components of degree <= 2 (so T_r holds on every
    ball), a ball of radius alpha <= 2 in Z_3 and mu points in it."""
    rng = random.Random(seed)
    p = TRIAL_P
    trials = []
    for _ in range(TRIALS):
        n = rng.choice([1, 2])
        d = rng.choice([1, 2, 3])
        alpha = rng.randint(0, 2)
        center = rng.randint(0, p ** alpha - 1) if alpha else 0
        comps = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(n)]
        mu = math.comb(n + d, d)  # monomials of degree <= d in n variables
        points = [center + p ** alpha * rng.randint(0, 80) for _ in range(mu)]
        trials.append({"n": n, "d": d, "alpha": alpha, "center": center,
                       "comps": comps, "points": points})
    return trials


def trial_job(index, trials):
    from nonarch_lab import detmethod
    from nonarch_lab.arith_core import Ball, MultiPoly
    from nonarch_lab.combinatorics import DetSetup
    from nonarch_lab.taylor import PolyMap

    def run():
        out = []
        ok = True
        for t in trials:
            setup = DetSetup.for_dims(1, t["n"], t["d"])
            ball = Ball(TRIAL_P, (t["center"],), t["alpha"])
            comps = [MultiPoly(1, {(k,): c for k, c in enumerate(cs)})
                     for cs in t["comps"]]
            psi = PolyMap(1, t["n"], comps, domain=ball)
            certs = detmethod.certify_components(psi, setup.r, ball)
            rep = detmethod.det_bound_check(psi, [(x,) for x in t["points"]], ball,
                                            t["d"], certificates=certs)
            ok = ok and rep.ok
            out.append({"certificates": [c.verdict for c in certs],
                        "det": _det_report_json(rep)})
        return (0 if ok else 1), report_bytes(out)

    return Job(f"det-trials-{index}", run)


def _det_report_json(rep):
    """The fields of DetBoundReport.to_json.  That method cannot serialize a
    zero determinant: it tests ord_delta against its own infinity object,
    while val_fraction returns math.inf, so int(inf) raises OverflowError."""
    return {
        "m": rep.setup.m, "n": rep.setup.n, "d": rep.setup.d,
        "mu": rep.setup.mu, "r": rep.setup.r, "e": rep.setup.e,
        "alpha": rep.alpha,
        "ord_delta": "inf" if rep.ord_delta == math.inf else int(rep.ord_delta),
        "bound": rep.bound,
        "ok": rep.ok,
    }


def _fraction_det_valuation(rows, p):
    """Independent oracle: p-adic valuation of an exact determinant
    (None for a zero determinant), by Gaussian elimination over Q."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return None
        m[c], m[piv] = m[piv], m[c]
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                for k in range(c, n):
                    m[r][k] -= f * m[c][k]
    v, num, den = 0, det.numerator, det.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def check_trials(trials, report):
    """Seed-independent check of a trial job's report: every trial holds
    its certificates, satisfies ord(det) >= e*alpha, and reports the
    determinant valuation an independent computation gives."""
    try:
        entries = json.loads(report)
    except ValueError:
        return "report is not JSON"
    if len(entries) != len(trials):
        return f"{len(entries)} trial results for {len(trials)} trials"
    for i, (t, e) in enumerate(zip(trials, entries)):
        det = e["det"]
        if any(v != "holds" for v in e["certificates"]):
            return f"trial {i}: certificate verdicts {e['certificates']}"
        d = t["d"]
        exps = ([(a,) for a in range(d + 1)] if t["n"] == 1 else
                [(a, b) for a in range(d + 1) for b in range(d + 1 - a)])
        values = [[sum(c * x ** k for k, c in enumerate(cs)) for cs in t["comps"]]
                  for x in t["points"]]
        rows = [[_monomial(v, exp) for v in values] for exp in exps]
        want = _fraction_det_valuation(rows, TRIAL_P)
        got = None if det["ord_delta"] == "inf" else det["ord_delta"]
        if got != want:
            return f"trial {i}: ord_delta {det['ord_delta']}, oracle {want}"
        if det["alpha"] != t["alpha"] or not det["ok"]:
            return f"trial {i}: det bound not ok"
        if got is not None and got < det["bound"]:
            return f"trial {i}: ord_delta {got} below bound {det['bound']}"
    return None


def _monomial(values, exp):
    out = 1
    for v, e in zip(values, exp):
        out *= v ** e
    return out


# ---------------------------------------------------------------------------
# workload job lists
# ---------------------------------------------------------------------------

WORKLOADS = ("ff-sparse", "tr-deep", "cover", "lab-mix")

# Seconds per pass on the reference machine (2 vCPUs, numpy path, seed code;
# median of five runs while the shared host was in its slower state).  The
# runner turns --seconds into a fixed number of passes with these, so two
# commits measured with the same --seconds do identical work.
NOMINAL_PASS_S = {"ff-sparse": 3.4, "tr-deep": 12.2, "cover": 3.4, "lab-mix": 2.8}


def build_jobs(workload, workdir, seed):
    """The workload's job list and, for seeded jobs, the check that
    replaces a byte golden when the seed has none recorded."""
    checks = {}
    if workload == "ff-sparse":
        jobs = [cli_job(f"count-ff-elliptic-r{r}", workdir,
                        ["count-ff", "elliptic.json", "--q", "5,7,11,13",
                         "--r", str(r), "--threads", "2"])
                for r in (1, 2, 3)]
    elif workload == "tr-deep":
        jobs = [gauss1a_job(p, r, coeffs, name)
                for p in (2, 3) for r in (2, 3)
                for coeffs, name in (([0, 1], "x"), ([0, 0, 1], "x2"),
                                     ([0, p, 1], "x2+px"))]
        jobs.append(cli_job("taylor-check-deg7", workdir,
                            ["taylor-check", "tr_deg7.json", "--r", "3", "--K", "8",
                             "--threads", "1"]))
    elif workload == "cover":
        jobs = [cli_job("det-cover-parabola", workdir,
                        ["det-cover", "cover.json", "--threads", "1"]),
                cli_job("heights-circle-Z100", workdir,
                        ["heights", "circle.json", "--mode", "Z", "--T", "100",
                         "--threads", "1"])]
        trials = make_trials(seed)
        for i in range(TRIALS // TRIALS_PER_JOB):
            chunk = trials[i * TRIALS_PER_JOB:(i + 1) * TRIALS_PER_JOB]
            job = trial_job(i, chunk)
            jobs.append(job)
            checks[job.id] = (lambda chunk: lambda rep: check_trials(chunk, rep))(chunk)
        jobs += [aux_job(d, k) for d, k in ((3, 9), (4, 14), (5, 20))]
    elif workload == "lab-mix":
        t1 = ["--threads", "1"]
        jobs = [
            cli_job("count-ff-line", workdir,
                    ["count-ff", "line.json", "--q", "2,3,5", "--r", "1..4"] + t1),
            cli_job("count-ff-parabola-t", workdir,
                    ["count-ff", "parabola_t.json", "--q", "2,3", "--r", "1..4"] + t1),
            cli_job("expand-scheme-elliptic", workdir,
                    ["expand-scheme", "elliptic.json", "--q", "5", "--r", "3"] + t1),
            cli_job("taylor-check-x2", workdir,
                    ["taylor-check", "tr_x2.json", "--r", "2", "--K", "5"] + t1),
            cli_job("taylor-check-binomial", workdir,
                    ["taylor-check", "tr_binomial.json", "--r", "1", "--K", "5"] + t1),
            cli_job("taylor-check-2d-holds", workdir,
                    ["taylor-check", "tr_2d_holds.json", "--r", "2", "--K", "3"] + t1),
            cli_job("taylor-check-2d-half", workdir,
                    ["taylor-check", "tr_2d_half.json", "--r", "2", "--K", "3"] + t1),
            cli_job("heights-circle-Q10", workdir,
                    ["heights", "circle.json", "--mode", "Q", "--T", "10"] + t1),
            cli_job("heights-circle-k2", workdir,
                    ["heights", "circle.json", "--mode", "k", "--k", "2",
                     "--T", "10"] + t1),
            cli_job("hilbert-twisted-cubic", workdir,
                    ["hilbert", "twisted_cubic.json", "--smax", "30"] + t1),
            cli_job("hilbert-conic", workdir,
                    ["hilbert", "conic.json", "--select", "2", "4",
                     "--salberger-m", "1"] + t1),
            cli_job("bounds", workdir,
                    ["bounds", "--m", "1", "--n", "2", "--d", "2", "--T", "100",
                     "--p", "3"] + t1),
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs, checks

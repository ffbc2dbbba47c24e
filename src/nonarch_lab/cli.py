"""Unified command-line front end.

Subcommands: bounds, heights, taylor-check, det-cover, count-ff,
expand-scheme, hilbert, corpus.  Reports are deterministic JSON (exact
values serialized as strings, no floats); tabular summaries go to CSV.
Exit codes: 1 for a violated bound, 2 for configuration errors, 3 for
cap/precision/budget exhaustion.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from . import __version__
from .arith_core import Ball, MultiPoly
from .combinatorics import DetSetup, alpha_bound
from .errors import (
    BoundViolation,
    BudgetExceededError,
    CapExceededError,
    ConfigError,
    FullRankError,
    PrecisionError,
    config_int,
)


def parse_range_list(text):
    """Comma-separated integers with inclusive a..b ranges: '2,5..7' -> [2,5,6,7]."""
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ".." in part:
            a, b = part.split("..", 1)
            try:
                a, b = int(a), int(b)
            except ValueError as err:
                raise ConfigError(f"bad range {part!r}") from err
            if b < a:
                raise ConfigError(f"empty range {part!r}")
            out.extend(range(a, b + 1))
        else:
            try:
                out.append(int(part))
            except ValueError as err:
                raise ConfigError(f"bad integer {part!r}") from err
    if not out:
        raise ConfigError(f"empty list {text!r}")
    return out


def parse_fraction(v):
    if isinstance(v, int):
        return Fraction(v)
    try:
        return Fraction(str(v))
    except (ValueError, ZeroDivisionError) as err:
        raise ConfigError(f"bad rational {v!r}") from err


def parse_poly(data, nvars):
    terms = {}
    for term in data:
        exp = tuple(config_int(e, "exponent", 0) for e in term["exp"])
        if len(exp) != nvars:
            raise ConfigError(f"exponent {exp} has arity {len(exp)}, expected {nvars}")
        terms[exp] = terms.get(exp, Fraction(0)) + parse_fraction(term["coeff"])
    return MultiPoly(nvars, terms)


def poly_to_json(poly):
    return [{"exp": list(e), "coeff": str(c)}
            for e, c in sorted(poly.terms.items())]


def load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as err:
        raise ConfigError(f"no such file: {path}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(
            f"malformed JSON in {path} at line {err.lineno}, column {err.colno}: "
            f"{err.msg}") from err


@contextmanager
def input_schema(path):
    """Report a missing key or a mistyped value met while reading an input
    file as a configuration error (exit 2), not a traceback."""
    try:
        yield
    except ConfigError:
        raise
    except KeyError as err:
        raise ConfigError(f"{path}: missing key {err}") from err
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{path}: malformed input: {err}") from err


def parse_semialg(data):
    from .heights import PadicConstraint, SemialgSpec

    nvars = int(data["vars"])
    eqs = [parse_poly(p, nvars) for p in data.get("equations", [])]
    ineqs = [parse_poly(p, nvars) for p in data.get("inequations", [])]
    p = None
    constraints = []
    padic = data.get("padic")
    if padic:
        p = int(padic["p"])
        for c in padic.get("constraints", []):
            constraints.append(PadicConstraint(
                poly=parse_poly(c["poly"], nvars),
                kind=c["kind"],
                c=int(c.get("c", 0)),
                depth=int(c.get("depth", 1)),
                value=int(c.get("value", 0)),
            ))
    return SemialgSpec(nvars, eqs, ineqs, p, constraints)


def parse_polymap(data):
    from .taylor import PolyMap

    m, n = int(data["m"]), int(data["n"])
    comps = [parse_poly(c, m) for c in data["components"]]
    domain = None
    if "domain" in data:
        dom = data["domain"]
        p = int(data["p"])
        center = [parse_fraction(c) for c in dom["center"]]
        domain = Ball(p, center, int(dom.get("alpha", 0)), m)
    return PolyMap(m, n, comps, domain=domain,
                   tail_floor=data.get("tail_floor"))


def emit_report(report, args, started):
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"elapsed {time.monotonic() - started:.3f}s", file=sys.stderr)


def write_csv(path, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        for row in rows:
            w.writerow(row)


def base_config(args, **extra):
    cfg = {"subcommand": args.command, "seed": getattr(args, "seed", 0)}
    cfg.update(extra)
    return cfg


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_bounds(args, started):
    setup = DetSetup.for_dims(args.m, args.n, args.d)
    alpha = alpha_bound(setup, args.T, args.p)
    report = {
        "config": base_config(args, m=args.m, n=args.n, d=args.d,
                              T=args.T, p=args.p),
        "version": __version__,
        "results": {
            "m": setup.m, "n": setup.n, "d": setup.d, "mu": setup.mu,
            "r": setup.r, "e": setup.e, "V": setup.V,
            "epsilon": str(setup.epsilon),
            "alpha": alpha,
        },
    }
    emit_report(report, args, started)
    return 0


def cmd_heights(args, started):
    from .heights import points_k, points_Q, points_Z

    with input_schema(args.input):
        spec = parse_semialg(load_json(args.input))
    if args.mode == "Z":
        pts = points_Z(spec, args.T, cap=args.cap)
    elif args.mode == "k":
        pts = points_k(spec, args.k, args.T, cap=args.cap)
    else:
        pts = points_Q(spec, args.T, cap=args.cap)
    report = {
        "config": base_config(args, input=os.path.basename(args.input),
                              T=args.T, mode=args.mode, k=args.k, cap=args.cap),
        "version": __version__,
        "results": {
            "count": len(pts),
            "points": [[str(c) for c in pt] for pt in pts],
        },
    }
    emit_report(report, args, started)
    return 0


def cmd_taylor_check(args, started):
    from .taylor import ExhaustiveStrategy, SampledStrategy, check_Tr

    with input_schema(args.input):
        f = parse_polymap(load_json(args.input))
    if f.domain is None:
        raise ConfigError("taylor-check input needs a domain and prime")
    if args.strategy == "sampled":
        strategy = SampledStrategy(seed=args.seed, samples=args.samples, K=args.K)
    else:
        strategy = ExhaustiveStrategy(K=args.K)
    cert = check_Tr(f, args.r, strategy)
    report = {
        "config": base_config(args, input=os.path.basename(args.input),
                              r=args.r, K=args.K, strategy=args.strategy),
        "version": __version__,
        "results": cert.to_json(),
    }
    emit_report(report, args, started)
    return 0 if cert.verdict == "holds" else 1


def cmd_det_cover(args, started):
    from .detmethod import cover_points

    data = load_json(args.input)
    with input_schema(args.input):
        curve = parse_semialg(data["curve"])
        psi = parse_polymap(data["psi"])
        T = args.T if args.T is not None else int(data["T"])
        d = args.d if args.d is not None else int(data["d"])
        p = args.p if args.p is not None else int(data["p"])
        cert_K = args.K if args.K is not None else data.get("precision")
    cover = cover_points(curve, psi, T, d, p, cap=args.cap, cert_K=cert_K)
    report = {
        "config": base_config(args, input=os.path.basename(args.input),
                              T=T, d=d, p=p),
        "version": __version__,
        "results": cover.to_json(),
    }
    emit_report(report, args, started)
    if args.csv:
        write_csv(args.csv, cover.csv_rows(p))
    return 0


def cmd_count_ff(args, started):
    from .ffcount import CountRecord, enumerate_Xr, load_variety, verify_bounds

    with input_schema(args.input):
        X = load_variety(args.input)
    qs = parse_range_list(args.q)
    rs = parse_range_list(args.r)
    records = []
    bound_reports = {}
    for r in rs:
        counts = {}
        for q in qs:
            counts[q] = enumerate_Xr(X, q, r, cap=args.cap)
        fit = (None, None, None)
        if len(qs) >= 2 and any(counts.values()):
            rep = bound_reports[r] = verify_bounds(counts, X, r, mu_cap=args.mu_cap)
            fit = (rep.delta, rep.mu, rep.slack_sq)
        for q in qs:
            records.append(CountRecord(q, r, counts[q], *fit))
    report = {
        "config": base_config(args, input=os.path.basename(args.input),
                              q=qs, r=rs, cap=args.cap, mu_cap=args.mu_cap),
        "version": __version__,
        "results": {
            "records": [rec.to_json() for rec in records],
            "bounds": {str(r): rep.to_json() for r, rep in bound_reports.items()},
        },
    }
    emit_report(report, args, started)
    if args.csv:
        rows = [("q", "r", "count", "delta", "mu", "slack_sq")]
        for rec in records:
            rows.append((rec.q, rec.r, rec.count,
                         "" if rec.delta is None else rec.delta,
                         "" if rec.mu is None else str(rec.mu),
                         "" if rec.slack_sq is None else str(rec.slack_sq)))
        write_csv(args.csv, rows)
    ok = all(rep.trivial_ok and (rep.motivic_ok is not False)
             for rep in bound_reports.values())
    return 0 if ok else 1


def cmd_expand_scheme(args, started):
    from .ffcount import expand_scheme, load_variety

    with input_schema(args.input):
        X = load_variety(args.input)
    equations = expand_scheme(X, args.q, args.r)
    names = [f"a_{i}_{g}" for i in range(X.n) for g in range(args.r)]
    report = {
        "config": base_config(args, input=os.path.basename(args.input),
                              q=args.q, r=args.r),
        "version": __version__,
        "results": {
            "variables": names,
            "equations": [
                [{"exp": list(e), "coeff": int(c)} for e, c in sorted(eq.terms.items())]
                for eq in equations
            ],
        },
    }
    emit_report(report, args, started)
    return 0


def cmd_hilbert(args, started):
    from .hilbert import HilbertTable, HomIdeal, salberger_check, select_delta_alpha

    with input_schema(args.input):
        data = load_json(args.input)
        nvars = int(data["vars"])
        gens = [parse_poly(g, nvars) for g in data["generators"]]
    if args.salberger_m is not None:
        salberger_s = parse_range_list(args.salberger_s)
        if args.salberger_m < 0:
            raise ConfigError(f"--salberger-m must be >= 0, got {args.salberger_m}")
        if min(salberger_s) < 1:
            raise ConfigError(
                f"--salberger-s values must be >= 1, got {args.salberger_s!r}")
    if args.smax < 0:
        raise ConfigError(f"--smax must be >= 0, got {args.smax}")
    if args.select and min(args.select) < 1:
        d, r = args.select
        raise ConfigError(f"--select D R needs D >= 1 and R >= 1, got {d} {r}")
    if gens:
        ideal = HomIdeal(gens, s_pair_budget=args.budget)
        table = HilbertTable.from_ideal(ideal)
        gb = [poly_to_json(g) for g in ideal.groebner_basis()]
    else:
        table = HilbertTable.from_lt(nvars, [])
        gb = []
    per_degree = []
    for s in range(1, args.smax + 1):
        H = table.hilbert_function(s)
        sig = table.sigma_all(s)
        ratios = table.a_estimates(s) if H else None
        per_degree.append({
            "s": s, "H": H, "sigma": list(sig),
            "ratios": [str(x) for x in ratios] if ratios else None,
        })
    results = {
        "lt_generators": [list(e) for e in table.lt_gens],
        "groebner_basis": gb,
        "table": per_degree,
    }
    if args.salberger_m is not None:
        results["salberger"] = [
            salberger_check(table, s, args.salberger_m).to_json()
            for s in salberger_s
        ]
    if args.select:
        d, r = args.select
        delta, alpha = select_delta_alpha(table, d, r)
        mu, e = table.mu_e(delta)
        results["selection"] = {"d": d, "r": r, "delta": delta, "alpha": alpha,
                                "mu": mu, "e": e}
    report = {
        "config": base_config(args, input=os.path.basename(args.input),
                              smax=args.smax),
        "version": __version__,
        "results": results,
    }
    emit_report(report, args, started)
    if args.csv:
        rows = [("s", "H") + tuple(f"sigma_{i}" for i in range(nvars))
                + tuple(f"ratio_{i}" for i in range(nvars))]
        for entry in per_degree:
            ratios = entry["ratios"] or [""] * nvars
            rows.append((entry["s"], entry["H"], *entry["sigma"], *ratios))
        write_csv(args.csv, rows)
    return 0


def cmd_corpus(args, started):
    """Rerun every golden config in a directory and diff byte-exactly."""
    import tempfile

    cases = []
    for root, _dirs, files in os.walk(args.directory):
        if "cmd.json" in files:
            cases.append(root)
    cases.sort()
    if not cases:
        print(f"warning: no cases under {args.directory}", file=sys.stderr)
        print("corpus: 0 cases, all passed")
        return 0
    failures = 0
    for case in cases:
        spec = load_json(os.path.join(case, "cmd.json"))
        expected_path = os.path.join(case, spec.get("expected", "expected.json"))
        with open(expected_path, "rb") as fh:
            expected = fh.read()
        with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
            tmp_path = tmp.name
        try:
            code = main(spec["argv"] + ["--out", tmp_path])
            with open(tmp_path, "rb") as fh:
                got = fh.read()
        finally:
            os.unlink(tmp_path)
        ok = got == expected and code == spec.get("exit_code", 0)
        status = "pass" if ok else "FAIL"
        print(f"{status}  {os.path.relpath(case, args.directory)}")
        if not ok:
            failures += 1
    print(f"corpus: {len(cases)} cases, {len(cases) - failures} passed, "
          f"{failures} failed")
    return 1 if failures else 0


# ---------------------------------------------------------------------------

@functools.cache
def build_parser():
    """The argparse tree, built once per process: parse_args fills a fresh
    namespace on every call and no option has a mutable default."""
    ap = argparse.ArgumentParser(
        prog="nonarch-lab",
        description="Exact p-adic / function-field determinant-method lab")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", help="write the JSON report here (default stdout)")
        sp.add_argument("--threads", type=int, default=0,
                        help="ignored; accepted so existing command lines still run")

    sp = sub.add_parser("bounds", help="determinant-method constants")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--T", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    common(sp)
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("heights", help="bounded-height point enumeration")
    sp.add_argument("input", help="SemialgSpec JSON")
    sp.add_argument("--T", type=int, required=True)
    sp.add_argument("--mode", choices=["Q", "Z", "k"], default="Q")
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--cap", type=int, default=10**7)
    common(sp)
    sp.set_defaults(func=cmd_heights)

    sp = sub.add_parser("taylor-check", help="T_r certificate for a PolyMap")
    sp.add_argument("input", help="PolyMap JSON")
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--K", type=int, default=None)
    sp.add_argument("--strategy", choices=["exhaustive", "sampled"],
                    default="exhaustive")
    sp.add_argument("--samples", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0,
                    help="sample seed of the sampled strategy")
    common(sp)
    sp.set_defaults(func=cmd_taylor_check)

    sp = sub.add_parser("det-cover", help="end-to-end determinant-method cover")
    sp.add_argument("input", help="JSON with curve, psi, T, d, p")
    sp.add_argument("--T", type=int, default=None)
    sp.add_argument("--d", type=int, default=None)
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--K", type=int, default=None,
                    help="modulus exponent for the parametrization certificates")
    sp.add_argument("--cap", type=int, default=10**7)
    sp.add_argument("--csv", help="CSV summary path")
    common(sp)
    sp.set_defaults(func=cmd_det_cover)

    sp = sub.add_parser("count-ff", help="F_q[t] point counts and delta fits")
    sp.add_argument("input", help="variety JSON")
    sp.add_argument("--q", required=True, help="field sizes, e.g. 2,3,5")
    sp.add_argument("--r", required=True, help="degree bounds, e.g. 1..4")
    sp.add_argument("--cap", type=int, default=2 * 10**7)
    sp.add_argument("--mu-cap", type=int, default=64)
    sp.add_argument("--csv", help="CSV table path")
    common(sp)
    sp.set_defaults(func=cmd_count_ff)

    sp = sub.add_parser("expand-scheme", help="expanded scheme in r*n variables")
    sp.add_argument("input", help="variety JSON")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    common(sp)
    sp.set_defaults(func=cmd_expand_scheme)

    sp = sub.add_parser("hilbert", help="Hilbert table of a homogeneous ideal")
    sp.add_argument("input", help="ideal JSON")
    sp.add_argument("--smax", type=int, default=12)
    sp.add_argument("--budget", type=int, default=10000)
    sp.add_argument("--select", nargs=2, type=int, metavar=("D", "R"))
    sp.add_argument("--salberger-m", type=int, default=None)
    sp.add_argument("--salberger-s", default="10,20,30")
    sp.add_argument("--csv", help="CSV table path")
    common(sp)
    sp.set_defaults(func=cmd_hilbert)

    sp = sub.add_parser("corpus", help="rerun golden configs and diff")
    sp.add_argument("directory")
    common(sp)
    sp.set_defaults(func=cmd_corpus)

    return ap


def main(argv=None):
    started = time.monotonic()
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args, started)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (CapExceededError, PrecisionError, BudgetExceededError) as err:
        print(f"resource error: {err}", file=sys.stderr)
        return 3
    except (BoundViolation, FullRankError) as err:
        print(f"bound violation: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

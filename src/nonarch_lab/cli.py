"""Unified command-line front end.

Subcommands: bounds, heights, taylor-check, det-cover, count-ff,
expand-scheme, hilbert, corpus.  Reports are deterministic JSON (exact
values serialized as strings, no floats); tabular summaries go to CSV.
Exit codes: 1 for a violated bound, 2 for configuration errors, 3 for
an exhausted cap, precision or memory.

`main` is the one report path.  Each subparser names, by `set_defaults`,
its subcommand `func` and its input reader `read` (None for `bounds`).
`main` runs `read(args)` under `input_schema`, so a missing key or a
mistyped value exits 2, then calls `func(args, parsed input)`, which
returns ``(config fields, results, exit code, CSV rows or None)`` and
writes nothing.  `main` builds the ``{config, version, results}``
envelope, whose config holds `subcommand`, `seed` (always 0), the input's
basename and the subcommand's fields, emits it with the `--csv` rows when
given and, when the run exits 0, one `elapsed` line on stderr, and maps
exceptions to exit codes.  `corpus` writes no report: it reruns `main` on
each case and diffs the bytes, and for a case that exits non-zero the
first line of its stderr, and under a failing case it prints what differed.
"""

from __future__ import annotations

import argparse
import contextlib
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
    CapExceededError,
    ConfigError,
    FullRankError,
    PrecisionError,
    config_int,
    config_list,
    load_json,
)


def parse_range_list(text, flag):
    """Comma-separated integers with inclusive a..b ranges: '2,5..7' ->
    [2,5,6,7].  Errors name the option `flag` the text was given to."""
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
                raise ConfigError(f"{flag}: bad range {part!r}") from err
            if b < a:
                raise ConfigError(f"{flag}: empty range {part!r}")
            out.extend(range(a, b + 1))
        else:
            try:
                out.append(int(part))
            except ValueError as err:
                raise ConfigError(f"{flag}: bad integer {part!r}") from err
    if not out:
        raise ConfigError(f"{flag}: empty list {text!r}")
    return out


def parse_fraction(v):
    # a bool is an int, but str(True) is no rational: it falls through
    if isinstance(v, int) and not isinstance(v, bool):
        return Fraction(v)
    try:
        return Fraction(str(v))
    except (ValueError, ZeroDivisionError) as err:
        raise ConfigError(f"bad rational {v!r}") from err


def parse_poly(data, nvars):
    terms = {}
    for term in config_list(data, "polynomial"):
        exp = tuple(config_int(e, "exponent", 0)
                    for e in config_list(term["exp"], "exponent"))
        if len(exp) != nvars:
            raise ConfigError(f"exponent {exp} has arity {len(exp)}, expected {nvars}")
        terms[exp] = terms.get(exp, Fraction(0)) + parse_fraction(term["coeff"])
    return MultiPoly(nvars, terms)


def poly_to_json(poly):
    return [{"exp": list(e), "coeff": str(c)}
            for e, c in sorted(poly.terms.items())]


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

    nvars = config_int(data["vars"], "vars", 0)
    eqs = [parse_poly(p, nvars) for p in config_list(data.get("equations", []), "equations")]
    ineqs = [parse_poly(p, nvars)
             for p in config_list(data.get("inequations", []), "inequations")]
    p = None
    constraints = []
    padic = data.get("padic")
    if padic:
        p = config_int(padic["p"], "padic.p")
        for c in config_list(padic.get("constraints", []), "padic.constraints"):
            constraints.append(PadicConstraint(
                poly=parse_poly(c["poly"], nvars),
                kind=c["kind"],
                c=config_int(c.get("c", 0), "constraint c"),
                depth=config_int(c.get("depth", 1), "constraint depth"),
                value=config_int(c.get("value", 0), "constraint value"),
            ))
    return SemialgSpec(nvars, eqs, ineqs, p, constraints)


def parse_polymap(data):
    from .taylor import PolyMap

    m, n = config_int(data["m"], "m"), config_int(data["n"], "n")
    comps = [parse_poly(c, m) for c in config_list(data["components"], "components")]
    domain = None
    if "domain" in data:
        dom = data["domain"]
        p = config_int(data["p"], "p")
        center = [parse_fraction(c) for c in config_list(dom["center"], "domain.center")]
        domain = Ball(p, center, config_int(dom.get("alpha", 0), "domain.alpha"))
    tail_floor = data.get("tail_floor")
    if tail_floor is not None:
        config_int(tail_floor, "tail_floor", 0)
    return PolyMap(m, n, comps, domain=domain, tail_floor=tail_floor)


@contextmanager
def writable(path, **kwargs):
    """path opened for writing; an OSError becomes a ConfigError naming it."""
    try:
        with open(path, "w", **kwargs) as fh:
            yield fh
    except OSError as err:
        raise ConfigError(f"cannot write {path}: {err.strerror or err}") from err


# the text of a scalar of exactly this type, as json writes it
_SCALAR_TEXT = {str: json.encoder.encode_basestring_ascii, int: int.__repr__,
                bool: {True: "true", False: "false"}.__getitem__,
                type(None): lambda _: "null"}


def report_text(report):
    """json.dumps(report, indent=2, sort_keys=True) + "\\n", byte for byte,
    for the values a report holds: dicts with str keys, lists and tuples
    (a tuple is written as a list), and scalars whose type is exactly str,
    int, bool or None.  Anything else raises TypeError naming its type: a
    float (json writes inf and nan as Infinity and NaN, which are not
    JSON, and reports are exact), a Fraction or numpy integer left in a
    report, a subclass of a scalar type, or a key that is not a str.

    One walk of the report appends its text to one list of chunks.
    Strings go through json's C escaper and ints through int.__repr__; the
    line break and indent of each depth, and the item separator, are
    formed once; a list whose items are all scalars of one type is one
    str.join.  Dict keys are sorted as json sorts them."""
    newline, comma = ["\n"], [",\n"]  # per depth: "\n" + indent, "," + that
    encode, scalar_of = json.encoder.encode_basestring_ascii, _SCALAR_TEXT.get
    chunks = []
    out = chunks.append

    def write(o, depth):
        # a scalar of exactly a _SCALAR_TEXT type is written by its container
        is_dict = isinstance(o, dict)
        if not (is_dict or isinstance(o, (list, tuple))):
            text = scalar_of(type(o))
            if text is None:
                raise TypeError("report values are str, int, bool, None, lists or "
                                f"dicts, not {o.__class__.__name__}")
            return out(text(o))
        if not o:
            return out("{}" if is_dict else "[]")
        depth += 1
        if len(newline) == depth:
            newline.append(newline[-1] + "  ")
            comma.append("," + newline[-1])
        sep = comma[depth]
        if is_dict:
            lead = "{" + newline[depth]
            for k, v in sorted(o.items()):
                if type(k) is not str:
                    raise TypeError(f"report keys are str, not {k.__class__.__name__}")
                lead += encode(k) + ": "
                text = scalar_of(type(v))
                if text is not None:
                    out(lead + text(v))
                else:
                    out(lead)
                    write(v, depth)
                lead = sep
            return out(newline[depth - 1] + "}")
        kinds = set(map(type, o))
        text = scalar_of(kinds.pop()) if len(kinds) == 1 else None
        if text is not None:
            return out("[" + newline[depth] + sep.join(map(text, o)) + newline[depth - 1] + "]")
        lead = "[" + newline[depth]
        for v in o:
            text = scalar_of(type(v))
            if text is not None:
                out(lead + text(v))
            else:
                out(lead)
                write(v, depth)
            lead = sep
        out(newline[depth - 1] + "]")

    write(report, 0)
    out("\n")
    return "".join(chunks)


def emit_report(report, args, started, rows=None):
    """Write the report to --out (default stdout), its `elapsed` line to
    stderr unless started is None, and the CSV rows to --csv.  Both paths
    are opened before anything is written, so one that cannot be written
    exits 2 with nothing emitted."""
    text = report_text(report)
    out, table = getattr(args, "out", None), getattr(args, "csv", None)
    with contextlib.ExitStack() as files:
        fh = files.enter_context(writable(out)) if out else sys.stdout
        csv_fh = files.enter_context(writable(table, newline="")) if table else None
        fh.write(text)
        if started is not None:
            print(f"elapsed {time.monotonic() - started:.3f}s", file=sys.stderr)
        if csv_fh:
            import csv

            csv.writer(csv_fh).writerows(rows)


# ---------------------------------------------------------------------------
# input readers: each takes the parsed arguments and runs under input_schema.
# They look load_json, parse_* and load_variety up when called, so a wrapper
# set on those module attributes after build_parser has run still applies.
# ---------------------------------------------------------------------------

def read_variety(args):
    from .ffcount import load_variety

    return load_variety(args.input)


def read_cover(args):
    """The cover's curve, psi, T, d and p, with the --T/--d/--p options
    overriding the input's fields.  Of psi only m, n and the components are
    read: the cover runs on Z_p at its own p."""
    data = load_json(args.input)
    curve = parse_semialg(data["curve"])
    psi = parse_polymap({key: data["psi"][key] for key in ("m", "n", "components")})
    T = args.T if args.T is not None else config_int(data["T"], "T")
    d = args.d if args.d is not None else config_int(data["d"], "d")
    p = args.p if args.p is not None else config_int(data["p"], "p")
    return curve, psi, T, d, p


def read_ideal(args):
    """The variable count and the generators, each of them homogeneous."""
    data = load_json(args.input)
    nvars = config_int(data["vars"], "vars", 0)
    gens = [parse_poly(g, nvars) for g in config_list(data["generators"], "generators")]
    if any(len({sum(e) for e in g.terms}) > 1 for g in gens):
        raise ConfigError("generators must be homogeneous")
    return nvars, gens


# ---------------------------------------------------------------------------
# subcommands: cmd(args, parsed input) -> (config fields, results, exit
# code, CSV rows or None)
# ---------------------------------------------------------------------------

def cmd_bounds(args, _parsed):
    setup = DetSetup.for_dims(args.m, args.n, args.d)
    alpha = alpha_bound(setup, args.T, args.p)
    results = {
        "m": setup.m, "n": setup.n, "d": setup.d, "mu": setup.mu,
        "r": setup.r, "e": setup.e, "V": setup.V,
        "epsilon": str(setup.epsilon),
        "alpha": alpha,
    }
    return dict(m=args.m, n=args.n, d=args.d, T=args.T, p=args.p), results, 0, None


def cmd_heights(args, spec):
    from .heights import points_k, points_Q, points_Z

    config_int(args.k, "--k", 1)
    if args.mode == "Z":
        pts = points_Z(spec, args.T, cap=args.cap)
    elif args.mode == "k":
        pts = points_k(spec, args.k, args.T, cap=args.cap)
    else:
        pts = points_Q(spec, args.T, cap=args.cap)
    results = {"count": len(pts), "points": [[str(c) for c in pt] for pt in pts]}
    return dict(T=args.T, mode=args.mode, k=args.k, cap=args.cap), results, 0, None


def cmd_taylor_check(args, f):
    from .taylor import check_Tr

    if f.domain is None:
        raise ConfigError("taylor-check input needs a domain and prime")
    cert = check_Tr(f, args.r, K=args.K)
    # "strategy" is a fixed field: the check has one route
    return (dict(r=args.r, K=args.K, strategy="exhaustive"), cert.to_json(),
            0 if cert.holds else 1, None)


def cmd_det_cover(args, cover_input):
    from .detmethod import cover_points

    curve, psi, T, d, p = cover_input
    cover = cover_points(curve, psi, T, d, p, cap=args.cap)
    return dict(T=T, d=d, p=p), cover.to_json(), 0, cover.csv_rows(p)


def cmd_count_ff(args, X):
    from .ffcount import CountRecord, enumerate_Xr, verify_bounds

    config_int(args.mu_cap, "--mu-cap", 1)
    qs = parse_range_list(args.q, "--q")
    rs = parse_range_list(args.r, "--r")
    for flag, values in (("--q", qs), ("--r", rs)):
        seen = set()
        for v in values:
            if v in seen:
                raise ConfigError(f"{flag} lists {v} more than once")
            seen.add(v)
    records = []
    bound_reports = {}
    # one lift per q counts every r of rs at once; the loop reads them
    by_q = {q: dict.fromkeys(rs) for q in qs}
    for r in rs:
        counts = {}
        for q in qs:
            counts[q] = enumerate_Xr(X, q, r, cap=args.cap, counts=by_q[q])
        fit = (None, None, None)
        if len(qs) >= 2 and any(counts.values()):
            rep = bound_reports[r] = verify_bounds(counts, X, r, mu_cap=args.mu_cap)
            fit = (rep.delta, rep.mu, rep.slack_sq)
        for q in qs:
            records.append(CountRecord(q, r, counts[q], *fit))
    results = {
        "records": [rec.to_json() for rec in records],
        "bounds": {str(r): rep.to_json() for r, rep in bound_reports.items()},
    }
    rows = [("q", "r", "count", "delta", "mu", "slack_sq")]
    for rec in records:
        rows.append((rec.q, rec.r, rec.count,
                     "" if rec.delta is None else rec.delta,
                     "" if rec.mu is None else str(rec.mu),
                     "" if rec.slack_sq is None else str(rec.slack_sq)))
    ok = all(rep.trivial_ok and (rep.motivic_ok is not False)
             for rep in bound_reports.values())
    return (dict(q=qs, r=rs, cap=args.cap, mu_cap=args.mu_cap), results,
            0 if ok else 1, rows)


def cmd_expand_scheme(args, X):
    from .ffcount import expand_scheme

    equations = expand_scheme(X, args.q, args.r)
    results = {
        "variables": [f"a_{i}_{g}" for i in range(X.n) for g in range(args.r)],
        "equations": [
            [{"exp": list(e), "coeff": int(c)} for e, c in sorted(eq.terms.items())]
            for eq in equations
        ],
    }
    return dict(q=args.q, r=args.r), results, 0, None


def cmd_hilbert(args, ideal_input):
    from .hilbert import (HilbertTable, groebner, leading_term, salberger_check,
                          select_delta_alpha)

    nvars, gens = ideal_input
    salberger_s = parse_range_list(args.salberger_s, "--salberger-s")
    if min(salberger_s) < 1:
        raise ConfigError(f"--salberger-s values must be >= 1, got {args.salberger_s!r}")
    if args.salberger_m is not None and args.salberger_m < 0:
        raise ConfigError(f"--salberger-m must be >= 0, got {args.salberger_m}")
    if args.smax < 0:
        raise ConfigError(f"--smax must be >= 0, got {args.smax}")
    if args.select and min(args.select) < 1:
        d, r = args.select
        raise ConfigError(f"--select D R needs D >= 1 and R >= 1, got {d} {r}")
    # the reduced basis comes sorted by leading term, and its leading
    # exponents are the minimal generators of LT(I)
    gb = groebner(gens, s_pair_budget=args.budget)
    table = HilbertTable(nvars, [leading_term(g)[0] for g in gb])
    per_degree = []
    rows = [("s", "H") + tuple(f"sigma_{i}" for i in range(nvars))
            + tuple(f"ratio_{i}" for i in range(nvars))]
    for s in range(1, args.smax + 1):
        H = table.hilbert_function(s)
        sig = list(table.sigma_all(s))
        ratios = [str(x) for x in table.a_estimates(s)] if H else None
        per_degree.append({"s": s, "H": H, "sigma": sig, "ratios": ratios or None})
        rows.append((s, H, *sig, *(ratios or [""] * nvars)))
    results = {
        "lt_generators": [list(e) for e in table.lt_gens],
        "groebner_basis": [poly_to_json(g) for g in gb],
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
    return dict(smax=args.smax), results, 0, rows


def read_corpus_case(case):
    """(argv, expected report bytes, expected exit code, expected first
    stderr line or None) of one corpus case.  A case that exits non-zero
    names its first stderr line, "" for none, and only such a case does; a
    missing or malformed field or expected file, or an argv that runs
    corpus, is a config error."""
    path = os.path.join(case, "cmd.json")
    spec = load_json(path)
    if not isinstance(spec, dict) or "argv" not in spec:
        raise ConfigError(f"{path}: needs an object with an argv list")
    argv = spec["argv"]
    if not isinstance(argv, list) or not all(isinstance(a, str) for a in argv):
        raise ConfigError(f"{path}: argv must be a list of strings, got {argv!r}")
    if next((a for a in argv if not a.startswith("-")), None) == "corpus":
        # a nested corpus writes no report to compare, and one that reaches
        # this case again recurses
        raise ConfigError(f"{path}: argv runs corpus, which writes no report")
    expected = spec.get("expected", "expected.json")
    if not isinstance(expected, str):
        raise ConfigError(f"{path}: expected must be a file name, got {expected!r}")
    code = config_int(spec.get("exit_code", 0), f"{path}: exit_code")
    stderr = spec.get("stderr")
    if (stderr is None) != (code == 0):
        raise ConfigError(f"{path}: a case needs a stderr line exactly when it exits "
                          f"non-zero; it exits {code}")
    if stderr is not None and not isinstance(stderr, str):
        raise ConfigError(f"{path}: stderr must be one line of text, got {stderr!r}")
    try:
        with open(os.path.join(case, expected), "rb") as fh:
            return argv, fh.read(), code, stderr
    except OSError as err:
        raise ConfigError(f"{case}: cannot read expected file: {err}") from err


def cmd_corpus(args):
    """Rerun every golden config in a directory and diff byte-exactly: the
    report, the exit code and, for a case that exits non-zero, the first
    line of its stderr; each part that differs is printed under the case's
    FAIL line.  An argv that argparse rejects exits 2 for its case, and the
    run goes on."""
    import io
    import tempfile

    cases = sorted(root for root, _dirs, files in os.walk(args.directory)
                   if "cmd.json" in files)
    if not cases:
        print(f"warning: no cases under {args.directory}", file=sys.stderr)
        print("corpus: 0 cases, all passed")
        return 0
    specs = [read_corpus_case(case) for case in cases]
    failures = 0
    for case, (argv, expected, want_code, want_stderr) in zip(cases, specs):
        with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
            tmp_path = tmp.name
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                try:
                    code = main(argv + ["--out", tmp_path])
                except SystemExit as exc:  # argparse rejects the arguments
                    code = exc.code
            with open(tmp_path, "rb") as fh:
                got = fh.read()
        finally:
            os.unlink(tmp_path)
        # each part that differs; a case that exits 0 wants no stderr line
        line, diffs = err.getvalue().split("\n", 1)[0], []
        if code != want_code:
            diffs.append(f"exit code: got {code}, want {want_code}")
        if (code or want_code) and line != (want_stderr or ""):
            diffs.append(f"stderr: got {line!r}, want {want_stderr or ''!r}")
        if got != expected:  # b"" past the last line
            g, w = got.splitlines(True) + [b""], expected.splitlines(True) + [b""]
            i = next(i for i, (a, b) in enumerate(zip(g, w)) if a != b)
            diffs.append(f"report line {i + 1}: got {g[i].decode(errors='replace')!r}, "
                         f"want {w[i].decode(errors='replace')!r}")
        print(f"{'FAIL' if diffs else 'pass'}  {os.path.relpath(case, args.directory)}")
        for diff in diffs:
            print(f"      {diff}")
        failures += bool(diffs)
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
    sp.set_defaults(func=cmd_bounds, read=None)

    sp = sub.add_parser("heights", help="bounded-height point enumeration")
    sp.add_argument("input", help="SemialgSpec JSON")
    sp.add_argument("--T", type=int, required=True)
    sp.add_argument("--mode", choices=["Q", "Z", "k"], default="Q")
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--cap", type=int, default=10**7)
    common(sp)
    sp.set_defaults(func=cmd_heights,
                    read=lambda args: parse_semialg(load_json(args.input)))

    sp = sub.add_parser("taylor-check", help="T_r certificate for a PolyMap")
    sp.add_argument("input", help="PolyMap JSON")
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--K", type=int, default=None)
    common(sp)
    sp.set_defaults(func=cmd_taylor_check,
                    read=lambda args: parse_polymap(load_json(args.input)))

    sp = sub.add_parser("det-cover", help="end-to-end determinant-method cover")
    sp.add_argument("input", help="JSON with curve, psi, T, d, p")
    sp.add_argument("--T", type=int, default=None)
    sp.add_argument("--d", type=int, default=None)
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--cap", type=int, default=10**7)
    sp.add_argument("--csv", help="CSV summary path")
    common(sp)
    sp.set_defaults(func=cmd_det_cover, read=read_cover)

    sp = sub.add_parser("count-ff", help="F_q[t] point counts and delta fits")
    sp.add_argument("input", help="variety JSON")
    sp.add_argument("--q", required=True, help="field sizes, e.g. 2,3,5")
    sp.add_argument("--r", required=True, help="degree bounds, e.g. 1..4")
    sp.add_argument("--cap", type=int, default=2 * 10**7)
    sp.add_argument("--mu-cap", type=int, default=64)
    sp.add_argument("--csv", help="CSV table path")
    common(sp)
    sp.set_defaults(func=cmd_count_ff, read=read_variety)

    sp = sub.add_parser("expand-scheme", help="expanded scheme in r*n variables")
    sp.add_argument("input", help="variety JSON")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    common(sp)
    sp.set_defaults(func=cmd_expand_scheme, read=read_variety)

    sp = sub.add_parser("hilbert", help="Hilbert table of a homogeneous ideal")
    sp.add_argument("input", help="ideal JSON")
    sp.add_argument("--smax", type=int, default=12)
    sp.add_argument("--budget", type=int, default=10000)
    sp.add_argument("--select", nargs=2, type=int, metavar=("D", "R"))
    sp.add_argument("--salberger-m", type=int, default=None)
    sp.add_argument("--salberger-s", default="10,20,30")
    sp.add_argument("--csv", help="CSV table path")
    common(sp)
    sp.set_defaults(func=cmd_hilbert, read=read_ideal)

    sp = sub.add_parser("corpus", help="rerun golden configs and diff")
    sp.add_argument("directory")
    common(sp)

    return ap


def main(argv=None):
    """Parse argv, read the input, run the subcommand and write its report
    and CSV; the exit code of the run, or of the error that stopped it."""
    started = time.monotonic()
    args = build_parser().parse_args(argv)
    try:
        if args.command == "corpus":
            return cmd_corpus(args)
        parsed = None
        if args.read is not None:
            with input_schema(args.input):
                parsed = args.read(args)
        fields, results, code, rows = args.func(args, parsed)
        # "seed" is a fixed field: no subcommand draws samples
        config = {"subcommand": args.command, "seed": 0}
        if args.read is not None:
            config["input"] = os.path.basename(args.input)
        config.update(fields)
        # only a run that exits 0 times itself: a failing run's stderr is
        # deterministic, so the corpus can compare it
        emit_report({"config": config, "version": __version__, "results": results},
                    args, started if code == 0 else None, rows)
        return code
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (CapExceededError, PrecisionError, MemoryError, OverflowError) as err:
        # a failed allocation (numpy's too), or an integer too large to index
        print(f"resource error: {str(err) or 'out of memory'}", file=sys.stderr)
        return 3
    except (BoundViolation, FullRankError) as err:
        print(f"bound violation: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

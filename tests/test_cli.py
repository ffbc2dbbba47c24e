import json
import os
import random
import resource
import subprocess
import sys
import time
from collections import OrderedDict
from enum import IntEnum
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import nonarch_lab
import oracles
from nonarch_lab.cli import build_parser, main, parse_range_list, report_text
from nonarch_lab.errors import ConfigError

CIRCLE = {
    "vars": 2,
    "equations": [[{"exp": [2, 0], "coeff": "1"}, {"exp": [0, 2], "coeff": "1"},
                   {"exp": [0, 0], "coeff": "-1"}]],
}
YX3 = {
    "n": 2, "m": 1, "d": 3, "irreducible": True, "name": "y=x^3",
    "polynomials": [[{"exp": [0, 1], "coeff": [1]},
                     {"exp": [3, 0], "coeff": [-1]}]],
}
TR_X2 = {
    "m": 1, "n": 1, "p": 3,
    "components": [[{"exp": [2], "coeff": "1"}]],
    "domain": {"center": ["0"], "alpha": 0},
}
COVER = {
    "curve": {"vars": 2, "equations": [[{"exp": [0, 1], "coeff": "1"},
                                        {"exp": [2, 0], "coeff": "-1"}]]},
    "psi": {"m": 1, "n": 2, "p": 3,
            "components": [[{"exp": [1], "coeff": "1"}],
                           [{"exp": [2], "coeff": "1"}]],
            "domain": {"center": ["0"], "alpha": 0}},
    "T": 10, "d": 2, "p": 3,
}
CONIC_IDEAL = {
    "vars": 3,
    "generators": [[{"exp": [1, 0, 1], "coeff": "1"},
                    {"exp": [0, 2, 0], "coeff": "-1"}]],
}
TWISTED_CUBIC_IDEAL = {
    "vars": 4,
    "generators": [[{"exp": [1, 0, 1, 0], "coeff": "1"}, {"exp": [0, 2, 0, 0], "coeff": "-1"}],
                   [{"exp": [1, 0, 0, 1], "coeff": "1"}, {"exp": [0, 1, 1, 0], "coeff": "-1"}],
                   [{"exp": [0, 1, 0, 1], "coeff": "1"}, {"exp": [0, 0, 2, 0], "coeff": "-1"}]],
}


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run_to_json(argv, tmp_path, name="out.json"):
    out = str(tmp_path / name)
    code = main(argv + ["--out", out])
    with open(out) as fh:
        return code, json.load(fh)


def test_parse_range_list():
    assert parse_range_list("2,3,5", "--q") == [2, 3, 5]
    assert parse_range_list("1..4", "--q") == [1, 2, 3, 4]
    assert parse_range_list("2,4..6", "--q") == [2, 4, 5, 6]
    with pytest.raises(ConfigError, match=r"^--r: empty range '5\.\.2'$"):
        parse_range_list("5..2", "--r")
    with pytest.raises(ConfigError, match=r"^--q: bad integer 'x'$"):
        parse_range_list("x", "--q")


@pytest.mark.parametrize("command, argv, named", [
    ("count-ff", ["--q", "2,x", "--r", "1"], "--q: bad integer 'x'"),
    ("count-ff", ["--q", "2", "--r", "1..y"], "--r: bad range '1..y'"),
    ("count-ff", ["--q", "2", "--r", "3..1"], "--r: empty range '3..1'"),
    ("count-ff", ["--q", ",", "--r", "1"], "--q: empty list ','"),
    ("hilbert", ["--salberger-m", "1", "--salberger-s", "4,x"],
     "--salberger-s: bad integer 'x'"),
], ids=["q-integer", "r-range", "r-empty-range", "q-empty-list", "salberger-s-integer"])
def test_list_option_errors_name_the_option(tmp_path, capsys, command, argv, named):
    # a command line with several list options says which one is malformed
    data = {"count-ff": YX3, "hilbert": CONIC_IDEAL}[command]
    assert_config_error([command, write(tmp_path, "input.json", data)] + argv, named,
                        capsys, in_subprocess=False)


def test_bounds_example(tmp_path):
    code, report = run_to_json(
        ["bounds", "--m", "1", "--n", "2", "--d", "1", "--T", "10", "--p", "3"],
        tmp_path)
    assert code == 0
    res = report["results"]
    assert (res["mu"], res["r"], res["e"], res["V"]) == (3, 3, 3, 2)
    assert res["epsilon"] == "2/3" and res["alpha"] == 2


def test_heights_circle(tmp_path):
    path = write(tmp_path, "circle.json", CIRCLE)
    code, report = run_to_json(["heights", path, "--T", "5"], tmp_path)
    assert code == 0
    assert report["results"]["count"] == 12


def test_taylor_check_cli(tmp_path):
    path = write(tmp_path, "map.json", TR_X2)
    code, report = run_to_json(["taylor-check", path, "--r", "2", "--K", "5"],
                               tmp_path)
    assert code == 0
    assert report["results"]["verdict"] == "holds"
    # failing map exits 1
    bad = dict(TR_X2)
    bad["p"] = 2
    bad["components"] = [[{"exp": [2], "coeff": "1/2"},
                          {"exp": [1], "coeff": "-1/2"}]]
    path2 = write(tmp_path, "bad.json", bad)
    code, report = run_to_json(["taylor-check", path2, "--r", "1", "--K", "5"],
                               tmp_path, "out2.json")
    assert code == 1
    assert report["results"]["verdict"] == "fails"
    assert report["results"]["witness"]["x"] == 2


def test_taylor_check_integral_1d_default_K_past_cap(tmp_path):
    # x^2 on Z_5 at r = 2: the default K = 8 gives 5^8 = 390625 residues,
    # past the residue cap, but every divided derivative is 5-integral
    path = write(tmp_path, "x2p5.json", dict(TR_X2, p=5))
    code, report = run_to_json(["taylor-check", path, "--r", "2"], tmp_path)
    assert code == 0
    assert (report["results"]["verdict"], report["results"]["K"]) == ("holds", 8)


def test_taylor_check_multivariate_cr_witness(tmp_path):
    # x^2/2 + y over Z_2^2: the second divided derivative in x is 1/2, so
    # the report carries a cr_norm witness at a 2-D point of Fractions
    half = {"m": 2, "n": 1, "p": 2,
            "components": [[{"exp": [2, 0], "coeff": "1/2"},
                            {"exp": [0, 1], "coeff": "1"}]],
            "domain": {"center": ["0", "0"], "alpha": 0}}
    path = write(tmp_path, "half.json", half)
    code, report = run_to_json(["taylor-check", path, "--r", "2", "--K", "3"],
                               tmp_path)
    assert code == 1
    res = report["results"]
    assert res["verdict"] == "fails"
    wit = res["witness"]
    assert wit["kind"] == "cr_norm"
    assert wit["order"] == [2, 0] and wit["valuation"] == -1
    assert wit["y"] == ["0", "0"]


def _map_json(p, alpha, terms):
    """taylor-check input for one component on p^alpha Z_p^2, from
    (exponent, coefficient string) terms."""
    return {"m": 2, "n": 1, "p": p,
            "components": [[{"exp": list(e), "coeff": c} for e, c in terms]],
            "domain": {"center": ["0", "0"], "alpha": alpha}}


def test_taylor_check_multivariate_default_K_holds(tmp_path):
    # decided on classes mod p^s, both maps hold at their default K although
    # p^(m(K - alpha)) is far above the residue cap: (x^2 + xy + y^2 + y^3)/3
    # on 3Z_3^2 has s = 1 <= alpha, and x^2 y + y^3 + 3x on Z_3^2 has s = 0
    baseline = _map_json(3, 1, [((2, 0), "1/3"), ((1, 1), "1/3"), ((0, 2), "1/3"),
                                ((0, 3), "1/3")])
    integral = _map_json(3, 0, [((2, 1), "1"), ((0, 3), "1"), ((1, 0), "3")])
    for name, data, r, K in (("baseline", baseline, 1, 9), ("integral", integral, 2, 8)):
        path = write(tmp_path, f"{name}.json", data)
        code, report = run_to_json(["taylor-check", path, "--r", str(r)], tmp_path,
                                   f"{name}-out.json")
        assert code == 0, name
        assert (report["results"]["verdict"], report["results"]["K"]) == ("holds", K)


def test_taylor_check_multivariate_witness_scan_cap(tmp_path, capsys):
    # (x - y)^2 / 4 on 2Z_2^2 at r = 1 keeps its C^1 data integral and fails
    # the remainder at v = 1; the failing x is found among the classes mod
    # 2^s, so no listing mod 2^K caps the scan: K = 9 and K = 12 (2^16 and
    # 2^22 residues) give the witness of K = 8, the oracle's
    data = _map_json(2, 1, [((2, 0), "1/4"), ((1, 1), "-1/2"), ((0, 2), "1/4")])
    path = write(tmp_path, "diff.json", data)
    comps = [{(2, 0): Fraction(1, 4), (1, 1): Fraction(-1, 2), (0, 2): Fraction(1, 4)}]
    want = oracles.tr_check_oracle(comps, 1, 2, (0, 0), 1, 8)
    assert want[2:4] == ((0, 2), (0, 0))
    for K in (8, 9, 12):
        code, report = run_to_json(["taylor-check", path, "--r", "1", "--K", str(K)],
                                   tmp_path, f"out{K}.json")
        assert code == 1, K
        wit = report["results"]["witness"]
        assert (wit["kind"], wit["component"], tuple(wit["x"]), tuple(wit["y"]),
                wit["ord_lhs"], wit["bound_rhs"]) == want, K
        assert report["results"]["K"] == K


@pytest.mark.parametrize("k, code, witness", [
    (6, 0, None),
    (8, 1, {"kind": "cr_norm", "component": 0, "order": [0, 0], "y": ["3", "3"],
            "valuation": -1}),
    (10, 1, {"kind": "cr_norm", "component": 0, "order": [0, 0], "y": ["3", "3"],
             "valuation": -3}),
])
def test_taylor_check_xy_plus_x3y4_over_3_to_the_k(tmp_path, k, code, witness):
    # xy + x^3 y^4 / 3^k on 3Z_3^2 at r = 1 has 3^(2(k - 1)) classes mod 3^k
    # per coordinate pair, so listing the pairs of classes passes any cap;
    # its test sets have 20 points.  k = 6 holds; from k = 8 on g_0 =
    # 9 + 3^7 / 3^k is not integral at y = (3, 3), the first point in ball
    # order where it is not
    data = _map_json(3, 1, [((1, 1), "1"), ((3, 4), f"1/{3 ** k}")])
    path = write(tmp_path, f"xy{k}.json", data)
    got, report = run_to_json(["taylor-check", path, "--r", "1"], tmp_path, f"out{k}.json")
    assert got == code
    assert report["results"]["verdict"] == ("holds" if code == 0 else "fails")
    assert report["results"]["witness"] == witness


def test_count_ff_cli(tmp_path):
    path = write(tmp_path, "yx3.json", YX3)
    csv_path = str(tmp_path / "counts.csv")
    code, report = run_to_json(
        ["count-ff", path, "--q", "2,3", "--r", "1..4", "--csv", csv_path],
        tmp_path)
    assert code == 0
    recs = report["results"]["records"]
    for rec in recs:
        assert rec["count"] == rec["q"] ** (-(-rec["r"] // 3))
    with open(csv_path) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "q,r,count,delta,mu,slack_sq"
    assert len(lines) == 1 + len(recs)


def test_expand_scheme_cli(tmp_path):
    path = write(tmp_path, "yx3.json", YX3)
    code, report = run_to_json(["expand-scheme", path, "--q", "2", "--r", "2"],
                               tmp_path)
    assert code == 0
    assert report["results"]["variables"] == ["a_0_0", "a_0_1", "a_1_0", "a_1_1"]
    assert len(report["results"]["equations"]) == 4


HUGE_POWER = {"n": 2, "name": "x^(10^30)",
              "polynomials": [[{"exp": [10**30, 0], "coeff": [1]}]]}


@pytest.mark.parametrize("argv, results", [
    (["count-ff", "--q", "2,3,5", "--r", "1"],
     lambda res: [rec["count"] for rec in res["records"]] == [2, 3, 5]),
    (["expand-scheme", "--q", "3", "--r", "1"],
     lambda res: res["equations"] == [[{"coeff": 1, "exp": [10**30, 0]}]]),
], ids=["count-ff", "expand-scheme"])
def test_huge_exponent_at_r1_finishes(tmp_path, argv, results):
    # x^(10^30) takes one factor per base-q digit of the exponent; one
    # factor per unit never finished.  The child runs under a timeout and
    # a 1 GB address-space limit
    path = write(tmp_path, "huge.json", HUGE_POWER)
    proc = run_cli_subprocess(argv[:1] + [path] + argv[1:], timeout=60, max_bytes=1 << 30)
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
    assert results(json.loads(proc.stdout)["results"])


def power_curve(e):
    """y^e = x as a heights input."""
    return {"vars": 2, "equations": [[{"exp": [0, e], "coeff": "1"},
                                      {"exp": [1, 0], "coeff": "-1"}]]}


def power_graph(e):
    """y = x^e as a count-ff input."""
    return {"n": 2, "polynomials": [[{"exp": [0, 1], "coeff": [1]},
                                     {"exp": [e, 0], "coeff": [-1]}]]}


@pytest.mark.parametrize("argv, data, named", [
    (["heights", "--mode", "Z", "--T", "3"], power_curve(2 ** 40), "out of memory"),
    (["heights", "--mode", "Z", "--T", "3"], power_curve(2 ** 63),
     "cannot fit 'int' into an index-sized integer"),
    (["count-ff", "--q", "2", "--r", "2"],
     {"n": 1, "polynomials": [[{"exp": [10 ** 9], "coeff": [1]}]]}, "Unable to allocate"),
    (["count-ff", "--q", "2,3", "--r", "1..2"], power_graph(2 ** 63),
     f"a t-series of {2 ** 63 + 1} coefficients at "),
    (["count-ff", "--q", "2,3", "--r", "1..2"], power_graph(10 ** 30),
     f"a t-series of {10 ** 30 + 1} coefficients at "),
], ids=["heights-memory", "heights-overflow", "count-ff-array-memory",
        "count-ff-series-2^63", "count-ff-series-10^30"])
def test_allocation_failures_exit_3(tmp_path, argv, data, named):
    # a fibre or tail too large for the child's 1 GB address space, or for
    # an index-sized integer, or a t-series past numpy's 2^63-byte limit,
    # is an exhausted resource: one line, exit 3
    path = write(tmp_path, "input.json", data)
    proc = run_cli_subprocess(argv[:1] + [path] + argv[1:], timeout=60, max_bytes=1 << 30)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("resource error: ") and proc.stderr.count("\n") == 1, \
        proc.stderr
    assert named in proc.stderr, proc.stderr


def test_det_cover_cli(tmp_path):
    path = write(tmp_path, "cover.json", COVER)
    csv_path = str(tmp_path / "cover.csv")
    code, report = run_to_json(["det-cover", path, "--csv", csv_path], tmp_path)
    assert code == 0
    res = report["results"]
    assert res["alpha"] == 2 and res["cover_size"] <= res["cover_bound"]
    assert res["total_points"] == 7
    assert os.path.exists(csv_path)


def test_hilbert_cli(tmp_path):
    path = write(tmp_path, "conic.json", CONIC_IDEAL)
    code, report = run_to_json(
        ["hilbert", path, "--smax", "6", "--select", "2", "4",
         "--salberger-m", "1", "--salberger-s", "10,20"],
        tmp_path)
    assert code == 0
    res = report["results"]
    assert res["lt_generators"] == [[0, 2, 0]]
    assert [e["H"] for e in res["table"]] == [3, 5, 7, 9, 11, 13]
    assert res["selection"]["delta"] == 2 and res["selection"]["alpha"] == 2
    assert all(entry["ok"] for entry in res["salberger"])


def test_malformed_json_exit_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    assert main(["heights", str(path), "--T", "2"]) == 2


# a set in 0 variables once built the whole height grid, which it never
# reads: at T = 10^9 these runs in a child process must finish at once
@pytest.mark.parametrize("equations, count", [([], 1), ([[{"exp": [], "coeff": "1"}]], 0)],
                         ids=["empty", "one"])
@pytest.mark.parametrize("mode", ["Q", "Z", "k"])
def test_heights_in_0_variables_build_no_grid(tmp_path, mode, equations, count):
    path = write(tmp_path, "point.json", {"vars": 0, "equations": equations})
    proc = run_cli_subprocess(["heights", path, "--T", str(10**9), "--mode", mode],
                              timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"] == {"count": count,
                                                  "points": [[]] * count}


def test_heights_malformed_spec_exit_2(tmp_path, capsys):
    path = write(tmp_path, "novars.json", {"equations": []})
    assert main(["heights", path, "--T", "2"]) == 2
    assert "missing key 'vars'" in capsys.readouterr().err
    path = write(tmp_path, "list.json", [CIRCLE])
    assert main(["heights", path, "--T", "2"]) == 2
    path = write(tmp_path, "circle.json", CIRCLE)
    assert_config_error(["heights", path, "--mode", "Z", "--T", "-3"], "need T >= 0",
                        capsys, in_subprocess=False)
    assert_config_error(["heights", path, "--T", "2", "--cap", "-1"],
                        "--cap must be >= 0, got -1", capsys, in_subprocess=False)


def test_heights_string_exponent_exit_2(tmp_path, capsys):
    # a string is not a list of exponents: named whole, not read as 'a'
    bad = dict(CIRCLE, equations=[[{"exp": "ab", "coeff": "1"}]])
    assert_config_error(["heights", write(tmp_path, "c.json", bad), "--T", "2"],
                        "exponent must be a list, got 'ab'", capsys, in_subprocess=False)


def test_det_cover_malformed_exit_2(tmp_path, capsys):
    for key in ("curve", "psi", "T", "d", "p"):
        data = {k: v for k, v in COVER.items() if k != key}
        path = write(tmp_path, f"no_{key}.json", data)
        assert main(["det-cover", path]) == 2, key
        assert f"missing key '{key}'" in capsys.readouterr().err
    # a flag stands in for a missing scalar
    path = write(tmp_path, "no_T_flag.json", {k: v for k, v in COVER.items() if k != "T"})
    assert main(["det-cover", path, "--T", "10", "--out", str(tmp_path / "o.json")]) == 0
    bad_psi = dict(COVER, psi={k: v for k, v in COVER["psi"].items() if k != "m"})
    assert main(["det-cover", write(tmp_path, "no_m.json", bad_psi)]) == 2
    path = write(tmp_path, "cover.json", COVER)
    assert_config_error(["det-cover", path, "--cap", "-1"], "--cap must be >= 0, got -1",
                        capsys, in_subprocess=False)


def test_det_cover_takes_no_K(tmp_path):
    # the certificates take the modulus exponent check_Tr works out
    with pytest.raises(SystemExit) as exc:
        main(["det-cover", write(tmp_path, "cover.json", COVER), "--K", "5"])
    assert exc.value.code == 2


def test_det_cover_names_the_component_of_psi_that_lacks_T_r(tmp_path, capsys):
    # psi = (u, u^2/3) fails T_6 on Z_3 through its second component; a
    # "precision" key is no field of the input and changes nothing
    psi = dict(COVER["psi"], components=[[{"exp": [1], "coeff": "1"}],
                                         [{"exp": [2], "coeff": "1/3"}]])
    for extra in ({}, {"precision": 0}):
        path = write(tmp_path, "third.json", dict(COVER, psi=psi, **extra))
        assert main(["det-cover", path]) == 1
        assert ("bound violation: parametrization component lacks T_6 on Z_p: "
                '{"component": 1, "kind": "cr_norm", "order": [2], "valuation": -1, '
                '"y": 0}\n') in capsys.readouterr().err


def test_det_cover_dimension_mismatch_exit_2(tmp_path, capsys):
    psi3 = dict(COVER["psi"], n=3, components=COVER["psi"]["components"]
                + [[{"exp": [3], "coeff": "1"}]])
    path = write(tmp_path, "psi3.json", dict(COVER, psi=psi3))
    assert main(["det-cover", path]) == 2
    assert "3 components for a curve in 2 variables" in capsys.readouterr().err


@pytest.mark.parametrize("equation", [
    [{"exp": [0, 1], "coeff": "1"}, {"exp": [2, 0], "coeff": "-1"}],
    [{"exp": [0, 1], "coeff": "1"}, {"exp": [2, 0], "coeff": "-1"},
     {"exp": [0, 0], "coeff": "1/2"}],
], ids=["with-points", "without-points"])
def test_det_cover_two_parameters_exit_2_with_or_without_points(tmp_path, capsys, equation):
    # psi = (u, v) has m = 2: y = x^2 - 1/2 has no integer point of height
    # <= 10, and the run once reported a cover (alpha 3, bound 729) for it
    psi = {"m": 2, "n": 2, "p": 3,
           "components": [[{"exp": [1, 0], "coeff": "1"}], [{"exp": [0, 1], "coeff": "1"}]],
           "domain": {"center": ["0", "0"], "alpha": 0}}
    data = dict(COVER, curve={"vars": 2, "equations": [equation]}, psi=psi)
    out = tmp_path / "report.json"
    assert_config_error(["det-cover", write(tmp_path, "m2.json", data), "--out", str(out)],
                        "covering runs are one-parameter", capsys, in_subprocess=False)
    assert not out.exists()


@pytest.mark.parametrize("equation", [
    [{"exp": [0, 1], "coeff": "1"}, {"exp": [2, 0], "coeff": "-1"}],
    [{"exp": [0, 1], "coeff": "1"}, {"exp": [2, 0], "coeff": "-1"},
     {"exp": [0, 0], "coeff": "1/2"}],
], ids=["with-points", "without-points"])
def test_det_cover_needs_a_degree_1_component_with_or_without_points(tmp_path, capsys,
                                                                    equation):
    # psi = (u^2, u^4) gives no parameter back: y = x^2 - 1/2 has no integer
    # point, and the run once reported a cover (alpha 3, bound 27) for it
    psi = dict(COVER["psi"], components=[[{"exp": [2], "coeff": "1"}],
                                         [{"exp": [4], "coeff": "1"}]])
    data = dict(COVER, curve={"vars": 2, "equations": [equation]}, psi=psi, T=100)
    out = tmp_path / "report.json"
    assert_config_error(["det-cover", write(tmp_path, "even.json", data), "--out", str(out)],
                        "parameter recovery needs a degree-1 component", capsys,
                        in_subprocess=False)
    assert not out.exists()


def test_det_cover_reads_only_m_n_and_components_of_psi(tmp_path):
    # the cover runs on Z_p at its own p: psi's p, domain and tail_floor are
    # not read, so a centre outside Z_5 changes nothing
    bare = {k: v for k, v in COVER["psi"].items() if k in ("m", "n", "components")}
    psi = dict(bare, p=5, domain={"center": ["1/5"], "alpha": 2}, tail_floor="x")
    code, report = run_to_json(["det-cover", write(tmp_path, "p5.json", dict(COVER, psi=psi))],
                               tmp_path)
    want_code, want = run_to_json(
        ["det-cover", write(tmp_path, "bare.json", dict(COVER, psi=bare))], tmp_path, "bare_out.json")
    assert (code, want_code) == (0, 0)
    assert report["results"] == want["results"]


def test_det_cover_uncovered_point_named_in_str_form(tmp_path, capsys):
    # psi = (u, 0) misses (-4, 16) on y = x^2: exit 1, the point printed as
    # the reports print coordinates, not as Fraction reprs
    psi = dict(COVER["psi"], components=[[{"exp": [1], "coeff": "1"}], []])
    assert main(["det-cover", write(tmp_path, "u0.json", dict(COVER, psi=psi, T=20))]) == 1
    assert "parametrization does not cover point (-4, 16)\n" in capsys.readouterr().err


# in 0 variables the lift once recursed r levels deep: RecursionError from
# r of about 1,000 on
@pytest.mark.parametrize("polynomials, count", [([], 1), ([[{"exp": [], "coeff": [1]}]], 0)],
                         ids=["empty", "one"])
def test_count_ff_in_0_variables_at_a_deep_degree_bound(tmp_path, polynomials, count):
    path = write(tmp_path, "point.json", {"n": 0, "polynomials": polynomials})
    proc = run_cli_subprocess(["count-ff", path, "--q", "2", "--r", "4999,5000"],
                              timeout=20)
    assert proc.returncode == 0, proc.stderr
    records = json.loads(proc.stdout)["results"]["records"]
    assert [(rec["r"], rec["count"]) for rec in records] == [(4999, count), (5000, count)]


def test_count_ff_malformed_exit_2(tmp_path, capsys):
    path = write(tmp_path, "non.json", {k: v for k, v in YX3.items() if k != "n"})
    assert main(["count-ff", path, "--q", "2,3", "--r", "1"]) == 2
    assert "missing key 'n'" in capsys.readouterr().err
    assert main(["count-ff", str(tmp_path / "absent.json"), "--q", "2", "--r", "1"]) == 2
    path = write(tmp_path, "yx3.json", YX3)
    assert main(["count-ff", path, "--q", "2,3", "--r", "1", "--mu-cap", "0"]) == 2
    assert "--mu-cap must be >= 1" in capsys.readouterr().err
    assert_config_error(["count-ff", path, "--q", "2,3", "--r", "1", "--cap", "-1"],
                        "--cap must be >= 0, got -1", capsys, in_subprocess=False)


def test_count_ff_string_coefficients_exit_2(tmp_path, capsys):
    # a string is not a list of t-coefficients: named whole, not read as '1'
    bad = dict(YX3, polynomials=[[{"exp": [0, 1], "coeff": "12"}]])
    assert_config_error(["count-ff", write(tmp_path, "v.json", bad), "--q", "2,3", "--r", "1"],
                        "coefficient must be a list, got '12'", capsys, in_subprocess=False)


def test_count_ff_one_lift_per_field_size(tmp_path, capsys, monkeypatch):
    # each q lifts once, to the largest r its q^(r*n) cap admits; the
    # first r past the cap exits 3 naming the --cap that admits it
    from nonarch_lab import _kernels

    kernel, lifts = _kernels.ff_count, []

    def recorded(q, r, n, equations, want_indices=False, below=None):
        lifts.append((q, r))
        return kernel(q, r, n, equations, want_indices, below)

    monkeypatch.setattr(_kernels, "ff_count", recorded)
    path = write(tmp_path, "yx3.json", YX3)
    assert main(["count-ff", path, "--q", "2,3", "--r", "1..5", "--cap", "1000"]) == 3
    err = capsys.readouterr().err
    assert err == ("resource error: 6561 assignments q^(r*n) exceed cap 1000; "
                   "--cap 6561 admits them\n"), err
    assert lifts == [(2, 4), (3, 3)]
    # a cap of q^(r*n) decides; one below it exits 3
    assert main(["count-ff", path, "--q", "3", "--r", "4", "--cap", "6561",
                 "--out", str(tmp_path / "r4.json")]) == 0
    capsys.readouterr()
    assert main(["count-ff", path, "--q", "3", "--r", "4", "--cap", "6560"]) == 3
    assert capsys.readouterr().err == ("resource error: 6561 assignments q^(r*n) exceed "
                                       "cap 6560; --cap 6561 admits them\n")
    assert_config_error(["count-ff", path, "--q", "2,3", "--r", "3,0"], "need r >= 1",
                        capsys, in_subprocess=False)


@pytest.mark.parametrize("argv", [["taylor-check", "--r", "1"],
                                  ["count-ff", "--q", "2,3", "--r", "1"]],
                         ids=["taylor-check", "count-ff"])
def test_unreadable_input_path_exit_2(tmp_path, capsys, argv):
    # a directory, or a path through a regular file, cannot be opened: a
    # config error naming the path (exit 2), not a traceback and exit 1
    blocker = tmp_path / "file.json"
    blocker.write_text("{}")
    for path, named in ((tmp_path, "Is a directory"), (blocker / "map.json", "Not a directory")):
        assert_config_error(argv[:1] + [str(path)] + argv[1:],
                            f"cannot read {path}: {named}", capsys, in_subprocess=False)


@pytest.mark.parametrize("q, r, named", [
    ("2,3,2", "1,1", "--q lists 2 more than once"),
    ("2,3", "1..3,2", "--r lists 2 more than once"),
    ("2..5,3", "1", "--q lists 3 more than once"),
])
def test_count_ff_repeated_value_exit_2(tmp_path, capsys, q, r, named):
    # a repeated q or r would run every count again and emit a record per
    # repetition; it is rejected before any count runs
    path = write(tmp_path, "yx3.json", YX3)
    assert_config_error(["count-ff", path, "--q", q, "--r", r], named,
                        capsys, in_subprocess=False)


def test_bounds_nonprime_p_exit_2(capsys):
    for p in ("0", "1", "4"):
        argv = ["bounds", "--m", "1", "--n", "2", "--d", "1", "--T", "10", "--p", p]
        assert main(argv) == 2, p
        assert f"p = {p} is not prime" in capsys.readouterr().err
    assert_config_error(["bounds", "--m", "1", "--n", "2", "--d", "1", "--T", "-5",
                         "--p", "3"], "need T >= 0", capsys, in_subprocess=False)


def test_det_cover_nonprime_p_exit_2(tmp_path, capsys):
    path = write(tmp_path, "cover.json", COVER)
    for p in ("0", "1"):
        assert main(["det-cover", path, "--p", p]) == 2, p
        assert f"p = {p} is not prime" in capsys.readouterr().err


def test_expand_scheme_malformed_exit_2(tmp_path, capsys):
    path = write(tmp_path, "non.json", {k: v for k, v in YX3.items() if k != "n"})
    assert main(["expand-scheme", path, "--q", "2", "--r", "2"]) == 2
    assert "missing key 'n'" in capsys.readouterr().err
    path = write(tmp_path, "yx3.json", YX3)
    for r in ("0", "-1"):
        assert_config_error(["expand-scheme", path, "--q", "2", "--r", r], "need r >= 1",
                            capsys, in_subprocess=False)


def test_taylor_check_malformed_exit_2(tmp_path, capsys):
    path = write(tmp_path, "nom.json", {k: v for k, v in TR_X2.items() if k != "m"})
    assert main(["taylor-check", path, "--r", "2", "--K", "5"]) == 2
    assert "missing key 'm'" in capsys.readouterr().err
    plane = {"m": 2, "n": 1, "p": 3, "components": [[{"exp": [2, 0], "coeff": "1"}]],
             "domain": {"center": ["0", "0"], "alpha": 0}}
    for data in (TR_X2, plane):
        path = write(tmp_path, f"m{data['m']}.json", data)
        assert_config_error(["taylor-check", path, "--r", "2", "--K", "-1"], "need K >= 0",
                            capsys, in_subprocess=False)


def test_taylor_check_K_below_radius_exit_2(tmp_path, capsys):
    # x^2 on 9Z_3: K = 1 cannot name a residue class of the ball, a
    # configuration error and not an exhausted resource
    ball9 = dict(TR_X2, domain={"center": ["0"], "alpha": 2})
    plane9 = {"m": 2, "n": 1, "p": 3, "components": [[{"exp": [2, 0], "coeff": "1"}]],
              "domain": {"center": ["0", "0"], "alpha": 2}}
    for data in (ball9, plane9):
        path = write(tmp_path, f"ball{data['m']}.json", data)
        assert_config_error(["taylor-check", path, "--r", "2", "--K", "1"],
                            "K=1 below valuative radius 2", capsys, in_subprocess=False)
        code, report = run_to_json(["taylor-check", path, "--r", "2", "--K", "2"], tmp_path)
        assert code == 0 and report["results"]["verdict"] == "holds"


def test_taylor_check_multivariate_K_below_s(tmp_path, capsys):
    # x^2/2 on Z_2^2 fails C^1 at (1, 0); K = 0 names only the residue
    # (0, 0), so a multivariate check rejects K < s = 1 as the 1-D one does
    half = {"m": 2, "n": 1, "p": 2, "components": [[{"exp": [2, 0], "coeff": "1/2"}]],
            "domain": {"center": ["0", "0"], "alpha": 0}}
    path = write(tmp_path, "half.json", half)
    argv = ["taylor-check", path, "--r", "1"]
    assert main(argv + ["--K", "0"]) == 3
    assert ("K=0 below divided-derivative denominator exponent 1"
            in capsys.readouterr().err)
    code, report = run_to_json(argv + ["--K", "1"], tmp_path)
    assert code == 1 and report["results"]["verdict"] == "fails"
    # the default K = max(alpha*r + 8, s + 2, alpha + 1) = 8
    code, report = run_to_json(argv, tmp_path)
    assert code == 1 and report["results"]["K"] == 8


def test_taylor_check_x3_over_3_holds(tmp_path):
    # x^3/3 on 3Z_3 has s = 1 and satisfies T_1: the check proves "holds"
    cube = {"m": 1, "n": 1, "p": 3, "components": [[{"exp": [3], "coeff": "1/3"}]],
            "domain": {"center": ["0"], "alpha": 1}}
    path = write(tmp_path, "cube.json", cube)
    code, report = run_to_json(["taylor-check", path, "--r", "1"], tmp_path)
    assert code == 0
    assert (report["results"]["verdict"], report["results"]["witness"]) == ("holds", None)


@pytest.mark.parametrize("option", [["--strategy", "sampled"], ["--samples", "5"],
                                    ["--seed", "1"]], ids=["strategy", "samples", "seed"])
def test_taylor_check_has_no_sampling_options(tmp_path, option):
    # the check has one route: options that chose or seeded a sampled one
    # are unknown arguments
    path = write(tmp_path, "map.json", TR_X2)
    with pytest.raises(SystemExit) as exc:
        main(["taylor-check", path, "--r", "2"] + option)
    assert exc.value.code == 2


def test_parser_built_once_and_reused(tmp_path):
    # one argparse tree serves every main() call of a process: the bytes of
    # each call equal those of a run on a freshly built tree, and no
    # subcommand's defaults reach another's namespace
    tr = write(tmp_path, "map.json", TR_X2)
    yx3 = write(tmp_path, "yx3.json", YX3)
    jobs = {
        "bounds": ["bounds", "--m", "1", "--n", "2", "--d", "2", "--T", "10", "--p", "3"],
        "taylor": ["taylor-check", tr, "--r", "2", "--K", "5"],
        "count": ["count-ff", yx3, "--q", "2,3", "--r", "1..2", "--mu-cap", "9"],
    }

    def run(name):
        out = str(tmp_path / f"{name}.json")
        code = main(jobs[name] + ["--out", out])
        with open(out, "rb") as fh:
            return code, fh.read()

    fresh = {}
    for name in jobs:
        build_parser.cache_clear()
        fresh[name] = run(name)
    assert build_parser() is build_parser()
    for name in ("bounds", "taylor", "count", "bounds", "count", "taylor"):
        assert run(name) == fresh[name], name
    assert json.loads(fresh["bounds"][1])["config"]["seed"] == 0
    assert json.loads(fresh["taylor"][1])["config"]["K"] == 5
    ap = build_parser()
    seen = {name: vars(ap.parse_args(argv)) for name, argv in jobs.items()}
    assert vars(ap.parse_args(jobs["bounds"])) == seen["bounds"]
    assert not {"seed", "strategy", "samples", "K", "mu_cap", "q", "cap"} & set(seen["bounds"])
    assert not {"seed", "strategy", "samples"} & set(seen["count"])
    assert not {"seed", "strategy", "samples", "mu_cap"} & set(seen["taylor"])
    assert seen["count"]["mu_cap"] == 9 and seen["taylor"]["K"] == 5


def run_python_subprocess(args, timeout=30, max_bytes=None):
    """Run a fresh interpreter on args in a child process that finds the
    package where this test process found it; a hang fails the test at
    `timeout` seconds.  With max_bytes, the child's address space is
    limited to it (RLIMIT_AS, set in the child only)."""
    src = os.path.dirname(os.path.dirname(nonarch_lab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (max_bytes, max_bytes))

    return subprocess.run([sys.executable] + args, capture_output=True, text=True,
                          env=env, timeout=timeout, preexec_fn=limit if max_bytes else None)


def run_cli_subprocess(argv, timeout=30, max_bytes=None):
    """Run the CLI in a child process (see run_python_subprocess)."""
    return run_python_subprocess(["-m", "nonarch_lab.cli"] + argv, timeout, max_bytes)


def assert_config_error(argv, named, capsys, in_subprocess):
    """argv exits 2 with a config error naming `named`, and no traceback."""
    if in_subprocess:
        proc = run_cli_subprocess(argv)
        code, err = proc.returncode, proc.stderr
    else:
        code, err = main(argv), capsys.readouterr().err
    assert code == 2, err
    assert "config error:" in err and "Traceback" not in err, err
    assert named in err, err


# without the prime check, p = 1 and a nonzero centre loop forever in val_int;
# that case runs in a child process with a timeout
@pytest.mark.parametrize("p", [-3, 0, 1, 4])
def test_taylor_check_nonprime_p_exit_2(tmp_path, capsys, p):
    path = write(tmp_path, "map.json",
                 dict(TR_X2, p=p, domain={"center": ["1"], "alpha": 0}))
    assert_config_error(["taylor-check", path, "--r", "2", "--K", "5"],
                        f"p = {p} is not prime", capsys, in_subprocess=p == 1)


ORD_X = {"poly": [{"exp": [1, 0], "coeff": "1"}], "kind": "ord_ge", "c": 1}


@pytest.mark.parametrize("p, constraint, named", [
    (0, ORD_X, "p = 0 is not prime"),
    (1, ORD_X, "p = 1 is not prime"),
    (4, ORD_X, "p = 4 is not prime"),
    (3, {"poly": [{"exp": [1, 0], "coeff": "1"}], "kind": "ac_eq", "depth": -1,
         "value": 1}, "depth >= 1, got -1"),
], ids=["p0", "p1", "p4", "depth-1"])
def test_heights_malformed_padic_exit_2(tmp_path, capsys, p, constraint, named):
    path = write(tmp_path, "padic.json",
                 dict(CIRCLE, padic={"p": p, "constraints": [constraint]}))
    assert_config_error(["heights", path, "--T", "2"], named, capsys,
                        in_subprocess=p == 1)


def test_heights_ac_eq_of_large_depth_runs(tmp_path):
    # ac_eq is decided by valuation: depth 10^9 forms no 5^(10^9), and of
    # the circle's integer points only x = 1 has unit part 1 mod 5^(10^9)
    ac = {"poly": [{"exp": [1, 0], "coeff": "1"}], "kind": "ac_eq", "depth": 10**9,
          "value": 1}
    path = write(tmp_path, "deep.json", dict(CIRCLE, padic={"p": 5, "constraints": [ac]}))
    proc = run_cli_subprocess(["heights", path, "--mode", "Z", "--T", "10"], timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"]["points"] == [["1", "0"]]
    elapsed = float(proc.stderr.split()[-1].rstrip("s"))
    assert elapsed < 1.0, proc.stderr


def test_hilbert_malformed_exit_2(tmp_path, capsys):
    path = write(tmp_path, "novars.json", {"generators": CONIC_IDEAL["generators"]})
    assert main(["hilbert", path, "--smax", "3"]) == 2
    assert "missing key 'vars'" in capsys.readouterr().err
    path = write(tmp_path, "arity.json", {"vars": 2, "generators": CONIC_IDEAL["generators"]})
    assert main(["hilbert", path, "--smax", "3"]) == 2
    assert "arity 3, expected 2" in capsys.readouterr().err
    path = write(tmp_path, "conic.json", CONIC_IDEAL)
    for extra, named in ((["--salberger-m", "1", "--salberger-s", "0"], "--salberger-s"),
                         (["--salberger-m", "1", "--salberger-s", "5,0..2"],
                          "--salberger-s"),
                         (["--salberger-m", "-1"], "--salberger-m"),
                         (["--select", "0", "4"], "--select"),
                         (["--select", "2", "0"], "--select"),
                         (["--smax", "-2"], "--smax")):
        assert main(["hilbert", path, "--smax", "3"] + extra) == 2, extra
        assert named in capsys.readouterr().err
    path = write(tmp_path, "twisted.json", TWISTED_CUBIC_IDEAL)
    assert_config_error(["hilbert", path, "--budget", "-1"], "--budget must be >= 0",
                        capsys, in_subprocess=False)


@pytest.mark.parametrize("generators", [[[{"exp": [1, 0, 0], "coeff": "0"}]], [[]]],
                         ids=["zero-coefficient", "no-terms"])
def test_hilbert_zero_generator_is_the_zero_ideal(tmp_path, generators):
    # a zero generator is dropped: the table is that of no generator, and
    # the variable count comes from "vars" (it once came from the first
    # generator left, and the run exited 2)
    argv = ["--smax", "4", "--select", "2", "4", "--salberger-m", "1"]
    _, want = run_to_json(["hilbert", write(tmp_path, "none.json",
                                            {"vars": 3, "generators": []})] + argv,
                          tmp_path, "none_out.json")
    code, got = run_to_json(["hilbert", write(tmp_path, "zero.json",
                                              {"vars": 3, "generators": generators})] + argv,
                            tmp_path)
    assert code == 0 and got["results"] == want["results"]
    assert got["results"]["lt_generators"] == got["results"]["groebner_basis"] == []


def test_hilbert_inhomogeneous_generator_exit_2(tmp_path, capsys):
    # x0 + 1 has terms of degrees 1 and 0
    path = write(tmp_path, "inhom.json", {"vars": 3, "generators": [
        CONIC_IDEAL["generators"][0],
        [{"exp": [1, 0, 0], "coeff": "1"}, {"exp": [0, 0, 0], "coeff": "1"}]]})
    assert_config_error(["hilbert", path, "--smax", "3"], "generators must be homogeneous",
                        capsys, in_subprocess=False)


def test_hilbert_select_past_the_scan_cap_exit_3(tmp_path, capsys):
    # on the conic no delta up to scan_cap = 500 admits an alpha for d = 5,
    # r = 3: the scan's cap is exhausted, and the message keeps the last ratio
    path = write(tmp_path, "conic.json", CONIC_IDEAL)
    assert main(["hilbert", path, "--select", "5", "3"]) == 3
    assert capsys.readouterr().err == (
        "resource error: 501 degrees delta exceed cap 500; scan_cap 501 admits them; "
        "last ratio 1002/1001\n")


@pytest.mark.parametrize("command,argv,named", [
    ("heights", ["--mode", "Q", "--k", "0", "--T", "2"], "--k must be >= 1, got 0"),
    ("count-ff", ["--q", "5", "--r", "1", "--mu-cap", "0"], "--mu-cap must be >= 1, got 0"),
    ("hilbert", ["--budget", "-1"], "--budget must be >= 0, got -1"),
    ("hilbert", ["--salberger-s", "0"], "--salberger-s values must be >= 1, got '0'"),
    ("hilbert", ["--salberger-s", "abc"], "bad integer 'abc'"),
], ids=["heights-k", "count-ff-mu-cap", "hilbert-budget", "hilbert-salberger-s-0",
        "hilbert-salberger-s-abc"])
def test_options_checked_when_the_run_does_not_read_them(tmp_path, capsys, command,
                                                         argv, named):
    # Q mode reads no --k, one field size fits no mu, an ideal without
    # generators runs no S-pair and a run without --salberger-m reads no
    # --salberger-s: each option is still checked up front
    data = {"heights": CIRCLE, "count-ff": YX3,
            "hilbert": {"vars": 3, "generators": []}}[command]
    assert_config_error([command, write(tmp_path, "input.json", data)] + argv, named,
                        capsys, in_subprocess=False)


@pytest.mark.parametrize("flag", ["--out", "--csv"])
def test_unwritable_out_or_csv_exit_2(tmp_path, capsys, flag):
    # a directory as the report path, a file in a missing directory as the CSV
    if flag == "--out":
        argv = ["heights", write(tmp_path, "circle.json", CIRCLE), "--T", "3"]
        target = str(tmp_path)
    else:
        argv = ["hilbert", write(tmp_path, "conic.json", CONIC_IDEAL)]
        target = str(tmp_path / "absent" / "table.csv")
    assert_config_error(argv + [flag, target], f"cannot write {target}", capsys,
                        in_subprocess=True)


@pytest.mark.parametrize("flag", ["--out", "--csv"])
def test_unwritable_output_emits_nothing(tmp_path, flag):
    # both paths are opened before anything is written: the exit 2 of an
    # unwritable --csv comes with no report on stdout and no elapsed line,
    # and that of an unwritable --out writes no CSV
    argv = ["hilbert", write(tmp_path, "conic.json", CONIC_IDEAL)]
    table = tmp_path / "table.csv"
    if flag == "--out":
        argv += ["--out", str(tmp_path), "--csv", str(table)]
    else:
        argv += ["--csv", str(tmp_path / "absent" / "table.csv")]
    proc = run_cli_subprocess(argv)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == "" and "elapsed" not in proc.stderr, proc.stderr
    assert proc.stderr.startswith("config error: cannot write"), proc.stderr
    assert not table.exists()


def _exponent_input(command, e):
    """A small input of `command` with one exponent equal to e: x^e + y
    over Z[t], x^e - y over Q (as a curve, a cover's curve or an ideal
    generator), or the map x^e."""
    if command in ("count-ff", "expand-scheme"):
        return {"n": 2, "polynomials": [[{"exp": [e, 0], "coeff": [1]},
                                         {"exp": [0, 1], "coeff": [1]}]]}
    poly = [{"exp": [e, 0], "coeff": "1"}, {"exp": [0, 1], "coeff": "-1"}]
    if command == "heights":
        return {"vars": 2, "equations": [poly]}
    if command == "det-cover":
        return dict(COVER, curve={"vars": 2, "equations": [poly]})
    if command == "hilbert":
        return {"vars": 2, "generators": [poly]}
    return dict(TR_X2, components=[[{"exp": [e], "coeff": "1"}]])


EXPONENT_ARGV = {
    "count-ff": ["--q", "3", "--r", "1"],
    "det-cover": [],
    "expand-scheme": ["--q", "3", "--r", "2"],
    "heights": ["--T", "5"],
    "hilbert": ["--smax", "3"],
    "taylor-check": ["--r", "2", "--K", "5"],
}


# unchecked, x^-1 + y made expand-scheme loop forever in MultiPoly.__pow__;
# that case runs in a child process with a timeout
@pytest.mark.parametrize("e", [-1, 1.5])
@pytest.mark.parametrize("command", sorted(EXPONENT_ARGV))
def test_exponent_not_natural_exit_2(tmp_path, capsys, command, e):
    path = write(tmp_path, "input.json", _exponent_input(command, e))
    assert_config_error([command, path] + EXPONENT_ARGV[command], "exponent must be",
                        capsys, in_subprocess=command == "expand-scheme")


@pytest.mark.parametrize("field, value, named", [
    ("coeff", 1.5, "coefficient must be an integer, got 1.5"),
    ("n", -1, "n must be >= 0, got -1"),
    ("m", -1, "m must be >= 0, got -1"),
    ("d", 0, "d must be >= 1, got 0"),
    ("irreducible", "false", "irreducible must be true or false, got 'false'"),
    ("irreducible", 0, "irreducible must be true or false, got 0"),
    ("irreducible", 1, "irreducible must be true or false, got 1"),
], ids=["coeff", "n", "m", "d", "irreducible-str", "irreducible-0", "irreducible-1"])
@pytest.mark.parametrize("command", ["count-ff", "expand-scheme"])
def test_variety_fields_exit_2(tmp_path, capsys, command, field, value, named):
    if field == "coeff":
        data = dict(YX3, polynomials=[[{"exp": [0, 1], "coeff": [value]},
                                       {"exp": [3, 0], "coeff": [-1]}]])
    else:
        data = dict(YX3, **{field: value})
    path = write(tmp_path, "variety.json", data)
    argv = [command, path] + (["--q", "2,3", "--r", "1..2"] if command == "count-ff"
                              else ["--q", "2", "--r", "2"])
    assert_config_error(argv, named, capsys, in_subprocess=False)


AC_X = {"poly": [{"exp": [1, 0], "coeff": "1"}], "kind": "ac_eq", "depth": 1,
        "value": 1}

# per command: a valid input and the arguments that run it
INTEGER_FIELD_INPUTS = {
    "det-cover": (COVER, []),
    "heights": (dict(CIRCLE, padic={"p": 3, "constraints": [ORD_X, AC_X]}), ["--T", "2"]),
    "hilbert": (CONIC_IDEAL, ["--smax", "3"]),
    "taylor-check": (TR_X2, ["--r", "2", "--K", "5"]),
}

# int() would truncate each of these to an integer and run on
INTEGER_FIELD_CASES = [
    ("heights", ("vars",), 2.7, "vars must be an integer, got 2.7"),
    ("heights", ("padic", "p"), 3.5, "padic.p must be an integer, got 3.5"),
    ("heights", ("padic", "constraints", 0, "c"), 1.5,
     "constraint c must be an integer, got 1.5"),
    ("heights", ("padic", "constraints", 1, "depth"), 1.5,
     "constraint depth must be an integer, got 1.5"),
    ("heights", ("padic", "constraints", 1, "value"), 0.5,
     "constraint value must be an integer, got 0.5"),
    ("taylor-check", ("m",), 1.5, "m must be an integer, got 1.5"),
    ("taylor-check", ("n",), 1.5, "n must be an integer, got 1.5"),
    ("taylor-check", ("p",), 3.9, "p must be an integer, got 3.9"),
    ("taylor-check", ("domain", "alpha"), 0.5, "domain.alpha must be an integer, got 0.5"),
    ("det-cover", ("T",), 100.9, "T must be an integer, got 100.9"),
    ("det-cover", ("d",), 2.5, "d must be an integer, got 2.5"),
    ("det-cover", ("p",), 3.5, "p must be an integer, got 3.5"),
    ("hilbert", ("vars",), 3.5, "vars must be an integer, got 3.5"),
    ("taylor-check", ("tail_floor",), "x", "tail_floor must be an integer, got 'x'"),
    ("taylor-check", ("tail_floor",), 1.5, "tail_floor must be an integer, got 1.5"),
    ("taylor-check", ("tail_floor",), -1, "tail_floor must be >= 0, got -1"),
    ("taylor-check", ("tail_floor",), [1], "tail_floor must be an integer, got [1]"),
]


def _replaced(data, field, value):
    """A copy of the JSON input data with the entry at the key path field
    set to value."""
    data = json.loads(json.dumps(data))
    node = data
    for key in field[:-1]:
        node = node[key]
    node[field[-1]] = value
    return data


@pytest.mark.parametrize("command, field, value, named", INTEGER_FIELD_CASES,
                         ids=[f"{c}-{f[-1]}" for c, f, _v, _n in INTEGER_FIELD_CASES])
def test_integer_fields_not_integer_exit_2(tmp_path, capsys, command, field, value, named):
    data, argv = INTEGER_FIELD_INPUTS[command]
    path = write(tmp_path, "input.json", _replaced(data, field, value))
    assert_config_error([command, path] + argv, named, capsys, in_subprocess=False)


# a JSON true is an int to Python: read as a rational it would be 1
BOOL_RATIONAL_CASES = [
    (("components", 0, 0, "coeff"), "bad rational True"),
    (("domain", "center", 0), "bad rational True"),
]


@pytest.mark.parametrize("field, named", BOOL_RATIONAL_CASES, ids=["coeff", "center"])
def test_rational_fields_bool_exit_2(tmp_path, capsys, field, named):
    data, argv = INTEGER_FIELD_INPUTS["taylor-check"]
    path = write(tmp_path, "input.json", _replaced(data, field, True))
    assert_config_error(["taylor-check", path] + argv, named, capsys, in_subprocess=False)


# iterating a string would read it one character at a time: "12" as the
# centre (1, 2) of a two-variable ball
LIST_FIELD_CASES = [
    ("taylor-check", ("domain", "center"), "12", "domain.center must be a list, got '12'"),
    ("taylor-check", ("components",), "x", "components must be a list, got 'x'"),
    ("taylor-check", ("components", 0), "x", "polynomial must be a list, got 'x'"),
    ("det-cover", ("psi", "components"), "x", "components must be a list, got 'x'"),
    ("heights", ("equations",), "x", "equations must be a list, got 'x'"),
    ("heights", ("inequations",), "x", "inequations must be a list, got 'x'"),
    ("heights", ("padic", "constraints"), "x", "padic.constraints must be a list, got 'x'"),
    ("hilbert", ("generators",), "x", "generators must be a list, got 'x'"),
    ("count-ff", ("polynomials",), "x", "polynomials must be a list, got 'x'"),
    ("count-ff", ("polynomials", 0), "x", "polynomial must be a list, got 'x'"),
]


@pytest.mark.parametrize("command, field, value, named", LIST_FIELD_CASES,
                         ids=["-".join(map(str, [c, *f])) for c, f, _v, _n in LIST_FIELD_CASES])
def test_list_fields_not_list_exit_2(tmp_path, capsys, command, field, value, named):
    inputs = dict(INTEGER_FIELD_INPUTS, **{
        "taylor-check": (dict(TR_X2, m=2, components=[[{"exp": [1, 1], "coeff": "1/3"}]],
                              domain={"center": ["1", "2"], "alpha": 0}), ["--r", "1"]),
        "count-ff": (YX3, ["--q", "2,3", "--r", "1"])})
    data, argv = inputs[command]
    path = write(tmp_path, "input.json", _replaced(data, field, value))
    assert_config_error([command, path] + argv, named, capsys, in_subprocess=False)



@pytest.mark.parametrize("command, data", [("heights", {"vars": -1, "equations": []}),
                                           ("hilbert", {"vars": -2, "generators": []})],
                         ids=["heights", "hilbert"])
def test_negative_vars_exit_2(tmp_path, capsys, command, data):
    # a negative variable count is malformed input: without the check,
    # heights raised a ValueError (exit 1) and hilbert printed an empty table
    argv = INTEGER_FIELD_INPUTS[command][1]
    path = write(tmp_path, "input.json", data)
    value = data["vars"]
    assert_config_error([command, path] + argv, f"vars must be >= 0, got {value}",
                        capsys, in_subprocess=False)

NUMPY_PROBE = """\
import importlib, json, pkgutil, sys
import nonarch_lab
from nonarch_lab.cli import main
for info in pkgutil.iter_modules(nonarch_lab.__path__):
    importlib.import_module("nonarch_lab." + info.name)
steps = [["import", None, "numpy" in sys.modules]]
for argv in json.loads(sys.argv[1]):
    steps.append([argv[0], main(argv), "numpy" in sys.modules])
print(json.dumps(steps))
"""


def test_numpy_loaded_only_by_array_subcommands(tmp_path):
    # importing the package and running the subcommands that build no array
    # leave numpy unloaded; taylor-check loads it at its first array
    runs = [
        ["heights", write(tmp_path, "circle.json", CIRCLE), "--T", "3"],
        ["hilbert", write(tmp_path, "conic.json", CONIC_IDEAL), "--smax", "3"],
        ["bounds", "--m", "1", "--n", "2", "--d", "1", "--T", "10", "--p", "3"],
        ["expand-scheme", write(tmp_path, "yx3.json", YX3), "--q", "2", "--r", "2"],
        ["taylor-check", write(tmp_path, "map.json", TR_X2), "--r", "2", "--K", "5"],
    ]
    out = str(tmp_path / "out.json")
    proc = run_python_subprocess(
        ["-c", NUMPY_PROBE, json.dumps([argv + ["--out", out] for argv in runs])])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        ["import", None, False],
        ["heights", 0, False],
        ["hilbert", 0, False],
        ["bounds", 0, False],
        ["expand-scheme", 0, False],
        ["taylor-check", 0, True],
    ]


def test_det_cover_and_multivariate_check_start_without_numpy(tmp_path):
    # the cover's integral certificates, and a check on a 2-D map with
    # p-denominators, list no residue class as an array: numpy stays
    # unloaded through both
    half = {"m": 2, "n": 1, "p": 2,
            "components": [[{"exp": [2, 0], "coeff": "1/2"}, {"exp": [0, 1], "coeff": "1"}]],
            "domain": {"center": ["0", "0"], "alpha": 0}}
    runs = [
        ["det-cover", write(tmp_path, "cover.json", COVER)],
        ["taylor-check", write(tmp_path, "half.json", half), "--r", "2", "--K", "3"],
    ]
    out = str(tmp_path / "out.json")
    proc = run_python_subprocess(
        ["-c", NUMPY_PROBE, json.dumps([argv + ["--out", out] for argv in runs])])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        ["import", None, False],
        ["det-cover", 0, False],
        ["taylor-check", 1, False],
    ]


def test_seed_is_a_fixed_config_field(tmp_path):
    # no subcommand takes --seed, and every report carries "seed": 0;
    # taylor-check's config also carries "strategy": "exhaustive"
    circle = write(tmp_path, "circle.json", CIRCLE)
    with pytest.raises(SystemExit) as exc:
        main(["heights", circle, "--T", "2", "--seed", "1"])
    assert exc.value.code == 2
    tr = write(tmp_path, "map.json", TR_X2)
    code, report = run_to_json(["taylor-check", tr, "--r", "2"], tmp_path)
    assert code == 0 and report["config"]["seed"] == 0
    assert report["config"]["strategy"] == "exhaustive"
    assert report["results"]["strategy"] == "exhaustive-mod-3^8"
    code, report = run_to_json(["heights", circle, "--T", "2"], tmp_path, "h.json")
    assert code == 0 and report["config"]["seed"] == 0


def test_threads_flag_accepted_and_ignored(tmp_path):
    path = write(tmp_path, "yx3.json", YX3)
    reports = []
    for threads in ("1", "4"):
        out = str(tmp_path / f"t{threads}.json")
        assert main(["count-ff", path, "--q", "2,3", "--r", "1..3",
                     "--threads", threads, "--out", out]) == 0
        reports.append(open(out, "rb").read())
    assert reports[0] == reports[1]
    assert main(["bounds", "--m", "1", "--n", "2", "--d", "1", "--T", "10",
                 "--p", "3", "--threads", "2", "--out", str(tmp_path / "b.json")]) == 0


def test_cap_exit_3(tmp_path):
    path = write(tmp_path, "circle.json", CIRCLE)
    assert main(["heights", path, "--T", "5", "--cap", "3"]) == 3


def test_determinism_byte_identical(tmp_path):
    path = write(tmp_path, "circle.json", CIRCLE)
    out1 = str(tmp_path / "a.json")
    out2 = str(tmp_path / "b.json")
    assert main(["heights", path, "--T", "4", "--out", out1]) == 0
    assert main(["heights", path, "--T", "4", "--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_corpus_runner(tmp_path, capsys):
    case = tmp_path / "corpus" / "bounds-1"
    case.mkdir(parents=True)
    expected = str(case / "expected.json")
    argv = ["bounds", "--m", "1", "--n", "2", "--d", "1", "--T", "10", "--p", "3"]
    assert main(argv + ["--out", expected]) == 0
    (case / "cmd.json").write_text(json.dumps({"argv": argv}))
    assert main(["corpus", str(tmp_path / "corpus")]) == 0
    # perturb the expected file -> the case fails
    blob = json.loads(open(expected).read())
    blob["results"]["alpha"] = 99
    open(expected, "w").write(json.dumps(blob, indent=2, sort_keys=True) + "\n")
    capsys.readouterr()
    assert main(["corpus", str(tmp_path / "corpus")]) == 1
    # the first report line that differs is printed, and nothing else
    assert capsys.readouterr().out.splitlines() == [
        "FAIL  bounds-1", "      report line 13: got '    \"alpha\": 2,\\n', "
        "want '    \"alpha\": 99,\\n'", "corpus: 1 cases, 0 passed, 1 failed"]
    # empty directory passes with a warning
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["corpus", str(empty)]) == 0


def write_corpus_case(corpus, name, cmd, expected=None):
    case = corpus / name
    case.mkdir(parents=True)
    (case / "cmd.json").write_text(cmd if isinstance(cmd, str) else json.dumps(cmd))
    if expected is not None:
        (case / "expected.json").write_bytes(expected)


BOUNDS_ARGV = ["bounds", "--m", "1", "--n", "2", "--d", "1", "--T", "10", "--p", "3"]


@pytest.mark.parametrize("cmd, expected, named", [
    ({"argv": BOUNDS_ARGV}, None, "cannot read expected file"),
    ({"argv": "bounds"}, b"", "argv must be a list of strings"),
    ({"argv": ["bounds", 3]}, b"", "argv must be a list of strings"),
    ({}, b"", "needs an object with an argv list"),
    ([], b"", "needs an object with an argv list"),
    ("{", b"", "malformed JSON"),
    ({"argv": BOUNDS_ARGV, "expected": 5}, b"", "expected must be a file name"),
    ({"argv": BOUNDS_ARGV, "exit_code": "0"}, b"", "exit_code must be an integer"),
    ({"argv": BOUNDS_ARGV, "exit_code": 3}, b"", "needs a stderr line exactly when"),
    ({"argv": BOUNDS_ARGV, "stderr": ""}, b"", "needs a stderr line exactly when"),
    ({"argv": BOUNDS_ARGV, "exit_code": 3, "stderr": 3}, b"", "stderr must be one line"),
], ids=["no-expected", "argv-str", "argv-int", "no-argv", "not-object",
        "bad-json", "expected-int", "exit-code-str", "nonzero-without-stderr",
        "zero-with-stderr", "stderr-int"])
def test_corpus_malformed_case_exit_2(tmp_path, capsys, cmd, expected, named):
    # a malformed case is a config error naming the case, before any case runs
    corpus = tmp_path / "corpus"
    write_corpus_case(corpus, "a-good", {"argv": BOUNDS_ARGV}, b"")
    write_corpus_case(corpus, "b-bad", cmd, expected)
    code = main(["corpus", str(corpus)])
    out, err = capsys.readouterr()
    assert code == 2 and out == "", (out, err)
    assert "config error:" in err and "Traceback" not in err, err
    assert named in err and "b-bad" in err, err


def test_corpus_case_that_runs_corpus_exit_2(tmp_path, capsys):
    # a nested corpus writes no report, and one run on its own directory
    # would recurse: the case is rejected before any case runs
    corpus = tmp_path / "corpus"
    write_corpus_case(corpus, "a-good", {"argv": BOUNDS_ARGV}, b"")
    write_corpus_case(corpus, "b-self", {"argv": ["corpus", str(corpus)]}, b"")
    code = main(["corpus", str(corpus)])
    out, err = capsys.readouterr()
    assert code == 2 and out == "", (out, err)
    assert "config error:" in err and "Traceback" not in err, err
    assert "argv runs corpus" in err and "b-self" in err, err


def test_corpus_argparse_rejection_is_case_exit_2(tmp_path, capsys):
    # argparse rejecting a case's argv gives that case exit code 2, compared
    # with its exit_code and its first stderr line, the usage line; the
    # cases after it still run
    corpus = tmp_path / "corpus"
    expected = str(tmp_path / "bounds.json")
    assert main(BOUNDS_ARGV + ["--out", expected]) == 0
    report = open(expected, "rb").read()
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["bounds", "--m", "x"])
    usage = capsys.readouterr().err.split("\n", 1)[0]
    assert usage.startswith("usage: "), usage
    with pytest.raises(SystemExit):
        main(["nope"])
    top_usage = capsys.readouterr().err.split("\n", 1)[0]
    write_corpus_case(corpus, "a-rejected", {"argv": ["bounds", "--m", "x"], "exit_code": 2,
                                             "stderr": usage}, b"")
    write_corpus_case(corpus, "b-rejected-wrong-code", {"argv": ["nope"]}, b"")
    write_corpus_case(corpus, "c-bounds", {"argv": BOUNDS_ARGV}, report)
    capsys.readouterr()
    assert main(["corpus", str(corpus)]) == 1
    out = capsys.readouterr().out
    assert out.splitlines() == ["pass  a-rejected", "FAIL  b-rejected-wrong-code",
                                "      exit code: got 2, want 0",
                                f"      stderr: got {top_usage!r}, want ''",
                                "pass  c-bounds", "corpus: 3 cases, 2 passed, 1 failed"]


CAP_CASE = "count-ff-elliptic-q13-r4-default-cap"


CAP_LINE = ("resource error: 815730721 assignments q^(r*n) exceed cap 20000000; "
            "--cap 815730721 admits them")


@pytest.mark.parametrize("change, report, details", [
    (None, b"", None),
    (("stderr", lambda line: line.replace("815730721 admits", "815730722 admits")), b"",
     [f"stderr: got {CAP_LINE!r}, want {CAP_LINE.replace('815730721 admits', '815730722 admits')!r}"]),
    (("exit_code", lambda code: 2), b"", ["exit code: got 3, want 2"]),
    (None, b'{\n  "results": {}\n}\n', ["report line 1: got '', want '{\\n'"]),
], ids=["as-recorded", "stderr-digit", "exit-code", "report"])
def test_corpus_compares_the_stderr_line_of_a_failing_case(tmp_path, monkeypatch, capsys,
                                                           change, report, details):
    # a copy of the exit-3 corpus case passes as recorded, and fails with
    # one digit of its stderr line changed, with another exit code or with a
    # report it does not write; under its FAIL line each part that differs
    # is printed, and only that part.  Its argv names the input relative to
    # the repository root
    root = Path(__file__).resolve().parent.parent
    monkeypatch.chdir(root)
    spec = json.loads((root / "corpus" / CAP_CASE / "cmd.json").read_text())
    assert (spec["exit_code"], spec["stderr"]) == (3, CAP_LINE)
    if change:
        key, edit = change
        spec[key] = edit(spec[key])
    write_corpus_case(tmp_path / "corpus", CAP_CASE, spec, report)
    assert main(["corpus", str(tmp_path / "corpus")]) == (0 if details is None else 1)
    out = capsys.readouterr().out.splitlines()
    if details is None:
        assert out == [f"pass  {CAP_CASE}", "corpus: 1 cases, 1 passed, 0 failed"], out
    else:
        assert out == ([f"FAIL  {CAP_CASE}"] + [f"      {line}" for line in details]
                       + ["corpus: 1 cases, 0 passed, 1 failed"]), out


def test_only_a_run_that_exits_0_writes_elapsed(tmp_path, capsys):
    # a failing taylor-check writes its report and exit 1, and no elapsed
    # line: a failing run's stderr holds nothing that varies between runs
    path = write(tmp_path, "bad.json", {"m": 1, "n": 1, "p": 2, "domain": {"center": ["0"]},
                                        "components": [[{"exp": [2], "coeff": "1/2"}]]})
    assert main(["taylor-check", path, "--r", "1"]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out)["results"]["verdict"] == "fails" and err == "", err


# per subcommand: its input, the arguments after the input path, and the
# exact CSV bytes it writes
CSV_CASES = {
    "count-ff": (YX3, ["--q", "2,3", "--r", "1..4"],
                 b"q,r,count,delta,mu,slack_sq\r\n2,1,2,1,1,0\r\n3,1,3,1,1,0\r\n"
                 b"2,2,2,1,1,0\r\n3,2,3,1,1,0\r\n2,3,2,1,1,0\r\n3,3,3,1,1,0\r\n"
                 b"2,4,4,2,1,0\r\n3,4,9,2,1,0\r\n"),
    "det-cover": (COVER, [],
                  b"ball_id,n_points,poly_degree,beta_coeff_valuation\r\n0,1,1,0\r\n"
                  b"1,1,1,0\r\n2,1,1,0\r\n3,1,1,0\r\n6,1,1,0\r\n7,1,1,0\r\n"
                  b"8,1,1,0\r\n"),
    "hilbert": (CONIC_IDEAL, ["--smax", "4"],
                b"s,H,sigma_0,sigma_1,sigma_2,ratio_0,ratio_1,ratio_2\r\n"
                b"1,3,1,1,1,1/3,1/3,1/3\r\n2,5,4,2,4,2/5,1/5,2/5\r\n"
                b"3,7,9,3,9,3/7,1/7,3/7\r\n4,9,16,4,16,4/9,1/9,4/9\r\n"),
}


@pytest.mark.parametrize("command", sorted(CSV_CASES))
def test_csv_bytes_pinned(tmp_path, command):
    data, argv, want = CSV_CASES[command]
    path = write(tmp_path, "input.json", data)
    csv_path = tmp_path / "table.csv"
    code = main([command, path] + argv + ["--out", str(tmp_path / "out.json"),
                                          "--csv", str(csv_path)])
    assert code == 0
    assert csv_path.read_bytes() == want


# per report-writing subcommand: its input (None for bounds) and arguments
REPORT_RUNS = {
    "bounds": (None, BOUNDS_ARGV[1:]),
    "heights": (CIRCLE, ["--T", "2"]),
    "taylor-check": (TR_X2, ["--r", "2", "--K", "5"]),
    "det-cover": (COVER, ["--csv", "cover.csv"]),
    "count-ff": (YX3, ["--q", "2,3", "--r", "1..2", "--csv", "counts.csv"]),
    "expand-scheme": (YX3, ["--q", "2", "--r", "2"]),
    "hilbert": (CONIC_IDEAL, ["--smax", "3", "--csv", "table.csv"]),
}


@pytest.mark.parametrize("command", list(REPORT_RUNS))
def test_report_envelope(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    data, argv = REPORT_RUNS[command]
    path = [] if data is None else [write(tmp_path, f"{command}-in.json", data)]
    assert main([command] + path + argv) == 0
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert set(report) == {"config", "version", "results"}
    assert report["version"] == nonarch_lab.__version__
    config = report["config"]
    assert config["subcommand"] == command and config["seed"] == 0
    assert config.get("input") == (None if data is None else f"{command}-in.json")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("elapsed "), err


def test_cli_entrypoint_subprocess():
    proc = run_cli_subprocess(["bounds", "--m", "1", "--n", "2", "--d", "2",
                               "--T", "10", "--p", "3"])
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["results"]["r"] == 6 and report["results"]["e"] == 15


@pytest.mark.parametrize("ideal", [
    {"vars": 3, "generators": [[{"exp": [0, 0, 0], "coeff": "1"}]]},
    {"vars": 0, "generators": []},
], ids=["unit-ideal", "no-variables"])
def test_hilbert_salberger_check_with_zero_hilbert_function_exit_2(tmp_path, capsys, ideal):
    # H(s) = 0 at every s >= 1: the ratio sigma / (s * H(s)) is undefined
    path = write(tmp_path, "ideal.json", ideal)
    assert_config_error(["hilbert", path, "--smax", "3", "--salberger-m", "1"],
                        "H(10) = 0", capsys, in_subprocess=False)


def test_taylor_check_s0_huge_K_holds_promptly(tmp_path):
    # s = 0: the zero-table limit is decided without forming p^(K - alpha)
    path = write(tmp_path, "map.json", TR_X2)
    proc = run_cli_subprocess(["taylor-check", path, "--r", "1", "--K", str(10**9)],
                              timeout=10)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout)["results"]
    assert (res["verdict"], res["K"]) == ("holds", 10**9)


LARGE_PRIME = 10**18 + 3
LINE_Q = {"n": 2, "m": 1, "d": 1, "irreducible": True,
          "polynomials": [[{"exp": [1, 0], "coeff": [1]}, {"exp": [0, 1], "coeff": [1]}]]}


@pytest.mark.parametrize("prime, code", [(LARGE_PRIME, 0), (2**89 - 1, 2)],
                         ids=["1e18+3", "M89-past-bound"])
@pytest.mark.parametrize("command", ["bounds", "expand-scheme"])
def test_large_prime_decided_within_a_second(tmp_path, command, prime, code):
    # trial division took minutes on 10^18 + 3; a probable prime past the
    # bound of the deterministic Miller-Rabin test is a config error
    argv = (["bounds", "--m", "1", "--n", "2", "--d", "2", "--T", "100", "--p", str(prime)]
            if command == "bounds" else
            ["expand-scheme", write(tmp_path, "line.json", LINE_Q), "--q", str(prime),
             "--r", "1"])
    t0 = time.perf_counter()
    proc = run_cli_subprocess(argv, timeout=10)
    assert time.perf_counter() - t0 < 1, argv
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if code:
        assert "cannot prove" in proc.stderr


# ---------------------------------------------------------------------------
# report_text: the bytes of json.dumps(v, indent=2, sort_keys=True) + "\n"
# ---------------------------------------------------------------------------

def json_reference(value):
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def test_report_text_matches_json_on_every_golden_report():
    goldens = Path(__file__).resolve().parent.parent / "perfbench" / "goldens"
    reports = [job["report"] for path in sorted(goldens.glob("*.json"))
               for job in json.loads(path.read_text())["jobs"].values() if "report" in job]
    assert len(reports) >= 30
    for report in reports:
        value = json.loads(report)
        assert report_text(value) == report == json_reference(value)


STRING_PIECES = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "/", "é", "€", "\U0001f600",
                 "\ud800", "a", "coeff", " ", ""]


def random_report_value(rng, depth=0):
    """A value built from dicts with str keys, lists, tuples, empty
    containers, strings with escapes and non-ASCII, ints of any size,
    bools and None."""
    kind = rng.randrange(9 if depth < 4 else 4)
    if kind == 0:
        return "".join(rng.choice(STRING_PIECES) for _ in range(rng.randrange(5)))
    if kind == 1:
        return rng.choice([0, 1, -1, 7, -12345, 2 ** 63, -(2 ** 63) - 1, 10 ** 40,
                           -(10 ** 30), rng.randrange(-10 ** 6, 10 ** 6)])
    if kind == 2:
        return rng.choice([True, False])
    if kind == 3:
        return None
    items = [random_report_value(rng, depth + 1) for _ in range(rng.randrange(6))]
    if kind in (4, 5):
        return items
    if kind == 6:
        return tuple(items)
    # kinds 7 and 8: str keys, inserted unsorted
    return {rng.choice(STRING_PIECES) + rng.choice("zyxba") + str(i): v
            for i, v in enumerate(items)}


def test_report_text_matches_json_on_random_values():
    rng = random.Random(0)
    values = [random_report_value(rng) for _ in range(500)]
    assert sum(isinstance(v, dict) and len(v) > 1 for v in values) > 50
    for value in values:
        assert report_text(value) == json_reference(value), value


class Small(IntEnum):
    TWO = 2


class Tag(str):
    pass


def at_every_depth(value):
    """value at the top, in a list, in a nested dict and in a tuple."""
    return (value, [1, value], {"a": {"b": value}}, [[1, 2], (value,)])


# Scalars and keys that json writes but a report never holds.  The writer
# takes only the exact types str, int, bool and None and str keys, so each
# of these raises TypeError naming the type it met first.
@pytest.mark.parametrize("value, named", [
    ({"x": 1.5, "y": [0.1, -2.0, 1e300, float("inf"), float("-inf"), float("nan")]},
     "float"),
    ({2.5: 0, 1.25: 1, -0.5: 2, float("inf"): 3}, "float"),
    ({False: 0, True: 1}, "bool"),
    ({None: [None]}, "NoneType"),
    ([Small.TWO, Tag("tagged\n"), OrderedDict([("b", 1), ("a", 2)]), (Tag("k"),)], "Small"),
    ({Tag("b"): 1, "a": 2}, "Tag"),
    ({Small.TWO: "int-enum key", 1: "int key"}, "int"),
    ("top-level string", None), (12, None), (None, None), ([], None), ({}, None),
    ([[]], None), ([{}], None),
], ids=["floats", "float-keys", "bool-keys", "none-key", "subclasses", "str-subclass-key",
        "int-enum-key", "str", "int", "none", "empty-list", "empty-dict", "nested-empty-list",
        "nested-empty-dict"])
def test_report_text_matches_json_on_other_scalars_and_subclasses(value, named):
    json_reference(value)  # json writes each of them
    if named is None:
        assert report_text(value) == json_reference(value)
    else:
        with pytest.raises(TypeError, match=rf"\b{named}$"):
            report_text(value)


@pytest.mark.parametrize("bad, named", [
    (1.5, "float"), (float("inf"), "float"), (float("nan"), "float"),
    (Fraction(1, 2), "Fraction"), (Small.TWO, "Small"), (Tag("tag"), "Tag"),
    ({1: "int key"}, "int"), (np.int64(3), "int64"),
], ids=["float", "inf", "nan", "fraction", "int-enum", "str-subclass", "int-key",
        "numpy-int64"])
def test_report_text_rejects_what_reports_never_hold(bad, named):
    for value in at_every_depth(bad):
        with pytest.raises(TypeError, match=rf"\b{named}$"):
            report_text(value)


@pytest.mark.parametrize("bad, named", [
    (Fraction(1, 2), "Fraction"), ({1, 2}, "set"), (np.int64(3), "int64"),
    ({(1, 2): 0}, "tuple"), ({1: 0, "a": 1}, "int"), (b"bytes", "bytes"),
], ids=["fraction", "set", "numpy-int64", "tuple-key", "mixed-keys", "bytes"])
def test_report_text_rejects_what_json_rejects(bad, named):
    # a TypeError naming the type wherever the value sits; mixed keys fail
    # in the sort, as in json, before any key is read
    for value in at_every_depth(bad):
        with pytest.raises(TypeError):
            json_reference(value)
        with pytest.raises(TypeError, match=rf"\b{named}\b"):
            report_text(value)

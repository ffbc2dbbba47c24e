"""tools/bench.py times program internals by name.  A stage looks its
internals up when it runs, so a checkout without one reports that stage
absent; the tests run stages that read internals at this checkout, so a
renamed one fails here and not only when the tool runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

STAGES = {
    "tr": ["preimage-balls", "total", "nd", "nd-xy81", "nd-xy243", "1d-fails", "1d-table"],
    "labmix": ["parser", "fit", "count-labmix", "count-ff-cli", "emit", "count-elliptic",
               "count-deep", "count-dense", "expand-scheme", "ff-power",
               "grid-circle-Q10", "grid-parabola-Z100", "points-parabola-Z20000",
               "points-circle-Q100"],
    "detmethod": ["det-cover-parabola", "heights-circle-Z100", "det-trials-0",
                  "det-trials-1", "det-trials-2", "det-trials-3", "aux-d3-k9",
                  "aux-d4-k14", "aux-d5-k20"],
    "hilbert": ["twisted-30", "twisted-300", "conic-300", "quadric-150"],
    "startup": ["python-pass", "import-all", "bounds", "heights", "hilbert",
                "expand-scheme", "count-ff", "taylor-check", "taylor-check-2d",
                "det-cover"],
}


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_tool", ROOT / "tools" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("suite", list(STAGES))
def test_stage_table_builds_without_running(bench, suite, tmp_path):
    stages, facts = bench.build(suite, ROOT, tmp_path, seed=3)
    assert list(stages) == STAGES[suite]
    assert all(callable(stage) for stage in stages.values())
    assert facts == {}  # a stage records its facts when it runs


def test_detmethod_timers_leave_the_module_as_found(bench, tmp_path):
    from nonarch_lab import detmethod

    before = (detmethod.certify_components, detmethod._bareiss,
              detmethod._monomial_matrix)
    stages, _ = bench.build("detmethod", ROOT, tmp_path, seed=3)
    parts = stages["aux-d3-k9"]()
    assert list(parts) == ["total", "certify", "build", "linalg", "other"]
    # auxiliary_polynomial builds its one monomial matrix through the timer
    assert parts["build"] > 0 and parts["linalg"] > 0 and parts["other"] >= 0
    assert (detmethod.certify_components, detmethod._bareiss,
            detmethod._monomial_matrix) == before


def test_before_mode_alternates_and_describes_both_checkouts(bench, tmp_path, capsys):
    out = tmp_path / "cmp.json"
    assert bench.main(["startup", "--stages", "python-pass", "--before", str(ROOT),
                       "--rounds", "2", "--reps", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert json.loads(capsys.readouterr().out) == doc
    assert doc["before"] == doc["after"] and "src sha256" in doc["after"]
    stage = doc["suites"]["startup"]["stages"]["python-pass"]
    assert set(stage) == {"s", "facts"}
    for side in ("before", "after"):
        assert len(stage["s"][side]["values"]) == 2
        assert stage["s"][side]["q1"] <= stage["s"][side]["median"] <= stage["s"][side]["q3"]
        assert stage["facts"][side] == {"command": "python -c pass", "workload": None,
                                        "exit": 0, "numpy_loaded": False}
    assert 0 <= stage["s"]["after_wins"] <= 2


def test_unknown_stage_is_named(bench):
    with pytest.raises(SystemExit, match="unknown stages \\['nope'\\]"):
        bench.main(["tr", "--stages", "total,nope", "--reps", "1"])


def test_stage_reading_a_missing_internal_is_absent(bench, monkeypatch):
    # grid-circle-Q10 reads heights._grid_points, fit no internal: a program
    # without _grid_points reports the first absent and still times the second
    from nonarch_lab import heights

    stages = ["grid-circle-Q10", "fit"]
    here = bench.measure("labmix", ROOT, 1, 3, stages)
    assert all(set(here[stage]) == {"s"} for stage in stages)
    monkeypatch.delattr(heights, "_grid_points")
    without = bench.measure("labmix", ROOT, 1, 3, stages)
    assert without["grid-circle-Q10"] == {
        "absent": "nonarch_lab.heights has no attribute '_grid_points'"}
    assert set(without["fit"]) == {"s"}


def test_before_mode_fails_when_output_bytes_differ(bench, monkeypatch, tmp_path, capsys):
    # compare stands in for two runs: one hilbert case wrote other bytes at
    # one checkout; the JSON is still written, then the case is named
    def compare(name, roots, rounds, child_args):
        return {"twisted-30": {"same_bytes": True}, "conic-300": {"same_bytes": False},
                "quadric-150": {"absent": {"before": "no such name"}}}

    monkeypatch.setattr(bench, "compare", compare)
    out = tmp_path / "cmp.json"
    assert bench.main(["hilbert", "--before", str(ROOT), "--rounds", "1", "--reps", "1",
                       "--out", str(out)]) == 1
    captured = capsys.readouterr()
    doc = json.loads(out.read_text())
    assert json.loads(captured.out) == doc
    assert doc["suites"]["hilbert"]["stages"]["conic-300"] == {"same_bytes": False}
    assert captured.err == "output bytes differ between the checkouts: hilbert conic-300\n"

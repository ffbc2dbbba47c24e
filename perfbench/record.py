#!/usr/bin/env python3
"""Record the benchmark goldens from the current program.

    python3 perfbench/record.py [workload ...]

For each workload this runs every job once and stores its exit code and
report bytes in goldens/<workload>.json.  Seeded jobs (the cover trials)
store a SHA-256 digest per job for each seed in RECORDED_SEEDS; other seeds
rely on the seed-independent check in workloads.check_trials.  One traced
pass at each of three seeds records the deterministic work counters that
do not depend on the seed; a traced run fails when they differ.  Known
defects are not recorded from the program: their entries say what the
correct result is and how the defect shows today.

Record only from a commit whose outputs are trusted; every later run is
compared with what is written here.
"""

import hashlib
import json
import sys

import run
import tracing
import workloads

RECORDED_SEEDS = range(100)

KNOWN_DEFECTS = {
    "lab-mix": {
        # x^2/2 + y on Z_2^2 fails T_2 at the C^r norm; the exact
        # multivariate path puts a tuple of Fractions in the witness, which
        # the report cannot serialize.
        "taylor-check-2d-half": {
            "exit": 1, "witness_kind": "cr_norm",
            "known_defect": "TypeError: Object of type Fraction is not JSON serializable",
        },
    },
}


def traced_counters(workload, workdir, seed, goldens):
    jobs, checks = workloads.build_jobs(workload, str(workdir), seed)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        records = run.run_passes(jobs, checks, goldens, seed, 1, tracer)
    finally:
        tracer.uninstall()
    values = tracing.layer_values(tracer.snapshot(), records[0]["cli_bytes"])
    return {name: values[name] for name in tracing.DETERMINISTIC_COUNTERS}


def record(workload, workdir):
    known = KNOWN_DEFECTS.get(workload, {})
    goldens = {"jobs": dict(known), "seeded": {}}
    jobs, checks = workloads.build_jobs(workload, str(workdir), 0)
    for job in jobs:
        if job.id in known or job.id in checks:
            continue
        code, report = job.run()
        goldens["jobs"][job.id] = {"exit": code, "report": report.decode()}
    if checks:
        for seed in RECORDED_SEEDS:
            jobs, checks = workloads.build_jobs(workload, str(workdir), seed)
            entry = goldens["seeded"][str(seed)] = {}
            for job in jobs:
                if job.id in checks:
                    code, report = job.run()
                    problem = checks[job.id](report)
                    if code != 0 or problem:
                        sys.exit(f"{workload} seed {seed} {job.id}: exit {code}, {problem}")
                    entry[job.id] = {"exit": code,
                                     "sha256": hashlib.sha256(report).hexdigest()}
    a, *others = [traced_counters(workload, workdir, seed, goldens) for seed in (0, 1, 2)]
    goldens["counters"] = {k: v for k, v in a.items() if all(o[k] == v for o in others)}
    with open(run.GOLDENS / f"{workload}.json", "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{workload}: {len(goldens['jobs'])} jobs, {len(goldens['seeded'])} seeds, "
          f"counters {goldens['counters']}")


def main(argv):
    names = argv or list(workloads.WORKLOADS)
    run.import_program()
    run.GOLDENS.mkdir(exist_ok=True)
    workdir = run.ROOT / ".perfbench_work" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workloads.write_inputs(workdir)
        for name in names:
            record(name, workdir)
    finally:
        run.remove_workdir(workdir)


if __name__ == "__main__":
    main(sys.argv[1:])

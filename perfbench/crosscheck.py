"""Cross-check the traced counts against the profile the benchmark rests on.

Usage: python3 perfbench/crosscheck.py [--seed N]

Runs one traced sample of each benchmark workload and of two longer
windows: stage 1 over 10 days (188 IMPES sub-steps for seed 0, about 89 %
of the time in the sparse solve) and stage 3 at its full 8 hours (96
pressure solves).  It checks that every solve comes from an IMPES sub-step
or a single-phase pressure solve, prints each check and exits 1 if one
fails.  It takes about a minute.
"""

import argparse
import dataclasses
import shutil
import sys

import run

sys.path.insert(0, str(run.SRC))

import inputs  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    release, remediation = inputs.WORKLOADS["release"], inputs.WORKLOADS["remediation"]
    cases = list(inputs.WORKLOADS.values()) + [
        dataclasses.replace(release, name="release-10day", fields={
            "stage1_duration": "10 day", "stage1_snapshots": "5 day, 10 day"}),
        dataclasses.replace(remediation, name="stage3-full", stages=(3,), fields={}),
    ]
    expected = {"stage3-full": {"flow.solves": 96, "linsolve.calls": 96}}
    if args.seed == 0:
        expected["release-10day"] = {"twophase.substeps": 188}

    work = run.WORK / "crosscheck"
    shutil.rmtree(work, ignore_errors=True)
    ok = True
    for workload in cases:
        inp = inputs.make_inputs(workload, args.seed, work / workload.name / "inputs")
        sample = run.run_sample(inp, 0, True, work / workload.name, run.DEADLINE_S)
        if sample.get("error"):
            print(f"{workload.name:14s} FAILED {sample['error']}")
            ok = False
            continue
        m = sample["layers"]
        checks = {"linsolve.calls": m["flow.solves"] + m["twophase.substeps"]}
        checks.update(expected.get(workload.name, {}))
        print(f"{workload.name:14s} wall_s {sample['wall_s']:.3f}  linsolve.share {m['linsolve.share']:.3f}  "
              + "  ".join(f"{k} {m[k]}" for k in ("linsolve.calls", "flow.solves", "twophase.substeps",
                                                  "solute.substeps")))
        for key, want in checks.items():
            passed = m[key] == want
            ok &= passed
            print(f"{'':14s} {key} == {want}: {'ok' if passed else 'MISMATCH, got %s' % m[key]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

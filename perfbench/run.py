"""Benchmark of the remsim pipeline.

Usage:
  python3 perfbench/run.py --workload {release,plume,remediation,all}
                           --seed N --seconds S --trace {0,1}

From the workload seed the benchmark generates the run's inputs (config
text, simulator seed and prerequisite checkpoint), then repeats one
``remsim.pipeline.run`` call, each in a fresh worker process and one at a
time, until ``--seconds`` have passed.  Every run's checkpoints must match
byte for byte, be finite and close the mass-balance audit.  The last line of
standard output is one JSON object: the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a traced run with ``--trace 1``; metric names and
units come from BENCHMARK.json.  Earlier lines record the environment, the
input digests and the physical outputs.  ``--workload all`` runs every
workload and prints each metric by name.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-out"

MIN_SAMPLES = 3       # per kind (untraced / traced) in one run
RUN_LIMIT_S = 150.0   # start no sample after this
DEADLINE_S = 170.0    # kill a sample still running then; a run must end within 180 s


def median(values):
    return statistics.median(values) if values else float("nan")


def run_sample(inp, index: int, traced: bool, work: Path, timeout: float) -> dict:
    sdir = work / f"sample{index}"
    ckpt_dir = sdir / "checkpoints"
    ckpt_dir.mkdir(parents=True)
    if inp.checkpoint is not None:
        shutil.copyfile(inp.checkpoint, ckpt_dir / inp.checkpoint.name)
    spec = {
        "src": str(SRC),
        "config": str(inp.config),
        "seed": inp.seed,
        "stages": list(inp.workload.stages),
        "export": inp.workload.export,
        "out_dir": str(sdir / "out"),
        "checkpoint_dir": str(ckpt_dir),
        "trace": traced,
        "run_id": f"{inp.workload.name}-{inp.seed}-{index}",
        "spans": str(work / "spans.jsonl"),
        "result": str(sdir / "result.json"),
    }
    spec_path = sdir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path)],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
        result_path = Path(spec["result"])
        if proc.returncode == 0 and result_path.exists():
            sample = json.loads(result_path.read_text())
        else:
            sample = {"error": f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    except subprocess.TimeoutExpired:
        sample = {"error": f"worker still running after {timeout:.0f} s"}
    shutil.rmtree(sdir)
    sample["traced"] = traced
    if traced and sample.get("error") is None:
        import spans

        recorded = spans.load(spec["spans"])
        root = next(i for i, s in enumerate(recorded) if s["name"] == "pipeline.run")
        sample["layers"] = spans.layer_metrics(recorded, root)
    return sample


def judge(sample: dict, reference) -> list[str]:
    """Reasons the sample counts as failed (empty if it passed)."""
    if sample.get("error"):
        return [sample["error"]]
    reasons = []
    tol = sample["audit_tolerance"]
    for stage, audit in sample["audits"].items():
        reasons += [f"stage {stage} {name} audit {err:.3e} > {tol:.1e}"
                    for name, err in audit.items() if not err <= tol]
    ckpts = sample["checkpoints"]
    reasons += [f"{name} has non-finite fields" for name, c in ckpts.items() if not c["finite"]]
    if reference is not None and {n: c["sha256"] for n, c in ckpts.items()} != reference:
        reasons.append("checkpoints differ from an earlier run of the same seed")
    return reasons


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import inputs

    work = WORK / f"{name}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    inp = inputs.make_inputs(inputs.WORKLOADS[name], seed, work / "inputs")

    samples: list[dict] = []
    reference = None
    kinds = (False, True) if trace else (False,)
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        enough = all(sum(s["traced"] == k for s in samples) >= MIN_SAMPLES for k in kinds)
        if (elapsed >= seconds and enough) or elapsed >= RUN_LIMIT_S:
            break
        traced = trace and len(samples) % 2 == 1
        sample = run_sample(inp, len(samples), traced, work, DEADLINE_S - elapsed)
        sample["failures"] = judge(sample, reference)
        if reference is None and sample.get("error") is None:
            reference = {n: c["sha256"] for n, c in sample["checkpoints"].items()}
        samples.append(sample)
    shutil.rmtree(work / "inputs")
    return {"inputs": inp, "samples": samples}


def summarize(name: str, outcome: dict, trace: bool) -> tuple[dict, dict]:
    """(result fields, metric values) of one workload's run."""
    samples = outcome["samples"]
    # a run that failed the audit was still timed; one whose worker died was not
    timed = [s for s in samples if "wall_s" in s]
    done = [s for s in timed if s.get("error") is None]
    plain = [s for s in timed if not s["traced"]]
    problems = [f"sample {i}: {r}" for i, s in enumerate(samples) for r in s["failures"]]
    if not trace:
        values = {key: median([s[key] for s in plain]) for key in ("wall_s", "setup_s", "peak_rss_mb")}
    else:
        traced = [s for s in done if s["traced"]]
        values = {}
        for key in traced[0]["layers"] if traced else {}:
            seen = [s["layers"][key] for s in traced]
            if not isinstance(seen[0], int):
                values[key] = median(seen)
                continue
            # a count: it must repeat exactly, and is reported as one, not averaged
            if len(set(seen)) > 1:
                problems.append(f"count {key} differs between traced runs: {seen}")
            values[key] = statistics.median_low(seen)
        values["trace.overhead_frac"] = (
            median([s["wall_s"] for s in traced]) / median([s["wall_s"] for s in plain]) - 1.0
        )
    print(f"{name} environment {json.dumps(timed[0]['environment'] if timed else {})}")
    print(f"{name} inputs {json.dumps(outcome['inputs'].digests)}")
    print(f"{name} outputs {json.dumps(done[0].get('physics') if done else {})}")
    print(f"{name} samples {json.dumps([(s['traced'], s.get('wall_s'), s.get('setup_s')) for s in samples])}")
    for problem in problems:
        print(f"{name} FAILED {problem}")
    failed = sum(bool(s["failures"]) for s in samples)
    result = {"correct": not problems and bool(done), "attempted": len(samples), "failed": failed}
    return result, values


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "remsim" / "__init__.py").is_file():
        print(f"remsim sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    trace = bool(args.trace)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names if args.workload == "all" else [args.workload]:
        result, values = summarize(name, run_workload(name, args.seed, args.seconds, trace), trace)
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        prefix = f"{name}." if args.workload == "all" else ""
        for metric in wanted:
            value = values.get(metric["name"], float("nan"))
            total["metrics"][prefix + metric["name"]] = {"value": value, "unit": metric["unit"]}
            if args.workload == "all":
                print(f"{name:12s} {metric['name']:24s} {value:14.6g} {metric['unit']}")
    missing = [k for k, m in total["metrics"].items() if math.isnan(m["value"])]
    if missing:
        print(f"no measurement for {', '.join(missing)}", file=sys.stderr)
        return 1
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())

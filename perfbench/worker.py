"""One run of a workload in a fresh interpreter.

Usage: python3 worker.py SPEC.json

The spec names the checkout's ``src`` directory, the config file, the seed,
the stages, the export format and the output and checkpoint directories.
The worker times the set-up (importing remsim, parsing the config and
building the scenario) and then one ``remsim.pipeline.run`` call, and writes
what it measured and the digests of the checkpoints it produced to the
spec's result file.  With ``trace`` set it also records spans and writes
them to the spec's spans file when the run ends.
"""

import os

# BLAS reads these once, when numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def outputs(result, config, ckpt_dir: Path) -> tuple[dict, dict]:
    """Checkpoint digests and finiteness, audits and physical outputs."""
    import numpy as np
    from remsim.checkpoint import read_checkpoint
    from remsim.pipeline import checkpoint_path

    checkpoints, physics = {}, {}
    for stage, res in result.results.items():
        path = checkpoint_path(ckpt_dir, stage)
        ckpt = read_checkpoint(path)
        checkpoints[path.name] = {
            "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
            "finite": all(bool(np.isfinite(a).all()) for a in ckpt.fields.values()),
        }
        diag = res.diagnostics
        for key, name in (("undissolved_fraction", "undissolved_fraction"),
                          ("roi", "roi_m"), ("degraded_mass", "degraded_mass_kg")):
            if key in diag:
                physics[name] = diag[key]
    f = ckpt.fields
    physics["napl_mass_kg"] = float((f["theta_m"] * f["sn"]).sum()) * config.dx * config.dy * config.rho_n
    return checkpoints, physics


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    recorder = None
    if spec["trace"]:
        import spans

        recorder = spans.SpanRecorder(spec["run_id"])

    t0 = time.perf_counter()
    if recorder:
        spans.install_solvers(recorder)
    import remsim
    from remsim import pipeline
    from remsim.config import RunConfig
    from remsim.scenario import Scenario

    if src not in Path(remsim.__file__).resolve().parents:
        raise ImportError(f"remsim imported from {remsim.__file__}, not from {src}")
    if recorder:
        spans.install_remsim(recorder)
    config = RunConfig.from_text(Path(spec["config"]).read_text())
    Scenario.build(config, spec["seed"])
    setup_s = time.perf_counter() - t0

    run = recorder.wrap("pipeline.run", pipeline.run) if recorder else pipeline.run
    ckpt_dir = Path(spec["checkpoint_dir"])
    error = None
    t1 = time.perf_counter()
    try:
        result = run(config, spec["stages"], spec["out_dir"], seed=spec["seed"],
                     checkpoint_dir=ckpt_dir, export=spec["export"])
    except Exception as err:  # a failed run is counted, not fatal
        error = f"{type(err).__name__}: {err}"
    wall_s = time.perf_counter() - t1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "error": error,
        "audit_tolerance": pipeline.AUDIT_TOLERANCE,
        "environment": environment(),
    }
    if error is None:
        report["audits"] = {str(s): r.audit for s, r in result.results.items()}
        report["checkpoints"], report["physics"] = outputs(result, config, ckpt_dir)
    if recorder:
        recorder.dump(spec["spans"])
    Path(spec["result"]).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

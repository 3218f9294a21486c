"""nil3lab benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload {exterior,asymptotic} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (the package is imported from
``src/``).  With ``--trace 0`` it times fresh-process set-ups and untraced
passes and prints the end-to-end metrics; with ``--trace 1`` it runs traced
passes and prints the per-layer metrics.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
Full results, with the machine description, go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("exterior", "asymptotic")
SETUP_PROBES = 7
DEADLINE_S = 170.0

sys.path.insert(0, str(HERE))
from tracer import PER_LAYER  # noqa: E402


def child_env(nproc: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("NIL3LAB_LOG", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = str(nproc)
    return env


def run_worker(args, mode: str, env: dict, scratch: Path, deadline: float, spans=None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--scratch", str(scratch)]
    if spans:
        cmd += ["--spans", str(spans)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("no time left for the workload")
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "nil3lab" / "__init__.py").is_file():
        print(f"no nil3lab sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"scratch-{os.getpid()}"
    scratch.mkdir()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace == 0:
            setups = [run_worker(args, "setup", env, scratch, deadline)["setup_s"]
                      for _ in range(SETUP_PROBES)]
            res = run_worker(args, "run", env, scratch, deadline)
            metrics = {
                "run_s": {"value": statistics.fmean(res["pass_s"]), "unit": "s"},
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            }
            res["setup_probes_s"] = setups
        else:
            res = run_worker(args, "trace", env, scratch, deadline,
                             spans=OUT / f"spans-{tag}.jsonl")
            metrics = {name: {"value": res["per_layer"][name], "unit": unit}
                       for name, unit in PER_LAYER}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for msg in res["problems"]:
        print(f"check failed: {msg}", file=sys.stderr)
    line = {
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "worker": res, "result": line}, fh, indent=1)
    info = res["machine"]
    print(f"# {tag}: nproc={info['nproc']} python={info['python']} "
          f"numpy={info['numpy']} scipy={info['scipy']} passes={len(res['pass_s'])}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

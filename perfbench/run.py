"""cosnet benchmark: column inference, a single-column control and mini
training, timed from outside through the public functions of ``arch``,
``runtime``, ``training`` and ``analysis``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload infer-columns --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  ``--workload all`` runs each workload in its own process
and prints one line per workload before a combined last line.  Progress and
failed checks go to standard error.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("infer-columns", "infer-single", "train-mini")


def limit_blas_threads():
    """At most one BLAS thread per available core; must run before numpy
    is imported."""
    cores = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 1 <= int(cur) <= cores:
            os.environ[var] = str(cores)


def run_one(args):
    if not (ROOT / "src" / "cosnet" / "__init__.py").is_file():
        print(f"perfbench: no cosnet sources at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    limit_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import cosnet
    import session
    import spans

    tracer = restore = None
    if args.trace:
        tracer = spans.Tracer()
        restore = spans.instrument(tracer, cosnet)
    sess = session.Session(args.workload, args.seed, tracer)
    try:
        rounds = sess.run(args.seconds)
    finally:
        if restore is not None:
            restore()
    if args.trace:
        metrics = session.per_layer(sess, tracer)
        session.OUT_DIR.mkdir(exist_ok=True)
        path = session.OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({
            "summary": [[phase, name, v["self_s"], v["calls"], v["work"]]
                        for (phase, name), v in tracer.summary().items()],
            "spans": tracer.spans}))
    else:
        metrics = sess.end_to_end()
    s = sess.s
    for error in s.errors:
        print(f"perfbench: {args.workload}: operation failed: {error}",
              file=sys.stderr)
    for problem in s.problems:
        print(f"perfbench: {args.workload}: check failed: {problem}",
              file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: {rounds} rounds",
          file=sys.stderr)
    print(json.dumps({
        "correct": not s.problems,
        "attempted": s.attempted,
        "failed": s.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args):
    """Each workload in its own process, so peak_rss_mb is its own."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited {proc.returncode}",
                  file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
        print(json.dumps({"workload": name, **results[name]}))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": v for name, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

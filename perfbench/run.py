"""Benchmark of the simulator as its users run it: batch jobs of full pipelines.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve_turbo --seed 0 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``serve_turbo``, ``serve_mix``,
``serve_decode`` and ``analog_infer``.  With ``--trace 0`` the run reports
the end-to-end metrics of untraced ops; with ``--trace 1`` it runs each op
untraced and then traced on the same seed and reports per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Each workload process is a fresh interpreter with ``PYTHONHASHSEED=0`` (the
inference backend derives per-layer seeds from ``hash`` of layer names) and
BLAS/OpenMP capped at one thread.  ``setup_s`` is the median over several
fresh processes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER, end_to_end, per_layer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Fresh processes that only set up; with the measuring process they give
#: the median ``setup_s``.
SETUP_RUNS = 4

#: Everything the benchmark writes goes here (inside the checkout).
SCRATCH = ROOT / ".perfbench"


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(workload: str, seed: int, mode: str, seconds: float, timeout: float) -> dict:
    """Run ``worker.py`` in a fresh interpreter; its last stdout line is JSON."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--mode", mode, "--seconds", str(seconds),
        "--scratch", str(SCRATCH),
    ]
    proc = subprocess.run(
        cmd, cwd=str(ROOT), env=_child_env(), stdout=subprocess.PIPE,
        text=True, timeout=timeout, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _source_digest() -> str:
    """Hash of the program's sources; stands in for the commit in a source export."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _host(run: dict) -> dict:
    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": run.get("numpy"),
        "source": _source_digest(),
        "cal_s": run.get("cal_s"),
        "blas_threads": 1,
    }


def _fingerprint(run: dict) -> str:
    h = hashlib.sha256()
    for digest in run["digests"]:
        h.update(digest.encode())
    return h.hexdigest()[:16]


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    SCRATCH.mkdir(exist_ok=True)
    timeout = args.seconds + 90.0
    w, seed = args.workload, args.seed

    if args.trace:
        run = _worker(w, seed, "trace", args.seconds, timeout)
        values, report = per_layer(run)
        units = PER_LAYER
        samples = dict.fromkeys(units, report["ops"])
        print(f"perfbench {w} seed={seed} traced ops={report['ops']} "
              f"spans={run['span_file']['spans']} -> {run['span_file']['path']}")
        print(f"  {'layer':<16} {'self ms/op':>11} {'share':>7} {'calls/op':>10}")
        for row in report["table"]:
            print(f"  {row['layer']:<16} {row['self_ms_per_op']:>11.3f} "
                  f"{row['share']:>7.1%} {row['calls_per_op']:>10.1f}")
        print(f"  dominant self time: {report['dominant']}")
        if run["missing"]:
            print(f"  untraced (not found): {run['missing']}")
    else:
        setups = [_worker(w, seed, "setup", 0, 60)["setup"] for _ in range(SETUP_RUNS)]
        run = _worker(w, seed, "measure", args.seconds, timeout)
        setups.append(run["setup"])
        values, facts = end_to_end(run, setups)
        units = END_TO_END
        samples = dict.fromkeys(units, facts["ops"])
        samples.update(peak_rss_mb=1, setup_s=len(setups))
        print(f"perfbench {w} seed={seed} ops={facts['ops']} "
              f"items/op={facts['items_per_op']:.1f}")
        print(f"  op_cal_tail is p{facts['tail_rank_pct']:.1f} of {facts['ops']} ops; "
              f"setup_s is the median of {facts['setups']} processes")
        print(f"  raw: items_per_s={_fmt(facts['items_per_s'])} 1/s "
              f"op_s_p50={_fmt(facts['op_s_p50'])} s cal_s_p50={_fmt(facts['cal_s_p50'])} s "
              f"setup_wall_s={_fmt(facts['setup_wall_s'])} s")
        for name, m in run["paper"].items():
            print(f"  modelled {name}: {m['model']:.4g} vs paper {m['paper']:.4g} "
                  f"({m['error']:+.2%})")

    attempted = len(run["records"])
    failed = sum(1 for r in run["records"] if not r["ok"])
    self_checks = []
    if run["wrapped"]:
        self_checks.append(f"wrappers left installed: {run['wrapped']}")
    for name in units:
        print(f"  {name:<26} {_fmt(values[name]):>14} {units[name]:<10} n={samples[name]}")
    print(f"  fail_ratio {failed}/{attempted} = {failed / max(1, attempted):.4g}")
    for line in run["errors"] + self_checks:
        print(f"  FAIL {line.strip()}")
    row = {
        "workload": w, "seed": seed, "seconds": args.seconds, "trace": args.trace,
        "host": _host(run), "fingerprint": _fingerprint(run),
        "attempted": attempted, "failed": failed,
        "metrics": {k: [values[k], units[k], samples[k]] for k in units},
    }
    print(f"  host {json.dumps(row['host'])} fingerprint {row['fingerprint']}")
    print("perfbench-row " + json.dumps(row))
    print(json.dumps({
        "correct": failed == 0 and not self_checks,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

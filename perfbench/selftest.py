"""Self-tests of the benchmark at tiny size; run from the root of a checkout.

    python3 perfbench/selftest.py

Checks, for every workload on a held-out seed, that an untraced and a
traced run exit 0, print every metric ``BENCHMARK.json`` names with its
unit, and report ``correct``; that a traced op leaves no wrapper installed;
and that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HELD_OUT_SEED = 987_654

sys.path.insert(0, str(HERE))


def _run(cwd: Path, workload: str, trace: int):
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(HELD_OUT_SEED), "--seconds", "1", "--trace", str(trace),
    ]
    return subprocess.run(cmd, cwd=str(cwd), capture_output=True, text=True, timeout=180)


def check_runs(spec: dict) -> None:
    for wl in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, wl["name"], trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"], proc.stdout
            assert result["attempted"] >= 1 and result["failed"] == 0
            declared = {m["name"]: m["unit"] for m in spec[key]}
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            assert printed == declared, (wl["name"], trace, printed, declared)
            body = "\n".join(lines[:-1])
            for name, unit in declared.items():
                assert any(
                    line.split()[:1] == [name] and line.split()[2:3] == [unit]
                    for line in body.splitlines()
                ), f"{wl['name']}: {name} [{unit}] not printed"
            print(f"ok  {wl['name']} trace={trace} attempted={result['attempted']}")


def check_unwrapped() -> None:
    """A traced op restores every name it wrapped."""
    sys.path.insert(0, str(ROOT / "src"))
    from tracing import Tracer, wrapped_targets
    from workloads import WORKLOADS

    for name, cls in WORKLOADS.items():
        wl = cls(str(ROOT / ".perfbench"))
        targets = [t for _l, t, _c in wl.targets]
        tracer = Tracer(wl.targets)
        assert not tracer.missing, tracer.missing
        before = [tracer_binding(t) for t in targets]
        assert not wrapped_targets(targets)
        seen = []
        tracer.traced(0, lambda: seen.extend(wrapped_targets(targets)))
        assert seen == targets, f"{name}: not every target was wrapped"
        assert not wrapped_targets(targets), f"{name}: wrapper left installed"
        assert [tracer_binding(t) for t in targets] == before
        print(f"ok  {name} wrappers installed only inside a traced op")


def tracer_binding(target: str):
    from tracing import _resolve

    owner, attr = _resolve(target)
    return vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)


def check_refuses_without_sources() -> None:
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "serve_turbo", 0)
        assert proc.returncode != 0, proc.stdout
        assert '"correct"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  refuses to run without the program's sources")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_unwrapped()
    check_refuses_without_sources()
    check_runs(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark-suite configuration.

Each benchmark regenerates one table/figure of the paper and prints the
same rows/series the paper reports (run with ``-s`` to see them inline);
key measured numbers also land in ``extra_info`` of the benchmark JSON.
"""

import os
import platform
import sys

import numpy as np


def emit(title: str, body: str) -> None:
    """Print a labelled artifact block."""
    bar = "=" * max(len(title), 8)
    sys.stdout.write(f"\n{bar}\n{title}\n{bar}\n{body}\n")


def host_record() -> dict:
    """The machine a ``BENCH_*.json`` row was measured on.

    Wall-time rows are only comparable on one host; this record lets a
    reader tell rows from different machines apart.
    """
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }

"""Host-speed references that the benchmark's times are rescaled by.

A shared 2-core host drifts in speed by 25-50% over seconds to minutes.
Fixed stdlib work, independent of the program under test, is timed next
to the program, and reported times are rescaled to the host speed at
which the reference takes its nominal time: a change in the program's
speed moves them in full, a change in the host's speed is divided out.
Warm jobs are rescaled by a piece of Fraction arithmetic (the kind of
work the tower workloads do), set-up processes by a fresh interpreter
that imports a fixed set of stdlib modules (the kind of work set-up
does).
"""

from __future__ import annotations

import gc
import subprocess
import sys
import time
from fractions import Fraction

# median times of the two references on the 2-core Xeon host the
# benchmark was defined on
REF_NOMINAL_S = 0.035
SETUP_REF_NOMINAL_S = 0.26
SETUP_REF_MODULES = (
    "asyncio, email.mime.multipart, http.server, xml.etree.ElementTree, decimal,"
    " unittest.mock, logging.handlers, argparse, json, csv, sqlite3, fractions,"
    " statistics, typing, dataclasses, concurrent.futures, urllib.request, pydoc,"
    " inspect, ast, tarfile, zipfile")
REF_COEFFS = [Fraction(3 * i + 1, 7 * i + 5) for i in range(1, 25)]


def reference_seconds() -> float:
    """Time of a fixed sparse product and division of Fractions whose
    numerators grow to about 800 bits: the host's current speed.

    The collector is paused meanwhile, so the figure does not depend on
    how large a heap the program under test keeps."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        p = dict(enumerate(REF_COEFFS))
        for _ in range(3):
            q: dict[int, Fraction] = {}
            for i, a in p.items():
                for j, b in p.items():
                    q[(i + j) % 32] = q.get((i + j) % 32, 0) + a * b
            p = {k: v / (1 + k) for k, v in q.items()}
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def setup_reference_seconds(env: dict[str, str], timeout: float) -> float:
    """Wall time of a fresh interpreter that imports SETUP_REF_MODULES."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", f"import {SETUP_REF_MODULES}"], env=env,
                   check=True, stdout=subprocess.DEVNULL, timeout=timeout)
    return time.perf_counter() - t0

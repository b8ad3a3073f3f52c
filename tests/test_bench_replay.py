"""The traced replay in bench/tracing.py calls the library the way ``bq``
does; ``bench/run.py --trace 1`` counts every job whose replay disagrees
with the printed records as failed.  This runs the first job of every
subcommand of each workload both ways and requires the same facts, so a
library change that breaks the replay fails here first."""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import jobs  # noqa: E402
import tracing  # noqa: E402

from bqplane.cli import run_command  # noqa: E402
from bqplane.fields import FieldElement  # noqa: E402
from bqplane.parsing import parse_element, parse_field  # noqa: E402


def _first_job_per_command(workload, work_dir):
    job_list = jobs.generate(workload, 1, work_dir)
    jobs.write_tables(job_list)
    firsts = {}
    for job in job_list:
        firsts.setdefault(job.command, job)
    return list(firsts.values())


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_replay_matches_cli(workload, tmp_path):
    for job in _first_job_per_command(workload, tmp_path):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = run_command(list(job.argv))
        assert rc == job.expect_rc, job.name
        want = tracing.cli_view(job, out.getvalue())
        assert tracing.replay(job, tracing.Tracer()) == want, job.name


def test_descend_splits_the_corpus_at_every_depth():
    """The kernel probe splits x = a + b*r as rep[0] and rep[1]; those must
    be the canonical base reps of a and b all the way down."""
    data = json.loads(tracing.OPERANDS_FILE.read_text(encoding="utf-8"))
    k = parse_field(data["field"])
    assert k.depth == tracing.MAX_DEPTH == 6
    by_depth = tracing._descend([parse_element(t, k) for t in data["elements"]])
    for depth in range(1, 7):
        assert by_depth[depth], depth
        for e in by_depth[depth]:
            t = e.tower
            a, b = FieldElement(t.base, e.rep[0]), FieldElement(t.base, e.rep[1])
            assert e and hash(a) == hash(t.base(a))
            assert t(a) + t(b) * t.radical == e

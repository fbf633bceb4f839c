"""Same seed, same virtual clock; another seed, other inputs.

The virtual clock repeats to the last bit between *processes* (query
ids are process-wide, so a second run inside one process routes its
shuffles differently); the benchmark runs every workload in a fresh
process and so does this test.
"""

import json
import subprocess
import sys

from perf.workloads import WORKLOADS

from .conftest import ROOT, TOY

SCRIPT = (
    "import json, sys; from perf.tests.conftest import toy_record; "
    "print(json.dumps(toy_record(sys.argv[1], int(sys.argv[2]), "
    "sys.argv[3] == '1')))"
)


def fresh_process_records(jobs):
    """Run ``(name, seed, traced)`` jobs side by side, one process each."""
    running = [
        subprocess.Popen(
            [sys.executable, "-c", SCRIPT, name, str(seed), str(int(traced))],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        for name, seed, traced in jobs
    ]
    records = []
    for process in running:
        out, _ = process.communicate(timeout=120)
        assert process.returncode == 0
        records.append(json.loads(out.splitlines()[-1]))
    return records


def test_same_seed_repeats_traced_or_not_and_other_seed_differs():
    jobs = [(name, seed, traced) for name in WORKLOADS
            for seed, traced in ((11, False), (11, True), (12, False))]
    records = fresh_process_records(jobs)
    for index, name in enumerate(WORKLOADS):
        plain, traced, other = records[3 * index:3 * index + 3]
        assert plain["virt_digest"] == traced["virt_digest"], name
        assert other["virt_digest"] != plain["virt_digest"], name
        assert plain["failed"] == traced["failed"] == other["failed"] == 0


def test_one_process_repeats_its_virtual_metrics(records):
    # In-process repeats agree to float noise (not to the bit, see the
    # module docstring); across processes the digest is the check.
    from .conftest import toy_record
    again = toy_record("stream_q6")
    first = records["stream_q6"][0]
    assert again["metrics"]["virt_op_ms_p50"] == \
        first["metrics"]["virt_op_ms_p50"]


def test_seed_draws_the_loaded_data():
    scan = WORKLOADS["scan_analytics"]
    assert scan(11, **TOY["scan_analytics"]).data == \
        scan(11, **TOY["scan_analytics"]).data
    assert scan(11, **TOY["scan_analytics"]).data != \
        scan(12, **TOY["scan_analytics"]).data
    joins = WORKLOADS["join_orders"]
    assert joins(11, **TOY["join_orders"]).state != \
        joins(12, **TOY["join_orders"]).state

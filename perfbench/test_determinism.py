"""The CLI chain gives the same bytes at ``--jobs 1`` and ``--jobs 2``, over
the scripted mocks and over the stub model server.

Run from the repository root: ``python3 -m pytest perfbench/test_determinism.py``
"""

import os

import pytest

import worker


def _chain_digests(transport: str, jobs: int, work: str) -> dict[str, str]:
    wl = worker.Workload(users=6, history_len=24, transport=transport, jobs=jobs, kind="chain")
    stages, outputs, stub = worker.setup(wl, seed=3, work=work)
    try:
        for stage, argv in stages:
            rc, _ = worker._run_cli(["--seed", "3", "--jobs", str(jobs), *argv])
            assert rc == 0, f"{stage} exited {rc}"
    finally:
        if stub is not None:
            stub.close()
    errors, records = worker.check_pass(wl, work)
    assert not errors
    assert records["synthesize-sft"] > 0 and records["rollout"] > 0
    return {out: worker._sha256(os.path.join(work, out)) for out in outputs}


@pytest.mark.parametrize("transport", ["mock", "http"])
def test_outputs_identical_across_job_counts(transport, tmp_path):
    serial = _chain_digests(transport, 1, str(tmp_path / "jobs1"))
    parallel = _chain_digests(transport, 2, str(tmp_path / "jobs2"))
    assert serial == parallel

"""Multi-process shared-queue sharding: disjoint claims, no lost tasks,
stale-lease takeover, and the directory-queue primitives themselves."""

from __future__ import annotations

import os
import time

from repro.benchsuite import get_benchmark
from repro.core import BenchmarkDatabase
from repro.core.bench import GenerationParams
from repro.networks.simulation import output_signature
from repro.scheduler import DirectoryQueue, SchedulerParams

from .conftest import (
    DETERMINISTIC_PARAMS,
    FULL_SUITE_FLOWS,
    assert_databases_identical,
    finish_generate,
    run_generate,
    spawn_generate,
)


def test_two_processes_shard_one_sweep(tmp_path):
    """Two independent scheduler processes share one queue directory:
    every task runs exactly once, neither loses tasks, and both end up
    with the same complete database."""
    queue_dir = tmp_path / "queue"
    barrier = tmp_path / "go"
    db_a, db_b = tmp_path / "node-a", tmp_path / "node-b"

    common = {
        "suite": "trindade16",
        "delay": 0.05,
        "barrier": barrier,
    }
    proc_a = spawn_generate(
        db_a,
        scheduler={"queue_dir": str(queue_dir), "node_id": "node-a",
                   "lease_timeout": 300.0},
        **common,
    )
    proc_b = spawn_generate(
        db_b,
        scheduler={"queue_dir": str(queue_dir), "node_id": "node-b",
                   "lease_timeout": 300.0},
        **common,
    )
    # Rendezvous: both processes finish importing before either starts
    # claiming, so the sweep is genuinely contended.
    for proc in (proc_a, proc_b):
        line = proc.stdout.readline().strip()
        assert line == "READY", line
    barrier.touch()

    report_a = finish_generate(proc_a)
    report_b = finish_generate(proc_b)

    audit = DirectoryQueue(queue_dir, "auditor")
    task_keys = sorted(
        entry.name[: -len(".json")] for entry in audit.tasks_dir.iterdir()
    )
    assert len(task_keys) == FULL_SUITE_FLOWS

    # No task executed twice — each key has at most one audit marker —
    # and none was lost: every key has a spooled result.
    for key in task_keys:
        nodes = audit.execution_nodes(key)
        assert len(nodes) == 1, f"{key} executed by {nodes}"
    assert audit.result_keys() == task_keys

    # The work was genuinely split: ``done`` counts every merged task
    # (own and adopted), so local executions are done - remote_completed.
    stats_a, stats_b = report_a["scheduler"], report_b["scheduler"]
    local_a = stats_a["done"] - stats_a["remote_completed"]
    local_b = stats_b["done"] - stats_b["remote_completed"]
    assert local_a + local_b == FULL_SUITE_FLOWS
    assert local_a > 0 and local_b > 0
    assert stats_a["remote_completed"] == local_b
    assert stats_b["remote_completed"] == local_a
    executed_by = {
        node for key in task_keys for node in audit.execution_nodes(key)
    }
    assert executed_by == {"node-a", "node-b"}
    # Both processes merged all 28 flows into their own database.
    assert report_a["executed"] == report_b["executed"] == FULL_SUITE_FLOWS

    assert_databases_identical(db_a, db_b)

    # And the sharded result matches a solo reference sweep.
    reference = tmp_path / "reference"
    run_generate(reference, suite="trindade16")
    assert_databases_identical(reference, db_a)


def test_stale_lease_takeover(tmp_path):
    """Tasks claimed by a dead worker (no heartbeat) are stolen once the
    lease times out, so one crashed peer cannot wedge the sweep."""
    queue_dir = tmp_path / "queue"
    params = GenerationParams(**DETERMINISTIC_PARAMS)
    spec = get_benchmark("trindade16", "mux21")

    # Compute the sweep's task keys the same way generate() does, then
    # have a ghost node claim two of them and vanish.
    scratch = BenchmarkDatabase(tmp_path / "scratch")
    network = spec.build(params.node_cap)
    signature = output_signature(network)
    flows = scratch._flow_names(network, ("QCA ONE", "Bestagon"), params)
    keys = [scratch._cache_key(signature, flow, params) for flow in flows]

    ghost = DirectoryQueue(queue_dir, "ghost")
    stale = time.time() - 3600
    for key in keys[:2]:
        assert ghost.try_claim(key)
        os.utime(ghost.claims_dir / f"{key}.json", (stale, stale))

    db = BenchmarkDatabase(tmp_path / "db")
    scheduler = SchedulerParams(
        queue_dir=queue_dir, node_id="survivor", lease_timeout=5.0,
        poll_interval=0.01,
    )
    report = db.generate([spec], params=params, scheduler=scheduler).report

    assert report.scheduler["stolen"] == 2
    assert report.executed_flows == len(flows)
    assert report.admitted > 0
    for key in keys[:2]:
        assert DirectoryQueue(queue_dir, "auditor").execution_nodes(key) == [
            "survivor"
        ]


def test_result_written_between_read_and_claim_is_adopted(tmp_path, monkeypatch):
    """Another node writes its result and releases its lease after this
    node's first read of the result but before its claim: the claim
    succeeds, and the task must be adopted, not executed a second time."""
    params = GenerationParams(**DETERMINISTIC_PARAMS)
    spec = get_benchmark("trindade16", "mux21")
    # A finished result of the other node, for one task of the sweep.
    finished = tmp_path / "finished"
    BenchmarkDatabase(tmp_path / "other-db").generate(
        [spec], params=params,
        scheduler=SchedulerParams(queue_dir=finished, node_id="other"),
    )
    key = DirectoryQueue(finished, "other").result_keys()[0]
    payload = DirectoryQueue(finished, "other").read_result(key)

    queue_dir = tmp_path / "queue"
    other = DirectoryQueue(queue_dir, "other")
    assert other.try_claim(key)
    read_result = DirectoryQueue.read_result
    raced = []

    def racing_read(self, k):
        data = read_result(self, k)
        if self.node == "survivor" and k == key and not raced:
            raced.append(k)  # the other node finishes right after the miss
            other.write_result(k, payload)
        return data

    monkeypatch.setattr(DirectoryQueue, "read_result", racing_read)
    scheduler = SchedulerParams(
        queue_dir=queue_dir, node_id="survivor", poll_interval=0.01
    )
    report = BenchmarkDatabase(tmp_path / "db").generate(
        [spec], params=params, scheduler=scheduler
    ).report

    audit = DirectoryQueue(queue_dir, "auditor")
    assert audit.execution_nodes(key) == []
    assert report.scheduler["remote_completed"] == 1
    assert not (audit.claims_dir / f"{key}.json").exists()
    assert audit.result_keys() == DirectoryQueue(finished, "other").result_keys()


def test_claim_rereads_the_result_after_a_successful_claim(tmp_path):
    owner = DirectoryQueue(tmp_path / "q", "owner")
    late = DirectoryQueue(tmp_path / "q", "late")
    assert owner.try_claim("k")
    assert late.claim("k") == (False, None)  # held, no result yet
    read_result = late.read_result

    def stale_read(key):
        late.read_result = read_result
        owner.write_result(key, {"flow": "ortho"})  # lands after the miss
        return None

    late.read_result = stale_read
    assert late.claim("k") == (False, {"flow": "ortho"})
    assert not (late.claims_dir / "k.json").exists()
    assert late.claim("fresh") == (True, None)


def test_fresh_lease_is_not_stolen(tmp_path):
    queue = DirectoryQueue(tmp_path / "q", "owner")
    thief = DirectoryQueue(tmp_path / "q", "thief")
    assert queue.try_claim("k")
    assert not thief.steal("k", lease_timeout=30.0)
    # After the owner's heartbeat goes stale the steal succeeds.
    stale = time.time() - 60
    os.utime(queue.claims_dir / "k.json", (stale, stale))
    assert thief.steal("k", lease_timeout=30.0)
    assert (queue.claims_dir / "k.json").read_text() == "thief"


def test_claim_is_exclusive(tmp_path):
    a = DirectoryQueue(tmp_path / "q", "a")
    b = DirectoryQueue(tmp_path / "q", "b")
    assert a.try_claim("k")
    assert not b.try_claim("k")
    # Release is owner-checked: b releasing a's claim is a no-op.
    b.release("k")
    assert not b.try_claim("k")
    a.release("k")
    assert b.try_claim("k")


def test_result_spool_releases_claim(tmp_path):
    a = DirectoryQueue(tmp_path / "q", "a")
    b = DirectoryQueue(tmp_path / "q", "b")
    assert a.try_claim("k")
    assert b.read_result("k") is None
    a.write_result("k", {"flow": "ortho", "candidates": []})
    # Non-owner polling order: the result is visible before (and after)
    # the claim disappears, so b can never re-claim a finished task
    # without seeing its result first.
    assert b.read_result("k") == {"flow": "ortho", "candidates": []}
    assert b.try_claim("k")


def test_publish_is_idempotent_across_nodes(tmp_path):
    a = DirectoryQueue(tmp_path / "q", "a")
    b = DirectoryQueue(tmp_path / "q", "b")
    assert a.publish("k", {"flow": "ortho"})
    assert not b.publish("k", {"flow": "ortho"})
    assert len(list(a.tasks_dir.iterdir())) == 1


def test_heartbeat_refreshes_only_owned_leases(tmp_path):
    queue = DirectoryQueue(tmp_path / "q", "owner")
    assert queue.try_claim("k")
    stale = time.time() - 3600
    os.utime(queue.claims_dir / "k.json", (stale, stale))
    queue.heartbeat()
    assert time.time() - (queue.claims_dir / "k.json").stat().st_mtime < 60

    # A stolen lease stops being heartbeaten by the old owner.
    thief = DirectoryQueue(tmp_path / "q", "thief")
    os.utime(queue.claims_dir / "k.json", (stale, stale))
    assert thief.steal("k", lease_timeout=30.0)
    (queue.claims_dir / "k.json").unlink()
    queue.heartbeat()  # must not crash or resurrect the lease
    assert not (queue.claims_dir / "k.json").exists()

"""Early-cancel of dominated portfolio members: once a cheaper flow has
met the network's area lower bound, still-pending exact tasks for the
same group are cancelled instead of burning solver time."""

from __future__ import annotations

from repro.benchsuite import get_benchmark
from repro.core import BenchmarkDatabase
from repro.core.bench import CARTESIAN_SCHEMES, GenerationParams
from repro.scheduler import JOURNAL_NAME, GenerationJournal, SchedulerParams
from repro.physical_design.exact import area_lower_bound

from .conftest import DETERMINISTIC_PARAMS


def _exact_enabled_params() -> GenerationParams:
    fields = dict(DETERMINISTIC_PARAMS, exact_max_elements=64)
    return GenerationParams(**fields)


def test_area_lower_bound_is_a_true_bound():
    """No layout can place fewer tiles than the prepared network has
    nodes — the bound the early-cancel policy relies on."""
    network = get_benchmark("trindade16", "mux21").build(60)
    bound = area_lower_bound(network)
    assert bound > 0
    assert area_lower_bound(network, keep_two_input=True) > 0

    db_params = GenerationParams(**DETERMINISTIC_PARAMS)
    import tempfile
    with tempfile.TemporaryDirectory() as root:
        db = BenchmarkDatabase(root)
        outcome = db.generate([get_benchmark("trindade16", "mux21")],
                              libraries=("QCA ONE",), params=db_params)
        for record in outcome:
            if record.area is not None:
                assert record.area >= bound


def test_dominated_exact_tasks_are_cancelled(tmp_path, monkeypatch):
    """With the bound forced to 'anything wins', every exact task is
    dominated as soon as ortho admits — and is cancelled, recorded, and
    journaled rather than executed."""
    import repro.physical_design.exact as exact_module

    monkeypatch.setattr(
        exact_module, "area_lower_bound",
        lambda network, keep_two_input=False, **kwargs: 10**9,
    )

    db = BenchmarkDatabase(tmp_path / "db")
    params = _exact_enabled_params()
    scheduler = SchedulerParams(early_cancel=True)
    outcome = db.generate(
        [get_benchmark("trindade16", "mux21")],
        libraries=("QCA ONE",),
        params=params,
        scheduler=scheduler,
    )
    report = outcome.report

    assert report.cancelled == len(CARTESIAN_SCHEMES)
    assert report.admitted > 0
    assert "cancelled as dominated" in report.summary()
    assert report.scheduler["cancelled"] == len(CARTESIAN_SCHEMES)

    cancelled_entries = [
        entry for entry in db._flow_cache.values()
        if entry["flow"].startswith("exact:")
    ]
    assert len(cancelled_entries) == len(CARTESIAN_SCHEMES)
    for entry in cancelled_entries:
        (rejection,) = entry["rejections"]
        assert rejection["status"] == "cancelled"
        assert "dominated" in rejection["reason"]

    journal = GenerationJournal.load(tmp_path / "db" / JOURNAL_NAME)
    cancelled_lines = [
        record for record in journal.records.values()
        if record.status == "cancelled"
    ]
    assert len(cancelled_lines) == len(CARTESIAN_SCHEMES)


def test_early_cancel_off_by_default(tmp_path):
    """Without the opt-in flag no bounds are computed and nothing is
    cancelled, even when exact flows are in the portfolio."""
    db = BenchmarkDatabase(tmp_path / "db")
    params = GenerationParams(
        **dict(DETERMINISTIC_PARAMS, exact_max_elements=64), exact_timeout=2.0
    )
    report = db.generate(
        [get_benchmark("trindade16", "mux21")],
        libraries=("QCA ONE",),
        params=params,
    ).report
    assert report.cancelled == 0
    # ortho_opt (which also emits the plain ortho layout), npr, exact
    assert report.executed_flows == 2 + len(CARTESIAN_SCHEMES)

"""Every build entry point honours the whole :class:`RuntimeProfile`.

``HistogramAlgorithm.run``, ``run_algorithms`` and
``SynopsisService.build_many`` each turn a profile into runners and, for a
scheduled batch, a scheduler.  An entry point that drops a profile field
silently falls back to that field's default, and because every execution
field is result-preserving, no equivalence suite notices.  This suite pins
two fields whose defaults are observable from outside the build:

* ``telemetry`` — a private bundle receives the build's task metrics and the
  process-global registry does not move;
* ``zero_copy`` — with it off, a parallel build charges no out-of-band ship
  bytes, even while the process default is on.

The batch entry points run with ``concurrent_jobs=2`` so their scheduled
path is the one under test.
"""

from __future__ import annotations

import pytest

from repro.algorithms import HWTopk, SendV
from repro.experiments.runner import run_algorithms
from repro.mapreduce.executor import ParallelExecutor
from repro.mapreduce.hdfs import HDFS
from repro.mapreduce.serialization import (
    SHIP_MODE_OOB,
    SHIP_MODE_PICKLED,
    set_zero_copy_default,
    zero_copy_default,
)
from repro.service import RuntimeProfile, SynopsisService
from repro.telemetry import Telemetry, get_telemetry, set_telemetry

U = 256
K = 8
SEED = 13
INPUT = "/data/input"

ENTRY_POINTS = ("run", "run_algorithms", "build_many")


def _build(entry_point, dataset, profile):
    """Build Send-V (plus H-WTopk for the batch entry points) under ``profile``."""
    if entry_point == "run":
        hdfs = HDFS()
        dataset.to_hdfs(hdfs, INPUT)
        SendV(U, K).run(hdfs, INPUT, profile=profile)
    elif entry_point == "run_algorithms":
        run_algorithms(dataset, [SendV(U, K), HWTopk(U, K)],
                       profile=profile.with_overrides(concurrent_jobs=2))
    else:
        reports = SynopsisService().build_many(
            [(SendV(U, K), dataset, "a"), (HWTopk(U, K), dataset, "b")],
            profile.with_overrides(concurrent_jobs=2))
        assert all(report.ok for report in reports)
        assert reports[0].scheduler_stats is not None


def _counter_total(registry, name, **labels):
    """Sum of a counter over every label set that includes ``labels``."""
    return sum(entry["value"] for entry in registry.snapshot()["counters"]
               if entry["name"] == name
               and all(entry["labels"].get(key) == value
                       for key, value in labels.items()))


@pytest.fixture()
def fresh_global_telemetry():
    """A fresh process-global bundle, restored (with the shipping default)
    after the test."""
    original = set_telemetry(Telemetry())
    zero_copy = zero_copy_default()
    yield get_telemetry()
    set_zero_copy_default(zero_copy)
    set_telemetry(original)


@pytest.mark.parametrize("entry_point", ENTRY_POINTS)
def test_private_telemetry_receives_the_build(entry_point, small_dataset,
                                              small_cluster,
                                              fresh_global_telemetry):
    private = Telemetry()
    _build(entry_point, small_dataset,
           RuntimeProfile(cluster=small_cluster, seed=SEED, telemetry=private))

    assert _counter_total(private.metrics, "repro_tasks_total", phase="map") > 0
    assert _counter_total(private.metrics, "repro_tasks_total", phase="reduce") > 0
    assert _counter_total(fresh_global_telemetry.metrics, "repro_tasks_total") == 0


@pytest.mark.parametrize("entry_point", ENTRY_POINTS)
def test_zero_copy_off_ships_nothing_out_of_band(entry_point, small_dataset,
                                                 small_cluster,
                                                 fresh_global_telemetry):
    # With the process default on, only the profile's field can turn the
    # out-of-band path off.
    set_zero_copy_default(True)
    executor = ParallelExecutor(max_workers=2)
    try:
        _build(entry_point, small_dataset,
               RuntimeProfile(cluster=small_cluster, seed=SEED,
                              executor=executor, zero_copy=False))
    finally:
        executor.close()

    metrics = fresh_global_telemetry.metrics
    assert _counter_total(metrics, "repro_task_ship_bytes_total",
                          mode=SHIP_MODE_PICKLED) > 0
    assert _counter_total(metrics, "repro_task_ship_bytes_total",
                          mode=SHIP_MODE_OOB) == 0

"""The parallel evaluation grid: deterministic ordering, the serial
fallback, job-count resolution, and — the property everything else
rests on — identical table rows at jobs=1 and jobs=4."""

import pytest

from repro.eval.grid import (
    GridOptions,
    GridTask,
    resolve_jobs,
    resolve_timeout,
    run_grid,
)
from repro.eval.table4 import measure as table4_measure
from repro.workloads import kernel_by_id


def _square(x):
    return x * x


def _fail(x):
    raise RuntimeError(f"unit {x} failed")


def _tasks(values):
    return [GridTask(f"square/{i}", _square, (i,)) for i in values]


def test_run_grid_serial_preserves_order():
    results = run_grid(_tasks(range(6)), GridOptions(jobs=1))
    assert results == [0, 1, 4, 9, 16, 25]


def test_run_grid_parallel_preserves_submission_order():
    results = run_grid(_tasks(range(8)), GridOptions(jobs=4))
    assert results == [i * i for i in range(8)]


def test_run_grid_rejects_duplicate_keys():
    with pytest.raises(ValueError, match="duplicate grid key"):
        run_grid(
            [GridTask("same", _square, (1,)), GridTask("same", _square, (2,))],
            GridOptions(jobs=1),
        )


def test_grid_task_key_comes_first():
    with pytest.raises(TypeError, match="key"):
        GridTask(_square, ("not-a-key",))  # pre-1.1 argument order


def test_run_grid_propagates_worker_exception():
    with pytest.raises(RuntimeError, match="unit 2 failed"):
        run_grid([GridTask("fail/2", _fail, (2,))], GridOptions(jobs=1))
    with pytest.raises(RuntimeError, match="unit 5 failed"):
        run_grid(
            [GridTask("sq/1", _square, (1,)), GridTask("fail/5", _fail, (5,))],
            GridOptions(jobs=2),
        )


def test_resolve_jobs_argument_wins(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "7")
    assert resolve_jobs(3) == 3


def test_resolve_jobs_env(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "5")
    assert resolve_jobs(None) == 5


def test_resolve_jobs_env_invalid(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "many")
    with pytest.raises(ValueError, match="REPRO_JOBS"):
        resolve_jobs(None)


def test_resolve_jobs_floor(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs(0) == 1
    assert resolve_jobs(-3) == 1
    assert resolve_jobs(None) >= 1


def test_resolve_timeout_env(monkeypatch):
    monkeypatch.setenv("REPRO_UNIT_TIMEOUT", "2.5")
    assert resolve_timeout(None) == 2.5
    assert resolve_timeout(9.0) == 9.0
    monkeypatch.setenv("REPRO_UNIT_TIMEOUT", "")
    assert resolve_timeout(None) is None
    monkeypatch.setenv("REPRO_UNIT_TIMEOUT", "soon")
    with pytest.raises(ValueError, match="REPRO_UNIT_TIMEOUT"):
        resolve_timeout(None)


def test_resolve_timeout_nonpositive_means_unlimited():
    assert resolve_timeout(0) is None
    assert resolve_timeout(-1.0) is None


def test_grid_options_validates_failure_mode():
    with pytest.raises(ValueError, match="failures"):
        GridOptions(failures="ignore")


def test_jobs_parity_on_livermore_subset():
    """jobs=1 and jobs=4 produce identical Table 4 rows — cycles,
    checksums, and row ordering — on a scaled-down kernel subset."""
    kernels = [kernel_by_id(k) for k in (1, 12)]
    serial = table4_measure(
        kernels=kernels, scale=0.05, options=GridOptions(jobs=1)
    )
    parallel = table4_measure(
        kernels=kernels, scale=0.05, options=GridOptions(jobs=4)
    )
    assert list(serial.runs) == list(parallel.runs)
    for kernel_id, by_strategy in serial.runs.items():
        assert list(by_strategy) == list(parallel.runs[kernel_id])
        for strategy, run in by_strategy.items():
            twin = parallel.runs[kernel_id][strategy]
            assert run.actual_cycles == twin.actual_cycles
            assert run.estimated_cycles == twin.estimated_cycles
            assert run.instructions == twin.instructions
            assert run.code_size == twin.code_size
            assert run.checksum == twin.checksum

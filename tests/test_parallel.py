import functools
import multiprocessing
import os

import numpy as np
import pytest

from suffcast import _parallel
from suffcast._parallel import chunked_map, usable_cpus


def _blas_count(chunk):
    """The BLAS thread count a chunk runs on, in-process or in a worker, as its one row."""
    return [_parallel.bundled_openblas().get_num_threads()]


def _os_threads(chunk):
    """The OS threads of the process a chunk runs in, after a BLAS product and an eigensolve."""
    a = np.linspace(-1.0, 1.0, 200 * 200).reshape(200, 200)
    np.linalg.eigh(a @ a.T)
    return [len(os.listdir("/proc/self/task"))]


def _fail_from(first_failing, chunk):
    if chunk >= first_failing:
        raise ValueError(f"chunk {chunk} failed")
    return [chunk]


def _rows(chunk):
    """``count`` rows for a chunk ``(name, count)``, each naming the chunk and its item."""
    name, count = chunk
    return [(name, item) for item in range(count)]


@pytest.mark.parametrize("jobs", [1, 2])
def test_rows_come_back_flattened_in_chunk_order(jobs):
    # an empty chunk adds no row, and no chunk's rows are merged into another's
    chunks = [("a", 1), ("b", 0), ("c", 3)]
    assert chunked_map(_rows, chunks, jobs) == [("a", 0), ("c", 0), ("c", 1), ("c", 2)]


class TestUsableCpus:
    def test_counts_the_affinity_set(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert usable_cpus() == 3

    def test_cpu_count_without_an_affinity_call(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert usable_cpus() == 5


@pytest.mark.skipif(_parallel.bundled_openblas() is None,
                    reason="numpy's BLAS has no thread setter")
class TestBlasPin:
    @pytest.fixture
    def two_threads(self):
        """BLAS on 2 threads for the test, and the count it found back afterwards."""
        openblas = _parallel.bundled_openblas()
        found = openblas.get_num_threads()
        openblas.set_num_threads(2)
        yield openblas.get_num_threads
        openblas.set_num_threads(found)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_chunks_run_on_one_thread_and_the_count_is_restored(self, two_threads, jobs):
        assert chunked_map(_blas_count, [0, 1], jobs) == [1, 1]
        assert two_threads() == 2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_count_restored_after_an_exception(self, two_threads, jobs):
        # with workers, the earliest failing chunk's exception is the one raised
        with pytest.raises(ValueError, match="^chunk 1 failed$"):
            chunked_map(functools.partial(_fail_from, 1), [0, 1, 2, 3], jobs)
        assert two_threads() == 2


@pytest.mark.skipif(_parallel.bundled_openblas() is None,
                    reason="numpy's BLAS has no thread setter")
@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="only a forked worker inherits the pin")
def test_a_forked_worker_runs_on_one_os_thread(monkeypatch):
    # a setter call in the worker would start the pool OpenBLAS shut down at fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert chunked_map(_os_threads, [0, 1], 2) == [1, 1]


class FakeOpenBLAS:
    """numpy's OpenBLAS at ``count`` threads, recording the count of each setter call."""

    def __init__(self, count):
        self.count = count
        self.calls = []

    def set_num_threads(self, count):
        self.calls.append(count)
        self.count = count

    def get_num_threads(self):
        return self.count


class TestSetterCalls:
    @pytest.fixture
    def fake(self, monkeypatch):
        """A fake OpenBLAS at 2 threads in place of the bundled one."""
        fake = FakeOpenBLAS(2)
        monkeypatch.setattr(_parallel, "bundled_openblas", lambda: fake)
        monkeypatch.setattr(_parallel, "_worker_fn", None)
        return fake

    @pytest.mark.parametrize(("count", "calls"), [(1, []), (2, [1])])
    def test_a_worker_pins_only_where_the_count_differs(self, fake, count, calls):
        fake.count = count
        _parallel._start_worker(_rows)
        assert fake.calls == calls
        assert _parallel._worker_fn is _rows

    def test_a_pin_inside_a_pin_makes_no_call(self, fake):
        with _parallel.one_blas_thread():
            with _parallel.one_blas_thread():
                assert fake.calls == [1]
            assert fake.calls == [1]
        assert fake.calls == [1, 2]


def test_without_a_thread_setter_the_block_runs_unpinned(monkeypatch):
    # numpy linked against a BLAS other than its bundled OpenBLAS
    monkeypatch.setattr(_parallel, "bundled_openblas", lambda: None)
    ran = []
    with _parallel.one_blas_thread():
        ran.append(True)
    assert ran == [True]
    assert _parallel.blas_threads() is None

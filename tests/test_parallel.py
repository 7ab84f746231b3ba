import functools
import os

import pytest

from suffcast import _parallel
from suffcast._parallel import chunked_map, usable_cpus


def _blas_count(chunk):
    """The BLAS thread count a chunk runs on, in-process or in a worker, as its one row."""
    return [_parallel.bundled_openblas().get_num_threads()]


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


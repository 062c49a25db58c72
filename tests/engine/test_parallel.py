"""Tests for the parallel_map executor."""

import pytest

from repro.engine.parallel import EXECUTORS, parallel_map
from repro.errors import InvalidParameterError


def square(value: float) -> float:
    return value * value


class TestParallelMap:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_preserves_order(self, executor):
        items = list(range(20))
        assert parallel_map(
            square, items, executor=executor, max_workers=2
        ) == [square(i) for i in items]

    def test_empty_and_singleton(self):
        assert parallel_map(square, [], executor="thread") == []
        assert parallel_map(square, [3], executor="process") == [9]

    def test_unpicklable_payload_falls_back_to_serial(self):
        # A closure can't be pickled; the process executor must degrade
        # to serial instead of raising.
        offset = 10
        with pytest.warns(RuntimeWarning):
            results = parallel_map(
                lambda v: v + offset, [1, 2, 3], executor="process"
            )
        assert results == [11, 12, 13]

    def test_unpicklable_fallback_warns_with_reason(self):
        # Satellite: the degraded run must be observable, naming why the
        # process executor was abandoned.
        with pytest.warns(
            RuntimeWarning,
            match=r"falling back from the process executor.*not picklable",
        ):
            parallel_map(lambda v: v, [1, 2], executor="process")

    def test_fallback_is_observable_in_metrics_and_warning(self):
        # Satellite: a degraded run must name the executor it chose AND
        # bump the executor_fallback_total counter, so losing
        # parallelism is visible in metrics dumps as well as logs.
        from repro.obs.instrument import EXECUTOR_FALLBACKS

        before = EXECUTOR_FALLBACKS.value(
            requested="process", chosen="serial"
        )
        with pytest.warns(
            RuntimeWarning, match=r"chosen executor: 'serial'"
        ):
            parallel_map(lambda v: v, [1, 2], executor="process")
        after = EXECUTOR_FALLBACKS.value(
            requested="process", chosen="serial"
        )
        assert after == before + 1

    def test_broken_pool_fallback_warns_with_reason(self, monkeypatch):
        # Simulate a platform whose process pool cannot start (the
        # ImportError/OSError path): the sweep still completes serially
        # and the warning names the pool failure.
        import concurrent.futures as futures

        def refuse(*args, **kwargs):
            raise OSError("no process support on this platform")

        monkeypatch.setattr(futures, "ProcessPoolExecutor", refuse)
        with pytest.warns(
            RuntimeWarning,
            match=r"worker pool failed \(OSError: no process support",
        ):
            results = parallel_map(square, [1, 2, 3], executor="process")
        assert results == [1, 4, 9]

    def test_serial_and_thread_do_not_warn(self, recwarn):
        parallel_map(square, [1, 2, 3], executor="serial")
        parallel_map(square, [1, 2, 3], executor="thread")
        assert not [
            w for w in recwarn if issubclass(w.category, RuntimeWarning)
        ]

    @pytest.mark.parametrize("executor", ("serial", "thread"))
    def test_exceptions_propagate(self, executor):
        def explode(value):
            raise ValueError(f"boom {value}")

        with pytest.raises(ValueError, match="boom"):
            parallel_map(explode, [1, 2], executor=executor)

    def test_rejects_unknown_executor(self):
        with pytest.raises(InvalidParameterError, match="executor"):
            parallel_map(square, [1], executor="fork-bomb")

    def test_rejects_bad_worker_count(self):
        with pytest.raises(InvalidParameterError, match="max_workers"):
            parallel_map(square, [1], executor="thread", max_workers=0)


def draw_total(item: float, rng) -> float:
    """Module-level seeded evaluation (picklable for the process pool)."""
    return float(item + rng.normal(size=4).sum())


class TestSeededParallelMap:
    """The seed= contract: executor choice must never change results."""

    def test_serial_thread_process_bitwise_identical(self):
        items = list(range(11))
        results = {
            executor: parallel_map(
                draw_total, items, executor=executor, max_workers=3, seed=77
            )
            for executor in EXECUTORS
        }
        assert results["serial"] == results["thread"]
        assert results["serial"] == results["process"]

    def test_same_seed_reproduces_and_seeds_differ(self):
        first = parallel_map(draw_total, [0.0, 1.0], seed=5)
        again = parallel_map(draw_total, [0.0, 1.0], seed=5)
        other = parallel_map(draw_total, [0.0, 1.0], seed=6)
        assert first == again
        assert first != other

    def test_items_get_independent_streams(self):
        # Identical items must not see identical draws.
        values = parallel_map(draw_total, [0.0, 0.0, 0.0], seed=9)
        assert len(set(values)) == 3

    def test_seeded_singleton_matches_multi_item_prefix(self):
        # Chunk streams depend only on (seed, index), so evaluating a
        # prefix of the items yields a prefix of the results.
        full = parallel_map(draw_total, [4.0, 5.0], seed=21)
        prefix = parallel_map(draw_total, [4.0], seed=21)
        assert prefix == full[:1]

    def test_unseeded_calls_keep_single_argument_signature(self):
        assert parallel_map(square, [2, 3]) == [4, 9]

    @pytest.mark.parametrize("seed", (-1, 1.5, "7"))
    def test_seed_numpy_refuses_is_an_invalid_parameter(self, seed):
        # Regression: a negative seed surfaced as NumPy's bare
        # "expected non-negative integer" ValueError.
        with pytest.raises(InvalidParameterError, match="seed"):
            parallel_map(draw_total, [0.0], seed=seed)


class Moody:
    """Instances pickle or refuse to, by content (not by type)."""

    def __init__(self, ok: bool) -> None:
        self.ok = ok

    def __reduce__(self):
        import pickle

        if self.ok:
            return (Moody, (True,))
        raise pickle.PicklingError("moody instance refuses to pickle")


def moody_flag(item: "Moody") -> bool:
    return item.ok


class TestProbeCache:
    """Satellite: the picklability probe memoizes its verdict.

    The process path used to re-serialize the full payload once per
    dispatch just to *test* picklability; the verdict depends only on
    the mapped function and the item types, so repeated sweeps must
    probe exactly once.
    """

    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        from repro.engine.parallel import clear_probe_cache

        clear_probe_cache()
        yield
        clear_probe_cache()

    @pytest.fixture
    def dumps_counter(self, monkeypatch):
        import pickle

        from repro.engine import parallel

        counted = []
        real_dumps = pickle.dumps

        def counting(obj, *args, **kwargs):
            counted.append(obj)
            return real_dumps(obj, *args, **kwargs)

        monkeypatch.setattr(parallel.pickle, "dumps", counting)
        return counted

    def test_repeat_probe_is_free(self, dumps_counter):
        from repro.engine.parallel import _picklable

        payload = [1.5, 2.5, 3.5]
        assert _picklable(square, payload)
        first = len(dumps_counter)
        assert first > 0  # the initial probe pays the serialization
        assert _picklable(square, payload)
        assert _picklable(square, [9.0, 10.0])  # same types: still cached
        assert len(dumps_counter) == first

    def test_new_payload_types_probe_again(self, dumps_counter):
        from repro.engine.parallel import _picklable

        assert _picklable(square, [1, 2])
        first = len(dumps_counter)
        assert _picklable(square, [(1, "a"), (2, "b")])  # tuple payload
        assert len(dumps_counter) > first

    def test_negative_verdicts_are_cached_too(self, dumps_counter):
        from repro.engine.parallel import _picklable

        offset = 3
        closure = lambda v: v + offset  # noqa: E731 - deliberately unpicklable
        assert not _picklable(closure, [1, 2])
        first = len(dumps_counter)
        assert not _picklable(closure, [1, 2])
        assert len(dumps_counter) == first

    def test_stale_positive_verdict_still_degrades_serially(self):
        # Moody's picklability varies by *content*, which the type-keyed
        # cache cannot see: prime a positive verdict, then dispatch an
        # instance that refuses to pickle. The pool's own PicklingError
        # is caught and the sweep completes serially.
        good = parallel_map(
            moody_flag, [Moody(True), Moody(True)], executor="process"
        )
        assert good == [True, True]
        with pytest.warns(RuntimeWarning, match="worker pool failed"):
            degraded = parallel_map(
                moody_flag, [Moody(True), Moody(False)], executor="process"
            )
        assert degraded == [True, False]

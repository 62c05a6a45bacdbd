"""Micro-batching broker: bit-identity, dispatch policy, stress determinism."""

import asyncio
import threading

import numpy as np
import pytest

from repro.serve import ByteLRUCache, MicroBatcher


def _assert_bit_identical(left, right):
    assert left.mean.tobytes() == right.mean.tobytes()
    assert left.std.tobytes() == right.std.tobytes()
    assert left.lo.tobytes() == right.lo.tobytes()
    assert left.hi.tobytes() == right.hi.tobytes()


class TestBitIdentity:
    def test_coalesced_matches_serial_per_request(self, fig1_engine, request_rows):
        async def coalesced():
            batcher = MicroBatcher(fig1_engine, max_batch=64)
            responses = await asyncio.gather(
                *[batcher.submit(request_rows[i:i + 1])
                  for i in range(len(request_rows))])
            await batcher.close()
            return responses, batcher

        responses, batcher = asyncio.run(coalesced())
        assert batcher.counters.batches < len(request_rows)  # actually coalesced
        for i, response in enumerate(responses):
            _assert_bit_identical(response,
                                  fig1_engine.predict(request_rows[i:i + 1]))

    def test_multi_row_requests_slice_correctly(self, fig1_engine, request_rows):
        async def go():
            batcher = MicroBatcher(fig1_engine, max_batch=64)
            responses = await asyncio.gather(
                batcher.submit(request_rows[:3]),
                batcher.submit(request_rows[3:8]),
                batcher.submit(request_rows[8:9]))
            await batcher.close()
            return responses

        first, second, third = asyncio.run(go())
        _assert_bit_identical(first, fig1_engine.predict(request_rows[:3]))
        _assert_bit_identical(second, fig1_engine.predict(request_rows[3:8]))
        _assert_bit_identical(third, fig1_engine.predict(request_rows[8:9]))

    def test_per_request_coverage_honored_within_one_batch(self, fig1_engine,
                                                           request_rows):
        async def go():
            batcher = MicroBatcher(fig1_engine, max_batch=64)
            narrow, wide = await asyncio.gather(
                batcher.submit(request_rows[:1], coverage=0.5),
                batcher.submit(request_rows[:1], coverage=0.99))
            await batcher.close()
            return narrow, wide

        narrow, wide = asyncio.run(go())
        assert narrow.coverage == 0.5 and wide.coverage == 0.99
        assert ((wide.hi - wide.lo) > (narrow.hi - narrow.lo)).all()
        assert narrow.mean.tobytes() == wide.mean.tobytes()


class TestFlushTriggers:
    def test_close_flushes_pending(self, fig1_engine, request_rows):
        async def go():
            batcher = MicroBatcher(fig1_engine, max_batch=1000)
            pending = asyncio.ensure_future(batcher.submit(request_rows[:1]))
            await asyncio.sleep(0)  # let the submit enqueue
            await batcher.close()
            response = await pending
            with pytest.raises(RuntimeError, match="closed"):
                await batcher.submit(request_rows[:1])
            return response

        response = asyncio.run(go())
        assert response.mean.shape == (1, 1)

    def test_invalid_inputs_rejected(self, fig1_engine):
        async def go():
            batcher = MicroBatcher(fig1_engine, max_batch=4)
            with pytest.raises(ValueError, match="non-empty batch"):
                await batcher.submit(np.zeros(3))
            with pytest.raises(ValueError, match="non-empty batch"):
                await batcher.submit(np.zeros((0, 1)))

        asyncio.run(go())


class _GatedEngine:
    """Engine stand-in whose forwards block until the test opens ``gate``.

    The raw output of a forward is its batch with one sample axis, and
    ``stats`` returns the raw slice unchanged, so a response is exactly its
    request's rows.  A batch holding ``FAIL`` makes the forward raise, and,
    like a real model's input layer, so does a batch of rows not 1 wide.
    """

    snapshot_id = "gated"
    FAIL = -1.0

    def __init__(self):
        self.gate = threading.Event()
        self.entered = threading.Semaphore(0)
        self.batches = []  # first input column of every forward, in order
        self.max_in_flight = 0
        self._in_flight = 0
        self._lock = threading.Lock()

    def predict_stacked(self, batch):
        with self._lock:
            self._in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self._in_flight)
            self.batches.append(batch[:, 0].tolist())
        self.entered.release()
        try:
            if not self.gate.wait(timeout=30):
                raise TimeoutError("the test never opened the gate")
            if (batch == self.FAIL).any():
                raise RuntimeError("forward failed")
            if batch.shape[1] != 1:
                raise ValueError(f"expected 1 input feature, got {batch.shape[1]}")
            return batch[None]
        finally:
            with self._lock:
                self._in_flight -= 1

    def stats(self, raw, coverage):
        return raw[0]


def _rows(*values):
    return np.asarray(values, dtype=np.float64).reshape(-1, 1)


async def _forward_started(engine):
    assert await asyncio.to_thread(engine.entered.acquire, True, 30)


class TestWorkConserving:
    """The dispatch policy, driven by a gated fake engine (no wall clock)."""

    def test_lone_request_dispatches_without_timer(self):
        engine = _GatedEngine()
        engine.gate.set()

        async def go():
            def no_timers(*args, **kwargs):
                raise AssertionError("the batcher armed a timer")

            loop = asyncio.get_running_loop()
            loop.call_later = loop.call_at = no_timers
            batcher = MicroBatcher(engine, max_batch=1000)
            return await batcher.submit(_rows(0.5)), batcher

        response, batcher = asyncio.run(go())
        assert response.tolist() == [[0.5]]
        assert engine.batches == [[0.5]]
        stats = batcher.stats()
        assert stats["batcher"]["timer_flushes"] == 0
        assert "max_wait_ms" not in stats

    def test_requests_during_inflight_forward_form_one_next_batch(self):
        engine = _GatedEngine()

        async def go():
            batcher = MicroBatcher(engine, max_batch=32)
            first = asyncio.ensure_future(batcher.submit(_rows(0.0)))
            await _forward_started(engine)
            later = [asyncio.ensure_future(batcher.submit(_rows(value)))
                     for value in (1.0, 2.0, 3.0)]
            await asyncio.sleep(0)  # let the submits enqueue
            engine.gate.set()
            return await first, await asyncio.gather(*later), batcher

        first, later, batcher = asyncio.run(go())
        assert engine.batches == [[0.0], [1.0, 2.0, 3.0]]
        assert batcher.counters.batches == 2
        assert first.tolist() == [[0.0]]
        assert [r.tolist() for r in later] == [[[1.0]], [[2.0]], [[3.0]]]

    def test_backlog_splits_into_whole_requests_up_to_max_batch(self):
        engine = _GatedEngine()
        # request i has sizes[i] rows, all valued i + 1; 6 rows > max_batch
        sizes = [3, 2, 4, 1, 3, 6]

        async def go():
            batcher = MicroBatcher(engine, max_batch=5)
            first = asyncio.ensure_future(batcher.submit(_rows(0.0)))
            await _forward_started(engine)
            backlog = [asyncio.ensure_future(
                batcher.submit(np.full((rows, 1), i + 1.0)))
                for i, rows in enumerate(sizes)]
            await asyncio.sleep(0)
            engine.gate.set()
            await first
            return await asyncio.gather(*backlog), batcher

        responses, batcher = asyncio.run(go())
        assert engine.batches == [[0.0],
                                  [1.0] * 3 + [2.0] * 2,
                                  [3.0] * 4 + [4.0],
                                  [5.0] * 3,
                                  [6.0] * 6]  # an oversized request goes alone
        assert engine.max_in_flight == 1
        for i, (rows, response) in enumerate(zip(sizes, responses)):
            assert response.tolist() == [[i + 1.0]] * rows
        assert batcher.counters.size_flushes == 3
        assert batcher.counters.max_batch_rows == 6

    def test_forward_exception_fails_only_its_own_batch(self):
        engine = _GatedEngine()

        async def go():
            batcher = MicroBatcher(engine, max_batch=32)
            bad = asyncio.ensure_future(batcher.submit(_rows(engine.FAIL)))
            await _forward_started(engine)
            good = asyncio.ensure_future(batcher.submit(_rows(1.0)))
            await asyncio.sleep(0)
            engine.gate.set()
            with pytest.raises(RuntimeError, match="forward failed"):
                await bad
            return await good, await batcher.submit(_rows(2.0))

        good, after = asyncio.run(go())
        assert good.tolist() == [[1.0]]
        assert after.tolist() == [[2.0]]
        assert engine.batches == [[engine.FAIL], [1.0], [2.0]]

    def test_request_of_another_row_shape_fails_alone(self):
        engine = _GatedEngine()

        async def go():
            batcher = MicroBatcher(engine, max_batch=32)
            first = asyncio.ensure_future(batcher.submit(_rows(0.0)))
            await _forward_started(engine)
            before = asyncio.ensure_future(batcher.submit(_rows(1.0)))
            wide = asyncio.ensure_future(batcher.submit(np.full((1, 2), 7.0)))
            after = asyncio.ensure_future(batcher.submit(_rows(2.0)))
            await asyncio.sleep(0)
            engine.gate.set()
            with pytest.raises(ValueError, match="1 input feature"):
                await wide
            return await first, await before, await after

        first, before, after = asyncio.run(go())
        assert [r.tolist() for r in (first, before, after)] == [
            [[0.0]], [[1.0]], [[2.0]]]
        # the wide request is never concatenated with a 1-wide batchmate
        assert engine.batches == [[0.0], [1.0], [7.0], [2.0]]

    def test_close_drains_inflight_batch_and_backlog(self):
        engine = _GatedEngine()

        async def go():
            batcher = MicroBatcher(engine, max_batch=1)
            submits = [asyncio.ensure_future(batcher.submit(_rows(0.0)))]
            await _forward_started(engine)
            submits += [asyncio.ensure_future(batcher.submit(_rows(value)))
                        for value in (1.0, 2.0)]
            await asyncio.sleep(0)
            closing = asyncio.ensure_future(batcher.close())
            await asyncio.sleep(0)
            assert not closing.done()  # the in-flight forward is still gated
            with pytest.raises(RuntimeError, match="closed"):
                await batcher.submit(_rows(9.0))
            engine.gate.set()
            await closing
            assert all(submit.done() for submit in submits)
            return [submit.result().tolist() for submit in submits]

        assert asyncio.run(go()) == [[[0.0]], [[1.0]], [[2.0]]]
        assert engine.batches == [[0.0], [1.0], [2.0]]


class TestThreadSafety:
    def test_concurrent_forwards_from_threads_stay_bit_identical(
            self, fig1_engine, request_rows):
        """The engine serializes forwards: parameter substitution mutates the
        one shared network, so unlocked concurrent forwards would read each
        other's substituted weight stacks."""
        from concurrent.futures import ThreadPoolExecutor

        expected = [fig1_engine.predict_stacked(request_rows[i:i + 2]).tobytes()
                    for i in range(16)]
        with ThreadPoolExecutor(max_workers=8) as pool:
            for _ in range(5):
                got = list(pool.map(
                    lambda i: fig1_engine.predict_stacked(
                        request_rows[i:i + 2]).tobytes(), range(16)))
                assert got == expected


class TestStressDeterminism:
    def test_concurrent_waves_deterministic_and_cache_consistent(
            self, fig1_engine, request_rows):
        """Many interleaved clients, repeated runs, cache on: identical bytes."""

        async def wave(use_cache):
            cache = ByteLRUCache(1 << 20) if use_cache else None
            batcher = MicroBatcher(fig1_engine, max_batch=8, cache=cache)

            async def client(offset):
                rows = request_rows[offset % len(request_rows):][:2]
                await asyncio.sleep((offset % 5) / 2000.0)
                return await batcher.submit(rows)

            responses = await asyncio.gather(*[client(i) for i in range(40)])
            await batcher.close()
            return [r.mean.tobytes() + r.std.tobytes() for r in responses]

        first = asyncio.run(wave(use_cache=False))
        second = asyncio.run(wave(use_cache=False))
        cached = asyncio.run(wave(use_cache=True))
        assert first == second  # deterministic under scheduling jitter
        assert first == cached  # the cache never changes response bytes

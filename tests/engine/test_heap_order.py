"""Event-heap ordering: ``(time, seq, event)`` entries fire in FIFO order.

The simulator's heap holds plain tuples, so ordering comes from the
``(time, seq)`` prefix alone.  These tests pin the observable contract:
ties fire in scheduling order (in ``step``, in plain dispatch and in
hook-bracketed batches), cancelled events never fire and leave
``pending_events`` exact, and events scheduled at the current instant
while a same-timestamp batch runs join that batch.
"""

from __future__ import annotations

import random

from repro.engine.simulator import Simulator


def _batching_sim(log):
    sim = Simulator(seed=1)
    sim.add_batch_hooks(lambda: log.append("enter"), lambda: log.append("exit"))
    return sim


class TestTieOrder:
    def test_same_time_events_fire_in_schedule_order(self):
        sim = Simulator(seed=1)
        fired = []
        for i in range(20):
            sim.schedule_at(1.0, lambda i=i: fired.append(i))
        sim.run_until(2.0)
        assert fired == list(range(20))

    def test_step_fires_ties_in_schedule_order(self):
        sim = Simulator(seed=1)
        fired = []
        sim.schedule_at(2.0, lambda: fired.append("late"))
        for name in ("a", "b", "c"):
            sim.schedule_at(1.0, lambda name=name: fired.append(name))
        while sim.step():
            pass
        assert fired == ["a", "b", "c", "late"]

    def test_batched_ties_fire_in_schedule_order(self):
        log = []
        sim = _batching_sim(log)
        for i in range(5):
            sim.schedule_at(1.0, lambda i=i: log.append(i))
        sim.run_until(1.0)
        assert log == ["enter", 0, 1, 2, 3, 4, "exit"]

    def test_interleaved_times_keep_fifo_within_each_instant(self):
        sim = Simulator(seed=1)
        rng = random.Random(7)
        fired = []
        expected = []
        for seq in range(300):
            time = float(rng.randrange(10))
            expected.append((time, seq))
            sim.schedule_at(time, lambda t=time, s=seq: fired.append((t, s)))
        sim.run_until(100.0)
        assert fired == sorted(expected)


class TestCancellation:
    def test_cancelled_events_never_fire(self):
        sim = Simulator(seed=1)
        fired = []
        handles = [
            sim.schedule_at(1.0, lambda i=i: fired.append(i)) for i in range(6)
        ]
        for index in (0, 3, 5):
            handles[index].cancel()
        assert sim.pending_events() == 3
        sim.run_until(2.0)
        assert fired == [1, 2, 4]
        assert sim.pending_events() == 0
        assert all(handle.done for handle in handles)

    def test_cancel_inside_a_batch_skips_the_later_tie(self):
        log = []
        sim = _batching_sim(log)
        later = []

        def first():
            log.append("first")
            later[0].cancel()

        sim.schedule_at(1.0, first)
        later.append(sim.schedule_at(1.0, lambda: log.append("cancelled")))
        sim.schedule_at(1.0, lambda: log.append("third"))
        assert sim.pending_events() == 3
        sim.run_until(1.0)
        assert log == ["enter", "first", "third", "exit"]
        assert sim.pending_events() == 0

    def test_pending_events_exact_under_random_cancels(self):
        sim = Simulator(seed=1)
        rng = random.Random(3)
        fired = []
        live = set()
        handles = {}
        for seq in range(200):
            handles[seq] = sim.schedule_at(
                float(rng.randrange(5)), lambda s=seq: fired.append(s)
            )
            live.add(seq)
        for seq in rng.sample(sorted(handles), 80):
            handles[seq].cancel()
            handles[seq].cancel()  # a second cancel must not drift the count
            live.discard(seq)
        assert sim.pending_events() == len(live)
        sim.run_until(10.0)
        assert sorted(fired) == sorted(live)
        assert sim.pending_events() == 0


class TestBatchJoining:
    def test_event_scheduled_now_during_a_batch_joins_it(self):
        log = []
        sim = _batching_sim(log)

        def spawn():
            log.append("spawn")
            sim.schedule(0.0, lambda: log.append("joined"))

        sim.schedule_at(1.0, spawn)
        sim.schedule_at(1.0, lambda: log.append("tie"))
        sim.schedule_at(2.0, lambda: log.append("next"))
        sim.run_until(3.0)
        # the joined event fires after the existing tie (larger seq) but
        # inside the same enter/exit bracket
        assert log == [
            "enter", "spawn", "tie", "joined", "exit", "next",
        ]

    def test_chain_of_same_time_events_stays_in_one_batch(self):
        log = []
        sim = _batching_sim(log)
        depth = []

        def chain():
            depth.append(sim.now)
            if len(depth) < 4:
                sim.schedule_at(sim.now, chain)

        sim.schedule_at(1.0, chain)
        sim.schedule_at(1.0, lambda: log.append("tie"))
        sim.run_until(1.0)
        assert depth == [1.0] * 4
        assert log == ["enter", "tie", "exit"]

"""LiveRuntime: the wall-clock implementation of the Runtime contract."""

import asyncio
import time
from types import SimpleNamespace

import pytest

from repro.core.protocol import Heartbeat
from repro.live.runtime import LiveRuntime, LiveTimer
from repro.live.transport import HubTransport, NodeTransport, NullTransport
from repro.net.message import Message
from repro.runtime import Runtime, TimerHandle, Transport
from repro.sim.core import SimulationError, Simulator

NAN = float("nan")


def _run(coro):
    return asyncio.run(coro)


def test_backends_satisfy_the_runtime_protocol():
    assert isinstance(Simulator(), Runtime)
    assert isinstance(LiveRuntime(epoch=0.0), Runtime)
    assert isinstance(NullTransport(), Transport)


def test_now_is_measured_from_the_epoch():
    async def scenario():
        runtime = LiveRuntime()
        assert -0.1 < runtime.now < 0.1
        future = LiveRuntime(epoch=runtime.epoch + 100.0)
        assert future.now < -99.0  # pre-epoch clocks read negative

    _run(scenario())


def test_a_runtime_awaiting_its_epoch_refuses_timers():
    runtime = LiveRuntime.awaiting_epoch()
    with pytest.raises(RuntimeError, match="epoch"):
        runtime.call_at(0.0, lambda: None)
    with pytest.raises(RuntimeError, match="epoch"):
        runtime.call_after(0.1, lambda: None)

    async def scenario():
        runtime.fix_epoch(time.time())
        fired = asyncio.Event()
        runtime.call_after(0.0, fired.set)
        await asyncio.wait_for(fired.wait(), 1.0)
        with pytest.raises(RuntimeError, match="already fixed"):
            runtime.fix_epoch(time.time())

    _run(scenario())


def test_call_after_fires_in_order_with_arguments():
    async def scenario():
        runtime = LiveRuntime()
        fired = []
        runtime.call_after(0.02, fired.append, "second")
        runtime.call_after(0.0, fired.append, "first")
        await asyncio.sleep(0.08)
        assert fired == ["first", "second"]
        assert runtime.events_dispatched == 2

    _run(scenario())


def test_call_at_in_the_past_clamps_to_immediately():
    async def scenario():
        runtime = LiveRuntime()
        fired = []
        timer = runtime.call_at(runtime.now - 5.0, fired.append, "late")
        assert isinstance(timer, LiveTimer)
        assert isinstance(timer, TimerHandle)
        await asyncio.sleep(0.03)
        assert fired == ["late"]

    _run(scenario())


def test_negative_delay_is_still_a_bug():
    async def scenario():
        runtime = LiveRuntime()
        with pytest.raises(ValueError, match="negative delay"):
            runtime.call_after(-0.5, lambda: None)

    _run(scenario())


@pytest.mark.parametrize("verb", ["call_after", "call_at"])
@pytest.mark.parametrize("backend", [Simulator, LiveRuntime])
def test_a_nan_time_is_refused_by_both_runtimes(backend, verb):
    # NaN compares false both ways: a `delay < 0` check lets it through,
    # and a clamp to zero would run it "now".
    async def scenario():
        runtime = backend()
        fired = []
        with pytest.raises((ValueError, SimulationError)):
            getattr(runtime, verb)(NAN, fired.append, "nan")
        if isinstance(runtime, Simulator):
            runtime.run()
        else:
            await asyncio.sleep(0.03)
        assert fired == []

    _run(scenario())


@pytest.mark.parametrize("transport", ["node", "hub"])
def test_a_nan_pacing_is_refused_by_both_live_transports(transport):
    message = Message("cub:0", "cub:1", Heartbeat(0), 64)

    async def scenario():
        runtime = LiveRuntime()
        shipped = []
        if transport == "node":
            writer = SimpleNamespace(
                is_closing=lambda: False, write=shipped.append
            )
            carrier = NodeTransport(runtime, writer)
        else:
            carrier = HubTransport(SimpleNamespace(route=shipped.append), runtime)
        with pytest.raises(ValueError, match="negative pacing duration"):
            carrier.send_paced(message, NAN)
        await asyncio.sleep(0.03)
        assert shipped == []
        assert runtime.events_dispatched == 0

    _run(scenario())


def test_cancelled_timer_never_fires():
    async def scenario():
        runtime = LiveRuntime()
        fired = []
        timer = runtime.call_after(0.01, fired.append, "no")
        assert timer.active
        timer.cancel()
        assert not timer.active
        await asyncio.sleep(0.04)
        assert fired == []
        assert runtime.events_dispatched == 0

    _run(scenario())


def test_callback_exceptions_are_recorded_not_fatal():
    async def scenario():
        runtime = LiveRuntime()
        fired = []

        def explode():
            raise RuntimeError("boom")

        runtime.call_after(0.0, explode)
        runtime.call_after(0.02, fired.append, "survived")
        await asyncio.sleep(0.08)
        assert fired == ["survived"]
        assert runtime.callback_errors == 1
        (when, name, trace), = runtime.errors
        assert "explode" in name
        assert "boom" in trace

    _run(scenario())


def test_cancel_all_silences_everything():
    async def scenario():
        runtime = LiveRuntime()
        fired = []
        for _ in range(10):
            runtime.call_after(0.01, fired.append, "x")
        runtime.cancel_all()
        await asyncio.sleep(0.04)
        assert fired == []

    _run(scenario())


def test_fired_timers_are_forgotten_and_pending_ones_still_cancelled():
    """Regression: tracking used to drop only *cancelled* timers, so
    every fired one stayed and each ``call_at`` past 512 rebuilt an
    ever-growing list."""
    async def scenario():
        runtime = LiveRuntime()
        fired = []
        for index in range(5000):
            runtime.call_after(0.0, fired.append, index)
        for _ in range(500):
            if len(fired) == 5000:
                break
            await asyncio.sleep(0.01)
        assert len(fired) == 5000
        assert not runtime._timers
        pending = [
            runtime.call_after(30.0, fired.append, "late") for _ in range(600)
        ]
        assert runtime._timers == set(pending)
        runtime.cancel_all()
        assert all(timer.cancelled for timer in pending)
        assert not runtime._timers

    _run(scenario())

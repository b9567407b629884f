"""One frame limit on every hop, one bound on plan work, and fail-fast
on a dead connection (service tier).

Regression tests for connection-poisoning bugs: an answer longer than
the client's line limit used to kill the client's read loop (and,
through the router, the router's shard connection with every forward
on it), after which the next request waited out its timeout on a dead
socket; and a plan with a huge ``m`` used to stall the server's worker
for tens of seconds, or exhaust its memory.
"""

from __future__ import annotations

import asyncio
import json
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterRouter, ShardSpec
from repro.service import PlanClient, PlanRequest, PlanServer, PlanServiceError, framing, plan
from repro.service.framing import encode_id, leading_id
from repro.service.planner import MAX_PLAN_WORK

pytestmark = pytest.mark.service


def run(coro):
    return asyncio.run(coro)


async def started_cluster():
    shards = [PlanServer(port=0, shard_id=sid) for sid in range(2)]
    for shard in shards:
        await shard.start()
    router = ClusterRouter(
        [ShardSpec(sid, "127.0.0.1", s.port) for sid, s in enumerate(shards)],
        port=0,
        probe_interval=3600.0,
    )
    await router.start()
    return shards, router


async def stop_cluster(shards, router):
    await router.shutdown()
    for shard in shards:
        await shard.shutdown()


#: A plan whose answer is still large: the compact form echoes the
#: excluded positions, here a 79 KB answer, over a 64 KiB line.
LARGE = PlanRequest(n=20000, m=1, exclude=tuple(range(1, 15001)))


async def large_plan(client):
    return await client.plan(LARGE.n, LARGE.m, exclude=LARGE.exclude, timeout=30)


async def long_amend(client):
    """An amend whose answer lists its 500 leaving positions twice, in
    the result's ``excluded`` and in the ``"amended"`` echo: about 5 KB
    answering a 3 KB request line."""
    return await client.amend(2000, 1, leave=range(1000, 1500), timeout=5)


class TestFrameLimit:
    def test_large_plan_then_small_on_one_connection(self):
        """A 79 KB answer would exceed the client's old 64 KiB line limit."""

        async def body():
            server = PlanServer(port=0)
            await server.start()
            async with await PlanClient.connect("127.0.0.1", server.port) as client:
                large = await large_plan(client)
                small = await client.plan(8, 2, timeout=5)
            await server.shutdown()
            return large, small

        large, small = run(body())
        assert large == plan(LARGE)
        assert small == plan(PlanRequest(n=8, m=2))

    def test_large_plan_then_small_through_the_router(self):
        async def body():
            shards, router = await started_cluster()
            async with await PlanClient.connect("127.0.0.1", router.port) as client:
                large = await large_plan(client)
                small = await client.plan(8, 2, timeout=5)
            errors = router.errors.value
            await stop_cluster(shards, router)
            return large, small, errors

        large, small, errors = run(body())
        assert large == plan(LARGE)
        assert small == plan(PlanRequest(n=8, m=2))
        assert errors == 0

    def test_over_limit_answer_is_a_typed_error_and_the_connection_lives(self, monkeypatch):
        monkeypatch.setattr(framing, "MAX_FRAME_BYTES", 4096)

        async def body():
            server = PlanServer(port=0)
            await server.start()
            async with await PlanClient.connect("127.0.0.1", server.port) as client:
                with pytest.raises(PlanServiceError) as info:
                    await long_amend(client)
                small = await client.plan(8, 2, timeout=5)
                alive = client.alive
            errors = server.metrics.errors.value
            await server.shutdown()
            return info.value, small, alive, errors

        error, small, alive, errors = run(body())
        assert error.code == "response_too_large"
        assert "4096" in error.message
        assert small == plan(PlanRequest(n=8, m=2))
        assert alive
        assert errors == 1

    def test_over_limit_answer_through_the_router(self, monkeypatch):
        monkeypatch.setattr(framing, "MAX_FRAME_BYTES", 4096)

        async def body():
            shards, router = await started_cluster()
            async with await PlanClient.connect("127.0.0.1", router.port) as client:
                with pytest.raises(PlanServiceError) as info:
                    await long_amend(client)
                small = await client.plan(8, 2, timeout=5)
            # The shard's answer fits, but the router's, carrying a
            # long client id, would not: the router's own check.  The
            # request line is about 4,020 bytes, the answer 4,175.
            reader, writer = await asyncio.open_connection("127.0.0.1", router.port)
            rid = "x" * 3980
            writer.write(json.dumps({"type": "plan", "id": rid, "n": 8, "m": 2}).encode() + b"\n")
            relayed = json.loads(await reader.readline())
            writer.write(b'{"type": "ping", "id": 2}\n')
            pong = json.loads(await reader.readline())
            writer.close()
            failovers = router.failovers.value
            await stop_cluster(shards, router)
            return info.value, small, relayed, rid, pong, failovers

        error, small, relayed, rid, pong, failovers = run(body())
        # Not transient: relayed as-is, no replica hop.
        assert error.code == "response_too_large"
        assert failovers == 0
        assert small == plan(PlanRequest(n=8, m=2))
        assert relayed["id"] == rid
        assert relayed["error"]["code"] == "response_too_large"
        assert pong == {"id": 2, "ok": True, "pong": True}

    @pytest.mark.parametrize("via", ["server", "router"])
    def test_compact_answers_fit_a_small_limit_at_any_n(self, monkeypatch, via):
        """A plan travels compact: 1024 x 32 and its amend fit a 4 KiB
        line, which only an answer echoing kilobytes of excluded
        positions outgrows."""
        monkeypatch.setattr(framing, "MAX_FRAME_BYTES", 4096)

        async def body():
            if via == "server":
                shards, router = [PlanServer(port=0)], None
                await shards[0].start()
                port = shards[0].port
            else:
                shards, router = await started_cluster()
                port = router.port
            async with await PlanClient.connect("127.0.0.1", port) as client:
                large = await client.plan(1024, 32, timeout=30)
                amended = await client.amend(1024, 32, leave=[5, 700], timeout=30)
                with pytest.raises(PlanServiceError) as info:
                    await long_amend(client)
            errors = sum(shard.metrics.errors.value for shard in shards)
            if router is None:
                await shards[0].shutdown()
            else:
                errors += router.errors.value
                await stop_cluster(shards, router)
            return large, amended, info.value, errors

        large, amended, error, errors = run(body())
        assert large == plan(PlanRequest(n=1024, m=32))
        assert amended == plan(PlanRequest(n=1024, m=32, exclude=(5, 700)))
        assert error.code == "response_too_large"
        assert errors == (1 if via == "server" else 2)


class TestWorkBound:
    @pytest.mark.parametrize("via", ["server", "router"])
    def test_oversize_plan_and_amend_are_refused_at_once(self, via):
        """``(n - |exclude|) × m`` over the bound is a ``bad_request``."""
        m = MAX_PLAN_WORK // 64  # plan(64, m) is at the bound; one join passes it

        async def body():
            if via == "server":
                server = PlanServer(port=0, workers=1)
                await server.start()
                port = server.port
            else:
                shards, router = await started_cluster()
                port = router.port
            refusals = []
            async with await PlanClient.connect("127.0.0.1", port) as client:
                for call in (client.plan(64, 100_000, timeout=5), client.amend(64, m, join=1)):
                    started = time.monotonic()
                    with pytest.raises(PlanServiceError) as info:
                        await call
                    refusals.append((info.value, time.monotonic() - started))
                small = await client.plan(8, 2, timeout=5)
            if via == "server":
                planned = server.metrics.plans.value
                await server.shutdown()
            else:
                planned = sum(shard.metrics.plans.value for shard in shards)
                await stop_cluster(shards, router)
            return refusals, small, planned

        refusals, small, planned = run(body())
        for error, elapsed in refusals:
            assert error.code == "bad_request"
            assert str(MAX_PLAN_WORK) in error.message
            assert elapsed < 0.5
        assert small == plan(PlanRequest(n=8, m=2))
        assert planned == 1  # refused before admission


class TestDeadConnection:
    def test_request_on_a_dead_connection_fails_at_once(self):
        async def body():
            server = PlanServer(port=0)
            await server.start()
            client = await PlanClient.connect("127.0.0.1", server.port)
            await client.plan(8, 2, timeout=5)
            await server.shutdown()
            for _ in range(200):
                if not client.alive:
                    break
                await asyncio.sleep(0.01)
            started = time.monotonic()
            with pytest.raises(ConnectionError):
                await client.plan(8, 2, timeout=10)
            elapsed = time.monotonic() - started
            await client.close()
            return elapsed

        assert run(body()) < 1.0


class TestIdFirstFraming:
    @pytest.mark.parametrize(
        "raw, expected",
        [
            (b'{"id":12,"ok":true}\n', (12, 8)),
            (b'{"id":0,"ok":false}\n', (0, 7)),
            (b'{"id":-1,"ok":true}\n', (None, 0)),
            (b'{"id":"12","ok":true}\n', (None, 0)),
            (b'{"id":null,"ok":true}\n', (None, 0)),
            (b'{"ok":true,"id":12}\n', (None, 0)),
            (b'{"id": 12, "ok": true}\n', (None, 0)),
            (b'{"id":12}\n', (None, 0)),
            (b'{"id":' + b"9" * 40 + b',"ok":true}\n', (None, 0)),
        ],
    )
    def test_leading_id(self, raw, expected):
        assert leading_id(raw) == expected

    @pytest.mark.parametrize("rid", [0, -7, 2**70, True, None, 1.5, "é☃", [1, {"a": "ü"}]])
    def test_encode_id_matches_json(self, rid):
        assert encode_id(rid) == json.dumps(rid, separators=(",", ":")).encode()


class FakeTransport:
    """Records what a :class:`LineProtocol` writes and how it flow-controls.

    With ``high_water`` set, a write that leaves more than that many
    bytes unsent pauses the protocol's writing, as a socket transport
    does; :meth:`drain` sends everything and resumes it.
    """

    def __init__(self, high_water=None) -> None:
        self.protocol = None
        self.written = []
        self.unsent = 0
        self.high_water = high_water
        self.reading_paused = False
        self.writing_paused = False
        self.closed = False

    def write(self, data: bytes) -> None:
        assert not self.closed
        self.written.append(data)
        self.unsent += len(data)
        if self.high_water is not None and self.unsent > self.high_water and not self.writing_paused:
            self.writing_paused = True
            self.protocol.pause_writing()

    def drain(self) -> None:
        self.unsent = 0
        if self.writing_paused:
            self.writing_paused = False
            self.protocol.resume_writing()

    def is_closing(self) -> bool:
        return self.closed

    def close(self) -> None:
        self.closed = True

    def pause_reading(self) -> None:
        self.reading_paused = True

    def resume_reading(self) -> None:
        self.reading_paused = False


#: The frame limit of the framer property: short enough for lines to
#: cross it, long enough for every request line below.
LIMIT = 64

REQUEST_LINES = st.one_of(
    st.integers(0, 999).map(lambda i: b'{"type":"plan","id":%d,"n":8,"m":2}\n' % i),
    st.integers(0, 999).map(
        lambda i: b'{"type":"amend","id":%d,"n":8,"m":2,"delta":{"join":1}}\n' % i
    ),
    st.integers(0, 999).map(lambda i: b'{"type":"ping","id":%d}\n' % i),
    st.sampled_from([b"\n", b"   \n", b"\t\r\n", b"not json\n", b"[1, 2]\n", b'"text"\n']),
    # Around the limit: a line of LIMIT bytes fits, LIMIT + 1 does not.
    st.integers(LIMIT - 2, LIMIT + 1).map(lambda size: b"x" * (size - 1) + b"\n"),
)


def answer_of(line: bytes):
    """The stand-in owner: amends are answered later, the rest at once."""
    return None if b'"amend"' in line else b"<" + line


def expected(lines, tail: bytes):
    """The handled lines and written bytes the frame rules give."""
    handled, written = [], []
    for line in lines:
        if len(line) > LIMIT:
            return handled, b"".join(written) + framing.TOO_LONG_ANSWER, True
        if not line.isspace():
            handled.append(line)
            if answer_of(line) is not None:
                written.append(answer_of(line))
    if len(tail) >= LIMIT:
        return handled, b"".join(written) + framing.TOO_LONG_ANSWER, True
    if tail and not tail.isspace():
        handled.append(tail)
        written.append(answer_of(tail) or b"")
    return handled, b"".join(written), False


async def feed(chunks, high_water):
    """Feed ``chunks`` to a framer as a socket would, then end the stream."""
    handled = []

    def on_line(line, connection):
        handled.append(line)
        return answer_of(line)

    with mock.patch.object(framing, "MAX_FRAME_BYTES", LIMIT):
        connection = framing.LineProtocol(on_line)
        transport = FakeTransport(high_water)
        transport.protocol = connection
        connection.connection_made(transport)

    async def readable():
        """Wait, as the selector would, until the framer reads again."""
        while transport.reading_paused and not transport.closed:
            transport.drain()
            await asyncio.sleep(0)

    for chunk in chunks:
        await readable()
        if transport.closed:
            break
        connection.data_received(chunk)
    await readable()
    if not transport.closed:
        connection.eof_received()
    return handled, b"".join(transport.written), transport.closed


class TestLineProtocol:
    @settings(max_examples=150, deadline=None)
    @given(
        lines=st.lists(REQUEST_LINES, max_size=90),
        tail=st.sampled_from([b"", b"  ", b'{"type":"ping","id":"t"}', b"y" * LIMIT]),
        cuts=st.lists(st.integers(0, 6000), max_size=12),
        high_water=st.sampled_from([None, 1, 200]),
    )
    def test_any_split_of_a_stream_is_framed_alike(self, lines, tail, cuts, high_water):
        """However the stream is cut into received chunks, and whatever
        the peer's reading does to the framer's writes, the same lines
        reach the owner and the same bytes go out as the frame rules
        give for the whole stream."""
        stream = b"".join(lines) + tail
        bounds = sorted({0, len(stream), *(c for c in cuts if c < len(stream))})
        chunks = [stream[a:b] for a, b in zip(bounds, bounds[1:])]
        whole = asyncio.run(feed([stream] if stream else [], None))
        split = asyncio.run(feed(chunks, high_water))
        assert split == whole == expected(lines, tail)

    def test_a_callback_hands_over_at_most_its_budget(self):
        """A pipelined chunk past the budget is handled over several
        loop passes, with reading paused in between."""
        passes = []

        async def body():
            lines = [b'{"type":"ping","id":%d}\n' % i for i in range(100)]
            handled = []
            connection = framing.LineProtocol(
                lambda line, conn: handled.append(line) or b"<" + line
            )
            transport = FakeTransport()
            transport.protocol = connection
            connection.connection_made(transport)
            connection.data_received(b"".join(lines))
            while True:
                passes.append((len(handled), transport.reading_paused))
                if not transport.reading_paused:
                    break
                await asyncio.sleep(0)
            return handled == lines, len(transport.written)

        same, writes = asyncio.run(body())
        assert same
        budget = framing.LINES_PER_CALLBACK
        assert passes == [(budget, True), (2 * budget, True), (3 * budget, True), (100, False)]
        assert writes == 4


    def test_write_soon_sends_one_loop_pass_in_one_write(self):
        async def body():
            connection = framing.LineProtocol(lambda line, conn: None)
            transport = FakeTransport()
            transport.protocol = connection
            connection.connection_made(transport)
            connection.write_soon(b"a\n")
            connection.write_soon(b"b\n")
            before = list(transport.written)
            await asyncio.sleep(0)
            connection.write_soon(b"c\n")
            transport.close()  # lines queued on a closing connection are dropped
            await asyncio.sleep(0)
            return before, transport.written

        before, written = asyncio.run(body())
        assert before == []
        assert written == [b"a\nb\n"]


async def exchange(port: int, data: bytes):
    """Send ``data`` on a fresh connection; read answers until it closes."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=2**25)
    writer.write(data)
    await writer.drain()
    answers = []
    while True:
        line = await asyncio.wait_for(reader.readline(), 30)
        if not line:
            break
        answers.append(line)
        if data.count(b"\n") == len(answers):
            break  # everything answered and the connection still open
    writer.close()
    return answers


def padded_ping(size: int, rid) -> bytes:
    """A ping request line of exactly ``size`` bytes, newline included."""
    head = b'{"type":"ping","id":%s,"pad":"' % json.dumps(rid).encode()
    return head + b"p" * (size - len(head) - 3) + b'"}\n'


class TestFrameBoundary:
    """A request line of exactly the frame limit is answered; one byte
    more is refused with one ``bad_request`` and the connection closes,
    the lines after it unanswered."""

    @pytest.mark.parametrize(
        "via, limit",
        [("server", framing.MAX_FRAME_BYTES), ("server", 4096), ("router", 4096)],
    )
    def test_frame_limit_boundary(self, monkeypatch, via, limit):
        monkeypatch.setattr(framing, "MAX_FRAME_BYTES", limit)

        async def body():
            if via == "server":
                server = PlanServer(port=0)
                await server.start()
                port = server.port
            else:
                shards, router = await started_cluster()
                port = router.port
            fits = await exchange(port, padded_ping(limit, 1) + b'{"type":"ping","id":2}\n')
            over = await exchange(
                port, padded_ping(limit + 1, 3) + b'{"type":"ping","id":4}\n'
            )
            if via == "server":
                await server.shutdown()
            else:
                await stop_cluster(shards, router)
            return fits, over

        fits, over = run(body())
        assert [json.loads(line) for line in fits] == [
            {"id": 1, "ok": True, "pong": True},
            {"id": 2, "ok": True, "pong": True},
        ]
        assert over == [framing.TOO_LONG_ANSWER]
        assert json.loads(over[0])["error"] == {
            "code": "bad_request",
            "message": "request line too long",
        }

"""The JSON-lines frame shared by every plan-service connection.

Three rules hold on every hop — client to server, client to router,
router to shard:

* **One frame limit.**  Every reader (``PlanServer`` and
  ``ClusterRouter`` reading requests, ``PlanClient`` reading answers)
  accepts lines up to :data:`MAX_FRAME_BYTES`, newline included, and
  every writer keeps its lines within it: an answer that would not fit
  goes out as a ``response_too_large`` error instead, so an oversize
  plan never kills a connection or the requests pipelined behind it.
  A request line one byte longer is answered :data:`TOO_LONG_ANSWER`,
  and the connection closes.
* **Id first.**  Every answer line begins ``{"id":<id>,``.  A reader
  routes a line by that prefix without decoding the rest
  (:func:`leading_id`), and a writer puts a waiter's id in front of a
  body encoded once (:func:`encode_id`): single-flight waiters share
  one encoded plan, and the router relays a shard's plan bytes with
  only the id swapped.
* **One reader.**  :class:`LineProtocol` is every connection's
  ``asyncio.Protocol``: it splits each received chunk into lines,
  hands every complete line to its owner in the read callback, and
  sends the answers the owner returns for one chunk with one
  ``transport.write``.  An answer that is not ready then (a cold plan,
  a failed-over forward) goes out later through :meth:`LineProtocol.write`;
  lines produced on behalf of another connection (a relayed answer, a
  forwarded request) go out with :meth:`LineProtocol.write_soon`, one
  send per loop pass.  No task, future or lock stands between a
  received line and its answer.
"""

from __future__ import annotations

import asyncio
import json
from typing import Callable, Optional, Set, Tuple

__all__ = [
    "ID_PREFIX",
    "LINES_PER_CALLBACK",
    "LineProtocol",
    "MAX_FRAME_BYTES",
    "TOO_LONG_ANSWER",
    "encode_id",
    "leading_id",
]

#: Longest line, newline included, any plan-service reader accepts and
#: any writer sends.  A plan answer grows only with the positions it
#: excludes: the largest the default ``max_n`` (65536) admits, an amend
#: whose result and echo each list 65,534 of them, is about 0.8 MB, so
#: it fits.  A connection reads it when it opens.
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: Lines one read callback hands to its owner.  The rest of a larger
#: pipelined chunk waits, with the connection's reading paused, until
#: the event loop has served every other ready connection once.
LINES_PER_CALLBACK = 32

#: How every answer line begins.
ID_PREFIX = b'{"id":'

#: The answer to a request line over the frame limit (the connection
#: then closes: the rest of its stream cannot be framed).
TOO_LONG_ANSWER = (
    json.dumps(
        {
            "id": None,
            "ok": False,
            "error": {"code": "bad_request", "message": "request line too long"},
        },
        separators=(",", ":"),
    ).encode()
    + b"\n"
)

#: A leading integer id longer than this is left to the full parse.
_MAX_ID_DIGITS = 32


def encode_id(request_id) -> bytes:
    """``request_id`` exactly as ``json.dumps`` writes it inside an answer."""
    if type(request_id) is int:  # not bool: json spells True as true
        return b"%d" % request_id
    return json.dumps(request_id, separators=(",", ":")).encode()


def leading_id(line: bytes) -> Tuple[Optional[int], int]:
    """``(id, end)`` of a line that begins ``{"id":<int>,``.

    ``line[end]`` is the comma after the id, so ``line[end:]`` is the
    rest of the answer.  Any other line gives ``(None, 0)`` and needs a
    full parse.
    """
    start = len(ID_PREFIX)
    end = line.find(b",", start, start + _MAX_ID_DIGITS + 1)
    if end > start and line.startswith(ID_PREFIX) and line[start:end].isdigit():
        return int(line[start:end]), end
    return None, 0


class LineProtocol(asyncio.Protocol):
    """One connection of the line protocol, as its ``asyncio.Protocol``.

    ``on_line(line, connection)`` is called with every complete,
    non-blank line (newline included), in order, from the read
    callback, and returns the line's answer or ``None`` when the answer
    comes later through :meth:`write`.  At most
    :data:`LINES_PER_CALLBACK` lines are handled per callback; the
    answers of one callback go out in one ``transport.write``.  A line
    of at most :data:`MAX_FRAME_BYTES` bytes is accepted; a longer one
    gets :attr:`too_long_answer` and the connection closes, with
    :attr:`error` saying why.  A last line without its newline is
    handled at end of stream.

    A serving side stops reading while its peer does not read its
    answers (``pause_writing``), as ``await drain()`` did.  ``peers``,
    if given, holds the connection while it is open.
    """

    #: Written before closing on an over-long line.
    too_long_answer: Optional[bytes] = TOO_LONG_ANSWER

    def __init__(
        self,
        on_line: Callable[[bytes, "LineProtocol"], Optional[bytes]],
        peers: Optional[Set["LineProtocol"]] = None,
    ) -> None:
        self._on_line = on_line
        self._peers = peers
        self.transport: Optional[asyncio.Transport] = None
        #: Why the connection was closed from this side, if it was.
        self.error: Optional[Exception] = None
        self._limit = MAX_FRAME_BYTES
        # The start of a line whose newline has not arrived yet.
        self._tail = bytearray()
        # ``(chunk, offset)`` of lines past the callback's budget.
        self._held: Optional[Tuple[bytes, int]] = None
        self._writing_paused = False
        # Lines :meth:`write_soon` collected for this loop pass.
        self._soon: Optional[list] = None

    # -- asyncio callbacks -------------------------------------------------
    def connection_made(self, transport) -> None:
        self.transport = transport
        self._limit = MAX_FRAME_BYTES
        if self._peers is not None:
            self._peers.add(self)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.transport = None
        self._held = None
        if self._peers is not None:
            self._peers.discard(self)

    def data_received(self, data: bytes) -> None:
        if self._held is None:
            self._split(data, 0)
        else:  # lines still wait their turn; keep the order
            held, offset = self._held
            self._held = (held[offset:] + data, 0)

    def eof_received(self) -> bool:
        tail = self._tail
        if tail and not tail.isspace() and self._held is None:
            self._tail = bytearray()
            answer = self._on_line(bytes(tail), self)
            if answer is not None:
                self.write(answer)
        return False  # close the connection once its answers are out

    def pause_writing(self) -> None:
        self._writing_paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self._writing_paused = False
        if self._held is None:
            self.transport.resume_reading()
        else:
            asyncio.get_running_loop().call_soon(self._release)

    # -- owner API -----------------------------------------------------------
    def write(self, data: bytes) -> None:
        """Send ``data`` unless the connection is closing."""
        transport = self.transport
        if transport is not None and not transport.is_closing():
            transport.write(data)

    def write_soon(self, data: bytes) -> None:
        """Send ``data`` with everything else written this way in the
        same loop pass, in one :meth:`write` once the pass is over.

        For lines another connection's read callback produces, one
        callback often many of them (a router's relayed answers and
        forwarded requests, a client's pipelined requests): one send
        per pass instead of one per line.
        """
        if self._soon is None:
            self._soon = []
            asyncio.get_running_loop().call_soon(self._write_soon_lines)
        self._soon.append(data)

    def _write_soon_lines(self) -> None:
        lines, self._soon = self._soon, None
        self.write(b"".join(lines))

    def close(self) -> None:
        """Close after the buffered answers are sent."""
        if self.transport is not None:
            self.transport.close()

    # -- framing ---------------------------------------------------------------
    def _split(self, data: bytes, offset: int) -> None:
        """Hand ``data[offset:]``'s complete lines to the owner, within budget."""
        answers = []
        tail = self._tail
        limit = self._limit
        budget = LINES_PER_CALLBACK
        while True:
            end = data.find(b"\n", offset) + 1
            if not end:
                break
            if not budget:
                self._hold(data, offset)
                break
            budget -= 1
            if tail:
                tail += data[offset:end]
                line = bytes(tail)
                tail.clear()
            else:
                line = data[offset:end]
            offset = end
            if len(line) > limit:
                self._refuse(answers)
                return
            if not line.isspace():
                answer = self._on_line(line, self)
                if answer is not None:
                    answers.append(answer)
        if self._held is None and offset < len(data):
            if len(tail) + len(data) - offset >= limit:  # no room left for its newline
                self._refuse(answers)
                return
            tail += data[offset:]
        if answers:
            self.write(answers[0] if len(answers) == 1 else b"".join(answers))

    def _hold(self, data: bytes, offset: int) -> None:
        self._held = (data, offset)
        self.transport.pause_reading()
        if not self._writing_paused:
            asyncio.get_running_loop().call_soon(self._release)

    def _release(self) -> None:
        """Go on with the held lines, after the loop served the others."""
        if self._held is None or self._writing_paused or self.transport is None:
            return
        data, offset = self._held
        self._held = None
        self._split(data, offset)
        if self._held is None and not self._writing_paused and self.transport is not None:
            self.transport.resume_reading()

    def _refuse(self, answers: list) -> None:
        """Close on a line over the frame limit, answering what came before it."""
        self.error = ConnectionError(f"a line is over the {self._limit}-byte frame limit")
        if self.too_long_answer is not None:
            answers.append(self.too_long_answer)
        if answers:
            self.write(b"".join(answers))
        self._tail = bytearray()
        self.close()

"""The JSON-lines frame shared by every plan-service connection.

Two rules hold on every hop — client to server, client to router,
router to shard:

* **One frame limit.**  Every reader (``PlanServer`` and
  ``ClusterRouter`` reading requests, ``PlanClient`` reading answers)
  accepts lines up to :data:`MAX_FRAME_BYTES`, and every writer keeps
  its lines within it: an answer that would not fit goes out as a
  ``response_too_large`` error instead, so an oversize plan never
  kills a connection or the requests pipelined behind it.
* **Id first.**  Every answer line begins ``{"id":<id>,``.  A reader
  routes a line by that prefix without decoding the rest
  (:func:`leading_id`), and a writer puts a waiter's id in front of a
  body encoded once (:func:`encode_id`): single-flight waiters share
  one encoded plan, and the router relays a shard's plan bytes with
  only the id swapped.
"""

from __future__ import annotations

import json
from typing import Optional, Tuple

__all__ = ["ID_PREFIX", "MAX_FRAME_BYTES", "encode_id", "leading_id"]

#: Longest line, newline included, any plan-service reader accepts and
#: any writer sends.  The largest plan the default ``max_n`` (65536)
#: admits encodes to about 7 MB, so it fits.
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: How every answer line begins.
ID_PREFIX = b'{"id":'

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

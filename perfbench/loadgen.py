"""Load generation against a running daemon over at most two connections.

Open loop: the schedule fixes when each request is *due*; request ``i``
goes out on connection ``i % 2`` from a sender thread that sleeps until
the due time and never waits for replies (the protocol pipelines, so a
stall shows as queueing).  A reader thread per connection timestamps
each reply.  Latency is measured from the due time, so a stall counts
against every request it delays; ``late_ms`` records how far behind the
schedule the sender itself ran.

Closed loop: each of two connections sends its next request only after
the previous reply arrived, for a fixed time; completed requests per
second is the capacity.

Frames are pre-encoded by :mod:`inputs`.  Replies are only read and
timestamped while a loop runs, and parsed after it ends, so decoding
one reply never holds the interpreter lock while another reply's
timestamp is due; the caller checks them after the timed phase.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from dataclasses import dataclass

CONNECTIONS = 2
SOCKET_TIMEOUT = 30.0


@dataclass
class Sample:
    request: object
    due: float
    sent: float = 0.0
    received: float = 0.0
    response: dict | None = None

    @property
    def latency_ms(self) -> float:
        return (self.received - self.due) * 1000.0

    @property
    def late_ms(self) -> float:
        return (self.sent - self.due) * 1000.0


def _connect(host: str, port: int):
    sock = socket.create_connection((host, port), timeout=SOCKET_TIMEOUT)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    reader = sock.makefile("rb")
    sock.sendall(b'{"id":"hello","type":"hello","version":1}\n')
    reply = json.loads(reader.readline())
    if not reply.get("ok"):
        raise RuntimeError(f"handshake refused: {reply}")
    return sock, reader


def _read_replies(reader, replies: list, count: int) -> None:
    for _ in range(count):
        try:
            line = reader.readline()
        except OSError:
            return
        if not line:
            return
        replies.append((time.perf_counter(), line))


def one_by_one(host: str, port: int, frames) -> list[tuple]:
    """Send *frames* in order on one connection, each after the previous
    reply; returns ``(reply, round-trip seconds)`` pairs."""
    sock, reader = _connect(host, port)
    replies = []
    try:
        for frame in frames:
            start = time.perf_counter()
            sock.sendall(frame)
            line = reader.readline()
            replies.append((json.loads(line) if line else None,
                            time.perf_counter() - start))
    finally:
        reader.close()
        sock.close()
    return replies


def open_loop(host: str, port: int, requests) -> list[Sample]:
    """Send *requests* on their schedule (``request.due`` seconds,
    counted from the first request's) and return one sample each."""
    conns = [_connect(host, port) for _ in range(CONNECTIONS)]
    start = time.perf_counter() + 0.05 - requests[0].due
    lanes = [[Sample(r, start + r.due) for r in requests[k::CONNECTIONS]]
             for k in range(CONNECTIONS)]

    def send(sock, samples):
        for sample in samples:
            delay = sample.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sample.sent = time.perf_counter()
            try:
                sock.sendall(sample.request.frame)
            except OSError:
                return

    # (receive time, raw reply) per connection
    replies: list[list[tuple[float, bytes]]] = [[] for _ in conns]
    threads = []
    try:
        for (sock, reader), samples, got in zip(conns, lanes, replies):
            threads.append(threading.Thread(
                target=send, args=(sock, samples)))
            threads.append(threading.Thread(
                target=_read_replies, args=(reader, got, len(samples))))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        for sock, reader in conns:
            reader.close()
            sock.close()
    by_id = {s.request.rid: s for lane in lanes for s in lane}
    for received, line in (pair for got in replies for pair in got):
        response = json.loads(line)
        sample = by_id.get(response.get("id"))
        if sample is not None:
            sample.received = received
            sample.response = response
    return [sample for lane in lanes for sample in lane]


def closed_loop(host: str, port: int, requests,
                seconds: float) -> tuple[list[Sample], float]:
    """Two connections each send their next request (cycling through
    *requests*) as soon as the previous reply arrives, for *seconds*.
    Returns the samples and the measured interval."""
    conns = [_connect(host, port) for _ in range(CONNECTIONS)]
    lanes: list[list[tuple[Sample, bytes]]] = [
        [] for _ in range(CONNECTIONS)]
    start = time.perf_counter()
    stop_at = start + seconds

    def drive(k: int) -> None:
        sock, reader = conns[k]
        mine = requests[k::CONNECTIONS]
        i = 0
        while time.perf_counter() < stop_at:
            sample = Sample(mine[i % len(mine)], time.perf_counter())
            sample.sent = sample.due
            i += 1
            try:
                sock.sendall(sample.request.frame)
                line = reader.readline()
            except OSError:
                lanes[k].append((sample, b""))
                return
            sample.received = time.perf_counter()
            lanes[k].append((sample, line))
            if not line:
                return

    threads = [threading.Thread(target=drive, args=(k,))
               for k in range(CONNECTIONS)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        for sock, reader in conns:
            reader.close()
            sock.close()
    elapsed = time.perf_counter() - start
    for lane in lanes:
        for sample, line in lane:
            if line:
                sample.response = json.loads(line)
    return [sample for lane in lanes for sample, _ in lane], elapsed

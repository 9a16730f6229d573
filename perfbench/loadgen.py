"""Single-threaded wire load generator and server-process handling.

One TCP connection, one thread.  A ``select`` loop interleaves sends
and receives, so no second Python thread competes with the sender for
the interpreter lock and delays a due send.  Every frame to send is
encoded before the clock starts; replies are kept as raw bytes with
the ``perf_counter`` instant their last byte arrived, and are decoded
only after the run.  ``perf_counter`` is ``CLOCK_MONOTONIC``, so these
instants line up with the spans a traced server records.

The ingress sequencer keeps per-connection FIFO, so the server applies
the frames in exactly the order they were sent and the n-th reply
answers the n-th frame.
"""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import struct
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HEADER = struct.Struct(">I")
CLK_TCK = os.sysconf("SC_CLK_TCK")


class BenchError(RuntimeError):
    """The run cannot produce trustworthy figures."""


@dataclass
class Connection:
    """A blocking socket driven by ``select``; counts whole reply
    frames as they complete and stamps each with its arrival time."""

    sock: socket.socket
    raw: bytearray = field(default_factory=bytearray)
    received_at: list = field(default_factory=list)
    """``perf_counter`` instant at which reply frame i completed."""
    _scan: int = 0

    @classmethod
    def open(cls, port: int, timeout: float) -> "Connection":
        sock = socket.create_connection(("127.0.0.1", port),
                                        timeout=timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = cls(sock)
        deadline = perf_counter() + timeout
        while conn.frames < 1:  # the server's welcome frame
            conn.pump(deadline - perf_counter())
            if perf_counter() > deadline:
                raise BenchError("no welcome frame from the server")
        return conn

    @property
    def frames(self) -> int:
        return len(self.received_at)

    def pump(self, timeout: float) -> None:
        """Wait up to ``timeout`` seconds for bytes; read what came."""
        readable, _, _ = select.select([self.sock], [], [],
                                       max(timeout, 0.0))
        if not readable:
            return
        data = self.sock.recv(1 << 16)
        now = perf_counter()
        if not data:
            raise BenchError("server closed the connection")
        raw = self.raw
        raw += data
        scan, end = self._scan, len(raw)
        while end - scan >= 4:
            (length,) = HEADER.unpack_from(raw, scan)
            if end - scan - 4 < length:
                break
            scan += 4 + length
            self.received_at.append(now)
        self._scan = scan

    def send(self, frame: bytes) -> None:
        self.sock.sendall(frame)

    def payloads(self) -> list[dict]:
        """Decode every complete reply frame received so far."""
        out, raw, pos = [], bytes(self.raw), 0
        for _ in range(self.frames):
            (length,) = HEADER.unpack_from(raw, pos)
            out.append(json.loads(raw[pos + 4:pos + 4 + length]))
            pos += 4 + length
        return out

    def close(self) -> None:
        self.sock.close()


def closed_loop(conn: Connection, frames: list[bytes], window: int,
                stop_at: float | None, timeout: float) -> list[float]:
    """Keep ``window`` requests in flight.  Sends until ``frames`` run
    out or the clock passes ``stop_at``, then waits for every reply.
    Returns the send instants (taken just before each send: on two
    cores the wakeup a send causes can deschedule the sender)."""
    sent_at: list[float] = []
    base = conn.frames
    index, total = 0, len(frames)
    deadline = perf_counter() + timeout
    while True:
        now = perf_counter()
        open_ = stop_at is None or now < stop_at
        while open_ and index < total \
                and index - (conn.frames - base) < window:
            sent_at.append(perf_counter())
            conn.send(frames[index])
            index += 1
        if conn.frames - base >= index \
                and (index == total or not open_):
            return sent_at
        if now > deadline:
            raise BenchError(f"{index - (conn.frames - base)} replies "
                             f"missing after {timeout:.0f}s")
        wait = 0.05 if stop_at is None else min(0.05, stop_at - now)
        conn.pump(wait)


def open_loop(conn: Connection, frames: list[bytes], due: list[float],
              timeout: float) -> list[float]:
    """Send frame i at instant ``due[i]`` whatever the replies do,
    then wait for every reply.  Returns the send instants."""
    sent_at: list[float] = []
    base = conn.frames
    index, total = 0, len(frames)
    while index < total:
        now = perf_counter()
        if now >= due[index]:
            sent_at.append(now)
            conn.send(frames[index])
            index += 1
            continue
        conn.pump(due[index] - now)
    deadline = perf_counter() + timeout
    while conn.frames - base < total:
        if perf_counter() > deadline:
            raise BenchError(f"{total - (conn.frames - base)} replies "
                             f"missing after {timeout:.0f}s")
        conn.pump(0.05)
    return sent_at


def steal_seconds() -> float:
    """CPU time the hypervisor gave to other guests, summed over this
    machine's CPUs (``/proc/stat``)."""
    fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
    return int(fields[8]) / CLK_TCK


class ServerProcess:
    """One ``repro serve`` child: spawn, find its port, stop, reap."""

    def __init__(self, argv: list[str], workdir: Path, env: dict,
                 cwd: Path) -> None:
        self.workdir = workdir
        workdir.mkdir(parents=True)
        self.port_file = workdir / "port"
        self.log = (workdir / "server.log").open("wb")
        self.spawned = perf_counter()
        self.proc = subprocess.Popen(
            argv + ["--port-file", str(self.port_file)],
            cwd=cwd, env=env, stdout=self.log,
            stderr=subprocess.STDOUT)
        self.rusage = None
        self.returncode: int | None = None

    def wait_port(self, timeout: float) -> int:
        deadline = perf_counter() + timeout
        while perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise BenchError("server died on boot:\n" + self.tail())
            try:
                text = self.port_file.read_text()
            except FileNotFoundError:
                text = ""
            if text.endswith("\n"):
                return int(text)
            time.sleep(0.005)
        raise BenchError(f"server published no port in {timeout:.0f}s")

    def cpu_seconds(self) -> float:
        """User + system CPU of the server so far (``/proc`` ticks)."""
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLK_TCK

    def stop(self, timeout: float) -> int:
        """SIGTERM (graceful drain), then reap with ``wait4`` so the
        peak RSS is known.  Kills the child if it overstays."""
        if self.returncode is not None:
            return self.returncode
        self.proc.send_signal(signal.SIGTERM)
        deadline = perf_counter() + timeout
        while perf_counter() < deadline:
            pid, status, rusage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self._reaped(status, rusage)
                return self.returncode
            time.sleep(0.01)
        self.kill()
        raise BenchError(f"server did not drain within {timeout:.0f}s")

    def kill(self) -> None:
        """Stop the child if it still runs, and reap it."""
        if self.returncode is None:
            self.proc.kill()  # a no-op once ``poll`` has reaped it
            self.returncode = self.proc.wait()
            self.log.close()

    def _reaped(self, status: int, rusage) -> None:
        self.rusage = rusage
        self.returncode = os.waitstatus_to_exitcode(status)
        self.proc.returncode = self.returncode
        self.log.close()

    def tail(self, lines: int = 20) -> str:
        self.log.flush()
        text = (self.workdir / "server.log").read_text(errors="replace")
        return "\n".join(text.splitlines()[-lines:])

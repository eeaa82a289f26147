"""The load generator's side of the wire: a lean protocol connection
and the ``python -m repro serve`` subprocess it talks to.

The generator speaks the real version-1 protocol through the repo's
own codec (``encode_frame``/``decode_frame``, the RFC 6455 helpers) but
not through :class:`repro.server.client.ServerClient`: push frames are
encoded during set-up and written as bytes, and every inbound frame is
stamped the moment its read returns — the generator's own cost must not
sit on the measured path.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Optional

from repro.server import ws as wslib
from repro.server.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    decode_frame,
    encode_frame,
    event_to_wire,
)

import measure

SRC = Path(__file__).resolve().parents[2] / "src"
HOST = "127.0.0.1"


def frame_bytes(frame: dict, transport: str) -> bytes:
    """One request frame as the bytes that go on the socket."""
    payload = encode_frame(frame)
    if transport == "ws":
        return wslib.encode_ws_frame(wslib.OP_TEXT, payload.rstrip(b"\n"),
                                     mask=True)
    return payload


def push_frame(rid: int, events, transport: str) -> bytes:
    return frame_bytes(
        {"type": "push_many", "id": rid,
         "events": [event_to_wire(event) for event in events]},
        transport)


class Conn:
    """One protocol connection.  Responses to :meth:`request` resolve by
    ``id``; every other frame goes to ``on_frame(frame, recv_ns)``."""

    def __init__(self, reader, writer, transport: str) -> None:
        self.reader = reader
        self.writer = writer
        self.transport = transport
        self.on_frame: Optional[Callable[[dict, int], None]] = None
        self.bytes_in = 0
        self._pending: dict = {}
        self._next_id = 1_000_000_000   # clear of chunk-index ids
        self._task = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def open(cls, port: int, transport: str) -> "Conn":
        reader, writer = await asyncio.open_connection(
            HOST, port, limit=MAX_FRAME_BYTES + 1024)
        if transport == "ws":
            await wslib.client_handshake(reader, writer, f"{HOST}:{port}")
        return cls(reader, writer, transport)

    async def _recv_raw(self) -> Optional[bytes]:
        if self.transport == "ws":
            return await wslib.read_ws_message(
                self.reader, self.writer, require_mask=False)
        line = await self.reader.readline()
        return line or None

    async def _read_loop(self) -> None:
        try:
            while True:
                raw = await self._recv_raw()
                if raw is None:
                    break
                stamp = time.perf_counter_ns()
                self.bytes_in += len(raw)
                frame = decode_frame(raw)
                future = self._pending.pop(frame.get("id"), None)
                if future is not None:
                    future.set_result(frame)
                elif self.on_frame is not None:
                    self.on_frame(frame, stamp)
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass
        finally:
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(
                        ConnectionError("server closed the connection"))
            self._pending.clear()

    def write(self, payload: bytes) -> None:
        self.writer.write(payload)

    async def request(self, frame: dict, timeout: float = 30.0) -> dict:
        self._next_id += 1
        frame["id"] = self._next_id
        future = asyncio.get_running_loop().create_future()
        self._pending[self._next_id] = future
        self.write(frame_bytes(frame, self.transport))
        response = await asyncio.wait_for(future, timeout)
        if response["type"] == "error":
            raise RuntimeError(f"server error [{response.get('code')}] "
                               f"{response.get('message')}")
        return response

    async def hello(self, label: str) -> dict:
        return await self.request({"type": "hello",
                                   "version": PROTOCOL_VERSION,
                                   "client": label})

    def abort(self) -> None:
        """Abrupt drop: no unsubscribe, no close handshake."""
        self._task.cancel()
        self.writer.transport.abort()

    async def close(self) -> None:
        self._task.cancel()
        try:
            await self._task
        except (asyncio.CancelledError, ConnectionError, OSError):
            pass
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class Server:
    """One ``python -m repro serve`` subprocess on an ephemeral port."""

    def __init__(self, transport: str, *, wal_dir: Optional[Path] = None,
                 checkpoint_every: int = 0, slack: Optional[float] = None,
                 cpu: Optional[int] = None) -> None:
        self.transport = transport
        self.cpu = cpu
        self.args = [sys.executable, "-m", "repro", "serve",
                     "--engine", "sequential",
                     f"--{transport}", f"{HOST}:0"]
        if slack is not None:
            self.args += ["--slack", str(slack)]
        if wal_dir is not None:
            self.args += ["--wal", str(wal_dir), "--wal-fsync", "batch",
                          "--checkpoint-every", str(checkpoint_every)]
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.banner: list[str] = []

    @property
    def pid(self) -> int:
        return self.proc.pid

    def start(self, timeout: float = 60.0) -> int:
        """Spawn and block until the listener line appears; returns the
        port.  (With ``--wal`` over a crashed directory the recovery
        runs before the listener opens, so this wait *is* the restart.)
        """
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.proc = subprocess.Popen(
            self.args, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env)
        measure.pin_to_cpu(self.proc.pid, self.cpu)
        deadline = time.monotonic() + timeout
        marker = f"serving {self.transport} on "
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            self.banner.append(line.rstrip())
            if line.startswith(marker):
                self.port = int(line.rsplit(":", 1)[1])
                return self.port
        self.kill()
        raise RuntimeError("server did not start:\n"
                           + "\n".join(self.banner))

    def cpu_seconds(self) -> float:
        return measure.proc_cpu_seconds(self.pid)

    def status_mb(self, key: str) -> float:
        return measure.proc_status_mb(self.pid, key)

    def kill(self) -> None:
        """SIGKILL and reap (idempotent)."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()
        self.proc.stdout.close()
        self.proc = None

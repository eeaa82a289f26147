"""TCP transport: newline-delimited JSON over a plain socket.

The simplest way to talk to the server — one JSON object per line,
both directions::

    $ printf '%s\n%s\n' \
        '{"type":"hello","version":1}' \
        '{"type":"stats","id":1}' | nc localhost 7711

Framing is :meth:`StreamReader.readline` with the reader limit set
just above the protocol's per-message cap, so an unterminated flood
surfaces as a ``too_large`` error instead of unbounded buffering.
"""

from __future__ import annotations

import asyncio
from typing import Optional

from repro.server.core import Connection, ServerCore
from repro.server.protocol import ProtocolError

__all__ = ["TCPConnection", "TCPServer"]


class TCPConnection(Connection):
    """One accepted NDJSON-over-TCP client."""

    transport = "tcp"

    def __init__(self, core: ServerCore, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, peer: str) -> None:
        super().__init__(core, peer)
        self.reader = reader
        self.writer = writer

    async def recv(self) -> Optional[bytes]:
        while True:
            try:
                line = await self.reader.readline()
            except (asyncio.LimitOverrunError, ValueError):
                # readline() signals a line over the reader limit as
                # LimitOverrunError or a bare ValueError depending on
                # where the separator lands
                raise ProtocolError(
                    "too_large", "line exceeds the per-message limit"
                ) from None
            if not line:
                return None  # EOF
            if line.strip():
                return line
            # tolerate keep-alive blank lines

    async def send_encoded(self, payloads: list[bytes]) -> None:
        self.writer.write(b"".join(payloads))
        await self.writer.drain()

    async def close_transport(self) -> None:
        try:
            self.writer.close()
        except (ConnectionError, OSError):
            pass


class TCPServer:
    """The NDJSON listener; hands each socket to the shared
    :class:`~repro.server.core.Connection` driver."""

    def __init__(self, core: ServerCore, host: str, port: int) -> None:
        self.core = core
        self.host = host
        self.port = port  # 0 = ephemeral; resolved on start()
        self._server: asyncio.AbstractServer | None = None

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._serve, self.host, self.port,
            limit=self.core.config.max_frame + 1024)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _serve(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        peername = writer.get_extra_info("peername")
        peer = (f"tcp:{peername[0]}:{peername[1]}" if peername
                else "tcp:?")
        try:
            await TCPConnection(self.core, reader, writer, peer).run()
        except asyncio.CancelledError:
            # loop shutdown cancelled the handler mid-teardown; end
            # quietly — 3.11's streams callback logs cancelled tasks
            writer.close()

"""WebSocket transport: RFC 6455 on raw asyncio streams, stdlib-only.

One protocol message (see :mod:`repro.server.protocol`) rides in one
*text* frame — no newline framing needed on this transport.  The
module implements the full server side (handshake validation, masked
client frames, fragmentation reassembly, ping/pong, close handshake)
plus the client side used by ``python -m repro client --transport ws``,
the tests, and the load harness.

Only what the serving runtime needs is here — this is not a general
WebSocket library: extensions/subprotocols are not negotiated (their
header fields are ignored), and binary data frames are accepted and
treated as UTF-8 JSON like text frames.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import os
from typing import Optional

from repro.server.http import (
    HTTPRequest,
    http_response,
    read_http_request,
)
from repro.server.core import Connection, ServerCore
from repro.server.protocol import MAX_FRAME_BYTES, ProtocolError

__all__ = ["WS_GUID", "accept_key", "mask_payload", "encode_ws_frame",
           "read_ws_frame", "client_handshake", "WSServer"]

WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

OP_CONT, OP_TEXT, OP_BINARY = 0x0, 0x1, 0x2
OP_CLOSE, OP_PING, OP_PONG = 0x8, 0x9, 0xA
_DATA_OPS = (OP_CONT, OP_TEXT, OP_BINARY)


class WSProtocolError(ProtocolError):
    """A WebSocket framing violation (close code 1002 territory)."""

    def __init__(self, message: str) -> None:
        super().__init__("protocol", message)


def accept_key(key: str) -> str:
    """``Sec-WebSocket-Accept`` for a ``Sec-WebSocket-Key`` (RFC 6455
    §4.2.2: base64 of the SHA-1 of key + GUID)."""
    digest = hashlib.sha1((key + WS_GUID).encode("latin-1")).digest()
    return base64.b64encode(digest).decode("ascii")


def mask_payload(data: bytes, key: bytes) -> bytes:
    """XOR-(un)mask a payload with the 4-byte key (§5.3).

    Implemented as one big-int XOR instead of a per-byte loop — on a
    64 KiB frame that is ~40x faster in CPython, which matters on the
    push path of the load harness.
    """
    if not data:
        return data
    repeats = -(-len(data) // 4)
    mask = (key * repeats)[:len(data)]
    return (int.from_bytes(data, "little")
            ^ int.from_bytes(mask, "little")).to_bytes(len(data), "little")


def encode_ws_frame(opcode: int, payload: bytes,
                    mask: bool = False) -> bytes:
    """One unfragmented frame (FIN set).  Clients must set ``mask``."""
    head = bytearray([0x80 | opcode])
    length = len(payload)
    mask_bit = 0x80 if mask else 0x00
    if length < 126:
        head.append(mask_bit | length)
    elif length < (1 << 16):
        head.append(mask_bit | 126)
        head += length.to_bytes(2, "big")
    else:
        head.append(mask_bit | 127)
        head += length.to_bytes(8, "big")
    if mask:
        key = os.urandom(4)
        return bytes(head) + key + mask_payload(payload, key)
    return bytes(head) + payload


async def read_ws_frame(reader: asyncio.StreamReader,
                        max_size: int = MAX_FRAME_BYTES,
                        require_mask: bool = True
                        ) -> tuple[bool, int, bytes]:
    """Read one frame → ``(fin, opcode, unmasked payload)``.

    ``require_mask`` enforces §5.1 (client frames MUST be masked) on
    the server side; the client side passes ``False`` (server frames
    MUST NOT be masked — a masked one is rejected there instead).
    """
    head = await reader.readexactly(2)
    fin = bool(head[0] & 0x80)
    if head[0] & 0x70:
        raise WSProtocolError("RSV bits set without a negotiated "
                              "extension")
    opcode = head[0] & 0x0F
    masked = bool(head[1] & 0x80)
    length = head[1] & 0x7F
    if opcode not in _DATA_OPS:
        if opcode not in (OP_CLOSE, OP_PING, OP_PONG):
            raise WSProtocolError(f"unknown opcode {opcode:#x}")
        if not fin or length > 125:
            raise WSProtocolError("fragmented or oversized control "
                                  "frame")
    if length == 126:
        length = int.from_bytes(await reader.readexactly(2), "big")
    elif length == 127:
        length = int.from_bytes(await reader.readexactly(8), "big")
    if length > max_size:
        raise ProtocolError(
            "too_large", f"frame of {length} bytes exceeds the "
                         f"{max_size}-byte limit")
    if masked != require_mask:
        side = "client" if require_mask else "server"
        raise WSProtocolError(f"{side} frames must be "
                              f"{'masked' if require_mask else 'unmasked'}")
    key = await reader.readexactly(4) if masked else b""
    payload = await reader.readexactly(length) if length else b""
    if masked:
        payload = mask_payload(payload, key)
    return fin, opcode, payload


async def read_ws_message(reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter,
                          max_size: int = MAX_FRAME_BYTES,
                          require_mask: bool = True) -> Optional[bytes]:
    """Read one *data message*, reassembling fragments and answering
    control frames inline (ping → pong; close → close echo + ``None``).
    Returns ``None`` when the peer initiated a close or hung up.
    """
    parts: list[bytes] = []
    total = 0
    while True:
        try:
            fin, opcode, payload = await read_ws_frame(
                reader, max_size, require_mask)
        except (asyncio.IncompleteReadError, ConnectionError):
            return None
        if opcode == OP_PING:
            writer.write(encode_ws_frame(OP_PONG, payload,
                                         mask=not require_mask))
            await writer.drain()
            continue
        if opcode == OP_PONG:
            continue
        if opcode == OP_CLOSE:
            try:
                writer.write(encode_ws_frame(OP_CLOSE, payload[:2],
                                             mask=not require_mask))
                await writer.drain()
            except (ConnectionError, OSError):
                pass
            return None
        if opcode == OP_CONT and not parts:
            raise WSProtocolError("continuation frame without a "
                                  "preceding data frame")
        if opcode != OP_CONT and parts:
            raise WSProtocolError("new data frame inside a fragmented "
                                  "message")
        total += len(payload)
        if total > max_size:
            raise ProtocolError(
                "too_large", f"fragmented message exceeds the "
                             f"{max_size}-byte limit")
        parts.append(payload)
        if fin:
            return b"".join(parts)


# -- client side -----------------------------------------------------------

async def client_handshake(reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter,
                           host: str, path: str = "/") -> None:
    """Perform the opening handshake on a fresh connection (client)."""
    key = base64.b64encode(os.urandom(16)).decode("ascii")
    request = (f"GET {path} HTTP/1.1\r\n"
               f"Host: {host}\r\n"
               f"Upgrade: websocket\r\n"
               f"Connection: Upgrade\r\n"
               f"Sec-WebSocket-Key: {key}\r\n"
               f"Sec-WebSocket-Version: 13\r\n\r\n")
    writer.write(request.encode("latin-1"))
    await writer.drain()
    status = await reader.readline()
    if b"101" not in status.split(b" ", 2)[1:2]:
        raise ConnectionError(
            f"websocket handshake refused: {status.decode().strip()!r}")
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    if headers.get("sec-websocket-accept") != accept_key(key):
        raise ConnectionError("websocket handshake: bad accept key")


# -- server side -----------------------------------------------------------

def _handshake_response(request: HTTPRequest) -> bytes:
    if request.method != "GET":
        raise ValueError("websocket handshake must be a GET")
    if "websocket" not in request.header("upgrade").lower():
        raise ValueError("missing 'Upgrade: websocket'")
    connection = request.header("connection").lower()
    if "upgrade" not in connection:
        raise ValueError("missing 'Connection: Upgrade'")
    key = request.header("sec-websocket-key")
    if not key:
        raise ValueError("missing Sec-WebSocket-Key")
    if request.header("sec-websocket-version", "13") != "13":
        raise ValueError("unsupported Sec-WebSocket-Version")
    head = ("HTTP/1.1 101 Switching Protocols\r\n"
            "Upgrade: websocket\r\n"
            "Connection: Upgrade\r\n"
            f"Sec-WebSocket-Accept: {accept_key(key)}\r\n\r\n")
    return head.encode("latin-1")


class WSConnection(Connection):
    """One accepted WebSocket client (post-handshake)."""

    transport = "ws"

    def __init__(self, core: ServerCore, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, peer: str) -> None:
        super().__init__(core, peer)
        self.reader = reader
        self.writer = writer

    async def recv(self) -> Optional[bytes]:
        return await read_ws_message(self.reader, self.writer,
                                     self.core.config.max_frame,
                                     require_mask=True)

    async def send_encoded(self, payloads: list[bytes]) -> None:
        # a payload is an NDJSON line; its own text frame carries it
        # sans \n
        self.writer.write(b"".join(
            encode_ws_frame(OP_TEXT, payload.rstrip(b"\n"))
            for payload in payloads))
        await self.writer.drain()

    async def close_transport(self) -> None:
        try:
            self.writer.write(encode_ws_frame(OP_CLOSE,
                                              (1001).to_bytes(2, "big")))
            await self.writer.drain()
        except (ConnectionError, OSError):
            pass
        self.writer.close()


class WSServer:
    """The WebSocket listener: handshake, then the shared
    :class:`~repro.server.core.Connection` driver over WS frames."""

    def __init__(self, core: ServerCore, host: str, port: int) -> None:
        self.core = core
        self.host = host
        self.port = port
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
        peer = f"ws:{peername[0]}:{peername[1]}" if peername else "ws:?"
        try:
            request = await read_http_request(reader)
            writer.write(_handshake_response(request))
            await writer.drain()
        except (ValueError, ConnectionError,
                asyncio.IncompleteReadError) as error:
            try:
                writer.write(http_response(400, f"{error}\n"))
                await writer.drain()
            except (ConnectionError, OSError):
                pass
            writer.close()
            return
        try:
            await WSConnection(self.core, reader, writer, peer).run()
        except asyncio.CancelledError:
            # loop shutdown cancelled the handler mid-teardown; end
            # quietly — 3.11's streams callback logs cancelled tasks
            writer.close()

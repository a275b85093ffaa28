"""repro.server — the concurrent client/server query layer.

One shared database behind N TCP connections, speaking a length-prefixed
JSON+binary protocol whose answers stream through server-side cursors —
the paper's get-next-tuple interface (Sections 3, 5.6) on the wire.  See
docs/SERVER.md for the frame layout, the message table, and the cursor
lifecycle; :mod:`repro.client` is the matching client.

Run one from the command line with ``python -m repro.server`` (or the
``coral-server`` console script).
"""

from .core import CoralServer, DEFAULT_BATCH, query_variable_names
from .protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    REQUEST_OPS,
    STREAM_OPS,
    FrameTimeout,
    decode_frame,
    encode_frame,
    read_frame,
    write_frame,
)
from .transport import FrameServer

__all__ = [
    "CoralServer",
    "DEFAULT_BATCH",
    "FrameServer",
    "FrameTimeout",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "REQUEST_OPS",
    "STREAM_OPS",
    "decode_frame",
    "encode_frame",
    "query_variable_names",
    "read_frame",
    "write_frame",
]

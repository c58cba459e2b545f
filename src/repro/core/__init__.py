"""NCache — the paper's contribution: network-centric buffer caching."""

from .chunk import Chunk, ChunkKey
from .classifier import PacketClassifier, RxAction, TxAction, TxDecision
from .keys import FhoKey, KeyedPayload, LbnKey
from .ncache import NCacheModule
from .resize import buffers_for_range, carve_chunks, slice_buffer
from .store import NCacheStore
from .wiring import attach_ncache

__all__ = [
    "Chunk",
    "ChunkKey",
    "FhoKey",
    "KeyedPayload",
    "LbnKey",
    "NCacheModule",
    "NCacheStore",
    "PacketClassifier",
    "RxAction",
    "TxAction",
    "TxDecision",
    "attach_ncache",
    "buffers_for_range",
    "carve_chunks",
    "slice_buffer",
]

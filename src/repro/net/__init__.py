"""Network substrate: buffers, headers, NICs, switch, transport stack."""

from .addresses import HTTP_PORT, ISCSI_PORT, NFS_PORT, Endpoint
from .buffer import (
    BufferChain,
    BufferFlavor,
    BytesPayload,
    CompositePayload,
    ExtentPayload,
    JunkPayload,
    NetBuffer,
    Payload,
    PlaceholderPayload,
    SegmentShape,
    VirtualPayload,
    chain_from_payload,
    concat,
    expand_segments,
    pattern_bytes,
)
from .headers import (
    EthernetHeader,
    Header,
    IPv4Header,
    IscsiBHS,
    RPCHeader,
    TCPHeader,
    UDPHeader,
)
from .host import Host
from .network import NIC, Datagram, Network
from .stack import NetworkStack, TCPConnection, count_placeholder_keys

__all__ = [
    "BufferChain",
    "BufferFlavor",
    "BytesPayload",
    "CompositePayload",
    "Datagram",
    "Endpoint",
    "EthernetHeader",
    "ExtentPayload",
    "HTTP_PORT",
    "Header",
    "Host",
    "IPv4Header",
    "ISCSI_PORT",
    "IscsiBHS",
    "JunkPayload",
    "NFS_PORT",
    "NIC",
    "NetBuffer",
    "Network",
    "NetworkStack",
    "Payload",
    "PlaceholderPayload",
    "RPCHeader",
    "SegmentShape",
    "TCPConnection",
    "TCPHeader",
    "UDPHeader",
    "VirtualPayload",
    "chain_from_payload",
    "concat",
    "count_placeholder_keys",
    "expand_segments",
    "pattern_bytes",
]

"""Protocol header descriptors.

Headers are small value objects attached to :class:`~repro.net.buffer.NetBuffer`
header stacks.  They exist so NCache can store buffers *with* their
pre-built headers (one of the paper's claimed benefits: "the protocol
headers do not need to be repeatedly allocated", §1) and so tests can
verify header reuse.  They are never mutated, so the stack builds a
flow's IP and transport headers once, on its first datagram, and every
later buffer of the flow carries the same objects in a list of its own
(``NetworkStack._flow_headers``): the headers are not repeatedly
allocated here either.  Wire sizes match the cost model's accounting.
"""

from __future__ import annotations

from dataclasses import dataclass


class Header:
    """Base class for protocol headers."""

    def wire_size(self) -> int:
        raise NotImplementedError


@dataclass
class EthernetHeader(Header):
    """Layer-2 frame header."""

    src_mac: str = ""
    dst_mac: str = ""

    def wire_size(self) -> int:
        return 14


@dataclass
class IPv4Header(Header):
    """IP header (fragmentation fields included)."""

    src_ip: str = ""
    dst_ip: str = ""
    protocol: str = "udp"
    fragment_offset: int = 0
    more_fragments: bool = False

    def wire_size(self) -> int:
        return 20


@dataclass
class UDPHeader(Header):
    """UDP header (first fragment of a datagram only)."""

    src_port: int = 0
    dst_port: int = 0
    length: int = 0
    checksum: int = 0

    def wire_size(self) -> int:
        return 8


@dataclass
class TCPHeader(Header):
    """TCP header with timestamp options."""

    src_port: int = 0
    dst_port: int = 0
    seq: int = 0
    ack: int = 0

    def wire_size(self) -> int:
        return 32  # 20 base + 12 bytes of timestamp options


@dataclass
class RPCHeader(Header):
    """ONC RPC call/reply header (we only track what NCache inspects)."""

    xid: int = 0
    is_call: bool = True
    program: int = 100003  # NFS
    procedure: int = 0

    def wire_size(self) -> int:
        return 28


@dataclass
class IscsiBHS(Header):
    """iSCSI Basic Header Segment (48 bytes)."""

    opcode: str = "scsi_cmd"
    task_tag: int = 0
    lun: int = 0
    lba: int = 0
    blocks: int = 0

    def wire_size(self) -> int:
        return 48

"""NFS protocol messages (a v3-flavoured subset over RPC/UDP).

The RPC procedure field is exactly what NCache's classifier inspects:
"Among incoming NFS packets, only the payloads of NFS write request
packets are cached ... among outgoing NFS packets only the payloads of NFS
read replies are replaced" (§3.3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from ..rpc.messages import RPC_CALL_HEADER, RPC_REPLY_HEADER


class NfsProc(enum.Enum):
    """NFS procedure numbers (v3-flavoured subset)."""

    NULL = 0
    GETATTR = 1
    SETATTR = 2
    LOOKUP = 3
    ACCESS = 4
    READ = 6
    WRITE = 7
    CREATE = 8
    REMOVE = 12
    READDIR = 16
    FSSTAT = 18
    COMMIT = 21


#: Procedures whose payloads are file-system *metadata* (or no payload at
#: all).  READ/WRITE on regular files are the only regular-data carriers.
METADATA_PROCS = frozenset({
    NfsProc.NULL, NfsProc.GETATTR, NfsProc.SETATTR, NfsProc.LOOKUP,
    NfsProc.ACCESS, NfsProc.CREATE, NfsProc.REMOVE, NfsProc.READDIR,
    NfsProc.FSSTAT, NfsProc.COMMIT,
})

#: NFS-level header bytes on top of RPC (fh + offsets + attrs, rounded).
NFS_CALL_BODY = 72
NFS_REPLY_BODY = 72


@dataclass(frozen=True)
class FileHandle:
    """An opaque NFS file handle: inode number + generation."""

    ino: int
    generation: int = 1


#: NFS status codes used by the simulated server.
NFS_OK = 0
NFSERR_NOENT = 2
NFSERR_INVAL = 22
NFSERR_STALE = 70


@dataclass(slots=True)
class NfsCall:
    """One NFS request.  WRITE data rides in the datagram, not here."""

    xid: int
    proc: NfsProc
    fh: Optional[FileHandle] = None
    name: Optional[str] = None
    offset: int = 0
    count: int = 0
    #: SETATTR only: truncate the file to this size (None = no change).
    new_size: Optional[int] = None

    @property
    def header_size(self) -> int:
        extra = len(self.name) if self.name else 0
        return RPC_CALL_HEADER + NFS_CALL_BODY + extra

    @property
    def is_metadata(self) -> bool:
        return self.proc in METADATA_PROCS

    @property
    def is_call(self) -> bool:
        return True


@dataclass(slots=True)
class NfsReply:
    """One NFS reply.  READ data rides in the datagram, not here.

    Slotted, like :class:`NfsCall`: every duplicate-request cache entry
    keeps one, and a per-instance ``__dict__`` would outweigh its fields.
    """

    xid: int
    proc: NfsProc
    status: int = 0
    count: int = 0
    fh: Optional[FileHandle] = None
    size: int = 0  # attr: file size (GETATTR/LOOKUP)

    @property
    def header_size(self) -> int:
        return RPC_REPLY_HEADER + NFS_REPLY_BODY

    @property
    def is_metadata(self) -> bool:
        return self.proc in METADATA_PROCS

    @property
    def is_call(self) -> bool:
        return False

    @property
    def ok(self) -> bool:
        return self.status == 0

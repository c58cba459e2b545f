"""Packet classification: NFS procedures, iSCSI hints, HTTP patterns."""

from repro.core import PacketClassifier, RxAction, TxAction
from repro.core.keys import KeyedPayload, LbnKey
from repro.http import HttpResponse
from repro.iscsi import DataIn, ScsiCommand
from repro.net import BufferChain, BytesPayload, Endpoint, NetBuffer
from repro.net.network import Datagram
from repro.nfs import FileHandle, NfsCall, NfsProc, NfsReply


def dgram_for(message, chain=None, protocol="tcp"):
    return Datagram(protocol=protocol, src=Endpoint("a", 1),
                    dst=Endpoint("b", 2), message=message,
                    chain=chain or BufferChain(), n_frames=1, wire_bytes=100)


CLS = PacketClassifier()


class TestRx:
    def test_data_in_regular_cached(self):
        message = DataIn(task_tag=1, lun=0, lba=10, nblocks=2)
        assert CLS.classify_rx(dgram_for(message)) is RxAction.CACHE_DATA_IN

    def test_data_in_metadata_passes(self):
        message = DataIn(task_tag=1, lun=0, lba=0, nblocks=1,
                         is_metadata=True)
        assert CLS.classify_rx(dgram_for(message)) is RxAction.PASS

    def test_data_in_error_passes(self):
        message = DataIn(task_tag=1, lun=0, lba=0, nblocks=1, status=1)
        assert CLS.classify_rx(dgram_for(message)) is RxAction.PASS

    def test_nfs_write_cached(self):
        call = NfsCall(1, NfsProc.WRITE, fh=FileHandle(3), offset=0,
                       count=4096)
        assert CLS.classify_rx(dgram_for(call, protocol="udp")) is \
            RxAction.CACHE_NFS_WRITE

    def test_nfs_read_call_passes(self):
        call = NfsCall(1, NfsProc.READ, fh=FileHandle(3), count=4096)
        assert CLS.classify_rx(dgram_for(call, protocol="udp")) is \
            RxAction.PASS

    def test_other_messages_pass(self):
        assert CLS.classify_rx(dgram_for({"random": True})) is RxAction.PASS


class TestTx:
    def test_read_reply_substituted(self):
        reply = NfsReply(1, NfsProc.READ, count=4096)
        assert CLS.classify_tx(dgram_for(reply, protocol="udp")) is \
            TxAction.SUBSTITUTE

    def test_failed_read_reply_passes(self):
        reply = NfsReply(1, NfsProc.READ, status=5)
        assert CLS.classify_tx(dgram_for(reply)) is TxAction.PASS

    def test_getattr_reply_passes(self):
        reply = NfsReply(1, NfsProc.GETATTR)
        assert CLS.classify_tx(dgram_for(reply)) is TxAction.PASS

    def test_iscsi_write_remaps(self):
        command = ScsiCommand("write", 1, 0, 10, 2)
        assert CLS.classify_tx(dgram_for(command)) is \
            TxAction.REMAP_AND_SUBSTITUTE

    def test_iscsi_metadata_write_passes(self):
        command = ScsiCommand("write", 1, 0, 0, 1, is_metadata=True)
        assert CLS.classify_tx(dgram_for(command)) is TxAction.PASS

    def test_iscsi_read_command_passes(self):
        command = ScsiCommand("read", 1, 0, 0, 1)
        assert CLS.classify_tx(dgram_for(command)) is TxAction.PASS


class TestHttpScan:
    def make_response_dgram(self, content_length=4096, header_bytes=None):
        response = HttpResponse(status=200, content_length=content_length)
        header = header_bytes if header_bytes is not None \
            else response.serialize_header()
        body = KeyedPayload(content_length, lbn_key=LbnKey(0, 1))
        from repro.net.buffer import concat
        from repro.net.buffer import chain_from_payload

        chain = chain_from_payload(concat([BytesPayload(header), body]), 1448)
        return dgram_for(response, chain)

    def test_body_offset_found_by_pattern(self):
        assert CLS.classify_tx(self.make_response_dgram()) is \
            TxAction.SUBSTITUTE

    def test_no_terminator_passes(self):
        dgram = self.make_response_dgram(
            header_bytes=b"HTTP/1.1 200 OK\r\nbroken")
        assert CLS.classify_tx(dgram) is TxAction.PASS

    def test_404_passes(self):
        response = HttpResponse(status=404, content_length=0)
        assert CLS.classify_tx(dgram_for(response)) is TxAction.PASS

    def test_empty_body_passes(self):
        response = HttpResponse(status=200, content_length=0)
        assert CLS.classify_tx(dgram_for(response)) is TxAction.PASS

    def test_empty_chain_passes(self):
        response = HttpResponse(status=200, content_length=100)
        assert CLS.classify_tx(dgram_for(response)) is TxAction.PASS

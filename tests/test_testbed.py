"""Testbed assembly and server-mode configuration."""

import pytest

from repro.copymodel import CopyDiscipline
from repro.servers import MB, ServerMode, TestbedConfig, TestbedSpec


class TestServerMode:
    def test_discipline_mapping(self):
        assert ServerMode.ORIGINAL.discipline is CopyDiscipline.PHYSICAL
        assert ServerMode.BASELINE.discipline is CopyDiscipline.ZERO
        assert ServerMode.NCACHE.discipline is CopyDiscipline.LOGICAL

    def test_labels(self):
        assert ServerMode.NCACHE.label == "NCache"


class TestMemoryBudget:
    def test_original_gets_all_cache_memory(self):
        cfg = TestbedConfig(mode=ServerMode.ORIGINAL)
        assert cfg.fs_cache_bytes == 800 * MB
        assert cfg.ncache_capacity_bytes == 0

    def test_ncache_splits_memory(self):
        cfg = TestbedConfig(mode=ServerMode.NCACHE)
        assert cfg.fs_cache_bytes == 64 * MB
        assert cfg.ncache_capacity_bytes == (800 - 64) * MB

    def test_total_memory_consistent(self):
        cfg = TestbedConfig(mode=ServerMode.NCACHE)
        assert cfg.fs_cache_bytes + cfg.ncache_capacity_bytes == \
            cfg.cache_memory_bytes


class TestNfsTestbed:
    def test_builds_paper_topology(self):
        testbed = TestbedSpec.nfs().build()
        assert len(testbed.client_hosts) == 2
        assert len(testbed.server_host.nics) == 1
        assert len(testbed.raid.disks) == 4
        assert testbed.ncache is None

    def test_two_nic_configuration(self):
        testbed = TestbedSpec.nfs(n_server_nics=2).build()
        assert testbed.server_ips == ["server-0", "server-1"]
        assert testbed.server_ip_for_client(0) == "server-0"
        assert testbed.server_ip_for_client(1) == "server-1"
        assert testbed.server_ip_for_client(2) == "server-0"

    def test_ncache_mode_attaches_module(self):
        testbed = TestbedSpec.nfs(ServerMode.NCACHE).build()
        assert testbed.ncache is not None
        assert testbed.vfs.lbn_annotator is not None
        assert testbed.initiator.read_interceptor is not None
        assert testbed.ncache.store.capacity_bytes == \
            testbed.config.ncache_capacity_bytes

    def test_original_mode_has_no_hooks(self):
        testbed = TestbedSpec.nfs().build()
        assert testbed.server_host._tx_hooks == []
        assert testbed.server_host._rx_hooks == []
        assert testbed.vfs.lbn_annotator is None

    def test_setup_connects_initiator(self):
        testbed = TestbedSpec.nfs().build()
        testbed.setup()
        assert testbed.initiator.conn is not None

    def test_file_handle_matches_image(self):
        testbed = TestbedSpec.nfs().build()
        inode = testbed.image.create_file("x", 100)
        fh = testbed.file_handle("x")
        assert fh.ino == inode.ino

    def test_reset_measurements_zeroes_everything(self):
        testbed = TestbedSpec.nfs().build()
        testbed.setup()
        testbed.server_host.counters.add("x", 5)
        testbed.meters.throughput.record(100)
        testbed.reset_measurements()
        assert testbed.server_host.counters["x"].value == 0
        assert testbed.meters.throughput.bytes.value == 0


class TestWebTestbed:
    def test_connections_per_client(self):
        testbed = TestbedSpec.web(connections_per_client=3).build()
        assert len(testbed.http_clients) == 6  # 2 hosts x 3 conns

    def test_setup_establishes_all_connections(self):
        testbed = TestbedSpec.web(connections_per_client=2).build()
        testbed.setup()
        assert all(c.conn is not None for c in testbed.http_clients)

"""TestbedSpec/ClusterSpec validation and pickling, and the one table of
testbed defaults."""

import pickle

import pytest

from repro.servers import (
    MB,
    ClusterSpec,
    NfsTestbed,
    ServerMode,
    TestbedConfig,
    TestbedSpec,
    WebTestbed,
)
from repro.servers.spec import KIND_DEFAULTS


class TestTestbedSpec:
    def test_defaults(self):
        spec = TestbedSpec.nfs()
        assert spec.kind == "nfs"
        assert spec.mode is ServerMode.ORIGINAL
        assert spec.config == TestbedConfig(**KIND_DEFAULTS["nfs"])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown testbed kind"):
            TestbedSpec(kind="ftp", config=TestbedConfig())

    def test_config_must_be_a_testbed_config(self):
        with pytest.raises(ValueError, match="TestbedConfig"):
            TestbedSpec(kind="nfs", config={"n_daemons": 8})

    def test_string_mode_coerced(self):
        assert TestbedSpec.nfs("ncache").mode is ServerMode.NCACHE

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            TestbedSpec.nfs("turbo")

    def test_unknown_config_field_rejected(self):
        # The dataclass's own constructor polices the field names.
        with pytest.raises(TypeError, match="warp_factor"):
            TestbedSpec.nfs(warp_factor=9)

    def test_flush_interval_validation(self):
        with pytest.raises(ValueError, match="flush_interval_s"):
            TestbedSpec.nfs(flush_interval_s=0)
        assert TestbedSpec.nfs(flush_interval_s=None).flush_interval_s is None

    def test_classmethod_kwargs_become_config(self):
        spec = TestbedSpec.nfs(ServerMode.NCACHE, n_daemons=4, seed=7)
        assert spec.seed == 7  # own field, not config
        assert spec.config.n_daemons == 4

    def test_testbed_config_merges_kind_defaults(self):
        assert TestbedSpec.nfs().config.n_daemons \
            == KIND_DEFAULTS["nfs"]["n_daemons"]
        assert TestbedSpec.nfs(n_daemons=3).config.n_daemons == 3

    def test_picklable_and_hashable(self):
        spec = TestbedSpec.web(ServerMode.NCACHE, n_server_nics=1)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert hash(clone) == hash(spec)
        assert spec != TestbedSpec.web(ServerMode.NCACHE)

    def test_build_constructs_right_kind(self):
        assert isinstance(TestbedSpec.nfs().build(), NfsTestbed)
        assert isinstance(TestbedSpec.web().build(), WebTestbed)


class TestOneTableOfDefaults:
    """``TestbedConfig``'s fields are the machine, ``KIND_DEFAULTS`` what
    a kind changes, ``TestbedSpec``'s fields the build values: the
    testbed classes carry none of their own."""

    @pytest.mark.parametrize("mode", list(ServerMode), ids=lambda m: m.value)
    def test_nfs_default_machine(self, mode):
        testbed = TestbedSpec.nfs(mode).build()
        assert testbed.config.mode is mode
        assert testbed.nfs_server.n_daemons == 16
        assert len(testbed.server_ips) == 1
        assert testbed.flush_daemon.interval_s == 0.25

    @pytest.mark.parametrize("mode", list(ServerMode), ids=lambda m: m.value)
    def test_web_default_machine(self, mode):
        testbed = TestbedSpec.web(mode).build()
        assert len(testbed.server_ips) == 2
        assert len(testbed.http_clients) \
            == 6 * testbed.config.n_client_hosts

    def test_nfs_overrides_reach_the_machine(self):
        testbed = TestbedSpec.nfs(ServerMode.NCACHE, n_server_nics=2,
                                  n_daemons=4, flush_interval_s=None,
                                  ncache_fs_cache_bytes=32 * MB).build()
        assert len(testbed.server_ips) == 2
        assert testbed.nfs_server.n_daemons == 4
        assert testbed.flush_daemon is None
        assert testbed.cache.capacity_bytes == 32 * MB

    def test_web_connection_fanout(self):
        testbed = TestbedSpec.web(connections_per_client=3).build()
        assert len(testbed.http_clients) == 6  # 2 hosts x 3 conns

    def test_explicit_config_bypasses_kind_defaults(self):
        config = TestbedConfig(mode=ServerMode.NCACHE)
        spec = TestbedSpec(kind="web", config=config)
        assert spec.config is config
        testbed = spec.build()
        assert len(testbed.server_ips) == config.n_server_nics == 1
        assert TestbedSpec(kind="nfs", config=config).build() \
            .nfs_server.n_daemons == config.n_daemons == 8


class TestClusterSpec:
    def test_defaults_single_node(self):
        spec = ClusterSpec()
        assert spec.n_servers == 1
        assert not spec.cooperative

    def test_replication_bounds(self):
        with pytest.raises(ValueError, match="replication"):
            ClusterSpec(n_servers=2, replication=3)
        with pytest.raises(ValueError, match="replication"):
            ClusterSpec(n_servers=2, replication=0)

    def test_cooperative_requires_ncache_mode(self):
        with pytest.raises(ValueError, match="NCACHE"):
            ClusterSpec(testbed=TestbedSpec.nfs(ServerMode.ORIGINAL),
                        n_servers=2, cooperative=True)

    def test_picklable(self):
        spec = ClusterSpec(testbed=TestbedSpec.nfs(ServerMode.NCACHE),
                           n_servers=4, replication=2, cooperative=True)
        assert pickle.loads(pickle.dumps(spec)) == spec

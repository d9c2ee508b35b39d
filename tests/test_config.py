"""Unit tests for the configuration layer (Table 2)."""

import pytest

from repro.config import (
    ConfigError,
    DirectoryKind,
    FaultConfig,
    GMMUConfig,
    InterconnectConfig,
    InvalidationScheme,
    IRMBConfig,
    MigrationPolicy,
    SystemConfig,
    TLBConfig,
    UVMConfig,
    baseline_config,
)


class TestTable2Defaults:
    def test_baseline_matches_table2(self):
        config = baseline_config()
        assert config.num_gpus == 4
        assert config.cus_per_gpu == 64
        assert config.page_size == 4096
        assert config.l1_tlb == TLBConfig(32, 32, 1)
        assert config.l2_tlb == TLBConfig(512, 16, 10)
        assert config.gmmu.walker_threads == 8
        assert config.gmmu.walk_latency_per_level == 100
        assert config.gmmu.walk_cache_entries == 128
        assert config.uvm.access_counter_threshold == 256
        assert config.uvm.fault_batch_size == 256
        assert config.interconnect.nvlink_bandwidth_gbps == 300.0
        assert config.interconnect.pcie_bandwidth_gbps == 32.0
        assert config.migration_policy is MigrationPolicy.ACCESS_COUNTER
        assert config.invalidation_scheme is InvalidationScheme.BROADCAST
        assert config.directory_kind is DirectoryKind.IN_PTE
        assert config.directory_bits == 11

    def test_effective_threshold_scaling(self):
        uvm = UVMConfig()
        assert uvm.effective_threshold == max(1, 256 // uvm.threshold_divisor)
        assert UVMConfig(access_counter_threshold=512).effective_threshold == \
            2 * uvm.effective_threshold

    def test_irmb_default_geometry(self):
        irmb = IRMBConfig()
        assert (irmb.bases, irmb.offsets_per_base) == (32, 16)
        assert irmb.size_bytes == 720.0


class TestValidation:
    def test_zero_gpus_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(num_gpus=0)

    def test_non_power_of_two_page_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(page_size=5000)

    def test_zero_directory_bits_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(directory_bits=0)


class TestVariantBuilders:
    def test_with_scheme(self):
        config = baseline_config().with_scheme(InvalidationScheme.IDYLL)
        assert config.invalidation_scheme is InvalidationScheme.IDYLL
        assert config.num_gpus == 4  # everything else unchanged

    def test_with_gpus(self):
        assert baseline_config().with_gpus(16).num_gpus == 16

    def test_with_irmb(self):
        config = baseline_config().with_irmb(64, 16)
        assert (config.irmb.bases, config.irmb.offsets_per_base) == (64, 16)

    def test_with_walker_threads(self):
        assert baseline_config().with_walker_threads(32).gmmu.walker_threads == 32

    def test_with_l2_tlb(self):
        config = baseline_config().with_l2_tlb(2048, 64)
        assert config.l2_tlb.entries == 2048
        assert config.l2_tlb.associativity == 64

    def test_with_threshold(self):
        assert baseline_config().with_threshold(512).uvm.access_counter_threshold == 512

    def test_with_page_size(self):
        assert baseline_config().with_page_size(2 * 1024 * 1024).page_size == 2 * 1024 * 1024

    def test_with_directory_bits(self):
        assert baseline_config().with_directory_bits(4).directory_bits == 4

    def test_configs_are_hashable(self):
        """The experiment runner memoises on the config value."""
        a = baseline_config()
        b = baseline_config()
        assert hash(a) == hash(b)
        assert a == b
        assert a.with_gpus(8) != a


class TestFaultConfig:
    def test_disabled_by_default(self):
        faults = FaultConfig()
        assert not faults.enabled
        assert not faults.watchdog_active
        assert not faults.quiesce_audit_active

    def test_any_nonzero_rate_enables(self):
        assert FaultConfig(drop_rate=0.1).enabled
        assert FaultConfig(walker_stall_rate=0.1).enabled

    def test_auto_knobs_follow_enabled(self):
        faults = FaultConfig(drop_rate=0.1)
        assert faults.watchdog_active
        assert faults.quiesce_audit_active

    def test_explicit_knobs_override_auto(self):
        assert FaultConfig(watchdog_enabled=True).watchdog_active
        assert not FaultConfig(drop_rate=0.1, watchdog_enabled=False).watchdog_active
        assert FaultConfig(audit_on_quiesce=True).quiesce_audit_active

    def test_retry_timeout_backs_off_exponentially_with_cap(self):
        faults = FaultConfig(ack_timeout=1000, retry_backoff=2, ack_timeout_max=3000)
        assert faults.retry_timeout(0) == 1000
        assert faults.retry_timeout(1) == 2000
        assert faults.retry_timeout(2) == 3000      # capped
        assert faults.retry_timeout(5) == 3000

    @pytest.mark.parametrize("bad", [
        dict(drop_rate=-0.1),
        dict(delay_rate=1.5),
        dict(delay_max=0),
        dict(ack_timeout=0),
        dict(retry_backoff=0),
        dict(ack_timeout=5000, ack_timeout_max=100),
        dict(max_retries=-1),
        dict(suspect_recovery=0),
        dict(watchdog_interval=0),
        dict(watchdog_interval=1000, watchdog_stall_window=500),
        dict(ack_timeout=5000, ack_deadline=100),
        dict(audit_interval=-1),
    ])
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ConfigError):
            FaultConfig(**bad)

    def test_with_faults_builder(self):
        config = baseline_config().with_faults(drop_rate=0.2, ack_timeout=2000)
        assert config.faults.drop_rate == 0.2
        assert config.faults.ack_timeout == 2000
        assert config.num_gpus == 4                  # everything else unchanged
        explicit = baseline_config().with_faults(FaultConfig(delay_rate=0.3))
        assert explicit.faults.delay_rate == 0.3

    def test_faulted_configs_stay_hashable(self):
        a = baseline_config().with_faults(drop_rate=0.2)
        b = baseline_config().with_faults(drop_rate=0.2)
        assert hash(a) == hash(b) and a == b
        assert a != baseline_config()


class TestFaultSpecParsing:
    def test_preset_with_overrides(self):
        from repro.faults.profiles import parse_fault_spec

        faults = parse_fault_spec("light,drop=0.1,ack_timeout=2000")
        assert faults.drop_rate == 0.1
        assert faults.ack_timeout == 2000

    def test_presets_exist_and_validate(self):
        from repro.faults.profiles import FAULT_PRESETS, parse_fault_spec

        for name in FAULT_PRESETS:
            assert parse_fault_spec(name).enabled

    def test_unknown_preset_rejected(self):
        from repro.faults.profiles import parse_fault_spec

        with pytest.raises(ConfigError, match="unknown fault preset"):
            parse_fault_spec("extreme")

    def test_unknown_knob_rejected(self):
        from repro.faults.profiles import parse_fault_spec

        with pytest.raises(ConfigError, match="unknown fault knob"):
            parse_fault_spec("light,bogus=1")

    def test_bad_value_rejected(self):
        from repro.faults.profiles import parse_fault_spec

        with pytest.raises(ConfigError):
            parse_fault_spec("light,drop=lots")

    def test_out_of_range_override_rejected(self):
        from repro.faults.profiles import parse_fault_spec

        with pytest.raises(ConfigError):
            parse_fault_spec("light,drop=2.0")

    def test_aliases(self):
        from repro.faults.profiles import parse_fault_spec

        faults = parse_fault_spec("light,dup=0.5,stall=0.25")
        assert faults.duplicate_rate == 0.5
        assert faults.walker_stall_rate == 0.25

    def test_supervisor_aliases(self):
        from repro.faults.profiles import parse_fault_spec

        faults = parse_fault_spec("heavy,watchdog=on,audit=20000")
        assert faults.watchdog_enabled is True
        assert faults.audit_interval == 20000

    def test_alias_table_cannot_drift(self):
        """Every alias must resolve to a real FaultConfig field (the
        import-time guard); spot-check the mapping here too."""
        from dataclasses import fields

        from repro.config import FaultConfig
        from repro.faults.profiles import _ALIASES

        names = {f.name for f in fields(FaultConfig)}
        assert set(_ALIASES.values()) <= names

    def test_unknown_knob_suggests_and_lists(self):
        from repro.faults.profiles import parse_fault_spec

        with pytest.raises(ConfigError) as exc:
            parse_fault_spec("light,drp=0.1")
        msg = str(exc.value)
        assert "Did you mean" in msg and "drop" in msg
        assert "Aliases:" in msg and "watchdog=watchdog_enabled" in msg

    def test_trace_key_requires_chaos_context(self):
        from repro.faults.profiles import parse_fault_spec

        with pytest.raises(ConfigError, match="repro chaos run"):
            parse_fault_spec("trace=failures.jsonl")
        faults, path = parse_fault_spec(
            "light,trace=failures.jsonl", with_trace=True
        )
        assert path == "failures.jsonl"
        assert faults.enabled
        assert parse_fault_spec("light", with_trace=True)[1] is None
        with pytest.raises(ConfigError, match="needs a file path"):
            parse_fault_spec("trace=", with_trace=True)


class TestInterconnectMath:
    def test_nvlink_cycles(self):
        ic = InterconnectConfig()
        assert ic.nvlink_cycles(4096) == int(4096 / 300.0)

    def test_pcie_cycles(self):
        ic = InterconnectConfig()
        assert ic.pcie_cycles(4096) == 128

    def test_minimum_one_cycle(self):
        assert InterconnectConfig().nvlink_cycles(1) == 1

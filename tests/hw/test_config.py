"""Tests for the calibrated hardware cost model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hw import CopyKind, HardwareConfig, KiB, MiB


@pytest.fixture(scope="module")
def cfg():
    return HardwareConfig.fermi_qdr()


class TestValidation:
    def test_default_is_valid(self):
        HardwareConfig()

    @pytest.mark.parametrize(
        "field", ["pcie_bandwidth", "net_bandwidth", "device_bandwidth"]
    )
    def test_nonpositive_bandwidth_rejected(self, field):
        with pytest.raises(ValueError):
            HardwareConfig(**{field: 0.0})

    def test_negative_overhead_rejected(self):
        with pytest.raises(ValueError):
            HardwareConfig(net_latency=-1e-6)

    def test_engine_count_rejected(self):
        with pytest.raises(ValueError):
            HardwareConfig(num_d2h_engines=0)

    def test_with_overrides(self, cfg):
        cfg2 = cfg.with_overrides(net_bandwidth=1e9)
        assert cfg2.net_bandwidth == 1e9
        assert cfg.net_bandwidth == 3.2e9  # original untouched

    def test_frozen(self, cfg):
        with pytest.raises(Exception):
            cfg.net_bandwidth = 1.0


class TestCalibrationAnchors:
    """The Section I-A / Figure 2 anchors from the paper (see DESIGN.md)."""

    def test_nc2nc_4kb_near_200us(self, cfg):
        # 4 KB vector of 4-byte elements, stride 2 elements: 1024 rows.
        t = cfg.memcpy2d_time(CopyKind.D2H, 4, 1024, 8, 8)
        assert 150e-6 < t < 250e-6

    def test_nc2c_4kb_near_281us(self, cfg):
        t = cfg.memcpy2d_time(CopyKind.D2H, 4, 1024, 8, 4)
        assert 230e-6 < t < 330e-6

    def test_nc2c_worse_than_nc2nc(self, cfg):
        """The paper's counter-intuitive measurement: packing into a
        contiguous host buffer via cudaMemcpy2D is slower than nc2nc."""
        nc2nc = cfg.memcpy2d_time(CopyKind.D2H, 4, 1024, 8, 8)
        nc2c = cfg.memcpy2d_time(CopyKind.D2H, 4, 1024, 8, 4)
        assert nc2c > nc2nc

    def test_d2d2h_4kb_near_35us(self, cfg):
        t = cfg.memcpy2d_time(CopyKind.D2D, 4, 1024, 8, 4) + cfg.memcpy_time(
            CopyKind.D2H, 4 * KiB
        )
        assert 20e-6 < t < 50e-6

    def test_d2d2h_fraction_at_4mb(self, cfg):
        """Paper: at 4 MB, D2D2H costs ~4.8% of D2H nc2nc."""
        rows = MiB
        nc2nc = cfg.memcpy2d_time(CopyKind.D2H, 4, rows, 8, 8)
        d2d2h = cfg.memcpy2d_time(CopyKind.D2D, 4, rows, 8, 4) + cfg.memcpy_time(
            CopyKind.D2H, 4 * MiB
        )
        assert 0.02 < d2d2h / nc2nc < 0.10

    def test_wide_pitch_rows_cost_more(self, cfg):
        """The pitch surcharge that produces the Figure 6 breakdown."""
        narrow = cfg.memcpy2d_time(CopyKind.D2H, 4, 8192, 8, 8)
        wide = cfg.memcpy2d_time(CopyKind.D2H, 4, 8192, 32 * KiB, 32 * KiB)
        assert wide > 5 * narrow


class TestMemcpyLaws:
    def test_zero_bytes_costs_overhead_only(self, cfg):
        assert cfg.memcpy_time(CopyKind.D2H, 0) == cfg.pcie_copy_overhead

    def test_negative_bytes_rejected(self, cfg):
        with pytest.raises(ValueError):
            cfg.memcpy_time(CopyKind.D2H, -1)

    def test_blocking_adds_sync_overhead(self, cfg):
        async_t = cfg.memcpy_time(CopyKind.D2H, KiB)
        block_t = cfg.memcpy_time(CopyKind.D2H, KiB, blocking=True)
        assert block_t == pytest.approx(async_t + cfg.cuda_sync_overhead)

    def test_d2d_uses_device_bandwidth(self, cfg):
        big = 64 * MiB
        t_d2d = cfg.memcpy_time(CopyKind.D2D, big)
        t_pcie = cfg.memcpy_time(CopyKind.D2H, big)
        assert t_d2d < t_pcie / 5

    def test_contiguous_2d_equals_1d(self, cfg):
        t2d = cfg.memcpy2d_time(CopyKind.D2H, 512, 8, 512, 512)
        t1d = cfg.memcpy_time(CopyKind.D2H, 4096)
        assert t2d == pytest.approx(t1d)

    def test_single_row_is_contiguous(self, cfg):
        t = cfg.memcpy2d_time(CopyKind.D2H, 512, 1, 4096, 4096)
        assert t == pytest.approx(cfg.memcpy_time(CopyKind.D2H, 512))

    def test_width_exceeding_pitch_rejected(self, cfg):
        with pytest.raises(ValueError):
            cfg.memcpy2d_time(CopyKind.D2H, 100, 4, 50, 100)

    def test_h2h_strided_matches_host_pack(self, cfg):
        t = cfg.memcpy2d_time(CopyKind.H2H, 8, 100, 64, 8)
        assert t == pytest.approx(cfg.host_pack_time(100, 800))

    @given(
        st.integers(min_value=1, max_value=MiB),
        st.integers(min_value=1, max_value=MiB),
    )
    def test_memcpy_monotone_in_size(self, a, b):
        cfg = HardwareConfig.fermi_qdr()
        small, large = min(a, b), max(a, b)
        for kind in CopyKind:
            assert cfg.memcpy_time(kind, small) <= cfg.memcpy_time(kind, large)

    @given(st.integers(min_value=1, max_value=4096))
    def test_strided_2d_never_cheaper_than_contiguous(self, rows):
        cfg = HardwareConfig.fermi_qdr()
        width = 16
        strided = cfg.memcpy2d_time(CopyKind.D2H, width, rows, 2 * width, 2 * width)
        contig = cfg.memcpy_time(CopyKind.D2H, width * rows)
        assert strided >= contig

    @given(
        st.sampled_from(list(CopyKind)),
        st.integers(min_value=1, max_value=1024),
        st.integers(min_value=1, max_value=1024),
    )
    def test_2d_monotone_in_height(self, kind, h1, h2):
        cfg = HardwareConfig.fermi_qdr()
        lo, hi = min(h1, h2), max(h1, h2)
        t_lo = cfg.memcpy2d_time(kind, 8, lo, 32, 32)
        t_hi = cfg.memcpy2d_time(kind, 8, hi, 32, 32)
        assert t_lo <= t_hi + 1e-15


class TestNetworkLaws:
    def test_rdma_time_components(self, cfg):
        t = cfg.rdma_time(MiB)
        assert t == pytest.approx(
            cfg.net_post_overhead + cfg.net_latency + MiB / cfg.net_bandwidth
        )

    def test_control_message_is_cheap(self, cfg):
        assert cfg.control_message_time() < 5e-6

    def test_kernel_time_scales_with_flops(self, cfg):
        t1 = cfg.kernel_time(1e6)
        t2 = cfg.kernel_time(2e6)
        assert t2 > t1
        assert cfg.kernel_time(0) == cfg.kernel_launch_overhead

    def test_negative_flops_rejected(self, cfg):
        with pytest.raises(ValueError):
            cfg.kernel_time(-1)


class TestPresets:
    def test_single_engine_preset(self):
        cfg = HardwareConfig.single_engine_gpu()
        assert cfg.shared_engines

    def test_fermi_preset_has_independent_engines(self):
        assert not HardwareConfig.fermi_qdr().shared_engines


class TestFabricPresets:
    def test_ddr_slower_than_qdr(self):
        qdr = HardwareConfig.fermi_qdr()
        ddr = HardwareConfig.fermi_ddr_ib()
        assert ddr.net_bandwidth < qdr.net_bandwidth
        assert ddr.net_latency > qdr.net_latency

    def test_roce_slowest(self):
        roce = HardwareConfig.fermi_roce()
        assert roce.net_bandwidth < HardwareConfig.fermi_ddr_ib().net_bandwidth

    def test_presets_share_pcie_model(self):
        """The PCIe side is identical across fabrics -- the point of the
        interconnect ablation."""
        qdr, roce = HardwareConfig.fermi_qdr(), HardwareConfig.fermi_roce()
        assert qdr.pcie_row_cost_nc2nc == roce.pcie_row_cost_nc2nc
        assert qdr.pcie_bandwidth == roce.pcie_bandwidth

"""Layout signatures: canonicalization, buckets, Datatype integration."""

import pytest

from repro.mpi import BYTE, Datatype
from repro.tune import LayoutSignature, size_bucket


class TestSizeBucket:
    def test_degenerate(self):
        assert size_bucket(0) == 1
        assert size_bucket(1) == 1

    def test_exact_powers(self):
        for p in (1, 4, 10, 16, 20):
            assert size_bucket(1 << p) == 1 << p

    def test_nearest_in_log_space(self):
        # 3 is closer to 4 than to 2 in log space (1.58 vs 1 and 2).
        assert size_bucket(3) == 4
        assert size_bucket(5) == 4
        assert size_bucket(6) == 8
        assert size_bucket(96 * 1024) == 128 * 1024

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            size_bucket(-1)


class TestKeyRoundtrip:
    @pytest.mark.parametrize(
        "sig",
        [
            LayoutSignature("contig"),
            LayoutSignature("uniform", width=4, pitch=8),
            LayoutSignature("irregular", width=0, nseg_class=7),
            LayoutSignature("irregular", width=16, nseg_class=3),
        ],
    )
    def test_roundtrip(self, sig):
        assert LayoutSignature.from_key(sig.key()) == sig

    @pytest.mark.parametrize(
        "key", ["", "bogus", "uniform:w4", "uniform:4:8", "irregular:wx:n3"]
    )
    def test_malformed_rejected(self, key):
        with pytest.raises(ValueError):
            LayoutSignature.from_key(key)


class TestDatatypeSignatures:
    """The satellite requirement: identical layouts share a signature,
    differing layouts never do -- across ``dup``/``resized`` derivation."""

    def test_contiguous_is_contig(self):
        sig = Datatype.contiguous(64, BYTE).commit().layout_signature(1)
        assert sig.kind == "contig"

    def test_hvector_is_uniform(self):
        vec = Datatype.hvector(128, 4, 8, BYTE).commit()
        sig = vec.layout_signature(1)
        assert sig == LayoutSignature("uniform", width=4, pitch=8)

    def test_dup_shares_signature(self):
        vec = Datatype.hvector(128, 4, 8, BYTE).commit()
        assert Datatype.dup(vec).layout_signature(1) == vec.layout_signature(1)

    def test_noop_resized_shares_signature(self):
        vec = Datatype.hvector(16, 4, 8, BYTE).commit()
        same = Datatype.resized(vec, vec.lb, vec.extent).commit()
        # count > 1 so the extent actually participates in the tiling.
        assert same.layout_signature(3) == vec.layout_signature(3)

    def test_resized_extent_changes_signature(self):
        vec = Datatype.hvector(16, 4, 8, BYTE).commit()
        padded = Datatype.resized(vec, vec.lb, vec.extent + 32).commit()
        assert padded.layout_signature(3) != vec.layout_signature(3)

    def test_different_pitch_differs(self):
        a = Datatype.hvector(64, 4, 8, BYTE).commit()
        b = Datatype.hvector(64, 4, 16, BYTE).commit()
        assert a.layout_signature(1) != b.layout_signature(1)

    def test_irregular_layout(self):
        idx = Datatype.hindexed([4, 8, 4], [0, 16, 40], BYTE).commit()
        sig = idx.layout_signature(1)
        assert sig.kind == "irregular"

    def test_signature_excludes_message_size(self):
        # Same shape at different element counts -> same signature (size
        # lives in the bucket, not the signature).
        small = Datatype.hvector(64, 4, 8, BYTE).commit()
        large = Datatype.hvector(4096, 4, 8, BYTE).commit()
        assert small.layout_signature(1) == large.layout_signature(1)

    def test_signature_cached(self):
        vec = Datatype.hvector(64, 4, 8, BYTE).commit()
        first = vec.layout_signature(1)
        assert vec.layout_signature(1) is first


class TestClassifierConsistency:
    """Regression: ``signature_of_segments`` reads ``SegmentList.uniform()``
    -- one classification, two views. The legacy pair could disagree on
    the edges (zero-width runs, single segments)."""

    def test_zero_width_multi_segment_irregular_everywhere(self):
        import numpy as np

        from repro.mpi import SegmentList
        from repro.tune.signature import signature_of_segments

        segs = SegmentList(
            np.array([0, 8], np.int64), np.array([0, 0], np.int64)
        )
        # The old uniform classifier accepted width == 0 with count > 1
        # while the signature side called it irregular -- a 2-D copy of
        # zero-width rows is meaningless, so both must refuse now.
        assert segs.uniform() is None
        assert signature_of_segments(segs).kind == "irregular"

    def test_single_segment_contig_with_degenerate_uniform_view(self):
        import numpy as np

        from repro.mpi import SegmentList
        from repro.tune.signature import signature_of_segments

        segs = SegmentList(np.array([8], np.int64), np.array([16], np.int64))
        # One run IS a 1-row 2-D copy (the pack fast path wants the
        # tuple) but its tuning kind is "contig", not "uniform".
        assert segs.uniform() == (16, 1, 16)
        assert signature_of_segments(segs).kind == "contig"

    def test_empty_layout(self):
        import numpy as np

        from repro.mpi import SegmentList
        from repro.tune.signature import signature_of_segments

        segs = SegmentList(
            np.array([], np.int64), np.array([], np.int64)
        )
        assert segs.uniform() is None
        assert signature_of_segments(segs).kind == "contig"


class TestFanoutBucket:
    def test_degenerate(self):
        from repro.tune import fanout_bucket

        assert fanout_bucket(0) == 1
        assert fanout_bucket(1) == 1
        with pytest.raises(ValueError):
            fanout_bucket(-1)

    def test_exact_powers(self):
        from repro.tune import fanout_bucket

        for p in range(11):
            assert fanout_bucket(1 << p) == 1 << p

    def test_nearest_in_log_space(self):
        from repro.tune import fanout_bucket

        assert fanout_bucket(3) == 4   # log2(3)=1.58 rounds up
        assert fanout_bucket(5) == 4   # log2(5)=2.32 rounds down
        assert fanout_bucket(6) == 8   # log2(6)=2.58 rounds up
        assert fanout_bucket(48) == 64

    def test_coll_context_shape(self):
        from repro.tune import coll_context

        assert coll_context(4) == "coll:f4"
        assert coll_context(6) == "coll:f8"
        # Context strings ride inside |-separated entry keys.
        assert "|" not in coll_context(1024)

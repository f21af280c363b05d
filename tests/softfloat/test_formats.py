"""FloatFormat geometry and landmark encodings."""

import dataclasses
import pickle
import types

import pytest

from repro.errors import FormatError
from repro.softfloat.formats import (
    BFLOAT16,
    BINARY16,
    BINARY32,
    BINARY64,
    BINARY128,
    STANDARD_FORMATS,
    TINY8,
    FloatFormat,
)


class TestGeometry:
    def test_binary64_dimensions(self):
        assert BINARY64.exp_bits == 11
        assert BINARY64.precision == 53
        assert BINARY64.frac_bits == 52
        assert BINARY64.width == 64
        assert BINARY64.bias == 1023
        assert BINARY64.emax == 1023
        assert BINARY64.emin == -1022

    def test_binary32_dimensions(self):
        assert BINARY32.width == 32
        assert BINARY32.bias == 127
        assert BINARY32.emin == -126

    def test_binary16_dimensions(self):
        assert BINARY16.width == 16
        assert BINARY16.bias == 15

    def test_binary128_dimensions(self):
        assert BINARY128.width == 128
        assert BINARY128.precision == 113

    def test_bfloat16_shares_binary32_exponent_range(self):
        assert BFLOAT16.exp_bits == BINARY32.exp_bits
        assert BFLOAT16.width == 16

    def test_standard_formats_widths_are_powers_of_two(self):
        assert [f.width for f in STANDARD_FORMATS] == [16, 32, 64, 128]

    def test_derived_masks(self):
        assert BINARY64.sig_mask == (1 << 52) - 1
        assert BINARY64.hidden_bit == 1 << 52
        assert BINARY64.quiet_bit == 1 << 51
        assert BINARY64.max_biased_exp == 2047

    def test_auto_name(self):
        assert FloatFormat(4, 4).name == "E4M3"

    def test_invalid_formats_rejected(self):
        with pytest.raises(FormatError):
            FloatFormat(1, 8)
        with pytest.raises(FormatError):
            FloatFormat(8, 1)


class TestPackUnpack:
    def test_pack_unpack_roundtrip(self):
        bits = BINARY64.pack(1, 1023, 42)
        assert BINARY64.unpack(bits) == (1, 1023, 42)

    def test_pack_rejects_out_of_range_fields(self):
        with pytest.raises(FormatError):
            BINARY64.pack(2, 0, 0)
        with pytest.raises(FormatError):
            BINARY64.pack(0, 2048, 0)
        with pytest.raises(FormatError):
            BINARY64.pack(0, 0, 1 << 52)

    def test_unpack_rejects_out_of_range_bits(self):
        with pytest.raises(FormatError):
            BINARY64.unpack(1 << 64)

    def test_one_bits_matches_host(self):
        import struct

        host_bits = struct.unpack("<Q", struct.pack("<d", 1.0))[0]
        assert BINARY64.one_bits() == host_bits

    def test_landmark_bits_match_host_double(self):
        import struct

        for value, bits_fn in [
            (float("inf"), lambda: BINARY64.inf_bits(0)),
            (-float("inf"), lambda: BINARY64.inf_bits(1)),
            (0.0, lambda: BINARY64.zero_bits(0)),
            (-0.0, lambda: BINARY64.zero_bits(1)),
            (1.7976931348623157e308, lambda: BINARY64.max_finite_bits()),
            (2.2250738585072014e-308, lambda: BINARY64.min_normal_bits()),
            (5e-324, lambda: BINARY64.min_subnormal_bits()),
        ]:
            host = struct.unpack("<Q", struct.pack("<d", value))[0]
            assert bits_fn() == host, value

    def test_signaling_nan_payload_validation(self):
        with pytest.raises(FormatError):
            BINARY64.signaling_nan_bits(payload=0)
        with pytest.raises(FormatError):
            BINARY64.signaling_nan_bits(payload=BINARY64.quiet_bit)


class TestLandmarkValues:
    def test_max_finite_value_binary64(self):
        mant, exp2 = BINARY64.max_finite_value
        assert mant * 2.0**exp2 == 1.7976931348623157e308

    def test_min_subnormal_value_binary64(self):
        mant, exp2 = BINARY64.min_subnormal_value
        assert mant * 2.0**exp2 == 5e-324

    def test_ulp_of_one_is_machine_epsilon(self):
        mant, exp2 = BINARY64.ulp_of_one
        assert mant * 2.0**exp2 == 2.0**-52

    def test_tiny_format_is_exhaustible(self):
        assert 1 << TINY8.width == 64


class TestDefiningFields:
    """Derived geometry is cached on each instance, but only the three
    defining fields may reach ``repr``, ``==``/``hash`` and pickles:
    ``repr`` feeds canonical task specs and so every engine cache key."""

    def test_fields_repr_eq_hash_pickle(self):
        assert [f.name for f in dataclasses.fields(FloatFormat)] == [
            "exp_bits", "precision", "name"]
        assert repr(BINARY64) == (
            "FloatFormat(exp_bits=11, precision=53, name='binary64')")
        assert repr(FloatFormat(4, 6)) == (
            "FloatFormat(exp_bits=4, precision=6, name='E4M5')")
        twin = FloatFormat(11, 53, "binary64")
        assert twin == BINARY64 and hash(twin) == hash(BINARY64)
        assert FloatFormat(11, 53, "other") != BINARY64
        for fmt in (TINY8, BINARY16, BFLOAT16, BINARY64, BINARY128):
            loaded = pickle.loads(pickle.dumps(fmt))
            assert loaded == fmt and repr(loaded) == repr(fmt)
            assert (loaded.width, loaded.emin, loaded.sig_mask) == (
                fmt.width, fmt.emin, fmt.sig_mask)
        with pytest.raises(dataclasses.FrozenInstanceError):
            BINARY64.frac_bits = 3  # type: ignore[misc]

    def test_golden_sweep_shard_spec_and_cache_key(self, monkeypatch):
        from repro.engine import cache
        from repro.engine.adapters import run_conformance_sharded

        monkeypatch.setattr(cache, "machine_fingerprint", lambda: {
            "code_version": "0", "python": "3", "implementation": "CPython",
            "platform": "Linux", "machine": "x86_64",
        })

        class Capture:
            config = types.SimpleNamespace(workers=2)

            def run(self, job):
                self.job = job

        engine = Capture()
        run_conformance_sharded(
            BINARY64, ["add", "mul", "div", "sqrt", "fma"], engine,
            budget=5000, seed=1234, env_combos=((False, False), (True, True)),
            engine_backend="auto",
        )
        shard = engine.job.shards[0]
        assert shard.spec.canonical() == (
            '{"params":{"budget":5000,"case_hi":125,"case_lo":0,'
            '"engine_backend":"auto","env_combos":[[false,false],'
            '[true,true]],"format":"binary64","max_discrepancies":100,'
            '"modes":["nearest-even","nearest-away","toward-zero",'
            '"toward-positive","toward-negative"],"native":true,'
            '"op":"add","seed":1234,"tininess":"before"},'
            '"task":"oracle.op_slice"}')
        assert shard.seed == 1939743234230593540
        assert cache.cache_key(shard.spec.canonical(), shard.seed) == (
            "c4ea3a5df85e0c23832791f343c3cf01"
            "d8247180284d306f7b3b3496f45f5ce3")

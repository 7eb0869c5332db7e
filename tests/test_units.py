"""Unit tests for size parsing and power-of-two helpers."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import ConfigError
from repro.common.units import (
    format_size,
    is_pow2,
    log2_exact,
    parse_size,
)


class TestParseSize:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("8K", 8192),
            ("8k", 8192),
            ("8KB", 8192),
            ("8KiB", 8192),
            ("512K", 512 * 1024),
            ("2M", 2 * 1024 * 1024),
            ("1G", 1024**3),
            ("64", 64),
            ("0", 0),
            ("1.5K", 1536),
        ],
    )
    def test_strings(self, text, expected):
        assert parse_size(text) == expected

    def test_int_passthrough(self):
        assert parse_size(4096) == 4096

    def test_negative_int_rejected(self):
        with pytest.raises(ConfigError):
            parse_size(-1)

    def test_bool_rejected(self):
        with pytest.raises(ConfigError):
            parse_size(True)

    @pytest.mark.parametrize("bad", ["", "K", "8Q", "8 K B", "1.2.3K", "-8K"])
    def test_garbage_rejected(self, bad):
        with pytest.raises(ConfigError):
            parse_size(bad)

    def test_fractional_bytes_rejected(self):
        with pytest.raises(ConfigError):
            parse_size("1.0001K")


class TestFormatSize:
    @pytest.mark.parametrize(
        "n,expected",
        [(8192, "8K"), (524288, "512K"), (64, "64B"), (1024**2, "1M"), (0, "0B"),
         (1024**3, "1G"), (1536, "1536B")],
    )
    def test_format(self, n, expected):
        assert format_size(n) == expected

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            format_size(-5)

    @given(st.integers(min_value=0, max_value=2**40))
    def test_roundtrip(self, n):
        assert parse_size(format_size(n)) == n


class TestPow2:
    def test_is_pow2(self):
        assert is_pow2(1) and is_pow2(64) and is_pow2(1 << 30)
        assert not is_pow2(0) and not is_pow2(-4) and not is_pow2(48)

    def test_log2_exact(self):
        assert log2_exact(64) == 6
        assert log2_exact(1) == 0
        with pytest.raises(ConfigError):
            log2_exact(48)

    @given(st.integers(min_value=0, max_value=62))
    def test_log2_roundtrip(self, e):
        assert log2_exact(1 << e) == e

"""The glibc malloc-threshold pin applied when ``repro.nn`` is imported."""

import os
import sys

import pytest

from repro.nn import allocator


def _on_glibc():
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not (sys.platform.startswith("linux") and _on_glibc()),
                    reason="the pin only applies on glibc Linux")
def test_pin_applies_on_glibc_linux():
    assert allocator.pin_malloc_thresholds() is True


def test_pin_is_a_noop_without_glibc(monkeypatch):
    def confstr(name):
        raise ValueError(f"unrecognized configuration name {name!r}")

    def no_libc(*args, **kwargs):
        raise AssertionError("mallopt must not be looked up off glibc")

    monkeypatch.setattr(allocator.os, "confstr", confstr)
    monkeypatch.setattr(allocator.ctypes, "CDLL", no_libc)
    assert allocator.pin_malloc_thresholds() is False

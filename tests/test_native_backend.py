"""Native C backend: toolchain, on-disk cache, fallback, telemetry.

Covers the pieces the four-engine equivalence sweeps do not: compiler
discovery and its ``$CC`` override, digest-addressed ``.so``
persistence across processes, schema-version invalidation, corrupt
artifact recovery, LRU eviction, the single-warning degradation to the
compiled backend on toolchain-less hosts, and the Prometheus schema of
the native cache counters.
"""

import os
import subprocess
import sys
import warnings

import pytest

import repro.native as native
from repro.native import (NATIVE_SCHEMA_VERSION, NativeFallbackWarning,
                          build_shared_object, compile_and_load,
                          find_compiler, resolve_backend, source_digest,
                          toolchain_available, toolchain_info)
from repro.obs.metrics import REGISTRY

HAVE_CC = toolchain_available()
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C toolchain")

SOURCE = """
#include <stdint.h>
int64_t triple(int64_t x) { return 3 * x; }
"""

CDEF = "int64_t triple(int64_t x);"


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """An isolated on-disk cache with pinned flags for stable digests."""
    monkeypatch.setenv("REPRO_NATIVE_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_NATIVE_CFLAGS", "-O1")
    return tmp_path


@pytest.fixture
def no_toolchain(monkeypatch):
    """Hide every C compiler; restore the probe cache afterwards."""
    monkeypatch.setenv("PATH", "")
    monkeypatch.setenv("CC", "")
    native._reset_toolchain_cache()
    yield
    native._reset_toolchain_cache()


def _counter_value(name, **labels):
    return REGISTRY.counter(name, **labels).value


# ------------------------------------------------------------ discovery
def test_toolchain_info_shape():
    info = toolchain_info()
    assert set(info) == {"available", "compiler", "loader", "cflags",
                         "schema_version"}
    assert info["schema_version"] == NATIVE_SCHEMA_VERSION
    assert info["loader"] in ("cffi", "ctypes")


@needs_cc
def test_cc_env_override(monkeypatch):
    compiler = find_compiler()
    monkeypatch.setenv("CC", compiler)
    native._reset_toolchain_cache()
    try:
        assert find_compiler() == compiler
    finally:
        native._reset_toolchain_cache()


# ------------------------------------------------------- on-disk cache
@needs_cc
def test_compile_load_and_call(cache_dir):
    mod = compile_and_load(SOURCE, CDEF, tag="t")
    assert mod.fn("triple")(14) == 42


@needs_cc
def test_disk_cache_hit_and_counters(cache_dir):
    misses0 = _counter_value("repro_native_disk_cache_misses_total")
    hits0 = _counter_value("repro_native_disk_cache_hits_total")
    bytes0 = _counter_value("repro_native_source_bytes_total")
    path1 = build_shared_object(SOURCE, tag="t")
    path2 = build_shared_object(SOURCE, tag="t")
    assert path1 == path2
    assert os.path.dirname(path1) == str(cache_dir)
    assert _counter_value("repro_native_disk_cache_misses_total") \
        == misses0 + 1
    assert _counter_value("repro_native_disk_cache_hits_total") == hits0 + 1
    assert _counter_value("repro_native_source_bytes_total") \
        == bytes0 + len(SOURCE)
    # exactly one artifact pair on disk
    assert len([f for f in os.listdir(cache_dir)
                if f.endswith(".so")]) == 1


@needs_cc
def test_digest_stable_across_processes(cache_dir):
    """A second process maps identical source to the identical .so."""
    parent = build_shared_object(SOURCE, tag="t")
    code = (
        "import repro.native as n; import sys; "
        "sys.stdout.write(n.build_shared_object(%r, tag='t'))" % SOURCE
    )
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(sys.path))
    child = subprocess.run([sys.executable, "-c", code],
                           capture_output=True, text=True, env=env)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == parent
    # the child reused the artifact instead of writing a second one
    assert len([f for f in os.listdir(cache_dir)
                if f.endswith(".so")]) == 1


@needs_cc
def test_schema_bump_invalidates(cache_dir, monkeypatch):
    old = source_digest(SOURCE)
    path_v1 = build_shared_object(SOURCE, tag="t")
    monkeypatch.setattr(native, "NATIVE_SCHEMA_VERSION",
                        NATIVE_SCHEMA_VERSION + 1)
    assert source_digest(SOURCE) != old
    path_v2 = build_shared_object(SOURCE, tag="t")
    assert path_v2 != path_v1
    assert len([f for f in os.listdir(cache_dir)
                if f.endswith(".so")]) == 2


@needs_cc
def test_corrupt_artifact_recompiles(cache_dir):
    path = build_shared_object(SOURCE, tag="t")
    with open(path, "wb") as fh:
        fh.write(b"\x7fNOT-AN-ELF-AT-ALL")
    errors0 = _counter_value("repro_native_disk_cache_errors_total")
    mod = compile_and_load(SOURCE, CDEF, tag="t")
    assert mod.fn("triple")(1) == 3
    assert _counter_value("repro_native_disk_cache_errors_total") \
        == errors0 + 1


@needs_cc
def test_lru_eviction(cache_dir, monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE_CACHE_MAX", "2")
    evict0 = _counter_value("repro_native_disk_cache_evictions_total")
    for k in range(3):
        src = SOURCE.replace("3 * x", f"{k + 5} * x")
        build_shared_object(src, tag="t")
    assert len([f for f in os.listdir(cache_dir)
                if f.endswith(".so")]) == 2
    assert _counter_value("repro_native_disk_cache_evictions_total") \
        > evict0


@needs_cc
def test_u64_view_aliases_buffer(cache_dir):
    mod = compile_and_load(SOURCE, CDEF, tag="t")
    buf = mod.u64_buffer([1, 2, 3])
    view = mod.u64_view(buf)
    view[1] = 77
    assert buf[1] == 77
    buf[2] = 9
    assert view[2] == 9


# --------------------------------------------------------- degradation
def test_resolve_backend_passthrough():
    assert resolve_backend("compiled") == "compiled"
    assert resolve_backend("vectorized") == "vectorized"
    assert resolve_backend("interpreted") == "interpreted"


def test_fallback_warns_once_and_counts(no_toolchain):
    assert not toolchain_available()
    fall0 = _counter_value("repro_native_fallback_total")
    with pytest.warns(NativeFallbackWarning):
        assert resolve_backend("native") == "compiled"
    # the warning fires once per process; the counter counts every use
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert resolve_backend("native") == "compiled"
    assert _counter_value("repro_native_fallback_total") == fall0 + 2


def test_simulators_degrade_without_toolchain(no_toolchain):
    from repro.rtl import RtlModule, RtlSimulator

    m = RtlModule("m")
    m.output("y", m.input("x", 4))
    with pytest.warns(NativeFallbackWarning):
        sim = RtlSimulator(m, backend="native")
    assert sim.backend == "compiled"
    sim.set_input("x", 9)
    sim.step()
    assert sim.get("y") == 9

    # each level resolves the engine once: one fallback per construction
    from repro.gatesim import GateSimulator
    from repro.src_design.behavioral import BehavioralSimulation
    from repro.src_design.params import SMALL_PARAMS
    from repro.synth.netlist import Netlist

    nl = Netlist("n")
    nl.set_output("y", nl.add_input("a", 1))
    builds = {
        "gate": lambda: GateSimulator(nl, backend="native"),
        "rtl": lambda: RtlSimulator(m, backend="native"),
        "beh": lambda: BehavioralSimulation(SMALL_PARAMS,
                                            backend="native"),
    }
    for level, build in builds.items():
        fall0 = _counter_value("repro_native_fallback_total")
        sim = build()
        assert sim.backend == "compiled", level
        assert _counter_value("repro_native_fallback_total") == \
            fall0 + 1, level


@needs_cc
def test_gate_native_pattern_cap():
    from repro.gatesim import GateSimError, GateSimulator
    from repro.synth.netlist import Netlist

    nl = Netlist("n")
    a = nl.add_input("a", 1)[0]
    nl.set_output("y", [a])
    with pytest.raises(GateSimError):
        GateSimulator(nl, backend="native", n_patterns=65)
    sim = GateSimulator(nl, backend="native", n_patterns=64)
    sim.set_input_patterns("a", [p & 1 for p in range(64)])
    sim.step()
    assert sim.get_patterns("y") == [p & 1 for p in range(64)]


# ----------------------------------------------------------- telemetry
@needs_cc
def test_prometheus_native_cache_rows(cache_dir):
    """Schema lock: the shared CompileCache exposition carries
    ``backend="native"`` rows once a native engine has compiled."""
    from repro.rtl import RtlModule, RtlSimulator

    m = RtlModule("prom_native")
    x = m.input("x", 8)
    m.output("y", x)
    RtlSimulator(m, backend="native")
    text = REGISTRY.to_prometheus()
    for family in ("repro_compile_cache_hits_total",
                   "repro_compile_cache_misses_total",
                   "repro_compile_cache_evictions_total"):
        assert f'{family}{{backend="native",cache="rtl"}}' in text, family
    assert "repro_native_disk_cache_misses_total" in text
    assert "repro_native_source_bytes_total" in text

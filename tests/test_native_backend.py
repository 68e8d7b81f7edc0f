"""Native C backend: toolchain, on-disk cache, fallback, telemetry.

Covers the pieces the four-engine equivalence sweeps do not: compiler
discovery and its ``$CC`` override, digest-addressed ``.so``
persistence across processes, schema-version invalidation, corrupt
artifact recovery, LRU eviction, multi-unit parallel builds (failure
clean-up, concurrent builders, the gate kernel's unit split), the
single-warning degradation to the compiled backend on toolchain-less
hosts, and the Prometheus schema of the native cache counters.
"""

import ctypes
import os
import re
import subprocess
import sys
import time
import warnings

import pytest

import repro.native as native
from repro.native import (NATIVE_SCHEMA_VERSION, NativeFallbackWarning,
                          NativeToolchainError, build_shared_object,
                          compile_and_load, find_compiler, join_units,
                          resolve_backend, source_digest,
                          toolchain_available, toolchain_info)
from repro.obs.metrics import REGISTRY

HAVE_CC = toolchain_available()
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C toolchain")

SOURCE = """
#include <stdint.h>
int64_t triple(int64_t x) { return 3 * x; }
"""

CDEF = "int64_t triple(int64_t x);"

#: a driver unit calling into two hidden helpers, one per unit
HIDDEN = '__attribute__((visibility("hidden")))'
UNITS = (
    "#include <stdint.h>\n"
    f"{HIDDEN} int64_t twice(int64_t x);\n"
    f"{HIDDEN} int64_t square(int64_t x);\n"
    "int64_t combo(int64_t x) { return twice(x) + square(x); }\n",
    f"#include <stdint.h>\n{HIDDEN} int64_t twice(int64_t x) "
    "{ return 2 * x; }\n",
    f"#include <stdint.h>\n{HIDDEN} int64_t square(int64_t x) "
    "{ return x * x; }\n",
)

UNITS_CDEF = "int64_t combo(int64_t x);"


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


def _artifact_pair(so_path):
    """What one build leaves in the cache: the .so and the joined .c."""
    name = os.path.basename(so_path)
    return sorted([name, name[:-3] + ".c"])


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
def test_multi_unit_build_load_call(cache_dir):
    mod = compile_and_load(UNITS, UNITS_CDEF, tag="t")
    assert mod.fn("combo")(5) == 35
    # the helpers link across units but are not exported
    lib = ctypes.CDLL(mod.path)
    assert not hasattr(lib, "twice") and not hasattr(lib, "square")
    assert sorted(os.listdir(cache_dir)) == _artifact_pair(mod.path)
    with open(mod.path[:-3] + ".c") as fh:
        assert fh.read() == join_units(UNITS)
    assert source_digest(UNITS) == source_digest(join_units(UNITS))


@needs_cc
def test_unit_compile_error_cleans_up(cache_dir):
    broken = (UNITS[0], UNITS[1].replace("return", "retrun"), UNITS[2])
    errors0 = _counter_value("repro_native_disk_cache_errors_total")
    with pytest.raises(NativeToolchainError):
        build_shared_object(broken, tag="t")
    assert _counter_value("repro_native_disk_cache_errors_total") \
        == errors0 + 1
    # no objects, temporaries or private build directories left behind
    assert os.listdir(cache_dir) == []


_RACE_CHILD = """
import ctypes, os, sys, time
import repro.native as n
go = sys.argv[1]
while not os.path.exists(go):
    time.sleep(0.002)
path = n.build_shared_object(%r, tag="t")
assert ctypes.CDLL(path).combo(3) == 15
sys.stdout.write(path)
"""


@needs_cc
def test_concurrent_multi_unit_builders(cache_dir, tmp_path_factory):
    """Two processes building one multi-unit key both get a .so."""
    go = str(tmp_path_factory.mktemp("race") / "go")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    children = [
        subprocess.Popen([sys.executable, "-c", _RACE_CHILD % (UNITS,),
                          go], stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True, env=env)
        for _ in range(2)]
    time.sleep(0.5)  # both children are importing or polling by now
    open(go, "w").close()
    paths = []
    for child in children:
        out, err = child.communicate(timeout=120)
        assert child.returncode == 0, err
        paths.append(out.strip())
    assert paths[0] == paths[1]
    assert sorted(os.listdir(cache_dir)) == _artifact_pair(paths[0])


@needs_cc
def test_gate_overlay_kernel_splits_into_units(cache_dir):
    """The fi-gate overlay kernel builds from several units and runs
    bit-identical to the compiled engine over one stimulus case."""
    from repro.fi.campaign import (_drive_workload_inputs,
                                   _resolve_frames,
                                   build_campaign_netlist, make_workload)
    from repro.fi.faultload import generate_gate_faultload
    from repro.fi.faults import build_overlay, control_name
    from repro.gatesim import GateSimulator, NativeGateSimulator
    from repro.gatesim.native import _generate_c_source
    from repro.src_design.params import SMALL_PARAMS

    netlist = build_campaign_netlist(SMALL_PARAMS)
    workload = make_workload(SMALL_PARAMS, 7, "smoke")
    faults = generate_gate_faultload(netlist, 63, 7,
                                     workload.cycle_budget)
    overlay = build_overlay(netlist, faults).netlist
    assert len(_generate_c_source(overlay)[0]) > 1

    n = len(faults) + 1
    nat = GateSimulator(overlay, backend="native", n_patterns=n)
    comp = GateSimulator(overlay, backend="compiled", n_patterns=n)
    assert isinstance(nat, NativeGateSimulator)
    by_tick = _resolve_frames(workload)
    for tick in range(workload.cycle_budget):
        for sim in (nat, comp):
            _drive_workload_inputs(sim, by_tick.get(tick, ()))
            for b, fault in enumerate(faults):
                if fault.structural:
                    values = [0] * n
                    values[b + 1] = int(fault.active(tick))
                    sim.set_input_patterns(control_name(fault), values)
            sim.step()
        for port in overlay.outputs:
            assert nat.get_port_planes(port) == \
                comp.get_port_planes(port), (tick, port)


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

    def compile_count(text):
        found = re.search(r'^repro_native_compile_seconds_count'
                          r'\{tag="rtl"\} (\S+)$', text, re.M)
        return float(found.group(1)) if found else 0.0

    m = RtlModule("prom_native")
    x = m.input("x", 8)
    m.output("y", x)
    builds0 = compile_count(REGISTRY.to_prometheus())
    RtlSimulator(m, backend="native")
    text = REGISTRY.to_prometheus()
    for family in ("repro_compile_cache_hits_total",
                   "repro_compile_cache_misses_total",
                   "repro_compile_cache_evictions_total"):
        assert f'{family}{{backend="native",cache="rtl"}}' in text, family
    assert "repro_native_disk_cache_misses_total" in text
    assert "repro_native_source_bytes_total" in text
    # one disk-cache miss, one compile-seconds observation
    assert "# TYPE repro_native_compile_seconds histogram" in text
    assert compile_count(text) == builds0 + 1

"""Host C toolchain support for the native simulation backends.

The ``backend="native"`` engines (:mod:`repro.gatesim.native`,
:mod:`repro.rtl.native`, :mod:`repro.hls.native`) emit plain C99
source, compile it into a shared object with whatever C compiler the
host offers, and call into it through cffi (ABI mode) when cffi is
importable, or ctypes otherwise.  This module holds everything the
three emitters share:

* **toolchain discovery** -- ``$CC`` first, then ``cc``/``gcc``/
  ``clang`` on ``$PATH``, cached per process;
* **a parallel build** -- a kernel may arrive as several C
  translation units, compiled concurrently and linked into one
  shared object;
* **an on-disk shared-object cache** keyed by a digest of (schema
  version, compiler, flags, source), so recompiles survive process
  restarts.  Corrupt or stale artifacts fall back to a recompile, the
  directory is LRU-bounded by mtime, and hit/miss/eviction/error and
  source-byte counters plus a per-tag compile-seconds histogram flow
  into the :mod:`repro.obs` metrics registry;
* **graceful degradation** -- :func:`resolve_backend` maps ``native``
  to ``compiled`` with a single :class:`NativeFallbackWarning` and a
  ``repro_native_fallback_total`` telemetry increment when no C
  compiler is present, so CI and bare environments keep working.

Nothing here imports numpy or the simulators; it is a leaf module.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import re
import shutil
import subprocess
import tempfile
import time
import warnings
from typing import Dict, List, Optional, Sequence, Tuple, Union

__all__ = [
    "ENGINES", "NATIVE_SCHEMA_VERSION", "NativeFallbackWarning",
    "NativeModule",
    "NativeToolchainError", "build_shared_object", "compile_and_load",
    "adaptive_cflags", "find_compiler", "join_units", "native_cache_dir",
    "native_cflags",
    "resolve_backend", "resolve_engine", "toolchain_available",
    "toolchain_info",
]

#: bump to invalidate every on-disk artifact (ABI or codegen changes)
NATIVE_SCHEMA_VERSION = 1

#: candidate compiler names probed on $PATH, in order
_COMPILER_CANDIDATES = ("cc", "gcc", "clang")

#: environment knobs
ENV_CC = "CC"
ENV_CACHE_DIR = "REPRO_NATIVE_CACHE_DIR"
ENV_CACHE_MAX = "REPRO_NATIVE_CACHE_MAX"
ENV_CFLAGS = "REPRO_NATIVE_CFLAGS"


class NativeToolchainError(RuntimeError):
    """No usable C toolchain, or a compile/load step failed twice."""


class NativeFallbackWarning(UserWarning):
    """``backend="native"`` silently degraded to ``compiled``."""


# ----------------------------------------------------------------------
# toolchain discovery
# ----------------------------------------------------------------------
#: (probed, compiler-or-None) -- cached per process
_COMPILER: List[Optional[str]] = [None]
_PROBED: List[bool] = [False]


def find_compiler() -> Optional[str]:
    """Absolute path of the host C compiler, or ``None``.

    ``$CC`` wins when set and resolvable; otherwise the first of
    ``cc``/``gcc``/``clang`` found on ``$PATH``.  The probe result is
    cached; tests reset it via :func:`_reset_toolchain_cache`.
    """
    if _PROBED[0]:
        return _COMPILER[0]
    found: Optional[str] = None
    env_cc = os.environ.get(ENV_CC, "").strip()
    if env_cc:
        found = shutil.which(env_cc)
    if found is None:
        for name in _COMPILER_CANDIDATES:
            found = shutil.which(name)
            if found:
                break
    _COMPILER[0] = found
    _PROBED[0] = True
    return found


def _reset_toolchain_cache() -> None:
    """Forget the cached compiler probe (test hook)."""
    _COMPILER[0] = None
    _PROBED[0] = False
    _WARNED_FALLBACK[0] = False


def toolchain_available() -> bool:
    """True when a C compiler was found on this host."""
    return find_compiler() is not None


def _loader_kind() -> str:
    try:
        import cffi  # noqa: F401
        return "cffi"
    except ImportError:
        return "ctypes"


def native_cflags() -> List[str]:
    """Compiler flags: ``$REPRO_NATIVE_CFLAGS`` or ``-O2``."""
    env = os.environ.get(ENV_CFLAGS, "").strip()
    if env:
        return env.split()
    return ["-O2"]


def adaptive_cflags(source: str) -> List[str]:
    """Size-aware flags: big kernels drop the opt level.

    The gate kernel's settle cone is emitted as several translation
    units (one per chunk, see :func:`build_shared_object`), so no
    single function grows past a few hundred lines; what still grows
    with the netlist is the total optimiser work.  Kernels whose
    joined source passes 256 KiB therefore fall to ``-O1`` and past
    1 MiB to ``-O0`` -- still far ahead of the Python engines.
    ``$REPRO_NATIVE_CFLAGS`` overrides unconditionally.
    """
    if os.environ.get(ENV_CFLAGS, "").strip():
        return native_cflags()
    if len(source) > (1 << 20):
        return ["-O0"]
    if len(source) > (256 << 10):
        return ["-O1"]
    return ["-O2"]


def toolchain_info() -> Dict[str, object]:
    """One-line description of the toolchain (CLI / artifact metadata)."""
    return {
        "available": toolchain_available(),
        "compiler": find_compiler(),
        "loader": _loader_kind(),
        "cflags": " ".join(native_cflags()),
        "schema_version": NATIVE_SCHEMA_VERSION,
    }


# ----------------------------------------------------------------------
# graceful degradation
# ----------------------------------------------------------------------
_WARNED_FALLBACK: List[bool] = [False]


def _registry():
    """The :mod:`repro.obs` metrics registry, or ``None`` without it."""
    try:
        from .obs.metrics import REGISTRY
    except ImportError:  # pragma: no cover - leaf-safety guard
        return None
    return REGISTRY


def _count(name: str, help_text: str = "", **labels) -> None:
    registry = _registry()
    if registry is not None:
        registry.counter(name, help=help_text, **labels).inc()


def resolve_backend(backend: str) -> str:
    """Map ``native`` to ``compiled`` when no C toolchain is present.

    Emits one :class:`NativeFallbackWarning` per process and counts the
    degradation in ``repro_native_fallback_total`` so dashboards see
    hosts that silently lost the native tier.  Every other backend name
    passes through unchanged.
    """
    if backend != "native" or toolchain_available():
        return backend
    _count("repro_native_fallback_total",
           "native backend degraded to compiled (no C toolchain)")
    if not _WARNED_FALLBACK[0]:
        _WARNED_FALLBACK[0] = True
        warnings.warn(
            "no C compiler found (tried $CC, cc, gcc, clang): "
            "backend=\"native\" falling back to \"compiled\"",
            NativeFallbackWarning, stacklevel=2)
    return "compiled"


#: every simulation engine of the clocked levels (behavioural, RTL, gate)
ENGINES = ("interpreted", "compiled", "vectorized", "native")


def resolve_engine(backend: str, error=ValueError) -> str:
    """Check an engine name against :data:`ENGINES`, then resolve it.

    The single step each level's engine factory takes: an unknown name
    raises *error*, and ``native`` degrades per :func:`resolve_backend`.
    """
    if backend not in ENGINES:
        raise error(
            f"unknown backend {backend!r} (expected one of {ENGINES})")
    return resolve_backend(backend)


# ----------------------------------------------------------------------
# on-disk shared-object cache
# ----------------------------------------------------------------------
def native_cache_dir() -> str:
    """The shared-object cache directory (created on demand).

    ``$REPRO_NATIVE_CACHE_DIR`` wins; the default lives under
    ``~/.cache/repro/native`` with a per-user tempdir fallback for
    homeless environments.
    """
    path = os.environ.get(ENV_CACHE_DIR, "").strip()
    if not path:
        path = os.path.join(os.path.expanduser("~"), ".cache", "repro",
                            "native")
    try:
        os.makedirs(path, exist_ok=True)
    except OSError:
        path = os.path.join(tempfile.gettempdir(),
                            f"repro-native-{os.getuid()}")
        os.makedirs(path, exist_ok=True)
    return path


def _cache_max_entries() -> int:
    try:
        return max(1, int(os.environ.get(ENV_CACHE_MAX, "64")))
    except ValueError:
        return 64


#: separator between translation units in a kernel's joined source
_UNIT_BREAK = "\n/* ---- next translation unit ---- */\n"

Units = Union[str, Sequence[str]]


def join_units(source: Units) -> str:
    """One C text for *source*: a single unit, or units in order.

    The joined text is what the digest, the size-aware flags and the
    ``.c`` artifact next to each ``.so`` see.  A single unit joins to
    itself.
    """
    if isinstance(source, str):
        return source
    return _UNIT_BREAK.join(source)


def source_digest(source: Units,
                  cflags: Optional[Sequence[str]] = None) -> str:
    """Digest identifying one artifact: schema + toolchain + source."""
    text = join_units(source)
    if cflags is None:
        cflags = adaptive_cflags(text)
    compiler = find_compiler() or "none"
    h = hashlib.sha256()
    h.update(f"v{NATIVE_SCHEMA_VERSION}|{compiler}|"
             f"{' '.join(cflags)}|".encode())
    h.update(text.encode())
    return h.hexdigest()[:40]


def _evict_lru(directory: str, keep: int) -> None:
    try:
        entries = [(os.path.getmtime(os.path.join(directory, f)),
                    os.path.join(directory, f))
                   for f in os.listdir(directory) if f.endswith(".so")]
    except OSError:
        return
    entries.sort()
    for _, path in entries[:max(0, len(entries) - keep)]:
        for victim in (path, path[:-3] + ".c"):
            try:
                os.unlink(victim)
            except OSError:
                pass
        _count("repro_native_disk_cache_evictions_total",
               "native .so artifacts evicted (LRU by mtime)")


def _parallelism() -> int:
    """CPUs this process may run on (the compile-worker bound)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - no affinity API
        return os.cpu_count() or 1


def _run_all(cmds: List[List[str]], logs: List[str]) -> list:
    """Run compiler commands, at most :func:`_parallelism` at once.

    Command *k* writes its diagnostics to the file ``logs[k]``.
    Returns, per command in order, its exit status or the ``OSError``
    that kept it from starting.  The children are polled from this
    thread: worker threads (or :mod:`concurrent.futures`, which
    imports logging) raised a build process's peak RSS by up to 1.6
    MiB, and a compile lasts far longer than the poll interval.
    """
    limit = _parallelism()
    results: list = [None] * len(cmds)
    pending = list(range(len(cmds)))
    running: Dict[int, subprocess.Popen] = {}
    try:
        while pending or running:
            while pending and len(running) < limit:
                k = pending.pop(0)
                try:
                    with open(logs[k], "w") as log:
                        running[k] = subprocess.Popen(
                            cmds[k], stdout=subprocess.DEVNULL,
                            stderr=log)
                except OSError as exc:
                    results[k] = exc
            finished = [k for k, proc in running.items()
                        if proc.poll() is not None]
            for k in finished:
                results[k] = running.pop(k).returncode
            if running and not finished:
                time.sleep(0.002)
    finally:
        for proc in running.values():  # only left on an exception
            proc.kill()
            proc.wait()
    return results


def _compile_units(compiler: str, cflags: Sequence[str],
                   units: Sequence[str], work: str) -> str:
    """``cc -c`` every unit in parallel, link them; return the ``.so``.

    Everything is written inside *work*.  Raises
    :class:`NativeToolchainError` on the first failing step.
    """
    objects: List[str] = []
    cmds: List[List[str]] = []
    logs: List[str] = []
    for k, unit in enumerate(units):
        stem = os.path.join(work, f"unit{k}")
        with open(stem + ".c", "w") as fh:
            fh.write(unit)
        objects.append(stem + ".o")
        logs.append(stem + ".log")
        cmds.append([compiler, *cflags, "-fPIC", "-c",
                     "-o", stem + ".o", stem + ".c"])
    so_path = os.path.join(work, "kernel.so")
    link = [compiler, *cflags, "-shared", "-fPIC", "-o", so_path,
            *objects]
    for step, step_logs in ((cmds, logs),
                            ([link], [os.path.join(work, "link.log")])):
        for status, log in zip(_run_all(step, step_logs), step_logs):
            if isinstance(status, OSError):
                raise NativeToolchainError(
                    f"failed to run {compiler}: {status}")
            if status != 0:
                with open(log) as fh:
                    raise NativeToolchainError(
                        f"{compiler} failed ({status}):\n"
                        f"{fh.read(2000)}")
    return so_path


def build_shared_object(source: Units, tag: str = "mod",
                        cflags: Optional[Sequence[str]] = None) -> str:
    """Compile *source* to a cached ``.so``; return its path.

    *source* is one C translation unit or a sequence of them.  Units
    compile in parallel (``cc -c``, at most one per CPU this process
    may use) at the flags of the joined source, then link into one
    shared object.  Cache hits are recognised by digest-addressed
    filenames and only touch the mtime (the LRU clock).  Builds are
    atomic: every temporary lives in a private directory inside the
    cache, and only the finished ``.so`` and the joined ``.c`` are
    renamed into place, so concurrent processes can share the
    directory.
    """
    compiler = find_compiler()
    if compiler is None:
        raise NativeToolchainError(
            "no C compiler found (tried $CC, cc, gcc, clang)")
    units = [source] if isinstance(source, str) else list(source)
    text = join_units(units)
    if cflags is None:
        cflags = adaptive_cflags(text)
    directory = native_cache_dir()
    digest = source_digest(text, cflags)
    so_path = os.path.join(directory, f"{tag}-{digest}.so")
    if os.path.exists(so_path):
        _count("repro_native_disk_cache_hits_total",
               "native .so artifacts reused from the on-disk cache")
        try:
            os.utime(so_path)
        except OSError:
            pass
        return so_path
    _count("repro_native_disk_cache_misses_total",
           "native .so artifacts compiled from source")
    registry = _registry()
    if registry is not None:
        registry.counter(
            "repro_native_source_bytes_total",
            help="C source bytes fed to the native toolchain",
        ).inc(len(text))
    start = time.perf_counter()
    work = tempfile.mkdtemp(prefix=f".build-{tag}-", dir=directory)
    try:
        try:
            built = _compile_units(compiler, cflags, units, work)
        except NativeToolchainError:
            _count("repro_native_disk_cache_errors_total",
                   "native toolchain compile/load failures")
            raise
        joined = os.path.join(work, "joined.c")
        with open(joined, "w") as fh:
            fh.write(text)
        os.replace(joined, so_path[:-3] + ".c")
        os.replace(built, so_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if registry is not None:
        registry.histogram(
            "repro_native_compile_seconds",
            help="wall time of one native build (compile + link)",
            tag=tag,
        ).observe(time.perf_counter() - start)
    _evict_lru(directory, _cache_max_entries())
    return so_path


# ----------------------------------------------------------------------
# loading
# ----------------------------------------------------------------------
_DECL_RE = re.compile(
    r"^\s*(?P<ret>[A-Za-z_][A-Za-z0-9_ ]*?)\s*\*?\s*"
    r"(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*\((?P<args>[^)]*)\)\s*;\s*$")

_CTYPES_MAP = {
    "void": None,
    "int": ctypes.c_int,
    "long": ctypes.c_long,
    "int64_t": ctypes.c_int64,
    "uint64_t": ctypes.c_uint64,
    "int64_t*": ctypes.POINTER(ctypes.c_int64),
    "uint64_t*": ctypes.POINTER(ctypes.c_uint64),
    "long*": ctypes.POINTER(ctypes.c_long),
}


def _parse_cdef(cdef: str) -> Dict[str, Tuple[object, List[object]]]:
    """``cdef`` text -> {name: (restype, argtypes)} for ctypes."""
    table: Dict[str, Tuple[object, List[object]]] = {}
    for line in cdef.splitlines():
        line = line.strip()
        if not line or line.startswith("//"):
            continue
        m = _DECL_RE.match(line)
        if m is None:
            raise NativeToolchainError(f"unparsable cdef line: {line!r}")
        args: List[object] = []
        arg_text = m.group("args").strip()
        if arg_text and arg_text != "void":
            for piece in arg_text.split(","):
                toks = piece.replace("*", " * ").split()
                base = toks[0]
                if "*" in toks:
                    base += "*"
                ctype = _CTYPES_MAP.get(base)
                if ctype is None:
                    raise NativeToolchainError(
                        f"unsupported cdef arg type {piece.strip()!r}")
                args.append(ctype)
        ret = m.group("ret").strip()
        table[m.group("name")] = (_CTYPES_MAP.get(ret), args)
    return table


class NativeModule:
    """A loaded shared object behind a loader-neutral facade.

    ``fn(name)`` returns the exported function; ``u64_buffer`` /
    ``i64_buffer`` allocate indexable machine arrays the functions
    accept as pointer arguments.  Works identically over cffi ABI mode
    and ctypes so the simulators never branch on the loader.
    """

    def __init__(self, path: str, cdef: str):
        self.path = path
        self.loader = _loader_kind()
        if self.loader == "cffi":
            import cffi
            self._ffi = cffi.FFI()
            self._ffi.cdef(cdef)
            self._lib = self._ffi.dlopen(path)
        else:
            self._ffi = None
            self._lib = ctypes.CDLL(path)
            for name, (restype, argtypes) in _parse_cdef(cdef).items():
                f = getattr(self._lib, name)
                f.restype = restype
                f.argtypes = argtypes

    def fn(self, name: str):
        return getattr(self._lib, name)

    def u64_buffer(self, init) -> object:
        """A uint64 array: pass an int length or an initial sequence."""
        if isinstance(init, int):
            n, values = init, None
        else:
            values = list(init)
            n = len(values)
        n = max(1, n)
        if self._ffi is not None:
            buf = self._ffi.new("uint64_t[]", n)
        else:
            buf = (ctypes.c_uint64 * n)()
        if values:
            for i, v in enumerate(values):
                buf[i] = v & 0xFFFFFFFFFFFFFFFF
        return buf

    def u64_view(self, buf) -> memoryview:
        """A fast writable integer view aliasing a ``u64_buffer``.

        Element access on raw cffi/ctypes arrays goes through the FFI
        layer (~4x a dict access); a flat memoryview over the same
        storage indexes at plain-buffer speed.  Use the view for
        Python-side reads/pokes and keep passing the original buffer
        to the native functions.
        """
        if self._ffi is not None:
            return memoryview(self._ffi.buffer(buf)).cast("Q")
        return memoryview(buf)

    def i64_buffer(self, init) -> object:
        """An int64 array (state words): int length or sequence."""
        if isinstance(init, int):
            n, values = init, None
        else:
            values = list(init)
            n = len(values)
        n = max(1, n)
        if self._ffi is not None:
            buf = self._ffi.new("int64_t[]", n)
        else:
            buf = (ctypes.c_int64 * n)()
        if values:
            for i, v in enumerate(values):
                buf[i] = v
        return buf


def compile_and_load(source: Units, cdef: str,
                     tag: str = "mod") -> NativeModule:
    """Build (or reuse) the ``.so`` for *source* and load it.

    *source* is one translation unit or a sequence of them, as
    :func:`build_shared_object` takes.

    A corrupt or stale on-disk artifact -- truncated file, ABI drift
    that slipped past the digest -- is deleted and rebuilt once rather
    than crashing; two consecutive failures raise
    :class:`NativeToolchainError`.
    """
    last_error: Optional[Exception] = None
    for attempt in range(2):
        so_path = build_shared_object(source, tag=tag)
        try:
            return NativeModule(so_path, cdef)
        except NativeToolchainError:
            raise
        except Exception as exc:  # OSError from dlopen, cffi errors
            last_error = exc
            _count("repro_native_disk_cache_errors_total",
                   "native toolchain compile/load failures")
            try:
                os.unlink(so_path)
            except OSError:
                pass
    raise NativeToolchainError(
        f"could not load native module after rebuild: {last_error}")

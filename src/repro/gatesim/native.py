"""Native (C-source) parallel-pattern gate-level simulation.

Structurally this is :mod:`repro.gatesim.compiled` one tier down: the
same levelised walk emits the same two-bitplane dataflow -- every net
as ``(ones, unk)`` planes confined to the pattern mask ``M`` -- but as
C99 over ``uint64_t`` instead of Python bigints, compiled with the
host toolchain (:mod:`repro.native`) and driven through cffi/ctypes.
The whole clock edge lives in C: one ``nat_run`` call settles the
cone, samples flops (including the SDFF scan mux), performs memory
writes and commits, for any number of cycles.  That removes the
per-cycle Python bytecode walk entirely, which is exactly the
single-pattern latency case the vectorized numpy tier cannot help
with.

Memories are flat per-pattern ``uint64_t`` word arrays inside C
(pattern-major, matching the vectorized engine's private-per-pattern
storage, so ``privatize_memory`` is a no-op view).  Semantics match
the behavioural :class:`~repro.gatesim.memory.MemoryModel` exactly:
X address bits turn a read all-X and drop a write; out-of-range reads
return 0 and writes are dropped; X data or X enable commits 0.

Artifacts are cached in the shared ``COMPILE_CACHE`` under the same
structural digest as the other engines, tagged ``backend="native"``,
and the underlying ``.so`` persists in the on-disk cache across
processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..compile_cache import CompileCache
from ..datatypes import logic as L
from ..datatypes.bits import mask
from ..native import NativeModule, compile_and_load
from ..synth.library import CODEGEN
from ..synth.netlist import CellInstance, Netlist
from .compiled import COMPILE_CACHE, structural_hash
from .host import PatternPlaneHost
from .levelize import levelize
from .simulator import GateSimError

__all__ = ["NativeGateProgram", "NativeGateSimulator",
           "compile_netlist_native"]

#: native planes are single machine words: one pattern per bit
WORD_PATTERNS = 64

#: settle-chunk budget (source lines per generated C function)
_CHUNK_LINES = 600

_CDEF = ("void nat_run(uint64_t* S1, uint64_t* SX, uint64_t* R1, "
         "uint64_t* RX, uint64_t* MEM, uint64_t M, long cycles, "
         "int NP, int settle_after);")


@dataclass
class NativeGateProgram:
    """A loaded native settle/step kernel plus its layout tables."""

    source: str
    module: NativeModule
    run: Callable
    state_uids: List[int]
    result_uids: List[int]
    #: (name, word offset within one pattern's bank, depth, width,
    #:  writable, initial contents) per memory macro
    mem_layout: List[Tuple[str, int, int, int, bool, Tuple[int, ...]]]
    #: words per pattern across all macros
    mem_words: int
    x_state_uids: List[int]
    structural_key: str


def _generate_c_source(netlist: Netlist):
    """Emit the C kernel; returns (source, layout tables)."""
    units = levelize(netlist, error=GateSimError)
    lib = netlist.library

    state_uids: List[int] = [netlist.const0.uid, netlist.const1.uid]
    for nets in netlist.inputs.values():
        state_uids.extend(n.uid for n in nets)
    for cell in netlist.cells:
        if lib[cell.cell_type].sequential:
            state_uids.append(cell.outputs["Q"].uid)

    driven = set(state_uids)
    for unit in units:
        driven.update(unit.outs)
    x_state_uids: List[int] = []

    def require(net) -> None:
        if net is not None and net.uid not in driven:
            driven.add(net.uid)
            state_uids.append(net.uid)
            x_state_uids.append(net.uid)

    for macro in netlist.memories:
        if macro.width > WORD_PATTERNS:
            raise GateSimError(
                f"native backend: memory {macro.name!r} width "
                f"{macro.width} exceeds the 64-bit storage word")
        for rp in macro.read_ports:
            for n in rp.addr:
                require(n)
            require(rp.enable)
        for wp in macro.write_ports:
            require(wp.enable)
            for n in wp.addr + wp.data:
                require(n)

    slot = {uid: i for i, uid in enumerate(state_uids)}

    # pattern-major memory image: MEM[p * MEM_WORDS + off + addr]
    mem_layout: List[Tuple[str, int, int, int, bool, Tuple[int, ...]]] = []
    off = 0
    for macro in netlist.memories:
        contents = tuple(v & mask(macro.width)
                         for v in (macro.contents or ()))
        mem_layout.append((macro.name, off, macro.depth, macro.width,
                           macro.writable, contents))
        off += macro.depth
    mem_words = off
    mem_off = {name: o for name, o, *_rest in mem_layout}
    mem_depth = {m.name: m.depth for m in netlist.memories}

    # results are assigned one index per produced net, in unit order
    result_uids: List[int] = []
    for unit in units:
        if isinstance(unit.key, CellInstance):
            cell = unit.key
            for pin in lib[cell.cell_type].outputs:
                result_uids.append(cell.outputs[pin].uid)
        else:
            macro, port_index = unit.key
            for n in macro.read_ports[port_index].data:
                result_uids.append(n.uid)
    ridx = {uid: i for i, uid in enumerate(result_uids)}

    # the settle cone is split into chunks of a few hundred units so
    # the optimizer sees many small basic blocks instead of one huge
    # one (gcc/clang are superlinear there); chunk-crossing values
    # travel through the R1/RX result arrays
    lines: List[str] = ["#include <stdint.h>", ""]
    n_chunks = 0
    chunk_lines: List[str] = []
    declared: set = set()

    def open_chunk() -> None:
        nonlocal chunk_lines
        chunk_lines = [
            f"static void settle{n_chunks}(uint64_t *S1, uint64_t *SX,",
            "    uint64_t *R1, uint64_t *RX, uint64_t *MEM, uint64_t M,",
            "    int NP) {",
            "  (void)R1; (void)RX; (void)MEM; (void)M; (void)NP;",
        ]
        declared.clear()

    def close_chunk() -> None:
        nonlocal n_chunks
        chunk_lines.append("}")
        lines.extend(chunk_lines)
        lines.append("")
        n_chunks += 1

    def ref(uid: int) -> Tuple[str, str]:
        """Local names for a net's planes, loading them on first use."""
        if uid not in declared:
            declared.add(uid)
            s = slot.get(uid)
            if s is not None:
                chunk_lines.append(f"  uint64_t a{uid} = S1[{s}]; "
                                   f"uint64_t x{uid} = SX[{s}];")
            else:
                i = ridx[uid]
                chunk_lines.append(f"  uint64_t a{uid} = R1[{i}]; "
                                   f"uint64_t x{uid} = RX[{i}];")
        return f"a{uid}", f"x{uid}"

    open_chunk()
    for index, unit in enumerate(units):
        if len(chunk_lines) >= _CHUNK_LINES:
            close_chunk()
            open_chunk()
        if isinstance(unit.key, CellInstance):
            cell = unit.key
            spec = lib[cell.cell_type]
            ins = [ref(cell.pins[pin].uid) for pin in spec.inputs]
            for pin in spec.outputs:
                uid = cell.outputs[pin].uid
                template = CODEGEN.get((cell.cell_type, pin))
                if template is None:
                    raise GateSimError(
                        f"no codegen template for cell "
                        f"{cell.cell_type!r} output {pin!r}")
                out = (f"a{uid}", f"x{uid}")
                # the templates emit SSA `name = expr` lines over
                # & | ^ ~ ( ) and M -- valid C once declared uint64_t
                for line in template(out, ins, f"t{index}_"):
                    name, expr = line.split(" = ", 1)
                    chunk_lines.append(f"  uint64_t {name} = {expr};")
                declared.add(uid)
                i = ridx[uid]
                chunk_lines.append(f"  R1[{i}] = a{uid}; "
                                   f"RX[{i}] = x{uid};")
        else:
            macro, port_index = unit.key
            rp = macro.read_ports[port_index]
            depth = mem_depth[macro.name]
            base = mem_off[macro.name]
            addr_refs = [ref(n.uid) for n in rp.addr]
            for n in rp.data:
                chunk_lines.append(f"  uint64_t a{n.uid} = 0; "
                                   f"uint64_t x{n.uid} = 0;")
                declared.add(n.uid)
            # per pattern: X on any address bit -> all-X data; in-range
            # -> unpack the stored word; out-of-range -> known 0.  The
            # enable is ignored for data, like MemoryModel.read.
            chunk_lines.append("  for (int p = 0; p < NP; p++) {")
            chunk_lines.append("    uint64_t bit = 1ULL << p;")
            chunk_lines.append("    int axf = 0; uint64_t addr = 0;")
            for i, (a_n, x_n) in enumerate(addr_refs):
                chunk_lines.append(f"    if ({x_n} & bit) axf = 1;")
                chunk_lines.append(f"    if ({a_n} & bit) "
                                   f"addr |= {1 << i}ULL;")
            chunk_lines.append("    if (axf) {")
            for n in rp.data:
                chunk_lines.append(f"      x{n.uid} |= bit;")
            chunk_lines.append(f"    }} else if (addr < {depth}ULL) {{")
            chunk_lines.append(f"      uint64_t w = MEM[(uint64_t)p * "
                               f"{mem_words}ULL + {base}ULL + addr];")
            for i, n in enumerate(rp.data):
                chunk_lines.append(f"      if (w & {1 << i}ULL) "
                                   f"a{n.uid} |= bit;")
            chunk_lines.append("    }")
            chunk_lines.append("  }")
            for n in rp.data:
                i = ridx[n.uid]
                chunk_lines.append(f"  R1[{i}] = a{n.uid}; "
                                   f"RX[{i}] = x{n.uid};")
    close_chunk()

    lines.append("static void settle(uint64_t *S1, uint64_t *SX, "
                 "uint64_t *R1,")
    lines.append("                   uint64_t *RX, uint64_t *MEM, "
                 "uint64_t M, int NP) {")
    for k in range(n_chunks):
        lines.append(f"  settle{k}(S1, SX, R1, RX, MEM, M, NP);")
    lines.append("}")
    lines.append("")

    def src(uid: int) -> Tuple[str, str]:
        s = slot.get(uid)
        if s is not None:
            return f"S1[{s}]", f"SX[{s}]"
        return f"R1[{ridx[uid]}]", f"RX[{ridx[uid]}]"

    lines.append("void nat_run(uint64_t *S1, uint64_t *SX, uint64_t *R1,")
    lines.append("             uint64_t *RX, uint64_t *MEM, uint64_t M,")
    lines.append("             long cycles, int NP, int settle_after) {")
    lines.append("  for (long c = 0; c < cycles; c++) {")
    lines.append("    settle(S1, SX, R1, RX, MEM, M, NP);")

    # sample flop inputs (post-settle, pre-commit planes)
    flops = netlist.flops()
    for k, flop in enumerate(flops):
        d1, dx = src(flop.pins["D"].uid)
        if flop.cell_type == "SDFF":
            e1, ex = src(flop.pins["SE"].uid)
            s1, sx = src(flop.pins["SI"].uid)
            lines.append(f"    uint64_t e1_{k} = {e1}, ex_{k} = {ex};")
            lines.append(f"    uint64_t e0_{k} = M & ~(e1_{k} | ex_{k});")
            lines.append(f"    uint64_t nd_{k} = (e1_{k} & {s1}) | "
                         f"(e0_{k} & {d1});")
            lines.append(f"    uint64_t nx_{k} = (e1_{k} & {sx}) | "
                         f"(e0_{k} & {dx}) | ex_{k};")
        else:
            lines.append(f"    uint64_t nd_{k} = {d1};")
            lines.append(f"    uint64_t nx_{k} = {dx};")

    # memory writes (pre-commit planes; per pattern, pattern-private)
    for macro in netlist.memories:
        depth = mem_depth[macro.name]
        base = mem_off[macro.name]
        for wp in macro.write_ports:
            e1, ex = src(wp.enable.uid)
            lines.append("    {")
            lines.append(f"      uint64_t we1 = {e1}, wex = {ex};")
            lines.append("      uint64_t act = (we1 | wex) & M;")
            lines.append("      if (act) for (int p = 0; p < NP; p++) {")
            lines.append("        uint64_t bit = 1ULL << p;")
            lines.append("        if (!(act & bit)) continue;")
            lines.append("        int axf = 0; uint64_t addr = 0;")
            for i, n in enumerate(wp.addr):
                a1, ax = src(n.uid)
                lines.append(f"        if ({ax} & bit) axf = 1;")
                lines.append(f"        if ({a1} & bit) "
                             f"addr |= {1 << i}ULL;")
            lines.append(f"        if (axf || addr >= {depth}ULL) "
                         "continue;")
            lines.append("        int dxf = 0; uint64_t data = 0;")
            for i, n in enumerate(wp.data):
                d1, dx = src(n.uid)
                lines.append(f"        if ({dx} & bit) dxf = 1;")
                lines.append(f"        if ({d1} & bit) "
                             f"data |= {1 << i}ULL;")
            # X data or X enable commits 0, like the compiled engine
            lines.append("        if (dxf || (wex & bit)) data = 0;")
            lines.append(f"        MEM[(uint64_t)p * {mem_words}ULL + "
                         f"{base}ULL + addr] = data;")
            lines.append("      }")
            lines.append("    }")

    # commit flops
    for k, flop in enumerate(flops):
        q_slot = slot[flop.outputs["Q"].uid]
        lines.append(f"    S1[{q_slot}] = nd_{k}; "
                     f"SX[{q_slot}] = nx_{k};")
    lines.append("  }")
    lines.append("  if (settle_after) "
                 "settle(S1, SX, R1, RX, MEM, M, NP);")
    lines.append("}")
    source = "\n".join(lines) + "\n"
    return (source, state_uids, result_uids, mem_layout, mem_words,
            x_state_uids)


def compile_netlist_native(netlist: Netlist,
                           cache: Optional[CompileCache] = None
                           ) -> NativeGateProgram:
    """Compile *netlist* to a loaded C kernel, via both cache layers.

    The in-process :data:`~repro.gatesim.compiled.COMPILE_CACHE` keeps
    the loaded module under the shared structural digest tagged
    ``backend="native"``; the ``.so`` itself persists in the on-disk
    cache (:func:`repro.native.build_shared_object`), so a fresh
    process re-links in milliseconds instead of recompiling.
    """
    if cache is None:
        cache = COMPILE_CACHE
    key = structural_hash(netlist)

    def factory() -> NativeGateProgram:
        (source, state_uids, result_uids, mem_layout, mem_words,
         x_state_uids) = _generate_c_source(netlist)
        module = compile_and_load(source, _CDEF, tag="gate")
        return NativeGateProgram(
            source=source,
            module=module,
            run=module.fn("nat_run"),
            state_uids=state_uids,
            result_uids=result_uids,
            mem_layout=mem_layout,
            mem_words=mem_words,
            x_state_uids=x_state_uids,
            structural_key=key,
        )

    return cache.get_or_compile(key, factory, backend="native")


# ----------------------------------------------------------------------
# memory views
# ----------------------------------------------------------------------
class _NativeMemoryView:
    """One pattern's window into the flat native memory image.

    Mirrors the :class:`~repro.gatesim.memory.MemoryModel` surface the
    fault-injection campaign touches (``flip_bit`` / ``peek`` /
    ``read`` / ``write`` / ``reset``).  Storage is pattern-private by
    construction, so no un-aliasing step is ever needed.
    """

    def __init__(self, sim: "NativeGateSimulator", name: str, base: int,
                 depth: int, width: int, writable: bool,
                 contents: Tuple[int, ...]):
        self._sim = sim
        self.name = name
        self._base = base
        self.depth = depth
        self.width = width
        self.writable = writable
        self._contents = contents

    def flip_bit(self, address: int, bit: int) -> None:
        if not 0 <= address < self.depth:
            raise ValueError(
                f"{self.name}: SEU address {address} outside depth "
                f"{self.depth}")
        if not 0 <= bit < self.width:
            raise ValueError(
                f"{self.name}: SEU bit {bit} outside width {self.width}")
        mem = self._sim._mem
        mem[self._base + address] = mem[self._base + address] ^ (1 << bit)
        self._sim._dirty = True

    def peek(self) -> List[int]:
        mem = self._sim._mem
        return [mem[self._base + i] for i in range(self.depth)]

    def read(self, address: Optional[int], enabled: bool = True,
             cycle: int = 0) -> List[int]:
        if address is None:
            return [L.LX] * self.width
        if not 0 <= address < self.depth:
            return [L.L0] * self.width
        value = self._sim._mem[self._base + address]
        return [(value >> i) & 1 for i in range(self.width)]

    def write(self, address: Optional[int], value: int,
              cycle: int = 0) -> None:
        if not self.writable:
            raise ValueError(f"{self.name} is a ROM")
        if address is None or not 0 <= address < self.depth:
            return
        self._sim._mem[self._base + address] = value & mask(self.width)
        self._sim._dirty = True

    def reset(self) -> None:
        mem = self._sim._mem
        for i in range(self.depth):
            mem[self._base + i] = (self._contents[i]
                                   if self._contents else 0)
        self._sim._dirty = True


# ----------------------------------------------------------------------
# the simulator
# ----------------------------------------------------------------------
class NativeGateSimulator(PatternPlaneHost):
    """Parallel-pattern gate simulator over a native C kernel.

    API-identical to
    :class:`~repro.gatesim.compiled.CompiledGateSimulator` (the shared
    surface lives in :class:`~repro.gatesim.host.PatternPlaneHost`);
    the planes are C ``uint64_t`` buffers, so the pattern count is
    capped at 64 -- one machine word -- which covers the
    fault-injection batch width and the latency rows this engine
    exists for.  Use the vectorized engine past the word cap.
    """

    backend = "native"

    def __init__(self, netlist: Netlist, checking_memories: bool = False,
                 reporter=None, n_patterns: int = 1,
                 cache: Optional[CompileCache] = None):
        if checking_memories:
            raise GateSimError(
                "checking memories are not supported by the native "
                "backend; use interpreted or compiled")
        if n_patterns > WORD_PATTERNS:
            raise GateSimError(
                f"native backend packs patterns into one 64-bit word; "
                f"got n_patterns={n_patterns} (use backend=\"vectorized\")")
        super().__init__(netlist, n_patterns, cache)

    # ------------------------------------------------------------------
    # storage
    # ------------------------------------------------------------------
    def _compile(self, netlist: Netlist,
                 cache: Optional[CompileCache]) -> NativeGateProgram:
        return compile_netlist_native(netlist, cache=cache)

    def _allocate(self) -> None:
        self._mask = mask(self.n_patterns)
        self._zero = 0
        self._run = self.program.run
        mod = self.program.module

        # machine buffers shared with the kernel
        self._s1 = mod.u64_buffer(len(self.program.state_uids))
        self._sx = mod.u64_buffer(len(self.program.state_uids))
        self._r1 = mod.u64_buffer(len(self.program.result_uids))
        self._rx = mod.u64_buffer(len(self.program.result_uids))
        self._mem = mod.u64_buffer(
            max(1, self.program.mem_words * self.n_patterns))

        # pattern-private memory views
        self.memories: Dict[str, _NativeMemoryView] = {}
        self._mem_banks: Dict[str, List[_NativeMemoryView]] = {}
        for name, off, depth, width, writable, contents in \
                self.program.mem_layout:
            views = [
                _NativeMemoryView(
                    self, name, p * self.program.mem_words + off,
                    depth, width, writable, contents)
                for p in range(self.n_patterns)
            ]
            self._mem_banks[name] = views
            self.memories[name] = views[0]
            for view in views:
                view.reset()

    def _settle(self) -> None:
        self._run(self._s1, self._sx, self._r1, self._rx, self._mem,
                  self._mask, 0, self.n_patterns, 1)
        self._dirty = False

    def _reset_memories(self) -> None:
        for views in self._mem_banks.values():
            for view in views:
                view.reset()

    # ------------------------------------------------------------------
    # clocking
    # ------------------------------------------------------------------
    def step(self, cycles: int = 1) -> None:
        """Advance clock edges: settle, flops, memories -- all in C."""
        if cycles < 1:
            return
        self._run(self._s1, self._sx, self._r1, self._rx, self._mem,
                  self._mask, cycles, self.n_patterns, 0)
        self.cycles += cycles
        # settle lazily, exactly like the compiled engine: the next
        # read (or next step) re-settles the cone once
        self._dirty = True

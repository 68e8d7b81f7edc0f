"""Compiled parallel-pattern gate-level simulation.

The interpreted :class:`~repro.gatesim.simulator.GateSimulator` pays one
Python call per cell evaluation per cycle.  This backend instead walks
the levelised netlist **once** and emits a single straight-line Python
function that evaluates the whole combinational cone in topological
order with word-level integer ops -- the classic compiled-code
simulation technique, with bit-parallel pattern packing on top:

* every net is held as **two bitplanes** ``(ones, unk)``; bit *p* of a
  plane belongs to stimulus pattern *p*.  ``ones`` marks bits known 1,
  ``unk`` marks unknown bits (X; Z collapses to X, which is exactly how
  gate inputs treat it).  The planes are disjoint and confined to the
  pattern mask ``M = (1 << n_patterns) - 1``;
* the generated function computes all ``n_patterns`` stimulus vectors
  per pass using Python's arbitrary-precision integers, so throughput
  scales with the pattern count on top of the interpretation savings;
* memory macros stay behavioural: read ports become calls into small
  per-port hooks that unpack each pattern's address, consult that
  pattern's memory model and repack the data planes.

Compiled artifacts are cached in-process in a :class:`CompileCache`
keyed by a structural hash of the netlist, so rebuilding the same design
(e.g. across benchmark repetitions) compiles exactly once.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..compile_cache import CacheStats, CompileCache
from ..datatypes import logic as L
from ..datatypes.bits import mask
from ..synth.library import CODEGEN
from ..synth.netlist import CellInstance, MemoryMacro, Netlist
from .host import PatternPlaneHost
from .levelize import levelize
from .memory import CheckingMemoryModel, MemoryModel
from .simulator import GateSimError

__all__ = [
    "CacheStats", "CompileCache", "COMPILE_CACHE", "CompiledGateSimulator",
    "CompiledProgram", "compile_netlist", "structural_hash",
]


# ----------------------------------------------------------------------
# structural hashing + artifact cache
# ----------------------------------------------------------------------
def structural_hash(netlist: Netlist) -> str:
    """A stable digest of the netlist *structure* (not its state).

    Two netlists with equal hashes generate identical simulation code:
    the digest covers cell types, pin connectivity (by net uid), flop
    init values, memory geometry/contents and the port maps.
    """
    h = hashlib.sha256()

    def feed(text: str) -> None:
        h.update(text.encode("ascii", "backslashreplace"))
        h.update(b"\x00")

    feed(netlist.name)
    feed(netlist.library.name)
    feed(f"c0={netlist.const0.uid},c1={netlist.const1.uid}")
    for cell in netlist.cells:
        feed(cell.cell_type)
        feed(str(cell.init))
        for pin in sorted(cell.pins):
            feed(f"{pin}={cell.pins[pin].uid}")
        for pin in sorted(cell.outputs):
            feed(f">{pin}={cell.outputs[pin].uid}")
    for macro in netlist.memories:
        feed(f"mem {macro.name} {macro.depth}x{macro.width}")
        feed(str(macro.contents))
        for rp in macro.read_ports:
            feed("r" + ",".join(str(n.uid) for n in rp.addr))
            feed("d" + ",".join(str(n.uid) for n in rp.data))
            feed(f"e{rp.enable.uid if rp.enable is not None else -1}")
        for wp in macro.write_ports:
            feed(f"w{wp.enable.uid}|"
                 + ",".join(str(n.uid) for n in wp.addr) + "|"
                 + ",".join(str(n.uid) for n in wp.data))
    for name in sorted(netlist.inputs):
        feed(f"in {name}:"
             + ",".join(str(n.uid) for n in netlist.inputs[name]))
    for name in sorted(netlist.outputs):
        feed(f"out {name}:"
             + ",".join(str(n.uid) for n in netlist.outputs[name]))
    return h.hexdigest()


#: process-wide default cache (also exposed via :mod:`repro.flow.artifacts`)
COMPILE_CACHE = CompileCache()


# ----------------------------------------------------------------------
# code generation
# ----------------------------------------------------------------------
@dataclass
class CompiledProgram:
    """A compiled combinational-settle function plus its layout tables."""

    source: str
    fn: Callable
    #: net uids read from the state arrays, in slot order
    state_uids: List[int]
    #: net uids returned by the settle function, in result order
    result_uids: List[int]
    #: (memory name, read port index) per MR hook, in call order
    mem_ports: List[Tuple[str, int]]
    #: state uids with no driver: held permanently at X (interpreted
    #: leaves such nets LX in its value array)
    x_state_uids: List[int]
    structural_key: str


def _generate_source(netlist: Netlist) -> Tuple[str, List[int], List[int],
                                                List[Tuple[str, int]],
                                                List[int]]:
    units = levelize(netlist, error=GateSimError)
    lib = netlist.library

    state_uids: List[int] = [netlist.const0.uid, netlist.const1.uid]
    for nets in netlist.inputs.values():
        state_uids.extend(n.uid for n in nets)
    for cell in netlist.cells:
        if lib[cell.cell_type].sequential:
            state_uids.append(cell.outputs["Q"].uid)

    # nets referenced by memory ports need not be driven (validate()
    # only checks cell pins and outputs); pin the undriven ones at X,
    # matching the interpreted simulator's LX-initialised value array
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
        for rp in macro.read_ports:
            for n in rp.addr:
                require(n)
            require(rp.enable)
        for wp in macro.write_ports:
            require(wp.enable)
            for n in wp.addr + wp.data:
                require(n)

    lines: List[str] = ["def _settle(S1, SX, MR, M):"]
    for slot, uid in enumerate(state_uids):
        lines.append(f"    a{uid} = S1[{slot}]")
        lines.append(f"    x{uid} = SX[{slot}]")

    result_uids: List[int] = []
    mem_ports: List[Tuple[str, int]] = []
    for index, unit in enumerate(units):
        if isinstance(unit.key, CellInstance):
            cell = unit.key
            spec = lib[cell.cell_type]
            ins = [(f"a{cell.pins[pin].uid}", f"x{cell.pins[pin].uid}")
                   for pin in spec.inputs]
            for pin in spec.outputs:
                uid = cell.outputs[pin].uid
                template = CODEGEN.get((cell.cell_type, pin))
                if template is None:
                    raise GateSimError(
                        f"no codegen template for cell {cell.cell_type!r} "
                        f"output {pin!r}"
                    )
                out = (f"a{uid}", f"x{uid}")
                for line in template(out, ins, f"t{index}_"):
                    lines.append("    " + line)
                result_uids.append(uid)
        else:
            macro, port_index = unit.key
            rp = macro.read_ports[port_index]
            addr1 = ", ".join(f"a{n.uid}" for n in rp.addr)
            addrx = ", ".join(f"x{n.uid}" for n in rp.addr)
            if rp.enable is not None:
                en1, enx = f"a{rp.enable.uid}", f"x{rp.enable.uid}"
            else:
                en1, enx = "M", "0"
            targets = []
            for n in rp.data:
                targets.append(f"a{n.uid}")
                targets.append(f"x{n.uid}")
                result_uids.append(n.uid)
            lines.append(
                f"    {', '.join(targets)} = MR[{len(mem_ports)}]"
                f"(({addr1},), ({addrx},), {en1}, {enx})"
            )
            mem_ports.append((macro.name, port_index))

    if result_uids:
        ones = ", ".join(f"a{uid}" for uid in result_uids)
        unks = ", ".join(f"x{uid}" for uid in result_uids)
        lines.append(f"    return ({ones},), ({unks},)")
    else:
        lines.append("    return (), ()")
    return ("\n".join(lines) + "\n", state_uids, result_uids, mem_ports,
            x_state_uids)


def compile_netlist(netlist: Netlist,
                    cache: Optional[CompileCache] = None,
                    backend: str = "compiled") -> CompiledProgram:
    """Compile *netlist*'s combinational cone into a settle function.

    Consults (and fills) *cache* -- the module-level :data:`COMPILE_CACHE`
    by default -- keyed by :func:`structural_hash` tagged with the
    owning *backend* ("compiled" / "vectorized"), so engines sharing
    one structural digest keep separate cache slots and stats.
    """
    if cache is None:
        cache = COMPILE_CACHE
    key = structural_hash(netlist)

    def factory() -> CompiledProgram:
        source, state_uids, result_uids, mem_ports, x_state_uids = \
            _generate_source(netlist)
        code = compile(source, f"<gatesim-compiled:{netlist.name}>", "exec")
        namespace: Dict[str, object] = {}
        exec(code, namespace)
        return CompiledProgram(
            source=source,
            fn=namespace["_settle"],  # type: ignore[arg-type]
            state_uids=state_uids,
            result_uids=result_uids,
            mem_ports=mem_ports,
            x_state_uids=x_state_uids,
            structural_key=key,
        )

    return cache.get_or_compile(key, factory, backend=backend)


# ----------------------------------------------------------------------
# the simulator
# ----------------------------------------------------------------------
class CompiledGateSimulator(PatternPlaneHost):
    """Parallel-pattern gate-level simulator over a compiled netlist.

    Planes are Python integers, so the host surface of
    :class:`~repro.gatesim.host.PatternPlaneHost` runs on them
    directly.  Memory models stay behavioural, one bank entry per
    pattern: ROMs are read-only and share bank 0, RAMs diverge under
    per-pattern writes.
    """

    backend = "compiled"

    def __init__(self, netlist: Netlist, checking_memories: bool = False,
                 reporter=None, n_patterns: int = 1,
                 cache: Optional[CompileCache] = None):
        self._checking_memories = checking_memories
        self._reporter = reporter
        super().__init__(netlist, n_patterns, cache)

    # ------------------------------------------------------------------
    # storage
    # ------------------------------------------------------------------
    def _compile(self, netlist: Netlist,
                 cache: Optional[CompileCache]) -> CompiledProgram:
        return compile_netlist(netlist, cache=cache)

    def _allocate(self) -> None:
        netlist, n_patterns = self.netlist, self.n_patterns
        self._mask = mask(n_patterns)
        self._zero = 0

        # memory models: one bank entry per pattern (ROMs are read-only
        # and shared; RAMs diverge under per-pattern writes)
        self.memories: Dict[str, MemoryModel] = {}
        self._mem_banks: Dict[str, List[MemoryModel]] = {}
        self._macros: Dict[str, MemoryMacro] = {}
        for macro in netlist.memories:
            self._macros[macro.name] = macro
            bank: List[MemoryModel] = []
            for p in range(n_patterns):
                if p and not macro.writable:
                    bank.append(bank[0])
                    continue
                if self._checking_memories:
                    model: MemoryModel = CheckingMemoryModel(
                        macro.name, macro.depth, macro.width,
                        macro.contents, reporter=self._reporter,
                    )
                else:
                    model = MemoryModel(
                        macro.name, macro.depth, macro.width, macro.contents
                    )
                bank.append(model)
            self._mem_banks[macro.name] = bank
            self.memories[macro.name] = bank[0]

        self._mem_hooks = [
            self._make_read_hook(self._macros[name], port_index)
            for name, port_index in self.program.mem_ports
        ]

        # state planes
        n_state = len(self.program.state_uids)
        self._s1: List[int] = [0] * n_state
        self._sx: List[int] = [0] * n_state
        self._r1: Tuple[int, ...] = ()
        self._rx: Tuple[int, ...] = ()

        self._write_ops = self._write_table()

    def _make_read_hook(self, macro: MemoryMacro, port_index: int):
        bank = self._mem_banks[macro.name]
        width = macro.width
        n = self.n_patterns
        sim = self

        def hook(addr1: Tuple[int, ...], addrx: Tuple[int, ...],
                 en1: int, enx: int) -> Tuple[int, ...]:
            d1 = [0] * width
            dx = [0] * width
            cycle = sim.cycles
            for p in range(n):
                bit = 1 << p
                addr: Optional[int] = 0
                for i, unk in enumerate(addrx):
                    if unk & bit:
                        addr = None
                        break
                    if addr1[i] & bit:
                        addr |= 1 << i  # type: ignore[operator]
                enabled = bool(en1 & bit) and not (enx & bit)
                row = bank[p].read(addr, enabled=enabled, cycle=cycle)
                for i, v in enumerate(row):
                    if v == L.L1:
                        d1[i] |= bit
                    elif v != L.L0:
                        dx[i] |= bit
            flat: List[int] = []
            for i in range(width):
                flat.append(d1[i])
                flat.append(dx[i])
            return tuple(flat)

        return hook

    def _settle(self) -> None:
        self._r1, self._rx = self.program.fn(
            self._s1, self._sx, self._mem_hooks, self._mask
        )
        self._dirty = False

    # ------------------------------------------------------------------
    # memories
    # ------------------------------------------------------------------
    def privatize_memory(self, name: str, pattern: int) -> MemoryModel:
        """Give *pattern* its own copy of a shared (ROM) bank entry.

        ROM patterns alias bank 0 to save state; injecting an SEU into
        an aliased bank would corrupt every pattern, so the campaign
        un-aliases the target pattern first.  Idempotent; returns the
        pattern-private model.
        """
        model = self.memory_model(name, pattern)
        bank = self._mem_banks[name]
        if pattern > 0 and model is bank[0]:
            macro = self._macros[name]
            model = MemoryModel(macro.name, macro.depth, macro.width,
                                macro.contents)
            bank[pattern] = model
        return model

    def _reset_memories(self) -> None:
        for bank in self._mem_banks.values():
            for p, model in enumerate(bank):
                if p and model is bank[0]:
                    continue
                model.reset()

    # ------------------------------------------------------------------
    # clocking
    # ------------------------------------------------------------------
    def step(self, cycles: int = 1) -> None:
        """Advance one or more clock edges (all patterns at once)."""
        M = self._mask
        n = self.n_patterns
        for _ in range(cycles):
            self._ensure_settled()
            planes = self._planes
            updates = self._sample_flops()
            # sample memory writes (per pattern, into that pattern's bank)
            writes: List[Tuple[MemoryModel, Optional[int], int]] = []
            for bank, en_src, addr_srcs, data_srcs in self._write_ops:
                e1, ex = planes(en_src)
                active = (e1 | ex) & M
                if not active:
                    continue
                addr_planes = [planes(s) for s in addr_srcs]
                data_planes = [planes(s) for s in data_srcs]
                for p in range(n):
                    bit = 1 << p
                    if not active & bit:
                        continue
                    addr: Optional[int] = 0
                    for i, (a1, ax) in enumerate(addr_planes):
                        if ax & bit:
                            addr = None
                            break
                        if a1 & bit:
                            addr |= 1 << i  # type: ignore[operator]
                    data: Optional[int] = 0
                    for i, (d1, dx) in enumerate(data_planes):
                        if dx & bit:
                            data = None
                            break
                        if d1 & bit:
                            data |= 1 << i  # type: ignore[operator]
                    if ex & bit:
                        data = None  # X enable: commit 0, like interpreted
                    writes.append(
                        (bank[p], addr, data if data is not None else 0)
                    )
            for model, addr, value in writes:
                model.write(addr, value, cycle=self.cycles)
            for q_slot, nd1, ndx in updates:
                self._s1[q_slot] = nd1
                self._sx[q_slot] = ndx
            self.cycles += 1
            # settle lazily: the next read (or next iteration) runs the
            # compiled cone once, with the post-edge cycle number -- the
            # same values and hook cycle the interpreter's eager settle
            # produces, at half the full-evaluation count
            self._dirty = True

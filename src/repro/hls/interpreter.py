"""Cycle-accurate interpretation of a scheduled FSM.

This is the *behavioural simulation* of the paper's flow: the scheduled
program executes one control step per clock cycle, evaluating only the
operations of the active state -- which is why behavioural simulation is
faster than RTL simulation (the RTL simulator evaluates the entire
elaborated datapath, muxes and all, every cycle).

Semantics are identical to the RTL generated by
:mod:`repro.hls.codegen`: register writes commit at the end of the
cycle, memory reads are asynchronous (out-of-range addresses read 0,
like the plain array model), pulse outputs auto-clear.  The equivalence
tests verify behavioural-vs-RTL bit-exactness.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..datatypes.bits import mask
from . import memports
from .ir import HlsProgram
from .schedule import Fsm

#: memory-access monitor: (memory name, address, depth, kind)
MemMonitor = Callable[[str, int, int, str], None]


class FsmInterpreter:
    """Executes one :class:`Fsm` cycle by cycle."""

    backend = "interpreted"

    def __init__(self, fsm: Fsm, mem_monitor: Optional[MemMonitor] = None):
        self.fsm = fsm
        self.program: HlsProgram = fsm.program
        self.mem_monitor = mem_monitor
        self.state = fsm.entry
        self.cycles = 0

        self.env: Dict[str, int] = {}
        for var, width in self.program.variables.items():
            self.env[var] = 0
        for port in self.program.ports.values():
            self.env[port.name] = 0

        self.memories: Dict[str, List[int]] = {
            mem.name: memports.init_storage(mem.depth, mem.width,
                                            mem.contents)
            for mem in self.program.memories.values()
        }

        self._out_ports = [p for p in self.program.ports.values()
                           if p.direction == "out"]
        self._compile_states()

    # ------------------------------------------------------------------
    def _compile_states(self) -> None:
        self._compiled = []
        for st in self.fsm.states:
            reads = [
                (op.mem, op.addr.compile(), op.wire,
                 self.program.memories[op.mem].depth,
                 mask(self.program.memories[op.mem].width))
                for op in st.mem_reads
            ]
            regs = [
                (op.var, op.expr.compile(),
                 mask(self.program.variables[op.var]))
                for op in st.reg_writes
            ]
            ports = [
                (op.port, op.expr.compile(),
                 mask(self.program.ports[op.port].width))
                for op in st.port_writes
            ]
            writes = [
                (op.mem, op.addr.compile(), op.data.compile(),
                 self.program.memories[op.mem].depth,
                 mask(self.program.memories[op.mem].width))
                for op in st.mem_writes
            ]
            trans = [
                (tr.cond.compile() if tr.cond is not None else None,
                 tr.target)
                for tr in st.transitions
            ]
            self._compiled.append((reads, regs, ports, writes, trans))

    # ------------------------------------------------------------------
    def set_input(self, name: str, value: int) -> None:
        port = self.program.ports.get(name)
        if port is None or port.direction != "in":
            raise KeyError(f"{name!r} is not an input port")
        self.env[name] = value & mask(port.width)

    def get_output(self, name: str) -> int:
        port = self.program.ports.get(name)
        if port is None or port.direction != "out":
            raise KeyError(f"{name!r} is not an output port")
        return self.env[name]

    def write_memory(self, mem: str, address: int, value: int) -> None:
        """External write access (for memories owned by another block)."""
        spec = self.program.memories[mem]
        memports.write_mem(self.memories[mem], address, spec.depth,
                           value, mask(spec.width))

    def step(self, cycles: int = 1) -> None:
        env = self.env
        for _ in range(cycles):
            reads, regs, ports, writes, trans = self._compiled[self.state]
            for mem, addr_fn, wire, depth, _m in reads:
                addr = addr_fn(env)
                if self.mem_monitor is not None:
                    self.mem_monitor(mem, addr, depth, "read")
                env[wire] = memports.read_mem(self.memories[mem], addr,
                                              depth)
            # evaluate everything against the pre-edge environment
            reg_updates = [(var, fn(env) & m) for var, fn, m in regs]
            port_updates = [(port, fn(env) & m) for port, fn, m in ports]
            mem_updates = []
            for mem, addr_fn, data_fn, depth, m in writes:
                addr = addr_fn(env)
                if self.mem_monitor is not None:
                    self.mem_monitor(mem, addr, depth, "write")
                if 0 <= addr < depth:
                    mem_updates.append((mem, addr, data_fn(env) & m))
            next_state = trans[-1][1]
            for cond_fn, target in trans[:-1]:
                if cond_fn(env):
                    next_state = target
                    break
            # commit
            for var, value in reg_updates:
                env[var] = value
            written_ports = {p for p, _v in port_updates}
            for port, value in port_updates:
                env[port] = value
            for p in self._out_ports:
                if p.kind == "pulse" and p.name not in written_ports:
                    env[p.name] = 0
            for mem, addr, value in mem_updates:
                self.memories[mem][addr] = value
            self.state = next_state
            self.cycles += 1

    def reset(self) -> None:
        self.state = self.fsm.entry
        for var in self.program.variables:
            self.env[var] = 0
        for port in self.program.ports.values():
            self.env[port.name] = 0
        for mem in self.program.memories.values():
            memports.reset_storage(self.memories[mem.name], mem.depth,
                                   mem.width, mem.contents)
        self.cycles = 0

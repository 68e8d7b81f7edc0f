"""Host surface shared by the pattern-plane gate engines.

The compiled, native and vectorized gate engines all hold every net as
two bitplanes ``(ones, unk)`` -- bit *p* of a plane belongs to stimulus
pattern *p*; ``ones`` marks known-1 bits, ``unk`` marks X (Z collapses
to X, exactly how gate inputs treat it) -- and differ only in where the
planes live (Python integers, C ``uint64_t`` buffers, numpy ``uint64``
arrays), how the combinational cone settles and how a clock edge
commits.  :class:`PatternPlaneHost` owns everything else: the state /
result / port tables, the single-value and pattern-parallel port API,
the per-pattern memory lookup, reset and the interpreted-compatible
``values`` view.

An engine supplies:

* ``_compile(netlist, cache)`` -- the program with ``state_uids``,
  ``result_uids`` and ``x_state_uids`` layout tables;
* ``_allocate()`` -- the state planes ``_s1`` / ``_sx``, result planes
  ``_r1`` / ``_rx``, the all-patterns plane ``_mask`` and the empty
  plane ``_zero``, plus ``memories`` and ``_mem_banks`` (memory name ->
  per-pattern models, indexable by pattern);
* ``_settle()``, ``step()`` and ``_reset_memories()``; engines whose
  clock edge runs in Python sample flops with ``_sample_flops()`` and
  build their write-port table with ``_write_table()``.

The integer-plane methods here are the hot per-cycle path of the gate
benchmark rows and the fault-injection batches; the vectorized engine
overrides the few whose numpy planes really differ.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..compile_cache import CompileCache
from ..datatypes import logic as L
from ..datatypes.bits import mask
from ..synth.netlist import Netlist
from .simulator import GateSimError

__all__ = ["PatternPlaneHost"]

#: a plane source: (True, state_slot) or (False, result_index)
_Src = Tuple[bool, int]


class PatternPlaneHost:
    """Parallel-pattern gate simulator surface over bitplane storage.

    Mirrors the public API of the interpreted
    :class:`~repro.gatesim.simulator.GateSimulator` (``set_input`` /
    ``get`` / ``get_logic`` / ``step`` / ``reset``), and adds the
    pattern-parallel entry points ``set_input_patterns`` /
    ``get_patterns`` / ``get_port_planes`` / ``get_logic_pattern``:
    with ``n_patterns=N`` a single pass evaluates N independent
    stimulus vectors.

    The single-value API broadcasts writes across all patterns and reads
    pattern 0, so with ``n_patterns=1`` (the default) every engine is a
    drop-in, bit-exact replacement for the interpreted simulator.  The
    only representational difference: Z is stored as X.
    """

    def __init__(self, netlist: Netlist, n_patterns: int,
                 cache: Optional[CompileCache]):
        if n_patterns < 1:
            raise GateSimError(f"n_patterns must be >= 1, got {n_patterns}")
        netlist.validate()
        self.netlist = netlist
        self.n_patterns = n_patterns
        self.cycles = 0
        self.program = self._compile(netlist, cache)

        self._slot = {uid: i for i, uid in
                      enumerate(self.program.state_uids)}
        self._ridx = {uid: i for i, uid in
                      enumerate(self.program.result_uids)}
        self._allocate()

        one, zero = self._mask, self._zero
        self._s1[self._slot[netlist.const1.uid]] = one
        for uid in self.program.x_state_uids:
            self._sx[self._slot[uid]] = one

        # flops: (Q slot, init, D src, SI src, SE src); the sources feed
        # the Python-stepped engines' edge sampling
        self._flop_ops: List[Tuple[int, int, _Src, Optional[_Src],
                                   Optional[_Src]]] = []
        for flop in netlist.flops():
            q_slot = self._slot[flop.outputs["Q"].uid]
            init = flop.init & 1
            self._s1[q_slot] = one if init else zero
            scan = flop.cell_type == "SDFF"
            self._flop_ops.append((
                q_slot, init, self._src(flop.pins["D"].uid),
                self._src(flop.pins["SI"].uid) if scan else None,
                self._src(flop.pins["SE"].uid) if scan else None))

        # port lookup tables (outputs shadow inputs, like interpreted get)
        self._ports: Dict[str, List[_Src]] = {}
        for name, nets in list(netlist.outputs.items()) + \
                list(netlist.inputs.items()):
            self._ports.setdefault(
                name, [self._src(n.uid) for n in nets]
            )

        self._dirty = True
        self._settle()

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _src(self, uid: int) -> _Src:
        slot = self._slot.get(uid)
        if slot is not None:
            return (True, slot)
        return (False, self._ridx[uid])

    def _planes(self, src: _Src):
        state, index = src
        if state:
            return self._s1[index], self._sx[index]
        return self._r1[index], self._rx[index]

    def _ensure_settled(self) -> None:
        if self._dirty:
            self._settle()

    def _sample_flops(self) -> List[Tuple[int, object, object]]:
        """Per flop: (Q slot, next ones, next unk), SDFF scan mux
        included -- the sampling half of a Python-stepped clock edge."""
        M = self._mask
        planes = self._planes
        updates = []
        for q_slot, _init, d_src, si_src, se_src in self._flop_ops:
            d1, dx = planes(d_src)
            if se_src is not None:
                e1, ex = planes(se_src)
                s1, sx = planes(si_src)  # type: ignore[arg-type]
                e0 = M & ~(e1 | ex)
                nd1 = (e1 & s1) | (e0 & d1)
                ndx = (e1 & sx) | (e0 & dx) | ex
            else:
                nd1, ndx = d1, dx
            updates.append((q_slot, nd1, ndx))
        return updates

    def _write_table(self) -> List[Tuple[object, _Src, List[_Src],
                                         List[_Src]]]:
        """Per write port: (bank, enable src, addr srcs, data srcs)."""
        return [
            (self._mem_banks[macro.name], self._src(wp.enable.uid),
             [self._src(n.uid) for n in wp.addr],
             [self._src(n.uid) for n in wp.data])
            for macro in self.netlist.memories
            for wp in macro.write_ports
        ]

    # ------------------------------------------------------------------
    # single-value API (GateSimulator-compatible; pattern 0)
    # ------------------------------------------------------------------
    def set_input(self, name: str, value: int) -> None:
        """Drive *value* on input *name*, broadcast to all patterns."""
        nets = self.netlist.inputs.get(name)
        if nets is None:
            raise GateSimError(f"no input named {name!r}")
        value &= mask(len(nets))
        one, zero = self._mask, self._zero
        s1, sx, slot = self._s1, self._sx, self._slot
        for i, net in enumerate(nets):
            j = slot[net.uid]
            s1[j] = one if (value >> i) & 1 else zero
            sx[j] = zero
        self._dirty = True

    def set_input_logic(self, name: str, values: Sequence[int]) -> None:
        """Drive raw logic values (LSB first; X allowed) on *name*."""
        nets = self.netlist.inputs.get(name)
        if nets is None:
            raise GateSimError(f"no input named {name!r}")
        if len(values) != len(nets):
            raise GateSimError(
                f"input {name!r} is {len(nets)} bits, got {len(values)}"
            )
        one, zero = self._mask, self._zero
        for net, v in zip(nets, values):
            j = self._slot[net.uid]
            if v == L.L1:
                self._s1[j], self._sx[j] = one, zero
            elif v == L.L0:
                self._s1[j], self._sx[j] = zero, zero
            else:
                self._s1[j], self._sx[j] = zero, one
        self._dirty = True

    def get(self, name: str) -> int:
        """Read a port of pattern 0 as an integer (X/Z raise)."""
        return self.get_patterns(name)[0]

    def get_logic(self, name: str) -> List[int]:
        """Read a port of pattern 0 as raw logic values (LSB first)."""
        return self.get_logic_pattern(name, 0)

    # ------------------------------------------------------------------
    # pattern-parallel API
    # ------------------------------------------------------------------
    def set_input_patterns(self, name: str,
                           values: Sequence[int]) -> None:
        """Drive one integer stimulus value per pattern on *name*."""
        nets = self.netlist.inputs.get(name)
        if nets is None:
            raise GateSimError(f"no input named {name!r}")
        if len(values) != self.n_patterns:
            raise GateSimError(
                f"expected {self.n_patterns} pattern values, "
                f"got {len(values)}"
            )
        w_mask = mask(len(nets))
        planes = [0] * len(nets)
        for p, value in enumerate(values):
            value &= w_mask
            bit = 1 << p
            i = 0
            while value:
                if value & 1:
                    planes[i] |= bit
                value >>= 1
                i += 1
        for i, net in enumerate(nets):
            j = self._slot[net.uid]
            self._s1[j] = planes[i]
            self._sx[j] = 0
        self._dirty = True

    def get_patterns(self, name: str) -> List[int]:
        """Read a port as one integer per pattern (X/Z raise)."""
        srcs = self._ports.get(name)
        if srcs is None:
            raise GateSimError(f"no port named {name!r}")
        self._ensure_settled()
        out = [0] * self.n_patterns
        for i, src in enumerate(srcs):
            ones, unk = self._planes(src)
            if unk:
                p = (unk & -unk).bit_length() - 1
                raise GateSimError(
                    f"port {name!r} bit {i} is X in pattern {p}"
                )
            while ones:
                p = (ones & -ones).bit_length() - 1
                out[p] |= 1 << i
                ones &= ones - 1
        return out

    def get_port_planes(self, name: str) -> Tuple[List[int], List[int]]:
        """Read a port as raw bitplanes: per bit, (ones, unknowns).

        Bit *p* of each returned plane (a Python integer on every
        engine) belongs to pattern *p*.  This is the bulk-observation
        entry point of the fault-injection campaign: one call yields
        every pattern's view of the port with plain integer ops, X
        included, without the per-pattern decode of
        :meth:`get_patterns` / :meth:`get_logic_pattern`.
        """
        srcs = self._ports.get(name)
        if srcs is None:
            raise GateSimError(f"no port named {name!r}")
        self._ensure_settled()
        ones: List[int] = []
        unks: List[int] = []
        for src in srcs:
            a, x = self._planes(src)
            ones.append(a)
            unks.append(x)
        return ones, unks

    def get_logic_pattern(self, name: str, pattern: int = 0) -> List[int]:
        """Read a port of one pattern as logic values (X allowed)."""
        srcs = self._ports.get(name)
        if srcs is None:
            raise GateSimError(f"no port named {name!r}")
        self._ensure_settled()
        bit = 1 << pattern
        out = []
        for src in srcs:
            ones, unk = self._planes(src)
            if unk & bit:
                out.append(L.LX)
            elif ones & bit:
                out.append(L.L1)
            else:
                out.append(L.L0)
        return out

    # ------------------------------------------------------------------
    # memories
    # ------------------------------------------------------------------
    def memory_model(self, name: str, pattern: int = 0):
        """The model backing memory *name* for one pattern.

        The fault-injection campaign pokes pattern-private models to
        model memory-cell SEUs without touching the other patterns.
        """
        bank = self._mem_banks.get(name)
        if bank is None:
            raise GateSimError(f"no memory named {name!r}")
        if not 0 <= pattern < self.n_patterns:
            raise GateSimError(
                f"pattern {pattern} outside 0..{self.n_patterns - 1}"
            )
        return bank[pattern]

    def privatize_memory(self, name: str, pattern: int):
        """The pattern-private model of memory *name*.

        Storage is pattern-private unless an engine overrides this to
        un-alias shared banks; idempotent either way.
        """
        return self.memory_model(name, pattern)

    # ------------------------------------------------------------------
    # reset / introspection
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Restore flops and memories to their initial state."""
        one, zero = self._mask, self._zero
        for q_slot, init, *_srcs in self._flop_ops:
            self._s1[q_slot] = one if init else zero
            self._sx[q_slot] = zero
        self._reset_memories()
        self.cycles = 0
        self._dirty = True
        self._settle()

    @property
    def values(self) -> List[int]:
        """Pattern-0 net values indexed by uid (interpreted-compat view)."""
        self._ensure_settled()
        out = [L.LX] * len(self.netlist.nets)
        for uid, slot in self._slot.items():
            out[uid] = (L.LX if self._sx[slot] & 1
                        else (self._s1[slot] & 1))
        for uid, index in self._ridx.items():
            out[uid] = (L.LX if self._rx[index] & 1
                        else (self._r1[index] & 1))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"{type(self).__name__}({self.netlist.name!r}, "
                f"n_patterns={self.n_patterns})")

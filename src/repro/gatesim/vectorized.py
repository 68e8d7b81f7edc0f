"""Vectorized wide-word gate-level simulation (numpy uint64 bitplanes).

The compiled backend (:mod:`repro.gatesim.compiled`) packs patterns
into Python integers; throughput is excellent up to roughly one machine
word of patterns, after which every bitwise op pays the bignum tax one
limb at a time inside the interpreter loop.  This backend executes the
**same generated settle source** over numpy ``uint64`` arrays instead:

* every net is two bitplanes ``(ones, unk)``, each an ndarray of shape
  ``(n_words,)`` with ``n_words = ceil(n_patterns / 64)``; bit *p* of
  the flattened plane belongs to stimulus pattern *p*;
* the pattern mask ``M`` is an ndarray too (the tail word is partial),
  so the emitted code from :func:`~repro.gatesim.compiled._generate_source`
  runs unchanged -- the cell templates are pure ``& | ^ ~`` over
  confined planes;
* memory read ports are evaluated whole-faultload at once: address
  planes are transposed to per-pattern addresses with ``unpackbits``,
  the data is gathered from pattern-major storage in one indexing op,
  and the result is repacked with ``packbits``.

Programs are cached in the shared :data:`~repro.gatesim.compiled.COMPILE_CACHE`
under the ``"vectorized"`` backend tag, so compiled and vectorized
artifacts of one structural digest never collide.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..datatypes import logic as L
from ..datatypes.bits import mask
from ..synth.netlist import MemoryMacro, Netlist
from .compiled import CompileCache, compile_netlist
from .host import PatternPlaneHost
from .simulator import GateSimError

__all__ = ["VectorizedGateSimulator"]

_U64_FULL = np.uint64(0xFFFFFFFFFFFFFFFF)


def _unpack(plane: np.ndarray, n_patterns: int) -> np.ndarray:
    """Plane -> one 0/1 byte per pattern (LSB-first within the plane)."""
    return np.unpackbits(plane.view(np.uint8), count=n_patterns,
                         bitorder="little")


def _pack(bits: np.ndarray, n_words: int) -> np.ndarray:
    """One 0/1 value per pattern -> a (n_words,) uint64 plane."""
    packed = np.packbits(bits, bitorder="little")
    out = np.zeros(n_words * 8, dtype=np.uint8)
    out[: packed.size] = packed
    return out.view(np.uint64)


def _plane_to_int(plane: np.ndarray) -> int:
    return int.from_bytes(plane.tobytes(), "little")


def _int_to_plane(value: int, n_words: int) -> np.ndarray:
    data = value.to_bytes(n_words * 8, "little")
    return np.frombuffer(data, dtype=np.uint64).copy()


class _VecMemory:
    """Pattern-major vectorized storage of one memory macro.

    Cells hold known 0/1 words only (matching
    :class:`~repro.gatesim.memory.MemoryModel`); unknownness enters a
    read solely through X address bits, never through storage.
    """

    def __init__(self, macro: MemoryMacro, n_patterns: int):
        self.name = macro.name
        self.depth = macro.depth
        self.width = macro.width
        self.writable = macro.writable
        self._contents = macro.contents
        self._n_patterns = n_patterns
        self.data = self._fresh()

    def _fresh(self) -> np.ndarray:
        if self._contents is not None:
            m = mask(self.width)
            row = np.array([v & m for v in self._contents],
                           dtype=np.uint64)
            return np.tile(row, (self._n_patterns, 1))
        return np.zeros((self._n_patterns, self.depth), dtype=np.uint64)

    def reset(self) -> None:
        self.data = self._fresh()

    def __getitem__(self, pattern: int) -> "_VecMemoryView":
        return _VecMemoryView(self, pattern)


class _VecMemoryView:
    """One pattern's view of a :class:`_VecMemory` (FI poke surface)."""

    def __init__(self, mem: _VecMemory, pattern: int):
        self._mem = mem
        self._pattern = pattern
        self.name = mem.name
        self.depth = mem.depth
        self.width = mem.width

    def flip_bit(self, address: int, bit: int) -> None:
        """Flip one stored bit of this pattern -- a memory-cell SEU."""
        if not 0 <= address < self.depth:
            raise ValueError(
                f"{self.name}: SEU address {address} outside depth "
                f"{self.depth}"
            )
        if not 0 <= bit < self.width:
            raise ValueError(
                f"{self.name}: SEU bit {bit} outside width {self.width}"
            )
        self._mem.data[self._pattern, address] ^= np.uint64(1 << bit)

    def peek(self) -> List[int]:
        return [int(v) for v in self._mem.data[self._pattern]]


class VectorizedGateSimulator(PatternPlaneHost):
    """Wide-word parallel-pattern gate simulator over numpy bitplanes.

    Public API mirrors :class:`~repro.gatesim.compiled.CompiledGateSimulator`
    exactly (single-value calls broadcast writes / read pattern 0); the
    pattern count is unbounded by the machine word, so whole seeded
    faultloads or thousands of stimulus vectors evaluate per pass.
    Only the methods whose numpy planes really differ from integer
    planes are overridden here.
    """

    backend = "vectorized"

    def __init__(self, netlist: Netlist, checking_memories: bool = False,
                 reporter=None, n_patterns: int = 1,
                 cache: Optional[CompileCache] = None):
        if checking_memories:
            raise GateSimError(
                "checking memories are not supported by the vectorized "
                "backend (use 'interpreted' or 'compiled')"
            )
        super().__init__(netlist, n_patterns, cache)

    # ------------------------------------------------------------------
    # storage
    # ------------------------------------------------------------------
    def _compile(self, netlist: Netlist, cache: Optional[CompileCache]):
        return compile_netlist(netlist, cache=cache, backend="vectorized")

    def _allocate(self) -> None:
        n_patterns = self.n_patterns
        self._n_words = (n_patterns + 63) // 64
        m = np.full(self._n_words, _U64_FULL, dtype=np.uint64)
        tail = n_patterns % 64
        if tail:
            m[-1] = np.uint64((1 << tail) - 1)
        self._mask = m
        self._zero = np.zeros(self._n_words, dtype=np.uint64)
        self._rows = np.arange(n_patterns)

        # vectorized memories (pattern-major storage)
        self._mem_banks: Dict[str, _VecMemory] = {}
        self.memories: Dict[str, _VecMemoryView] = {}
        for macro in self.netlist.memories:
            mem = _VecMemory(macro, n_patterns)
            self._mem_banks[macro.name] = mem
            self.memories[macro.name] = mem[0]

        self._mem_hooks = [
            self._make_read_hook(self._mem_banks[name])
            for name, _port_index in self.program.mem_ports
        ]

        # state planes (arrays are never mutated in place, so sharing
        # references to M / zeros is safe)
        n_state = len(self.program.state_uids)
        self._s1: List[np.ndarray] = [self._zero] * n_state
        self._sx: List[np.ndarray] = [self._zero] * n_state
        self._r1: Tuple[np.ndarray, ...] = ()
        self._rx: Tuple[np.ndarray, ...] = ()
        self._write_ops = self._write_table()

    def _decode_address(self, addr1, addrx
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """Address planes -> (per-pattern address, per-pattern X flag)."""
        n = self.n_patterns
        addr = np.zeros(n, dtype=np.int64)
        unknown = np.zeros(n, dtype=bool)
        for i, plane in enumerate(addr1):
            addr |= _unpack(plane, n).astype(np.int64) << i
        for plane in addrx:
            if plane.any():
                unknown |= _unpack(plane, n).astype(bool)
        return addr, unknown

    def _make_read_hook(self, mem: _VecMemory):
        width = mem.width
        depth = mem.depth
        n_words = self._n_words
        rows = self._rows
        zeros = self._zero

        def hook(addr1, addrx, en1, enx):
            # the plain array model returns data regardless of the
            # enable (chip-select only matters to the checking model)
            addr, unknown = self._decode_address(addr1, addrx)
            in_range = addr < depth
            safe = np.where(in_range, addr, 0)
            word = np.where(in_range, mem.data[rows, safe], np.uint64(0))
            if unknown.any():
                x_plane = _pack(unknown.view(np.uint8), n_words)
                word = np.where(unknown, np.uint64(0), word)
            else:
                x_plane = zeros
            flat: List[np.ndarray] = []
            for i in range(width):
                bit = ((word >> np.uint64(i)) &
                       np.uint64(1)).astype(np.uint8)
                flat.append(_pack(bit, n_words))
                flat.append(x_plane)
            return tuple(flat)

        return hook

    def _settle(self) -> None:
        self._r1, self._rx = self.program.fn(
            self._s1, self._sx, self._mem_hooks, self._mask
        )
        self._dirty = False

    def _reset_memories(self) -> None:
        for mem in self._mem_banks.values():
            mem.reset()

    # ------------------------------------------------------------------
    # pattern-parallel API over numpy planes
    # ------------------------------------------------------------------
    def set_input_patterns(self, name: str,
                           values: Sequence[int]) -> None:
        """Drive one integer stimulus value per pattern on *name*.

        Accepts any integer sequence, including numpy arrays -- the
        wide benchmark drivers pre-generate ndarray stimulus.
        """
        nets = self.netlist.inputs.get(name)
        if nets is None:
            raise GateSimError(f"no input named {name!r}")
        if len(values) != self.n_patterns:
            raise GateSimError(
                f"expected {self.n_patterns} pattern values, "
                f"got {len(values)}"
            )
        width = len(nets)
        n_words = self._n_words
        if width <= 63:
            vals = np.asarray(values, dtype=np.uint64)
            vals = vals & np.uint64(mask(width))
            for i, net in enumerate(nets):
                j = self._slot[net.uid]
                bit = ((vals >> np.uint64(i)) &
                       np.uint64(1)).astype(np.uint8)
                self._s1[j] = _pack(bit, n_words)
                self._sx[j] = self._zero
        else:
            w_mask = mask(width)
            planes = [0] * width
            for p, value in enumerate(values):
                value = int(value) & w_mask
                bit = 1 << p
                i = 0
                while value:
                    if value & 1:
                        planes[i] |= bit
                    value >>= 1
                    i += 1
            for i, net in enumerate(nets):
                j = self._slot[net.uid]
                self._s1[j] = _int_to_plane(planes[i], n_words)
                self._sx[j] = self._zero
        self._dirty = True

    def get_patterns(self, name: str) -> List[int]:
        """Read a port as one integer per pattern (X/Z raise)."""
        srcs = self._ports.get(name)
        if srcs is None:
            raise GateSimError(f"no port named {name!r}")
        self._ensure_settled()
        out = [0] * self.n_patterns
        for i, src in enumerate(srcs):
            a, x = self._planes(src)
            unk = _plane_to_int(x)
            if unk:
                p = (unk & -unk).bit_length() - 1
                raise GateSimError(
                    f"port {name!r} bit {i} is X in pattern {p}"
                )
            ones = _plane_to_int(a)
            while ones:
                p = (ones & -ones).bit_length() - 1
                out[p] |= 1 << i
                ones &= ones - 1
        return out

    def get_port_planes(self, name: str) -> Tuple[List[int], List[int]]:
        """Read a port as raw bitplanes, as Python integers.

        Matches the integer-plane engines bit for bit -- the
        fault-injection classification code consumes either engine's
        planes through the same decoder.
        """
        srcs = self._ports.get(name)
        if srcs is None:
            raise GateSimError(f"no port named {name!r}")
        self._ensure_settled()
        ones: List[int] = []
        unks: List[int] = []
        for src in srcs:
            a, x = self._planes(src)
            ones.append(_plane_to_int(a))
            unks.append(_plane_to_int(x))
        return ones, unks

    def get_logic_pattern(self, name: str, pattern: int = 0) -> List[int]:
        """Read a port of one pattern as logic values (X allowed)."""
        srcs = self._ports.get(name)
        if srcs is None:
            raise GateSimError(f"no port named {name!r}")
        self._ensure_settled()
        word, bit = divmod(pattern, 64)
        probe = np.uint64(1 << bit)
        out = []
        for src in srcs:
            a, x = self._planes(src)
            if x[word] & probe:
                out.append(L.LX)
            elif a[word] & probe:
                out.append(L.L1)
            else:
                out.append(L.L0)
        return out

    # ------------------------------------------------------------------
    # clocking
    # ------------------------------------------------------------------
    def step(self, cycles: int = 1) -> None:
        """Advance one or more clock edges (all patterns at once)."""
        n = self.n_patterns
        rows = self._rows
        for _ in range(cycles):
            self._ensure_settled()
            planes = self._planes
            updates = self._sample_flops()
            # sample + commit memory writes (decode reads pre-edge
            # planes only, so committing per port preserves port order)
            for mem, en_src, addr_srcs, data_srcs in self._write_ops:
                e1, ex = planes(en_src)
                if not (e1.any() or ex.any()):
                    continue
                act = _unpack(e1 | ex, n).astype(bool)
                en_x = _unpack(ex, n).astype(bool) if ex.any() \
                    else np.zeros(n, dtype=bool)
                addr, addr_x = self._decode_address(
                    [planes(s)[0] for s in addr_srcs],
                    [planes(s)[1] for s in addr_srcs])
                data = np.zeros(n, dtype=np.uint64)
                data_x = en_x
                for i, src in enumerate(data_srcs):
                    d1, dx = planes(src)
                    data |= (_unpack(d1, n).astype(np.uint64)
                             << np.uint64(i))
                    if dx.any():
                        data_x = data_x | _unpack(dx, n).astype(bool)
                # X data or X enable commit 0; X address is dropped
                data = np.where(data_x, np.uint64(0), data)
                sel = act & ~addr_x & (addr < mem.depth)
                if sel.any():
                    mem.data[rows[sel], addr[sel]] = data[sel]
            for q_slot, nd1, ndx in updates:
                self._s1[q_slot] = nd1
                self._sx[q_slot] = ndx
            self.cycles += 1
            # settle lazily, like the compiled backend
            self._dirty = True

    # ------------------------------------------------------------------
    # interop / introspection
    # ------------------------------------------------------------------
    @property
    def values(self) -> List[int]:
        """Pattern-0 net values indexed by uid (interpreted-compat view)."""
        self._ensure_settled()
        one = np.uint64(1)
        out = [L.LX] * len(self.netlist.nets)
        for uid, slot in self._slot.items():
            out[uid] = (L.LX if self._sx[slot][0] & one
                        else int(self._s1[slot][0] & one))
        for uid, index in self._ridx.items():
            out[uid] = (L.LX if self._rx[index][0] & one
                        else int(self._r1[index][0] & one))
        return out

"""The behavioural (scheduled-FSM) engine factory.

Everything that runs a scheduled FSM -- the behavioural SRC simulation
and its batch front end, the Fig. 8 throughput rows and the corpus
runner -- builds its engine through :func:`fsm_engine`, so an engine
name is checked and resolved (``native`` degrading to ``compiled``
without a C toolchain) in exactly one place at this level.
"""

from __future__ import annotations

from typing import Optional

from ..native import resolve_engine
from .compiled import CompiledFsm, CompiledFsmBatch
from .interpreter import FsmInterpreter, MemMonitor
from .native import NativeFsm, NativeFsmBatch
from .schedule import Fsm
from .vectorized import VectorizedFsm, VectorizedFsmBatch

__all__ = ["fsm_engine"]

#: single-pattern engines, all with the interpreter's scalar surface
_SCALAR = {engine.backend: engine for engine in (
    FsmInterpreter, CompiledFsm, VectorizedFsm, NativeFsm)}

#: N-pattern batch engines (the interpreter has no batch form)
_BATCH = {engine.backend: engine for engine in (
    CompiledFsmBatch, VectorizedFsmBatch, NativeFsmBatch)}


def fsm_engine(fsm: Fsm, backend: str = "interpreted",
               n_patterns: Optional[int] = None,
               mem_monitor: Optional[MemMonitor] = None):
    """Build the FSM engine *backend* names.

    With ``n_patterns=None`` the engine has the interpreter's scalar
    surface (``set_input`` / ``get_output`` / ``write_memory`` /
    ``step``); otherwise it is an N-pattern batch (``set_input_patterns``
    / ``get_output_patterns`` / ...).  The engine's ``backend``
    attribute names the engine that actually runs.
    """
    backend = resolve_engine(backend)
    if n_patterns is None:
        return _SCALAR[backend](fsm, mem_monitor=mem_monitor)
    engine = _BATCH.get(backend)
    if engine is None:
        raise ValueError("parallel patterns need a batch backend")
    return engine(fsm, n_patterns, mem_monitor=mem_monitor)

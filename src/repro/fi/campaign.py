"""Fault-injection campaign runner.

Ties the subsystem together: a seeded workload from the verification
harness's stimulus generator, a seeded faultload over the injectable
spaces, and lockstep execution of every fault against the
schedule-matched golden model -- the dependability-assessment
counterpart of the flow's bit-accuracy refinement checks.

Execution strategies:

* **gate level, compiled** -- parallel-fault simulation: faults are
  batched into one saboteur overlay and run through the compiled
  backend's pattern planes, pattern 0 carrying the fault-free run as an
  in-flight golden cross-check.  One codegen pass and one simulation
  sweep classify a whole batch (up to the 64-pattern machine-word cap).
* **gate level, vectorized** -- the same parallel-fault scheme on the
  numpy bitplane backend, whose pattern width is unbounded: the whole
  seeded faultload becomes a single sweep instead of a queue of
  word-sized batches, keeping the pattern-0 golden cross-check.
* **gate level, interpreted** -- one saboteur overlay and one
  selective-trace simulation per fault (the throughput baseline).
* **rtl** -- register-bit flips poked straight into the simulator
  environment.  The interpreted and compiled engines run one fault per
  simulation; the vectorized engine sweeps the whole faultload at once,
  one lane per fault plus the fault-free lane 0.
* **beh** -- FSM variable-bit flips.  On the compiled behavioural
  backend faults are batched into the pattern planes of one
  :class:`~repro.hls.compiled.CompiledFsmBatch` (pattern 0 fault-free
  as the in-flight golden cross-check, exactly like the gate batches);
  the vectorized backend runs the same scheme whole-faultload-wide on
  uint64 lane arrays; the interpreted engine runs one fault per
  simulation.

Campaigns scale across a ``multiprocessing`` worker pool
(:func:`repro.pool.parallel_map`); classification is a pure function of
``(fault, workload)``, so any job count produces identical records,
and per-task compile-cache deltas are shipped back to the parent so
cache statistics stay correct under ``--jobs``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..compile_cache import (absorb_deltas, aggregate_stats,
                             counters_delta, counters_snapshot)
from ..datatypes import logic as L
from ..datatypes.integers import wrap_signed
from ..flow.refinement import Level, build_module
from ..gatesim import GateSimulator
from ..native import ENGINES
from ..obs.metrics import REGISTRY
from ..obs.trace import record_span, span
from ..pool import PoolInterrupted, parallel_map
from ..rtl import RtlSimulator
from ..src_design.behavioral import (BehavioralBatchSimulation,
                                     BehavioralSimulation, build_main_fsm)
from ..src_design.params import SrcParams
from ..src_design.schedule import KIND_IN, KIND_MODE, KIND_OUT, make_schedule
from ..src_design.testbench import BehavioralDutDriver, RtlDutDriver
from ..synth import synthesize
from ..verify.runner import golden_outputs
from ..verify.stimulus import StimulusCase, generate_cases
from .faultload import (generate_beh_faultload, generate_gate_faultload,
                        generate_rtl_faultload)
from .faults import FAULT_MODELS, Fault, build_overlay, control_name
from .report import (CampaignReport, FaultRecord, SelfCheckResult,
                     Throughput, tally)

#: campaign levels (the clocked implementation levels of the flow)
LEVELS = ("rtl", "beh", "gate")

#: engines a campaign classifies on; the interpreted engine only runs
#: the throughput probe
BATCH_ENGINES = tuple(e for e in ENGINES if e != "interpreted")


class CampaignError(RuntimeError):
    """Raised for campaign-harness failures (never for fault effects)."""


#: workload sizes per budget name: input samples driven through the SRC
BUDGET_FRAMES = {"smoke": 8, "small": 12, "medium": 24, "large": 64}


@dataclass(frozen=True)
class CampaignConfig:
    """Everything a campaign needs; fully determines its outcome."""

    params: SrcParams
    level: str = "gate"              # 'gate' | 'rtl' | 'beh'
    n_faults: int = 100
    jobs: int = 1
    seed: int = 0
    budget: str = "small"            # workload size, see BUDGET_FRAMES
    models: Tuple[str, ...] = FAULT_MODELS
    exhaustive: bool = False
    #: classification engine: 'compiled' (word-width pattern batches),
    #: 'vectorized' (whole-faultload numpy sweeps) or 'native'
    #: (word-width C batches; degrades to 'compiled' sans toolchain)
    backend: str = "compiled"
    #: faults per compiled-overlay batch (plus pattern 0 = fault-free);
    #: the vectorized engine ignores this -- its batch is the faultload
    batch_size: int = 31
    #: faults re-run on the interpreted engine for the throughput probe
    probe_faults: int = 16

    def validated(self) -> "CampaignConfig":
        if self.level not in LEVELS:
            raise CampaignError(
                f"unknown level {self.level!r} (expected one of {LEVELS})")
        if self.backend not in BATCH_ENGINES:
            raise CampaignError(
                f"unknown campaign backend {self.backend!r} "
                f"(expected one of {BATCH_ENGINES})")
        if self.budget not in BUDGET_FRAMES:
            raise CampaignError(
                f"unknown budget {self.budget!r} "
                f"(known: {', '.join(BUDGET_FRAMES)})")
        if self.n_faults < 1:
            raise CampaignError("n_faults must be >= 1")
        if self.batch_size < 1:
            raise CampaignError("batch_size must be >= 1")
        return self


@dataclass
class Workload:
    """One stimulus case prepared for cycle-accurate lockstep."""

    case: StimulusCase
    golden: List[Tuple[int, ...]]
    by_tick: Dict[int, List[object]]
    last_tick: int
    cycle_budget: int

    @property
    def expected(self) -> int:
        return len(self.golden)


def make_workload(params: SrcParams, seed: int, budget: str) -> Workload:
    """Build the campaign workload: stimulus, schedule, golden outputs.

    The workload is the first case the verification harness would fuzz
    with the same seed (kind ``random``), run over the clock-quantised
    schedule -- so fault outcomes are judged against exactly the golden
    stream the differential harness uses.
    """
    n_inputs = BUDGET_FRAMES[budget]
    case = generate_cases(params, seed, 1, n_inputs)[0]
    golden = [tuple(f) for f in golden_outputs(params, case,
                                               quantized=True)]
    schedule = make_schedule(params, case.mode, case.n_inputs,
                             quantized=True,
                             mode_changes=case.mode_changes)
    clk = params.clock_period_ps
    by_tick: Dict[int, List[object]] = {}
    last_tick = 0
    for ev in schedule:
        tick = int(ev.time_ps // clk)
        by_tick.setdefault(tick, []).append(ev)
        last_tick = max(last_tick, tick)
    cycle_budget = last_tick + params.max_latency_cycles + 8
    return Workload(case, golden, by_tick, last_tick, cycle_budget)


def build_campaign_netlist(params: SrcParams) -> "object":
    """The gate-level DUT of the campaign: the synthesised RTL netlist.

    Synthesis inserts the scan chain (the paper's area numbers include
    one in every design), which guarantees
    :func:`repro.fi.targets.flop_targets` enumerates the complete state
    space.  ``scan_en`` stays 0 throughout the workload, so the scan
    netlist is workload-equivalent to the plain one.
    """
    return synthesize(build_module(params, Level.GATE_RTL))


def _drive_workload_inputs(sim, events) -> None:
    """Drive one tick's schedule events on the DUT inputs (broadcast)."""
    frame = None
    cfg = None
    req = False
    for ev in events:
        if ev.kind == KIND_IN:
            frame = ev.value
        elif ev.kind == KIND_OUT:
            req = True
        elif ev.kind == KIND_MODE:
            cfg = ev.value
    sim.set_input("in_valid", 1 if frame is not None else 0)
    if frame is not None:
        sim.set_input("in_l", frame[0])
        sim.set_input("in_r", frame[1])
    sim.set_input("cfg_valid", 1 if cfg is not None else 0)
    if cfg is not None:
        sim.set_input("cfg_mode", cfg)
    sim.set_input("out_req", 1 if req else 0)


def _resolve_frames(workload: Workload):
    """Replace KIND_IN event values (input indices) with sample frames."""
    by_tick: Dict[int, List[object]] = {}
    inputs = workload.case.inputs
    for tick, events in workload.by_tick.items():
        out = []
        for ev in events:
            if ev.kind == KIND_IN:
                ev = replace(ev, value=inputs[ev.value])
            out.append(ev)
        by_tick[tick] = out
    return by_tick


def _classify(fault: Fault, outputs, detected, golden) -> FaultRecord:
    """Map one fault's observed behaviour onto the outcome taxonomy."""
    if detected is not None:
        cycle, detail = detected
        return FaultRecord(fault, "detected", detected_cycle=cycle,
                           detail=detail, n_outputs=len(outputs))
    if len(outputs) < len(golden):
        return FaultRecord(fault, "hang", n_outputs=len(outputs))
    for i, (got, want) in enumerate(zip(outputs, golden)):
        if got != want:
            return FaultRecord(fault, "sdc", first_frame=i,
                               n_outputs=len(outputs))
    return FaultRecord(fault, "masked", n_outputs=len(outputs))


# ----------------------------------------------------------------------
# gate level: parallel-fault batches on the compiled backend
# ----------------------------------------------------------------------

def run_gate_batch(netlist, workload: Workload, faults: Sequence[Fault],
                   params: SrcParams,
                   backend: str = "compiled") -> List[FaultRecord]:
    """Classify a batch of gate-level faults in one batched sweep.

    Builds a single overlay carrying every structural fault, simulates
    ``len(faults) + 1`` patterns at once -- pattern 0 fault-free, pattern
    ``b + 1`` with fault ``b``'s control asserted per its schedule --
    and diffs each pattern's output stream against the golden model.
    The fault-free pattern doubles as an in-run sanity check: if it
    diverges from the golden model the harness itself is broken.

    *backend* selects the pattern engine: ``"compiled"`` and
    ``"native"`` cap batches at the 64-pattern machine word,
    ``"vectorized"`` takes a whole faultload in one numpy sweep.
    """
    overlay = build_overlay(netlist, faults)
    n = len(faults)
    sim = GateSimulator(overlay.netlist, backend=backend,
                        n_patterns=n + 1)
    pattern_of = {f.index: b + 1 for b, f in enumerate(faults)}

    toggles: Dict[int, List[Tuple[Fault, int]]] = {}
    mem_pokes: Dict[int, List[Fault]] = {}
    for fault in faults:
        if fault.target_kind == "mem":
            mem_pokes.setdefault(fault.cycle, []).append(fault)
        elif fault.permanent:
            values = [0] * (n + 1)
            values[pattern_of[fault.index]] = 1
            sim.set_input_patterns(control_name(fault), values)
        else:
            toggles.setdefault(fault.cycle, []).append((fault, 1))
            toggles.setdefault(fault.cycle + fault.duration,
                               []).append((fault, 0))

    by_tick = _resolve_frames(workload)
    golden = workload.golden
    expected = workload.expected
    dw = params.data_width
    outputs: List[List[Tuple[int, int]]] = [[] for _ in range(n + 1)]
    detected: List[Optional[Tuple[int, str]]] = [None] * (n + 1)
    live = list(range(n + 1))

    tick = 0
    while tick <= workload.cycle_budget and live:
        _drive_workload_inputs(sim, by_tick.get(tick, ()))
        for fault, value in toggles.get(tick, ()):
            values = [0] * (n + 1)
            values[pattern_of[fault.index]] = value
            sim.set_input_patterns(control_name(fault), values)
        for fault in mem_pokes.get(tick, ()):
            model = sim.privatize_memory(fault.target,
                                         pattern_of[fault.index])
            model.flip_bit(fault.address, fault.bit)
        sim.step()

        v_ones, v_unks = sim.get_port_planes("out_valid")
        valid_ones, valid_unk = v_ones[0], v_unks[0]
        l_planes = r_planes = None
        if valid_ones or valid_unk:
            l_planes = sim.get_port_planes("out_l")
            r_planes = sim.get_port_planes("out_r")
        still_live = []
        for p in live:
            bit = 1 << p
            if valid_unk & bit:
                detected[p] = (tick, "out_valid is X")
                continue
            if valid_ones & bit:
                frame = _decode_pattern(l_planes, r_planes, p, dw)
                if frame is None:
                    detected[p] = (tick, "output data is X")
                    continue
                outputs[p].append(frame)
                if len(outputs[p]) >= expected:
                    continue  # pattern finished its stream
            still_live.append(p)
        live = still_live
        tick += 1

    if detected[0] is not None or outputs[0] != golden:
        raise CampaignError(
            f"fault-free pattern diverged from the golden model on "
            f"overlay {overlay.netlist.name!r} -- campaign harness bug")
    return [_classify(fault, outputs[b + 1], detected[b + 1], golden)
            for b, fault in enumerate(faults)]


def _decode_pattern(l_planes, r_planes, p: int,
                    data_width: int) -> Optional[Tuple[int, int]]:
    """Extract pattern *p*'s (out_l, out_r) frame; None when any bit
    is X."""
    bit = 1 << p
    frame = []
    for ones, unks in (l_planes, r_planes):
        value = 0
        for i in range(len(ones)):
            if unks[i] & bit:
                return None
            if ones[i] & bit:
                value |= 1 << i
        frame.append(wrap_signed(value, data_width))
    return (frame[0], frame[1])


# ----------------------------------------------------------------------
# gate level: one fault per run (interpreted-engine baseline)
# ----------------------------------------------------------------------

def run_gate_fault_scalar(netlist, workload: Workload, fault: Fault,
                          params: SrcParams,
                          backend: str = "interpreted") -> FaultRecord:
    """Classify one gate-level fault with a single-pattern simulation."""
    overlay = build_overlay(netlist, [fault])
    by_tick = _resolve_frames(workload)
    golden = workload.golden
    expected = workload.expected
    dw = params.data_width
    outputs: List[Tuple[int, int]] = []
    detected: Optional[Tuple[int, str]] = None
    tick = 0
    try:
        sim = GateSimulator(overlay.netlist, backend=backend)
        ctrl = control_name(fault) if fault.structural else None
        ctrl_state = 0
        while tick <= workload.cycle_budget and len(outputs) < expected:
            _drive_workload_inputs(sim, by_tick.get(tick, ()))
            if ctrl is not None:
                want = 1 if fault.active(tick) else 0
                if want != ctrl_state:
                    sim.set_input(ctrl, want)
                    ctrl_state = want
            elif fault.target_kind == "mem" and tick == fault.cycle:
                sim.memory_model(fault.target).flip_bit(
                    fault.address, fault.bit)
            sim.step()
            valid = sim.get_logic("out_valid")[0]
            if valid not in (L.L0, L.L1):
                detected = (tick, "out_valid is X")
                break
            if valid == L.L1:
                frame = []
                for port in ("out_l", "out_r"):
                    bits = sim.get_logic(port)
                    if any(b not in (L.L0, L.L1) for b in bits):
                        detected = (tick, "output data is X")
                        break
                    frame.append(wrap_signed(
                        sum(1 << i for i, b in enumerate(bits)
                            if b == L.L1), dw))
                if detected is not None:
                    break
                outputs.append((frame[0], frame[1]))
            tick += 1
    except Exception as exc:  # simulator check fired: the fault was caught
        detected = (tick, f"{type(exc).__name__}: {exc}")
    return _classify(fault, outputs, detected, golden)


# ----------------------------------------------------------------------
# rtl level: register-bit flips poked into the simulator environment
# ----------------------------------------------------------------------

def run_rtl_fault(module, workload: Workload, fault: Fault,
                  params: SrcParams,
                  backend: str = "interpreted") -> FaultRecord:
    """Classify one RTL register SEU on either RTL engine.

    The flip is applied to the simulator environment at the start of
    the injection cycle, so all logic evaluated on that cycle -- and the
    next-state functions -- see the upset value, matching the gate-level
    XOR saboteur's observation window.
    """
    by_tick = _resolve_frames(workload)
    golden = workload.golden
    expected = workload.expected
    outputs: List[Tuple[int, int]] = []
    detected: Optional[Tuple[int, str]] = None
    tick = 0
    try:
        sim = RtlSimulator(module, backend=backend)
        driver = RtlDutDriver(sim, params)
        while tick <= workload.cycle_budget and len(outputs) < expected:
            if tick == fault.cycle:
                sim.env[fault.target] = (
                    sim.env[fault.target] ^ (1 << fault.bit))
                sim.settle()
            frame = None
            cfg = None
            req = False
            for ev in by_tick.get(tick, ()):
                if ev.kind == KIND_IN:
                    frame = ev.value
                elif ev.kind == KIND_OUT:
                    req = True
                elif ev.kind == KIND_MODE:
                    cfg = ev.value
            result = driver.cycle(frame=frame, cfg=cfg, req=req)
            if result is not None:
                outputs.append(tuple(result))
            tick += 1
    except Exception as exc:  # model check fired: the fault was caught
        detected = (tick, f"{type(exc).__name__}: {exc}")
    return _classify(fault, outputs, detected, golden)


def run_rtl_batch(module, workload: Workload, faults: Sequence[Fault],
                  params: SrcParams) -> List[FaultRecord]:
    """Classify a batch of RTL faults in one vectorized sweep.

    One :class:`~repro.rtl.vectorized.VectorizedRtlSimulator` carries
    ``len(faults) + 1`` lanes under the common workload: lane 0 runs
    fault-free as the in-flight golden cross-check, lane ``b + 1``
    takes fault ``b``'s register-bit flip at its injection cycle --
    the RTL mirror of the gate level's parallel-fault batches.
    Register state is held per lane, so a single settle/step pass per
    cycle classifies the whole faultload.
    """
    import numpy as np

    n = len(faults)
    sim = RtlSimulator(module, backend="vectorized", n_patterns=n + 1)
    pokes: Dict[int, List[Tuple[int, Fault]]] = {}
    for b, fault in enumerate(faults):
        pokes.setdefault(fault.cycle, []).append((b + 1, fault))

    by_tick = _resolve_frames(workload)
    golden = workload.golden
    expected = workload.expected
    dw = params.data_width
    outputs: List[List[Tuple[int, int]]] = [[] for _ in range(n + 1)]
    remaining = n + 1
    tick = 0
    while tick <= workload.cycle_budget and remaining:
        if tick in pokes:
            for p, fault in pokes[tick]:
                sim.env[fault.target][p] ^= np.uint64(1 << fault.bit)
            sim.settle()
        _drive_workload_inputs(sim, by_tick.get(tick, ()))
        sim.step()
        valid = sim.get_patterns("out_valid")
        if any(valid):
            out_l = sim.get_patterns("out_l")
            out_r = sim.get_patterns("out_r")
            for p in range(n + 1):
                if valid[p] and len(outputs[p]) < expected:
                    outputs[p].append((wrap_signed(out_l[p], dw),
                                       wrap_signed(out_r[p], dw)))
                    if len(outputs[p]) >= expected:
                        remaining -= 1
        tick += 1

    if outputs[0] != golden:
        raise CampaignError(
            f"fault-free pattern diverged from the golden model on "
            f"module {module.name!r} -- campaign harness bug")
    return [_classify(fault, outputs[b + 1], None, golden)
            for b, fault in enumerate(faults)]


# ----------------------------------------------------------------------
# behavioural level: FSM variable-bit flips
# ----------------------------------------------------------------------

def _workload_stimulus(events):
    """Split one tick's schedule events into (frame, cfg, req)."""
    frame = None
    cfg = None
    req = False
    for ev in events:
        if ev.kind == KIND_IN:
            frame = ev.value
        elif ev.kind == KIND_OUT:
            req = True
        elif ev.kind == KIND_MODE:
            cfg = ev.value
    return frame, cfg, req


def run_beh_batch(fsm, workload: Workload, faults: Sequence[Fault],
                  params: SrcParams,
                  backend: str = "compiled") -> List[FaultRecord]:
    """Classify a batch of behavioural faults in one batched sweep.

    One :class:`BehavioralBatchSimulation` carries ``len(faults) + 1``
    private FSM instances under the common workload: pattern 0 runs
    fault-free as the in-flight golden cross-check, pattern ``b + 1``
    takes fault ``b``'s variable-bit flip at its injection cycle --
    the behavioural mirror of the gate level's parallel-fault batches.
    *backend* picks the batch engine (``"compiled"`` per-pattern
    environments, ``"vectorized"`` uint64 lane arrays, ``"native"``
    pattern-major C buffers).
    """
    n = len(faults)
    sim = BehavioralBatchSimulation(params, n + 1, fsm=fsm,
                                    backend=backend)
    pokes: Dict[int, List[Tuple[int, Fault]]] = {}
    for b, fault in enumerate(faults):
        pokes.setdefault(fault.cycle, []).append((b + 1, fault))

    by_tick = _resolve_frames(workload)
    golden = workload.golden
    expected = workload.expected
    dw = params.data_width
    outputs: List[List[Tuple[int, int]]] = [[] for _ in range(n + 1)]
    remaining = n + 1
    tick = 0
    while tick <= workload.cycle_budget and remaining:
        for p, fault in pokes.get(tick, ()):
            sim.batch.flip_bit(p, fault.target, fault.bit)
        frame, cfg, req = _workload_stimulus(by_tick.get(tick, ()))
        if frame is not None:
            sim.drive_input(frame[0], frame[1])
        if cfg is not None:
            sim.drive_cfg(cfg)
        if req:
            sim.drive_req()
        frames = sim.step()
        for p, result in enumerate(frames):
            if result is not None and len(outputs[p]) < expected:
                outputs[p].append((wrap_signed(result[0], dw),
                                   wrap_signed(result[1], dw)))
                if len(outputs[p]) >= expected:
                    remaining -= 1
        tick += 1

    if outputs[0] != golden:
        raise CampaignError(
            f"fault-free pattern diverged from the golden model on "
            f"FSM {fsm.name!r} -- campaign harness bug")
    return [_classify(fault, outputs[b + 1], None, golden)
            for b, fault in enumerate(faults)]


def run_beh_fault_scalar(fsm, workload: Workload, fault: Fault,
                         params: SrcParams,
                         backend: str = "interpreted") -> FaultRecord:
    """Classify one behavioural fault on either FSM engine.

    The flip is applied to the FSM environment at the start of the
    injection cycle, before that cycle's evaluation -- the same
    observation window as :func:`run_rtl_fault`.
    """
    by_tick = _resolve_frames(workload)
    golden = workload.golden
    expected = workload.expected
    outputs: List[Tuple[int, int]] = []
    detected: Optional[Tuple[int, str]] = None
    tick = 0
    try:
        sim = BehavioralSimulation(params, fsm=fsm, backend=backend)
        driver = BehavioralDutDriver(sim, params)
        while tick <= workload.cycle_budget and len(outputs) < expected:
            if tick == fault.cycle:
                env = sim.interp.env
                env[fault.target] = env[fault.target] ^ (1 << fault.bit)
            frame, cfg, req = _workload_stimulus(by_tick.get(tick, ()))
            result = driver.cycle(frame=frame, cfg=cfg, req=req)
            if result is not None:
                outputs.append(tuple(result))
            tick += 1
    except Exception as exc:  # model check fired: the fault was caught
        detected = (tick, f"{type(exc).__name__}: {exc}")
    return _classify(fault, outputs, detected, golden)


# ----------------------------------------------------------------------
# pool tasks
# ----------------------------------------------------------------------

#: per-process campaign state, (re)built by :func:`_init_worker`
_WORKER: Dict[str, object] = {}


def _init_worker(params: SrcParams, level: str, seed: int,
                 budget: str, backend: str = "compiled") -> None:
    """(Re)build per-process campaign state.

    Pure function of its arguments, so forked workers (which inherit
    the parent's state -- detected via the key check) skip the rebuild,
    while spawned workers reconstruct identical state from scratch.
    """
    key = (params, level, seed, budget, backend)
    if _WORKER.get("key") == key:
        return
    _WORKER.clear()
    _WORKER["key"] = key
    _WORKER["params"] = params
    _WORKER["backend"] = backend
    with span("fi.workload", seed=seed, budget=budget):
        _WORKER["workload"] = make_workload(params, seed, budget)
    with span("fi.build_dut", level=level):
        if level == "gate":
            _WORKER["netlist"] = build_campaign_netlist(params)
        elif level == "beh":
            _WORKER["fsm"] = build_main_fsm(params, True)
        else:
            _WORKER["module"] = build_module(params, Level.RTL_OPT)


def _gate_batch_task(faults: Sequence[Fault]):
    """Pool task: classify one batch; returns records + cache deltas."""
    before = counters_snapshot()
    with span("fi.batch", level="gate", n_faults=len(faults)):
        try:
            records = run_gate_batch(_WORKER["netlist"],
                                     _WORKER["workload"],
                                     faults, _WORKER["params"],
                                     backend=_WORKER.get("backend",
                                                         "compiled"))
        except CampaignError:
            raise
        except Exception:
            # a whole-batch failure cannot be attributed to one fault:
            # isolate by re-running each fault in its own
            # single-pattern run
            records = [
                run_gate_fault_scalar(_WORKER["netlist"],
                                      _WORKER["workload"],
                                      fault, _WORKER["params"],
                                      backend="compiled")
                for fault in faults
            ]
    after = counters_snapshot()
    return records, counters_delta(before, after)


def _rtl_fault_task(fault: Fault):
    """Pool task: classify one RTL fault; returns record + cache deltas."""
    before = counters_snapshot()
    with span("fi.fault", level="rtl", target=fault.target):
        record = run_rtl_fault(_WORKER["module"], _WORKER["workload"],
                               fault, _WORKER["params"],
                               backend=_WORKER.get("backend",
                                                   "compiled"))
    after = counters_snapshot()
    return record, counters_delta(before, after)


def _rtl_batch_task(faults: Sequence[Fault]):
    """Pool task: classify one vectorized RTL sweep; records + deltas."""
    before = counters_snapshot()
    with span("fi.batch", level="rtl", n_faults=len(faults)):
        try:
            records = run_rtl_batch(_WORKER["module"], _WORKER["workload"],
                                    faults, _WORKER["params"])
        except CampaignError:
            raise
        except Exception:
            # a whole-sweep failure cannot be attributed to one fault:
            # isolate by re-running each fault in its own scalar run
            records = [
                run_rtl_fault(_WORKER["module"], _WORKER["workload"],
                              fault, _WORKER["params"],
                              backend="compiled")
                for fault in faults
            ]
    after = counters_snapshot()
    return records, counters_delta(before, after)


def _beh_batch_task(faults: Sequence[Fault]):
    """Pool task: classify one behavioural batch; records + deltas."""
    before = counters_snapshot()
    with span("fi.batch", level="beh", n_faults=len(faults)):
        try:
            records = run_beh_batch(_WORKER["fsm"], _WORKER["workload"],
                                    faults, _WORKER["params"],
                                    backend=_WORKER.get("backend",
                                                        "compiled"))
        except CampaignError:
            raise
        except Exception:
            # a whole-batch failure cannot be attributed to one fault:
            # isolate by re-running each fault in its own scalar run
            records = [
                run_beh_fault_scalar(_WORKER["fsm"], _WORKER["workload"],
                                     fault, _WORKER["params"],
                                     backend="compiled")
                for fault in faults
            ]
    after = counters_snapshot()
    return records, counters_delta(before, after)


# ----------------------------------------------------------------------
# campaign entry points
# ----------------------------------------------------------------------

def _vector_chunk(n_faults: int, jobs: int) -> int:
    """Vectorized task width: the whole faultload per worker.

    The vectorized engine has no machine-word pattern cap, so its
    batches are never truncated to the compiled backend's 64-pattern
    width -- the faultload is split only as far as needed to feed every
    pool worker one sweep.
    """
    return max(1, -(-n_faults // max(jobs, 1)))


def campaign_faultload(config: CampaignConfig) -> Tuple[List[Fault], str]:
    """The campaign's deterministic faultload and its DUT name.

    Requires the per-process campaign state (:func:`_init_worker` with
    the config's parameters), so the DUT is already built.  The result
    is a pure function of the config -- the property that lets the
    campaign service content-address classification results by
    faultload digest and serve identical requests from its cache.
    """
    workload: Workload = _WORKER["workload"]  # type: ignore[assignment]
    if config.level == "gate":
        netlist = _WORKER["netlist"]
        faults = generate_gate_faultload(
            netlist, config.n_faults, config.seed, workload.cycle_budget,
            models=config.models, exhaustive=config.exhaustive)
        return faults, netlist.name
    if config.level == "beh":
        fsm = _WORKER["fsm"]
        faults = generate_beh_faultload(
            fsm, config.n_faults, config.seed, workload.cycle_budget,
            exhaustive=config.exhaustive)
        return faults, fsm.name
    module = _WORKER["module"]
    faults = generate_rtl_faultload(
        module, config.n_faults, config.seed, workload.cycle_budget,
        exhaustive=config.exhaustive)
    return faults, module.name


def run_campaign(config: CampaignConfig) -> CampaignReport:
    """Run a full fault-injection campaign per *config*.

    Classifies every fault on the configured batch engine (compiled
    word-width batches or whole-faultload vectorized sweeps), then
    re-runs a probe slice on the remaining engines to measure every
    engine's injection throughput -- cross-checking that the probe's
    classifications agree exactly.

    An interrupt (Ctrl-C) does not lose the run: the pool is torn down
    cleanly and the report carries every fault classified so far,
    flagged ``interrupted`` (throughput probes are skipped).
    """
    config = config.validated()
    with span("fi.campaign", level=config.level, backend=config.backend,
              n_faults=config.n_faults, jobs=config.jobs):
        return _run_campaign(config)


def _run_campaign(config: CampaignConfig) -> CampaignReport:
    _init_worker(config.params, config.level, config.seed, config.budget,
                 config.backend)
    workload: Workload = _WORKER["workload"]  # type: ignore[assignment]
    backend = config.backend
    with span("fi.faultload", level=config.level) as faultload_span:
        faults, design = campaign_faultload(config)
        faultload_span.note(n_faults=len(faults))

    vectorized = backend == "vectorized"
    if config.level == "rtl" and not vectorized:
        tasks = list(faults)
        task_fn = _rtl_fault_task
    else:
        chunk = (_vector_chunk(len(faults), config.jobs) if vectorized
                 else config.batch_size)
        tasks = [faults[i:i + chunk]
                 for i in range(0, len(faults), chunk)]
        task_fn = {"gate": _gate_batch_task, "beh": _beh_batch_task,
                   "rtl": _rtl_batch_task}[config.level]

    interrupted = False
    t0 = time.perf_counter()
    try:
        results = parallel_map(
            task_fn, tasks, config.jobs, initializer=_init_worker,
            initargs=(config.params, config.level, config.seed,
                      config.budget, config.backend))
    except PoolInterrupted as stop:
        results = stop.partial
        interrupted = True
    main_wall = time.perf_counter() - t0
    if config.jobs > 1 and len(tasks) > 1:
        # pool runs hit worker-local caches; in-process runs already
        # counted against the parent's, so absorbing would double-count
        absorb_deltas([r[1] for r in results])
    if task_fn is _rtl_fault_task:
        records = [rec for rec, _ in results]
    else:
        records = [rec for batch, _ in results for rec in batch]
    for outcome, count in tally(records).items():
        if count:
            REGISTRY.counter(
                "repro_fi_outcomes_total",
                help="Fault classifications by outcome",
                level=config.level, outcome=outcome).inc(count)

    throughput = [Throughput(backend, len(records) if interrupted
                             else len(faults), main_wall)]
    if interrupted:
        cache_stats = aggregate_stats()
        return CampaignReport(
            level=config.level, design=design, seed=config.seed,
            budget=config.budget, jobs=config.jobs,
            backend=config.backend,
            n_workload_frames=workload.case.n_inputs,
            cycle_budget=workload.cycle_budget, records=records,
            throughput=throughput, cache_stats=cache_stats,
            interrupted=True)
    probe = faults[:min(config.probe_faults, len(faults))]

    if backend != "compiled" and probe:
        # compiled-engine probe: the word-width batch baseline the
        # vectorized sweep (or native C batch) replaces, on the same
        # leading faults
        probe_wall0 = time.time()
        t0 = time.perf_counter()
        compiled_records: List[FaultRecord] = []
        if config.level == "gate":
            for i in range(0, len(probe), config.batch_size):
                compiled_records += run_gate_batch(
                    _WORKER["netlist"], workload,
                    probe[i:i + config.batch_size], config.params,
                    backend="compiled")
        elif config.level == "beh":
            for i in range(0, len(probe), config.batch_size):
                compiled_records += run_beh_batch(
                    _WORKER["fsm"], workload,
                    probe[i:i + config.batch_size], config.params,
                    backend="compiled")
        else:
            compiled_records = [
                run_rtl_fault(_WORKER["module"], workload, fault,
                              config.params, backend="compiled")
                for fault in probe]
        compiled_wall = time.perf_counter() - t0
        for fault, main_record, comp in zip(probe, records,
                                            compiled_records):
            if comp.outcome != main_record.outcome:
                raise CampaignError(
                    f"engines disagree on {fault.format()}: compiled "
                    f"says {comp.outcome}, {backend} says "
                    f"{main_record.outcome}")
        throughput.append(
            Throughput("compiled", len(probe), compiled_wall))
        record_span("fi.probe", probe_wall0, time.time(),
                    engine="compiled", n_faults=len(probe))

    # interpreted-engine probe: same faults, same classifications
    probe_wall0 = time.time()
    t0 = time.perf_counter()
    for fault, main_record in zip(probe, records):
        if config.level == "gate":
            interp = run_gate_fault_scalar(
                _WORKER["netlist"], workload, fault, config.params,
                backend="interpreted")
        elif config.level == "beh":
            interp = run_beh_fault_scalar(
                _WORKER["fsm"], workload, fault, config.params,
                backend="interpreted")
        else:
            interp = run_rtl_fault(
                _WORKER["module"], workload, fault, config.params,
                backend="interpreted")
        if interp.outcome != main_record.outcome:
            raise CampaignError(
                f"engines disagree on {fault.format()}: interpreted says "
                f"{interp.outcome}, {backend} says "
                f"{main_record.outcome}")
    interp_wall = time.perf_counter() - t0
    throughput.append(Throughput("interpreted", len(probe), interp_wall))
    record_span("fi.probe", probe_wall0, time.time(),
                engine="interpreted", n_faults=len(probe))

    cache_stats = aggregate_stats()

    report = CampaignReport(
        level=config.level, design=design, seed=config.seed,
        budget=config.budget, jobs=config.jobs,
        backend=config.backend,
        n_workload_frames=workload.case.n_inputs,
        cycle_budget=workload.cycle_budget, records=records,
        throughput=throughput,
        cache_stats=cache_stats,
    )
    return report


def run_fi_self_check(config: CampaignConfig) -> SelfCheckResult:
    """Classify one known-SDC and one known-masked fault.

    The known-SDC fault sticks the ``out_l`` LSB at the polarity that
    contradicts at least one golden frame, so the stream must corrupt
    silently.  The known-masked fault sticks ``scan_en`` at 0 -- the
    workload never asserts scan mode, so forcing its idle value cannot
    change anything.  Both run through the regular batch classifier;
    misclassification of either means the campaign machinery is broken.
    """
    config = config.validated()
    _init_worker(config.params, "gate", config.seed, config.budget)
    netlist = _WORKER["netlist"]
    workload: Workload = _WORKER["workload"]  # type: ignore[assignment]
    if not workload.golden:
        raise CampaignError("self-check needs a non-empty golden stream")

    out_net = netlist.outputs["out_l"][0]
    # pick the stuck polarity that some golden frame contradicts
    if any(frame[0] & 1 for frame in workload.golden):
        sdc_model, sdc_value = "stuck0", 0
    else:
        sdc_model, sdc_value = "stuck1", 1
    sdc_fault = Fault(0, sdc_model, "gate", "net", out_net.name,
                      uid=out_net.uid, value=sdc_value)

    scan_en = netlist.inputs["scan_en"][0]
    masked_fault = Fault(1, "stuck0", "gate", "net", scan_en.name,
                         uid=scan_en.uid, value=0)

    records = run_gate_batch(netlist, workload,
                             [sdc_fault, masked_fault], config.params)
    return SelfCheckResult(sdc_record=records[0],
                           masked_record=records[1])

"""One benchmark section, run in a fresh process.

Usage (normally spawned by ``run.py``)::

    PYTHONPATH=src python3 perfbench/sections.py SECTION --seed N \\
        --seconds S --trace 0|1 --out result.json [--chunked] \\
        [--native-cache cold|warm]

Sections:

* ``flow-sim``     -- the Fig. 8/9 matrix: kernel-hosted BEH and RTL at
  paper parameters, Gate-RTL in the SystemC (co-simulation) testbench
  at the reduced gate parameters, each on three engines;
* ``fi-gate``      -- the gate-level native FI campaign, word-width
  batches, compiled + interpreted cross-check probes, with an empty
  (``cold``) or pre-filled (``warm``) native disk cache;
* ``fi-beh-sweep`` -- the behavioural SEU campaign on the vectorized
  engine, whole faultload in one sweep;
* ``service-mix``  -- the HTTP campaign service under two closed-loop
  clients replaying seeded verify/fi jobs and their resubmissions.

Set-up (imports, elaboration, synthesis, golden model, codegen and
native compiles the timed region does not pay) is timed from process
start to the first timed operation.  With ``--trace 1`` the section
wraps the layer modules' public functions and methods (see
``probe.Recorder``) and reports per-layer numbers; with ``--trace 0``
nothing is wrapped and repro's own tracing must be off.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import sys
import threading
import time
from statistics import median

T_START = time.perf_counter()

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from probe import (Patches, Recorder, durations,  # noqa: E402
                   fastest_total, lane_fill_ratio, tail_percentile)

ENGINES = ("interpreted", "compiled", "native")
ROWS = tuple(f"{level}.{engine}" for level in ("beh", "rtl", "gate")
             for engine in ENGINES)

#: stimulus frames per flow-sim pass (paper params for beh/rtl,
#: reduced params for the gate netlist)
KERNEL_FRAMES = 16
GATE_FRAMES = 12
#: host seconds of one pass on the reference host (2-vCPU x86-64
#: virtual machine); sizes the number of passes per row from --seconds
EST_PASS_S = {
    "beh.interpreted": 0.20, "beh.compiled": 0.16, "beh.native": 0.17,
    "rtl.interpreted": 0.40, "rtl.compiled": 0.14, "rtl.native": 0.08,
    "gate.interpreted": 0.18, "gate.compiled": 0.55, "gate.native": 0.02,
}
MIN_PASSES = 6
#: clock cycles per timing segment of a flow-sim pass, a few
#: milliseconds of host time on the reference host; a row's rate is its
#: cycles per pass over the sum of each segment's fastest pass
SEGMENT_CYCLES = {"beh": 256, "rtl": 256, "gate": 32}
#: the timed work of flow-sim, fi-beh-sweep and service-mix runs in
#: this many chunks, which run.py interleaves over the whole run, so
#: every metric samples the host over the same long window instead of
#: one short stretch of it
CHUNKS = 6
#: traced passes run this much slower (wrapper cost), so a traced run
#: makes proportionally fewer of them and keeps its length
TRACE_SLOWDOWN = 2.5

#: shares of --seconds for the sections whose work scales with it
FLOW_SHARE = 0.35
BEH_SWEEP_SHARE = 0.10
SERVICE_SHARE = 0.20

#: fi-gate: the campaign `repro fi --level gate --backend native` runs,
#: word-width batches (63 faults + the fault-free lane 0)
FI_GATE = dict(level="gate", backend="native", n_faults=124,
               batch_size=63, budget="small", probe_faults=8)
#: fi-gate campaigns per run (a cold one costs seconds of C compiles)
FI_GATE_REPS = 3
#: fi-beh-sweep: whole faultload in one vectorized sweep
FI_BEH = dict(level="beh", backend="vectorized", n_faults=800,
              budget="small", probe_faults=16)
EST_BEH_CAMPAIGN_S = 0.7

#: service-mix job templates, cycled per client
JOB_TEMPLATES = (
    {"kind": "verify", "options": {"levels": "beh", "budget": "smoke"}},
    {"kind": "verify", "options": {"levels": "rtl", "backend": "compiled",
                                   "budget": "smoke"}},
    {"kind": "fi", "options": {"level": "rtl", "budget": "smoke",
                               "n_faults": 8}},
    {"kind": "fi", "options": {"level": "beh", "budget": "smoke",
                               "n_faults": 8}},
)
N_CLIENTS = 2
EST_COLD_JOB_S = 0.14


class Section:
    """Result accumulator of one section run."""

    def __init__(self, name: str, trace: bool):
        self.name = name
        self.trace = trace
        self.rec = Recorder() if trace else None
        self.setup_s = 0.0
        self.metrics = {}
        self.layers = {}
        self.stats = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.provenance = {}

    def check(self, ok: bool, message: str, weight: int = 1) -> None:
        self.attempted += weight
        if not ok:
            self.failed += weight
            self.errors.append(message)

    def setup_done(self) -> None:
        self.setup_s = time.perf_counter() - T_START

    def as_dict(self) -> dict:
        return {
            "section": self.name, "setup_s": self.setup_s,
            "metrics": self.metrics, "layers": self.layers,
            "stats": self.stats, "attempted": self.attempted,
            "failed": self.failed, "errors": self.errors[:20],
            "provenance": self.provenance,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }


def _native_compiles() -> int:
    from repro.obs.metrics import REGISTRY
    return int(REGISTRY.counter(
        "repro_native_disk_cache_misses_total").value)


def _cache_totals():
    from repro.compile_cache import iter_caches
    hits = misses = 0
    for _, cache in iter_caches():
        stats = cache.stats
        hits += stats.hits
        misses += stats.misses
    return hits, misses


def _clear_compile_caches() -> None:
    from repro.compile_cache import iter_caches
    for _, cache in iter_caches():
        cache.clear()


def _trace_compiles(sec: Section, patches: Patches, label: str) -> None:
    """Time repro.native.build_shared_object under *label*."""
    import repro.native as native
    patches.set(native, "build_shared_object",
                sec.rec.wrap(native.build_shared_object, label))


# ----------------------------------------------------------------------
# flow-sim
# ----------------------------------------------------------------------

def _events_by_tick(params, case):
    from repro.src_design.schedule import (KIND_IN, KIND_MODE, KIND_OUT,
                                           make_schedule)
    schedule = make_schedule(params, case.mode, case.n_inputs,
                             quantized=True, mode_changes=case.mode_changes)
    clk = params.clock_period_ps
    by_tick = {}
    for ev in schedule:
        frame = cfg = None
        req = False
        if ev.kind == KIND_IN:
            frame = case.inputs[ev.value]
        elif ev.kind == KIND_OUT:
            req = True
        elif ev.kind == KIND_MODE:
            cfg = ev.value
        slot = by_tick.setdefault(int(ev.time_ps // clk),
                                  [None, None, False])
        if frame is not None:
            slot[0] = frame
        if cfg is not None:
            slot[1] = cfg
        slot[2] = slot[2] or req
    last_tick = max(by_tick)
    return by_tick, last_tick + params.max_latency_cycles + 8


def _make_kernel_bench(params, by_tick, limit, expected, cycle_fn,
                       stamps, segment):
    """Kernel-hosted clocked DUT: one driver call per clock edge; the
    time is appended to *stamps* every *segment* edges."""
    from repro.kernel import Clock, Module, current_simulation

    clock = time.perf_counter

    class ClockedBench(Module):
        def __init__(self):
            super().__init__("perfbench")
            self.outputs = []
            self.ticks = 0
            self.clock = Clock("perfbench.clk", params.clock_period_ps)
            self.add_thread(self._drive, name="perfbench.drive")

        def _drive(self):
            tick = 0
            outputs = self.outputs
            while tick <= limit and len(outputs) < expected:
                yield self.clock.posedge
                if tick % segment == 0:
                    stamps.append(clock())
                frame, cfg, req = by_tick.get(tick, (None, None, False))
                result = cycle_fn(frame=frame, cfg=cfg, req=req)
                if result is not None:
                    outputs.append(tuple(result))
                tick += 1
            self.ticks = tick
            current_simulation().stop()

    return ClockedBench()


class _CaseTestbench:
    """SystemC-testbench stand-in replaying one generated stimulus case
    as per-cycle DUT pin values (the CosimSimulation ``tb`` protocol);
    the time is appended to *stamps* every *segment* cycles."""

    def __init__(self, params, by_tick, stamps, segment):
        self.by_tick = by_tick
        self.mask = (1 << params.data_width) - 1
        self.tick = 0
        self.stamps = stamps
        self.segment = segment

    def cycle(self):
        if self.tick % self.segment == 0:
            self.stamps.append(time.perf_counter())
        frame, cfg, req = self.by_tick.get(self.tick, (None, None, False))
        self.tick += 1
        return {
            "in_valid": 1 if frame is not None else 0,
            "in_l": (frame[0] & self.mask) if frame is not None else 0,
            "in_r": (frame[1] & self.mask) if frame is not None else 0,
            "cfg_valid": 1 if cfg is not None else 0,
            "cfg_mode": cfg or 0,
            "out_req": 1 if req else 0,
        }


def _split(n: int, c: int) -> range:
    """Indices of chunk *c* when *n* items are split into CHUNKS."""
    return range(n * c // CHUNKS, n * (c + 1) // CHUNKS)


def _chunk_plan(passes):
    """Row order of each chunk: every row's passes split evenly over
    the chunks, rows interleaved pass by pass within a chunk."""
    plan = []
    for c in range(CHUNKS):
        counts = {row: len(_split(n, c)) for row, n in passes.items()}
        chunk = []
        for i in range(max(counts.values())):
            chunk += [row for row, k in counts.items() if i < k]
        plan.append(chunk)
    return plan


def run_flow_sim(sec: Section, seed: int, seconds: float,
                 before_chunk=lambda: None) -> None:
    from repro.cosim import build_dut
    from repro.gatesim import GateSimulator
    from repro.native import resolve_backend, toolchain_info
    from repro.rtl import RtlSimulator
    from repro.src_design.behavioral import (BehavioralSimulation,
                                             build_main_fsm)
    from repro.src_design.params import PAPER_PARAMS, SMALL_PARAMS
    from repro.src_design.rtl_design import build_rtl_design
    from repro.verify.runner import golden_outputs
    from repro.verify.stimulus import generate_cases

    rec = sec.rec
    kcase = generate_cases(PAPER_PARAMS, seed, 1, KERNEL_FRAMES)[0]
    gcase = generate_cases(SMALL_PARAMS, seed, 1, GATE_FRAMES)[0]
    params_of = {"beh": PAPER_PARAMS, "rtl": PAPER_PARAMS,
                 "gate": SMALL_PARAMS}
    case_of = {"beh": kcase, "rtl": kcase, "gate": gcase}
    golden = {level: [tuple(f) for f in golden_outputs(
        params_of[level], case_of[level], quantized=True)]
        for level in params_of}
    ticks = {level: _events_by_tick(params_of[level], case_of[level])
             for level in params_of}
    fsm = build_main_fsm(PAPER_PARAMS, True)
    rtl_module = build_rtl_design(PAPER_PARAMS, optimized=True).module
    resolved = {e: resolve_backend(e) for e in ENGINES}
    sec.provenance["toolchain"] = toolchain_info()
    sec.provenance["engines"] = {
        row: {"requested": row.split(".")[1],
              "resolved": resolved[row.split(".")[1]]} for row in ROWS}
    rows = [r for r in ROWS if resolved[r.split(".")[1]] == r.split(".")[1]]
    sec.provenance["unavailable_rows"] = [r for r in ROWS if r not in rows]

    netlists = {}

    def fresh_dut(row):
        level, engine = row.split(".")
        if level == "beh":
            return BehavioralSimulation(PAPER_PARAMS, fsm=fsm,
                                        backend=engine)
        if level == "rtl":
            return RtlSimulator(rtl_module, backend=engine)
        if row not in netlists:
            dut = build_dut(SMALL_PARAMS, "Gate-RTL", backend=engine)
            netlists[row] = dut.netlist
            return dut
        return GateSimulator(netlists[row], backend=engine)

    # set-up builds every engine once: codegen and native compiles land
    # here, the timed passes hit the caches
    compiles0 = _native_compiles()
    with Patches() as patches:
        if rec is not None:
            _trace_compiles(sec, patches, "native.build.setup")
        duts = {row: fresh_dut(row) for row in rows}
    compiles_setup = _native_compiles() - compiles0
    share = seconds * FLOW_SHARE / len(ROWS)
    if rec is not None:
        share /= TRACE_SLOWDOWN
    passes = {row: max(MIN_PASSES, round(share / EST_PASS_S[row]))
              for row in rows}
    sec.setup_done()

    segments = {row: [] for row in rows}
    cycles_of = {row: set() for row in rows}
    frames_of = {row: 0 for row in rows}
    current = {"row": None}
    with Patches() as patches:
        if rec is not None:
            from repro.src_design.params import SrcParams
            pos = SrcParams.pos_after_output

            def counted_pos(self, *args):
                rec.calls[f"pos.{current['row']}"] += 1
                return pos(self, *args)

            patches.set(SrcParams, "pos_after_output", counted_pos)
        # rows interleave pass by pass, so host drift hits them alike
        for chunk in _chunk_plan(passes):
            before_chunk()
            for row in chunk:
                level = row.split(".")[0]
                sim = duts.pop(row, None) or fresh_dut(row)
                if rec is not None:
                    current["row"] = row
                    _instrument_dut(rec, row, sim)
                outputs, n_cycles, segs = _flow_pass(
                    rec, row, sim, params_of[level], ticks[level],
                    len(golden[level]))
                got = [tuple(f) for f in outputs]
                sec.check(got == golden[level],
                          f"{row} pass {len(segments[row])}: {len(got)} "
                          f"frames differ from the golden model's "
                          f"{len(golden[level])}")
                segments[row].append(segs)
                cycles_of[row].add(n_cycles)
                frames_of[row] += len(got)

    for row in rows:
        sec.check(len(cycles_of[row]) == 1,
                  f"{row}: passes ran {sorted(cycles_of[row])} cycles")
        sec.metrics[f"cycles_per_s.{row}"] = \
            max(cycles_of[row]) / fastest_total(segments[row])
    sec.stats.update({
        "flow.passes": passes,
        "flow.cycles_per_pass": {r: sorted(cycles_of[r]) for r in rows},
        "flow.frames_per_pass": {r: frames_of[r] // passes[r]
                                 for r in rows},
        "flow.native_compiles_setup": compiles_setup,
        "flow.native_compiles_timed": _native_compiles() - compiles0
        - compiles_setup,
    })
    if rec is None:
        return
    layers = sec.layers
    layers["native.compiles.flow-sim-setup"] = compiles_setup
    layers["native.compile_s.flow-sim-setup"] = rec.wall.get(
        "native.build.setup", 0.0)
    for row in rows:
        level, _ = row.split(".")
        n = passes[row]
        cyc = n * max(cycles_of[row])
        if level == "gate":
            layers[f"cosim.bridge_self_s.{row}"] = \
                rec.self_time[f"pass.{row}"] / n
            layers[f"gatesim.step_s.{row}"] = \
                rec.wall[f"gatesim.step.{row}"] / n
            layers[f"gatesim.io_calls_per_cycle.{row}"] = \
                rec.calls[f"gatesim.io.{row}"] / cyc
        else:
            layers[f"kernel.self_s.{row}"] = \
                rec.self_time[f"pass.{row}"] / n
        if level == "rtl":
            layers[f"rtl.step_s.{row}"] = rec.wall[f"rtl.step.{row}"] / n
            layers[f"rtl.io_calls_per_cycle.{row}"] = \
                rec.calls[f"rtl.io.{row}"] / cyc
        if level == "beh":
            layers[f"src_design.front_end_s.{row}"] = \
                rec.self_time[f"src.step.{row}"] / n
            layers[f"hls.step_s.{row}"] = rec.wall[f"hls.step.{row}"] / n
            layers[f"hls.io_calls_per_cycle.{row}"] = \
                rec.calls[f"hls.io.{row}"] / cyc
            layers[f"src_design.pos_after_output_per_cycle.{row}"] = \
                rec.calls[f"pos.{row}"] / cyc


def _flow_pass(rec, row, sim, params, ticks, expected):
    """One timed pass of *row*: (output frames, cycles, durations of
    its segments of SEGMENT_CYCLES cycles).

    BEH and RTL run kernel-hosted, one driver call per clock edge; the
    gate netlist runs in the co-simulation (SystemC) testbench.
    """
    from repro.cosim import CosimSimulation
    from repro.kernel import Simulation
    from repro.src_design.testbench import (BehavioralDutDriver,
                                            RtlDutDriver)

    by_tick, limit = ticks
    level = row.split(".")[0]
    segment = SEGMENT_CYCLES[level]
    stamps = []
    if level == "gate":
        cosim = CosimSimulation(sim, params)
        cosim.tb = _CaseTestbench(params, by_tick, stamps, segment)
        run = cosim.run if rec is None else rec.wrap(cosim.run,
                                                     f"pass.{row}")
        stamps.append(time.perf_counter())
        outputs = run(limit + 1)
        stamps.append(time.perf_counter())
        return outputs, limit + 1, durations(stamps)
    driver = (BehavioralDutDriver if level == "beh" else RtlDutDriver)(
        sim, params)
    bench = _make_kernel_bench(params, by_tick, limit, expected,
                               driver.cycle, stamps, segment)
    with Simulation(bench) as ksim:
        run = ksim.run if rec is None else rec.wrap(ksim.run,
                                                    f"pass.{row}")
        stamps.append(time.perf_counter())
        run()
        stamps.append(time.perf_counter())
    return bench.outputs, bench.ticks, durations(stamps)


def _instrument_dut(rec: Recorder, row: str, sim) -> None:
    level = row.split(".")[0]
    if level == "beh":
        rec.patch_all(sim, ("drive_input", "drive_cfg", "drive_req"),
                      f"src.drive.{row}")
        interp = sim.interp
        rec.patch_all(interp, ("set_input", "get_output", "write_memory"),
                      f"hls.io.{row}")
        rec.patch(interp, "step", f"hls.step.{row}")
        rec.patch(sim, "step", f"src.step.{row}")
    else:
        layer = "rtl" if level == "rtl" else "gatesim"
        rec.patch_all(sim, ("set_input", "get"), f"{layer}.io.{row}")
        rec.patch(sim, "step", f"{layer}.step.{row}")


# ----------------------------------------------------------------------
# fault injection
# ----------------------------------------------------------------------

def _campaign_config(spec: dict, seed: int):
    from repro.fi.campaign import CampaignConfig
    from repro.src_design.params import SMALL_PARAMS
    return CampaignConfig(params=SMALL_PARAMS, seed=seed, jobs=1, **spec)


def _outcome_digest(report) -> str:
    h = hashlib.sha256()
    for r in report.records:
        h.update(f"{r.fault.index}:{r.outcome}:{r.first_frame}:"
                 f"{r.detected_cycle};".encode())
    return h.hexdigest()[:16]


def _campaign_phases(report, wall):
    """Seconds of one campaign's phases, in a fixed order: the main
    engine's faults, each probe engine, and the rest of the call."""
    phases = [t.wall_seconds for t in report.throughput]
    return phases + [wall - sum(phases)]


def _precompile_overlays(C, config) -> None:
    """Compile every fi-gate overlay into the native disk cache."""
    from repro.fi.faults import build_overlay
    from repro.gatesim import GateSimulator

    faults, _ = C.campaign_faultload(config)
    netlist = C._WORKER["netlist"]
    for i in range(0, len(faults), config.batch_size):
        chunk = faults[i:i + config.batch_size]
        overlay = build_overlay(netlist, chunk)
        GateSimulator(overlay.netlist, backend=config.backend,
                      n_patterns=len(chunk) + 1)


def run_fi_gate(sec: Section, seed: int, seconds: float,
                before_chunk=lambda: None, native_cache="cold") -> None:
    """FI_GATE_REPS campaigns, each with empty in-process caches.

    With a ``cold`` native cache each campaign gets its own empty disk
    cache directory and compiles every overlay; with ``warm`` set-up
    compiles them into the one directory every campaign links from.
    """
    from repro.fi import campaign as C
    from repro.native import ENV_CACHE_DIR, toolchain_info

    rec = sec.rec
    config = _campaign_config(FI_GATE, seed).validated()
    base_dir = os.environ[ENV_CACHE_DIR]
    with Patches() as patches:
        if rec is not None:
            _trace_compiles(sec, patches, "native.build.setup")
            patches.set(C, "synthesize",
                        rec.wrap(C.synthesize, "synth.synthesize"))
            patches.set(C, "make_workload",
                        rec.wrap(C.make_workload, "verify.golden"))
        C._init_worker(config.params, config.level, config.seed,
                       config.budget, config.backend)
        if native_cache == "warm":
            _precompile_overlays(C, config)
    setup_compiles = _native_compiles()
    sec.provenance["toolchain"] = toolchain_info()
    sec.provenance["campaign"] = dict(FI_GATE, seed=seed,
                                      native_cache=native_cache)
    batches = []
    phases, digests, per_rep = [], set(), set()
    with Patches() as patches:
        if rec is not None:
            _trace_compiles(sec, patches, "native.build")
            _instrument_fi(sec, patches, C, batches)
        sec.setup_done()
        for chunk in range(CHUNKS):
            before_chunk()
            for rep in _split(FI_GATE_REPS, chunk):
                if native_cache == "cold":
                    os.environ[ENV_CACHE_DIR] = os.path.join(
                        base_dir, f"campaign-{rep}")
                _clear_compile_caches()
                compiles0 = _native_compiles()
                hits0, misses0 = _cache_totals()
                t0 = time.perf_counter()
                try:
                    report = C.run_campaign(config)
                except C.CampaignError as exc:
                    sec.check(False, f"fi-gate: {exc}",
                              weight=config.n_faults)
                    return
                wall = time.perf_counter() - t0
                hits, misses = _cache_totals()
                sec.check(not report.interrupted and len(report.records)
                          == config.n_faults,
                          "fi-gate: incomplete campaign",
                          weight=config.n_faults)
                phases.append(_campaign_phases(report, wall))
                digests.add((_outcome_digest(report),
                             json.dumps(report.classification,
                                        sort_keys=True)))
                per_rep.add((_native_compiles() - compiles0,
                             hits - hits0, misses - misses0))
    sec.check(len(digests) == 1 and len(per_rep) == 1,
              "fi-gate: repetitions of one campaign disagree")
    sec.metrics["faults_per_s.gate"] = \
        config.n_faults / fastest_total(phases)
    digest, outcomes = sorted(digests)[0]
    timed_compiles, cache_hits, cache_misses = sorted(per_rep)[0]
    sec.stats.update({
        "fi-gate.repetitions": FI_GATE_REPS,
        "fi-gate.outcomes": json.loads(outcomes),
        "fi-gate.outcome_digest": digest,
        "fi-gate.native_compiles_setup": setup_compiles,
        "fi-gate.native_compiles_timed": timed_compiles,
        "fi-gate.compile_cache_hits": cache_hits,
        "fi-gate.compile_cache_misses": cache_misses,
    })
    if rec is None:
        return
    # per campaign: the repetitions' sums over FI_GATE_REPS
    n = FI_GATE_REPS
    layers = sec.layers
    layers["native.compile_s"] = rec.wall["native.build"] / n
    layers["native.compiles"] = timed_compiles
    layers["native.compiles.fi-gate-setup"] = setup_compiles
    layers["compile_cache.hits"] = cache_hits
    layers["compile_cache.misses"] = cache_misses
    layers["synth.synthesize_s"] = rec.wall["synth.synthesize"]
    layers["verify.golden_s"] = rec.wall["verify.golden"]
    layers["fi.faultload_s"] = rec.wall["fi.faultload"] / n
    layers["fi.overlay_s"] = rec.wall["fi.overlay"] / n
    for engine in ENGINES:
        layers[f"gatesim.build_s.{engine}"] = \
            rec.self_time[f"gatesim.build.{engine}"] / n
        layers[f"gatesim.step_s.fi.{engine}"] = \
            rec.wall[f"gatesim.step.fi.{engine}"] / n
    layers["fi.batch_self_s.gate.native"] = \
        rec.self_time["fi.batch.gate.native"] / n
    layers["fi.batch_self_s.gate.compiled"] = \
        rec.self_time["fi.batch.gate.compiled"] / n
    layers["fi.probe_s.gate.compiled"] = \
        rec.wall["fi.batch.gate.compiled"] / n
    layers["fi.probe_s.gate.interpreted"] = \
        rec.wall["fi.scalar.gate.interpreted"] / n
    layers["fi.lane_fill_ratio"] = lane_fill_ratio(batches)


def _instrument_fi(sec: Section, patches: Patches, C, batches) -> None:
    """Wrap the campaign's batch runners and engine constructors."""
    rec = sec.rec

    def engine_of(args, kwargs, default):
        return kwargs.get("backend", args[4] if len(args) > 4
                          else default)

    patches.set(C, "generate_gate_faultload",
                rec.wrap(C.generate_gate_faultload, "fi.faultload"))
    patches.set(C, "build_overlay", rec.wrap(C.build_overlay, "fi.overlay"))
    gate_ctor = C.GateSimulator

    def traced_gate(*args, **kwargs):
        engine = kwargs.get("backend", "interpreted")
        sim = rec.wrap(gate_ctor, f"gatesim.build.{engine}")(
            *args, **kwargs)
        rec.patch(sim, "step", f"gatesim.step.fi.{engine}")
        rec.patch_all(sim, ("set_input", "set_input_patterns", "get",
                            "get_port_planes", "get_logic",
                            "privatize_memory"),
                      f"gatesim.io.fi.{engine}")
        return sim

    patches.set(C, "GateSimulator", traced_gate)
    beh_ctor = C.BehavioralBatchSimulation

    def traced_beh_batch(*args, **kwargs):
        engine = kwargs.get("backend", "compiled")
        sim = rec.wrap(beh_ctor, f"fi.beh_engine.build.{engine}")(
            *args, **kwargs)
        rec.patch_all(sim, ("step", "drive_input", "drive_cfg",
                            "drive_req"), f"fi.beh_engine.{engine}")
        return sim

    patches.set(C, "BehavioralBatchSimulation", traced_beh_batch)
    batch = rec.wrap(C.run_gate_batch, lambda a, k: "fi.batch.gate."
                     + engine_of(a, k, "compiled"))

    def traced_batch(*args, **kwargs):
        if engine_of(args, kwargs, "compiled") == FI_GATE["backend"]:
            batches.append(len(args[2]))
        return batch(*args, **kwargs)

    patches.set(C, "run_gate_batch", traced_batch)
    patches.set(C, "run_gate_fault_scalar",
                rec.wrap(C.run_gate_fault_scalar,
                         lambda a, k: "fi.scalar.gate."
                         + engine_of(a, k, "interpreted")))
    patches.set(C, "run_beh_batch",
                rec.wrap(C.run_beh_batch,
                         lambda a, k: "fi.batch.beh."
                         + engine_of(a, k, "compiled")))
    patches.set(C, "run_beh_fault_scalar",
                rec.wrap(C.run_beh_fault_scalar,
                         lambda a, k: "fi.scalar.beh."
                         + engine_of(a, k, "interpreted")))


def run_fi_beh_sweep(sec: Section, seed: int, seconds: float,
                     before_chunk=lambda: None) -> None:
    from repro.fi import campaign as C
    import repro.src_design.behavioral as B

    rec = sec.rec
    config = _campaign_config(FI_BEH, seed).validated()
    C._init_worker(config.params, config.level, config.seed,
                   config.budget, config.backend)
    reps = max(MIN_PASSES,
               round(seconds * BEH_SWEEP_SHARE / EST_BEH_CAMPAIGN_S))
    compiles0 = _native_compiles()
    phases, digests, cache_counts = [], set(), set()
    with Patches() as patches:
        if rec is not None:
            _instrument_fi(sec, patches, C, [])
            vec = B.VectorizedFsmBatch

            def traced_vec(*args, **kwargs):
                batch = rec.wrap(vec, "hls.batch_build.vectorized")(
                    *args, **kwargs)
                rec.patch(batch, "step", "hls.batch_step.vectorized")
                return batch

            patches.set(B, "VectorizedFsmBatch", traced_vec)
        sec.setup_done()
        for chunk in range(CHUNKS):
            before_chunk()
            for _ in _split(reps, chunk):
                # every repetition starts with empty in-process caches
                _clear_compile_caches()
                t0 = time.perf_counter()
                try:
                    report = C.run_campaign(config)
                except C.CampaignError as exc:
                    sec.check(False, f"fi-beh-sweep: {exc}",
                              weight=config.n_faults)
                    return
                wall = time.perf_counter() - t0
                sec.check(len(report.records) == config.n_faults,
                          "fi-beh-sweep: incomplete campaign",
                          weight=config.n_faults)
                phases.append(_campaign_phases(report, wall))
                digests.add(_outcome_digest(report))
                cache_counts.add(_cache_totals())
    sec.check(len(digests) == 1 and len(cache_counts) == 1,
              "fi-beh-sweep: repetitions of one campaign disagree")
    sec.metrics["faults_per_s.beh"] = \
        config.n_faults / fastest_total(phases)
    compiles = _native_compiles() - compiles0
    sec.stats.update({
        "fi-beh.repetitions": reps,
        "fi-beh.outcomes": report.classification,
        "fi-beh.outcome_digest": sorted(digests)[0],
        "fi-beh.compile_cache_hits_misses": sorted(cache_counts)[0],
        "fi-beh.native_compiles": compiles,
    })
    if rec is None:
        return
    layers = sec.layers
    layers["native.compiles.fi-beh-sweep"] = compiles
    layers["hls.batch_build_s.vectorized"] = \
        rec.wall["hls.batch_build.vectorized"] / reps
    layers["hls.batch_step_s.vectorized"] = \
        rec.wall["hls.batch_step.vectorized"] / reps
    layers["fi.batch_self_s.beh.vectorized"] = \
        rec.self_time["fi.batch.beh.vectorized"] / reps
    layers["fi.batch_self_s.beh.compiled"] = \
        rec.self_time["fi.batch.beh.compiled"] / reps
    layers["fi.probe_s.beh.compiled"] = \
        rec.wall["fi.batch.beh.compiled"] / reps
    layers["fi.probe_s.beh.interpreted"] = \
        rec.wall["fi.scalar.beh.interpreted"] / reps


# ----------------------------------------------------------------------
# service
# ----------------------------------------------------------------------

def _job_plan(seed: int, n_cold: int):
    """Per client: a closed-loop request list of ('cold'|'cached', spec).

    Every cold job has a seed no other job uses; after cold job j the
    client resubmits job j-1 and, on odd j, one more earlier job, and it
    ends by resubmitting its last job -- so each distinct job comes back
    at least once, always after its cold run has finished.
    """
    rng = random.Random(seed)
    job_seeds = rng.sample(range(1000, 1 << 20), N_CLIENTS * n_cold)
    plans = []
    for c in range(N_CLIENTS):
        specs = []
        for j in range(n_cold):
            template = JOB_TEMPLATES[(j + c) % len(JOB_TEMPLATES)]
            options = dict(template["options"],
                           seed=job_seeds[c * n_cold + j])
            specs.append({"kind": template["kind"], "options": options})
        requests = []
        for j, spec in enumerate(specs):
            requests.append(("cold", j, spec))
            if j >= 1:
                requests.append(("cached", j - 1, specs[j - 1]))
            if j >= 2 and j % 2:
                k = rng.randrange(j - 1)
                requests.append(("cached", k, specs[k]))
        requests.append(("cached", n_cold - 1, specs[-1]))
        plans.append(requests)
    return plans


def _strip_telemetry(result):
    from repro.service.tasks import RESERVED_RESULT_KEYS
    if isinstance(result, dict):
        return {k: v for k, v in result.items()
                if k not in RESERVED_RESULT_KEYS}
    return result


def run_service_mix(sec: Section, seed: int, seconds: float,
                    before_chunk=lambda: None) -> None:
    from repro.service import BackgroundServer, ServiceClient, ServiceConfig

    n_cold = max(12, round(seconds * SERVICE_SHARE / EST_COLD_JOB_S
                           / N_CLIENTS))
    plans = _job_plan(seed, n_cold)
    server = BackgroundServer(ServiceConfig(shards=1)).start()
    try:
        client = ServiceClient(server.url)
        # shard warm-up: imports and elaboration in the worker, on job
        # seeds the timed plan never uses
        for template in JOB_TEMPLATES:
            spec = {"kind": template["kind"],
                    "options": dict(template["options"], seed=seed % 997)}
            job = client.submit(spec)
            client.wait(job["id"], timeout=120.0)
        warm = client.metrics()
        sec.setup_done()
        records = [[] for _ in plans]
        load_wall = 0.0
        for chunk in range(CHUNKS):
            before_chunk()
            t0 = time.perf_counter()
            threads = [threading.Thread(
                target=_client_loop,
                args=(server.url, [plan[i] for i in _split(len(plan), chunk)],
                      records[c]))
                for c, plan in enumerate(plans)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            load_wall += time.perf_counter() - t0
        final = client.metrics()
    finally:
        server.stop()

    cold, cached, rtt, queue_ms, run_ms = [], [], [], [], []
    for client_requests in records:
        results = {}
        for req in client_requests:
            if "error" in req:
                sec.check(False, f"service: {req['error']}")
                continue
            doc = req["doc"]
            ok = doc["state"] == "done"
            if req["mode"] == "cold":
                ok = ok and not doc["cache"]["hit"]
                sec.check(ok, f"service: cold job {doc['id']} ended "
                          f"{doc['state']} (hit={doc['cache']['hit']})")
                if ok:
                    results[req["index"]] = _strip_telemetry(doc["result"])
                    cold.append(req["latency_ms"])
                    queue_ms.append(1e3 * (doc["started_at"]
                                           - doc["submitted_at"]))
                    run_ms.append(1e3 * (doc["finished_at"]
                                         - doc["started_at"]))
            else:
                same = (_strip_telemetry(doc.get("result"))
                        == results.get(req["index"]))
                ok = ok and doc["cache"]["hit"] and same
                sec.check(ok, f"service: resubmission {doc['id']} "
                          f"state={doc['state']} "
                          f"hit={doc['cache']['hit']} same={same}")
                if ok:
                    cached.append(req["latency_ms"])
                    rtt.append(req["rtt_ms"])
    if len(cold) < 20 or not cached:
        sec.check(False, f"service: {len(cold)} cold and {len(cached)} "
                  "cached jobs completed, too few for the percentiles")
        return
    tail_pct, tail_value, n_tail = tail_percentile(cold)
    sec.metrics["job_cold_p50_ms"] = median(cold)
    sec.metrics["job_cold_tail_ms"] = tail_value
    sec.metrics["job_cached_p50_ms"] = median(cached)
    hits = final["cache"]["hits"] - warm["cache"]["hits"]
    sec.stats.update({
        "service.cold_jobs": len(cold),
        "service.cached_jobs": len(cached),
        "service.cache_hits": hits,
        "service.tail_percentile": tail_pct,
        "service.tail_samples": n_tail,
        "service.load_wall_s": load_wall,
    })
    sec.check(hits == len(cached),
              f"service: {hits} cache hits for {len(cached)} "
              "resubmissions")
    if not sec.trace:
        return
    layers = sec.layers
    layers["job_cached_p50_ms"] = sec.metrics["job_cached_p50_ms"]
    layers["service.http_rtt_ms"] = median(rtt)
    layers["service.queue_wait_ms"] = median(queue_ms)
    layers["service.run_ms"] = median(run_ms)
    layers["service.cache_hit_ratio"] = final["cache"]["hit_rate"]
    layers["service.shard_utilization"] = \
        final["workers"]["cumulative_utilization"]
    layers["service.retries"] = final["jobs"]["retries"]


def _client_loop(url: str, requests, out) -> None:
    """One closed-loop client: the next request only after the last."""
    from repro.service import ServiceClient

    client = ServiceClient(url)
    clock = time.perf_counter
    for mode, index, spec in requests:
        try:
            t0 = clock()
            doc = client.submit(spec)
            if doc["state"] not in ("done", "failed", "cancelled",
                                    "expired"):
                for _ in client.events(doc["id"], timeout=120.0):
                    pass
            latency = clock() - t0
            req = {"mode": mode, "index": index,
                   "latency_ms": 1e3 * latency}
            if mode == "cached":
                t1 = clock()
                client.healthz()
                req["rtt_ms"] = 1e3 * (clock() - t1)
            req["doc"] = client.job(doc["id"], include_result=True)
        except Exception as exc:  # a failed request is a failed check
            req = {"error": f"{type(exc).__name__}: {exc}"}
        out.append(req)


SECTIONS = {
    "flow-sim": run_flow_sim,
    "fi-gate": run_fi_gate,
    "fi-beh-sweep": run_fi_beh_sweep,
    "service-mix": run_service_mix,
}


def _wait_for_go() -> None:
    print("ready", flush=True)
    if not sys.stdin.readline():
        raise SystemExit("run.py closed the chunk pipe")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("section", choices=sorted(SECTIONS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--chunked", action="store_true",
                    help="before each chunk of timed work print 'ready' "
                    "and wait for a line on stdin")
    ap.add_argument("--native-cache", choices=("cold", "warm"),
                    default="cold",
                    help="fi-gate: campaigns compile their overlays "
                    "(cold) or link them from the disk cache (warm)")
    args = ap.parse_args(argv)

    from repro.obs import trace as obs_trace

    if args.trace:
        obs_trace.enable_tracing()
    elif obs_trace.tracing_enabled():
        raise SystemExit("repro tracing is on in an untraced run")
    sec = Section(args.section, bool(args.trace))
    kwargs = {}
    if args.chunked:
        kwargs["before_chunk"] = _wait_for_go
    if args.section == "fi-gate":
        kwargs["native_cache"] = args.native_cache
    SECTIONS[args.section](sec, args.seed, args.seconds, **kwargs)
    if not args.trace and obs_trace.tracing_enabled():
        raise SystemExit("repro tracing switched on during the run")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(sec.as_dict(), fh, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

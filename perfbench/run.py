"""The repo benchmark: one command, every metric, correctness checked.

    python3 perfbench/run.py --workload cold --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root.  One workload run executes the four
sections of ``sections.py`` (flow-sim, fi-gate, fi-beh-sweep,
service-mix), each in a fresh process with empty in-process compile
caches and its own empty native disk cache inside ``perfbench/.work``;
their timed work is interleaved over the whole run.  In the ``warm``
workload the fi-gate section compiles its overlays into the disk cache
during set-up, so its campaigns link instead of compiling.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``).  The exit code
is 1 when any output check fails.  ``--workload all`` runs every
workload untraced and traced and prints the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from statistics import quantiles

from sections import CHUNKS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")

SECTIONS = ("flow-sim", "fi-gate", "fi-beh-sweep", "service-mix")
#: the workload is the fi-gate section's native disk-cache state
WORKLOADS = ("cold", "warm")
#: host speed probe reading (Mops/s, upper decile over a run) on the
#: reference host, a 2-vCPU x86-64 virtual machine under Python 3.11
REFERENCE_MOPS = 11.0
#: metrics of pure CPU work, scaled to the reference host speed
HOST_SCALED = ("cycles_per_s.", "faults_per_s.")
SECTION_TIMEOUT_S = 150


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def git_revision():
    """Revision and dirty flag; None outside a git checkout of ROOT."""
    unknown = {"revision": None, "dirty": None}
    try:
        rev = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        if rev.returncode != 0:
            return unknown
        top, head = rev.stdout.split()
        if os.path.realpath(top) != os.path.realpath(ROOT):
            return unknown  # ROOT only sits inside some other repository
        dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                               capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError, ValueError):
        return unknown
    return {"revision": head, "dirty": bool(dirty.stdout.strip())}


def host_speed_probe(samples, repeats=4):
    """Append *repeats* rates of a fixed interpreter loop to *samples*
    (millions of simple operations per second).

    Fixed code that is not the program's: it moves only with the host,
    so it tells host drift apart from a change in the program.  It runs
    before every chunk of every section, so it samples the host over
    the same stretch of time the metrics measure.
    """
    for _ in range(repeats):
        t0 = time.perf_counter()
        table = {}
        for i in range(20_000):
            table[i & 511] = table.get(i & 511, 0) + i % 7
        samples.append(0.02 / (time.perf_counter() - t0))


def _section_process(section, seed, seconds, trace, workdir, cache_dir,
                     workload):
    """Start one section in a fresh process.

    Returns ``(process, result path, stderr file)``.
    """
    out = os.path.join(workdir, f"{section}.json")
    home = os.path.join(workdir, "home")
    tmp = os.path.join(workdir, "tmp")
    os.makedirs(home, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": os.path.join(ROOT, "src"),
        "REPRO_NATIVE_CACHE_DIR": cache_dir,
        # nothing may read or write the user's ~/.cache
        "HOME": home,
        "XDG_CACHE_HOME": os.path.join(home, ".cache"),
        # the C compiler's and the worker pools' scratch files too
        "TMPDIR": tmp,
        # one dict/set layout for every run, so it adds no run-to-run
        # spread of its own
        "PYTHONHASHSEED": "0",
    })
    cmd = [sys.executable, os.path.join(HERE, "sections.py"), section,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", out, "--chunked",
           "--native-cache", workload]
    err = open(os.path.join(workdir, f"{section}.err"), "w+")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=err)
    return proc, out, err


def _finish(section, started):
    """Wait for a started section; returns its result dict."""
    proc, out, err = started
    try:
        stdout, _ = proc.communicate(timeout=SECTION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"section {section} timed out")
    finally:
        err.seek(0)
        errors = err.read()
        err.close()
    if proc.returncode != 0:
        sys.stderr.write(stdout[-4000:] + errors[-4000:])
        raise RuntimeError(f"section {section} exited {proc.returncode}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def _await_ready(proc):
    """Read a chunked section's stdout up to its next 'ready' line;
    False when the process ended instead."""
    for line in proc.stdout:
        if line.strip() == "ready":
            return True
    return False


def _go(proc):
    """Let a waiting chunked section run its next chunk."""
    try:
        proc.stdin.write("go\n")
        proc.stdin.flush()
    except OSError:  # it ended early; _finish reports why
        pass


def run_workload(workload, seed, seconds, trace):
    """All sections of one workload; returns the merged result.

    Each section starts in its own process and does its set-up, one
    after the other; then they run their timed work in CHUNKS rounds,
    one chunk each per round, idle on their stdin in between.  So every
    metric samples the host across the whole run.
    """
    workdir = os.path.join(WORK, f"run-{os.getpid()}-{workload}-{trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    sections = {}
    probe = []
    started = {}
    try:
        for section in SECTIONS:
            cache_dir = os.path.join(workdir, f"native-{section}")
            os.makedirs(cache_dir)
            started[section] = _section_process(
                section, seed, seconds, trace, workdir, cache_dir, workload)
            if not _await_ready(started[section][0]):
                break  # failed in set-up; _finish reports it
        for round_ in range(CHUNKS):
            for section, proc in started.items():
                host_speed_probe(probe)
                _go(proc[0])
                if round_ < CHUNKS - 1:
                    _await_ready(proc[0])
                else:  # the last chunk ends with the process
                    sections[section] = _finish(section, proc)
    finally:
        for proc in started.values():
            if proc[0].poll() is None:
                proc[0].kill()
                proc[0].wait()
            proc[2].close()
        shutil.rmtree(workdir, ignore_errors=True)
    return merge(workload, seed, seconds, trace, sections, probe)


def merge(workload, seed, seconds, trace, sections, probe):
    setup = {name: s["setup_s"] for name, s in sections.items()}
    metrics = {"setup_s": sum(setup.values()),
               "peak_rss_mb": max(s["peak_rss_mb"]
                                  for s in sections.values())}
    raw = {}
    layers = {}
    stats = {}
    attempted = failed = 0
    errors = []
    for name in SECTIONS:
        s = sections[name]
        metrics.update(s["metrics"])
        layers.update(s["layers"])
        stats.update(s["stats"])
        attempted += s["attempted"]
        failed += s["failed"]
        errors += s["errors"]
    # Other tenants of the host slow a whole run down by tens of per
    # cent; the probe slows with it, so scaling pure CPU work to the
    # reference host speed cancels that and keeps program changes.
    # The metrics keep the fastest time of each piece of work, so the
    # probe's speed is taken from its fast samples too.
    host_mops = quantiles(probe, n=10)[-1]
    for name in [n for n in metrics if n.startswith(HOST_SCALED)]:
        raw[name] = metrics[name]
        metrics[name] *= REFERENCE_MOPS / host_mops
    if trace:
        # the traced run's own end-to-end figures: compared with an
        # untraced run of the same seed they give the tracing overhead
        layers.update({f"traced.{k}": v for k, v in metrics.items()})
    flow = sections["flow-sim"]["provenance"]
    from_sections = {"toolchain": flow.get("toolchain"),
                     "engines": flow.get("engines"),
                     "unavailable_rows": flow.get("unavailable_rows")}
    provenance = dict(git_revision(), workload=workload, seed=seed,
                      seconds=seconds, trace=trace,
                      host={"nproc": os.cpu_count(),
                            "platform": platform.platform(),
                            "python": platform.python_version(),
                            "speed_probe_mops": {
                                "upper_decile": host_mops,
                                "quartiles": quantiles(probe, n=4),
                                "samples": len(probe)}},
                      **from_sections)
    return {"metrics": metrics, "raw_metrics": raw, "layers": layers,
            "stats": stats,
            "setup_by_section": setup, "attempted": attempted,
            "failed": failed, "errors": errors, "provenance": provenance}


def check_stats(result, workload, seed, seconds, trace):
    """Exact simulated statistics must repeat for the same inputs.

    The statistics of every run are kept under ``.work/stats`` keyed by
    (workload, seed, seconds, trace); a later run with the same key and
    different statistics fails.
    """
    stats = json.loads(json.dumps({
        k: v for k, v in result["stats"].items()
        if k != "service.load_wall_s"}))
    path = os.path.join(WORK, "stats",
                        f"{workload}-{seed}-{seconds:g}-{trace}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            previous = json.load(fh)
        result["attempted"] += 1
        if previous != stats:
            result["failed"] += 1
            diff = sorted(k for k in set(previous) | set(stats)
                          if previous.get(k) != stats.get(k))
            result["errors"].append(
                f"simulated statistics differ from an earlier run with "
                f"the same inputs: {diff}")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(stats, fh, sort_keys=True)


def report(spec, result, trace):
    """Human-readable lines, then the metrics dict for the JSON line."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    values = result["layers"] if trace else result["metrics"]
    out = {}
    prov = result["provenance"]
    print(f"# perfbench workload={prov['workload']} seed={prov['seed']} "
          f"seconds={prov['seconds']:g} trace={trace} "
          f"rev={prov['revision']} dirty={prov['dirty']}")
    print(f"# host {json.dumps(prov['host'], sort_keys=True)}")
    print(f"# toolchain {json.dumps(prov['toolchain'], sort_keys=True)}")
    print(f"# engines {json.dumps(prov['engines'], sort_keys=True)}")
    print(f"# setup by section (s) "
          f"{json.dumps(result['setup_by_section'], sort_keys=True)}")
    print(f"# simulated statistics "
          f"{json.dumps(result['stats'], sort_keys=True)}")
    unavailable = set(prov.get("unavailable_rows") or ())
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        if name not in values:
            if any(name.endswith(row) for row in unavailable):
                print(f"{name:48s} unavailable (no C toolchain)")
                continue
            result["failed"] += 1
            result["errors"].append(f"metric {name} was not measured")
            continue
        out[name] = {"value": values[name], "unit": unit}
        print(f"{name:48s} {values[name]:14.6g} {unit}")
    if not trace:
        print(f"# scaled to the reference host speed "
              f"({REFERENCE_MOPS:g} Mops/s) from these raw values:")
        for name, value in result["raw_metrics"].items():
            print(f"# raw {name:44s} {value:14.6g}")
    for name in sorted(set(values) - {m["name"] for m in wanted}):
        print(f"# also measured: {name} {values[name]:.6g}")
    for error in result["errors"]:
        print(f"# FAILED: {error}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="repo benchmark")
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        sys.stderr.write("perfbench: no repro sources under src/ -- run "
                         "from a full checkout\n")
        return 2
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    if args.workload == "all":
        return run_all(spec, args.seed, seconds)

    result = run_workload(args.workload, args.seed, seconds, args.trace)
    check_stats(result, args.workload, args.seed, seconds, args.trace)
    metrics = report(spec, result, args.trace)
    line = {"correct": result["failed"] == 0,
            "attempted": max(1, result["attempted"]),
            "failed": result["failed"], "metrics": metrics}
    print(json.dumps(line, sort_keys=True))
    return 0 if result["failed"] == 0 else 1


def run_all(spec, seed, seconds) -> int:
    """Every workload untraced, then traced; prints tracing overhead."""
    status = 0
    for workload in WORKLOADS:
        plain = run_workload(workload, seed, seconds, 0)
        traced = run_workload(workload, seed, seconds, 1)
        for result, trace in ((plain, 0), (traced, 1)):
            check_stats(result, workload, seed, seconds, trace)
            report(spec, result, trace)
            status |= result["failed"] != 0
        print(f"# tracing overhead, workload {workload} "
              "(traced / untraced - 1):")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = plain["metrics"].get(name), traced["metrics"].get(name)
            if a and b:
                print(f"{name:48s} {100.0 * (b / a - 1.0):+8.1f} %")
    return status


if __name__ == "__main__":
    sys.exit(main())

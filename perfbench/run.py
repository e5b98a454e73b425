"""renormlab benchmark: one workload, one seed, one run in a fresh process.

    python3 perfbench/run.py --workload accept --seed 0 --seconds 10 --trace 0

Workloads are described in ``workloads.py``.  Run from anywhere; the package
is imported from ``src/`` next to this directory, never from an installed
copy.  The run times five imports of renormlab in fresh interpreters and
builds unit 0's inputs from the seed three times (set-up), then runs a fixed
number of units back to back, a closed loop of one caller: as many as fit
in ``--seconds`` on an unloaded host at the seed commit's speed (at least
one; ``accept`` runs exactly one suite).  The count depends only on
``--seconds``, so runs of one seed attempt the same operations.
``RENORMLAB_THREADS`` is left as the caller set it; the worker count is
stamped on the result.

An operation fails when it raises or when its output breaks the workload's
oracle; only the second makes the run's ``correct`` false, since an operation
that raised gave no output to judge.

Units and builds are timed while ``hostprobe.HostProbe`` samples how loaded
the shared host is, and each time is divided by its host factor: it reads as
the wall time on an unloaded host.  The raw median and the factors are printed
too.  ``--trace 0`` prints the end-to-end metrics:
  wall_s       median over units of one unit's timed body (a checked
               verdict), scaled to an unloaded host
  setup_s      median of five renormlab imports, each in a fresh
               interpreter (``timed_import.py``), plus median of three input
               builds, each scaled to an unloaded host
  peak_rss_mb  peak resident memory of the process
and, outside the final JSON, fail_ratio and, where a unit is made of alike
operations, op_p50_s and op_tail_s (the highest percentile with at least ten
samples beyond it, unscaled work time), each with its sample count.

``--trace 1`` runs half the units traced, then as many untraced from unit 0
again, without the host probe, and prints the per-layer metrics of the
traced units (see ``PER_LAYER``), per unit of work.  ``.s`` is self time, the
span minus its child spans, except ``lab.check.<group>.s``, which is the
group's whole wall time.  The digest of unit 0's outputs must match between
the traced and untraced halves, or the run is not correct.

The last line of standard output is the JSON result; a copy with the machine
stamp, digest and op statistics goes to ``.perfbench/`` under the checkout,
with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

CHECK_GROUPS = (
    "mollifier", "commutator_t", "commutator_s", "cancellation",
    "pushforward_residual", "conservation", "moment_bound", "parabolic_closed_form",
    "decay_exponents", "relaxation", "stability", "determinism",
)

PER_LAYER = (
    *((f"lab.check.{g}.s", "s") for g in CHECK_GROUPS),
    ("lab.check.share", "ratio"),
    ("cli.s", "s"),
    ("interp.eval.s", "s"), ("interp.eval.calls", "count"),
    ("interp.eval.points", "count"), ("interp.points_per_call", "count"),
    ("interp.build.s", "s"), ("interp.build.calls", "count"),
    ("interp.build.repeat_ratio", "ratio"),
    ("flow.simulate_flow.s", "s"), ("flow.simulate_flow.calls", "count"),
    ("flow.simulate_flow.repeat_ratio", "ratio"),
    ("flow.variational_jacobian.s", "s"), ("flow.logdet_stochastic_exponential.s", "s"),
    ("flow.invert_flow.s", "s"), ("flow.invert_flow.calls", "count"),
    ("flow.newton_per_inversion", "count"), ("flow.pushforward_solution.s", "s"),
    ("parabolic.mild_solve.s", "s"), ("parabolic.mild_solve.calls", "count"),
    ("parabolic.picard_per_solve", "count"),
    ("parabolic.heat_apply.s", "s"), ("parabolic.heat_apply.calls", "count"),
    ("field.spectral.s", "s"), ("field.spectral.calls", "count"),
    ("zvonkin.build_diffeo.s", "s"), ("zvonkin.transform_coeffs.s", "s"),
    ("weakform.residual_renormalized.s", "s"), ("weakform.residual_original.s", "s"),
    ("weakform.weighted_l1_stability.s", "s"),
    ("commutator.s", "s"), ("presets.s", "s"), ("rng.s", "s"),
    ("parallel.ordered_map.items", "count"), ("parallel.workers", "count"),
    ("parallel.cpu_util", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)

SPECTRAL = ("field.spectral_derivative", "field.gradient", "field.divergence", "field.jacobian")


def _git_commit() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _child_import_s(src: Path) -> tuple[float, float]:
    """Seconds a fresh interpreter takes to import renormlab from src, and
    the host factor over the import."""
    done = subprocess.run([sys.executable, str(HERE / "timed_import.py"), str(src)],
                          capture_output=True, text=True, check=True, timeout=120)
    wall, factor = (float(v) for v in done.stdout.split())
    return wall, factor


def _quantile_line(values: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    out = {"n": n, "p50": statistics.median(values) if values else None}
    if n > 10:
        pct = math.floor(100.0 * (n - 10) / n)
        ordered = sorted(values)
        out["tail_pct"] = pct
        out["tail"] = ordered[min(n - 1, math.ceil(pct / 100.0 * n) - 1)]
    return out


class Phase:
    """Units run back to back: walls, host factors, ops, verdicts."""

    def __init__(self):
        self.walls: list[float] = []
        self.factors: list[float] = []
        self.cpus: list[float] = []
        self.op_s: list[float] = []
        self.attempted = 0
        self.raised = 0
        self.wrong = 0
        self.digest0 = None


def _run_unit(wl, inputs, phase: Phase, first: bool, tracer=None, probe=None) -> None:
    if tracer:
        tracer.install()
    region = probe.region() if probe else contextlib.nullcontext()
    clock = probe.clock if probe else time.perf_counter
    try:
        with region:
            cpu, t0 = time.process_time(), clock()
            outputs, op_s = wl.run(inputs)
            wall, cpu = clock() - t0, time.process_time() - cpu
        phase.walls.append(wall)
        phase.cpus.append(cpu)
        phase.factors.append(probe.factor() if probe else 1.0)
    except Exception:
        print("unit raised:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        phase.attempted += 1
        phase.raised += 1
        return
    finally:
        if tracer:
            tracer.uninstall()
    attempted, raised, wrong, numbers = wl.check(inputs, outputs)
    phase.attempted += attempted
    phase.raised += raised
    phase.wrong += wrong
    phase.op_s += op_s
    if first:
        payload = b"".join(float(v).hex().encode() + b"," for v in numbers)
        phase.digest0 = hashlib.sha256(payload).hexdigest()


def _run_phase(wl, seed: int, inputs0, units: int, tracer=None, probe=None) -> Phase:
    phase = Phase()
    for unit in range(units):
        inputs = inputs0 if unit == 0 else wl.build(seed, unit)
        _run_unit(wl, inputs, phase, unit == 0, tracer, probe)
    return phase


def _unit_count(wl, seconds: float) -> int:
    """Units that fit in ``seconds`` on an unloaded host at the seed commit's speed."""
    if wl.unit_s is None:
        return 1
    return max(1, round(seconds / wl.unit_s))


def _scaled(phase: Phase) -> list[float]:
    return [w / f for w, f in zip(phase.walls, phase.factors)]


def _layer_metrics(tracer, traced: Phase, untraced: Phase) -> dict[str, float]:
    totals = tracer.totals()
    units = len(traced.walls)

    def get(name, key):
        return totals.get(name, {}).get(key, 0.0)

    def prefix(layer, key):
        return sum(v[key] for k, v in totals.items() if k.startswith(layer + "."))

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, float] = {}
    for name, total in totals.items():
        if name.startswith("lab.check.") and total["calls"]:
            m[name + ".s"] = get(name, "incl") / units
    for g in CHECK_GROUPS:
        m.setdefault(f"lab.check.{g}.s", 0.0)
    checks = sum(v for k, v in m.items() if k.startswith("lab.check."))
    m["lab.check.share"] = checks / statistics.median(traced.walls)
    m["cli.s"] = prefix("cli", "self") / units
    for name in ("interp.eval", "interp.build", "flow.simulate_flow", "flow.invert_flow",
                 "parabolic.mild_solve", "parabolic.heat_apply"):
        m[name + ".s"] = get(name, "self") / units
        m[name + ".calls"] = get(name, "calls") / units
    m["interp.eval.points"] = get("interp.eval", "work") / units
    m["interp.points_per_call"] = ratio(get("interp.eval", "work"), get("interp.eval", "calls"))
    for name in ("interp.build", "flow.simulate_flow"):
        m[name + ".repeat_ratio"] = ratio(get(name, "work"), get(name, "calls"))
    for name in ("flow.variational_jacobian", "flow.logdet_stochastic_exponential",
                 "flow.pushforward_solution", "zvonkin.build_diffeo",
                 "zvonkin.transform_coeffs", "weakform.residual_renormalized",
                 "weakform.residual_original", "weakform.weighted_l1_stability"):
        m[name + ".s"] = get(name, "self") / units
    m["flow.newton_per_inversion"] = ratio(get("flow.invert_flow", "work"),
                                           get("flow.invert_flow", "calls"))
    m["parabolic.picard_per_solve"] = ratio(get("parabolic.mild_solve", "work"),
                                            get("parabolic.mild_solve", "calls"))
    m["field.spectral.s"] = sum(get(n, "self") for n in SPECTRAL) / units
    m["field.spectral.calls"] = sum(get(n, "calls") for n in SPECTRAL) / units
    for layer in ("commutator", "presets", "rng"):
        m[layer + ".s"] = prefix(layer, "self") / units
    m["parallel.ordered_map.items"] = get("parallel.ordered_map", "work") / units
    m["parallel.cpu_util"] = sum(traced.cpus) / sum(traced.walls)
    m["trace.overhead_ratio"] = statistics.median(traced.walls) / statistics.median(untraced.walls)
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    src = ROOT / "src"
    if not (src / "renormlab" / "__init__.py").is_file():
        print(f"no renormlab sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    load = os.getloadavg()[0]
    imports = [_child_import_s(src) for _ in range(5)]
    import workloads  # imports every renormlab module
    from hostprobe import HostProbe
    import numpy
    import scipy
    from renormlab import parallel

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.NAMES}")
    stamp = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workers": parallel.worker_count(),
        "commit": _git_commit(),
        "loadavg_1m": load,
    }
    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        wl = workloads.make(args.workload, workdir)
        probe = HostProbe()
        builds = []
        for _ in range(3):
            with probe.region():
                t0 = probe.clock()
                inputs0 = wl.build(args.seed, 0)
                build_s = probe.clock() - t0
            builds.append((build_s, probe.factor()))
        raw_setup_s = statistics.median(w for w, _ in imports) + statistics.median(
            w for w, _ in builds)
        setup_s = statistics.median(w / f for w, f in imports) + statistics.median(
            w / f for w, f in builds)

        units = _unit_count(wl, args.seconds)
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            half = max(1, units // 2)
            traced = _run_phase(wl, args.seed, inputs0, half, tracer)
            measured = _run_phase(wl, args.seed, inputs0, half)
            phases = (traced, measured)
        else:
            workloads.clock = probe.clock  # op times leave the probe's time out
            measured = _run_phase(wl, args.seed, inputs0, units, probe=probe)
            phases = (measured,)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not all(p.walls for p in phases):
        print("no unit of work completed; no result", file=sys.stderr)
        return 1

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = sum(p.attempted for p in phases)
    raised = sum(p.raised for p in phases)
    wrong = sum(p.wrong for p in phases)
    failed = raised + wrong
    raw_wall_s = statistics.median(measured.walls)
    wall_s = statistics.median(_scaled(measured))
    ops = _quantile_line(measured.op_s) if wl.ops_alike else None
    if args.trace:
        same_outputs = traced.digest0 == measured.digest0
        layer = _layer_metrics(tracer, traced, measured)
        layer["parallel.workers"] = float(stamp["workers"])
        metrics = {n: {"value": layer[n], "unit": u} for n, u in PER_LAYER}
        metrics.update({n: {"value": v, "unit": "s"} for n, v in layer.items()
                        if n.startswith("lab.check.") and n not in metrics})
        out_dir.mkdir(exist_ok=True)
        tracer.save(out_dir / f"{args.workload}-s{args.seed}.spans.npz")
    else:
        same_outputs = True
        values = {"wall_s": wall_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
    # An operation that raised gave no output to judge: it counts as failed
    # but not as a wrong answer.
    correct = wrong == 0 and same_outputs

    print("stamp: " + " ".join(f"{k}={v}" for k, v in stamp.items()))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(measured.walls)} timed unit(s)")
    if not args.trace:
        print(f"  wall_s       {wall_s:.4f} s  (median of {len(measured.walls)} units,"
              f" scaled to an unloaded host)")
        print(f"  setup_s      {setup_s:.4f} s  (median of 5 imports + median of 3 builds,"
              f" scaled likewise; {raw_setup_s:.4f} s unscaled)")
        print(f"  host factor  {statistics.median(measured.factors):.4f}  (median over units;"
              f" 1 is unloaded)")
    print(f"  raw wall_s   {raw_wall_s:.4f} s  (median of {len(measured.walls)} units, unscaled)")
    print(f"  peak_rss_mb  {peak_rss_mb:.1f} MB")
    print(f"  fail_ratio   {failed / max(attempted, 1):.4g}  ({failed} of {attempted} failed:"
          f" {raised} raised, {wrong} wrong)")
    if ops is None:
        print("  op_p50_s     n/a (operations of a unit are not alike)")
    else:
        print(f"  op_p50_s     {ops['p50']:.6f} s  (n={ops['n']})")
        if "tail" in ops:
            print(f"  op_tail_s    {ops['tail']:.6f} s  (p{ops['tail_pct']} of n={ops['n']})")
    print(f"  digest       {measured.digest0}"
          + ("" if same_outputs else f"  MISMATCH traced {traced.digest0}"))
    if args.trace:
        for name, entry in metrics.items():
            print(f"  {name:38s} {entry['value']:.6g} {entry['unit']}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "stamp": stamp, "digest": measured.digest0,
        "unit_walls_s": measured.walls, "unit_cpus_s": measured.cpus,
        "unit_host_factors": measured.factors, "imports_s_factor": imports,
        "builds_s_factor": builds, "raw_setup_s": raw_setup_s, "ops": ops,
        "fail_ratio": failed / max(attempted, 1),
        "result": {"correct": correct, "attempted": attempted, "failed": failed,
                   "metrics": metrics},
    }
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

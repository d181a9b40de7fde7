"""One benchmark run in its own process, started by run.py.

Set-up is timed from the moment run.py started this process, through
interpreter start, `import toralg` and building the workload's inputs.
Then whole rounds of the workload's suite calls run back to back until
the next round would end after --seconds. With --trace 1 the rounds
alternate untraced and traced, starting untraced, so that the traced
root span can be compared with the untraced time of the same calls.
The output checks run after the last round, outside the timed region.

Every reported time is read from the clocks of speed.SpeedMeter, which
run at the host's reference speed; the real times are kept in the
details line.

The last line of stdout is the result:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
One line before it records the configuration, the scalar backend and
every round's figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import spans
from speed import SpeedMeter

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
SRC = REPO / "src"
OUT = BENCH / "out"
# Bounds on (traced root span) / (untraced verdict_s), both read from
# the scaled clocks. Tracing adds 6% to 26% here.
TRACE_RATIO = (0.9, 1.6)
# per-layer figures of the whole traced run, not of one traced round
RUN_FIGURES = ("trace.untraced_verdict_s", "trace.overhead_s",
               "trace.host_slowdown")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--started", type=float, required=True,
                   help="time.monotonic() of the parent when it started us")
    return p.parse_args(argv)


def metric_names():
    doc = json.loads((REPO / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]})


def import_toralg():
    """Import toralg from this checkout's src/, never from elsewhere."""
    if not (SRC / "toralg" / "__init__.py").is_file():
        raise SystemExit(f"error: no toralg package under {SRC}")
    sys.path.insert(0, str(SRC))
    import toralg
    if Path(toralg.__file__).resolve().parent != SRC / "toralg":
        raise SystemExit(f"error: imported toralg from {toralg.__file__}")


def run_info(args):
    from toralg.scalar import ZERO
    return {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "backend": f"{type(ZERO).__module__}.{type(ZERO).__name__}",
            "python": platform.python_version(), "cpus": os.cpu_count()}


def run_round(workload, inputs, meter, tracer=None):
    """The round's reports, its (wall, CPU) time on the meter's scaled
    clocks, and its real wall time."""
    if tracer is not None:
        tracer.install()
        root = tracer.open(tracer.name_id(spans.ROOT))
    try:
        t0 = time.perf_counter()
        w0, c0 = meter.now()
        reports = workload.run(inputs)
        w1, c1 = meter.now()
        real = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.close(root)
            tracer.uninstall()
    return reports, (w1 - w0, c1 - c0), real


def layer_metrics(tracer):
    """Per-layer figures of one traced round, by metric name."""
    m = {}
    for name in tracer.names:
        if name.startswith("cli.check."):
            m[f"{name}_s"] = tracer.per_name(name)["inclusive_s"]
    span = tracer.per_name
    for name in ("rep.apply", "vertex.mom", "fock.base_weight",
                 "qlinalg.nullspace", "lie_table.build_slN_table",
                 "toroidal.bracket", "hvir.verma_apply"):
        m[f"{name}_calls"] = span(name)["calls"]
    for name in ("rep.verify_commutator", "rep.verify_virasoro_rank",
                 "rep.singular_scan", "fock.base_weight", "qlinalg.nullspace",
                 "lie_table.build_slN_table", "toroidal.bracket",
                 "toroidal.invariant_form", "hvir.verma_apply",
                 "hvir.sugawara_apply_mode", "hvir.symbolic_bracket",
                 "characters.series"):
        m[f"{name}_s"] = span(name)["inclusive_s"]
    m["rep.apply_self_s"] = span("rep.apply")["self_s"]
    m["vertex.mom_self_s"] = span("vertex.mom")["self_s"]
    m["rep.pairs_skipped"] = span("rep.verify_commutator")["raised"]
    for name, n in tracer.counts.items():
        m[f"{name}_calls"] = n
    for name, n in tracer.matrix.items():
        m[f"qlinalg.{name}"] = n
    m["vertex.cache_entries"] = tracer.cache_entries()
    m["trace.root_s"] = span(spans.ROOT)["inclusive_s"]
    return m


def commutator_problems(tracer, reports):
    """The wrapper's verify_commutator calls and raises against the
    report's pairs_checked + pairs_skipped."""
    out = []
    vc = tracer.per_name("rep.verify_commutator")
    for _suite, checks in reports:
        if isinstance(checks, BaseException):
            continue
        for c in checks:
            if c["name"] == "commutators":
                skipped = c.get("pairs_skipped", 0)
                if vc["calls"] != c["pairs_checked"] + skipped:
                    out.append(f"verify_commutator calls {vc['calls']} != "
                               f"pairs_checked + pairs_skipped")
                if vc["raised"] != skipped:
                    out.append(f"verify_commutator raised {vc['raised']} "
                               f"!= pairs_skipped {skipped}")
    return out


def main(argv=None):
    args = parse_args(argv)
    meter = SpeedMeter()
    meter.start()
    try:
        return run(args, meter)
    finally:
        # an alarm left pending at exit would kill the process
        meter.stop()


def run(args, meter):
    os.environ.pop("TORALG_THREADS", None)
    import_toralg()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    inputs = workload.setup(args.seed)
    setup_real_s = time.monotonic() - args.started
    # the set-up is short and starts before the meter, so it is scaled
    # by the median slowdown of the samples taken during it
    setup_s = setup_real_s / meter.slowdown()
    e2e_units, layer_units = metric_names()

    rounds, traced, peak_rss_mb, problems = [], [], None, []
    t_start = time.perf_counter()
    while True:
        if args.trace and len(traced) < len(rounds):
            tracer = spans.Tracer(clock=meter.wall)
            reports, (wall, _cpu), _real = run_round(workload, inputs, meter,
                                                     tracer)
            problems += commutator_problems(tracer, reports)
            traced.append((reports, wall, layer_metrics(tracer)))
            last_tracer = tracer
        else:
            rounds.append(run_round(workload, inputs, meter))
            if peak_rss_mb is None:
                peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024
            if args.trace:
                continue
        # stop before the next round (an untraced/traced pair when
        # tracing) would end after --seconds, judged by the mean so far
        elapsed = time.perf_counter() - t_start
        done = len(rounds) + len(traced)
        if elapsed * (done + 1 + args.trace) / done > args.seconds:
            break

    meter.stop()
    oracle = workload.oracle(inputs)
    attempted = failed = 0
    for reports, *_rest in rounds + traced:
        problems += workload.check(inputs, oracle, reports)
        for _suite, res in reports:
            if isinstance(res, BaseException):
                attempted += 1
                failed += 1
            else:
                attempted += len(res)
                failed += sum(1 for c in res if not c["pass"])

    walls = [w for _r, (w, _c), _real in rounds]
    cpus = [c for _r, (_w, c), _real in rounds]
    if args.trace:
        # a check a workload does not run has no span: its time is 0
        absent = [name for name in layer_units
                  if not name.startswith("cli.check.")
                  and name not in RUN_FIGURES and name not in traced[0][2]]
        if absent:
            raise SystemExit(f"error: per-layer metrics not produced: {absent}")
        figures = {name: statistics.median(m.get(name, 0)
                                           for _r, _w, m in traced)
                   for name in layer_units}
        figures["trace.untraced_verdict_s"] = statistics.median(walls)
        figures["trace.overhead_s"] = (figures["trace.root_s"]
                                       - figures["trace.untraced_verdict_s"])
        figures["trace.host_slowdown"] = meter.slowdown()
        low, high = TRACE_RATIO
        ratio = figures["trace.root_s"] / figures["trace.untraced_verdict_s"]
        if not low <= ratio <= high:
            problems.append(f"traced root span / untraced verdict_s = "
                            f"{ratio:.2f}, outside [{low}, {high}]")
        OUT.mkdir(exist_ok=True)
        last_tracer.write(OUT / f"trace-{args.workload}", run_info(args))
        units = layer_units
    else:
        figures = {"verdict_s": statistics.median(walls),
                   "verdict_cpu_s": statistics.median(cpus),
                   "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        units = e2e_units
    slow = meter.slowdowns
    detail = dict(run_info(args), setup_s=setup_s, setup_real_s=setup_real_s,
                  round_wall_s=walls, round_cpu_s=cpus,
                  round_real_wall_s=[real for _r, _t, real in rounds],
                  traced_wall_s=[w for _r, w, _m in traced],
                  slowdown_quartiles=statistics.quantiles(slow, n=4),
                  speed_samples=len(slow), problems=problems)
    print(json.dumps(detail))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": figures[name],
                                         "unit": units[name]}
                                  for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark unit, run in a fresh process by ``run.py``.

Usage: worker.py MODE WORKLOAD INPUT_SEED SIZE [RUN_ID]

MODE is one of
  setup   import motesim, build and validate the workload's scenarios and
          construct a Simulator for each; report the time taken (setup_s)
  unit    run the workload untraced through motesim's public entry points
          and check its outputs
  sliced  as unit, then re-run each scenario in ten equal slices of virtual
          time and report host time and events per slice
  traced  as unit, with spans recorded around motesim's public functions

Every mode also times calibrate.py's fixed loop in the same process and
reports it as ``cal_s``: after the set-up, or before and after the unit.
The runner uses it to rescale host times to the reference host speed.

The last line of standard output is one JSON object. Exit code 3 means
motesim could not be imported from this checkout's ``src``.
"""

from __future__ import annotations

import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SLICES = 10


def import_motesim():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import motesim
    except ImportError as exc:
        print(f"cannot import motesim from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        sys.exit(3)
    if Path(motesim.__file__).resolve().parent != ROOT / "src" / "motesim":
        print(f"motesim was imported from {motesim.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        sys.exit(3)
    return motesim


def reference_digest(workload: str, seed: int, size: str) -> str:
    table = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    return table[size][workload][seed]


def setup(workload, seed: int, started: float) -> dict:
    from motesim.engine import Simulator
    for scenario in workload.scenarios(seed):
        Simulator(scenario, record_trace=workload.record_trace)
    return {"setup_s": time.perf_counter() - started}


def run_unit(workload, seed: int, size: str, name: str,
             check_reference: bool = True) -> tuple:
    """Run once into a scratch directory; return (result dict, metrics)."""
    from workloads import invariant_errors, output_digest
    OUT.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        started = time.perf_counter()
        metrics_list, paths = workload.run(seed, out_dir)
        wall_s = time.perf_counter() - started
        digest, nbytes = output_digest(paths)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    errors = invariant_errors(metrics_list)
    if check_reference and digest != reference_digest(name, seed, size):
        errors.append(f"output digest {digest[:16]} differs from the "
                      f"reference")
    result = {
        "wall_s": wall_s,
        "frames_sent": sum(m.total_sent() for m in metrics_list),
        "frames_delivered": sum(m.total_delivered() for m in metrics_list),
        "events": sum(m.event_count for m in metrics_list),
        "digest": digest,
        "report_bytes": nbytes,
        "errors": errors,
    }
    return result, metrics_list


def sliced(workload, seed: int, size: str, name: str) -> dict:
    """Unit, then every scenario again in ten equal slices of the horizon.

    The sliced run must dispatch the same events as ``engine.run``: its
    trace hash and event count are checked against the unit's when the
    unit recorded a trace, else against a fresh ``engine.run``.
    """
    from motesim import engine
    result, metrics_list = run_unit(workload, seed, size, name)
    slice_s = [0.0] * SLICES
    slice_events = [0] * SLICES
    for scenario, metrics in zip(workload.scenarios(seed), metrics_list):
        if not metrics.trace_hash:
            metrics = engine.run(scenario)
        sim = engine.Simulator(scenario)
        sim.start_apps()
        for k in range(SLICES):
            before = sim.event_count
            started = time.perf_counter()
            sim.run_until(scenario.horizon_ns * (k + 1) // SLICES)
            slice_s[k] += time.perf_counter() - started
            slice_events[k] += sim.event_count - before
        if (sim.trace_hash(), sim.event_count) != (metrics.trace_hash,
                                                   metrics.event_count):
            result["errors"].append(
                f"sliced run of seed {scenario.seed} differs from "
                f"engine.run: {sim.event_count} vs {metrics.event_count} "
                f"events")
    result["slice_s"] = slice_s
    result["slice_events"] = slice_events
    return result


def traced(workload, seed: int, size: str, name: str, run_id: int) -> dict:
    from motesim import channel, engine, node, phy, report, scenario, stack, wurx

    import workloads
    from spans import Tracer
    tracer = Tracer(run_id)

    def count_interferers(args, found):
        tracer.counters["channel.interferers_of.scanned"] += len(args[1])
        tracer.counters["channel.interferers_of.found"] += len(found)

    for owner, attribute in ((engine.Simulator, "run_until"),
                             (engine.Simulator, "schedule"),
                             (engine.Simulator, "trace_hash")):
        tracer.patch(f"engine.{attribute}", owner, attribute)
    tracer.patch("channel.rssi_at", channel, "rssi_at")
    tracer.patch("channel.decide_reception", channel, "decide_reception")
    tracer.patch("channel.interferers_of", channel, "interferers_of",
                 count_interferers)
    # time_on_air is imported by name into the engine and the scenario
    # validator, so each binding gets the same span name
    for owner in (phy, engine, scenario):
        tracer.patch("phy.time_on_air", owner, "time_on_air")
    tracer.patch("phy.SensitivityTable.load_default", phy.SensitivityTable,
                 "load_default")
    tracer.patch("node.MoteDevice.transition", node.MoteDevice, "transition")
    tracer.patch("node.EnergyLedger.accrue", node.EnergyLedger, "accrue")
    tracer.patch("wurx.send_wub", wurx, "send_wub")
    tracer.patch("wurx.receive_wub", wurx, "receive_wub")
    tracer.patch("stack.Unicast.send", stack.Unicast, "send")
    tracer.patch("stack.decode_message", stack, "decode_message")
    for owner, attribute in ((engine, "range_point_scenario"),
                             (engine, "power_profile_scenario"),
                             (workloads, "dense_scenario")):
        tracer.patch("scenario.build", owner, attribute)
    for attribute in ("emit", "emit_sweep"):
        tracer.patch("report.emit", report, attribute)
    try:
        result, _ = run_unit(workload, seed, size, name)
    finally:
        tracer.restore()
    layers = tracer.layer_totals()
    result["layers"] = layers
    result["counters"] = dict(tracer.counters)
    result["layer_self_s_total"] = sum(self_s for _, self_s in layers.values())
    tracer.write(OUT / f"spans-{name}.csv")
    return result


def main(argv) -> int:
    mode, name, seed, size = argv[0], argv[1], int(argv[2]), argv[3]
    run_id = int(argv[4]) if len(argv) > 4 else 0
    started = time.perf_counter()
    import_motesim()
    import calibrate
    import workloads
    workload = workloads.WORKLOADS[name](size)
    try:
        if mode == "setup":
            result = setup(workload, seed, started)
            cal = calibrate.sample(2 * calibrate.REPS)
        else:
            cal = calibrate.sample()
            if mode == "unit":
                result, _ = run_unit(workload, seed, size, name)
            elif mode == "sliced":
                result = sliced(workload, seed, size, name)
            else:
                result = traced(workload, seed, size, name, run_id)
            cal += calibrate.sample()
    except Exception:
        traceback.print_exc()
        return 1
    result["cal_s"] = sum(cal) / len(cal)
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

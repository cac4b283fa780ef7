"""Command-line front end: run scenario files and the two experiment presets.

Exit codes: 0 success, 1 validation error (``ConfigError``), 2 runtime error.
"""

import argparse
import sys

from . import engine, report, scenario as scen
from .errors import ConfigError, MotesimError


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None,
                        help="override the RNG seed")
    parser.add_argument("--out-dir", default="out",
                        help="directory for emitted files (default: out)")
    parser.add_argument("--format", choices=("csv", "text"), default="csv",
                        help="report format (default: csv)")


def _parse_distances(text: str) -> list:
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"distances must be comma-separated numbers: {exc}")
    if not values:
        raise argparse.ArgumentTypeError("distances: give at least one")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motesim",
        description="Discrete-event simulator for dual-radio LPWAN motes "
                    "(LoRa + OOK wake-up receiver)")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario file")
    run_p.add_argument("scenario_file")
    run_p.add_argument("--validate-only", action="store_true",
                       help="validate the scenario and exit")
    _add_common(run_p)

    sweep_p = sub.add_parser("range-sweep",
                             help="coverage experiment over a distance list")
    sweep_p.add_argument("--distances", type=_parse_distances,
                         default=list(scen.DEFAULT_SWEEP_DISTANCES_M),
                         help="comma-separated distances in meters")
    sweep_p.add_argument("--packets", type=int, default=360,
                         help="packets per distance (default: 360)")
    sweep_p.add_argument("--sigma", type=float, default=0.0,
                         help="shadowing sigma in dB (default: 0)")
    _add_common(sweep_p)

    prof_p = sub.add_parser("power-profile",
                            help="wake-up exchange power micro-benchmark")
    prof_p.add_argument("--cycles", type=int, default=10,
                        help="wake-up exchange cycles (default: 10)")
    _add_common(prof_p)
    return parser


def _cmd_run(args) -> list:
    scenario = scen.load(args.scenario_file)
    if args.seed is not None:  # _replace checks the new seed
        scenario = scenario._replace(seed=args.seed)
    if args.validate_only:
        print(f"scenario OK ({scen.scenario_hash(scenario)})")
        return []
    metrics = engine.run(scenario, record_trace=False)
    paths = report.emit(metrics, args.format, args.out_dir)
    print(f"sent {metrics.total_sent()} delivered {metrics.total_delivered()} "
          f"events {metrics.event_count} ({metrics.wallclock_s:.3f} s)")
    return paths


def _cmd_range_sweep(args) -> list:
    seed = 1 if args.seed is None else args.seed
    rows, meta, _ = engine.range_sweep(
        distances=args.distances, packets=args.packets, seed=seed,
        shadowing_sigma_db=args.sigma)
    paths = report.emit_sweep(rows, meta, args.format, args.out_dir)
    for row in rows:
        print(f"d={row.distance_m:8.1f} m  pdr={row.pdr:.3f}  "
              f"rssi={row.rssi_dbm_mean:8.2f} dBm  snr={row.snr_db_mean:7.2f} dB")
    return paths


def _cmd_power_profile(args) -> list:
    seed = 1 if args.seed is None else args.seed
    metrics = engine.run(scen.power_profile_scenario(
        cycles=args.cycles, seed=seed), record_trace=False)
    paths = report.emit(metrics, args.format, args.out_dir)
    sleeper = metrics.energy[-1]
    for (label, power, t_ns, e_j, pct) in sleeper.rows:
        print(f"{label:>12}: {power:.6e} W  {t_ns / 1e9:12.6f} s  "
              f"{e_j:.6e} J  {pct:6.2f} %")
    completed = sum(1 for ex in metrics.exchanges if ex.outcome == "completed")
    print(f"exchanges completed: {completed}/{len(metrics.exchanges)}")
    return paths


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # each handler returns the paths it wrote
    handlers = {"run": _cmd_run, "range-sweep": _cmd_range_sweep,
                "power-profile": _cmd_power_profile}
    try:
        paths = handlers[args.command](args)
    except ConfigError as exc:  # a scenario, preset or option out of range
        print(f"scenario error: {exc}", file=sys.stderr)
        return 1
    except (MotesimError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    for path in paths:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

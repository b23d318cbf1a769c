"""Command-line front end.

    uavcache run      --config cfg.yaml --out results.csv [--method both]
    uavcache sweep    --config cfg.yaml --out results.csv
    uavcache validate --config cfg.yaml

`run` evaluates the configured scenario at a single point, one row per
method. `sweep` executes every sweep block in the config. Both exit 0 only
when every row succeeded; any failed row yields exit status 3. `validate`
parses the config and reports what would run without running it. A config
that is missing, unreadable or invalid, or an output path that cannot be
written, prints `error: ...` and exits 2 before any row runs.
"""
from __future__ import annotations

import argparse
import contextlib
import sys
from dataclasses import replace

from .errors import UavCacheError
from .harness import (METHODS, RunConfig, SweepSpec, emit_csv, load_config,
                      parse_config, run_sweep)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uavcache",
        description="Capacity and energy efficiency of cache-enabled cooperative UAV networks")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (("run", "evaluate the configured scenario at one point"),
                       ("sweep", "execute the config's sweep blocks"),
                       ("validate", "check a config without running it")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="YAML config path (omit for defaults)")
        if name != "validate":
            p.add_argument("--out", help="output CSV path (default: stdout)")
            p.add_argument("--seed", type=int, help="override the master seed")
            p.add_argument("--trials", type=int,
                           help="override Monte Carlo trials per row")
            p.add_argument("--method", choices=list(METHODS) + ["both"],
                           help="override evaluation method(s)")
    return parser


def _load(args: argparse.Namespace) -> RunConfig:
    if args.config is None:
        return parse_config({})
    return load_config(args.config)


def _methods_from(arg: str | None, fallback: tuple[str, ...]) -> tuple[str, ...]:
    if arg is None:
        return fallback
    return tuple(METHODS) if arg == "both" else (arg,)


def _apply_cli_overrides(spec: SweepSpec, args: argparse.Namespace) -> SweepSpec:
    changes = {}
    if args.seed is not None:
        changes["seed"] = args.seed
    if args.trials is not None:
        changes["trials"] = args.trials
    if args.method is not None:
        changes["methods"] = _methods_from(args.method, spec.methods)
    return replace(spec, **changes) if changes else spec


def _run_sweeps(specs: list[SweepSpec], out: str | None) -> int:
    # the output opens before any row runs, so an unwritable path fails fast
    with (contextlib.nullcontext(sys.stdout) if out is None
          else open(out, "w", encoding="utf-8", newline="")) as stream:
        rows = [row for spec in specs for row in run_sweep(spec)]
        emit_csv(rows, stream)
    return 3 if any(r.method == "failed" for r in rows) else 0


def _cmd_run(args: argparse.Namespace) -> int:
    run_cfg = _load(args)
    sc = run_cfg.scenario
    spec = SweepSpec(
        name="run", variable="x_cop", grid=(sc.coop_radius_km,), base=sc,
        environments=(sc.env.name,), policies=(run_cfg.policy,),
        methods=_methods_from(args.method, ("analytic",)),
        trials=args.trials if args.trials is not None else run_cfg.trials,
        seed=args.seed if args.seed is not None else run_cfg.seed,
        sim_options=run_cfg.sim_options,
        environment_map=dict(run_cfg.custom_environments))
    return _run_sweeps([spec], args.out)


def _cmd_sweep(args: argparse.Namespace) -> int:
    run_cfg = _load(args)
    if not run_cfg.sweeps:
        raise UavCacheError("config defines no sweeps; add a `sweeps:` section "
                            "or use `uavcache run`")
    return _run_sweeps([_apply_cli_overrides(spec, args) for spec in run_cfg.sweeps], args.out)


def _cmd_validate(args: argparse.Namespace) -> int:
    run_cfg = _load(args)
    sc = run_cfg.scenario
    print(f"scenario: env={sc.env.name} policy={run_cfg.policy} "
          f"density={sc.uav_density:g}/km^2 altitude={sc.channel.altitude_km:g} km "
          f"X_cop={sc.coop_radius_km:g} km B={sc.subchannels} "
          f"F={sc.library.size} S={sc.policy.cache_size} "
          f"kappa={sc.library.zipf_exponent:g}")
    for spec in run_cfg.sweeps:
        n_rows = (len(spec.grid) * len(spec.environments)
                  * len(spec.policies) * len(spec.methods))
        print(f"sweep {spec.name}: {spec.variable} over {list(spec.grid)} -> "
              f"{n_rows} rows (envs={list(spec.environments)}, "
              f"policies={list(spec.policies)}, methods={list(spec.methods)}, "
              f"trials={spec.trials}, seed={spec.seed})")
    print("config ok")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"run": _cmd_run, "sweep": _cmd_sweep,
               "validate": _cmd_validate}[args.command]
    try:
        return handler(args)
    except (OSError, UavCacheError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

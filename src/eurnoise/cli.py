"""Command-line front end.

Subcommands: sweep, fig2, fig3, smfig-b, classify, surface, check-unital.
Exit codes: 0 success, 1 domain/parse error or a request too large for memory,
2 property violation. Every error is reported as one line.
"""

from __future__ import annotations

import argparse
import sys

from eurnoise.linalg import DomainError
from eurnoise.states import BellDiagonalState, parse_state_literal
from eurnoise.channels import CHANNEL_LITERALS, ChannelSpec, parse_channel_literal
from eurnoise.metrics import ObservablePair, pauli_pair
from eurnoise.scenarios import (
    ALL_COLUMNS,
    FIG_STATE,
    SweepConfig,
    classify_longtime_ad,
    emit_csv,
    property_check_unital,
    run_time_sweep,
    sample_spmc_surface,
)

SMFIG_B_STATE = BellDiagonalState(-1.0, 1.0, 1.0)


def _parse_pair(text: str) -> ObservablePair:
    parts = text.split(",")
    if len(parts) != 2:
        raise DomainError(f"pair literal {text!r} must be 'j,k'")
    try:
        j, k = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise DomainError(f"pair literal {text!r}: {exc}") from exc
    return pauli_pair(j, k)


def _write_output(data: bytes, out: str | None) -> None:
    if out is None:
        sys.stdout.buffer.write(data)
    else:
        try:
            with open(out, "wb") as fh:
                fh.write(data)
        except OSError as exc:
            raise DomainError(f"cannot write {out!r}: {exc}") from exc


def _sweep_and_emit(cfg: SweepConfig, out: str | None) -> None:
    records = run_time_sweep(cfg)
    _write_output(emit_csv(records, cfg.outputs), out)


def _cmd_sweep(args) -> int:
    cfg = SweepConfig(
        initial=parse_state_literal(args.state),
        channel=parse_channel_literal(args.channel),
        pair=_parse_pair(args.pair),
        t_start=args.t_start,
        t_end=args.t_max,
        n_points=args.points,
        spacing=args.spacing,
        outputs=tuple(args.columns.split(",")),
    )
    _sweep_and_emit(cfg, args.out)
    return 0


PRESETS = {  # name: (initial state, channel kind, help)
    "fig2": (FIG_STATE, "pd", "phase-damping preset for the (-0.5,0.4,0.8) state"),
    "fig3": (FIG_STATE, "ad", "amplitude-damping preset for the (-0.5,0.4,0.8) state"),
    "smfig-b": (SMFIG_B_STATE, "ad", "amplitude-damping preset for the (-1,1,1) Bell vertex"),
}


def _cmd_preset(args) -> int:
    state, kind, _ = PRESETS[args.command]
    cfg = SweepConfig(state, ChannelSpec(kind), pauli_pair(1, 3), 0.0, 10.0, 201)
    _sweep_and_emit(cfg, args.out)
    return 0


def _cmd_classify(args) -> int:
    result = classify_longtime_ad(parse_state_literal(args.state))
    print(
        f"{result.verdict} u_b_initial={result.u_b_initial:.12f} "
        f"u_b_limit={result.u_b_limit:.12f}"
    )
    return 0


def _cmd_surface(args) -> int:
    states = sample_spmc_surface(_parse_pair(args.pair), args.resolution)
    lines = ["c1,c2,c3", *("%.12f,%.12f,%.12f" % s for s in states)]
    _write_output(("\n".join(lines) + "\n").encode("utf-8"), args.out)
    return 0


def _cmd_check_unital(args) -> int:
    report = property_check_unital(args.trials, args.seed)
    print(f"trials={report.n_trials} checks={report.n_checks} violations={report.n_violations}")
    if report.counterexample_state is not None:
        s = report.counterexample_state
        ub0, ub1 = report.counterexample_ub_drop
        print(
            f"amplitude-damping counterexample: state=({s.c1:.6f},{s.c2:.6f},{s.c3:.6f}) "
            f"gamma_t={report.counterexample_gamma_t} Ub {ub0:.6f} -> {ub1:.6f}"
        )
    else:
        print("amplitude-damping counterexample: none found")
    if report.n_violations > 0:
        for v in report.violations[:10]:
            print(f"VIOLATION: {v}")
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eurnoise",
        description="Entropic uncertainty with quantum memory under local noise",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="metric time sweep emitting CSV")
    p.add_argument("--state", required=True, help="bd:c1,c2,c3")
    p.add_argument("--channel", required=True, help=" | ".join(CHANNEL_LITERALS))
    p.add_argument("--pair", required=True, help="Pauli pair 'j,k'")
    p.add_argument("--t-start", type=float, default=0.0)
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--spacing", choices=("linear", "log"), default="linear")
    p.add_argument("--columns", default=",".join(ALL_COLUMNS), help="comma subset of U,Ub,D,E,M")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sweep)

    for name, (_, _, help_text) in PRESETS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", default=None)
        p.set_defaults(func=_cmd_preset)

    p = sub.add_parser("classify", help="long-time amplitude-damping verdict")
    p.add_argument("--state", required=True, help="bd:c1,c2,c3")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("surface", help="sample the SPMC surface")
    p.add_argument("--pair", required=True, help="Pauli pair 'j,k'")
    p.add_argument("--resolution", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_surface)

    p = sub.add_parser("check-unital", help="unital monotonicity property suite")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_check_unital)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: not enough memory for this request", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

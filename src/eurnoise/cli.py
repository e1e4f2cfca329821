"""Command-line front end.

Subcommands: sweep, classify, surface, check-unital, and the presets fig2, fig3 and
smfig-b. A preset is a fixed sweep: fig3 is `sweep --state bd:-0.5,0.4,0.8 --channel ad
--pair 1,3 --t-max 10 --points 201`; fig2 takes --channel pd, smfig-b --state bd:-1,1,1.
Exit codes: 0 success, 1 domain, parse or usage error or a request too large for memory,
2 property violation. Every error is reported as one line; --help exits 0.
"""

from __future__ import annotations

import argparse
import sys

from eurnoise.linalg import DomainError
from eurnoise.states import parse_state_literal
from eurnoise.channels import CHANNEL_LITERALS, parse_channel_literal
from eurnoise.metrics import ObservablePair, pauli_pair
from eurnoise.scenarios import (
    ALL_COLUMNS,
    FIG_STATE,
    SweepConfig,
    check_columns,
    classify_longtime_ad,
    csv_body,
    emit_csv,
    property_check_unital,
    run_time_sweep,
    sample_spmc_surface,
)

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


def _cmd_sweep(args) -> int:
    cfg = SweepConfig(
        initial=parse_state_literal(args.state),
        channel=parse_channel_literal(args.channel),
        pair=_parse_pair(args.pair),
        t_start=args.t_start,
        t_end=args.t_max,
        n_points=args.points,
        spacing=args.spacing,
    )
    columns = tuple(args.columns.split(","))
    check_columns(columns)  # before the sweep: a bad column costs no work
    _write_output(emit_csv(run_time_sweep(cfg), columns), args.out)
    return 0


PRESETS = {  # name: (initial state, channel kind, help)
    "fig2": (FIG_STATE, "pd", "phase-damping preset for the (-0.5,0.4,0.8) state"),
    "fig3": (FIG_STATE, "ad", "amplitude-damping preset for the (-0.5,0.4,0.8) state"),
    "smfig-b": ((-1.0, 1.0, 1.0), "ad", "amplitude-damping preset for the (-1,1,1) Bell vertex"),
}


def _cmd_classify(args) -> int:
    result = classify_longtime_ad(parse_state_literal(args.state))
    print(f"{result.verdict} u_b_initial={result.u_b_initial:.12f} "
          f"u_b_limit={result.u_b_limit:.12f}")
    return 0


def _cmd_surface(args) -> int:
    cells = sample_spmc_surface(_parse_pair(args.pair), args.resolution).table
    _write_output(b"c1,c2,c3\n" + csv_body(cells), args.out)
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
    for v in report.violations[:10]:
        print(f"VIOLATION: {v}")
    return 2 if report.n_violations else 0


class _Parser(argparse.ArgumentParser):
    """A parser, and each of its subparsers, whose usage errors are DomainErrors."""

    def error(self, message):
        raise DomainError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="eurnoise",
        description="Entropic uncertainty with quantum memory under local noise",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    every = ",".join(ALL_COLUMNS)

    p = sub.add_parser("sweep", help="metric time sweep emitting CSV")
    p.add_argument("--state", required=True, help="bd:c1,c2,c3")
    p.add_argument("--channel", required=True, help=" | ".join(CHANNEL_LITERALS))
    p.add_argument("--pair", required=True, help="Pauli pair 'j,k'")
    p.add_argument("--t-start", type=float, default=0.0)
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--spacing", choices=("linear", "log"), default="linear")
    p.add_argument("--columns", default=every, help="comma subset of " + every)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sweep)

    for name, (state, kind, help_text) in PRESETS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", default=None)
        literal = "bd:" + ",".join(map(repr, state))  # repr of a float round-trips exactly
        p.set_defaults(func=_cmd_sweep, state=literal, channel=kind, pair="1,3", t_start=0.0,
                       t_max=10.0, points=201, spacing="linear", columns=every)

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

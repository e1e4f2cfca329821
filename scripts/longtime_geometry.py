#!/usr/bin/env python3
"""Sample the tetrahedron and report how the long-time amplitude-damping
verdict splits it, alongside the SPMC-surface sample of `eurnoise surface --pair 1,3
--resolution 41` for plotting."""

import argparse
import pathlib

import numpy as np

from eurnoise.cli import main as cli_main
from eurnoise.scenarios import classify_longtime_ad, csv_body
from eurnoise.states import random_bd_states


def run(n_samples: int, seed: int, out_dir: pathlib.Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    states = random_bd_states(n_samples, rng)
    res = classify_longtime_ad(states)  # one call for every state, numpy columns out
    states_rows = csv_body(states).splitlines()
    u_b_rows = csv_body(np.column_stack([res.u_b_initial, res.u_b_limit])).splitlines()
    rows = [b"c1,c2,c3,verdict,u_b_initial,u_b_limit"]
    # every verdict is 8 ASCII characters; it goes between the two numeric blocks
    rows += map(b",".join, zip(states_rows, res.verdict.astype("S8"), u_b_rows))
    counts = {v: int(np.sum(res.verdict == v)) for v in ("Decrease", "Increase", "Boundary")}
    dest = out_dir / "longtime_verdicts.csv"
    dest.write_bytes(b"\n".join(rows) + b"\n")
    print(f"wrote {dest}: {counts}")

    dest = out_dir / "spmc_surface.csv"
    code = cli_main(["surface", "--pair", "1,3", "--resolution", "41", "--out", str(dest)])
    if code != 0:
        raise SystemExit(code)
    print(f"wrote {dest}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", type=pathlib.Path, default=pathlib.Path("out"))
    args = parser.parse_args()
    run(args.samples, args.seed, args.out_dir)

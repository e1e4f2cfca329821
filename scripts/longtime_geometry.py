#!/usr/bin/env python3
"""Sample the tetrahedron and report how the long-time amplitude-damping
verdict splits it, alongside an SPMC-surface sample for plotting."""

import argparse
import pathlib

import numpy as np

from eurnoise.metrics import pauli_pair
from eurnoise.scenarios import classify_longtime_ad, sample_spmc_surface
from eurnoise.states import random_bd_states


def run(n_samples: int, seed: int, out_dir: pathlib.Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    states = random_bd_states(n_samples, rng)
    res = classify_longtime_ad(states)  # one call for every state
    columns = zip(states.tolist(), res.verdict, res.u_b_initial, res.u_b_limit)
    rows = ["c1,c2,c3,verdict,u_b_initial,u_b_limit"]
    rows += [f"{c1:.12f},{c2:.12f},{c3:.12f},{v},{u0:.12f},{u1:.12f}"
             for (c1, c2, c3), v, u0, u1 in columns]
    counts = {v: res.verdict.count(v) for v in ("Decrease", "Increase", "Boundary")}
    dest = out_dir / "longtime_verdicts.csv"
    dest.write_text("\n".join(rows) + "\n")
    print(f"wrote {dest}: {counts}")

    surface = sample_spmc_surface(pauli_pair(1, 3), 41)
    dest = out_dir / "spmc_surface.csv"
    dest.write_text(
        "c1,c2,c3\n"
        + "\n".join(f"{s.c1:.12f},{s.c2:.12f},{s.c3:.12f}" for s in surface)
        + "\n"
    )
    print(f"wrote {dest}: {len(surface)} surface points")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", type=pathlib.Path, default=pathlib.Path("out"))
    args = parser.parse_args()
    run(args.samples, args.seed, args.out_dir)

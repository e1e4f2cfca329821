#!/usr/bin/env python3
"""eurnoise benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload ad-dense --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --write-spec     # regenerate BENCHMARK.json

Run from the repository root; the program is imported from ./src. With
--trace 0 the last line of stdout is a JSON object holding the end-to-end
metrics; with --trace 1 it holds the per-layer metrics, taken from a second,
traced pass over the run's first round. Human-readable lines come before it.
Exit code 1 means an output was wrong, 2 that the program is missing.
"""

import os

# one thread per process, children included; set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402

import numpy as np  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402
from speed import Speed  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_SECONDS = 20
SETUP_REPEATS = 11

WORKLOADS = {
    "bd-closed": "closed-form Bell-diagonal flip/phase-damping sweeps, unital check and SPMC surface; "
    "Jacobi and brute force bypassed",
    "ad-dense": "amplitude-damping sweeps with |c1|>=|c2| and long-time classification: 4x4 eigensolves "
    "and pinching; brute force bypassed",
    "ad-bruteforce": "short amplitude-damping sweeps with |c1|<|c2|: every M goes through the brute-force "
    "minimizer",
    "cli": "CLI subprocesses: interpreter start, import, argparse and CSV output paid on every operation",
}
# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("points_per_s", "points/s", "higher", 0.25),
    ("sweep_ms_p50", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)
PER_LAYER = (
    ("linalg.calls", "count", "lower"),
    ("linalg.self_s", "s", "lower"),
    ("linalg.eig4_calls", "count", "lower"),
    ("linalg.eig4_s", "s", "lower"),
    ("linalg.entropy_calls", "count", "lower"),
    ("states.calls", "count", "lower"),
    ("states.self_s", "s", "lower"),
    ("states.bd_to_density_calls", "count", "lower"),
    ("channels.calls", "count", "lower"),
    ("channels.self_s", "s", "lower"),
    ("channels.evolve_flip_calls", "count", "lower"),
    ("channels.evolve_ad_calls", "count", "lower"),
    ("metrics.calls", "count", "lower"),
    ("metrics.self_s", "s", "lower"),
    ("metrics.concurrence_s", "s", "lower"),
    ("metrics.pinching_U_share", "ratio", "lower"),
    ("metrics.bruteforce_calls", "count", "lower"),
    ("metrics.bruteforce_share", "ratio", "lower"),
    ("metrics.ad_m_calls", "count", "lower"),
    ("metrics.ad_m_closed_form_ratio", "ratio", "higher"),
    ("scenarios.calls", "count", "lower"),
    ("scenarios.self_s", "s", "lower"),
    ("scenarios.emit_csv_s", "s", "lower"),
    ("cli.interpreter_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.work_ms", "ms", "lower"),
    ("cli.stdout_bytes", "bytes", "lower"),
    ("trace.points", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def spec() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": x} for n, u, b, x in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def run_child(cmd: list[str], env) -> tuple[float, bytes]:
    """Wall seconds and stdout of one subprocess, which must succeed."""
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, check=True, capture_output=True, env=env, timeout=120)
    return time.perf_counter() - t0, proc.stdout


class Stats:
    """Timings and outcomes of the operations of a run. Times other than
    busy_s are restated at the reference host speed (see speed.py)."""

    def __init__(self, speed: Speed):
        self.speed = speed
        self.attempted = self.failed = self.points = 0
        self.busy_s = 0.0  # wall time inside operations
        self.scaled_s = 0.0
        self.sweep_ms: dict[str, list[float]] = {}  # by sweep kind (op label)
        self.op_ms: list[float] = []
        self.correct = True

    def fault(self, op, why: str) -> None:
        self.correct = False
        print(f"FAIL {op.label}: {why}", file=sys.stderr)


def run_op(op, stats: Stats, check: bool = True):
    """Time one operation, then check its output outside the timing."""
    stats.attempted += 1
    scale = stats.speed.factor()
    t0 = time.perf_counter()
    try:
        out, error = op.call(), None
    except Exception as exc:  # an operation that raises counts as failed
        out, error = None, exc
    dt = time.perf_counter() - t0
    stats.busy_s += dt
    stats.scaled_s += dt * scale
    if error is not None:
        stats.failed += 1
        if not (op.known_fault and isinstance(error, RuntimeWarning)):
            stats.fault(op, f"raised {type(error).__name__}: {error}")
        return None
    if check:
        try:
            op.check(out)
        except Exception as exc:  # a malformed output fails its check too
            stats.failed += 1
            stats.fault(op, f"{type(exc).__name__}: {exc}")
            return None
    stats.points += op.points
    stats.op_ms.append(dt * scale * 1e3)
    if op.sweep:
        stats.sweep_ms.setdefault(op.label, []).append(dt * scale * 1e3)
    return out


def timed_rounds(name: str, seed: int, seconds: float, first_round, speed: Speed):
    """Whole rounds until `seconds` have passed. Returns the stats, the
    outputs of round 0 and the busy time of round 0."""
    stats = Stats(speed)
    first_round[0].call()  # warm-up, not counted
    outputs, round0_s = [], 0.0
    t_end = time.perf_counter() + seconds
    r, ops = 0, first_round
    while True:
        busy0 = stats.busy_s
        results = [run_op(op, stats) for op in ops]
        if r == 0:
            outputs, round0_s = results, stats.busy_s - busy0
        r += 1
        if time.perf_counter() >= t_end:
            return stats, outputs, round0_s
        ops = workloads.make_round(name, seed, r)


def subset_checks(ops, outputs, seed: int, stats: Stats) -> None:
    """Oracle, Kraus and brute-force checks on a seeded subset of round 0."""
    rng = np.random.default_rng([seed, 1 << 20])
    picks = [i for i, op in enumerate(ops) if op.subset_check and outputs[i] is not None]
    for i in rng.choice(picks, size=min(3, len(picks)), replace=False) if picks else []:
        try:
            ops[i].subset_check(outputs[i], rng)
        except Exception as exc:  # reported as a wrong output
            stats.fault(ops[i], f"{type(exc).__name__}: {exc}")


def preset_hashes() -> dict[str, str]:
    from eurnoise import cli

    out = {}
    for name in workloads.PRESETS:
        path = os.path.join(workloads.OUT_DIR, f"{name}.csv")
        if cli.main([name, "--out", path]) != 0:
            raise SystemExit(f"eurnoise {name} failed")
        with open(path, "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def traced_pass(name: str, seed: int) -> tuple[dict, float, list]:
    """Run round 0 again under the tracer, without output checks (they call
    into the program too); returns layer metrics, busy seconds and outputs.
    CLI children trace themselves and write their spans."""
    stats = Stats(Speed())
    if name == "cli":
        span_files = []

        def launcher(argv):
            span_files.append(os.path.join(workloads.OUT_DIR, f"spans-cli-{len(span_files)}.json"))
            cmd = [sys.executable, os.path.join(BENCH_DIR, "cli_child.py"), span_files[-1], *argv]
            return subprocess.run(cmd, capture_output=True, env=workloads.cli_env(), timeout=120)

        ops = workloads.make_round(name, seed, 0, launcher=launcher)
        outputs = [run_op(op, stats, check=False) for op in ops]
        span_lists = []
        for path in span_files:
            with open(path) as fh:
                span_lists.append(json.load(fh))
    else:
        ops = workloads.make_round(name, seed, 0)
        t = tracer.Tracer()
        t.install()
        try:
            outputs = [run_op(op, stats, check=False) for op in ops]
        finally:
            t.uninstall()
        t.write(os.path.join(workloads.OUT_DIR, f"spans-{name}.json"))
        span_lists = [t.spans]
    m = tracer.layer_metrics(span_lists, stats.busy_s)
    m["trace.points"] = stats.points
    return m, stats.busy_s, outputs


def line_count(package_dir: str) -> int:
    total = 0
    for f in os.listdir(package_dir):
        if f.endswith(".py"):
            with open(os.path.join(package_dir, f)) as fh:
                total += sum(1 for _ in fh)
    return total


def setup_seconds(name: str, seed: int, env) -> tuple[float, float]:
    """Set-up time: the import plus round 0's inputs, timed inside each of
    SETUP_REPEATS fresh interpreters. Each child then times the speed job
    itself, as the host speed changes within a second. Returns the medians
    as measured and restated at the reference speed."""
    probe = (
        f"import time; t0 = time.perf_counter(); import sys; sys.path[:0] = [{BENCH_DIR!r}]; "
        f"import workloads; workloads.setup({name!r}, {seed}); t = time.perf_counter() - t0; "
        f"import speed; print(t, t * speed.factor_now())"
    )
    runs = [run_child([sys.executable, "-c", probe], env)[1].split() for _ in range(SETUP_REPEATS)]
    return statistics.median(float(r[0]) for r in runs), statistics.median(float(r[1]) for r in runs)


def median_wall_s(cmd, env, n=5) -> float:
    return statistics.median(run_child(cmd, env)[0] for _ in range(n))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=tuple(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = ap.parse_args()
    if args.write_spec:
        with open("BENCHMARK.json", "w") as fh:
            json.dump(spec(), fh, indent=2)
            fh.write("\n")
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "eurnoise", "__init__.py")):
        print(f"error: no eurnoise package under {src}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    os.makedirs(workloads.OUT_DIR, exist_ok=True)

    name, seed = args.workload, args.seed
    env = workloads.cli_env()
    speed = Speed()
    ops = workloads.setup(name, seed)
    import eurnoise

    if not os.path.abspath(eurnoise.__file__).startswith(src + os.sep):
        print(f"error: eurnoise imported from {eurnoise.__file__}, not {src}", file=sys.stderr)
        return 2

    # a RuntimeWarning (overflow, invalid value) fails the operation that raised it
    warnings.simplefilter("error", RuntimeWarning)
    stats, outputs, round0_s = timed_rounds(name, seed, args.seconds, ops, speed)
    subset_checks(ops, outputs, seed, stats)

    setup_raw_s, setup_s = setup_seconds(name, seed, env)

    rss_who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(rss_who).ru_maxrss / 1024.0
    hashes = preset_hashes()
    print(f"info python={sys.version.split()[0]} numpy={np.__version__} nproc={os.cpu_count()} "
          f"src_lines={line_count(os.path.join(src, 'eurnoise'))}")
    for preset, digest in hashes.items():
        print(f"info sha256 {preset} {digest}")
    sweeps = [ms for kind in stats.sweep_ms.values() for ms in kind]
    print(f"info workload={name} seed={seed} attempted={stats.attempted} failed={stats.failed} "
          f"points={stats.points} sweeps={len(sweeps)}")
    print(f"info as measured: setup_s={setup_raw_s:.6g} points_per_s={stats.points / stats.busy_s:.6g}; "
          f"speed factor median={statistics.median(speed.factors):.4f} "
          f"min={min(speed.factors):.4f} max={max(speed.factors):.4f}")

    report = {
        "setup_s": setup_s,
        "points_per_s": stats.points / stats.scaled_s,
        # kinds differ in cost (fig2 vs fig3), so take each kind's median and average them
        "sweep_ms_p50": statistics.fmean(statistics.median(v) for v in stats.sweep_ms.values()),
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {}
    if len(sweeps) >= 100:
        extra["sweep_ms_p90"] = (statistics.quantiles(sweeps, n=10)[-1], "ms")
    if name == "cli":
        extra["cli_ms_p50"] = (statistics.median(stats.op_ms), "ms")
    if args.trace:
        scale = statistics.median(speed.factors)
        interp_ms = median_wall_s([sys.executable, "-c", "pass"], env) * scale * 1e3
        import_ms = median_wall_s([sys.executable, "-c", "import eurnoise.cli"], env) * scale * 1e3 - interp_ms
        fig2_ms = median_wall_s([sys.executable, "-m", "eurnoise.cli", "fig2"], env) * scale * 1e3
        layers, traced_s, traced_out = traced_pass(name, seed)
        layers["cli.interpreter_ms"] = interp_ms
        layers["cli.import_ms"] = import_ms
        layers["cli.work_ms"] = fig2_ms - interp_ms - import_ms
        layers["cli.stdout_bytes"] = sum(
            len(o.stdout) for o in traced_out if isinstance(o, subprocess.CompletedProcess)
        )
        layers["trace.wall_s"] = traced_s
        layers["trace.overhead_s"] = traced_s - round0_s
        if name == "cli":
            extra["cli.interpreter_ms + cli.import_ms"] = (interp_ms + import_ms, "ms")
        report = layers
        units = {n: u for n, u, _ in PER_LAYER}
    else:
        units = {n: u for n, u, _, _ in END_TO_END}
    for key, (value, unit) in extra.items():
        print(f"metric {key} = {value:.6g} {unit}")
    for key, value in report.items():
        print(f"metric {key} = {value:.6g} {units[key]}")
    result = {
        "correct": stats.correct,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {k: {"value": report[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0 if stats.correct else 1


if __name__ == "__main__":
    sys.exit(main())

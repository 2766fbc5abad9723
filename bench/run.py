"""Seeded closed-loop benchmark of the jetorders CLI.

    python3 bench/run.py --workload scan --seed 1 --seconds 25 --trace 0

One client in one process calls `jetorders.cli.main` in-process, one op
after the other, on documents generated from the seed (see workloads.py).
Ops come in rounds of one op per workload class, and a run always ends on
a whole round, so every run has the same mix.  Every answer is checked.
Times are put on one host-speed scale by a probe timed before every op
and every set-up start (see hostspeed.py).

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced rounds and prints the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Exit code 2 means the benchmark could not run (for example, no program).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))
# one client, one thread: numpy's BLAS pool would otherwise start a thread
# per CPU at import and spin, which makes set-up time depend on the other CPU
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import hostspeed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

#: fixed tail percentile; a 25 s run has well over 100 ops, so at least
#: 10 ops lie beyond it on every workload
TAIL_PERCENTILE = 90
SETUP_STARTS = 9

#: layers whose self time should dominate each workload's op time
TARGET_LAYERS = {
    "scan": ("jets.jet_matrix", "linalg.rank_exact"),
    "generic": ("jets.generic_rank", "algebra.poly_divexact", "jets.weierstrass_minors"),
    "operators": ("diffops.preserving_weight_space", "diffops.evaluation_image",
                  "linalg.nullspace", "linalg.rank_exact"),
    "toric": ("toric.polytope_build", "toric.smooth_check", "toric.n_inj_hilbert",
              "toric.n_inj_face", "toric.n1_surj_toric", "toric.toric_report"),
}

#: per-layer metrics: (span name, stat) in the order BENCHMARK.json lists them
LAYER_STATS = (
    ("linalg.rank_exact", ("calls", "self_s", "cells", "full_rank_ratio")),
    ("jets.jet_matrix", ("calls", "self_s", "cells")),
    ("jets.generic_rank", ("calls", "self_s", "symbolic", "randomized", "monomial_scaling",
                           "uncertified")),
    ("algebra.poly_divexact", ("calls", "self_s")),
    ("jets.weierstrass_minors", ("calls", "self_s")),
    ("diffops.preserving_weight_space", ("calls", "self_s")),
    ("diffops.evaluation_image", ("calls", "self_s")),
    ("linalg.nullspace", ("calls", "self_s", "cells")),
    ("toric.polytope_build", ("calls", "self_s")),
    ("toric.smooth_check", ("calls", "self_s")),
    ("toric.n_inj_hilbert", ("calls", "self_s")),
    ("toric.n_inj_face", ("calls", "self_s")),
    ("toric.n1_surj_toric", ("calls", "self_s")),
    ("toric.toric_report", ("calls", "self_s")),
    ("cli.main", ("self_s",)),
    ("cli.parse_space", ("self_s",)),
    ("jets.n_inj_at", ("calls", "self_s")),
)


def _unit(stat):
    return {"self_s": "s", "full_rank_ratio": "ratio"}.get(stat, "count")


def invoke(cli, workdir, op):
    """Write the op's documents and call the CLI in-process.

    Returns (exit code, stdout, problem or None, seconds spent in main)."""
    paths = {}
    for name, text in op.files.items():
        path = workdir / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    argv = [a.format(**paths) for a in op.argv]
    out, err = io.StringIO(), io.StringIO()
    problem = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an op that raises counts as failed, the run goes on
        code, problem = None, f"raised {exc!r}"
    latency = time.perf_counter() - start
    if problem is None and code != 0:
        problem = f"exit code {code}: {err.getvalue().strip()[:200]}"
    return code, out.getvalue(), problem, latency


class Runner:
    """Writes an op's documents, calls the CLI and checks the answer."""

    def __init__(self, workload, workdir, reference):
        import jetorders.cli as cli  # imported before any timing

        self.cli = cli
        self.workload = workload
        self.workdir = workdir
        self.reference = reference
        self.latencies = []
        self.probes = []  # probes[i] is timed right before op i
        self.attempted = 0
        self.failed = 0
        self.by_class = {}

    def run(self, op):
        """Run one op; returns its latency in seconds."""
        self.probes.append(hostspeed.probe())
        code, out, problem, latency = invoke(self.cli, self.workdir, op)
        if problem is None:
            problem = workloads.check(self.workload, op, out, self.reference)
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            print(f"FAILED {op.cls}: {problem}", file=sys.stderr)
        self.latencies.append(latency)
        self.by_class.setdefault(op.cls.split("#")[0], []).append(len(self.latencies) - 1)
        return latency

    def run_round(self, ops):
        """Run the ops; returns their summed latency."""
        return sum(self.run(op) for op in ops)

    def warm_up(self, seed):
        """One uncounted op from a separate stream, so lazy set-up is done
        before timing starts."""
        self.run(next(workloads.rounds(self.workload, seed, "warmup"))[0])
        for _ in range(5):
            hostspeed.probe()
        self.latencies.clear()
        self.probes.clear()
        self.by_class.clear()
        self.attempted = self.failed = 0


def measure_setup():
    """Median scaled wall time of fresh interpreters importing jetorders.cli
    and building its parser; the first start (which may compile bytecode)
    is not counted.  Returns (scaled median, measured median)."""
    code = "import jetorders.cli as c; c.build_parser()"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, probes = [], []
    for i in range(SETUP_STARTS + 1):
        if i:
            probes.append(hostspeed.probe())
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        if i:
            times.append(time.perf_counter() - start)
    probes.append(hostspeed.probe())
    return (statistics.median(hostspeed.scaled(times, probes)), statistics.median(times))


def timed_run(workload, seed, seconds, runner):
    stream = workloads.rounds(workload, seed)
    runner.warm_up(seed)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        runner.run_round(next(stream))
    runner.probes.append(hostspeed.probe())  # brackets the last op
    measured = runner.latencies
    lat = hostspeed.scaled(measured, runner.probes)
    ok = runner.attempted - runner.failed

    def figures(xs):
        tail = statistics.quantiles(xs, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
        p50 = statistics.geometric_mean(statistics.median(xs[i] for i in idx)
                                        for idx in runner.by_class.values())
        return ok / sum(xs), p50, tail

    ops_per_s, p50, tail = figures(lat)
    print(f"{workload}: {runner.attempted} ops in {len(lat) // len(workloads.classes(workload))}"
          f" rounds; op_tail_s is p{TAIL_PERCENTILE} of {len(lat)} ops "
          f"({sum(1 for x in lat if x > tail)} beyond it)")
    print(f"  scaled:   ops_per_s {ops_per_s:8.3f}  op_p50_s {p50:.4f}  op_tail_s {tail:.4f}")
    print("  measured: ops_per_s {:8.3f}  op_p50_s {:.4f}  op_tail_s {:.4f}".format(
        *figures(measured)))
    print(f"  probe median {statistics.median(runner.probes) * 1e3:.3f} ms "
          f"(scale reference {hostspeed.REFERENCE_S * 1e3:.3f} ms)")
    for cls, idx in sorted(runner.by_class.items()):
        print(f"  {cls:24s} p50 {statistics.median(lat[i] for i in idx) * 1e3:9.2f} ms scaled, "
              f"{statistics.median(measured[i] for i in idx) * 1e3:9.2f} ms measured  n={len(idx)}")
    return {
        "ops_per_s": (ops_per_s, "1/s"),
        "op_p50_s": (p50, "s"),
        "op_tail_s": (tail, "s"),
        "ok_ratio": (ok / runner.attempted, "ratio"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def _traced_round(runner, tr, ops):
    tr.reset()
    round_s = 0.0
    with tr:
        for i, op in enumerate(ops):
            tr.op_id = i
            round_s += runner.run(op)
    return round_s, tr.summary()


def traced_run(workload, seed, seconds, runner):
    """Run pairs of one untraced and one traced round until `seconds` have
    passed, alternating which of the two goes first.

    Counts come from the first traced round, so they repeat exactly for a
    seed; self times are medians over the traced rounds."""
    stream = workloads.rounds(workload, seed)
    runner.warm_up(seed)
    tr = tracing.Tracer()
    plain_s = traced_s = 0.0
    first, self_times, shares = None, {}, []
    deadline = time.perf_counter() + seconds
    pair = 0
    while first is None or time.perf_counter() < deadline:
        plain, traced = next(stream), next(stream)
        if pair % 2:  # alternate which side of a pair runs first
            round_s, summary = _traced_round(runner, tr, traced)
            plain_s += runner.run_round(plain)
        else:
            plain_s += runner.run_round(plain)
            round_s, summary = _traced_round(runner, tr, traced)
        pair += 1
        traced_s += round_s
        first = first or summary
        for name, entry in summary.items():
            self_times.setdefault(name, []).append(entry["self_s"])
        shares.append(sum(summary.get(n, {}).get("self_s", 0.0)
                          for n in TARGET_LAYERS[workload]) / round_s)
    metrics = {}
    rounds_traced = len(shares)
    for name, stats in LAYER_STATS:
        entry = first.get(name, {})
        for stat in stats:
            if stat == "self_s":
                xs = self_times.get(name, [])
                xs = xs + [0.0] * (rounds_traced - len(xs))
                value = statistics.median(xs)
            elif stat == "full_rank_ratio":
                value = entry.get("full_rank", 0) / entry["calls"] if entry.get("calls") else 0.0
            else:
                value = entry.get(stat, 0)
            metrics[f"{name}.{stat}"] = (value, _unit(stat))
    metrics["trace.overhead_ratio"] = (plain_s / traced_s, "ratio")
    metrics["trace.target_share"] = (statistics.median(shares), "ratio")
    print(f"{workload}: {rounds_traced} traced rounds of {len(workloads.classes(workload))} ops; "
          f"counts are per round, self_s is the median per round")
    for name, stats in LAYER_STATS:
        entry = first.get(name)
        if entry:
            print(f"  {name:34s} calls {entry['calls']:7d}  self "
                  f"{statistics.median(self_times[name]) * 1e3:9.2f} ms/round")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "jetorders" / "cli.py").is_file():
        print(f"error: no program at {SRC / 'jetorders'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    reference = json.loads((HERE / "reference.json").read_text())[args.workload]

    workdir = ROOT / ".benchwork" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            runner = Runner(args.workload, workdir, reference)
            metrics = traced_run(args.workload, args.seed, args.seconds, runner)
        else:
            setup, setup_measured = measure_setup()
            runner = Runner(args.workload, workdir, reference)
            metrics = timed_run(args.workload, args.seed, args.seconds, runner)
            print(f"  setup_s {setup:.4f} scaled, {setup_measured:.4f} measured")
            metrics["setup_s"] = (setup, "s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

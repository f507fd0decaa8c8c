"""fatcantor benchmark: seeded CLI request lists, checked and timed in-process.

Run from the repository root:

    python3 bench/run.py --workload algebra --seed 1 --seconds 20 --trace 0

One client sends the workload's requests one after another (closed loop)
to ``fatcantor.cli.main(argv)`` in this process.  Every request passes
``--verify``, and each document is checked (see ``checks.py``).

A shared host's speed drifts, so a fixed exact-arithmetic reference loop
runs before the first request and after each one, and every request's
wall and CPU time is scaled by the reference's nominal time over the mean
of the two loops around it; ``setup_s`` is scaled by the run's median
factor.  The end-to-end times are reported at that nominal speed.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` the list runs with every layer wrapped (see
``tracing.py``), after its first round ran untraced as the reference for
the tracing overhead, and the line carries the per-layer metrics.  The
line before it is information: the tail percentile used, the times as
measured, ``failed_ratio`` and changed documents against ``digests.json``;
with tracing, a per-subcommand breakdown.  The program is imported from
``src/`` of the current directory; without it the run exits 1 and prints
no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import checks
import workloads
from workloads import Request

BENCH_DIR = Path(__file__).resolve().parent
DIGESTS = BENCH_DIR / "digests.json"
COLD_STARTS = 15
# The reference loop takes this long at the nominal machine speed: about
# the middle of the 2-4 ms it took on the 2-core x86 virtual machine where
# the benchmark was defined, whose speed drifted by up to 2x within minutes.
REFERENCE_NOMINAL_S = 0.003
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


def load_cli(root: Path):
    """Import ``fatcantor.cli`` from ``root/src``, or exit 1."""
    src = root / "src"
    if not (src / "fatcantor" / "cli.py").is_file():
        sys.exit(f"no fatcantor sources under {src}")
    sys.path.insert(0, str(src))
    from fatcantor import cli

    if Path(cli.__file__).resolve().parent != (src / "fatcantor").resolve():
        sys.exit(f"fatcantor imported from {cli.__file__}, not from {src}")
    return cli


def reference_seconds() -> float:
    """Wall time of a fixed exact-arithmetic loop: the machine's speed now."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for k in range(1, 800):
        total += Fraction(k, k % 97 + 1)
    return time.perf_counter() - t0


def speed_scale(before: float, after: float) -> float:
    """Factor taking a time measured between two reference loops to nominal speed."""
    return REFERENCE_NOMINAL_S * 2 / (before + after)


def setup_seconds(root: Path) -> float:
    """Median wall time of a fresh interpreter importing ``fatcantor.cli``."""
    cmd = [sys.executable, "-I", "-c", "import sys; sys.path.insert(0, 'src'); import fatcantor.cli"]
    subprocess.run(cmd, cwd=root, check=True)  # writes the bytecode cache once
    times = []
    for _ in range(COLD_STARTS):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=root, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


@dataclass
class Outcome:
    kind: str
    wall: float
    cpu: float
    scale: float  # speed_scale of the reference loops around the request
    stdout_bytes: int
    digest: str
    failure: "str | None"


def write_inputs(requests: list[Request], workdir: Path, prefix: str) -> list[list[str]]:
    """Write every request's input files; return the argv lists to send."""
    argvs = []
    for i, req in enumerate(requests):
        paths = {}
        for name, doc in req.files.items():
            path = workdir / f"{prefix}{i:04d}_{name[1:]}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            paths[name] = str(path)
        argvs.append([paths.get(a, a) for a in req.argv])
    return argvs


def run_requests(cli, requests: list[Request], argvs: list[list[str]], on_start=None) -> list[Outcome]:
    """Send the requests one after another and check each document.

    A reference loop runs before the first request and after each one, so
    every request's times can be taken to nominal machine speed.
    """
    outcomes = []
    before = reference_seconds()
    for i, (req, argv) in enumerate(zip(requests, argvs)):
        gc.collect()
        if on_start is not None:
            on_start(i)
        out, err = io.StringIO(), io.StringIO()
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception as exc:  # a raising request fails; the run goes on
            code, raised = None, f"raised {type(exc).__name__}: {exc}"
        else:
            raised = None
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        after = reference_seconds()
        text = out.getvalue()
        failure = raised or checks.failure(req, code, text)
        data = text.encode()
        digest = hashlib.sha256(data).hexdigest()[:12]
        outcomes.append(Outcome(req.kind, wall, cpu, speed_scale(before, after), len(data), digest, failure))
        before = after
    return outcomes


def tail_percentile(count: int) -> float:
    """Highest ladder percentile with at least 10 samples beyond it (else p50)."""
    for p in TAIL_LADDER:
        if count * (100 - p) / 100 >= 10:
            return p
    return 50.0


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def docs_changed(workload: str, seed: int, seconds: int, outcomes: list[Outcome]) -> "int | None":
    """Documents that differ from the recorded digests; None if unrecorded."""
    if not DIGESTS.is_file():
        return None
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8")).get(f"{workload}:{seed}:{seconds}")
    if recorded is None or len(recorded) != 12 * len(outcomes):
        return None
    return sum(o.digest != recorded[12 * i : 12 * i + 12] for i, o in enumerate(outcomes))


def end_to_end(outcomes: list[Outcome], setup: float) -> tuple[dict, dict]:
    """Metrics at nominal machine speed, and the same times as measured."""
    ok = sum(o.failure is None for o in outcomes)
    tail_p = tail_percentile(len(outcomes))

    def times(scaled: bool) -> dict:
        walls = [o.wall * (o.scale if scaled else 1) for o in outcomes]
        latencies = [w * 1000 for w in walls]
        return {
            "requests_per_s": (ok / sum(walls), "1/s"),
            "cpu_s": (sum(o.cpu * (o.scale if scaled else 1) for o in outcomes), "s"),
            "latency_p50_ms": (statistics.median(latencies), "ms"),
            "latency_tail_ms": (percentile(latencies, tail_p), "ms"),
        }

    # A reference loop right after a process exit runs on cold caches, so
    # start-up is scaled by the run's median factor, not by its neighbours.
    scale = statistics.median(o.scale for o in outcomes)
    metrics = {
        "setup_s": (setup * scale, "s"),
        **times(scaled=True),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    measured = {name: value for name, (value, _) in times(scaled=False).items()}
    info = {
        "tail_percentile": tail_p,
        "requests": len(outcomes),
        "as_measured": {"setup_s": setup, **measured},
        "speed_scale_median": scale,
    }
    return metrics, info


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.CLASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    cli = load_cli(root)
    setup = None if args.trace else setup_seconds(root)

    warmup, requests = workloads.build(args.workload, args.seed, args.seconds)
    (root / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=root / ".bench_work"))
    try:
        run_requests(cli, warmup, write_inputs(warmup, workdir, "w"))
        argvs = write_inputs(requests, workdir, "r")
        if args.trace:
            import tracing

            # The first round, untraced, is the reference for the overhead
            # and for the traced documents, which must match byte for byte.
            first = len(workloads.CLASSES[args.workload])
            untraced = run_requests(cli, requests[:first], argvs[:first])
            tracer = tracing.Tracer()
            tracer.install()
            try:
                outcomes = run_requests(cli, requests, argvs, on_start=tracer.start_request)
            finally:
                tracer.uninstall()
            for r, o in zip(untraced, outcomes):
                if o.failure is None and o.digest != r.digest:
                    o.failure = "traced document differs from the untraced one"
        else:
            outcomes = run_requests(cli, requests, argvs)
    finally:
        shutil.rmtree(workdir)

    failed = [i for i, o in enumerate(outcomes) if o.failure is not None]
    for i in failed:
        print(f"request {i} ({outcomes[i].kind}) failed: {outcomes[i].failure}", file=sys.stderr)
    if args.trace:
        metrics, breakdown = tracing.layer_metrics(tracer, outcomes, untraced)
        print(json.dumps({"breakdown": breakdown}, sort_keys=True))
    else:
        metrics, info = end_to_end(outcomes, setup)
        info["failed_ratio"] = len(failed) / len(outcomes)
        info["docs_changed"] = docs_changed(args.workload, args.seed, args.seconds, outcomes)
        print(json.dumps(info, sort_keys=True))
    result = {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

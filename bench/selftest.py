"""Self-test of the benchmark harness on tiny request lists.

Run from the repository root:

    python3 bench/selftest.py

Checks that every metric named in BENCHMARK.json prints with its unit in
both modes, that a malformed request counts as failed without stopping the
run, that two seeds give different inputs with the same mix of request
kinds, and that the benchmark refuses to run without the program sources.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads
from workloads import Request

ROOT = Path.cwd()


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        sys.exit(1)


def metrics_print_with_units() -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "pack", "--seed", "0", "--seconds", "1",
             "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"trace {trace}: result keys")
        expected = {m["name"]: m["unit"] for m in spec()[key]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        check(printed == expected, f"trace {trace}: every {key} metric prints with its unit")
        check(result["correct"] and result["failed"] == 0, f"trace {trace}: tiny list passes")


def malformed_request_fails() -> None:
    cli = run.load_cli(ROOT)
    good = Request("cantor-info", ["cantor-info", "--stage", "3", "--verify"], expect={"cantor": (1, 3)})
    bad = Request("measure", ["measure", "--expr-file", "@expr", "--verify"], {"@expr": {}})
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=ROOT / ".bench_work"))
    try:
        argvs = run.write_inputs([good, bad, good], workdir, "s")
        argvs[1][2] = str(workdir / "missing.json")
        outcomes = run.run_requests(cli, [good, bad, good], argvs)
    finally:
        shutil.rmtree(workdir)
    check(outcomes[1].failure == "exit code 2", "unreadable --expr-file counts as failed (exit 2)")
    check(outcomes[0].failure is None and outcomes[2].failure is None, "the run goes on after it")


def seeds_vary_inputs_not_mix() -> None:
    for name in workloads.CLASSES:
        _, a = workloads.build(name, 1, 1)
        _, b = workloads.build(name, 2, 1)
        check([r.kind for r in a] == [r.kind for r in b], f"{name}: same mix of kinds for two seeds")
        differ = sum(x.key() != y.key() for x, y in zip(a, b))
        check(differ >= len(a) / 2, f"{name}: different inputs for two seeds ({differ} of {len(a)} differ)")
        check(len({r.key() for r in a}) == len(a), f"{name}: no repeated request")


def refuses_without_sources() -> None:
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=ROOT / ".bench_work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        bench = spec()
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, *bench["command"][1:], "--workload", "pack", "--seed", "0", "--seconds", "1",
             "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout.strip(), "exits non-zero with no result without src/")


if __name__ == "__main__":
    seeds_vary_inputs_not_mix()
    malformed_request_fails()
    refuses_without_sources()
    metrics_print_with_units()

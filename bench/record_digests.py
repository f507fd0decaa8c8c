"""Record the stdout digest of every request into ``digests.json``.

Run from the repository root, at a commit whose documents are the
reference:

    python3 bench/record_digests.py --seconds 20 --seeds 1-10

For each workload and seed it builds the request list ``run.py`` would
send with ``--seconds``, runs it untimed, and stores the first 12 hex
digits of each document's sha256, concatenated in request order.  A
later ``run.py`` reports how many documents of a recorded list changed
(``docs_changed``); lists that were not recorded report ``null``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import tempfile
from pathlib import Path

import run
import workloads


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--seeds", required=True, help="inclusive range such as 1-10")
    args = parser.parse_args()
    first, last = (int(v) for v in args.seeds.split("-"))

    root = Path.cwd()
    cli = run.load_cli(root)
    table = json.loads(run.DIGESTS.read_text(encoding="utf-8")) if run.DIGESTS.is_file() else {}
    (root / ".bench_work").mkdir(exist_ok=True)
    for name in sorted(workloads.CLASSES):
        for seed in range(first, last + 1):
            _, requests = workloads.build(name, seed, args.seconds)
            workdir = Path(tempfile.mkdtemp(dir=root / ".bench_work"))
            try:
                outcomes = run.run_requests(cli, requests, run.write_inputs(requests, workdir, "r"))
            finally:
                shutil.rmtree(workdir)
            failed = [i for i, o in enumerate(outcomes) if o.failure is not None]
            if failed:
                raise SystemExit(f"{name} seed {seed}: requests {failed} failed; nothing recorded")
            table[f"{name}:{seed}:{args.seconds}"] = "".join(o.digest for o in outcomes)
            print(f"{name} seed {seed}: {len(outcomes)} documents", flush=True)
    run.DIGESTS.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()

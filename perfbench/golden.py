"""Regenerate the committed golden digests for seed 0.

    python3 perfbench/golden.py

Solves every workload's seed-0 corpus once, certifies each output, and
writes `golden/<workload>.json`: the corpus digest and, per instance, the
sha256 of the solution JSON and of the event trace.  Run it only when an
output change is intended.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import corpus
import worker


def main() -> int:
    worker.import_program()
    workdir = worker.ROOT / ".perfbench_tmp" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in corpus.WORKLOADS:
            values_list = corpus.build_corpus(name, worker.GOLDEN_SEED)
            items = worker.prepare(name, values_list, workdir)
            checker = worker.Checker(len(items), None)
            for idx in range(len(items)):
                checker.run(worker.RUNNERS[name], items, idx)
            if not checker.clean:
                print(f"{name}: {checker.errors}", file=sys.stderr)
                return 1
            golden = {
                "seed": worker.GOLDEN_SEED,
                "corpus_sha256": worker.corpus_digest(values_list),
                "outputs": [list(first[0]) for first in checker.first],
            }
            worker.GOLDEN_DIR.mkdir(exist_ok=True)
            path = worker.GOLDEN_DIR / f"{name}.json"
            path.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
            print(f"wrote {path.name}: {len(items)} instances")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the CSV hashes that run.py compares each run against.

Run from the checkout root; it runs every workload once per seed at the
pinned BLAS setting and rewrites perfbench/baseline_hashes.json:

    python3 perfbench/record_baseline.py 0 20
"""

import json
import os
import shutil
import sys
from pathlib import Path

from run import HERE, PINNED_ENV, WORK_DIR


def main(first, last):
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, "src")
    from run import run_rep
    from workloads import WORKLOADS, make_config, write_config

    work = Path(WORK_DIR) / "baseline"
    work.mkdir(parents=True, exist_ok=True)
    hashes = {}
    try:
        for name, wl in WORKLOADS.items():
            for seed in range(first, last + 1):
                doc = make_config(name, seed)
                write_config(doc, work / "cfg.yaml")
                rep = run_rep(wl, doc, work / "cfg.yaml", work / name / str(seed), False)
                if rep.code != 0 or rep.failed:
                    raise SystemExit("%s seed %d failed: %s" % (name, seed, rep.error))
                hashes.setdefault(name, {})[str(seed)] = rep.hashes
                print(name, seed, flush=True)
    finally:
        shutil.rmtree(Path(WORK_DIR), ignore_errors=True)
    text = json.dumps(hashes, indent=1, sort_keys=True) + "\n"
    (HERE / "baseline_hashes.json").write_text(text)


if __name__ == "__main__":
    main(int(sys.argv[1]), int(sys.argv[2]))

"""Record the stdout digests that fixed-input ops are checked against.

    python3 perfbench/record_digests.py

Run it only on a commit whose output is known good: the benchmark treats
any other output of these ops as a failure.  It writes digests.json here.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
from pathlib import Path

import run
import workloads


def main() -> None:
    bchkit = run.load_bchkit()
    run.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="digests-", dir=run.WORK))
    digests = {}
    try:
        for name in workloads.NAMES:
            wl = workloads.build(name, seed=0)
            runner = run.Runner(bchkit, wl, work)
            for op in wl.ops:
                if op.digest is None or op.digest in digests:
                    continue
                run.os.environ[run.CACHE_ENV_VAR] = str(work / op.digest.replace(" ", "-"))
                _, rc, out = runner.call(op.argv)
                if rc != 0:
                    raise SystemExit(f"error: {' '.join(op.argv)} exited {rc}")
                digests[op.digest] = hashlib.sha256(out.encode()).hexdigest()
                print(op.digest, digests[op.digest])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (run.HERE / "digests.json").write_text(json.dumps(digests, indent=2) + "\n")


if __name__ == "__main__":
    main()

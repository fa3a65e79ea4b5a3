"""Rewrite fingerprints.json: the inputs each workload generates, per input seed.

    python3 perfbench/record_fingerprints.py

Run it from the repository root, only when the benchmark's generators are
meant to change. It records every seed of ``inputs.INPUT_SEEDS``. A run
whose inputs differ from the recorded fingerprint counts every op as
failed, so runs of two commits compare the same inputs.
"""
import json
import sys
import tempfile
from pathlib import Path

import inputs
import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    with tempfile.TemporaryDirectory() as tmp:
        ctx = workloads.Context(gc=None, cli=None, seed=0, workers=1, workdir=Path(tmp))
        ctx.gc, ctx.cli = run.fresh_import()
        recorded = {}
        for name, wl in workloads.WORKLOADS.items():
            per_seed = {}
            for seed in range(inputs.INPUT_SEEDS):
                ctx.seed = seed
                per_seed[str(seed)] = inputs.fingerprint(wl.make_inputs(ctx)).to_json()
            if len({json.dumps(fp) for fp in per_seed.values()}) == 1:
                per_seed = {"*": per_seed["0"]}  # the seed does not change the inputs
            recorded[name] = per_seed
    run.FINGERPRINTS.write_text(json.dumps(recorded, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Regenerate reference.json: the digest of every workload's emitted files
for each input seed and size.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Run it only when a change alters the outputs on purpose, and say in the
change why they changed. Named workloads are regenerated; the others keep
their recorded digests.
"""

from __future__ import annotations

import json
import sys

import worker
from run import INPUT_SEEDS, WORKLOADS


def main(names) -> int:
    worker.import_motesim()
    import workloads
    path = worker.HERE / "reference.json"
    table = json.loads(path.read_text(encoding="utf-8")) if path.exists() \
        else {size: {} for size in workloads.SIZES}
    for size in workloads.SIZES:
        for name in names or WORKLOADS:
            workload = workloads.WORKLOADS[name](size)
            digests = []
            for seed in range(INPUT_SEEDS):
                result, _ = worker.run_unit(workload, seed, size, name,
                                            check_reference=False)
                if result["errors"]:
                    print(f"{name} {size} seed {seed}: {result['errors']}",
                          file=sys.stderr)
                    return 1
                digests.append(result["digest"])
                print(f"{name} {size} seed {seed}: {result['digest'][:16]} "
                      f"{result['frames_sent']} frames "
                      f"{result['frames_delivered']} delivered", flush=True)
            table[size][name] = digests
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

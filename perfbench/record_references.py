"""Record the correctness-gate digests into perfbench/references.json.

Usage (from the repository root): ``python3 perfbench/record_references.py``.

The digests are sha256 sums of the timing-stripped report bytes
(``fglab.report.comparable_bytes``): one per verify configuration, and one per
reference descent batch (seed 0, the workload's batch size).  They were
recorded at the commit that introduced the benchmark; re-record only when a
change to the report bytes is intended, since the goldens pin them too.
"""

import json
import sys

from run import HERE, OUT, WORKLOADS, Budget, ref_keys, session_spec, spawn


def main() -> int:
    OUT.mkdir(exist_ok=True)
    refs = {"verify": {}, "descent": {}}
    for name, w in WORKLOADS.items():
        verify_key, descent_key = ref_keys(w)
        r = spawn(session_spec(w, refs, False, f"ref-{name}", count=1), Budget())
        if r.get("crashed"):
            print(f"{name}: {r['errors']}", file=sys.stderr)
            return 1
        refs["verify"][verify_key] = r["verify_digest"]
        refs["descent"][descent_key] = r["ref_batch_digest"]
        print(name, verify_key, r["verify_digest"], descent_key, r["ref_batch_digest"])
    (HERE / "references.json").write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

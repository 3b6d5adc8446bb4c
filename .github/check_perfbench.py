"""Check the verdict that perfbench/run.py prints as its last JSON line.

    python3 .github/check_perfbench.py OUTPUT LABEL [MAY_FAIL]

run.py exits 0 even when a request mismatches its reference digest, so
the verdict is read here: exit 1 unless every digest matched ("correct"
is true) and no request failed.  MAY_FAIL 1 lets the run count failed
requests; its digests must still match.
"""

import json
import sys


def main(path, label, may_fail="0"):
    with open(path) as fh:
        r = json.loads(fh.read().splitlines()[-1])
    print(label, "correct:", r["correct"], "failed:", r["failed"])
    ok = r["correct"] is True and (r["failed"] == 0 or may_fail == "1")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))

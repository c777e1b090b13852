"""Write oracle.json: the expected output of every benchmark input.

Run from the repository root, once, at a commit whose output is trusted:

    python3 perfbench/make_oracle.py

For each input it records the exit code and either the digests of the
compared report sections (analyze) or the number of passed checks (check).
It refuses to write an oracle that breaks the benchmark's own invariants.
"""

import json
import re
import sys

from run import ORACLE, WORKLOADS, start_worker, output_failure, section_digests


def main():
    entries = {}
    worker = start_worker()
    try:
        for inputs in WORKLOADS.values():
            for inp in inputs:
                req = {"op": "run", "argv": list(inp.argv) + ["--seed", "0"],
                       "trace": False, "tag": None}
                reply = worker.request(req, 10 * inp.budget_s)
                if reply["error"]:
                    sys.exit("%s crashed:\n%s" % (inp.id, reply["error"]))
                entry = {"exit": reply["rc"]}
                if inp.kind == "check":
                    m = re.search(r"(\d+) passed, 0 failed\s*$", reply["stdout"])
                    entry["passed"] = int(m.group(1)) if m else -1
                else:
                    entry["sections"] = section_digests(json.loads(reply["stdout"]))
                failure = output_failure(inp, reply["rc"], reply["stdout"], entry)
                if failure:
                    sys.exit("%s: %s" % (inp.id, failure))
                entries[inp.id] = entry
                print("%-4s exit %d  %.2f s" % (inp.id, reply["rc"], reply["wall"]))
        worker.close()
    finally:
        worker.kill()
    with open(ORACLE, "w", encoding="utf-8") as fh:
        json.dump({"seed": 0, "inputs": entries}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

"""Output checks for every CLI request the benchmark makes.

Checks run after the timed region.  They do not trust the enumeration
engine to check itself:

* every stdout of a fixed request must match the SHA-256 recorded from the
  seed commit in ``digests.json``;
* class counts are compared with the oracle (a registered formula or the
  Figure 2 table) and class sizes must sum to n!;
* ``verify`` must end with "all rows verified", and the criterion report
  must say ``holds`` and ``propagation_ok``;
* each ``classes --perm`` BFS answer must equal, byte for byte, the class
  that ``enumerate_classes`` gives for that permutation, listed in
  lexicographic order.

Run this file to record the digests again from the current code:
``python3 perfbench/checks.py`` (about two minutes).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import re
import sys
from math import factorial
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"


def load_digests() -> dict[str, str]:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _sizes_sum(stdout: str) -> int:
    line = next(ln for ln in stdout.splitlines() if ln.startswith("class sizes: "))
    pairs = re.findall(r"(\d+)x(\d+)", line)
    return sum(int(count) * int(size) for count, size in pairs)


class QueryOracle:
    """Expected ``classes --perm`` output, built from ``enumerate_classes``."""

    def __init__(self):
        self._decs = {}
        self._texts = {}

    def expected(self, relation: str, n: int, perm: tuple[int, ...]) -> str:
        import numpy as np
        from permclass import engine, perms, relation as rel

        if (relation, n) not in self._decs:
            self._decs[relation, n] = engine.enumerate_classes(n, rel.parse_partition(relation))
        if n not in self._texts:
            # itertools.permutations yields S_n in lexicographic (= rank) order
            self._texts[n] = [
                "".join(map(str, p)) for p in itertools.permutations(range(1, n + 1))
            ]
        dec = self._decs[relation, n]
        members = np.nonzero(dec.class_id == dec.class_id[perms.rank(perm)])[0]
        return "".join(self._texts[n][r] + "\n" for r in members)


def check(op, rc: int, stdout: str, digests: dict[str, str], queries: QueryOracle) -> str | None:
    """None when the op's output is correct, else the reason it is not."""
    from permclass import oracle

    if rc != 0:
        return f"exit code {rc}"
    if op.kind == "query":
        want = queries.expected(op.relation, op.n, op.perm)
        if stdout != want:
            got_size, want_size = stdout.count("\n"), want.count("\n")
            if got_size != want_size:
                return f"BFS class size {got_size} != enumerated class size {want_size}"
            return "BFS class members differ from the enumerated class"
        return None
    want_digest = digests.get(op.key)
    if want_digest is None:
        return "no recorded digest for this request"
    if sha256(stdout) != want_digest:
        return "stdout differs from the recorded digest"
    if op.kind == "count":
        m = re.search(r"num_classes=(\d+)", stdout)
        if m is None:
            return "no num_classes in output"
        got = int(m.group(1))
        if op.relation == oracle.FIGURE2_KEY:
            want = oracle.figure2_reference(op.n)
        else:
            # subword mode uses the factor-mode formula: adjacent = subword
            want = oracle.expected_count(op.relation, op.n)
        if got != want:
            return f"num_classes={got}, oracle says {want}"
        if _sizes_sum(stdout) != factorial(op.n):
            return f"class sizes do not sum to {op.n}!"
    elif op.kind == "verify":
        if stdout.rstrip("\n").splitlines()[-1] != "all rows verified":
            return "verify did not report all rows verified"
    elif op.kind == "theorem":
        report = json.loads(stdout)
        if not (report["holds"] and report["propagation_ok"]):
            return "avoider criterion report does not hold"
    elif op.kind == "stooge":
        json.loads(stdout)
    return None


def record_digests() -> dict[str, str]:
    """Run every fixed request of every workload and scale; return the digests."""
    from permclass import cli

    import workloads

    digests = {}
    for scale in workloads.SCALES:
        for workload in workloads.WORKLOADS:
            for seed in range(len(workloads.FACTOR_RELATIONS)):
                for op in workloads.fixed_ops(workload, seed, scale):
                    if op.key in digests:
                        continue
                    buf = io.StringIO()
                    with contextlib.redirect_stdout(buf):
                        rc = cli.main(list(op.argv))
                    if rc != 0:
                        raise SystemExit(f"{op.key}: exit code {rc}")
                    digests[op.key] = sha256(buf.getvalue())
                    print(f"recorded {op.key}", file=sys.stderr)
    return dict(sorted(digests.items()))


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    data = record_digests()
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")

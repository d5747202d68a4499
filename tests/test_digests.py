"""SHA-256 digests of every enumeration's class_id, rep_ranks and
class_sizes, against the digests recorded in class_digests.json.

Each case is one relation in one mode over a range of n; the digest of
each array runs over n in order and reads each array's dtype and bytes.
A change to the engine that claims identical outputs keeps every digest.
Re-record (only when an output is meant to change) with

    PYTHONPATH=src python tests/test_digests.py --record
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys
from math import factorial

import numpy as np
import pytest

from permclass import engine, oracle, relation
from permclass.engine import kernels_numpy as kn
from permclass.engine.tables import build_tables

DIGESTS = pathlib.Path(__file__).with_name("class_digests.json")
ARRAYS = ("class_id", "rep_ranks", "class_sizes")


def cases() -> list[tuple[str, str, list[int]]]:
    """(mode, partition, ns): every registered row and Figure 2, factor
    mode to n=9 and subword mode to n=8, subword n=9 for four relations
    and n=10 for two of them, and factor n=10 for Figure 2 and one
    relation."""
    keys = [*oracle.ROWS_BY_KEY]
    out = [("factor", key, list(range(1, 10))) for key in keys]
    out += [("subword", key, list(range(1, 9))) for key in keys]
    out.append(("subword", "{123,132,213,231}", [9]))
    out += [("subword", key, [n]) for key in ("{123,132}", "{123,321}{132,231}") for n in (9, 10)]
    out.append(("subword", "{1234,4321}", [9]))
    out += [("factor", key, [10]) for key in (oracle.FIGURE2_KEY, "{123,132,213,231}")]
    return out


def digests(mode: str, key: str, ns: list[int]) -> dict[str, str]:
    K = relation.parse_partition(key)
    hashes = {name: hashlib.sha256() for name in ARRAYS}
    for n in ns:
        dec = engine.enumerate_classes(n, K, mode, allow_large=True)
        for name, h in hashes.items():
            arr = getattr(dec, name)
            h.update(arr.dtype.str.encode())
            h.update(arr.tobytes())
    return {name: h.hexdigest() for name, h in hashes.items()}


def _recorded() -> dict:
    return {(c["mode"], c["partition"], tuple(c["n"])): c for c in json.loads(DIGESTS.read_text())}


@pytest.mark.parametrize("mode, key, ns", [
    pytest.param(*case, id=f"{case[0]}-{case[1]}-n{case[2][0]}-{case[2][-1]}") for case in cases()
])
def test_outputs_match_recorded_digests(mode, key, ns):
    recorded = _recorded()[mode, key, tuple(ns)]
    got = digests(mode, key, ns)
    for name in ARRAYS:
        assert got[name] == recorded[name], (mode, key, name)


@pytest.mark.parametrize("budget", [
    pytest.param(0, id="first-digit-batches"), pytest.param(factorial(12), id="one-batch-a-step"),
])
def test_factor_digests_hold_at_either_batch_budget(monkeypatch, budget):
    # Budget 0 closes each step one first digit a batch, budget 12! the
    # whole step in one batch; at n <= 9 the default closes one batch a
    # step, so only these extremes split it there (and join it at n=10).
    monkeypatch.setattr(kn, "_BATCH_EDGES", budget)
    tab = build_tables(relation.parse_partition(oracle.FIGURE2_KEY))
    # a local pair (a, b) of the first window of S_8 has first digit a // (7 * 6)
    firsts = {int(a // 42) for a in kn._local_pairs(8, tab)[0]}
    batches = list(kn._factor_batches(8, tab, np.zeros(factorial(7), dtype=np.int32), 1))
    assert len(batches) == (len(firsts) if budget == 0 else 1)
    sizes = [len(src) for src, _ in batches]
    assert kn.factor_step_edges(8, tab) == (sum(sizes), max(sizes))
    recorded = _recorded()
    for mode, key, ns in cases():
        if mode == "factor":
            got = digests(mode, key, ns)
            assert all(got[name] == recorded[mode, key, tuple(ns)][name] for name in ARRAYS), key


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    rows = [{"mode": mode, "partition": key, "n": ns, **digests(mode, key, ns)}
            for mode, key, ns in cases()]
    DIGESTS.write_text("[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n")

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings, strategies as st

import permclass
from permclass import cli, engine, oracle, relation
from permclass.engine import kernels_numpy as kn
from permclass.errors import ResourceLimitError


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_text(capsys):
    code, out, _ = run(capsys, "count", "--partition", "{123,132,231}", "--n", "5")
    assert code == 0
    assert "num_classes=16" in out


def test_count_figure2_row(capsys):
    code, out, _ = run(
        capsys, "count", "--partition", "{132,231}{213,312}", "--n", "6",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["num_classes"] == 76


def test_count_all_singleton(capsys):
    with pytest.warns(UserWarning):
        code, out, _ = run(capsys, "count", "--partition", "{123}", "--n", "4")
    assert code == 0
    assert "num_classes=24" in out


def test_count_numba_backend_without_numba(capsys, monkeypatch):
    # the numba backend is gone: a PERMCLASS_BACKEND left over from older
    # setups is ignored, with no warning and the same output
    argv = ("count", "--partition", "{123,132,231}", "--n", "5")
    monkeypatch.delenv("PERMCLASS_BACKEND", raising=False)
    code_np, out_np, _ = run(capsys, *argv)
    monkeypatch.setenv("PERMCLASS_BACKEND", "numba")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code_nb, out_nb, err_nb = run(capsys, *argv)
    assert code_np == code_nb == 0
    assert out_nb == out_np
    assert err_nb == ""


def test_count_csv_schema(capsys):
    code, out, _ = run(
        capsys, "count", "--partition", "{123,132,231}", "--n", "4",
        "--format", "csv", "--with-identity",
    )
    lines = out.strip().splitlines()
    assert lines[0] == "relation,n,mode,classes,trivial,identity_class_size"
    assert lines[1] == '"{123,132,231}",4,factor,8,4,9'


@pytest.mark.parametrize("argv", [
    ("count", "--format", "text"),
    ("count", "--format", "json"),
    ("count", "--format", "csv", "--with-identity"),
    ("classes", "--format", "json"),
    ("classes", "--format", "csv"),
])
def test_reports_do_not_build_class_id(capsys, monkeypatch, argv):
    # counts, class tables and the identity's class read the last step's
    # tail and prev arrays only, never the n!-entry class_id array
    decs = []

    def recorded(*args, **kwargs):
        decs.append(enumerate_classes(*args, **kwargs))
        return decs[-1]

    enumerate_classes = engine.enumerate_classes
    monkeypatch.setattr(engine, "enumerate_classes", recorded)
    code, out, _ = run(capsys, argv[0], "--partition", "{132,231}{213,312}", "--n", "7", *argv[1:])
    assert code == 0 and out
    assert len(decs) == 1 and "class_id" not in vars(decs[0])


def test_count_n11_allow_large(capsys):
    code, out, _ = run(capsys, "count", "--partition", oracle.FIGURE2_KEY, "--n", "11",
                       "--allow-large", "--format", "json")
    assert code == 0
    assert json.loads(out)["num_classes"] == oracle.figure2_reference(11)


def test_classes_bfs(capsys):
    code, out, _ = run(
        capsys, "classes", "--partition", "{123,321}{132,231}",
        "--perm", "15324", "--format", "json",
    )
    data = json.loads(out)
    assert code == 0
    assert "12453" in data["members"]


def test_classes_full_dump_csv(capsys):
    code, out, _ = run(
        capsys, "classes", "--partition", "{123,321}{132,231}", "--n", "4",
        "--format", "csv",
    )
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "class_id,size,representative"
    assert lines[1] == "0,4,1234"
    assert len(lines) == 9


def test_classes_without_n_or_perm():
    assert cli.main(["classes", "--partition", "{123,132}"]) == 2


def test_invariant_subcommand(capsys):
    code, out, _ = run(capsys, "invariant", "--name", "w_set", "--perm", "453216")
    assert code == 0
    assert json.loads(out) == {"permutation": "453216", "w_set": [4, 5, 1]}


def test_invariant_canonical(capsys):
    code, out, _ = run(
        capsys, "invariant", "--perm", "15324", "--name", "canonical",
        "--relation-key", "root",
    )
    assert code == 0
    assert json.loads(out)["canonical"].index("5") <= 1


def test_orbit(capsys):
    code, out, _ = run(capsys, "orbit", "--partition", "{123,132,231}")
    assert code == 0
    assert len(out.strip().splitlines()) == 4


def test_table_list_relations(capsys):
    # the 20 formula rows, then the Figure 2 table, in registry order
    code, out, _ = run(capsys, "table", "--list-relations")
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()] == list(oracle.ROWS_BY_KEY)
    assert len(oracle.ROWS_BY_KEY) == 21


def test_verify_accepts_every_listed_key(capsys):
    # a key that table --list-relations prints, Figure 2's among them, is
    # checked up to --n-max like any other; Figure 2's rows come once
    _, listed, _ = run(capsys, "table", "--list-relations")
    for key in (line.split()[0] for line in listed.splitlines()):
        code, out, err = run(capsys, "verify", "--relations", key, "--n-max", "5",
                             "--figure2-n-max", "3")
        *rows, last = out.splitlines()
        assert (code, err, last) == (0, "", "all rows verified"), key
        ns = range(max(3, oracle.validity_floor(key)), 6)
        figure2 = [] if key == oracle.FIGURE2_KEY else [(oracle.FIGURE2_KEY, "n=3")]
        assert [tuple(row.split()[1:3]) for row in rows] == (
            [(key, f"n={n}") for n in ns] + figure2), key


def test_table_figure2(capsys):
    code, out, _ = run(capsys, "table", "--figure", "2", "--n-max", "9", "--format", "csv")
    assert code == 0
    assert '"{132,231}{213,312}",9,2804' in out


def test_theorem_avoider_criterion(capsys):
    code, out, _ = run(
        capsys, "theorem", "avoider-criterion",
        "--partition", "{123,132}{213,231}", "--k", "5", "--check-to", "7",
    )
    data = json.loads(out)
    assert code == 0 and data["holds"] and data["propagation_ok"]


def test_theorem_adjacent_subword(capsys):
    code, out, _ = run(
        capsys, "theorem", "adjacent-subword",
        "--partition", "{123,132,213,231}", "--k", "4", "--check-to", "6",
    )
    data = json.loads(out)
    assert code == 0 and data["equal_at_k"] and data["equal_through"] == 6


def test_theorem_down_jump(capsys):
    code, out, _ = run(
        capsys, "theorem", "down-jump",
        "--partition", "{123,132}{213,231}", "--perm", "15324",
    )
    data = json.loads(out)
    assert code == 0 and data["avoider"] == "12345"


def test_stooge_sets(capsys):
    code, out, _ = run(
        capsys, "stooge", "--partition", "{123,321}{213,231}", "--n", "5",
    )
    data = json.loads(out)
    assert code == 0 and set(data) == {"n", "partition", "L", "R", "I"}


@pytest.mark.parametrize("argv, message", [
    (("stooge", "--partition", "{123,321}{213,231}"), "stooge needs --n"),
    (("theorem", "avoider-criterion", "--partition", "{123,132}{213,231}"),
     "theorem avoider-criterion needs --k"),
    (("theorem", "down-jump", "--partition", "{123,132}{213,231}"),
     "theorem down-jump needs --perm"),
])
def test_missing_argument_exits_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1


def test_verify_ok(capsys):
    code, out, _ = run(
        capsys, "verify", "--relations", "{123,132,231}", "--n-max", "6",
        "--figure2-n-max", "4",
    )
    assert code == 0
    assert "all rows verified" in out


def test_verify_reads_relation_keys_in_any_order(capsys):
    # a key is looked up by its canonical text, and an unregistered key's
    # message is printed as it is, with no repr quotes around it
    code, out, _ = run(capsys, "verify", "--relations", "{312,213}{132,123}", "--n-max", "5",
                       "--figure2-n-max", "2")
    assert code == 0 and out.splitlines() == [
        "OK       {123,132}{213,312}       n=3 expected=4 engine=4",
        "OK       {123,132}{213,312}       n=4 expected=10 engine=10",
        "OK       {123,132}{213,312}       n=5 expected=26 engine=26",
        "all rows verified",
    ]
    code, out, err = run(capsys, "verify", "--relations", "{132,123}", "--n-max", "5")
    assert (code, out, err) == (2, "", "error: unknown relation key '{123,132}'\n")


@pytest.mark.parametrize("bad, err", [
    ("{132,123}", "error: unknown relation key '{123,132}'\n"),
    ("{12,34}", "error: bad pattern token in {12,34}: not a permutation of 1..2: (3, 4)\n"),
])
def test_verify_refuses_a_bad_key_before_any_pass(capsys, monkeypatch, bad, err):
    # an unregistered or malformed key listed after a good one is refused
    # before the good one is closed or printed
    passes = _counted_passes(monkeypatch)
    got = run(capsys, "verify", "--relations", f"{{123,132,231}};{bad}", "--n-max", "4")
    assert (got, passes) == ((2, "", err), [])


def test_long_patterns_refused_with_the_limit(capsys):
    code, out, err = run(capsys, "count", "--partition", "{1234567,2134567}", "--n", "8")
    assert code == 2 and out == ""
    assert err == ("error: pattern length 7 exceeds the limit 6; only the library argument"
                   " allow_large_c=True of make_partition/parse_partition lifts it\n")


def test_verify_n11_allow_large(capsys):
    # two registered formulas past the default bound, one pass each
    keys = ("{123,231}{132,213}", "{132,312}{213,321}")
    code, out, _ = run(capsys, "verify", "--relations", ";".join(keys), "--n-max", "11",
                       "--figure2-n-max", "2", "--allow-large")
    lines = out.splitlines()
    assert code == 0 and lines[-1] == "all rows verified"
    for key in keys:
        want = oracle.expected_count(key, 11)
        assert f"OK       {key:24s} n=11 expected={want} engine={want}" in lines


def _counted_passes(monkeypatch):
    """Wrap kernels_numpy.class_steps: one list per pass, of the k of each
    S_k it closed."""
    passes = []
    class_steps = kn.class_steps

    def counted(n, tab, mode):
        passes.append([])
        for k, step in enumerate(class_steps(n, tab, mode), 1):
            passes[-1].append(k)
            yield step

    monkeypatch.setattr(kn, "class_steps", counted)
    return passes


def test_verify_closes_each_relation_in_one_pass(capsys, monkeypatch):
    # the default report's 93 rows come from one pass per relation, up to
    # n=7, and one for Figure 2, up to n=8
    passes = _counted_passes(monkeypatch)
    code, out, _ = run(capsys, "verify")
    assert code == 0 and sum(line.startswith("OK ") for line in out.splitlines()) == 93
    assert passes == [list(range(1, 8))] * len(oracle.relation_keys()) + [list(range(1, 9))]


@pytest.mark.parametrize("n_max, fig2_n_max", [(4, 4), (5, 4), (3, 5)])
def test_verify_closes_a_listed_figure2_key_once(capsys, monkeypatch, n_max, fig2_n_max):
    # the Figure 2 key listed in --relations (in any spelling) and the
    # Figure 2 pass are one pass, to the larger n, printing each row once
    passes = _counted_passes(monkeypatch)
    code, out, _ = run(capsys, "verify", "--relations", "{132,231}{213,312};{312,213}{231,132}",
                       "--n-max", str(n_max), "--figure2-n-max", str(fig2_n_max))
    top = max(n_max, fig2_n_max)
    assert code == 0 and out.splitlines() == [
        f"OK       {oracle.FIGURE2_KEY:24s} n={n} expected={v} engine={v}"
        for n, v in oracle.sequence_table(oracle.FIGURE2_KEY, top).items()
    ] + ["all rows verified"]
    assert passes == [list(range(1, top + 1))]


@pytest.mark.parametrize("mode", ["factor", "subword"])
def test_classes_perm_under_memory_cap_keeps_the_bfs(capsys, monkeypatch, mode):
    # a closure of S_n refused under PERMCLASS_MEMORY_CAP_MB is not kept:
    # the BFS answers every query, with the output it gives without the cap
    argv = ("classes", "--partition", "{123,321}{132,231}", "--perm", "231546", "--mode", mode)
    free = run(capsys, *argv)
    assert free[0] == 0 and len(free[1].splitlines()) > 1
    engine._class_of_cache.clear()
    monkeypatch.setenv("PERMCLASS_MEMORY_CAP_MB", "0.001")
    with pytest.raises(ResourceLimitError, match="PERMCLASS_MEMORY_CAP_MB"):
        engine.enumerate_classes(6, relation.parse_partition(argv[2]), mode)
    for _ in range(3):
        assert run(capsys, *argv) == free
    assert list(engine._class_of_cache.values()) == [engine._TOO_LARGE]


_BOUND_11 = ("resource error: n=11 exceeds the factor-mode bound 10 (estimated 58 MB needed;"
             " pass allow_large (or --allow-large) to raise the bound)\n")


@pytest.mark.parametrize("cap, argv, code, err, closed", [
    (None, ("verify", "--n-max", "11", "--relations", "{123,132}{213,231}"), 3, _BOUND_11,
     [list(range(1, 11))]),
    ("0.03", ("verify", "--n-max", "7"), 3,
     "resource error: estimated 0 MB exceeds PERMCLASS_MEMORY_CAP_MB\n", [list(range(1, 7))]),
    (None, ("theorem", "avoider-criterion", "--partition", "{132,231}{213,312}", "--k", "5",
            "--check-to", "11"), 0, "", [list(range(1, 6))]),
    (None, ("theorem", "avoider-criterion", "--partition", "{123,132}{213,231}", "--k", "5",
            "--check-to", "11"), 3, _BOUND_11, [list(range(1, 11))]),
])
def test_multi_n_requests_refuse_at_the_first_failing_n(capsys, monkeypatch, cap, argv, code,
                                                        err, closed):
    # a pass checks each n as a request for that n alone would, in order,
    # and closes nothing past the n it refuses or where a criterion fails
    if cap is not None:
        monkeypatch.setenv("PERMCLASS_MEMORY_CAP_MB", cap)
    passes = _counted_passes(monkeypatch)
    got, out, got_err = run(capsys, *argv)
    assert (got, got_err) == (code, err)
    if code == 0:
        report = json.loads(out)
        assert report["holds"] is False and report["per_n"] == {}
    else:
        assert out == ""
    assert passes == closed


def test_verify_detects_corruption(capsys, monkeypatch):
    # corrupt one table constant: verify must fail with a diff line and exit 1
    monkeypatch.setitem(oracle._FIGURE2, 4, 11)
    code, out, _ = run(
        capsys, "verify", "--relations", "{123,132,231}", "--n-max", "3",
        "--figure2-n-max", "4",
    )
    assert code == 1
    assert "MISMATCH" in out and "expected=11 engine=10" in out


def test_exit_code_usage():
    assert cli.main(["count", "--partition", "{123,1x2}", "--n", "4"]) == 2


def test_exit_code_resource():
    assert cli.main(["count", "--partition", "{123,132}", "--n", "11"]) == 3


def test_verify_byte_identical_across_workers(tmp_path):
    outs = []
    for w in (1, 2, 8):
        path = tmp_path / f"verify_{w}.txt"
        code = cli.main([
            "verify", "--n-max", "6", "--figure2-n-max", "6",
            "--workers", str(w), "--output", str(path),
        ])
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize("argv", [
    ("count", "--partition", "{123,132,231}", "--n", "4", "--workers", "0"),
    ("count", "--partition", "{123,132,231}", "--n", "4", "--workers", "-3"),
    ("classes", "--partition", "{123,132,231}", "--perm", "1324", "--workers", "0"),
    ("verify", "--n-max", "3", "--figure2-n-max", "3", "--workers", "0"),
    ("theorem", "adjacent-subword", "--partition", "{123,132}", "--k", "4",
     "--check-to", "2"),
    ("theorem", "avoider-criterion", "--partition", "{123,132}{213,231}", "--k", "5",
     "--check-to", "4"),
    ("table", "--n-max", "-3"),
    ("table", "--figure", "2", "--n-max", "2"),
    ("verify", "--n-max", "2", "--figure2-n-max", "2"),
    ("classes", "--partition", "{1234,4321}", "--perm", "4321", "--max-class-size", "0"),
    ("classes", "--partition", "{123,321}", "--perm", "4321", "--max-class-size", "-1",
     "--mode", "subword"),
    ("verify", "--relations", ""),
    ("verify", "--relations", ";;"),
])
def test_bad_value_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("count", "--partition", "{123,132}{213,231}", "--n", "200"),
    ("theorem", "avoider-criterion", "--partition", "{123,132}{213,231}", "--k", "300"),
])
def test_large_n_exits_3(capsys, argv):
    # far past the bound: refused before n! is formatted as a float
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("resource error: ") and err.count("\n") == 1


@pytest.mark.parametrize("cap", ["inf", "nan"])
def test_non_finite_memory_cap_exits_2(capsys, monkeypatch, cap):
    monkeypatch.setenv("PERMCLASS_MEMORY_CAP_MB", cap)
    code, out, err = run(capsys, "count", "--partition", "{123,132,231}", "--n", "5")
    assert code == 2 and out == ""
    assert err.startswith("error: PERMCLASS_MEMORY_CAP_MB must be a finite positive number")
    assert err.count("\n") == 1


_NO_SCIPY = """
import sys
from permclass import cli

for mode in ("factor", "subword"):
    assert cli.main(["count", "--partition", "{132,231}{213,312}", "--n", "8", "--mode", mode]) == 0
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"), file=sys.stderr)
"""


def test_count_does_not_import_scipy():
    # the engine closes the classes with numpy alone; scipy is only the
    # tests' independent closure, so a count request must not load it
    src = os.path.dirname(os.path.dirname(permclass.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", _NO_SCIPY], env=env,
                         capture_output=True, text=True, check=True)
    assert "num_classes=" in out.stdout
    assert out.stderr == "[]\n"


_NO_NUMPY_MA = """
import sys
from permclass import cli, engine

assert cli.main(["verify", "--n-max", "4"]) == 0
assert cli.main(["classes", "--partition", "{132,231}{213,312}", "--perm", "31426587"]) == 0
(answer,) = engine._class_of_cache.values()
assert isinstance(answer, int), answer  # the rank BFS answered, with no S_8 kept
print("numpy.ma" in sys.modules, file=sys.stderr)
"""


def test_verify_and_a_bfs_query_do_not_import_numpy_ma():
    # np.unique imports numpy.ma on first use, 15 ms that a one-query
    # process would spend on its first BFS level
    src = os.path.dirname(os.path.dirname(permclass.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", _NO_NUMPY_MA], env=env,
                         capture_output=True, text=True, check=True)
    assert "31426587" in out.stdout
    assert out.stderr == "False\n"


_MIXED = [
    ("count", "--partition", "{123,132,231}", "--n", "5"),
    ("classes", "--partition", "{132,231}{213,312}", "--perm", "13254"),
    ("count", "--partition", "{123,1x2}", "--n", "4"),
    ("count", "--partition", "{123,132}", "--n", "11"),
    ("count", "--partition", "{123,132}", "--n", "x"),
    ("orbit", "--partition", "{123,132}{213,231}", "--format", "json"),
    ("count", "--partition", "{123,132,231}", "--n", "4", "--mode", "subword",
     "--format", "csv", "--with-identity"),
    ("count", "--partition", "{123,132,231}", "--n", "5"),
]

_ONE_PROCESS = """
import contextlib, io, json, sys
from permclass import cli

results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
    results.append([code, out.getvalue()])
print(json.dumps(results))
"""


def test_requests_in_one_process_match_separate_calls():
    # one cached parser serves every request of a process: mixed
    # subcommands, errors among them, print and exit as they do alone
    assert cli.build_parser() is cli.build_parser()
    src = os.path.dirname(os.path.dirname(permclass.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    together = subprocess.run([sys.executable, "-c", _ONE_PROCESS, json.dumps(_MIXED)],
                              env=env, capture_output=True, text=True, check=True)
    alone = [subprocess.run([sys.executable, "-m", "permclass.cli", *argv], env=env,
                            capture_output=True, text=True) for argv in _MIXED]
    assert json.loads(together.stdout) == [[r.returncode, r.stdout] for r in alone]
    assert [r.returncode for r in alone] == [0, 0, 2, 3, 2, 0, 0, 0]


@st.composite
def _parts_text(draw):
    """Brace groups of distinct patterns of one length, then perhaps one
    character overwritten."""
    c = draw(st.integers(1, 4))
    pats = draw(st.lists(st.permutations(range(1, c + 1)), max_size=6, unique_by=tuple))
    groups = {}
    for p in pats:
        groups.setdefault(draw(st.integers(0, 2)), []).append("".join(map(str, p)))
    text = "".join("{" + ",".join(g) + "}" for g in groups.values())
    if text and draw(st.booleans()):
        i = draw(st.integers(0, len(text) - 1))
        text = text[:i] + draw(st.sampled_from("{},0156x ")) + text[i + 1 :]
    return text


_PARTITION_TEXT = st.one_of(_parts_text(), st.text("{}123456789,x -", max_size=16))


def _perm_text(top):
    return st.integers(1, top).flatmap(lambda n: st.permutations(range(1, n + 1))).map(
        lambda p: ("," if len(p) > 9 else "").join(map(str, p)))


_PERM_TEXT = st.one_of(_perm_text(6), st.text("0123456789, ", max_size=8))
# (--max-class-size, --perm): no cap for up to 6 letters, else a small cap,
# 0 and negative values among them, for up to 20
_QUERY = st.one_of(st.tuples(st.none(), _PERM_TEXT),
                   st.tuples(st.integers(-2, 64), st.one_of(_perm_text(20), _PERM_TEXT)))


_KEYS = st.sampled_from(tuple(oracle.ROWS_BY_KEY))


@st.composite
def _fuzz_argv(draw):
    """count and classes over partition and permutation text; invariant
    (plain, with --partition, or --name canonical), stooge --normalize and
    theorem down-jump over permutations of up to 6 letters, and over the
    registered relations as well, so that more of them get past parsing;
    verify over lists of them up to n=6, the avoider-criterion and
    adjacent-subword theorems and stooge --n up to n=7, orbit over both,
    and table over its figures, formats and --n-max, valid or not."""
    cmd = draw(st.sampled_from(["count", "classes", "invariant", "stooge", "theorem",
                                "verify", "table", "orbit"]))
    if cmd == "table":
        argv = ["table", "--figure", draw(st.sampled_from(["1", "2", "3", "x"])),
                "--n-max", str(draw(st.integers(-2, 40))),
                "--format", draw(st.sampled_from(["csv", "json", "text"]))]
        return argv + (["--list-relations"] if draw(st.booleans()) else [])
    if cmd == "verify":
        relations = draw(st.one_of(st.just("all"),
                                   st.lists(st.one_of(_KEYS, _PARTITION_TEXT), max_size=3)
                                   .map(";".join)))
        return ["verify", "--relations", relations, "--n-max", str(draw(st.integers(-1, 6))),
                "--figure2-n-max", str(draw(st.integers(-1, 6)))]
    if cmd in ("count", "classes"):
        partition = draw(_PARTITION_TEXT)
    else:
        partition = draw(st.one_of(_PARTITION_TEXT, _KEYS))
    if cmd == "invariant":
        argv = ["invariant", "--perm", draw(_PERM_TEXT)]
        kind = draw(st.sampled_from(["plain", "partition", "canonical"]))
        if kind == "partition":
            argv += ["--partition", partition]
        elif kind == "canonical":
            key = draw(st.sampled_from(["bushy", "root", "v_perm", "compact"]))
            argv += ["--name", "canonical", "--relation-key", key]
        return argv
    if cmd == "orbit":
        return ["orbit", "--partition", partition,
                "--format", draw(st.sampled_from(["text", "json", "csv"]))]
    if cmd == "stooge":
        if draw(st.booleans()):
            return ["stooge", "--partition", partition, "--n", str(draw(st.integers(-1, 7)))]
        return ["stooge", "--partition", partition, "--normalize", draw(_PERM_TEXT)]
    if cmd == "theorem":
        theorem = draw(st.sampled_from(["down-jump", "avoider-criterion", "adjacent-subword"]))
        if theorem != "down-jump":
            argv = ["theorem", theorem, "--partition", partition,
                    "--k", str(draw(st.integers(-1, 7)))]
            if draw(st.booleans()):
                argv += ["--check-to", str(draw(st.integers(-1, 7)))]
            return argv
        strategy = draw(st.sampled_from(["leftmost", "rightmost"]))
        return ["theorem", "down-jump", "--partition", partition, "--perm", draw(_PERM_TEXT),
                "--strategy", strategy]
    argv = [cmd, "--partition", partition, "--mode", draw(st.sampled_from(["factor", "subword"]))]
    if cmd == "classes" and draw(st.booleans()):
        cap, perm = draw(_QUERY)
        argv += ["--perm", perm]
        if cap is not None:
            argv += ["--max-class-size", str(cap)]
    else:
        argv += ["--n", str(draw(st.integers(-1, 6)))]
    return argv


@settings(max_examples=500, deadline=None)
@given(argv=_fuzz_argv())
def test_cli_fuzz_exits_cleanly(argv):
    # any such request ends with exit 0, 2 or 3, never with a traceback
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv

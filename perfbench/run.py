"""The permclass benchmark: seeded CLI workloads, timed end to end and traced
layer by layer.

    python3 perfbench/run.py --workload factor-n10 --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --record perfbench/results/latest.json

Each run is a closed loop with a single client: it starts one fresh child
process at a time (perfbench/child.py), which makes the workload's
``permclass.cli.main(argv)`` requests and checks their outputs, until the
next child would end after ``--seconds``.  With ``--trace 0`` the last line
of stdout holds the end-to-end metrics, whose times are calibrated to
nominal host speed (hostspeed.py); with ``--trace 1`` children
alternate traced and untraced, and the last line holds the per-layer
metrics of the traced child with the median wall time.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from tracer import HOOKS, hook_name  # noqa: E402

RUN_DEADLINE_S = 170.0  # a run, children included, must end within 180 s
SETUP_PROBES = 2  # set-up-only children after each measured child of an untraced run
LAYERS = ("cli", "engine", "engine.tables", "engine.kernels_numpy", "relation",
          "perms", "meta", "oracle")

END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "ranks_per_s": "1/s",
    "query_p50_ms": "ms", "query_p90_ms": "ms",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for module, attr, _, counters in HOOKS:
        name = hook_name(module, attr)
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
        for counter in counters:
            units[f"{name}.{counter}"] = "B" if counter == "bytes_computed" else "count"
    for layer in LAYERS:
        units[f"layer.{layer}.self_s"] = "s"
    units.update({
        "engine.edge_yield": "ratio",
        "engine.class_of.yield": "ratio",
        "engine.estimate_ratio": "ratio",
        "traced_wall_s": "s",
        "untraced_wall_s": "s",
        "trace_overhead_s": "s",
        "unattributed_s": "s",
    })
    return units


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (q in [0, 1])."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def environment() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
    }


def run_child(workload, seed, index, scale, traced, timeout, setup_only=False) -> dict:
    """Start one child, wait for it and return its result (or its failure)."""
    t_spawn = time.monotonic()
    spec = {"root": str(ROOT), "workload": workload, "seed": seed, "index": index,
            "scale": scale, "trace": traced, "setup_only": setup_only, "t_spawn": t_spawn}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
        return {"traced": traced, "crash": f"timed out after {timeout:.0f} s",
                "elapsed_s": time.monotonic() - t_spawn}
    elapsed = time.monotonic() - t_spawn
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        return {"traced": traced, "crash": f"exit {proc.returncode}: {tail}",
                "elapsed_s": elapsed}
    result = json.loads(lines[-1])
    result.update(traced=traced, elapsed_s=elapsed)
    return result


def run_children(workload, seed, seconds, trace, scale) -> tuple[list[dict], list[dict]]:
    """Closed loop: one child at a time until the next would overrun.

    An untraced run follows each child with SETUP_PROBES children that only
    set up, so that ``setup_s`` is a median over several set-ups per child,
    and reads the host factor of a process start (hostspeed.start_factor)
    before the child and before its probes; each set-up is divided by the
    reading before it.  Returns the children and the set-up probes.
    """
    start = time.monotonic()
    deadline = start + seconds
    children, probes = [], []
    longest = 0.0
    while True:
        index = len(children)
        t_round = time.monotonic()
        timeout = max(1.0, start + RUN_DEADLINE_S - t_round)
        start_host = None if trace else hostspeed.start_factor(ROOT)
        child = run_child(workload, seed, index, scale, trace and index % 2 == 0, timeout)
        child["start_host"] = start_host
        children.append(child)
        if "crash" in child and "timed out" in child["crash"]:
            break
        start_host = None if trace else hostspeed.start_factor(ROOT)
        for _ in range(0 if trace else SETUP_PROBES):
            timeout = max(1.0, start + RUN_DEADLINE_S - time.monotonic())
            probe = run_child(workload, seed, index, scale, False, timeout, setup_only=True)
            probe["start_host"] = start_host
            probes.append(probe)
        longest = max(longest, time.monotonic() - t_round)
        if len(children) >= (2 if trace else 1) and time.monotonic() + longest > deadline:
            break
        if time.monotonic() + longest > start + RUN_DEADLINE_S:
            break
    return children, probes


def end_to_end(children, probes, workload) -> tuple[dict, dict]:
    """Times at nominal host speed: each raw time over its host factor (hostspeed.py)."""
    kind = "query" if workload == "session" else "count"
    walls = [sum(op["s"] / op["host"] for op in c["ops"]) for c in children]
    lat = [op["s"] / op["host"] * 1e3 for c in children for op in c["ops"] if op["kind"] == kind]
    setups = [c["setup_s"] / c["start_host"] for c in children + probes]
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(c["peak_rss_kib"] for c in children) / 1024,
        "ranks_per_s": statistics.median(c["ranks"] / w for c, w in zip(children, walls)),
        "query_p50_ms": percentile(lat, 0.5),
        "query_p90_ms": percentile(lat, 0.9),
    }
    samples = {name: len(children) for name in values}
    samples["setup_s"] = len(setups)
    samples["query_p50_ms"] = samples["query_p90_ms"] = len(lat)
    return values, samples


def raw_figures(children, probes, workload) -> dict:
    """The uncalibrated times, and the host factors they were divided by."""
    kind = "query" if workload == "session" else "count"
    lat = [op["s"] * 1e3 for c in children for op in c["ops"] if op["kind"] == kind]
    return {
        "wall_s": statistics.median(c["wall_s"] for c in children),
        "setup_s": statistics.median(c["setup_s"] for c in children + probes),
        "query_p50_ms": percentile(lat, 0.5),
        "query_p90_ms": percentile(lat, 0.9),
        "host_factor_median": statistics.median(op["host"] for c in children for op in c["ops"]),
        "host_factor_min": min(op["host"] for c in children for op in c["ops"]),
        "host_factor_max": max(op["host"] for c in children for op in c["ops"]),
        "start_factor_median": statistics.median(c["start_host"] for c in children + probes),
    }


def per_layer(traced, untraced) -> dict:
    """Per-layer metrics of the traced child with the median wall time."""
    child = sorted(traced, key=lambda c: c["wall_s"])[(len(traced) - 1) // 2]
    hooks = child["trace"]["hooks"]
    values = {}
    for name, h in hooks.items():
        for key, value in h.items():
            values[f"{name}.{key}"] = value
    for layer in LAYERS:
        values[f"layer.{layer}.self_s"] = child["trace"]["layers"].get(layer, 0.0)
    enum = hooks["engine.enumerate_classes"]
    edges = (hooks["engine.kernels_numpy.factor_edges"]["edges"]
             + hooks["engine.kernels_numpy.subword_edges"]["edges"])
    values["engine.edge_yield"] = (enum["ranks"] - enum["classes"]) / edges if edges else 0.0
    bfs = hooks["engine.class_of"]
    moves = hooks["relation.neighbors"]["transformations"]
    values["engine.class_of.yield"] = (bfs["states"] - bfs["calls"]) / moves if moves else 0.0
    est = child["estimate_bytes"]
    values["engine.estimate_ratio"] = child["peak_rss_kib"] * 1024 / est if est else 0.0
    values["traced_wall_s"] = child["wall_s"]
    values["untraced_wall_s"] = statistics.median(c["wall_s"] for c in untraced)
    values["trace_overhead_s"] = (statistics.median(c["wall_s"] for c in traced)
                                  - values["untraced_wall_s"])
    values["unattributed_s"] = child["wall_s"] - sum(child["trace"]["layers"].values())
    return values


def run_workload(workload, seed, seconds, trace, scale="full") -> dict:
    children, probes = run_children(workload, seed, seconds, trace, scale)
    ok = [c for c in children if "crash" not in c]
    crashed = len(children) - len(ok)
    per_child = workloads.op_count(workload, scale)
    failures = [f"child: {c['crash']}" for c in children if "crash" in c]
    failures += [f"set-up probe: {p['crash']}" for p in probes if "crash" in p]
    failures += [f"{op['kind']}: {op['error']}" for c in ok for op in c["ops"] if op["error"]]
    probes_crashed = sum(1 for p in probes if "crash" in p)  # each counts as one failed request
    attempted = crashed * per_child + sum(len(c["ops"]) for c in ok) + probes_crashed
    failed = (crashed * per_child + sum(1 for c in ok for op in c["ops"] if op["error"])
              + probes_crashed)
    traced = [c for c in ok if c["traced"]]
    untraced = [c for c in ok if not c["traced"]]
    if not untraced or (trace and not traced):
        raise RuntimeError("no child finished: " + "; ".join(failures[:3]))
    if trace:
        units = per_layer_units()
        values, samples = per_layer(traced, untraced), {"traced_children": len(traced)}
    else:
        units = END_TO_END_UNITS
        values, samples = end_to_end(untraced, [p for p in probes if "crash" not in p],
                                     workload)
    op_times = {}
    for c in untraced:
        for op in c["ops"]:
            op_times.setdefault(op["kind"], []).append(op["s"])
    details = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "scale": scale, "children": len(children), "samples": samples,
        "error_rate": failed / attempted if attempted else 1.0,
        "failures": failures[:10],
        "raw": None if trace else raw_figures(untraced, [p for p in probes if "crash" not in p],
                                               workload),
        "op_median_s": {k: statistics.median(v) for k, v in op_times.items()},
        "op_count": {k: len(v) for k, v in op_times.items()},
        "env": {**ok[0]["env"], **environment(),
                "ram_check_skipped": workload == "subword-n9" and scale == "full"
                and not ok[0]["env"]["psutil_importable"]},
        "absent_hooks": traced[0]["trace"]["absent"] if traced else [],
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return {"result": result, "details": details, "children": children, "probes": probes}


def _print_metrics(run: dict) -> None:
    d = run["details"]
    print(f"# {d['workload']} seed={d['seed']} trace={d['trace']} children={d['children']} "
          f"error_rate={d['error_rate']:.4f} backend={d['env']['backend']}")
    for name, m in run["result"]["metrics"].items():
        n = d["samples"].get(name, d["samples"].get("traced_children"))
        print(f"{name:48s} {m['value']:14.6g} {m['unit']:6s} (n={n})")
    if d["env"]["ram_check_skipped"]:
        print("# --allow-large: the engine skipped its available-RAM check (psutil missing)")
    for failure in d["failures"]:
        print(f"FAILED {failure}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=tuple(workloads.SCALES), default="full",
                    help="'smoke' runs every code path and check at tiny n")
    ap.add_argument("--record", default=None,
                    help="also write every run's details and child results to this file")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "permclass" / "__init__.py").is_file():
        print(f"error: no permclass sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    plan = ([(w, t) for w in workloads.WORKLOADS for t in (0, 1)]
            if args.workload == "all" else [(args.workload, args.trace)])
    try:
        runs = [run_workload(w, args.seed, args.seconds, t, args.scale) for w, t in plan]
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for run in runs:
        _print_metrics(run)
        print(json.dumps({"details": run["details"]}))
    if args.record:
        Path(args.record).parent.mkdir(parents=True, exist_ok=True)
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(runs, fh, indent=1)
    if args.workload != "all":
        print(json.dumps(runs[0]["result"]))
        return 0
    return 0 if all(run["result"]["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())

"""One fresh process of a benchmark run: set up, make the workload's CLI
requests back to back, each after a reading of the host's speed
(hostspeed.py) on calibrated workloads, then check every output.

Usage (from run.py): ``python3 perfbench/child.py '<json spec>'``.  The spec
names the checkout root, workload, seed, child index, scale, whether to
trace, whether to stop after set-up, and the CLOCK_MONOTONIC time at which
the parent spawned this process, so set-up time counts interpreter start and
imports.  The result is
one JSON object on the last line of stdout; CLI output is captured.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import resource
import sys
import time
from pathlib import Path


def _environment() -> dict:
    import numpy
    from permclass import engine

    return {
        "backend": engine.active_backend(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "psutil_importable": importlib.util.find_spec("psutil") is not None,
        "numpy": numpy.__version__,
    }


def _estimate_bytes(ops) -> int | None:
    """The engine's own memory estimate for the largest enumeration."""
    from permclass import engine

    sized = [op for op in ops if op.ranks]
    if not sized:
        return None
    big = max(sized, key=lambda op: (op.n, op.mode == "subword"))
    try:
        return int(engine.estimate_bytes(big.n, big.mode))
    except (AttributeError, TypeError):
        return None


def main(spec: dict) -> dict:
    root = Path(spec["root"])
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import hostspeed
    import workloads
    from permclass import cli

    ops = workloads.ops_for(spec["workload"], spec["seed"], spec["index"], spec["scale"])
    tracer = None
    if spec["trace"]:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()

    setup_s = time.monotonic() - spec["t_spawn"]
    if spec.get("setup_only"):  # a set-up sample: stop where the requests would start
        return {"setup_s": setup_s}
    # The host factor before each request and after the last (hostspeed.py).
    speed = hostspeed.HostSpeed(spec["workload"] in workloads.CALIBRATED)
    hosts = [speed.measure()]

    results = []
    for op in ops:
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(list(op.argv))
            error = None
        except SystemExit as e:  # argparse rejected the request
            rc, error = (e.code if isinstance(e.code, int) else 2), f"SystemExit({e.code})"
        except Exception as e:  # a request must not end the session
            rc, error = 1, f"{type(e).__name__}: {e}"
        results.append((op, rc, buf.getvalue(), time.perf_counter() - t0, error))
        hosts.append(speed.measure())
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    trace = None
    if tracer is not None:
        tracer.uninstall()
        trace = tracer.report()

    import checks  # only now, so that it adds nothing to set-up or peak RSS

    digests = checks.load_digests()
    queries = checks.QueryOracle()
    out_ops = []
    for i, (op, rc, stdout, dur, error) in enumerate(results):
        if error is None:
            try:
                error = checks.check(op, rc, stdout, digests, queries)
            except (ValueError, KeyError, IndexError, TypeError, StopIteration) as e:
                error = f"output could not be parsed: {type(e).__name__}: {e}"
        out_ops.append({"kind": op.kind, "s": dur, "host": (hosts[i] + hosts[i + 1]) / 2,
                        "error": error})
    return {
        "setup_s": setup_s,
        "wall_s": sum(dur for _, _, _, dur, _ in results),
        "peak_rss_kib": peak_rss_kib,
        "ranks": sum(op.ranks for op in ops),
        "estimate_bytes": _estimate_bytes(ops),
        "ops": out_ops,
        "env": _environment(),
        "trace": trace,
    }


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))

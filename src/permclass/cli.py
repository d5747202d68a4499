"""The ``permclass`` command-line front end.

Subcommands: count, classes, invariant, table, verify, orbit, stooge,
theorem.  Exit codes: 0 success, 1 verification mismatch, 2 usage/parse
error, 3 resource refusal.  Output is deterministic for a fixed
configuration (independent of --workers), and PERMCLASS_MEMORY_CAP_MB is
respected by the enumeration engine.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

from . import engine, invariants, meta, oracle, perms, relation
from .errors import PermclassError, ResourceLimitError

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json(data) -> str:
    return json.dumps(data, indent=2) + "\n"


def _csv(rows, header) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


_WORKERS_HELP = "worker count, >= 1 (no effect yet: the closure runs serially)"


def _add_common(sub, partition_required=True, with_n=True):
    sub.add_argument("--partition", required=partition_required,
                     help="replacement partition, e.g. '{123,321}{132,231}'")
    if with_n:
        sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--mode", choices=["factor", "subword"], default="factor")
    sub.add_argument("--workers", type=int, default=None, help=_WORKERS_HELP)
    sub.add_argument("--allow-large", action="store_true",
                     help="raise the n bound after a memory check")
    sub.add_argument("--format", choices=["text", "json", "csv"], default="text")
    sub.add_argument("--output", default=None, help="write to a file instead of stdout")


def _cmd_count(args) -> int:
    K = relation.parse_partition(args.partition)
    dec = engine.enumerate_classes(
        args.n, K, mode=args.mode, workers=args.workers, allow_large=args.allow_large
    )
    if args.format == "json":
        _emit(_json(dec.to_json_dict()), args.output)
    elif args.format == "csv":
        ident = ""
        if args.with_identity:
            ident = dec.class_sizes[dec.class_of_perm(perms.identity(args.n))]
        _emit(
            _csv(
                [[K.text(), args.n, args.mode, dec.num_classes, dec.num_trivial, ident]],
                ["relation", "n", "mode", "classes", "trivial", "identity_class_size"],
            ),
            args.output,
        )
    else:
        summary = ", ".join(f"{v}x{k}" for k, v in dec.size_counts())
        _emit(
            f"partition {K.text()} n={args.n} mode={args.mode}\n"
            f"num_classes={dec.num_classes} num_trivial={dec.num_trivial}\n"
            f"class sizes: {summary}\n",
            args.output,
        )
    return EXIT_OK


def _cmd_classes(args) -> int:
    K = relation.parse_partition(args.partition)
    if args.perm:
        p = perms.parse_perm(args.perm)
        ranks = engine.class_of(p, K, mode=args.mode, max_size=args.max_class_size)
        text = engine.format_ranks(ranks, len(p))
        if args.format == "json":
            data = {
                "partition": K.text(),
                "mode": args.mode,
                "perm": perms.format_perm(p),
                "class_size": len(ranks),
                "members": text.splitlines(),
            }
            _emit(_json(data), args.output)
        else:
            _emit(text, args.output)
        return EXIT_OK
    if args.n is None:
        raise PermclassError("classes needs --n (full dump) or --perm (one class)")
    dec = engine.enumerate_classes(
        args.n, K, mode=args.mode, workers=args.workers, allow_large=args.allow_large
    )
    if args.format == "csv":
        _emit(
            _csv(dec.to_csv_rows(), ["class_id", "size", "representative"]),
            args.output,
        )
    else:
        _emit(_json(dec.to_json_dict()), args.output)
    return EXIT_OK


def _cmd_invariant(args) -> int:
    p = perms.parse_perm(args.perm)
    K = relation.parse_partition(args.partition) if args.partition else None
    report = invariants.full_report(p, K)
    data = report.to_json_dict()
    if args.name:
        if args.name == "canonical":
            if not args.relation_key:
                raise PermclassError("--name canonical needs --relation-key")
            value = perms.format_perm(invariants.canonical_form(p, args.relation_key))
        elif args.name in data:
            value = data[args.name]
        else:
            raise PermclassError(
                f"unknown invariant {args.name!r}; known: {sorted(data)} or 'canonical'"
            )
        data = {"permutation": perms.format_perm(p), args.name: value}
    _emit(_json(data), args.output)
    return EXIT_OK


def _cmd_table(args) -> int:
    if args.list_relations:
        lines = [
            f"{row.key:24s} valid n>={row.floor}  {row.formula_text}" if row.last is None
            else f"{row.key:24s} table {row.floor}<=n<={row.last}  {row.formula_text}"
            for row in oracle.ROWS_BY_KEY.values()
        ]
        _emit("\n".join(lines) + "\n", args.output)
        return EXIT_OK
    keys = oracle.relation_keys() if args.figure == 1 else (oracle.FIGURE2_KEY,)
    rows = [(key, n, v) for key in keys for n, v in oracle.sequence_table(key, args.n_max).items()]
    if not rows:
        raise PermclassError(f"table --n-max {args.n_max} gives no rows for figure {args.figure}")
    if args.format == "json":
        _emit(_json([{"relation": k, "n": n, "classes": v} for k, n, v in rows]), args.output)
    else:
        _emit(_csv(rows, ["relation", "n", "classes"]), args.output)
    return EXIT_OK


def _verify_rows(args):
    """(key, n, expected, got) for each row verify checks: each listed
    relation up to --n-max, then the Figure 2 reference up to
    --figure2-n-max.  A relation listed more than once (in any spelling),
    the Figure 2 key among them, is closed in one pass, at its first
    place, up to the largest n asked of it."""
    keys = oracle.relation_keys() if args.relations == "all" else tuple(
        k for k in args.relations.split(";") if k
    )
    if not keys:
        raise PermclassError(f"verify --relations {args.relations!r} names no relation")
    rows = {}  # key: [partition, first n, last n]
    for key, top in [(k, args.n_max) for k in keys] + [(oracle.FIGURE2_KEY, args.figure2_n_max)]:
        K = relation.parse_partition(key)
        row = rows.setdefault(K.text(), [K, max(3, oracle.validity_floor(K.text())), top])
        row[2] = max(row[2], top)
    for key, (K, first, top) in rows.items():
        yield from _verify_pass(key, K, range(first, top + 1), args.allow_large)


def _verify_pass(key, K, ns, allow_large):
    """The rows of one relation from one pass of the closure up to its
    last n; each row's expected count is read before its n is closed."""
    decs = engine.decompositions(ns, K, allow_large=allow_large)
    for n in ns:
        want = oracle.expected_count(key, n)
        yield key, n, want, next(decs).num_classes


def _cmd_verify(args) -> int:
    lines = []
    results = []
    ok = True
    for key, n, expected, got in _verify_rows(args):
        good = expected == got
        ok &= good
        results.append(
            {"relation": key, "n": n, "expected": expected, "engine": got, "ok": good}
        )
        lines.append(
            f"{'OK      ' if good else 'MISMATCH'} {key:24s} n={n} "
            f"expected={expected} engine={got}"
        )
    if not results:
        raise PermclassError(
            f"verify --n-max {args.n_max} --figure2-n-max {args.figure2_n_max} checks no rows"
        )
    lines.append("all rows verified" if ok else "verification FAILED")
    if args.format == "json":
        _emit(_json({"ok": ok, "results": results}), args.output)
    else:
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK if ok else EXIT_MISMATCH


def _cmd_orbit(args) -> int:
    K = relation.parse_partition(args.partition)
    orbit = relation.symmetry_orbit(K)
    if args.format == "json":
        _emit(_json([P.text() for P in orbit]), args.output)
    else:
        _emit("\n".join(P.text() for P in orbit) + "\n", args.output)
    return EXIT_OK


def _cmd_stooge(args) -> int:
    K = relation.parse_partition(args.partition)
    if args.normalize:
        p = perms.parse_perm(args.normalize)
        out = meta.stooge_normalize(p, K)
        _emit(_json({
            "partition": K.text(),
            "input": perms.format_perm(p),
            "normalized": perms.format_perm(out),
        }), args.output)
        return EXIT_OK
    if args.n is None:
        raise PermclassError("stooge needs --n (L/R/I sets) or --normalize (one permutation)")
    sets = meta.stooge_sets(args.n, K)
    _emit(_json(sets.to_json_dict()), args.output)
    return EXIT_OK


def _cmd_theorem(args) -> int:
    K = relation.parse_partition(args.partition)
    if args.theorem == "down-jump" and args.perm is None:
        raise PermclassError("theorem down-jump needs --perm")
    if args.theorem != "down-jump" and args.k is None:
        raise PermclassError(f"theorem {args.theorem} needs --k")
    if args.theorem == "avoider-criterion":
        rep = meta.avoider_criterion(K, args.k, check_to=args.check_to)
        _emit(_json(rep.to_json_dict()), args.output)
    elif args.theorem == "adjacent-subword":
        rep = meta.adjacent_equals_subword(K, args.k, check_to=args.check_to)
        _emit(_json(rep.to_json_dict()), args.output)
    else:  # down-jump
        p = perms.parse_perm(args.perm)
        out = meta.repeated_down_jump(p, K, strategy=args.strategy)
        _emit(_json({
            "partition": K.text(),
            "input": perms.format_perm(p),
            "avoider": perms.format_perm(out),
            "strategy": args.strategy,
        }), args.output)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and reused by every
    request: parsing leaves it unchanged, and each parse returns a fresh
    namespace."""
    ap = argparse.ArgumentParser(
        prog="permclass",
        description="Pattern-replacement equivalence classes on permutations",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="enumerate classes of S_n")
    _add_common(p)
    p.add_argument("--with-identity", action="store_true",
                   help="include the identity-class size in CSV output")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("classes", help="dump representatives or the members of one class")
    _add_common(p, with_n=False)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--perm", default=None,
                   help="dump the class of this permutation, one member a line")
    p.add_argument("--max-class-size", type=int, default=None)
    p.set_defaults(func=_cmd_classes)

    p = sub.add_parser("invariant", help="invariant report for a permutation")
    p.add_argument("--perm", required=True)
    p.add_argument("--name", default=None, help="single invariant to report")
    p.add_argument("--partition", default=None,
                   help="include hit-position predicates for this partition")
    p.add_argument("--relation-key", default=None,
                   choices=["bushy", "root", "v_perm", "compact"],
                   help="canonical form family (with --name canonical)")
    p.add_argument("--format", choices=["json"], default="json")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_invariant)

    p = sub.add_parser("table", help="emit the reference count tables")
    p.add_argument("--figure", type=int, choices=[1, 2], default=1)
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--list-relations", action="store_true")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("verify", help="engine counts vs formulas; exit 1 on mismatch")
    p.add_argument("--relations", default="all",
                   help="'all' or semicolon-separated partition texts")
    p.add_argument("--n-max", type=int, default=7)
    p.add_argument("--figure2-n-max", type=int, default=8)
    p.add_argument("--workers", type=int, default=None, help=_WORKERS_HELP)
    p.add_argument("--allow-large", action="store_true",
                   help="raise the n bound after a memory check")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("orbit", help="reverse/complement symmetry orbit")
    p.add_argument("--partition", required=True)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("stooge", help="L/R/I sets or stooge normalization")
    p.add_argument("--partition", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--normalize", default=None, help="permutation to normalize")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_stooge)

    p = sub.add_parser("theorem", help="criterion / equality / down-jump reports")
    p.add_argument("theorem",
                   choices=["avoider-criterion", "adjacent-subword", "down-jump"])
    p.add_argument("--partition", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--check-to", type=int, default=None)
    p.add_argument("--perm", default=None)
    p.add_argument("--strategy", choices=["leftmost", "rightmost"], default="leftmost")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_theorem)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if getattr(args, "workers", None) is not None and args.workers < 1:
            raise PermclassError(f"--workers must be >= 1, got {args.workers}")
        return args.func(args)
    except ResourceLimitError as e:
        print(f"resource error: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except (PermclassError, ValueError, KeyError) as e:
        # str() of a KeyError is the repr of its message
        msg = e.args[0] if isinstance(e, KeyError) and e.args else e
        print(f"error: {msg}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

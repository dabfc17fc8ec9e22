"""Command-line front end.

Exit codes: 0 = all checks clean, 2 = at least one violation, 1 = usage or
capability error.  JSON output is the machine contract; the text format is
a human summary of the same report.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .errors import (
    CapabilityError,
    IsogenyLabError,
    NotSemisimpleError,
    TheoremViolationError,
)
from .galois_modules import (
    GaloisModule,
    PointedConfiguration,
    Subspace,
    fixed_subspace,
    graph_order,
    is_semisimple,
    theorem2_construct,
)
from .graphs import DEFAULT_CURVE_LIMIT
from .reports import VerificationReport
from . import verify as V


def _default_threads() -> int:
    env = os.environ.get("ISOGENY_LAB_THREADS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="isogeny-lab",
        description="pointed rational l-isogeny graphs and mod-l Galois module checks",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, report=True):
        if report:  # module and replay print a JSON payload, not a report
            sp.add_argument("--format", choices=["json", "text"], default="json")
        sp.add_argument("--output", help="write the report to this path instead of stdout")

    t1 = sub.add_parser("theorem1", help="order-two graphs force full rational torsion")
    t1.add_argument("--q", type=int, required=True)
    t1.add_argument("--ell", type=int, required=True)
    t1.add_argument("--max-curves", type=int, default=DEFAULT_CURVE_LIMIT)
    t1.add_argument("--no-family", action="store_true")
    add_common(t1)

    t2 = sub.add_parser("theorem2", help="constructive check on products of elliptic arms")
    t2.add_argument("--q", type=int, required=True)
    t2.add_argument("--ell", type=int, required=True)
    t2.add_argument("--max-pairs", type=int, default=6)
    t2.add_argument("--k-cap", type=int, default=6,
                    help="skip factor curves whose torsion splitting degree exceeds this")
    add_common(t2)

    ce = sub.add_parser("counterexample", help="reproduce the rational counterexample")
    grp = ce.add_mutually_exclusive_group()
    grp.add_argument("--paper", action="store_true",
                     help="the exact-rational reproduction at (v, w) = (2, 1) (default)")
    grp.add_argument("--abstract", action="store_true",
                     help="the abstract module-level necessity witness")
    add_common(ce)

    lm = sub.add_parser("lemmas", help="distinct dual kernels and exact lattice dimensions")
    lm.add_argument("--q", type=int, required=True)
    lm.add_argument("--ell", type=int, required=True)
    lm.add_argument("--max-curves", type=int, default=DEFAULT_CURVE_LIMIT)
    add_common(lm)

    md = sub.add_parser("module", help="evaluate a Galois-module query from JSON")
    md.add_argument("--input", required=True)
    md.add_argument("--op", choices=["fixed", "semisimple", "order", "construct"],
                    required=True)
    add_common(md, report=False)

    sw = sub.add_parser("sweep", help="theorem-1 + lemma sweeps over prime ranges")
    sw.add_argument("--ell-list", default="2,3,5,7")
    sw.add_argument("--q-max", type=int, default=200)
    sw.add_argument("--q-min", type=int, default=5)
    sw.add_argument("--threads", type=int, default=None)
    sw.add_argument("--max-curves", type=int, default=DEFAULT_CURVE_LIMIT)
    add_common(sw)

    rp = sub.add_parser("replay", help="re-execute a serialized violation witness")
    rp.add_argument("witness_file")
    add_common(rp, report=False)

    su = sub.add_parser("suites", help="random property suites on the Galois-module layer")
    su.add_argument("--trials", type=int, default=1000)
    su.add_argument("--seed", type=int, default=0, help="fixes every randomized trial")
    return p


def _write(payload: str, args) -> None:
    """The payload, newline-terminated, to --output when given, else stdout."""
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)


def _emit(report: VerificationReport, args) -> int:
    _write(report.to_json(indent=2) if args.format == "json" else report.text_summary(), args)
    return 0 if report.clean else 2


def _module_command(args) -> int:
    with open(args.input) as fh:
        data = json.load(fh)
    module = GaloisModule.from_json(data)
    hyps = [
        Subspace.from_vectors(module.ell, module.dim, rows)
        for rows in data.get("hyperplanes", [])
    ]
    out = {"ell": module.ell, "dim": module.dim, "op": args.op}
    if args.op == "fixed":
        out["fixed_subspace"] = fixed_subspace(module).to_json()
    elif args.op == "semisimple":
        out["semisimple"] = is_semisimple(module)
    elif args.op == "order":
        out["order"] = graph_order(hyps)
    else:
        cfg = PointedConfiguration(module=module, hyperplanes=tuple(hyps))
        out["vectors"] = [list(qv) for qv in theorem2_construct(cfg)]
    _write(json.dumps(out, sort_keys=True, indent=2), args)
    return 0


def _replay_command(args) -> int:
    with open(args.witness_file) as fh:
        witness = json.load(fh)
    ok = V.replay_witness(witness)
    result = {"witness": witness, "passes_now": ok}
    _write(json.dumps(result, sort_keys=True, indent=2), args)
    return 0 if ok else 2


def _suites_command(args) -> int:
    bad = 0
    for name, fn in [
        ("lattice-dimension-law", V.lemma42_trial),
        ("semisimple-construction", V.theorem2_trial),
        ("cyclic-rank-law", V.cyclic_law_trial),
    ]:
        failures = V.run_trials(fn, args.trials, seed=args.seed)
        print(f"{name}: {args.trials - len(failures)}/{args.trials} ok")
        for w in failures[:5]:
            print("  failure:", w)
        bad += len(failures)
    return 0 if bad == 0 else 2


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; our contract is 1
        return 0 if exc.code in (0, None) else 1
    try:
        if args.command == "theorem1":
            rep = V.verify_theorem1(
                args.q, args.ell, curve_limit=args.max_curves,
                include_family=not args.no_family,
            )
            return _emit(rep, args)
        if args.command == "theorem2":
            rep = V.verify_theorem2_products(
                args.q, args.ell, max_pairs=args.max_pairs,
                splitting_degree_cap=args.k_cap,
            )
            return _emit(rep, args)
        if args.command == "counterexample":
            if args.abstract:
                rep = V.abstract_necessity_witness()
            else:
                rep = V.reproduce_paper_counterexample()
            return _emit(rep, args)
        if args.command == "lemmas":
            rep = V.lemma_sweep(args.q, args.ell, curve_limit=args.max_curves)
            return _emit(rep, args)
        if args.command == "module":
            return _module_command(args)
        if args.command == "sweep":
            ells = [int(x) for x in args.ell_list.split(",") if x.strip()]
            threads = args.threads if args.threads is not None else _default_threads()
            rep = V.run_sweep(
                ells, q_max=args.q_max, q_min=args.q_min, threads=threads,
                curve_limit=args.max_curves,
            )
            return _emit(rep, args)
        if args.command == "replay":
            return _replay_command(args)
        if args.command == "suites":
            return _suites_command(args)
        raise AssertionError("unreachable")
    except (CapabilityError, NotSemisimpleError, FileNotFoundError, json.JSONDecodeError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TheoremViolationError as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return 2
    except IsogenyLabError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

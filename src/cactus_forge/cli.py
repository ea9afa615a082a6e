"""Command-line surface.

One subcommand per stage: generate instances, solve them, query the
parity oracle for beta and a maximum cactus, analyze a solved cactus,
run the two approximation pipelines, and sweep the benchmark corpus.
Instances travel as JSON objects {"n", "rotations", "outer"}; cacti
travel as JSON lists of sorted vertex triples.

Exit codes: 0 clean, 2 a claimed bound failed to hold, 3 an internal
identity failed (a bug, not bad data), 4 unusable input or output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .analyzer import analyze_cactus
from .cactus import cactus_from_triples, cactus_to_triples
from .errors import (
    CactusForgeError,
    IdentityViolationError,
    InstanceFormatError,
    NotLocallyOptimalError,
)
from .generators import FAMILIES, GeneratorSpec, build
from .local_search import SearchConfig, local_search
from .oracle import clique_candidates, face_candidates, max_cactus
from .pipeline import (
    acceptance_corpus,
    mps_pipeline,
    mpt_pipeline,
    report_to_dict,
    verify_corpus,
    write_csv,
    write_sidecar,
)
from .plane_graph import dump_instance, load_instance, read_json

__all__ = ["main"]


def _emit(payload, out: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_cactus_file(path: str):
    """The file's JSON list; ``cactus_from_triples`` checks its entries."""
    data = read_json(path)
    if not isinstance(data, list):
        raise InstanceFormatError(f"{path}: expected a JSON list of triples")
    return data


def _search_config(args) -> SearchConfig:
    return SearchConfig(t=args.t, seed=args.seed)


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--t", type=int, default=2, choices=(1, 2), help="swap size")
    p.add_argument("--seed", type=int, default=0, help="greedy shuffle seed")


def _frac(x):
    return None if x is None else f"{x.numerator}/{x.denominator}"


# ----------------------------------------------------------------------
# subcommands


def _cmd_generate(args) -> int:
    spec = GeneratorSpec(
        family=args.family,
        n=args.n,
        seed=args.seed,
        flips=args.flips,
        name=args.name,
        width=args.width,
        height=args.height,
    )
    g = build(spec)
    if args.out:
        dump_instance(g, args.out)
        print(f"{spec.label()}: n={g.n} edges={g.edge_count} "
              f"f3_internal={g.f3_internal} -> {args.out}")
    else:
        from .plane_graph import instance_to_dict

        _emit(instance_to_dict(g), None)
    return 0


def _cmd_solve(args) -> int:
    g = load_instance(args.path)
    c, trace = local_search(g, _search_config(args))
    triples = cactus_to_triples(c)
    if args.trace:
        _emit(
            {
                "initial_delta": trace.initial_delta,
                "final_delta": trace.final_delta,
                "moves_examined": trace.moves_examined,
                "wall_time_s": trace.wall_time_s,
                "moves_applied": [m._asdict() for m in trace.moves_applied],
            },
            args.trace,
        )
    if args.out:
        _emit(triples, args.out)
        print(f"delta={len(c)} (greedy {trace.initial_delta}, "
              f"{len(trace.moves_applied)} swaps) -> {args.out}")
    else:
        _emit(triples, None)
    return 0


def _cmd_oracle(args) -> int:
    g = load_instance(args.path)
    cands = clique_candidates(g) if args.all_triangles else face_candidates(g)
    res, witness = max_cactus(cands)
    _emit(
        {
            "optimum": res.optimum,
            "witness": [list(t) for t in witness],
            "nodes_explored": res.nodes_explored,
            "exhausted": res.exhausted,
        },
        args.out,
    )
    return 0


def _cmd_analyze(args) -> int:
    g = load_instance(args.path)
    c = cactus_from_triples(g, _load_cactus_file(args.cactus))
    verified = False if args.no_verify else None
    report = analyze_cactus(g, c, verified=verified)
    _emit(report_to_dict(report), args.out)
    return 0 if report.ok else 2


def _cmd_mps(args) -> int:
    g = load_instance(args.path)
    r = mps_pipeline(g, _search_config(args))
    _emit(
        {
            "edges": [list(e) for e in r.edges],
            "edge_count": r.edge_count,
            "input_edge_count": r.input_edge_count,
            "triangle_count": r.triangle_count,
            "cactus": [list(t) for t in r.cactus_triples],
            "ratio_vs_input": _frac(r.ratio_vs_input),
            "ratio_vs_triangulation": _frac(r.ratio_vs_triangulation),
            "meets_four_ninths": r.meets_four_ninths,
        },
        args.out,
    )
    return 2 if r.meets_four_ninths is False else 0


def _cmd_mpt(args) -> int:
    g = load_instance(args.path)
    r = mpt_pipeline(g, _search_config(args))
    _emit(
        {
            "cactus": [list(t) for t in r.cactus_triples],
            "output_triangles": r.output_triangles,
            "f3_internal_input": r.f3_internal_input,
            "ratio": _frac(r.ratio),
            "meets_one_sixth": r.meets_one_sixth,
        },
        args.out,
    )
    return 2 if r.meets_one_sixth is False else 0


def _cmd_bench(args) -> int:
    corpus = acceptance_corpus(args.rmp_count)
    if args.limit is not None:
        # A negative limit would slice rows off the end of the corpus.
        if args.limit < 0:
            raise CactusForgeError(f"--limit must be at least 0, got {args.limit}")
        corpus = corpus[: args.limit]
    cfg = SearchConfig(seed=args.seed)
    res = verify_corpus(corpus, cfg, threads=args.threads)
    if args.csv:
        write_csv(res.rows, args.csv)
    if args.sidecar:
        write_sidecar(res.reports, args.sidecar)
    print(f"{len(res.rows)} instances, {len(res.failures)} failures, "
          f"{len(res.strict_discrepancies)} strict-bound discrepancies")
    for label, msg in res.failures:
        print(f"  FAIL {label}: {msg}")
    for miss in res.strict_discrepancies:
        print(f"  note {miss}")
    if res.identity_failures:
        return 3
    if res.failures:
        return 2
    return 0


# ----------------------------------------------------------------------
# parser


@functools.cache  # parsing leaves the parser unchanged, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    # No prefix matching: `bench --t 2` would otherwise mean `--threads 2`.
    parser = argparse.ArgumentParser(
        prog="cactus-forge",
        description="Triangular-cactus subgraphs of plane graphs.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add("generate", help="emit a corpus instance as JSON")
    p.add_argument("--family", required=True, choices=sorted(FAMILIES))
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--flips", type=int, default=None,
                   help="diagonal flips after stacking (default 2n)")
    p.add_argument("--name", default="", help="platonic solid name")
    p.add_argument("--width", type=int, default=0)
    p.add_argument("--height", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_generate)

    p = add("solve", help="run the t-swap local search")
    p.add_argument("--in", dest="path", required=True)
    _add_solver_flags(p)
    p.add_argument("--out", default=None, help="write the cactus triples here")
    p.add_argument("--trace", default=None, help="write the search trace here")
    p.set_defaults(func=_cmd_solve)

    p = add("oracle", help="beta by matroid parity rank, with a "
                           "maximum cactus by self-reduction")
    p.add_argument("--in", dest="path", required=True)
    p.add_argument("--all-triangles", action="store_true",
                   help="use all 3-cliques, not just triangular faces")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_oracle)

    p = add("analyze", help="structural report for a solved cactus")
    p.add_argument("--in", dest="path", required=True)
    p.add_argument("--cactus", required=True, help="JSON list of triples")
    p.add_argument("--no-verify", action="store_true",
                   help="skip the local-optimality verifier (also skips "
                        "the optimality-dependent grading)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_analyze)

    p = add("mps", help="cactus plus forest planar subgraph")
    p.add_argument("--in", dest="path", required=True)
    _add_solver_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_mps)

    p = add("mpt", help="cactus as a plane subgraph, faces recounted")
    p.add_argument("--in", dest="path", required=True)
    _add_solver_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_mpt)

    p = add("bench", help="sweep the corpus and write CSV + sidecar")
    p.add_argument("--rmp-count", type=int, default=200,
                   help="number of random triangulations in the corpus")
    p.add_argument("--limit", type=int, default=None,
                   help="only run the first N corpus entries")
    p.add_argument("--seed", type=int, default=0, help="solver shuffle seed")
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes (default 1)")
    p.add_argument("--csv", default=None)
    p.add_argument("--sidecar", default=None)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except IdentityViolationError as exc:
        print(f"identity violation: {exc}", file=sys.stderr)
        return 3
    except NotLocallyOptimalError as exc:
        print(f"not locally optimal: {exc}", file=sys.stderr)
        if exc.witness is not None:
            print(f"witness move: {exc.witness}", file=sys.stderr)
        return 2
    except (CactusForgeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

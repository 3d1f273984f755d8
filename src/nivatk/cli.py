"""Command-line front end.

Subcommands: complexity, annihilate, verify, search, decompose, lines,
nivat-scan, bounds, tile-verify, tile-search, examples.  All reports are
plain text (key=value lines) or CSV; identical inputs give byte-identical
output.  Exit codes: 0 success, 1 failed check, 2 usage or input error
or out of memory, 141 (128 + SIGPIPE) when the reader closes stdout early.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .annihilator import find_annihilator, search_difference_annihilator
from .configurations import Configuration, pattern_complexity
from .decomposition import decompose
from .errors import InfeasibleError, VerificationFailedError
from .lattice import Lattice, Window
from .laurent import LaurentPolynomial, annihilates, line_factorization
from .nivat import bound_two_directions, corollary_report, nivat_scan, scan_csv
from .textio import (
    _format_vector,
    format_poly,
    parse_config,
    parse_poly,
    parse_tile,
    parse_vectors,
    parse_window,
)
from .tiling import (
    ClusterTile,
    PeriodicCoTiler,
    prime_periodicity_check,
    search_periodic_cotiler,
    verify_cotiler,
)

__all__ = ["parse_config", "run", "main"]


def _strip_comments(text: str) -> str:
    return "\n".join(line.split("#", 1)[0] for line in text.splitlines())


def _text_or_file(arg: str) -> str:
    """Inline flag text or the text of the file it names, `#` comments cut."""
    if os.path.isfile(arg):
        with open(arg, encoding="utf-8") as fh:
            arg = fh.read()
    return _strip_comments(arg)


def _fmt_vecs(vs) -> str:
    return ";".join(_format_vector(v) for v in vs)


def _bool(b) -> str:
    return "true" if b else "false"


def _parse_range(text: str):
    a, sep, b = text.partition("..")
    if not sep:
        v = int(a)
        return range(v, v + 1)
    return range(int(a), int(b) + 1)


def _load_config(args) -> Configuration:
    return parse_config(_text_or_file(args.config))


def _cmd_complexity(args) -> int:
    c = _load_config(args)
    shape = parse_window(args.shape, c.dim)
    sample = parse_window(args.sample, c.dim) if args.sample else None
    res = pattern_complexity(c, shape, sample)
    print(f"count={res.count} exact={_bool(res.exact)}")
    return 0


def _cmd_annihilate(args) -> int:
    c = _load_config(args)
    shape = parse_window(args.shape, c.dim)
    sample = parse_window(args.sample, c.dim)
    verify = parse_window(args.verify, c.dim) if args.verify else sample
    report = find_annihilator(c, shape, sample, verify)
    if report is None:
        print("found=false")
        return 0
    print("found=true")
    print(f"g={format_poly(report.g)}")
    print(f"constant={report.constant}")
    print(f"f={format_poly(report.f)}")
    return 0


def _cmd_verify(args) -> int:
    c = _load_config(args)
    f = parse_poly(_text_or_file(args.poly), dim=c.dim)
    window = parse_window(args.window, c.dim)
    res = annihilates(f, c, window)
    if res:
        print(f"annihilates=true status={res.status}")
        return 0
    print(f"annihilates=false witness={_format_vector(res.witness)}")
    return 1


def _cmd_search(args) -> int:
    c = _load_config(args)
    window = parse_window(args.window, c.dim)
    steps = search_difference_annihilator(c, args.max_factors, args.coord_bound, window)
    if steps is None:
        print("found=false")
        return 0
    print("found=true")
    print(f"steps={_fmt_vecs(steps)}")
    print(f"product={format_poly(LaurentPolynomial.difference_product(c.dim, steps))}")
    return 0


def _cmd_decompose(args) -> int:
    c = _load_config(args)
    vectors = parse_vectors(args.vectors)
    core = parse_window(args.core, c.dim)
    halo = parse_window(args.halo, c.dim) if args.halo else None
    try:
        dec = decompose(c, vectors, core, halo)
    except InfeasibleError as exc:
        print("feasible=false")
        print(f"reason={exc}")
        return 1
    print("feasible=true")
    print(f"components={len(dec.components)}")
    print(f"vectors={_fmt_vecs(dec.vectors)}")
    print(f"residual_check={_bool(dec.residual_check)}")
    print(f"integral={_bool(dec.integral)}")
    for i, comp in enumerate(dec.components):
        nonzero = sum(1 for v in comp.cells if v != 0)
        print(f"component {i}: step={_format_vector(dec.vectors[i])} nonzero={nonzero}")
    return 0


def _cmd_lines(args) -> int:
    f = parse_poly(_text_or_file(args.poly))
    lf = line_factorization(f)
    print(f"monomial={_format_vector(lf.monomial)}")
    for i, (v, phi) in enumerate(lf.factors):
        print(f"factor {i}: direction={_format_vector(v)} poly={format_poly(phi)}")
    print(f"remainder={format_poly(lf.remainder)}")
    print(f"directions={_fmt_vecs(lf.directions)}")
    return 0


def _cmd_nivat_scan(args) -> int:
    c = _load_config(args)
    sample = parse_window(args.sample, c.dim)
    rows = nivat_scan(c, _parse_range(args.M), _parse_range(args.N), sample)
    sys.stdout.write(scan_csv(rows))
    return 0


def _cmd_bounds(args) -> int:
    if args.poly:
        f = parse_poly(_text_or_file(args.poly))
        lf = line_factorization(f)
        rep = corollary_report(f, lf, args.M, args.N)
        print(f"bbox={_format_vector(rep.bbox_f)}")
        for name, value in rep.bounds:
            tag = " conditional" if name in rep.conditional else ""
            print(f"{name}={value}{tag}")
        for pair, value in rep.pair_bounds:
            print(f"pair {_fmt_vecs(pair)}: {value}")
        print(f"best={rep.best[0]} value={rep.best[1]}")
        if rep.alpha is not None:
            print(f"alpha={rep.alpha}")
        return 0
    if args.v1 and args.v2:
        v1, v2 = parse_vectors(args.v1), parse_vectors(args.v2)
        if len(v1) != 1 or len(v2) != 1:
            raise ValueError("--v1 and --v2 each take exactly one vector")
        print(f"bound={bound_two_directions(v1[0], v2[0], args.M, args.N)}")
        return 0
    raise ValueError("bounds needs either --poly or both --v1 and --v2")


def _cmd_tile_verify(args) -> int:
    tile = parse_tile(_text_or_file(args.tile))
    lattice = Lattice(parse_vectors(args.lattice))
    residues = parse_vectors(args.residues) if args.residues else [(0,) * tile.dim]
    cotiler = PeriodicCoTiler(lattice, residues)
    res = verify_cotiler(tile, cotiler)
    if res:
        print("status=Valid")
        return 0
    print(f"status={res.status} witness={_format_vector(res.witness)}")
    return 1


def _cmd_tile_search(args) -> int:
    tile = parse_tile(_text_or_file(args.tile))
    cotiler = search_periodic_cotiler(tile, args.max_index)
    if cotiler is None:
        print("found=false")
        return 0
    print("found=true")
    print(f"index={cotiler.lattice.index()}")
    print(f"lattice={_fmt_vecs(cotiler.lattice.basis())}")
    print(f"residues={_fmt_vecs(cotiler.residues)}")
    return 0


# Reference inputs for the end-to-end example suite.

TWO_LINES_3D = ("sum { +coset offset(0,0,0) gens{(1,0,0)} value 1 "
                "+coset offset(0,0,3) gens{(0,1,0)} value 1 }")
BINARY_IRRATIONAL_2D = ("sum { +mechanical weights(1,1) alpha sqrt(2) "
                        "-mechanical weights(1,0) alpha sqrt(2) "
                        "-mechanical weights(0,1) alpha sqrt(2) }")


def _example_1() -> str:
    c = parse_config(TWO_LINES_3D)
    shape = Window.box((0, 0, 0), (2, 2, 2))
    sample = Window.box((-12, -12, -12), (9, 9, 9))
    res = pattern_complexity(c, shape, sample)
    ok = res.count == 19
    return f"{'PASS' if ok else 'FAIL'} complexity(3x3x3)={res.count} expected=19"


def _example_2() -> str:
    tile = ClusterTile([(0, 0), (0, 1), (1, 0)])
    cotiler = search_periodic_cotiler(tile, 3)
    if cotiler is None:
        return "FAIL no periodic co-tiler of index <= 3"
    res = verify_cotiler(tile, cotiler)
    periods = prime_periodicity_check(tile, cotiler)
    ok = bool(res) and len(periods) == 3
    return (f"{'PASS' if ok else 'FAIL'} tiling={res.status} "
            f"periods={len(periods)}/3 congruence=ok")


def _example_3() -> str:
    c = parse_config(TWO_LINES_3D)
    core = Window.box((-4, -4, -4), (4, 4, 4))
    try:
        dec = decompose(c, [(1, 0, 0), (0, 1, 0)], core)
    except InfeasibleError:
        return "FAIL decomposition infeasible"
    ok = len(dec.components) == 2 and dec.residual_check and dec.integral
    return (f"{'PASS' if ok else 'FAIL'} components={len(dec.components)} "
            f"sum_matches={_bool(dec.residual_check)} integral={_bool(dec.integral)}")


def _example_4() -> str:
    c = parse_config(TWO_LINES_3D)
    window = Window.box((-6, -6, -6), (6, 6, 6))
    steps = search_difference_annihilator(c, 2, 1, window)
    ok = steps is not None and sorted(steps) == [(0, 1, 0), (1, 0, 0)]
    found = _fmt_vecs(steps) if steps else "none"
    return f"{'PASS' if ok else 'FAIL'} steps={found} expected=(0,1,0);(1,0,0)"


def _example_5() -> str:
    c = parse_config(BINARY_IRRATIONAL_2D)
    f = LaurentPolynomial.difference_product(2, [(1, 0), (0, 1), (1, -1)])
    window = Window.box((0, 0), (199, 199))
    res = annihilates(f, c, window)
    values = set(c.block(window.lo, window.hi))
    ok = bool(res) and values <= {0, 1}
    vals = ",".join(str(v) for v in sorted(values))
    return (f"{'PASS' if ok else 'FAIL'} annihilates=200x200 "
            f"values={{{vals}}}")


def _cmd_examples(args) -> int:
    runners = [_example_1, _example_2, _example_3, _example_4, _example_5]
    failed = False
    for k, runner in enumerate(runners, start=1):
        line = runner()
        failed = failed or line.startswith("FAIL")
        print(f"Example {k}: {line}")
    return 1 if failed else 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first `run` call.

    `parse_args` returns a fresh namespace and leaves no state on the
    parser, so every call can share it.
    """
    parser = argparse.ArgumentParser(
        prog="nivatk",
        description="Exact tools for low-pattern-complexity configurations.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("complexity", help="count distinct patterns of a shape")
    p.add_argument("--config", required=True, help="configuration file")
    p.add_argument("--shape", required=True, help="window spec, e.g. 2x2 or 0..1,0..1")
    p.add_argument("--sample", help="anchor window (optional for periodic configs)")
    p.set_defaults(func=_cmd_complexity)

    p = sub.add_parser("annihilate", help="find a nonzero annihilating polynomial")
    p.add_argument("--config", required=True)
    p.add_argument("--shape", required=True)
    p.add_argument("--sample", required=True)
    p.add_argument("--verify", help="verification window (default: sample)")
    p.set_defaults(func=_cmd_annihilate)

    p = sub.add_parser("verify", help="check that a polynomial annihilates a configuration")
    p.add_argument("--config", required=True)
    p.add_argument("--poly", required=True, help="polynomial text or file")
    p.add_argument("--window", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search", help="search for a difference-product annihilator")
    p.add_argument("--config", required=True)
    p.add_argument("--max-factors", type=int, default=3)
    p.add_argument("--coord-bound", type=int, default=1)
    p.add_argument("--window", required=True)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("decompose", help="split a window into periodic components")
    p.add_argument("--config", required=True)
    p.add_argument("--vectors", required=True, help="period steps, e.g. \"(1,0);(0,1)\"")
    p.add_argument("--core", required=True)
    p.add_argument("--halo", help="verification window (default: derived)")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("lines", help="factor out line polynomials")
    p.add_argument("--poly", required=True)
    p.set_defaults(func=_cmd_lines)

    p = sub.add_parser("nivat-scan", help="scan sampled complexity against M*N")
    p.add_argument("--config", required=True)
    p.add_argument("--M", required=True, help="range, e.g. 2..8")
    p.add_argument("--N", required=True, help="range, e.g. 2..8")
    p.add_argument("--sample", required=True, help="anchor window, e.g. 500")
    p.set_defaults(func=_cmd_nivat_scan)

    p = sub.add_parser("bounds", help="complexity lower bounds from line structure")
    p.add_argument("--poly", help="annihilator to analyse")
    p.add_argument("--v1", help="first direction, one vector (with --v2)")
    p.add_argument("--v2", help="second direction, one vector")
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("tile-verify", help="check a periodic co-tiler")
    p.add_argument("--tile", required=True, help="tile text or file")
    p.add_argument("--lattice", required=True, help="generators, e.g. \"(3,0);(1,1)\"")
    p.add_argument("--residues", help="coset representatives (default: origin)")
    p.set_defaults(func=_cmd_tile_verify)

    p = sub.add_parser("tile-search", help="search for a periodic co-tiler")
    p.add_argument("--tile", required=True)
    p.add_argument("--max-index", type=int, required=True)
    p.set_defaults(func=_cmd_tile_search)

    p = sub.add_parser("examples", help="run the built-in example suite")
    p.set_defaults(func=_cmd_examples)

    return parser


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except VerificationFailedError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        raise  # a closed stdout is no input error: main exits quietly
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    try:
        code = run(sys.argv[1:] if argv is None else argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout, as `| head` does: stop quietly, and point
        # stdout at devnull so the interpreter's last flush has nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())

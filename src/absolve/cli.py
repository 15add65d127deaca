"""Command-line front end: one-shot solves and benchmark tables.

``absolve solve matrix.txt rhs.txt --method mhuang`` reads the text
matrix format (see :mod:`absolve.matfile`), runs one solver, and writes
the solution. ``absolve bench --suite determined`` generates a seeded
problem set and prints a fixed-layout report table.

Exit codes: 0 solved, 1 incompatible system, 2 solver breakdown,
64 usage error, 65 unreadable or malformed input file, 73 an ``--out``
file that cannot be written (a missing directory, a directory, no
permission).

Benchmark output is byte-identical for equal arguments: problems are
seeded, rows are emitted in a fixed order, and wall-clock times are
excluded unless ``--times wall`` asks for them.
"""

import argparse
import functools
import sys

from . import core, matfile, problems
from .errors import AbsError, IncompatibleSystem, IntegerInconsistent

EXIT_OK = 0
EXIT_INCOMPATIBLE = 1
EXIT_BREAKDOWN = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_CANTCREAT = 73

SUITES = ("determined", "overdetermined", "underdetermined", "kt", "dio")

DEFAULT_METHODS = {
    "determined": "mhuang,ilu",
    "overdetermined": "iqr,mhuang",
    "underdetermined": "huang,mhuang",
    "kt": "kt:a1b1,kt:a1b2,kt:a2b1,kt:a2b2",
    "dio": "dio",
}

DEFAULT_SIZES = {"dio": "8"}

_COLUMNS = f"{'problem':<16} {'m':>5} {'n':>5} {'method':<14} " \
           f"{'sol-err':>10} {'res-err':>10} {'rank':>5} {'time':>8}"


class _Parser(argparse.ArgumentParser):
    """argparse with the conventional usage-error exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(prog="absolve",
                     description="projection solvers for linear systems")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one system from files")
    solve.add_argument("matrix", help="coefficient matrix file")
    solve.add_argument("rhs", help="right-hand-side vector file")
    solve.add_argument("--method", default="huang",
                       help="huang, stable, mhuang, ilu, ilx, iqr, cgdir, "
                            "gilu, dio, kt:a1b2, absm:m=3:y=energy, ...")
    solve.add_argument("--tol", type=float, default=None,
                       help="dependency and pivot tolerance override "
                            "(not for kt, dio and absm methods)")
    solve.add_argument("--kt-m", type=int, default=None,
                       help="constraint count for kt methods on an "
                            "assembled matrix")
    solve.add_argument("--out", default=None,
                       help="write the solution as a matrix file instead "
                            "of printing it")

    bench = sub.add_parser("bench", help="run a seeded benchmark suite")
    bench.add_argument("--suite", required=True, choices=SUITES)
    bench.add_argument("--methods", default=None,
                       help="comma-separated method ids "
                            "(default depends on the suite)")
    bench.add_argument("--sizes", default=None,
                       help="comma-separated system sizes (default 30, "
                            "8 for dio)")
    bench.add_argument("--seed", type=int, default=1)
    bench.add_argument("--rank", type=int, default=None,
                       help="force rank-deficient problems of this rank "
                            "(determined suite only)")
    bench.add_argument("--times", choices=("none", "wall"), default="none",
                       help="'wall' adds wall-clock seconds; 'none' keeps "
                            "the output reproducible")
    bench.add_argument("--out", default=None,
                       help="write the table to a file instead of stdout")
    return parser


def _fail(message, code):
    print(f"absolve: {message}", file=sys.stderr)
    return code


def _cannot_write(path, exc):
    return _fail(f"cannot write {path}: {exc.strerror or exc}",
                 EXIT_CANTCREAT)


def cmd_solve(args):
    try:
        head, _ = problems.parse_method(args.method)
    except ValueError as exc:
        return _fail(str(exc), EXIT_USAGE)
    if head == "kt" and args.kt_m is None:
        return _fail("kt methods need --kt-m to split the assembled matrix",
                     EXIT_USAGE)
    if args.kt_m is not None and head != "kt":
        return _fail(f"--kt-m does not apply to method {args.method!r}",
                     EXIT_USAGE)
    if args.kt_m is not None and args.kt_m < 1:
        return _fail(f"--kt-m must be at least 1, got {args.kt_m}",
                     EXIT_USAGE)
    if args.tol is not None and head in problems._NO_TOL_METHODS:
        return _fail(f"--tol does not apply to method {args.method!r}",
                     EXIT_USAGE)
    tol = None
    if args.tol is not None:
        if not 0.0 <= args.tol < float("inf"):
            return _fail(f"--tol must be a finite number of at least 0, "
                         f"got {args.tol!r}", EXIT_USAGE)
        tol = core.Tolerances(dependency=args.tol, pivot=args.tol)

    try:
        mat = matfile.read_matrix(args.matrix)
        rhs = matfile.read_vector(args.rhs)
    except OSError as exc:
        return _fail(str(exc), EXIT_DATA)
    except matfile.MatrixFileError as exc:
        return _fail(str(exc), EXIT_DATA)
    if mat.shape[0] != rhs.values.shape[0]:
        return _fail(f"matrix has {mat.shape[0]} rows but the right-hand "
                     f"side has {rhs.values.shape[0]} entries", EXIT_DATA)
    if head == "dio" and (mat.ints is None or rhs.ints is None):
        return _fail("dio needs integer-kind matrix and rhs files",
                     EXIT_DATA)

    try:
        x, rank, _ = problems.run_method(
            args.method, mat.values, rhs.values, a_int=mat.ints,
            b_int=rhs.ints, kt_m=args.kt_m, tol=tol)
    except IntegerInconsistent as exc:
        return _fail(f"equation {exc.row}: integerly inconsistent "
                     f"(gcd {exc.delta} does not divide residual {exc.tau})",
                     EXIT_INCOMPATIBLE)
    except IncompatibleSystem as exc:
        return _fail(f"equation {exc.row}: incompatible system ({exc})",
                     EXIT_INCOMPATIBLE)
    except AbsError as exc:
        row = getattr(exc, "row", None)
        where = f"equation {row}: " if row is not None else ""
        return _fail(f"{where}breakdown ({exc})", EXIT_BREAKDOWN)
    except ValueError as exc:
        return _fail(str(exc), EXIT_DATA)

    print(f"rank {rank}", file=sys.stderr)
    if args.out:
        try:
            matfile.write_matrix(args.out, x, kind="real")
        except OSError as exc:
            return _cannot_write(args.out, exc)
    else:
        sys.stdout.write("".join([f"{float(v)!r}\n" for v in x.tolist()]))
    return EXIT_OK


def _suite_specs(args, sizes, seed):
    kind = "diophantine" if args.suite == "dio" else args.suite
    return [problems.ProblemSpec(kind=kind, n=size, target_rank=args.rank,
                                 seed=seed + index)
            for index, size in enumerate(sizes)]


def _format_row(problem, method, metrics, times):
    name = problem.name
    m, n = problem.a.shape
    if metrics is None:
        sol = "break-down"
        res = "-"
        rank = "-"
        clock = "-"
    else:
        sol = f"{metrics.rel_solution_error:.1e}"
        res = f"{metrics.rel_residual_error:.1e}"
        rank = str(metrics.detected_rank)
        clock = f"{metrics.elapsed_seconds:.2f}" if times == "wall" else "-"
    return f"{name:<16} {m:>5} {n:>5} {method:<14} " \
           f"{sol:>10} {res:>10} {rank:>5} {clock:>8}"


def cmd_bench(args):
    # only the determined generator takes a target rank
    if args.rank is not None and args.suite != "determined":
        return _fail(f"--rank does not apply to --suite {args.suite}",
                     EXIT_USAGE)
    methods_arg = args.methods
    if methods_arg is None:
        methods_arg = DEFAULT_METHODS[args.suite]
    methods = [m.strip() for m in methods_arg.split(",") if m.strip()]
    if not methods:
        return _fail("empty method list", EXIT_USAGE)
    try:
        for method in methods:
            head, _ = problems.parse_method(method)
            # only the kt suite carries the block form a kt method solves
            if head == "kt" and args.suite != "kt":
                return _fail(f"method {method!r} needs --suite kt, got "
                             f"--suite {args.suite}", EXIT_USAGE)
    except ValueError as exc:
        return _fail(str(exc), EXIT_USAGE)

    sizes_arg = args.sizes
    if sizes_arg is None:
        sizes_arg = DEFAULT_SIZES.get(args.suite, "30")
    try:
        sizes = [int(s) for s in sizes_arg.split(",") if s.strip()]
        specs = _suite_specs(args, sizes, args.seed)
    except ValueError as exc:
        return _fail(str(exc), EXIT_USAGE)
    if not sizes:
        return _fail("empty size list", EXIT_USAGE)

    lines = [f"suite: {args.suite}  seed: {args.seed}", _COLUMNS]
    for spec in specs:
        try:
            problem = problems.generate(spec)
        except AbsError as exc:
            return _fail(str(exc), EXIT_DATA)
        for method in methods:
            try:
                metrics = problems.evaluate(method, problem)
            except (AbsError, ValueError):
                metrics = None
            lines.append(_format_row(problem, method, metrics, args.times))

    text = "\n".join(lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="ascii") as fh:
                fh.write(text)
        except OSError as exc:
            return _cannot_write(args.out, exc)
    else:
        sys.stdout.write(text)
    return EXIT_OK


@functools.cache
def _parser():
    # Building the parser costs several times a parse_args call on it.
    # parse_args keeps nothing from one call to the next: it returns a
    # fresh Namespace, and help and usage text is formatted, at the
    # terminal width of the moment, when it is printed.
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    if args.command == "solve":
        return cmd_solve(args)
    return cmd_bench(args)


if __name__ == "__main__":
    sys.exit(main())

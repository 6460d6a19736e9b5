"""qkneser command-line interface.

Machine output is JSON on stdout (a bare integer is valid JSON); --human
switches the few tabular reports to aligned text.  Exit codes: 0 success or
certificate valid, 2 verification found the certificate invalid, 1 usage or
internal error.  File writes are atomic (temp file + rename).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from fractions import Fraction

from . import _numpy as np
from . import __version__, _parallel, cover, explore, gf, indsets, kneser, pg, qcalc
from .errors import InvalidArgs, QKneserError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2


def field_table_hash() -> str:
    """Digest of the pinned reduction-polynomial table, for certificate compatibility."""
    import hashlib  # loads OpenSSL, which only --version needs
    payload = json.dumps(
        {str(q): list(gf.REDUCTION_POLYS.get(q, [])) for q in gf.SUPPORTED_ORDERS},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


class _Version(argparse.Action):
    """--version, whose field-table digest is computed only when it is asked for."""

    def __call__(self, parser, namespace, values, option_string=None):
        print(f"qkneser {__version__} (field-table {field_table_hash()})")
        parser.exit()


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; usage errors are 1 here
        self.print_usage(sys.stderr)
        raise SystemExit(_fail(message))


def _fail(message: str) -> int:
    print(f"qkneser: error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _emit(obj, human: bool = False) -> None:
    if human and isinstance(obj, dict):
        width = max(len(str(k)) for k in obj)
        for k, v in obj.items():
            print(f"{str(k):<{width}}  {v}")
    else:
        print(json.dumps(obj, sort_keys=True))


def _write_atomic(path: str, write):
    """write(fh) into a temp file beside path, renamed over path once it
    returns; its result is returned, and on failure the temp file is removed."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            result = write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return result


def _write_json_atomic(obj, path: str) -> None:
    _write_atomic(path, lambda fh: fh.write(json.dumps(obj, sort_keys=True) + "\n"))


def _load_json(path):
    try:
        if path in (None, "-"):
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except ValueError as exc:  # bad syntax or encoding, or an integer too long to read
        raise InvalidArgs(f"invalid JSON input: {exc}") from None


def _out_json(obj, path) -> None:
    if path in (None, "-"):
        print(json.dumps(obj, sort_keys=True))
    else:
        _write_json_atomic(obj, path)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="qkneser", description="flag Kneser graph toolkit")
    top.add_argument("--version", action=_Version, nargs=0, default=argparse.SUPPRESS,
                     help="show program's version number and exit")
    sub = top.add_subparsers(dest="command", required=True)

    calc = sub.add_parser("calc", help="exact counts, constants and bound checks")
    calc_sub = calc.add_subparsers(dest="calc_op", required=True)

    p = calc_sub.add_parser("gauss")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--q", type=int, required=True)

    p = calc_sub.add_parser("theta")
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--q", type=int, required=True)

    p = calc_sub.add_parser("flag-count")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--q", type=int, required=True)

    p = calc_sub.add_parser("chromatic")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--q", type=int, required=True)

    p = calc_sub.add_parser("constants")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--alpha", type=int, default=5)
    p.add_argument("--human", action="store_true")

    p = calc_sub.add_parser("thresholds")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--alpha", type=int, default=5)
    p.add_argument("--human", action="store_true")

    p = calc_sub.add_parser("check-bounds")
    p.add_argument("--q-max", type=int, default=64)
    p.add_argument("--n-max", type=int, default=14)
    p.add_argument("--c-max", type=int, default=6)

    p = calc_sub.add_parser("concentration")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--d0", type=str, default="1/4")
    p.add_argument("--n0", type=str, default="7")

    enum = sub.add_parser("enumerate", help="subspace and flag counts by enumeration")
    enum_sub = enum.add_subparsers(dest="enum_op", required=True)

    p = enum_sub.add_parser("subspaces")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--dump", type=str, default=None)

    p = enum_sub.add_parser("flags")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--type", type=str, default=None, help="comma-separated ranks, e.g. 2,3")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--dump", type=str, default=None)

    graph = sub.add_parser("graph", help="graph exports")
    graph_sub = graph.add_subparsers(dest="graph_op", required=True)
    p = graph_sub.add_parser("export")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--type", type=str, default=None)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--out", type=str, required=True)
    p.add_argument("--cap", type=int, default=kneser.DEFAULT_VERTEX_CAP)

    ind = sub.add_parser("indset", help="independent-set descriptors")
    ind_sub = ind.add_subparsers(dest="ind_op", required=True)
    p = ind_sub.add_parser("build")
    p.add_argument("--in", dest="infile", type=str, default="-")
    p.add_argument("--out", type=str, default=None, help="write the flag list as JSON")
    p = ind_sub.add_parser("check")
    p.add_argument("--in", dest="infile", type=str, default="-")
    p.add_argument("--maximal", action="store_true", help="also run the maximality scan")
    p.add_argument("--threads", type=int, default=None)

    cov = sub.add_parser("cover", help="covering certificates")
    cov_sub = cov.add_subparsers(dest="cover_op", required=True)
    p = cov_sub.add_parser("build")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--out", type=str, default=None)
    p = cov_sub.add_parser("verify")
    p.add_argument("--in", dest="infile", type=str, default="-")
    p.add_argument("--threads", type=int, default=None)
    p = cov_sub.add_parser("dualize")
    p.add_argument("--in", dest="infile", type=str, default="-")
    p.add_argument("--out", type=str, default=None)

    exp = sub.add_parser("explore", help="stochastic structure probes")
    exp.add_argument("--d", type=int, required=True)
    exp.add_argument("--q", type=int, required=True)
    exp.add_argument("--samples", type=int, default=100)
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--rho", type=int, default=5)
    exp.add_argument("--greedy-color-order", type=str, default=None,
                     choices=["enumeration", "degree-random"],
                     help="also run a greedy coloring and report its color count")

    return top


def _parse_type(args) -> tuple:
    if args.d is not None:
        return 2 * args.d + 1, (args.d, args.d + 1)
    if args.n is None or args.type is None:
        raise QKneserError("give either --d, or both --n and --type")
    try:
        return args.n, tuple(int(x) for x in args.type.split(","))
    except ValueError:
        raise InvalidArgs(f"--type must be comma-separated integers, got {args.type!r}") from None


def _cmd_calc(args) -> int:
    op = args.calc_op
    if op == "gauss":
        # [a b]_q < q^(b(a-b) + 2); the grid of check-bounds prints no binomial
        qcalc.check_digits(args.b * (args.a - args.b) + 2, args.q, f"[{args.a} {args.b}]_{args.q}")
        _emit(qcalc.gauss(args.a, args.b, args.q))
    elif op == "theta":
        _emit(qcalc.theta(args.j, args.q))
    elif op == "flag-count":
        _emit(qcalc.flag_count(args.d, args.q))
    elif op == "chromatic":
        _emit(qcalc.chromatic_value(args.d, args.q))
    elif op == "constants":
        c = qcalc.size_constants(args.d, args.q, args.alpha)
        _emit({"d": c.d, "q": c.q, "alpha": c.alpha, "g0": c.g0, "e0": c.e0,
               "e1": c.e1, "delta": c.delta}, human=args.human)
    elif op == "thresholds":
        first, second = qcalc.chromatic_thresholds(args.d, args.alpha)
        _emit({"q_strictly_above": first, "q_at_least": second}, human=args.human)
    elif op == "check-bounds":
        report = qcalc.check_gauss_bounds(range(2, args.q_max + 1), args.n_max, args.c_max)
        _emit(report.to_json())
        return EXIT_OK if report.ok else EXIT_INVALID
    elif op == "concentration":
        try:
            d0, n0 = Fraction(args.d0), Fraction(args.n0)
        except (ValueError, ZeroDivisionError):
            raise InvalidArgs(f"--d0 and --n0 must be fractions, got {args.d0!r}, {args.n0!r}") from None
        value = qcalc.concentration_bound(args.q, args.d, d0, n0)
        _emit({"numerator": value.numerator, "denominator": value.denominator,
               "value": str(value)})
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    fld = gf.make_field(args.q)
    # --dump holds every object in memory, so the closed-form count is capped first
    if args.enum_op == "subspaces":
        if args.dump:
            what = f"subspaces of rank {args.r} in GF({args.q})^{args.n}"
            kneser.check_cap(args.q, [(args.n, args.r)], what)
        subs = pg.enumerate_subspaces(args.n, args.r, fld)
        if args.dump:
            rows = [[list(r) for r in s.rows] for s in subs]
            _write_json_atomic(rows, args.dump)
            _emit({"count": len(rows), "dumped_to": args.dump})
        else:
            _emit({"count": sum(1 for _ in subs)})
        return EXIT_OK
    n, J = _parse_type(args)
    if args.dump:
        what = f"flags of type {J} in GF({args.q})^{n}"
        kneser.check_cap(args.q, kneser.flag_binomials(n, J), what)
    flags = kneser.enumerate_flags(n, J, fld)
    if args.dump:
        dumped = [indsets.flag_to_json(f) for f in flags]
        _write_json_atomic(dumped, args.dump)
        _emit({"count": len(dumped), "dumped_to": args.dump})
    else:
        _emit({"count": sum(1 for _ in flags)})
    return EXIT_OK


def _cmd_graph(args) -> int:
    fld = gf.make_field(args.q)
    n, J = _parse_type(args)
    vertices = _write_atomic(args.out, lambda fh: kneser.export_dimacs(n, J, fld, fh, cap=args.cap))
    _emit({"vertices": vertices, "out": args.out})
    return EXIT_OK


def _cmd_indset(args) -> int:
    desc = indsets.descriptor_from_json(_load_json(args.infile))
    # the universe refuses oversized graphs before the set is built
    universe = kneser.FlagUniverse(desc.n, (desc.d, desc.d + 1), gf.make_field(desc.q))
    threads = getattr(args, "threads", None) or _parallel.usable_cpus()
    generic, special = indsets.descriptor_masks(desc, universe)
    ids = np.sort(np.concatenate((generic, special)))
    independent = universe.check_pairwise_independent(ids, threads=threads) is None
    total = int(ids.size)
    if args.ind_op == "build":
        if args.out:
            flags = sorted((universe.flag_of(int(i)) for i in ids), key=kneser.Flag.sort_key)
            _write_json_atomic([indsets.flag_to_json(f) for f in flags], args.out)
        _emit({
            "variant": desc.variant,
            "generic": int(generic.size),
            "special": int(special.size),
            "total": total,
            "independent": independent,
        })
        return EXIT_OK
    out = {"variant": desc.variant, "total": total, "independent": independent}
    result = indsets.classify(ids, universe)
    out["classified"] = (
        indsets.descriptor_to_json(result)
        if isinstance(result, indsets.IndSetDescriptor)
        else "unstructured"
    )
    if args.maximal:
        out["maximal"] = indsets.is_maximal(ids, universe)
    _emit(out)
    return EXIT_OK


def _cmd_cover(args) -> int:
    if args.cover_op == "build":
        cert = cover.build_cover(args.d, args.q)
        _out_json(cert.to_json(), args.out)
        return EXIT_OK
    cert = cover.certificate_from_json(_load_json(args.infile))
    if args.cover_op == "dualize":
        _out_json(cover.dualize_cover(cert).to_json(), args.out)
        return EXIT_OK
    threads = args.threads or _parallel.usable_cpus()
    report = cover.verify_cover(cert, threads=threads)
    _emit(report.to_json())
    return EXIT_OK if report.valid else EXIT_INVALID


def _cmd_explore(args) -> int:
    # checked before the universe is built, which can take seconds
    if not 1 <= args.samples <= sys.maxsize:
        return _fail(f"--samples must be from 1 to {sys.maxsize}, got {args.samples}")
    if args.rho < 1:
        return _fail(f"--rho must be at least 1, got {args.rho}")
    fld = gf.make_field(args.q)
    n, J = 2 * args.d + 1, (args.d, args.d + 1)
    if args.greedy_color_order:
        # the coloring's vertex cap, checked before the universe and the samples
        what = f"vertices of type {J} in GF({args.q})^{n}"
        kneser.check_cap(args.q, kneser.flag_binomials(n, J), what, kneser.DEFAULT_VERTEX_CAP)
    universe = kneser.FlagUniverse(n, J, fld)
    stats = explore.conjecture_probe(
        args.d, args.q, args.samples, master_seed=args.seed,
        rho_candidate=args.rho, universe=universe,
    )
    out = stats.to_json()
    if args.greedy_color_order:
        coloring = explore.greedy_color(
            args.d, args.q, order=args.greedy_color_order, seed=args.seed, universe=universe
        )
        out["greedy_colors"] = coloring.num_colors
    _emit(out)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        if args.command == "calc":
            return _cmd_calc(args)
        if args.command == "enumerate":
            return _cmd_enumerate(args)
        if args.command == "graph":
            return _cmd_graph(args)
        if args.command == "indset":
            return _cmd_indset(args)
        if args.command == "cover":
            return _cmd_cover(args)
        if args.command == "explore":
            return _cmd_explore(args)
        return _fail(f"unknown command {args.command!r}")
    except QKneserError as exc:
        return _fail(str(exc))
    except OSError as exc:
        return _fail(str(exc))


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()

"""Command line front end.

Exit status 0 means success with a result, 1 means a well-formed run with no
result (no witness, no canonical number in range or within the node budget,
certificate rejected), and 2 means a usage or input error (an unreadable
input, an unwritable --out path, a request too large to hold in memory), or a
search that hit its budget where a partial answer would mislead (number
--naive, extremal).  A malformed input file is reported as "error:
<path>[:<line>]: <message>".  --out is written before stdout, so a failed
write prints no result.  A run whose output pipe closes early stops silently
with status 141.  Output for a fixed input and flag set is byte-identical
across runs.  The search runs on one thread; number still accepts --threads,
checked to be positive, so that existing command lines keep working, but it
has no other effect.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import sys

from . import coloring, polynomial, search, witness


def _load(load, path: str, *args):
    # load(path, *args) for a colouring, family or certificate loader, or
    # one that also uses the family it reads.  Its ValueError names the file,
    # and the line when the error carries one (a FormatError).
    try:
        return load(path, *args)
    except ValueError as e:
        line = getattr(e, "line", None)
        raise ValueError(f"{path}: {e}" if line is None else f"{path}:{line}: {e.message}") from None


def _write_out(path: str | None, text: str) -> None:
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _add_policy_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--d-policy",
        choices=witness.D_POLICIES,
        default=witness.POLICY_NONZERO,
        help="which steps d are admitted (default: nonzero)",
    )
    p.add_argument("--h", type=int, default=0, help="shift threshold for rainbow steps (default: 0)")


def _add_search_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mono", required=True, help="mono family file")
    p.add_argument("--rainbow", help="rainbow family file")
    p.add_argument("--no-rainbow", action="store_true", help="state explicitly that no rainbow family is used")
    _add_policy_flags(p)
    p.add_argument("--max-classes", type=int, default=None, help="palette cap (default: unbounded)")
    p.add_argument("--node-budget", type=int, default=None, help="abort after this many nodes (default: none)")
    p.add_argument("--self-check", action="store_true", help="re-verify every prune and certificate")


def _search_config(args: argparse.Namespace, **lengths: int) -> search.SearchConfig:
    # lengths: number's n_start and n_limit; extremal keeps the defaults.
    if args.rainbow and args.no_rainbow:
        raise ValueError("--rainbow and --no-rainbow are mutually exclusive")
    mono = _load(polynomial.load_family, args.mono, polynomial.ROLE_MONO)
    rain = None
    if args.rainbow:
        rain = _load(polynomial.load_family, args.rainbow, polynomial.ROLE_RAINBOW)
    return search.SearchConfig(
        mono_family=mono,
        rainbow_family=rain,
        h=args.h,
        d_policy=args.d_policy,
        max_classes=args.max_classes,
        node_budget=args.node_budget,
        self_check=args.self_check,
        **lengths,
    )


def _cmd_witness(args: argparse.Namespace) -> int:
    col = _load(coloring.load_colouring, args.colouring)
    mono = _load(polynomial.load_family, args.mono, polynomial.ROLE_MONO) if args.mono else None
    rain = _load(polynomial.load_family, args.rainbow, polynomial.ROLE_RAINBOW) if args.rainbow else None
    if mono is None and rain is None:
        raise ValueError("need --mono or --rainbow")
    cert = witness.find_witness(col, mono, rain, args.h, args.d_policy)
    if cert is None:
        print("no witness", file=sys.stderr)
        return 1
    text = cert.to_json()
    _write_out(args.out, text)
    sys.stdout.write(text)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    col = _load(coloring.load_colouring, args.colouring)
    cert = _load(witness.load_certificate, args.cert)
    verdict = witness.verify_certificate(col, cert)
    if verdict.ok:
        print("certificate accepted")
        return 0
    print(f"certificate rejected: {verdict.reason}")
    return 1


def _cmd_number(args: argparse.Namespace) -> int:
    if args.threads < 1:
        raise ValueError(f"--threads must be positive, got {args.threads}")
    cfg = _search_config(args, n_start=args.n_start, n_limit=args.n_limit)
    engine = search.naive_canonical_number if args.naive else search.canonical_number
    result = engine(cfg)
    report = search.run_report(cfg, result, timing=args.timing)
    _write_out(args.out, report)
    if result.canonical_number is None:
        if not result.witness_free_per_length:
            print(f"node budget of {cfg.node_budget} ran out before a canonical number was found",
                  file=sys.stderr)
        else:
            print(f"no canonical number within n_limit={cfg.n_limit}", file=sys.stderr)
        return 1
    print(result.canonical_number)
    return 0


def _cmd_extremal(args: argparse.Namespace) -> int:
    cfg = _search_config(args)
    if args.at_length < 1:
        raise ValueError(f"--at-length must be positive, got {args.at_length}")
    found = search.extremal_colourings(cfg, args.at_length, args.limit)
    text = "".join(" ".join(map(str, col.coordinate(1))) + "\n" for col in found)
    _write_out(args.out, text)
    sys.stdout.write(text)
    return 0 if found else 1


def _cmd_hvalue(args: argparse.Namespace) -> int:
    print(_load(lambda path: polynomial.h_value(polynomial.load_family(path)), args.family))
    return 0


def _cmd_weight(args: argparse.Namespace) -> int:
    weight = _load(lambda path: polynomial.weight_vector(polynomial.load_family(path)), args.family)
    print(" ".join(map(str, weight)))
    return 0


def _cmd_bstar(args: argparse.Namespace) -> int:
    def derive(path: str) -> polynomial.PolynomialFamily:
        fam = polynomial.load_family(path, polynomial.ROLE_RAINBOW)
        return polynomial.bstar_family(fam, args.h, args.d_cap)

    derived = _load(derive, args.family)
    text = polynomial.dump_family(derived)
    _write_out(args.out, text)
    sys.stdout.write(text)
    return 0 if derived.polys else 1


def _cmd_scale(args: argparse.Namespace) -> int:
    fam = _load(polynomial.load_family, args.family, polynomial.ROLE_MONO)
    scaled = polynomial.scale_family(fam, args.factor)
    text = polynomial.dump_family(scaled)
    _write_out(args.out, text)
    sys.stdout.write(text)
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    if args.limit is not None and args.limit < 1:
        raise ValueError(f"--limit must be positive, got {args.limit}")
    strings = coloring.restricted_growth_strings(args.length, args.max_classes)
    for labels in itertools.islice(strings, args.limit):
        print(" ".join(map(str, labels)))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # Built once per process: parsing leaves no state on the parser.
    parser = argparse.ArgumentParser(
        prog="canvdw",
        description="Witness search and certificates for typed interval colourings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("witness", help="find a witness in a colouring")
    p.add_argument("--colouring", required=True)
    p.add_argument("--mono", help="mono family file")
    p.add_argument("--rainbow", help="rainbow family file")
    _add_policy_flags(p)
    p.add_argument("--out", help="write the certificate to this file")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("verify", help="re-check a certificate against a colouring")
    p.add_argument("--colouring", required=True)
    p.add_argument("--cert", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("number", help="least length with no witness-free colouring")
    _add_search_flags(p)
    p.add_argument("--n-start", type=int, default=1, help="first length to try (default: 1)")
    p.add_argument("--n-limit", type=int, default=12, help="last length to try (default: 12)")
    p.add_argument("--naive", action="store_true", help="use the brute-force oracle engine")
    p.add_argument("--threads", type=int, default=1, help="accepted for compatibility; must be positive, has no effect")
    p.add_argument("--timing", action="store_true", help="include wall time in the report")
    p.add_argument("--out", help="write the run report to this file")
    p.set_defaults(func=_cmd_number)

    p = sub.add_parser("extremal", help="witness-free colourings of a given length")
    _add_search_flags(p)
    p.add_argument("--at-length", type=int, required=True, help="length to enumerate at")
    p.add_argument("--limit", type=int, default=None, help="return at most this many")
    p.add_argument("--out", help="write the colourings to this file")
    p.set_defaults(func=_cmd_extremal)

    p = sub.add_parser("hvalue", help="shift-collision threshold of a family")
    p.add_argument("--family", required=True)
    p.set_defaults(func=_cmd_hvalue)

    p = sub.add_parser("weight", help="weight vector of a family")
    p.add_argument("--family", required=True)
    p.set_defaults(func=_cmd_weight)

    p = sub.add_parser("bstar", help="derived rainbow family of shifted differences")
    p.add_argument("--family", required=True)
    p.add_argument("--h", type=int, default=0, help="shift threshold (default: 0)")
    p.add_argument("--d-cap", type=int, required=True, help="largest step to use")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bstar)

    p = sub.add_parser("scale", help="replace each member p(x) by p(N*x)/N")
    p.add_argument("--family", required=True)
    p.add_argument("--factor", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_scale)

    p = sub.add_parser("enumerate", help="canonical single-coordinate colourings")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--max-classes", type=int, default=None)
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(func=_cmd_enumerate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # The reader of stdout went away (`| head`).  Stop quietly, and point
        # stdout at devnull so that the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except MemoryError:
        print("error: not enough memory for this request", file=sys.stderr)
        return 2
    except (ValueError, OSError, OverflowError, search.EnumerationCapExceeded) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


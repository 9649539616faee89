"""Command-line front end.

Each ``cmd_*`` function computes its result and returns ``(exit code, JSON
payload, text lines)``; ``run()`` is the only writer to stdout and the only
reader of ``--json``, and prints one form or the other.  Diagnostics and
summaries go to stderr, so certificate output can be piped or redirected
directly into files that ``verify`` reads back.  Exit codes: 0 success, 1
domain errors (ineligible progression, value not available/provable, failed
verification), 2 usage errors, 3 exhausted search budget.  JSON output is
canonical: sorted keys, two-space indent, trailing newline, integers that
can outgrow machine words rendered as decimal strings.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import gcd, prod

from . import cover
from .arith import (_decimal_to_int, decimal_excerpt, first_primes,
                    int_to_decimal)
from .cover import (DEFAULT_MAX_COMPUTE_K, MODE_CW, MODE_UNCONDITIONAL, MODES,
                    KnownHTable, SearchBudget, default_h_table, load_h_table)
from .errors import BudgetExceeded, JacobsthalError, NotProvable

# Commands call these as _cli.NAME: the first use binds one here from the
# package, so a command that uses none loads neither certify nor
# progressions, and a wrapper set on this module (perfbench/tracing.py) runs.
# certificate_from_json is bound for that tracer alone: verify decodes its
# file once and checks each item with certify._certificate_from_data.
_DEFERRED = ("certificate_from_json", "certificate_to_json", "coprime_iso",
             "make_eligible")
_cli = sys.modules[__name__]


def __getattr__(name: str):
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(sys.modules[__package__], name)
    return value


# bound-table's indices without --ks: cw mode's lie in its range 50..10000
DEFAULT_BOUND_KS = {
    MODE_UNCONDITIONAL: (5, 10, 15, 20, 25, 30, 35, 40, 45, 50),
    MODE_CW: (50, 100, 200, 500, 1000, 2000, 5000, 10000),
}
# longest argument text an error message echoes in full
_ECHO_CHARS = 40

# what a command returns to run(): exit code, JSON payload, text lines
_Result = tuple[int, object, list[str]]


def _budget(args) -> SearchBudget | None:
    if args.max_nodes is None and args.max_seconds is None:
        return None
    return SearchBudget(args.max_nodes, args.max_seconds)


def _table(args) -> KnownHTable:
    """``--table``, else the packaged table."""
    return load_h_table(args.table) if args.table else default_h_table()


def _diag(message: str) -> None:
    print(message, file=sys.stderr)


def _quoted(text: str) -> str:
    """``repr(text)``, cut to a short prefix when the text is long."""
    if len(text) <= _ECHO_CHARS:
        return repr(text)
    return f"{text[:_ECHO_CHARS]!r}... ({len(text)} characters)"


def _columns(rows) -> list[str]:
    """Rows of text cells, each right-aligned to its column's widest cell,
    two spaces between columns."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    return ["  ".join(cell.rjust(width) for cell, width in zip(row, widths))
            for row in rows]


def _int_at_least(minimum: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            digits = text.strip()
            body = digits[1:] if digits[:1] in ("+", "-") else digits
            if not (body.isascii() and body.isdigit()):
                raise argparse.ArgumentTypeError(
                    f"not an integer: {_quoted(text)}") from None
            # a well-formed number past the interpreter's digit limit
            value = _decimal_to_int(digits.removeprefix("+"))
        if value < minimum:
            shown = value if len(text) <= _ECHO_CHARS else _quoted(text)
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {shown}")
        return value
    return parse


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a number: {_quoted(text)}") from None
    if not value > 0:  # NaN is not positive either
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _k_list(text: str) -> tuple[int, ...]:
    return tuple(map(_int_at_least(1), text.split(",")))


# --- subcommands -------------------------------------------------------------

def cmd_g(args) -> _Result:
    from . import gaps
    result = gaps.g_of(args.n, budget=_budget(args))
    n, start = int_to_decimal(result.n), int_to_decimal(result.witness_start)
    payload = {"n": n, "g": result.g, "witness_start": start,
               "witness_length": result.witness_length}
    lines = [f"g({n}) = {result.g}"]
    if result.witness_length > 0:
        last = int_to_decimal(result.witness_start + result.witness_length - 1)
        lines.append(f"witness: {start}..{last} "
                     f"({result.witness_length} consecutive integers, each "
                     f"sharing a factor with {n})")
    return 0, payload, lines


def cmd_h(args) -> _Result:
    k, table = args.k, _table(args)
    loaded, cap = table.get(k), DEFAULT_MAX_COMPUTE_K
    if args.compute:
        # the engine answers on an empty table; the loaded row only checks it
        table, cap = KnownHTable(), k
    h, source = cover.h_of(k, table, budget=_budget(args), max_compute_k=cap)
    if args.compute and loaded is not None and loaded.h != h:
        raise JacobsthalError(
            f"engine found h({k}) = {h} but the table says {loaded.h}; "
            "refusing to report either")
    # the least run when the period is small enough to scan, else the
    # witness h_of stored with a row it computed (None for a file row)
    least = cover.least_witness(first_primes(k))
    if least is not None and least.length != h - 1:
        raise JacobsthalError(
            f"a scan of one period finds h({k}) = {least.length + 1} but "
            f"the {source} value is {h}; refusing to report either")
    witness = least or table.get(k).witness
    payload = {"k": k, "h": h, "source": source, "witness": None}
    lines = [f"h({k}) = {h} ({source})"]
    if witness is not None:
        payload["witness"] = {"start": str(witness.start),
                              "length": witness.length,
                              "least": least is not None}
        last = witness.start + witness.length - 1
        kind = "least witness" if least else "witness"
        lines.append(f"{kind}: {witness.start}..{last} ({witness.length} "
                     f"consecutive integers, each divisible by one of the "
                     f"first {k} primes)")
    return 0, payload, lines


def cmd_h_search(args) -> _Result:
    ps = first_primes(args.primes)
    assignment = cover.coverable(args.length, ps, budget=_budget(args))
    payload = {"length": args.length, "k": args.primes,
               "coverable": assignment is not None,
               "offsets": None, "witness_start": None}
    if assignment is None:
        return 0, payload, [
            f"not coverable: no offsets for the first {args.primes} primes "
            f"cover {args.length} consecutive integers (exhaustive)"]
    pairs = list(zip(assignment.primes, assignment.offsets))
    witness = cover.witness_integer(assignment)
    start = int_to_decimal(witness.start)
    payload["offsets"] = [[p, c] for p, c in pairs]
    payload["witness_start"] = start
    lines = ["coverable: offsets " + " ".join(f"{p}->{c}" for p, c in pairs)]
    if args.length > 0:
        lines.append(f"witness: {start}.."
                     f"{int_to_decimal(witness.start + witness.length - 1)}")
    return 0, payload, lines


def cmd_witness_lower(args) -> _Result:
    witness = cover.elementary_lower_witness(args.n)
    start = int_to_decimal(witness.start)
    last = int_to_decimal(witness.start + witness.length - 1)
    payload = {"n": args.n, "start": start, "length": witness.length}
    return 0, payload, [f"{start}..{last}: {witness.length} consecutive "
                        f"integers, each divisible by one of the first "
                        f"{args.n} primes"]


def cmd_iso(args) -> _Result:
    ap = _cli.make_eligible(args.a, args.d)
    ps = first_primes(args.k)
    iso = _cli.coprime_iso(ap, ps)
    modulus = prod(ps)
    c = int_to_decimal(iso.c)
    images = [(n, iso(n)) for n in range(-args.window, args.window + 1)]
    rows = [(n, int_to_decimal(x), gcd(n, modulus) == 1,
             gcd(x, modulus) == 1) for n, x in images]
    payload = {"a": ap.a, "d": ap.d, "c": c, "primes": list(ps),
               "rows": [{"n": n, "image": x, "n_coprime": n_ok,
                         "image_coprime": x_ok}
                        for n, x, n_ok, x_ok in rows]}
    prime_set = "{" + ", ".join(str(p) for p in ps) + "}"
    cells = [("n", f"{c}+{ap.d}n")]
    cells += [(f"[{n}]" if n_ok else f"{n}", f"[{x}]" if x_ok else x)
              for n, x, n_ok, x_ok in rows]
    return 0, payload, [
        f"c = {c}: n -> {c} + {ap.d}*n maps Z onto {ap}, "
        f"preserving coprimality to {prime_set}",
        *_columns(cells),
        f"brackets mark integers coprime to {int_to_decimal(modulus)}; "
        "every bracketed n has a bracketed image"]


def cmd_find_prime(args) -> _Result:
    from . import certify
    ap = _cli.make_eligible(args.a, args.d)
    cert = certify.find_prime(ap, _table(args), mode=args.mode)
    # no --json: the text form already is the certificate JSON
    lines = _cli.certificate_to_json(cert).splitlines()
    _diag(f"certified prime {cert.prime} in {ap} "
          f"(k = {cert.k}, c = {decimal_excerpt(cert.c)}, mode {cert.mode})")
    return 0, None, lines


def _json_number(decimal: str) -> int | str:
    """A decimal string as a JSON number, or as itself past the
    interpreter's digit limit, where json can write no such number."""
    try:
        return int(decimal)
    except ValueError:
        return decimal


def cmd_verify(args) -> _Result:
    from . import certify
    with open(args.certificate, "r", encoding="utf-8") as fh:
        data = certify._json_value(fh.read())
    if data == []:
        raise JacobsthalError(f"{args.certificate} holds no certificates")
    certs = [certify._certificate_from_data(item)
             for item in (data if isinstance(data, list) else [data])]
    table = _table(args)
    payload, lines = [], []
    for cert in certs:
        check = certify.verify_certificate(cert, table)
        prime, a, d = map(int_to_decimal, (cert.prime, cert.a, cert.d))
        payload.append({"prime": prime, "a": _json_number(a),
                        "d": _json_number(d), "mode": cert.mode,
                        "ok": check.ok, "failures": list(check.failures)})
        place = f"{prime} in {a}+{d}Z (mode {cert.mode})"
        lines.append(f"ok: {place}" if check.ok else f"FAIL: {place}")
        lines += [f"  - {failure}" for failure in check.failures]
    code = 0 if all(item["ok"] for item in payload) else 1
    return code, payload if isinstance(data, list) else payload[0], lines


def cmd_primes(args) -> _Result:
    from . import certify
    ap = _cli.make_eligible(args.a, args.d)
    try:
        certs, stopped = certify.prime_stream(
            ap, args.count, _table(args), mode=args.mode), None
    except NotProvable as exc:
        if not exc.certificates:
            raise
        certs, stopped = exc.certificates, exc  # print them, then fail
    for cert in certs:
        _diag(f"certified prime {cert.prime} in {cert.a}+{cert.d}Z "
              f"(k = {cert.k})")
    if stopped:
        _diag(f"error: {stopped}")
    payload = [json.loads(_cli.certificate_to_json(cert)) for cert in certs]
    return (1 if stopped else 0), payload, [str(c.prime) for c in certs]


def cmd_bound_table(args) -> _Result:
    from . import bounds
    ks = DEFAULT_BOUND_KS[args.mode] if args.ks is None else args.ks
    rows = bounds.bound_table(ks, _table(args), mode=args.mode)
    payload = [{"k": row.k, "next_prime": row.next_prime, "h": row.h_value,
                "h_source": row.h_source, "value": row.text} for row in rows]
    cells = [("k", "p_{k+1}", "h(k)", "(p_{k+1}^2-2)/(h(k)+1)")]
    cells += [(str(r["k"]), str(r["next_prime"]), str(r["h"]), r["value"])
              for r in payload]
    return 0, payload, _columns(cells)


def cmd_max_d(args) -> _Result:
    from . import bounds
    best, k = bounds.max_provable_d(_table(args), mode=args.mode)
    payload = {"mode": args.mode, "max_d": best, "k": k}
    return 0, payload, [f"max certifiable modulus: {best} (k = {k}, "
                        f"mode {args.mode})"]


# --- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jacobsthal",
        description="Jacobsthal function computations and certified primes "
                    "in arithmetic progressions.")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="machine-readable output (stable byte-for-byte)")

    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--max-nodes", type=_int_at_least(1), default=None,
                        help="abort once the searches for one value pass "
                             "this many nodes")
    budget.add_argument("--max-seconds", type=_positive_float, default=None,
                        help="abort once the searches for one value pass "
                             "this many seconds")

    tableopts = argparse.ArgumentParser(add_help=False)
    tableopts.add_argument("--table", default=None, metavar="PATH",
                           help="h-table file (default: packaged table)")

    modeopt = argparse.ArgumentParser(add_help=False)
    modeopt.add_argument("--mode", choices=MODES, default=MODE_UNCONDITIONAL,
                         help="use exact h values, or the conditional "
                              "quadratic upper bound")

    progression = argparse.ArgumentParser(add_help=False)
    progression.add_argument("a", type=_int_at_least(0))
    progression.add_argument("d", type=_int_at_least(1))

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("g", parents=[common, budget],
                       help="ordinary Jacobsthal function with witness run")
    p.add_argument("n", type=_int_at_least(1))
    p.set_defaults(func=cmd_g)

    p = sub.add_parser("h", parents=[common, budget, tableopts],
                       help="primorial Jacobsthal function h(k)")
    p.add_argument("k", type=_int_at_least(1))
    p.add_argument("--compute", action="store_true",
                   help="run the exact search whatever the table says, and "
                        "cross-check the table")
    p.set_defaults(func=cmd_h)

    p = sub.add_parser("h-search", parents=[common, budget],
                       help="decide whether the first k primes can cover a "
                            "run of the given length")
    p.add_argument("length", type=_int_at_least(0))
    p.add_argument("--primes", type=_int_at_least(1), required=True,
                   metavar="K", help="use the first K primes")
    p.set_defaults(func=cmd_h_search)

    p = sub.add_parser("witness-lower", parents=[common],
                       help="explicit long run of integers sharing factors "
                            "with the first n primes")
    p.add_argument("n", type=_int_at_least(3))
    p.set_defaults(func=cmd_witness_lower)

    p = sub.add_parser("iso", parents=[common, progression],
                       help="coprimality-preserving map onto a progression, "
                            "with a marked window table")
    p.add_argument("--k", type=_int_at_least(1), required=True,
                   help="preserve coprimality to the first K primes")
    p.add_argument("--window", type=_int_at_least(1), default=8,
                   help="tabulate n in [-window, window]")
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("find-prime", parents=[tableopts, modeopt, progression],
                       help="certified prime in an eligible progression "
                            "(certificate JSON on stdout)")
    p.set_defaults(func=cmd_find_prime)

    p = sub.add_parser("verify", parents=[common, tableopts],
                       help="re-check a certificate file (object or array)")
    p.add_argument("certificate", metavar="FILE")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("primes", parents=[common, tableopts, modeopt,
                                          progression],
                       help="stream of distinct certified primes in a "
                            "progression")
    p.add_argument("--count", type=_int_at_least(0), required=True)
    p.set_defaults(func=cmd_primes)

    p = sub.add_parser("bound-table", parents=[common, tableopts, modeopt],
                       help="certifiable-modulus bound for chosen indices")
    p.add_argument("--ks", type=_k_list, metavar="K1,K2,...")
    p.set_defaults(func=cmd_bound_table)

    p = sub.add_parser("max-d", parents=[common, tableopts, modeopt],
                       help="largest modulus certifiable with available "
                            "bounds")
    p.set_defaults(func=cmd_max_d)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, payload, lines = args.func(args)
    except BudgetExceeded as exc:
        _diag(f"budget exhausted: {exc}")
        return 3
    except OSError as exc:  # a path argument that cannot be read
        _diag(f"usage error: {exc}")
        return 2
    except (JacobsthalError, ValueError) as exc:
        _diag(f"error: {exc}")
        return 1
    if getattr(args, "json", False):
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write("".join(line + "\n" for line in lines))
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

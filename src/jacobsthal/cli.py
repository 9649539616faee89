"""Command-line front end.

Results go to stdout, diagnostics and summaries to stderr, so certificate
output can be piped or redirected directly into files that ``verify`` reads
back.  Exit codes: 0 success, 1 domain errors (ineligible progression, value
not available/provable, failed verification), 2 usage errors, 3 exhausted
search budget.  JSON output is canonical: sorted keys, two-space indent,
trailing newline, integers that can outgrow machine words rendered as
decimal strings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from math import gcd, prod

from . import certify, cover, gaps
from .arith import first_primes
from .certify import (MODE_CW, MODE_UNCONDITIONAL, MODES,
                      certificate_from_json, certificate_to_json,
                      int_to_decimal)
from .cover import (DEFAULT_MAX_COMPUTE_K, ComputePolicy, KnownHTable,
                    SearchBudget, default_h_table, load_h_table)
from .errors import BudgetExceeded, JacobsthalError
from .progressions import coprime_iso, make_eligible

H_TABLE_ENV = "JACOBSTHAL_H_TABLE"
DEFAULT_BOUND_KS = (5, 10, 15, 20, 25, 30, 35, 40, 45, 50)


@dataclass
class CliConfig:
    """Resolved invocation settings shared by the subcommands."""

    h_table_path: str | None = None
    mode: str = MODE_UNCONDITIONAL
    max_nodes: int | None = None
    max_seconds: float | None = None
    output_json: bool = False
    max_compute_k: int = DEFAULT_MAX_COMPUTE_K

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.max_nodes is not None and self.max_nodes < 1:
            raise ValueError("node budget must be positive")
        if self.max_seconds is not None and self.max_seconds <= 0:
            raise ValueError("time budget must be positive")

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "CliConfig":
        path = getattr(args, "table", None) or os.environ.get(H_TABLE_ENV)
        return cls(
            h_table_path=path or None,
            mode=getattr(args, "mode", MODE_UNCONDITIONAL),
            max_nodes=getattr(args, "max_nodes", None),
            max_seconds=getattr(args, "max_seconds", None),
            output_json=getattr(args, "json", False),
            max_compute_k=getattr(args, "max_compute_k", DEFAULT_MAX_COMPUTE_K),
        )

    def budget(self) -> SearchBudget | None:
        if self.max_nodes is None and self.max_seconds is None:
            return None
        return SearchBudget(self.max_nodes, self.max_seconds)

    def policy(self, allow_compute: bool = True) -> ComputePolicy:
        return ComputePolicy(allow_compute=allow_compute,
                             max_compute_k=self.max_compute_k,
                             budget=self.budget())

    def load_table(self) -> KnownHTable:
        if self.h_table_path is not None:
            return load_h_table(self.h_table_path)
        return default_h_table()


def _diag(message: str) -> None:
    print(message, file=sys.stderr)


def _emit_json(payload) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _int_at_least(minimum: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not an integer: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}")
        return value
    return parse


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _k_list(text: str) -> tuple[int, ...]:
    try:
        ks = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None
    if not ks or any(k < 1 for k in ks):
        raise argparse.ArgumentTypeError("indices must all be >= 1")
    return ks


# --- subcommands -------------------------------------------------------------

def cmd_g(cfg: CliConfig, args) -> int:
    result = gaps.g_of(args.n, budget=cfg.budget())
    if cfg.output_json:
        _emit_json({"n": str(result.n), "g": result.g,
                    "witness_start": str(result.witness_start),
                    "witness_length": result.witness_length})
        return 0
    print(f"g({result.n}) = {result.g}")
    if result.witness_length > 0:
        last = result.witness_start + result.witness_length - 1
        print(f"witness: {result.witness_start}..{last} "
              f"({result.witness_length} consecutive integers, each sharing "
              f"a factor with {result.n})")
    return 0


def _h_witness(table: KnownHTable, k: int, h: int) -> tuple[cover.CoverWitness | None, bool]:
    """Best display witness for h(k): the least run when the period is small
    enough to sieve, else whatever constructed witness the table holds."""
    ps = first_primes(k)
    if prod(ps) + h - 1 <= cover.LEAST_RUN_SIEVE_LIMIT:
        witness = cover.least_witness(h - 1, ps)
        if witness is not None:
            return witness, True
    entry = table.get(k)
    if entry is not None and entry.witness is not None:
        return entry.witness, False
    return None, False


def cmd_h(cfg: CliConfig, args) -> int:
    table = cfg.load_table()
    k = args.k
    if args.compute:
        length, assignment = cover.max_cover_length(first_primes(k),
                                                    budget=cfg.budget())
        h, source = length + 1, cover.HSOURCE_COMPUTED
        entry = table.get(k)
        if entry is not None and entry.h != h:
            raise JacobsthalError(
                f"engine found h({k}) = {h} but the table says {entry.h}; "
                "refusing to report either")
        table.set(k, h, source, witness=cover.witness_integer(assignment))
    else:
        h, source = cover.h_of(k, table, cfg.policy(allow_compute=not args.table_only))
    witness, is_least = _h_witness(table, k, h)
    if cfg.output_json:
        payload = {"k": k, "h": h, "source": source, "witness": None}
        if witness is not None:
            payload["witness"] = {"start": str(witness.start),
                                  "length": witness.length,
                                  "least": is_least}
        _emit_json(payload)
        return 0
    print(f"h({k}) = {h} ({source})")
    if witness is not None:
        last = witness.start + witness.length - 1
        kind = "least witness" if is_least else "witness"
        print(f"{kind}: {witness.start}..{last} ({witness.length} consecutive "
              f"integers, each divisible by one of the first {k} primes)")
    return 0


def cmd_h_search(cfg: CliConfig, args) -> int:
    ps = first_primes(args.primes)
    assignment = cover.coverable(args.length, ps, budget=cfg.budget())
    if cfg.output_json:
        payload = {"length": args.length, "k": args.primes,
                   "coverable": assignment is not None,
                   "offsets": None, "witness_start": None}
        if assignment is not None:
            payload["offsets"] = [[p, c] for p, c in
                                  zip(assignment.primes, assignment.offsets)]
            payload["witness_start"] = str(cover.witness_integer(assignment).start)
        _emit_json(payload)
        return 0
    if assignment is None:
        print(f"not coverable: no offsets for the first {args.primes} primes "
              f"cover {args.length} consecutive integers (exhaustive)")
        return 0
    offsets = " ".join(f"{p}->{c}" for p, c in
                       zip(assignment.primes, assignment.offsets))
    witness = cover.witness_integer(assignment)
    last = witness.start + witness.length - 1
    print(f"coverable: offsets {offsets}")
    if args.length > 0:
        print(f"witness: {witness.start}..{last}")
    return 0


def cmd_witness_lower(cfg: CliConfig, args) -> int:
    witness = cover.elementary_lower_witness(args.n)
    if cfg.output_json:
        _emit_json({"n": args.n, "start": str(witness.start),
                    "length": witness.length})
        return 0
    last = witness.start + witness.length - 1
    print(f"{witness.start}..{last}: {witness.length} consecutive integers, "
          f"each divisible by one of the first {args.n} primes")
    return 0


def cmd_iso(cfg: CliConfig, args) -> int:
    ap = make_eligible(args.a, args.d)
    ps = first_primes(args.k)
    iso = coprime_iso(ap, ps)
    modulus = prod(ps)
    lo, hi = -args.window, args.window
    rows = [(n, iso(n)) for n in range(lo, hi + 1)]
    if cfg.output_json:
        _emit_json({
            "a": ap.a, "d": ap.d, "c": str(iso.c),
            "primes": list(ps),
            "rows": [{"n": n, "image": str(x),
                      "n_coprime": gcd(n, modulus) == 1,
                      "image_coprime": gcd(x, modulus) == 1}
                     for n, x in rows],
        })
        return 0
    prime_set = "{" + ", ".join(str(p) for p in ps) + "}"
    print(f"c = {iso.c}: n -> {iso.c} + {ap.d}*n maps Z onto {ap}, "
          f"preserving coprimality to {prime_set}")
    cells = []
    for n, x in rows:
        n_cell = f"[{n}]" if gcd(n, modulus) == 1 else f"{n}"
        x_cell = f"[{x}]" if gcd(x, modulus) == 1 else f"{x}"
        cells.append((n_cell, x_cell))
    left = max(len("n"), max(len(c) for c, _ in cells))
    right = max(len(f"{iso.c}+{ap.d}n"), max(len(c) for _, c in cells))
    print(f"{'n':>{left}}  {f'{iso.c}+{ap.d}n':>{right}}")
    for n_cell, x_cell in cells:
        print(f"{n_cell:>{left}}  {x_cell:>{right}}")
    print(f"brackets mark integers coprime to {modulus}; every bracketed n "
          "has a bracketed image")
    return 0


def cmd_find_prime(cfg: CliConfig, args) -> int:
    ap = make_eligible(args.a, args.d)
    table = cfg.load_table()
    cert = certify.find_prime(ap, table, mode=cfg.mode, policy=cfg.policy())
    sys.stdout.write(certificate_to_json(cert))
    _diag(f"certified prime {cert.prime} in {ap} "
          f"(k = {cert.k}, c = {int_to_decimal(cert.c)}, mode {cert.mode})")
    return 0


def cmd_verify(cfg: CliConfig, args) -> int:
    with open(args.certificate, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise JacobsthalError(f"certificate is not valid JSON: {exc}") from exc
    if isinstance(data, list):
        certs = [certificate_from_json(json.dumps(item)) for item in data]
    else:
        certs = [certificate_from_json(text)]
    table = cfg.load_table()
    policy = cfg.policy()
    results = [(cert, certify.verify_certificate(cert, table, policy=policy))
               for cert in certs]
    if cfg.output_json:
        payload = [{"prime": str(cert.prime), "a": cert.a, "d": cert.d,
                    "mode": cert.mode, "ok": check.ok,
                    "failures": list(check.failures)}
                   for cert, check in results]
        _emit_json(payload if isinstance(data, list) else payload[0])
    else:
        for cert, check in results:
            place = f"{cert.prime} in {cert.a}+{cert.d}Z (mode {cert.mode})"
            if check.ok:
                print(f"ok: {place}")
            else:
                print(f"FAIL: {place}")
                for failure in check.failures:
                    print(f"  - {failure}")
    return 0 if all(check.ok for _, check in results) else 1


def cmd_primes(cfg: CliConfig, args) -> int:
    ap = make_eligible(args.a, args.d)
    table = cfg.load_table()
    certs = certify.prime_stream(ap, args.count, table, mode=cfg.mode,
                                 policy=cfg.policy())
    if cfg.output_json:
        payload = [json.loads(certificate_to_json(cert)) for cert in certs]
        _emit_json(payload)
    else:
        for cert in certs:
            print(cert.prime)
    for cert in certs:
        _diag(f"certified prime {cert.prime} in {cert.a}+{cert.d}Z "
              f"(k = {cert.k})")
    return 0


def cmd_bound_table(cfg: CliConfig, args) -> int:
    table = cfg.load_table()
    rows = certify.bound_table(args.ks, table, mode=cfg.mode,
                               policy=cfg.policy())
    if cfg.output_json:
        _emit_json([{"k": row.k, "next_prime": row.next_prime,
                     "h": row.h_value, "h_source": row.h_source,
                     "value": row.text} for row in rows])
        return 0
    header = ("k", "p_{k+1}", "h(k)", "(p_{k+1}^2-2)/(h(k)+1)")
    text_rows = [(str(r.k), str(r.next_prime), str(r.h_value), r.text)
                 for r in rows]
    widths = [max(len(header[i]), max((len(t[i]) for t in text_rows),
                                      default=0))
              for i in range(4)]
    print("  ".join(h.rjust(widths[i]) for i, h in enumerate(header)))
    for t in text_rows:
        print("  ".join(t[i].rjust(widths[i]) for i in range(4)))
    return 0


def cmd_max_d(cfg: CliConfig, args) -> int:
    table = cfg.load_table()
    best, k = certify.max_provable_d(table, mode=cfg.mode)
    if cfg.output_json:
        _emit_json({"mode": cfg.mode, "max_d": best, "k": k})
        return 0
    if k is None:
        print("no bounds available (empty table)")
    else:
        print(f"max certifiable modulus: {best} (k = {k}, mode {cfg.mode})")
    return 0


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
                        help="abort the exact search after this many nodes")
    budget.add_argument("--max-seconds", type=_positive_float, default=None,
                        help="abort the exact search after this many seconds")

    tableopts = argparse.ArgumentParser(add_help=False)
    tableopts.add_argument("--table", default=None, metavar="PATH",
                           help="h-table file (default: packaged table, or "
                                f"${H_TABLE_ENV})")
    tableopts.add_argument("--max-compute-k", type=_int_at_least(1),
                           default=DEFAULT_MAX_COMPUTE_K, metavar="K",
                           help="largest k the engine may compute h(k) for "
                                "when the table lacks it")

    modeopt = argparse.ArgumentParser(add_help=False)
    modeopt.add_argument("--mode", choices=MODES, default=MODE_UNCONDITIONAL,
                         help="use exact h values, or the conditional "
                              "quadratic upper bound")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("g", parents=[common, budget],
                       help="ordinary Jacobsthal function with witness run")
    p.add_argument("n", type=_int_at_least(1))
    p.set_defaults(func=cmd_g)

    p = sub.add_parser("h", parents=[common, budget, tableopts],
                       help="primorial Jacobsthal function h(k)")
    p.add_argument("k", type=_int_at_least(1))
    group = p.add_mutually_exclusive_group()
    group.add_argument("--compute", action="store_true",
                       help="run the exact search even if k is tabulated, "
                            "and cross-check the result")
    group.add_argument("--table-only", action="store_true",
                       help="never compute; fail if k is not tabulated")
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

    p = sub.add_parser("iso", parents=[common],
                       help="coprimality-preserving map onto a progression, "
                            "with a marked window table")
    p.add_argument("a", type=_int_at_least(0))
    p.add_argument("d", type=_int_at_least(1))
    p.add_argument("--k", type=_int_at_least(1), required=True,
                   help="preserve coprimality to the first K primes")
    p.add_argument("--window", type=_int_at_least(1), default=8,
                   help="tabulate n in [-window, window]")
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("find-prime", parents=[common, budget, tableopts,
                                              modeopt],
                       help="certified prime in an eligible progression "
                            "(certificate JSON on stdout)")
    p.add_argument("a", type=_int_at_least(0))
    p.add_argument("d", type=_int_at_least(1))
    p.set_defaults(func=cmd_find_prime)

    p = sub.add_parser("verify", parents=[common, budget, tableopts],
                       help="re-check a certificate file (object or array)")
    p.add_argument("certificate", metavar="FILE")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("primes", parents=[common, budget, tableopts, modeopt],
                       help="stream of distinct certified primes in a "
                            "progression")
    p.add_argument("a", type=_int_at_least(0))
    p.add_argument("d", type=_int_at_least(1))
    p.add_argument("--count", type=_int_at_least(0), required=True)
    p.set_defaults(func=cmd_primes)

    p = sub.add_parser("bound-table", parents=[common, budget, tableopts,
                                               modeopt],
                       help="certifiable-modulus bound for chosen indices")
    p.add_argument("--ks", type=_k_list, default=DEFAULT_BOUND_KS,
                   metavar="K1,K2,...")
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
        cfg = CliConfig.from_args(args)
    except ValueError as exc:
        _diag(f"usage error: {exc}")
        return 2
    try:
        return args.func(cfg, args)
    except BudgetExceeded as exc:
        _diag(f"budget exhausted: {exc}")
        return 3
    except FileNotFoundError as exc:
        _diag(f"usage error: {exc}")
        return 2
    except JacobsthalError as exc:
        _diag(f"error: {exc}")
        return 1
    except ValueError as exc:
        _diag(f"error: {exc}")
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

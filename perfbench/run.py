"""Benchmark of the jacobsthal package: exact values, CLI certificates and
library certificates.

    python3 perfbench/run.py --workload hsweep|certify_cli|certify_lib \\
        --seed N --seconds S --trace 0|1

Run it from a checkout: it imports and starts the package from ``src/``
next to this directory and writes scratch files to ``.perfbench_tmp/``.
One process, one closed-loop client: each op starts after the previous
one ended.  A run measures set-up (fresh processes), then makes a fixed
number of passes over the workload's seeded op list, as many as take about
``--seconds`` seconds on a typical machine.  It checks every output and
prints a summary, a ``context`` line and, last, one JSON object.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` replays each
pass with spans recorded (see ``tracing.py``) and reports the per-layer
metrics.  ``perfbench/README.md`` describes the workloads.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from math import gcd, prod
from pathlib import Path

from stats import SpanTotals, summarize
from tracing import Recorder

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"
TRACE_ENTRY = HERE / "trace_cli.py"
TRACE_OUT = TMP / "trace.json"

# Whole run, set-up included; ops still running then are cut off.
HARD_LIMIT_S = 165.0
CLI_OP_TIMEOUT_S = 60.0
LIB_OP_TIMEOUT_S = 30.0
# Measured set-up starts per run, spread over the run (see run()).
SETUP_SAMPLES = 12

# h(1..17), the reference values every commit must reproduce.
H_REF = (2, 4, 6, 10, 14, 22, 26, 34, 40, 46, 58, 66, 74, 90, 100, 106, 118)
G_KS = range(1, 9)
# An odd count, so the median reject is one K's latency, not a blend of two.
FORGED_TABLE_KS = (9, 10, 11)
# Largest modulus the shipped table certifies unconditionally, and the
# largest that ``max-d --mode cw`` claims.
MAX_D = 76
CW_MAX_D = 42
CLASSES = ("find", "verify", "reject")

# Forged k values: midpoints of equal strata of log k over [55, 100000],
# so every pass prices the same spread of forged primorials.
K_LO, K_HI = 55, 100_000


def log_grid(points: int) -> tuple[int, ...]:
    return tuple(round(K_LO * (K_HI / K_LO) ** ((i + 0.5) / points))
                 for i in range(points))


# Forged-k certificates per certify_lib run, one per point of a log grid.
LIB_K_POINTS = 8
HOSTILE_KINDS = ("k", "h_value", "shift", "composite")
# The clause each kind of forgery must be rejected on.
EXPECTED_CLAUSE = {"k": "h-consistent", "h_value": "h-consistent",
                   "shift": "preimage-coprime", "composite": "primality"}

LIB_SETUP_SNIPPET = (
    "from jacobsthal import default_h_table, find_prime, make_eligible\n"
    f"print(find_prime(make_eligible(1, {MAX_D}), default_h_table()).prime)\n")


class OutOfTime(Exception):
    """The run reached its hard time limit; the current pass stops."""


class OpTimeout(Exception):
    pass


# --- independent checks --------------------------------------------------

def is_prime_by_trial(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def first_primes_by_trial(k: int) -> list[int]:
    out, n = [], 2
    while len(out) < k:
        if is_prime_by_trial(n):
            out.append(n)
        n += 1
    return out


def run_is_covered(start: int, length: int, modulus: int) -> bool:
    return all(gcd(x, modulus) > 1 for x in range(start, start + length))


def refined_moduli(d: int, count: int) -> list[int]:
    """Moduli a prime stream of ``count`` primes passes through: even d
    doubles, odd d quadruples after each prime."""
    out = [d]
    while len(out) < count:
        out.append(out[-1] * (2 if out[-1] % 2 == 0 else 4))
    return out


def scan_candidates(cert) -> int:
    """Elements of a + dZ the certificate's scan tested: from the first one
    >= 2 up to the prime."""
    first = 2 + (cert.a - 2) % cert.d
    return (cert.prime - first) // cert.d + 1


def forge(cert, kind: str, param: int):
    if kind == "k":
        return replace(cert, k=param)
    if kind == "h_value":
        return replace(cert, h_value=cert.h_value + param)
    if kind == "shift":
        return replace(cert, m=cert.m + param, prime=cert.prime + cert.d * param)
    return replace(cert, prime=cert.prime * param)


def hostile_param(kind: str, k: int, grid_point: int, u: float) -> int:
    """The forgery's parameter, drawn from the uniform ``u`` in [0, 1)."""
    if kind == "k":
        return grid_point
    if kind == "h_value":
        return -1 if u < 0.5 else 1
    if kind == "shift":
        # odd, so m + shift is even; log-uniform up to twice the primorial
        j = int(math.exp(u * math.log(prod(first_primes_by_trial(k)))))
        return 2 * max(j, 1) - 1
    small = first_primes_by_trial(25)
    return small[int(u * len(small))]


def names_clause(failures, clause: str) -> bool:
    return any(f.startswith(clause + ":") for f in failures)


# --- ops -----------------------------------------------------------------

@dataclass(slots=True)
class Op:
    cls: str
    seconds: float
    status: str = "ok"  # ok | failed (error, timeout) | wrong (bad output)
    note: str = ""


@dataclass
class Pass:
    ops: list[Op] = field(default_factory=list)
    complete: bool = True
    span_range: tuple[int, int] | None = None
    startups: list[float] = field(default_factory=list)
    certs: list = field(default_factory=list)

    def wall(self) -> float:
        return sum(op.seconds for op in self.ops)


def last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1][:160] if lines else ""


class Bench:
    def __init__(self, started: float):
        self.hard_deadline = started + HARD_LIMIT_S
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("JACOBSTHAL_H_TABLE", "PYTHONPATH")}
        self.env["PYTHONPATH"] = str(SRC)
        self.rec: Recorder | None = None  # set while a traced pass runs
        self._armed = False
        signal.signal(signal.SIGALRM, self._on_alarm)

    def timeout(self, cap: float) -> float:
        left = self.hard_deadline - time.perf_counter()
        if left <= 0:
            raise OutOfTime()
        return min(cap, left)

    # -- in-process calls --------------------------------------------------

    def _on_alarm(self, signum, frame):
        if self._armed:
            raise OpTimeout()

    def call(self, fn, *args):
        """Time one library call with a timeout; returns (seconds, result,
        exception)."""
        timeout = self.timeout(LIB_OP_TIMEOUT_S)
        result = error = None
        signal.setitimer(signal.ITIMER_REAL, timeout)
        self._armed = True
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # the op failed; the run goes on
            error = exc
        finally:
            end = time.perf_counter()
            self._armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
        return end - start, result, error

    # -- fresh processes ---------------------------------------------------

    def cli(self, argv, cls: str, pass_: Pass, stdout_path: Path | None = None,
            command=None):
        """Run one fresh process; returns (op, returncode, stdout, stderr).
        A traced pass runs the CLI through the trace entry point and adds
        the child's spans under this op's span."""
        argv = [str(a) for a in argv]
        traced = self.rec is not None and command is None
        if command is None:
            command = ([sys.executable, str(TRACE_ENTRY), *argv] if traced
                       else [sys.executable, "-m", "jacobsthal", *argv])
        env = dict(self.env)
        timeout = self.timeout(CLI_OP_TIMEOUT_S)
        sink = open(stdout_path, "wb") if stdout_path else subprocess.PIPE
        try:
            if traced:
                TRACE_OUT.unlink(missing_ok=True)
                op_span = self.rec.open(self.rec.name_id("op." + cls))
                env["PERFBENCH_TRACE_OUT"] = str(TRACE_OUT)
                env["PERFBENCH_LAUNCH"] = repr(time.perf_counter())
            start = time.perf_counter()
            try:
                proc = subprocess.run(command, stdout=sink, stderr=subprocess.PIPE,
                                      env=env, cwd=ROOT, timeout=timeout)
                code, out, err = proc.returncode, proc.stdout, proc.stderr
            except subprocess.TimeoutExpired as exc:
                code, out, err = None, exc.stdout, exc.stderr
            end = time.perf_counter()
        finally:
            if stdout_path:
                sink.close()
            if traced:
                self.rec.close(op_span)
        out = (Path(stdout_path).read_bytes() if stdout_path else out) or b""
        out, err = out.decode(errors="replace"), (err or b"").decode(errors="replace")
        op = Op(cls, end - start)
        if code is None:
            op.status, op.note = "failed", f"timeout after {timeout:.0f} s"
        elif traced and TRACE_OUT.exists():
            payload = json.loads(TRACE_OUT.read_text())
            pass_.startups.append(payload["startup_s"])
            base = len(self.rec)
            for name, s, e, parent, tag in payload["spans"]:
                self.rec.add(name, s, e, base + parent if parent >= 0 else op_span, tag)
        pass_.ops.append(op)
        return op, code, out, err


def fail(op: Op, status: str, note: str) -> None:
    op.status, op.note = status, note


# --- workloads -------------------------------------------------------------

class Workload:
    name = ""
    # Sets the pass count, round(seconds / pass_seconds), so that the
    # passes of a run take about the run_seconds of BENCHMARK.json (2
    # hsweep, 4 certify_cli, 21 certify_lib at 30 s).  The CPU speed of a
    # shared host drifts over seconds, so the longer a run measures, the
    # more of that drift its means and medians average out.
    pass_seconds = 1.0
    uses_children = True

    def __init__(self, bench: Bench):
        self.bench = bench

    def prepare(self, rng: random.Random, passes: int) -> None:
        """Untimed warm-up of what the benchmark itself needs."""

    def setup_once(self, pass_: Pass) -> None:
        raise NotImplementedError

    def inputs(self, rng: random.Random, index: int):
        raise NotImplementedError

    def execute(self, inputs, pass_: Pass) -> None:
        raise NotImplementedError

    def check_pass(self, pass_: Pass) -> None:
        """Untimed checks that need the whole pass; CLI ops are checked as
        they end."""

    def context(self) -> dict:
        return {}

    def peak_rss_mb(self) -> float:
        who = resource.RUSAGE_CHILDREN if self.uses_children else resource.RUSAGE_SELF
        return resource.getrusage(who).ru_maxrss / 1024


class CliSetup(Workload):
    def setup_once(self, pass_: Pass) -> None:
        op, code, out, err = self.bench.cli(["max-d", "--json"], "setup", pass_)
        if op.status != "ok":
            return
        if code != 0:
            return fail(op, "failed", f"max-d: exit {code} {last_line(err)}")
        try:
            ok = json.loads(out)["max_d"] == MAX_D
        except (ValueError, KeyError):
            ok = False
        if not ok:
            fail(op, "wrong", f"max-d: {last_line(out)}")


class Hsweep(CliSetup):
    """h(1..17) by exact search, g of the first eight primorials as the sieve
    cross-check, and h --compute against forged tables that the engine
    must refuse."""

    name = "hsweep"
    pass_seconds = 15.0

    def prepare(self, rng, passes) -> None:
        self.primes = first_primes_by_trial(17)
        self.table_text = (SRC / "jacobsthal" / "data" / "h_table.txt").read_text()

    def forged_table(self, k: int, h: int) -> Path:
        rows = [line for line in self.table_text.splitlines()
                if not line.startswith(f"{k},")]
        path = TMP / f"forged_h{k}.txt"
        path.write_text("\n".join(rows + [f"{k},{h},computed"]) + "\n")
        return path

    def inputs(self, rng, index):
        units = [("h", k, None) for k in range(1, 18)]
        units += [("g", k, None) for k in G_KS]
        units += [("forged", k, self.forged_table(k, H_REF[k - 1] + rng.randint(1, 3)))
                  for k in FORGED_TABLE_KS]
        rng.shuffle(units)
        return units

    def execute(self, inputs, pass_):
        for kind, k, table in inputs:
            modulus = prod(self.primes[:k])
            h = H_REF[k - 1]
            if kind == "h":
                op, code, out, err = self.bench.cli(
                    ["h", k, "--compute", "--json"], "find", pass_)
                self.check_h(op, code, out, err, k, h, modulus)
            elif kind == "g":
                op, code, out, err = self.bench.cli(
                    ["g", modulus, "--json"], "verify", pass_)
                self.check_g(op, code, out, err, h, modulus)
            else:
                op, code, out, err = self.bench.cli(
                    ["h", k, "--compute", "--json", "--table", table], "reject", pass_)
                if op.status == "ok" and not (
                        code == 1 and not out and "refusing to report either" in err):
                    fail(op, "wrong" if code == 0 else "failed",
                         f"forged table h({k}): exit {code} {last_line(err)}")

    @staticmethod
    def check_h(op, code, out, err, k, h, modulus):
        if op.status != "ok":
            return
        if code != 0:
            return fail(op, "failed", f"h {k}: exit {code} {last_line(err)}")
        try:
            data = json.loads(out)
            witness = data["witness"]
            ok = (data["k"] == k and data["h"] == h and data["source"] == "computed"
                  and witness["length"] == h - 1
                  and run_is_covered(int(witness["start"]), h - 1, modulus))
        except (ValueError, KeyError, TypeError):
            ok = False
        if not ok:
            fail(op, "wrong", f"h {k}: {out.strip()[:160]}")

    @staticmethod
    def check_g(op, code, out, err, h, modulus):
        if op.status != "ok":
            return
        if code != 0:
            return fail(op, "failed", f"g {modulus}: exit {code} {last_line(err)}")
        try:
            data = json.loads(out)
            start, length = int(data["witness_start"]), data["witness_length"]
            ok = (data["n"] == str(modulus) and data["g"] == h and length == h - 1
                  and run_is_covered(start, length, modulus)
                  and gcd(start - 1, modulus) == 1
                  and gcd(start + length, modulus) == 1)
        except (ValueError, KeyError, TypeError):
            ok = False
        if not ok:
            fail(op, "wrong", f"g {modulus}: {out.strip()[:160]}")


class CertifyBase(Workload):
    """Shared by both certify workloads: a warm table of the benchmark's own
    for re-verifying certificates."""

    def prepare(self, rng, passes) -> None:
        import jacobsthal
        from jacobsthal import certify
        self.jb, self.certify = jacobsthal, certify
        self.check_table = jacobsthal.default_h_table()
        certify.find_prime(jacobsthal.make_eligible(1, MAX_D), self.check_table)

    def cert_ok(self, cert, a: int, d: int, mode: str) -> bool:
        return (cert.d == d and cert.a == a % d and cert.mode == mode
                and cert.prime % d == a % d and is_prime_by_trial(cert.prime)
                and self.certify.verify_certificate(cert, self.check_table).ok)


def strata(lo: int, hi: int, parts: int) -> list[tuple[int, int]]:
    """Split lo..hi into ``parts`` near-equal ranges, for stratified draws."""
    cuts = [lo + round(i * (hi - lo + 1) / parts) for i in range(parts + 1)]
    return [(cuts[i], cuts[i + 1] - 1) for i in range(parts)]


class CertifyCli(CertifyBase, CliSetup):
    """A seeded stream of fresh CLI processes: find-prime to a file then
    verify it, prime streams, and verify of hostile certificate files."""

    name = "certify_cli"
    pass_seconds = 7.0
    # Where a call's cost jumps: an unconditional d above 20 needs k >= 11,
    # so the fresh process reruns the engine for h(10..12) (about 0.35 s);
    # a cw d above 33 hits the 4300-digit limit (a known defect).
    UNCOND_CHEAP_MAX_D = 20
    CW_OK_MAX_D = 33

    def prepare(self, rng, passes) -> None:
        super().prepare(rng, passes)
        # Per pass: 6 unconditional pairs, 2 cw pairs and 2 prime streams.
        # Their d come from strata over the whole run, cut at the cost
        # jumps, so every run has the same number of cheap, expensive and
        # failing calls and its median does not jump between them.
        cheap = round(6 * passes * self.UNCOND_CHEAP_MAX_D / MAX_D)
        cw_fail = max(1, round(passes / 2))
        draws = (
            [("pair", "unconditional", s)
             for s in strata(1, self.UNCOND_CHEAP_MAX_D, cheap)]
            + [("pair", "unconditional", s)
               for s in strata(self.UNCOND_CHEAP_MAX_D + 1, MAX_D, 6 * passes - cheap)]
            + [("pair", "cw", s) for s in strata(1, self.CW_OK_MAX_D, 2 * passes - cw_fail)]
            + [("pair", "cw", s) for s in strata(self.CW_OK_MAX_D + 1, CW_MAX_D, cw_fail)]
            + [("primes", "unconditional", s) for s in strata(1, MAX_D, 2 * passes)])
        rng.shuffle(draws)
        self.plan = [draws[i::passes] for i in range(passes)]
        # one forged k per pass, so a run covers the whole log range once
        self.k_grid = log_grid(passes)
        self.grid_offset = rng.randrange(passes)

    @staticmethod
    def random_pair(rng, lo: int, hi: int) -> tuple[int, int]:
        d = rng.randint(lo, hi)
        return rng.choice([a for a in range(d) if gcd(a, d) == 1]), d

    def inputs(self, rng, index):
        units = [(kind, mode, *self.random_pair(rng, lo, hi), None)
                 for kind, mode, (lo, hi) in self.plan[index]]
        grid_point = self.k_grid[(self.grid_offset + index) % len(self.k_grid)]
        for kind in HOSTILE_KINDS:
            a, d = self.random_pair(rng, 1, MAX_D)
            cert = self.certify.find_prime(self.jb.make_eligible(a, d),
                                           self.check_table)
            forged = forge(cert, kind,
                           hostile_param(kind, cert.k, grid_point, rng.random()))
            path = TMP / f"hostile_{kind}.json"
            path.write_text(self.certify.certificate_to_json(forged))
            units.append(("hostile", kind, a, d, path))
        rng.shuffle(units)
        return units

    def execute(self, inputs, pass_):
        for i, (kind, mode, a, d, path) in enumerate(inputs):
            if kind == "pair":
                self.pair(pass_, mode, a, d, TMP / f"cert_{i}.json")
            elif kind == "primes":
                self.primes(pass_, a, d)
            else:
                self.hostile(pass_, mode, path)

    def pair(self, pass_, mode, a, d, path):
        op, code, out, err = self.bench.cli(
            ["find-prime", a, d, "--mode", mode], "find", pass_, stdout_path=path)
        if op.status != "ok":
            return
        if code != 0:
            return fail(op, "failed", f"find-prime {a} {d} {mode}: exit {code} "
                                      f"{last_line(err)}")
        try:
            cert = self.certify.certificate_from_json(out)
        except self.jb.JacobsthalError:
            return fail(op, "wrong", f"find-prime {a} {d}: unreadable certificate")
        if not self.cert_ok(cert, a, d, mode):
            return fail(op, "wrong", f"find-prime {a} {d}: bad certificate")
        pass_.certs.append(cert)
        op, code, out, err = self.bench.cli(["verify", path], "verify", pass_)
        if op.status == "ok" and not (code == 0 and out.startswith("ok: ")):
            fail(op, "wrong" if code in (0, 1) else "failed",
                 f"verify {a} {d}: exit {code} {last_line(out + err)}")

    def primes(self, pass_, a, d):
        op, code, out, err = self.bench.cli(
            ["primes", a, d, "--count", 3, "--json"], "find", pass_)
        if op.status != "ok":
            return
        completes = all(m <= MAX_D for m in refined_moduli(d, 3))
        if code == 1 and "stream stopped" in err:
            if completes:
                fail(op, "wrong", f"primes {a} {d}: stopped early")
            return
        if code != 0:
            return fail(op, "failed", f"primes {a} {d}: exit {code} {last_line(err)}")
        try:
            certs = [self.certify.certificate_from_json(json.dumps(item))
                     for item in json.loads(out)]
        except (ValueError, self.jb.JacobsthalError):
            return fail(op, "wrong", f"primes {a} {d}: unreadable output")
        ok = (completes and len(certs) == 3
              and len({c.prime for c in certs}) == 3
              and all(c.prime % d == a % d and c.d % d == 0
                      and self.cert_ok(c, c.a, c.d, "unconditional") for c in certs))
        if not ok:
            return fail(op, "wrong", f"primes {a} {d}: bad stream")
        pass_.certs.extend(certs)

    def hostile(self, pass_, kind, path):
        op, code, out, err = self.bench.cli(["verify", path], "reject", pass_)
        if op.status != "ok":
            return
        clause = EXPECTED_CLAUSE[kind]
        if code == 1 and f"  - {clause}:" in out:
            return
        if code in (0, 1):
            fail(op, "wrong", f"hostile {kind}: exit {code} {last_line(out)}")
        else:
            fail(op, "failed", f"hostile {kind}: exit {code} {last_line(err)}")


class CertifyLib(CertifyBase):
    """One warm process: find_prime, JSON round trip and verify for every
    eligible pair with d <= 76, then hostile certificates to reject."""

    name = "certify_lib"
    pass_seconds = 1.4
    uses_children = False
    # Hostile certificates of each cheap kind per pass: a few thousand per
    # run, so the reject tail (p99) is an order statistic among dozens of
    # similar ops.  The forged-k ones are spread over the run, see prepare().
    HOSTILE_COUNTS = {"h_value": 64, "shift": 64, "composite": 64}

    def prepare(self, rng, passes) -> None:
        super().prepare(rng, passes)
        self.table = self.jb.default_h_table()
        self.certify.find_prime(self.jb.make_eligible(1, MAX_D), self.table)
        # fill the package's prime cache up front, so the first large forged
        # k of a run does not pay for sieving
        self.jb.first_primes(K_HI + 1)
        self.pairs = [(a, d) for d in range(1, MAX_D + 1) for a in range(d)
                      if gcd(a, d) == 1]
        # One log grid of forged k per run, one point in each of
        # LIB_K_POINTS seeded passes: a run prices the whole range once, and
        # the reject tail rests on the many cheap rejects, not on the 1-2
        # forged k that dominate a pass.
        slots = list(range(passes)) * -(-LIB_K_POINTS // passes)
        rng.shuffle(slots)
        self.forged_k = {}
        for slot, k in zip(slots, log_grid(LIB_K_POINTS)):
            self.forged_k.setdefault(slot, []).append(k)
        self.reference: dict | None = None
        self.stream_sha256 = ""

    def setup_once(self, pass_: Pass) -> None:
        op, code, out, err = self.bench.cli(
            [], "setup", pass_, command=[sys.executable, "-c", LIB_SETUP_SNIPPET])
        if op.status != "ok":
            return
        if code != 0:
            return fail(op, "failed", f"library set-up: exit {code} {last_line(err)}")
        try:
            prime = int(out)
        except ValueError:
            prime = 0
        if not (prime % MAX_D == 1 and is_prime_by_trial(prime)):
            fail(op, "wrong", f"library set-up: {last_line(out)}")

    def inputs(self, rng, index):
        order = self.pairs[:]
        rng.shuffle(order)
        hostile = [("k", *rng.choice(self.pairs), rng.random(), k)
                   for k in self.forged_k.get(index, ())]
        for kind, count in self.HOSTILE_COUNTS.items():
            # stratified draws: every pass prices the same spread of shifts
            for i in range(count):
                hostile.append((kind, *rng.choice(self.pairs),
                                (i + rng.random()) / count, 0))
        rng.shuffle(hostile)
        return order, hostile

    def execute(self, inputs, pass_):
        order, hostile = inputs
        certify, make_eligible, call = self.certify, self.jb.make_eligible, self.bench.call
        table = self.table
        self.results, self.rejects = {}, []
        for a, d in order:
            ap = make_eligible(a, d)
            t, cert, error = call(certify.find_prime, ap, table)
            find = Op("find", t)
            pass_.ops.append(find)
            if error is not None:
                fail(find, "failed", f"find_prime {a} {d}: {error!r}"[:160])
                continue
            t, text, error = call(certify.certificate_to_json, cert)
            pass_.ops.append(Op("json", t, "failed" if error else "ok"))
            if error is not None:
                continue
            t, parsed, error = call(certify.certificate_from_json, text)
            pass_.ops.append(Op("json", t, "failed" if error else "ok"))
            if error is not None:
                continue
            t, check, error = call(certify.verify_certificate, parsed, table)
            verify = Op("verify", t)
            pass_.ops.append(verify)
            if error is not None:
                fail(verify, "failed", f"verify {a} {d}: {error!r}"[:160])
            self.results[a, d] = (find, cert, text, parsed, verify, check)
        for kind, a, d, u, grid_point in hostile:
            if (a, d) not in self.results:
                continue
            cert = self.results[a, d][1]
            forged = forge(cert, kind, hostile_param(kind, cert.k, grid_point, u))
            t, check, error = call(certify.verify_certificate, forged, table)
            op = Op("reject", t)
            pass_.ops.append(op)
            self.rejects.append((op, kind, check, error))

    def check_pass(self, pass_: Pass) -> None:
        texts = {}
        for (a, d), (find, cert, text, parsed, verify, check) in self.results.items():
            if find.status != "ok":
                continue
            if not self.cert_ok(cert, a, d, "unconditional") or parsed != cert:
                fail(find, "wrong", f"find_prime {a} {d}: bad certificate")
                continue
            pass_.certs.append(cert)
            texts[a, d] = text
            if verify.status == "ok" and not check.ok:
                fail(verify, "wrong", f"verify {a} {d}: {check.failures}"[:160])
        for op, kind, check, error in self.rejects:
            clause = EXPECTED_CLAUSE[kind]
            if error is not None:
                fail(op, "failed", f"hostile {kind}: {error!r}"[:160])
            elif check.ok or not names_clause(check.failures, clause):
                fail(op, "wrong", f"hostile {kind}: {check.failures}"[:160])
        if self.reference is None:
            self.reference = texts
            digest = hashlib.sha256()
            for key in sorted(texts, key=lambda ad: (ad[1], ad[0])):
                digest.update(texts[key].encode())
            self.stream_sha256 = digest.hexdigest()
        else:
            for key, text in texts.items():
                if self.reference.get(key, text) != text:
                    find = self.results[key][0]
                    fail(find, "wrong", f"find_prime {key}: certificate changed "
                                        "between passes")

    def context(self) -> dict:
        return {"certificate_stream_sha256": self.stream_sha256,
                "certificate_stream_pairs": len(self.reference or ())}


WORKLOADS = {w.name: w for w in (Hsweep, CertifyCli, CertifyLib)}


# --- metrics ----------------------------------------------------------------

def end_to_end(workload: Workload, passes: list[Pass],
               setup: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics and the sample behind each tail."""
    complete = [p for p in passes if p.complete] or passes
    metrics = {"wall_s": (statistics.fmean(p.wall() for p in complete), "s")}
    tails = {}
    for cls in CLASSES:
        summary = summarize([op.seconds * 1000 for p in passes for op in p.ops
                             if op.cls == cls])
        metrics[f"{cls}_p50_ms"] = (summary["p50"], "ms")
        metrics[f"{cls}_tail_ms"] = (summary["tail"], "ms")
        tails[cls] = {"n": summary["n"], "tail_percentile": summary["tail_q"]}
    metrics["setup_s"] = (statistics.median(setup) if setup else 0.0, "s")
    metrics["peak_rss_mb"] = (workload.peak_rss_mb(), "MB")
    return metrics, tails


def per_layer(p: Pass, rec: Recorder) -> dict:
    t = SpanTotals(rec.spans(*p.span_range))

    def ms(name: str) -> float:
        return t.total(name) * 1000

    h_calls = t.count("cover.h_of")
    candidates = sum(scan_candidates(c) for c in p.certs)
    metrics = {
        "cli.startup_ms": statistics.median(p.startups) * 1000 if p.startups else 0.0,
        "cli.self_ms": t.self_total("cli.run") * 1000,
        "cover.table_load_ms": ms("cover.table_load"),
        "cover.h_of.calls": h_calls,
        "cover.h_of.computed": t.tag_count("cover.h_of", 1),
        "cover.h_of.table_hit_ratio": (t.tag_count("cover.h_of", 0) / h_calls
                                       if h_calls else 0.0),
        "cover.max_cover_length.ms": ms("cover.max_cover_length"),
        "cover.coverable.calls": t.count("cover.coverable"),
        "cover.coverable.ms": ms("cover.coverable"),
    }
    for k in range(11, 18):
        metrics[f"cover.k{k}.ms"] = t.tag_total("cover.max_cover_length", k) * 1000
    metrics.update({
        "gaps.g_of.calls": t.count("gaps.g_of"),
        "gaps.g_of.ms": ms("gaps.g_of"),
        "progressions.coprime_iso.calls": t.count("progressions.coprime_iso"),
        "progressions.coprime_iso.ms": ms("progressions.coprime_iso"),
        "certify.find_prime.self_ms": t.self_total("certify.find_prime") * 1000,
        "certify.min_k_for.ms": ms("certify.min_k_for"),
        "certify.bound.calls": t.count("certify.bound"),
        "certify.scan.candidates": candidates,
        "certify.scan.hit_ratio": len(p.certs) / candidates if candidates else 0.0,
        "certify.verify.ms": t.tag_total("certify.verify_certificate", 1) * 1000,
        "certify.reject.ms": (t.tag_total("certify.verify_certificate", 0)
                              + t.tag_total("certify.verify_certificate", -1)) * 1000,
        "certify.json.ms": ms("certify.json"),
        "arith.is_prime.calls": t.count("arith.is_prime"),
        "arith.is_prime.ms": ms("arith.is_prime"),
        "arith.primorial.calls": t.count("arith.primorial"),
        "arith.primorial.ms": ms("arith.primorial"),
        "arith.crt_solve.ms": ms("arith.crt_solve"),
        "arith.first_primes.ms": ms("arith.first_primes"),
    })
    return metrics


def layer_unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    return "ratio" if name.endswith("ratio") else "count"


# --- main ---------------------------------------------------------------------

def settle() -> None:
    """Untimed, before each pass: collect garbage, then move every object
    alive now out of the collector's reach.  Collections inside the timed
    ops then scan what the package allocates during the pass, not the
    benchmark's growing record of earlier passes."""
    gc.collect()
    gc.freeze()


def run(args) -> dict:
    started = time.perf_counter()
    bench = Bench(started)
    workload = WORKLOADS[args.workload](bench)
    rng = random.Random(f"{args.workload}:{args.seed}")
    # Every run of a workload does the same number of passes, sized so the
    # passes take about --seconds; a traced run replays each pass, so it
    # does half as many.
    count = max(1, round(args.seconds / workload.pass_seconds))
    if args.trace:
        count = max(1, count // 2)
    workload.prepare(rng, count)

    setup_pass = Pass()
    workload.setup_once(setup_pass)  # unmeasured: warms the file caches
    # The measured set-up starts go before each pass and after the last, a
    # few at a time, so their median spans the run's drift in CPU speed.
    slots = Counter(i * (count + 1) // SETUP_SAMPLES for i in range(SETUP_SAMPLES))

    def set_up(slot: int) -> None:
        for _ in range(slots[slot]):
            workload.setup_once(setup_pass)

    passes, traced, overheads = [], [], []
    rec = Recorder() if args.trace else None
    for index in range(count + 1):
        current = Pass()
        try:
            set_up(index)
            if index == count:
                break
            inputs = workload.inputs(rng, index)
            passes.append(current)
            settle()
            workload.execute(inputs, current)
            workload.check_pass(current)
            # only traced passes read their certificates (per_layer); the
            # rest would fill certify_lib's peak_rss_mb with benchmark records
            current.certs.clear()
            if rec is not None:
                current = Pass()
                traced.append(current)
                lo = len(rec)
                bench.rec = rec
                if not workload.uses_children:
                    rec.install()
                try:
                    settle()
                    workload.execute(inputs, current)
                finally:
                    rec.uninstall()
                    bench.rec = None
                    current.span_range = (lo, len(rec))
                workload.check_pass(current)
                overheads.append(current.wall() - passes[-1].wall())
        except OutOfTime:
            if any(current is p for p in (*passes[-1:], *traced[-1:])):
                current.complete = False
                workload.check_pass(current)
            break
    setup = [op.seconds for op in setup_pass.ops[1:]]

    all_ops = [op for p in [setup_pass, *passes, *traced] for op in p.ops]
    attempted = len(all_ops)
    failed = sum(op.status != "ok" for op in all_ops)
    correct = not any(op.status == "wrong" for op in all_ops)
    notes = Counter(op.note for op in all_ops if op.status != "ok")

    e2e, tails = end_to_end(workload, passes, setup)
    shown = e2e
    if rec is not None:
        done = [q for q in traced if q.complete] or traced or [Pass(span_range=(0, 0))]
        layers = [per_layer(q, rec) for q in done]
        shown = {name: (statistics.fmean(m[name] for m in layers), layer_unit(name))
                 for name in layers[0]}
        shown["trace.overhead_s"] = (statistics.fmean(overheads) if overheads else 0.0,
                                     "s")
    for name, (value, unit) in shown.items():
        print(f"{args.workload:12s} {name:34s} {value:14.6f} {unit}")
    counts = Counter(op.cls for p in passes for op in p.ops)
    context = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "python": sys.version.split()[0],
        "nproc": os.cpu_count(), "passes": len(passes),
        "ops_per_class": dict(counts), "tails": tails,
        "fail_ratio": failed / attempted,
        "wall_s_per_pass": [p.wall() for p in passes],
        "failures": dict(notes.most_common(8)),
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
        **workload.context(),
    }
    if rec is not None:
        context["trace_overhead_s"] = overheads
        context["spans"] = len(rec)
    print("context " + json.dumps(context, sort_keys=True))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in shown.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "jacobsthal" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # A stop request unwinds like an error: the running child is killed and
    # waited for, and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    TMP.mkdir(exist_ok=True)
    try:
        result = run(args)
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

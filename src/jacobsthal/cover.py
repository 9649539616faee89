"""Exact residue covers of integer intervals by prime sets.

A length-L cover assigns each prime p an offset c_p so that every position
in ``[0, L)`` is ≡ c_p (mod p) for some p; equivalently, L consecutive
integers can each be divisible by one of the primes.  The largest coverable
L for the first k primes is exactly ``h(k) - 1``, where h is the primorial
Jacobsthal function.  The search below is exact: a ``None`` answer is a
proof of impossibility, and budget exhaustion raises instead of answering.

Prime 2 never enters the search.  For a prime set S that contains 2,
``[0, L)`` is coverable by S exactly when ``[0, L // 2)`` is coverable by
``S - {2}``: with 2 at offset 0, odd position ``2i + 1`` is position i of
the smaller problem, and offset 1 leaves more positions.  Hence
``g(2m) = 2 g(m)`` for odd m.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from typing import NamedTuple

# is_prime stays bound here for the benchmark's tracer (perfbench/tracing.py)
from .arith import (crt_solve, decimal_excerpt,  # noqa: F401
                    first_longest_run, first_primes, is_decimal, is_prime,
                    nth_prime, quoted_excerpt, validated_primes)
from .errors import (BudgetExceeded, JacobsthalError, TableParseError,
                     TableValidationError, Unavailable)

HSOURCE_PAPER = "paper"
HSOURCE_COMPUTED = "computed"
H_SOURCES = frozenset({HSOURCE_PAPER, HSOURCE_COMPUTED})

# the bounds on h(k), here so the CLI parser need not load bounds or certify
MODE_UNCONDITIONAL = "unconditional"
MODE_CW = "cw"
MODES = (MODE_UNCONDITIONAL, MODE_CW)

# Largest product of small primes whose offsets the search enumerates
# outright (the wheel) before it branches on the leftmost hole.
WHEEL_PRODUCT_CAP = 30030

DEFAULT_MAX_COMPUTE_K = 12

# Largest search _Search will build: positions searched (after halving),
# and primes times positions, which bounds its state: one base mask of n
# bits and at most n / 2 counts per prime.
_MAX_POSITIONS = 1 << 17
_MAX_STATE = 1 << 25


class CoverAssignment(NamedTuple):
    """Offsets ``offsets[i]`` for ``primes[i]`` covering ``[0, length)``."""

    primes: tuple[int, ...]
    offsets: tuple[int, ...]
    length: int

    def is_valid(self) -> bool:
        marks = bytearray(max(self.length, 0))
        for p, c in zip(self.primes, self.offsets):
            r = c % p
            marks[r::p] = b"\x01" * len(range(r, self.length, p))
        return 0 not in marks


class CoverWitness(NamedTuple):
    """``length`` consecutive integers from ``start``, each divisible by an
    assigned prime; equivalently a concrete non-coprime run."""

    start: int
    length: int


class SearchBudget(NamedTuple):
    """Optional limits for the exact search; hitting one raises
    :class:`BudgetExceeded` (never a fake negative).  One budget bounds one
    :func:`coverable` call, or a whole :func:`max_cover_length` walk."""

    max_nodes: int | None = None
    max_seconds: float | None = None


class _Allowance:
    """A budget as the searches charged to it spend it: the nodes spent so
    far and one deadline.  The budget itself is never changed."""

    def __init__(self, budget: SearchBudget | None):
        self.spent = 0
        self.max_nodes = budget.max_nodes if budget else None
        self.deadline = (time.monotonic() + budget.max_seconds
                         if budget and budget.max_seconds is not None else None)


def _validated_primes(primes) -> tuple[int, ...]:
    ps = validated_primes(primes)
    if not ps:
        raise ValueError("need at least one prime")
    return ps


class _Search:
    """One exact cover search over a fixed interval length and prime set;
    only :func:`coverable` builds one, and never with prime 2 in the set."""

    def __init__(self, length: int, primes: tuple[int, ...],
                 allowance: _Allowance):
        self.length = length
        self.primes = primes
        # bases[i] marks the multiples of primes[i] in [0, length), a
        # repunit in base 2^p (only position 0 once p >= length, where
        # 2^p could be huge); offset c covers (bases[i] << c) & uncov of
        # the uncovered set, formed where it is read.
        self.bases = [((1 << p * -(-length // p)) - 1) // ((1 << p) - 1)
                      if p < length else min(length, 1) for p in primes]
        # counts[i][c] = |(bases[i] << c) & uncov| for the uncovered set of
        # the node being searched, at the root (length - 1 - c) // p + 1.
        # Only primes with 2p < length have a table: their caps start at
        # ceil(length/p) >= 3, and a table is kept in step exactly while the
        # prime's cap stays above 2.  Caps of 2 and 1 are settled from the
        # uncovered set itself (see _capacity_prune).
        self.counts = [[(length - 1 - c) // p + 1 for c in range(p)]
                       if 2 * p < length else None for p in primes]
        # Two positions share a residue class of p when they differ by one
        # of these multiples of p.
        self.strides = [tuple(range(p, length, p)) for p in primes]
        self.allowance = allowance  # spent per node, so a stop keeps it

    def _tick(self) -> None:
        allowance = self.allowance
        allowance.spent += 1
        spent, limit = allowance.spent, allowance.max_nodes
        if limit is not None and spent > limit:
            raise BudgetExceeded(f"cover search passed {limit} nodes")
        if (allowance.deadline is not None and spent % 1024 == 1
                and time.monotonic() > allowance.deadline):
            raise BudgetExceeded("cover search passed its time budget")

    def _shift(self, hit: int, live, step: int) -> None:
        """Add ``step`` to the counts of every position in ``hit``, for the
        primes listed in ``live``: -1 as a branch covers them, +1 as it
        gives them back."""
        positions = []
        while hit:
            low = hit & -hit
            hit ^= low
            positions.append(low.bit_length() - 1)
        for j in live:
            row, p = self.counts[j], self.primes[j]
            for u in positions:
                row[u % p] += step

    def _capacity_prune(self, uncov: int, rem, caps: list[int], need: int) -> bool:
        """True when remaining primes provably cannot cover ``need`` positions.
        Tightens cached caps lazily and stops as soon as pruning is ruled out.

        A prime's cap is the most uncovered positions one of its offsets can
        hit (at least 1), never above the bound an ancestor cached in
        ``caps``: the largest count when the cap is above 2, else whether
        two uncovered positions share a residue class."""
        total = 0
        counts, strides = self.counts, self.strides
        for i in rem:
            c = caps[i]
            if c > 2:
                best = max(counts[i])
                if best < c:
                    c = caps[i] = best if best > 1 else 1
            elif c == 2:
                for s in strides[i]:
                    if uncov & (uncov >> s):
                        break
                else:
                    c = caps[i] = 1
            total += c
            if total >= need:
                return False
        return True

    def _finish(self, uncov: int, rem) -> dict[int, int]:
        # Any prime can take any single position, so |uncovered| <= |rem|
        # is immediately feasible: hand out one position per prime.
        offsets: dict[int, int] = {}
        j = 0
        while uncov:
            pos = (uncov & -uncov).bit_length() - 1
            uncov &= uncov - 1
            p = self.primes[rem[j]]
            offsets[p] = pos % p
            j += 1
        for i in rem[j:]:
            offsets[self.primes[i]] = 0
        return offsets

    # -- the search: one node rule, two ways to branch ----------------------
    #
    # The first ``wheel`` primes of ``rem`` are still wheel primes (Ziller &
    # Morack): while there are any, a node branches on every offset of the
    # next one; after them, on whoever covers the leftmost uncovered
    # position.  Once the small primes are fixed the surviving positions are
    # sparse and the capacity bound on the rest is close to tight.  Every
    # node but the wheel's root makes the same checks, and the caps a node
    # tightens hold for its whole subtree.

    def search(self) -> dict[int, int] | None:
        width, product = 0, 1
        while (width < len(self.primes)
               and product * self.primes[width] <= WHEEL_PRODUCT_CAP
               and self.primes[width] <= self.length // 4):
            product *= self.primes[width]
            width += 1
        caps = [-(-self.length // p) for p in self.primes]
        return self._node((1 << self.length) - 1,
                          tuple(range(len(self.primes))), caps, width)

    def _node(self, uncov: int, rem: tuple[int, ...], caps: list[int],
              wheel: int) -> dict[int, int] | None:
        need = uncov.bit_count()
        root = len(rem) == len(self.primes)
        if not (root and wheel):  # the wheel's root is uncounted and unchecked
            self._tick()
            if need <= len(rem):
                return self._finish(uncov, rem)
            caps = caps[:]
            if self._capacity_prune(uncov, rem, caps, need):
                return None
        primes, bases = self.primes, self.bases
        branches = []
        if wheel:
            i = rem[0]
            p = primes[i]
            seen: set[int] = set()
            for c in range(p):
                # Reflection x -> length-1-x maps covers to covers: keep one
                # offset per orbit {c, (length-1-c) mod p} of the first prime.
                if root and c > (self.length - 1 - c) % p:
                    continue
                hit = (bases[i] << c) & uncov
                if hit not in seen:  # same survivor set, same subtree
                    seen.add(hit)
                    branches.append((hit.bit_count(), -p, 0, i, c, hit))
        else:
            u0 = (uncov & -uncov).bit_length() - 1
            for at, i in enumerate(rem):
                p = primes[i]
                c = u0 % p
                hit = (bases[i] << c) & uncov
                branches.append((hit.bit_count(), -p, at, i, c, hit))
            branches.sort(reverse=True)  # biggest bite first, small prime on ties
        spare = sum([caps[j] for j in rem])
        live = [j for j in rem if caps[j] > 2]  # whose counts children read
        for bite, _, at, i, c, hit in branches:
            child_need = need - bite
            if child_need >= len(rem) and spare - caps[i] < child_need:
                # The child keeps more uncovered positions than primes, and
                # the caps cached here already sum below that, so its
                # capacity check fails: count the node and skip it.
                self._tick()
                continue
            # i's own counts shift too: the child drops i, so never reads them
            self._shift(hit, live, -1)
            sub = self._node(uncov ^ hit, rem[:at] + rem[at + 1:], caps,
                             wheel - 1 if wheel else 0)
            self._shift(hit, live, 1)
            if sub is not None:
                sub[primes[i]] = c
                return sub
        return None


def coverable(length: int, primes,
              budget: SearchBudget | _Allowance | None = None
              ) -> CoverAssignment | None:
    """Exact decision: return a covering assignment for ``[0, length)`` or
    ``None`` when none exists.  Deterministic for fixed inputs.  A set with
    2 is decided on half the length without it (module docstring): an offset
    c of an odd prime q there lifts to ``(2c + 1) mod q``.  A walk of
    :func:`max_cover_length` passes one allowance to all its searches."""
    ps = _validated_primes(primes)
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    if length == 0:
        return CoverAssignment(ps, (0,) * len(ps), 0)
    allowance = (budget if isinstance(budget, _Allowance)
                 else _Allowance(budget))
    halve = ps[0] == 2
    n = length // 2 if halve else length
    if n > _MAX_POSITIONS:
        raise BudgetExceeded(
            f"a cover search over {decimal_excerpt(n)} positions passes the "
            f"limit of {_MAX_POSITIONS}")
    state = (len(ps) - halve) * n
    if state > _MAX_STATE:
        raise BudgetExceeded(
            f"a cover search of {len(ps) - halve} primes over {n} positions "
            f"passes the limit of {_MAX_STATE} primes times positions")
    search = _Search(n, ps[halve:], allowance)
    found = search.search()
    if found is None:
        return None
    if halve:
        found = {q: (2 * c + 1) % q for q, c in found.items()} | {2: 0}
    assignment = CoverAssignment(ps, tuple(found[p] for p in ps), length)
    if not assignment.is_valid():
        raise JacobsthalError(
            f"internal: search offsets do not cover length {length} for {ps}")
    return assignment


def max_cover_length(primes, budget: SearchBudget | None = None
                     ) -> tuple[int, CoverAssignment]:
    """Largest coverable length L* for this prime set, with a witness.

    Walks upward from the elementary cover (the first k >= 3 primes) or one
    position, keeping the last cover while it passes ``is_valid`` one
    position longer, else searching; the final refusal at L*+1 is an
    exhaustive proof.  L* is deterministic; the witness is one valid choice.
    """
    ps = _validated_primes(primes)
    k = len(ps)
    assignment = (_elementary_cover(ps) if k >= 3 and ps == first_primes(k)
                  else CoverAssignment(ps, (0,) * k, 1))
    if not assignment.is_valid():
        raise JacobsthalError(f"internal: start cover fails for {ps}")
    allowance = _Allowance(budget)
    while True:
        longer = assignment._replace(length=assignment.length + 1)
        if not longer.is_valid():  # else keep it: it reaches further
            longer = coverable(longer.length, ps, budget=allowance)
        if longer is None:
            return assignment.length, assignment
        assignment = longer


def verify_cover(start: int, length: int, primes) -> bool:
    """Check that ``start .. start+length-1`` each share a factor with the
    product of ``primes``.  Empty runs are trivially valid."""
    ps = _validated_primes(primes)
    offsets = tuple(-start % p for p in ps)
    return CoverAssignment(ps, offsets, length).is_valid()


def witness_integer(assignment: CoverAssignment) -> CoverWitness:
    """Concrete run realizing an assignment: the least positive start with
    ``start + i ≡ 0 (mod p)`` whenever position i is assigned to p."""
    congruences = [(-c % p, p) for p, c in
                   zip(assignment.primes, assignment.offsets)]
    start, modulus = crt_solve(congruences)
    if start == 0:
        start = modulus
    if not verify_cover(start, assignment.length, assignment.primes):
        raise JacobsthalError(f"internal: run from {start} is not covered")
    return CoverWitness(start, assignment.length)


def least_witness(primes) -> CoverWitness | None:
    """The first longest positive run of integers each divisible by one of
    ``primes``, from ``arith.first_longest_run``: for the first k primes
    its length is h(k) - 1 and no run of that length starts earlier.
    ``None`` when the period is too large to scan."""
    run = first_longest_run(_validated_primes(primes))
    return None if run is None else CoverWitness(*run)


def _elementary_cover(ps: tuple[int, ...]) -> CoverAssignment:
    """The cover of ``[0, 2p - 1)`` by the first n >= 3 primes, p = p_{n-1}.

    Every prime up to p_{n-2} takes the centre position p - 1, p_{n-1}
    takes p - 2 and p_n takes p.  Any other position lies 2 to p - 1 from
    the centre, a distance with a prime factor at most p_{n-2} (no prime
    lies strictly between p_{n-2} and p_{n-1}), whose class holds it.
    """
    p = ps[-2]
    offsets = tuple((p - 1) % q for q in ps[:-2]) + (p - 2, p)
    return CoverAssignment(ps, offsets, 2 * p - 1)


def elementary_lower_witness(n: int) -> CoverWitness:
    """A run of ``2*p_{n-1} - 1`` integers, each divisible by one of the first
    n >= 3 primes: :func:`witness_integer` of the elementary cover."""
    if n < 3:
        raise ValueError(f"the construction needs n >= 3, got {n}")
    return witness_integer(_elementary_cover(first_primes(n)))


# --- known-value table -------------------------------------------------------


class HEntry(NamedTuple):
    h: int
    source: str
    witness: CoverWitness | None = None


def _validate_h(k: int, h: int) -> None:
    if k < 1:
        raise TableValidationError(
            f"index k must be >= 1, got {decimal_excerpt(k)}")
    try:  # a row past the prime-index cap is refused as a row
        floor = 2 * nth_prime(k - 1) if k >= 2 else 2
    except BudgetExceeded as exc:
        raise TableValidationError(f"k is too large: {exc}") from None
    if h < 2:
        raise TableValidationError(
            f"h({k}) = {decimal_excerpt(h)} is impossible (h >= 2)")
    if h < floor:
        raise TableValidationError(
            f"h({k}) = {h} violates the elementary bound 2*p_{k-1} = {floor}")


class KnownHTable:
    """Known values of the primorial Jacobsthal function h(k).

    Read-mostly; rows enter only through :meth:`set`, which checks them and
    writes under a lock, and entries computed by the engine carry their
    verified witness in memory (the text format only persists
    ``k,h,source``).  :func:`h_of` holds a second lock from its miss to its
    insert, so threads sharing a table compute each missing value once.
    """

    def __init__(self):
        self._entries: dict[int, HEntry] = {}
        self._derived: dict = {}  # what callers derive from the rows
        self._lock = threading.Lock()
        self._compute_lock = threading.Lock()

    def get(self, k: int) -> HEntry | None:
        return self._entries.get(k)

    def set(self, k: int, h: int, source: str,
            witness: CoverWitness | None = None) -> None:
        if source not in H_SOURCES:
            raise TableValidationError(
                f"unknown source {quoted_excerpt(source)}")
        _validate_h(k, h)
        if witness is not None and witness.length != h - 1:
            raise TableValidationError(
                f"witness length {witness.length} does not match h-1 = {h - 1}")
        with self._lock:
            self._entries[k] = HEntry(h, source, witness)
            self._derived = {}  # so no caller reads it against old rows

    def ks(self) -> list[int]:
        return sorted(self._entries)


def _parse_h_table(lines) -> KnownHTable:
    table = KnownHTable()
    for number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts, row = [p.strip() for p in line.split(",")], quoted_excerpt(line)
        try:
            if len(parts) != 3:
                raise TableParseError(f"expected 'k,h,source', got {row}")
            if not (is_decimal(parts[0]) and is_decimal(parts[1])):
                raise TableParseError(f"k and h must be integers, got {row}")
            try:
                k, h = int(parts[0]), int(parts[1])
            except ValueError:  # past the interpreter's digit limit, where
                # h and bound-table could not print the value either
                limit = sys.get_int_max_str_digits()
                raise TableValidationError(
                    f"k and h must have at most {limit} digits, "
                    f"got {row}") from None
            if table.get(k) is not None:
                raise TableParseError(f"duplicate entry for k = {k}")
            table.set(k, h, parts[2])
        except (TableParseError, TableValidationError) as exc:
            raise type(exc)(f"line {number}: {exc}") from None
    return table


def load_h_table(path) -> KnownHTable:
    """Parse a ``k,h,source`` table file ('#' comments allowed)."""
    with open(path, "r", encoding="ascii") as fh:
        return _parse_h_table(fh)


def default_h_table() -> KnownHTable:
    """Fresh copy of the packaged table, read like a ``--table`` file."""
    return load_h_table(os.path.join(os.path.dirname(__file__), "data",
                                     "h_table.txt"))


def h_of(k: int, table: KnownHTable, *, budget: SearchBudget | None = None,
         max_compute_k: int = DEFAULT_MAX_COMPUTE_K) -> tuple[int, str]:
    """Exact h(k): from the table, else computed within ``budget`` for
    ``k <= max_compute_k`` (a cap of 0 never computes) and inserted into the
    table with a verified witness."""
    if k < 1:
        raise ValueError(f"h(k) is defined for k >= 1, got {k}")
    entry = table.get(k)
    if entry is not None:
        return entry.h, entry.source
    if k > max_compute_k:
        raise Unavailable(
            f"h({decimal_excerpt(k)}) is not tabulated and k exceeds the "
            f"compute cap {max_compute_k}")
    with table._compute_lock:
        entry = table.get(k)  # another thread may have just computed it
        if entry is not None:
            return entry.h, entry.source
        length, assignment = max_cover_length(first_primes(k), budget=budget)
        witness = witness_integer(assignment)
        table.set(k, length + 1, HSOURCE_COMPUTED, witness=witness)
    return length + 1, HSOURCE_COMPUTED

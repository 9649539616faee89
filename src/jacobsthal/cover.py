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

import threading
import time
from importlib import resources
from math import prod
from typing import NamedTuple

# is_prime stays bound here for the benchmark's tracer (perfbench/tracing.py)
from .arith import (RUN_SIEVE_LIMIT, crt_solve, first_primes,  # noqa: F401
                    is_prime, nth_prime, shared_factor_flags, validated_primes)
from .errors import (BudgetExceeded, JacobsthalError, TableParseError,
                     TableValidationError, Unavailable)

HSOURCE_PAPER = "paper"
HSOURCE_COMPUTED = "computed"
HSOURCE_INGESTED = "ingested"
H_SOURCES = frozenset({HSOURCE_PAPER, HSOURCE_COMPUTED, HSOURCE_INGESTED})

# certify's bounds on h(k), here so the CLI parser need not load certify
MODE_UNCONDITIONAL = "unconditional"
MODE_CW = "cw"
MODES = (MODE_UNCONDITIONAL, MODE_CW)

# Largest product of small primes whose offsets the wheel search
# enumerates outright before falling back to the positions search.
WHEEL_PRODUCT_CAP = 30030

DEFAULT_MAX_COMPUTE_K = 12


class CoverAssignment(NamedTuple):
    """Offsets ``offsets[i]`` for ``primes[i]`` covering ``[0, length)``."""

    primes: tuple[int, ...]
    offsets: tuple[int, ...]
    length: int

    def covers(self, position: int) -> bool:
        return any((position - c) % p == 0
                   for p, c in zip(self.primes, self.offsets))

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


class ComputePolicy(NamedTuple):
    """Controls when missing h(k) values may be computed by the engine: only
    for ``k <= max_compute_k``, so a cap of 0 never computes."""

    max_compute_k: int = DEFAULT_MAX_COMPUTE_K
    budget: SearchBudget | None = None


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
        self.full = (1 << length) - 1
        masks = []
        for p in primes:
            base = 0
            for pos in range(0, length, p):
                base |= 1 << pos
            # Offsets c >= length cover nothing and are never looked up
            # (lookups use u % p for a position u), so a prime far beyond
            # the length costs O(length) masks, not O(p).
            masks.append(tuple((base << c) & self.full
                               for c in range(min(p, length))))
        self.masks = masks
        # counts[i][c] = |masks[i][c] & uncov| for the uncovered set of the
        # node being searched.  Only primes with 2p < length have a table:
        # their caps start at ceil(length/p) >= 3, and a table is kept in
        # step exactly while the prime's cap stays above 2.  Caps of 2 and 1
        # are settled from the uncovered set itself (see _capacity_prune).
        self.counts = [[m.bit_count() for m in ms] if 2 * p < length
                       else None for p, ms in zip(primes, masks)]
        self.residues = [tuple(u % p for p in primes) for u in range(length)]
        # Two positions share a residue class of p when they differ by one
        # of these multiples of p.
        self.strides = [tuple(range(p, length, p)) for p in primes]
        self.nodes = allowance.spent  # earlier searches' nodes count too
        self.max_nodes = allowance.max_nodes
        self.deadline = allowance.deadline

    def _tick(self) -> None:
        self.nodes += 1
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise BudgetExceeded(f"cover search passed {self.max_nodes} nodes")
        if (self.deadline is not None and self.nodes % 1024 == 1
                and time.monotonic() > self.deadline):
            raise BudgetExceeded("cover search passed its time budget")

    def _shift(self, hit: int, live, step: int) -> None:
        """Add ``step`` to the counts of every position in ``hit``, for the
        primes listed in ``live``: -1 as a branch covers them, +1 as it
        gives them back."""
        counts, residues = self.counts, self.residues
        while hit:
            low = hit & -hit
            hit ^= low
            res = residues[low.bit_length() - 1]
            for j in live:
                counts[j][res[j]] += step

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
        rem = list(rem)
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

    # -- positions: branch on who covers the leftmost hole -------------------
    #
    # The wheel's inner search, and the whole search when no wheel fits.

    def _dfs_pos(self, uncov: int, rem: tuple[int, ...],
                 caps: list[int]) -> dict[int, int] | None:
        self._tick()
        need = uncov.bit_count()
        if need <= len(rem):
            return self._finish(uncov, rem)
        caps = caps[:]
        if self._capacity_prune(uncov, rem, caps, need):
            return None
        u0 = (uncov & -uncov).bit_length() - 1
        primes, masks, counts = self.primes, self.masks, self.counts
        live = [j for j in rem if caps[j] > 2]  # whose counts children read
        branches = []
        for at, i in enumerate(rem):
            p = primes[i]
            mask = masks[i][u0 % p]
            if caps[i] > 2:
                bite = counts[i][u0 % p]
            else:
                bite = (mask & uncov).bit_count()
            branches.append((bite, -p, at, i, mask))
        branches.sort(reverse=True)  # biggest bite first, small prime on ties
        spare = sum([caps[j] for j in rem])
        for bite, _, at, i, mask in branches:
            child_need = need - bite
            if child_need >= len(rem) and spare - caps[i] < child_need:
                # The child keeps more uncovered positions than primes, and
                # the caps cached here already sum below that, so its
                # capacity check fails: count the node and skip it.
                self._tick()
                continue
            hit = mask & uncov
            shifted = [j for j in live if j != i]
            if shifted:
                self._shift(hit, shifted, -1)
            sub = self._dfs_pos(uncov ^ hit, rem[:at] + rem[at + 1:], caps)
            if shifted:
                self._shift(hit, shifted, 1)
            if sub is not None:
                p = primes[i]
                sub[p] = u0 % p
                return sub
        return None

    # -- wheel: enumerate small-prime offsets, then positions ----------------
    #
    # Enumerate the offset combinations of a prefix of small primes directly
    # and run the positions search on each survivor set: once the small
    # primes are fixed the surviving positions are sparse and the capacity
    # bound on the remaining primes is close to tight.  The bound also runs
    # on each partial assignment, before the offsets of the next wheel prime
    # are enumerated: every unassigned wheel prime counts its best residue
    # class of the survivors, the other primes their caps, and a partial
    # assignment whose total falls short of the survivors heads a subtree
    # with no cover.  The caps it tightens hold for the whole subtree.

    def search_wheel(self) -> dict[int, int] | None:
        width, product = 0, 1
        while (width < len(self.primes)
               and product * self.primes[width] <= WHEEL_PRODUCT_CAP
               and self.primes[width] <= self.length // 4):
            product *= self.primes[width]
            width += 1
        # At width 0 no wheel fits and _wheel_rec is the positions search.
        rem = tuple(range(width, len(self.primes)))
        caps = [-(-self.length // p) for p in self.primes]
        return self._wheel_rec(0, width, self.full, [0] * width, rem, caps)

    def _wheel_rec(self, j: int, width: int, uncov: int,
                   offsets: list[int], rem: tuple[int, ...],
                   caps: list[int]) -> dict[int, int] | None:
        if j == width:  # a node of the positions search, counted there
            sub = self._dfs_pos(uncov, rem, caps)
            if sub is None:
                return None
            for i in range(width):
                sub[self.primes[i]] = offsets[i]
            return sub
        if j:
            # Each unassigned wheel prime takes at most its best residue
            # class of the survivors; the rest must fit the other primes.
            self._tick()
            need = uncov.bit_count() - sum(
                max([(m & uncov).bit_count() for m in self.masks[i]])
                for i in range(j, width))
            caps = caps[:]
            if need > 0 and self._capacity_prune(uncov, rem, caps, need):
                return None
        p = self.primes[j]
        live = [i for i in rem if caps[i] > 2]
        seen: set[int] = set()
        for c in range(p):
            # Reflection x -> length-1-x maps covers to covers: keep one
            # offset per orbit {c, (length-1-c) mod p} of the first prime.
            if j == 0 and c > (self.length - 1 - c) % p:
                continue
            left = uncov & ~self.masks[j][c]
            if left in seen:  # identical survivor set, identical subtree
                continue
            seen.add(left)
            offsets[j] = c
            self._shift(uncov ^ left, live, -1)
            found = self._wheel_rec(j + 1, width, left, offsets, rem, caps)
            self._shift(uncov ^ left, live, 1)
            if found is not None:
                return found
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
    search = _Search(length // 2 if halve else length, ps[halve:], allowance)
    found = search.search_wheel()
    allowance.spent = search.nodes
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

    Starts from the elementary lower bound ``2*p_{k-1} - 1`` when given the
    first k primes and walks upward; the final refusal at L*+1 is an
    exhaustive proof.  L* is deterministic; the witness is one valid choice.
    """
    ps = _validated_primes(primes)
    k = len(ps)
    start = 2 * ps[-2] - 1 if k >= 2 and ps == first_primes(k) else 1
    allowance = _Allowance(budget)
    assignment = coverable(start, ps, budget=allowance)
    if assignment is None:  # cannot happen: start is a proven lower bound
        raise JacobsthalError(
            f"internal: lower bound {start} not coverable for {ps}")
    length = start
    while True:
        if assignment.covers(length):  # reuse it when it reaches further
            longer = CoverAssignment(ps, assignment.offsets, length + 1)
        else:
            longer = coverable(length + 1, ps, budget=allowance)
        if longer is None:
            return length, assignment
        assignment = longer
        length += 1


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


def least_witness(length: int, primes) -> CoverWitness | None:
    """The earliest positive run of ``length`` integers each divisible by one
    of ``primes``, found by direct sieve.  ``None`` when the period is too
    large to sieve or no such run exists in one period."""
    ps = _validated_primes(primes)
    if length == 0:
        return witness_integer(CoverAssignment(ps, (0,) * len(ps), 0))
    period = prod(ps)
    if period + length > RUN_SIEVE_LIMIT:
        return None
    start = shared_factor_flags(ps, period + length).find(b"\x01" * length)
    if not 0 <= start <= period:
        return None
    return CoverWitness(start, length)


def elementary_lower_witness(n: int) -> CoverWitness:
    """A run of ``2*p_{n-1} - 1`` consecutive integers, each divisible by one
    of the first n primes, centered on a CRT-constructed integer.

    Construction: pick t ≡ 0 modulo every prime up to p_{n-2}, t ≡ 1 mod
    p_{n-1} and t ≡ -1 mod p_n.  Then t±1 are caught by the two largest
    primes and every other offset j has a prime factor <= p_{n-2} (there are
    no primes strictly between p_{n-2} and p_{n-1}).  Requires n >= 3.
    """
    if n < 3:
        raise ValueError(f"the construction needs n >= 3, got {n}")
    ps = first_primes(n)
    p_second = ps[-2]
    small_modulus = prod(ps[:-2])
    t, _ = crt_solve([(0, small_modulus), (1, p_second), (-1 % ps[-1], ps[-1])])
    length = 2 * p_second - 1
    start = t - (p_second - 1)
    assignment = CoverAssignment(ps, tuple(-start % p for p in ps), length)
    if not assignment.is_valid():
        raise JacobsthalError(f"internal: run from {start} is not covered")
    return CoverWitness(start, length)


# --- known-value table -------------------------------------------------------


class HEntry(NamedTuple):
    h: int
    source: str
    witness: CoverWitness | None = None


def _validate_h(k: int, h: int) -> None:
    if k < 1:
        raise TableValidationError(f"index k must be >= 1, got {k}")
    if h < 2:
        raise TableValidationError(f"h({k}) = {h} is impossible (h >= 2)")
    if k >= 2 and h < 2 * nth_prime(k - 1):
        raise TableValidationError(
            f"h({k}) = {h} violates the elementary bound 2*p_{k - 1} = "
            f"{2 * nth_prime(k - 1)}")


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
            raise TableValidationError(f"unknown source {source!r}")
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
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 3:
            raise TableParseError(f"expected 'k,h,source', got {line!r}", number)
        try:
            k, h = int(parts[0]), int(parts[1])
        except ValueError:
            raise TableParseError(f"k and h must be integers, got {line!r}",
                                  number) from None
        if parts[2] not in H_SOURCES:
            raise TableParseError(f"unknown source {parts[2]!r}", number)
        if table.get(k) is not None:
            raise TableParseError(f"duplicate entry for k = {k}", number)
        table.set(k, h, parts[2])
    return table


def load_h_table(path) -> KnownHTable:
    """Parse a ``k,h,source`` table file ('#' comments allowed)."""
    with open(path, "r", encoding="ascii") as fh:
        return _parse_h_table(fh)


def default_h_table() -> KnownHTable:
    """Fresh copy of the table shipped with the package."""
    text = resources.files("jacobsthal").joinpath("data/h_table.txt").read_text()
    return _parse_h_table(text.splitlines())


def h_of(k: int, table: KnownHTable,
         policy: ComputePolicy | None = None) -> tuple[int, str]:
    """Exact h(k): from the table, else computed within ``policy``'s cap and
    budget (and inserted into the table with a verified witness)."""
    if k < 1:
        raise ValueError(f"h(k) is defined for k >= 1, got {k}")
    if policy is None:
        policy = ComputePolicy()
    entry = table.get(k)
    if entry is not None:
        return entry.h, entry.source
    if k > policy.max_compute_k:
        raise Unavailable(
            f"h({k}) is not tabulated and k exceeds the compute cap "
            f"{policy.max_compute_k}")
    with table._compute_lock:
        entry = table.get(k)  # another thread may have just computed it
        if entry is not None:
            return entry.h, entry.source
        length, assignment = max_cover_length(first_primes(k),
                                              budget=policy.budget)
        witness = witness_integer(assignment)
        table.set(k, length + 1, HSOURCE_COMPUTED, witness=witness)
    return length + 1, HSOURCE_COMPUTED

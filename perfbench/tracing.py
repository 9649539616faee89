"""Spans recorded from outside the package, at the module attributes that
the package's layers call each other through.

Every module-level function call inside the package looks its callee up
in a module namespace at call time, so replacing ``certify.min_k_for`` or
``cover.coverable`` with a timing wrapper also times the package's own
internal calls.  Nothing under ``src/`` is edited; ``uninstall`` puts the
original functions back.
"""

from __future__ import annotations

import importlib
import time
from array import array

# (module, attribute, span name, tag kind).  A span's name is the layer
# and function it times; the same function reached through several
# modules' namespaces records under one name.
TARGETS = (
    ("jacobsthal.cli", "default_h_table", "cover.table_load", None),
    ("jacobsthal.cli", "load_h_table", "cover.table_load", None),
    ("jacobsthal.cli", "first_primes", "arith.first_primes", None),
    ("jacobsthal.cli", "make_eligible", "progressions.make_eligible", None),
    ("jacobsthal.cli", "coprime_iso", "progressions.coprime_iso", None),
    ("jacobsthal.cli", "certificate_to_json", "certify.json", None),
    ("jacobsthal.cli", "certificate_from_json", "certify.json", None),
    ("jacobsthal.cover", "default_h_table", "cover.table_load", None),
    ("jacobsthal.cover", "h_of", "cover.h_of", "table_miss"),
    ("jacobsthal.cover", "max_cover_length", "cover.max_cover_length",
     "prime_count"),
    ("jacobsthal.cover", "coverable", "cover.coverable", None),
    ("jacobsthal.cover", "witness_integer", "cover.witness_integer", None),
    ("jacobsthal.cover", "least_witness", "cover.least_witness", None),
    ("jacobsthal.cover", "first_primes", "arith.first_primes", None),
    ("jacobsthal.cover", "is_prime", "arith.is_prime", None),
    ("jacobsthal.cover", "crt_solve", "arith.crt_solve", None),
    ("jacobsthal.gaps", "g_of", "gaps.g_of", None),
    ("jacobsthal.certify", "find_prime", "certify.find_prime", None),
    ("jacobsthal.certify", "prime_stream", "certify.prime_stream", None),
    ("jacobsthal.certify", "verify_certificate", "certify.verify_certificate",
     "check_ok"),
    ("jacobsthal.certify", "min_k_for", "certify.min_k_for", None),
    ("jacobsthal.certify", "bound", "certify.bound", None),
    ("jacobsthal.certify", "certificate_to_json", "certify.json", None),
    ("jacobsthal.certify", "certificate_from_json", "certify.json", None),
    ("jacobsthal.certify", "default_h_table", "cover.table_load", None),
    ("jacobsthal.certify", "h_of", "cover.h_of", "table_miss"),
    ("jacobsthal.certify", "coprime_iso", "progressions.coprime_iso", None),
    ("jacobsthal.certify", "first_primes", "arith.first_primes", None),
    ("jacobsthal.certify", "is_prime", "arith.is_prime", None),
    ("jacobsthal.certify", "primorial", "arith.primorial", None),
    ("jacobsthal.progressions", "is_prime", "arith.is_prime", None),
    ("jacobsthal.progressions", "crt_solve", "arith.crt_solve", None),
)

TAG_ERROR = -1


def _table_miss(args, kwargs) -> int:
    """1 when the table lacks k, so h_of must run the engine (or raise,
    which retags the span as an error)."""
    k = args[0] if args else kwargs["k"]
    table = args[1] if len(args) > 1 else kwargs.get("table")
    return 0 if table is not None and table.get(k) is not None else 1


def _prime_count(args, kwargs) -> int:
    primes = args[0] if args else kwargs["primes"]
    return len(tuple(primes))


# Tag a span before the call from its arguments, or after it from its
# result; a call that raises is tagged TAG_ERROR either way.
_PRE = {"table_miss": _table_miss, "prime_count": _prime_count}
_POST = {"check_ok": lambda result: 1 if result.ok else 0}


class Recorder:
    """Spans kept in memory in flat arrays until the run ends: a name id,
    start and end on ``time.perf_counter``, the parent's index (-1 for a
    root) and an integer tag."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.tag = array("i")
        self._stack = [-1]
        self._installed: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def name_id(self, name: str) -> int:
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self.names)
            self.names.append(name)
        return sid

    def open(self, sid: int, tag: int = 0) -> int:
        i = len(self.start)
        self.name.append(sid)
        self.end.append(0.0)
        self.parent.append(self._stack[-1])
        self.tag.append(tag)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int, tag: int | None = None) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()
        if tag is not None:
            self.tag[i] = tag

    def add(self, name: str, start: float, end: float, parent: int,
            tag: int = 0) -> int:
        """Append a finished span, e.g. one recorded in another process."""
        i = len(self.start)
        self.name.append(self.name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.tag.append(tag)
        return i

    def spans(self, lo: int = 0, hi: int | None = None) -> list[tuple]:
        """Spans ``lo..hi-1`` as ``(name, start, end, parent, tag)`` with
        parent indices relative to ``lo`` (negative when outside)."""
        hi = len(self) if hi is None else hi
        return [(self.names[self.name[i]], self.start[i], self.end[i],
                 self.parent[i] - lo if self.parent[i] >= lo else -1,
                 self.tag[i]) for i in range(lo, hi)]

    # -- wrappers ------------------------------------------------------------

    def _wrapper(self, fn, name: str, kind: str | None):
        sid = self.name_id(name)
        open_, close = self.open, self.close
        pre, post = _PRE.get(kind), _POST.get(kind)

        def wrapper(*args, **kwargs):
            i = open_(sid, pre(args, kwargs) if pre else 0)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                close(i, TAG_ERROR)
                raise
            close(i, post(result) if post else None)
            return result
        return wrapper

    def install(self) -> None:
        for module_name, attr, name, kind in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._installed.append((module, attr, original))
            setattr(module, attr, self._wrapper(original, name, kind))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

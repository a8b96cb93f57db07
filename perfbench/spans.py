"""In-process span tracer for the traced benchmark run.

The tracer swaps timing wrappers in for the module-level names that the
``seaweeds`` modules call through (``seaweeds.classify.seaweed``,
``seaweeds.linalg.rref_int_rows`` and so on), so spans are recorded at layer
boundaries without touching the package's own code.  Each span keeps its
name, start, end, parent span, the record ordinal it belongs to, whether the
call produced a result (a certificate, ``True``) and, for the integer
kernels, the cells (rows x cols) of its input.  Spans stay in memory until
the caller writes them out.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

# (module, attribute the module calls through, span name).  Span names are
# "<layer>.<operation>"; the layer is the module that does the work.
WRAPPED = (
    ("seaweeds.cli", "classify", "classify.classify"),
    ("seaweeds.cli", "report", "classify.report"),
    ("seaweeds.cli", "verify_document", "serialize.verify_document"),
    ("seaweeds.classify", "seaweed", "construct.seaweed"),
    ("seaweeds.classify", "index", "lie.index"),
    ("seaweeds.classify", "find_contact_form", "contact.find_contact_form"),
    ("seaweeds.classify", "find_stable_form", "contact.find_stable_form"),
    ("seaweeds.classify", "is_stable_form", "contact.fallback"),
    ("seaweeds.classify", "certificate_to_json", "serialize.certificate_to_json"),
    ("seaweeds.construct", "LieAlgebra", "lie.LieAlgebra"),
    ("seaweeds.contact", "is_contact_form", "contact.is_contact_form"),
    ("seaweeds.contact", "is_stable_form", "contact.is_stable_form"),
    ("seaweeds.lie", "rank_int_rows", "linalg.rank_int_rows"),
    ("seaweeds.linalg", "rank_int_rows", "linalg.rank_int_rows"),
    ("seaweeds.linalg", "rref_int_rows", "linalg.rref_int_rows"),
    ("seaweeds.serialize", "seaweed", "serialize.rebuild"),
    ("seaweeds.serialize", "verify_certificate", "serialize.verify_certificate"),
)

_CELL_COUNTED = {"linalg.rank_int_rows", "linalg.rref_int_rows"}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    record: int | None
    ok: bool = False
    cells: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; one instance per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: set[str] = set()
        self.record: int | None = None
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        # Maps a rebuilt seaweed's (top, bottom) to its ordinal in the
        # report, so verify-phase spans carry the same record id as the sweep.
        self.ordinal_of: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}

    def _open(self, name: str, cells: int = 0) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.record, cells=cells))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, pos: int, result) -> None:
        span = self.spans[pos]
        span.end = time.perf_counter()
        span.ok = result is not None and result is not False
        self._stack.pop()

    @contextmanager
    def phase(self, name: str):
        """Root span for one phase (``sweep`` or ``verify``)."""
        self.record = None
        pos = self._open(name)
        try:
            yield
        finally:
            self._close(pos, True)
            self.record = None

    def _set_record(self, name: str, args) -> None:
        if name == "construct.seaweed":
            self.record = 0 if self.record is None else self.record + 1
        elif name == "classify.report":
            self.record = None
        elif name == "serialize.rebuild":
            _family, _n, top, bottom = args
            self.record = self.ordinal_of.get((tuple(top.parts), tuple(bottom.parts)))

    def _wrapper(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            tracer._set_record(name, args)
            cells = 0
            if name in _CELL_COUNTED:
                rows = args[0]
                cells = len(rows) * (len(rows[0]) if rows else 0)
            pos = tracer._open(name, cells)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._close(pos, result)

        return traced

    def install(self) -> None:
        """Swap in wrappers; a name the package no longer has is recorded
        in ``missing`` so its metrics are reported absent, never zero."""
        for module_name, attr, span_name in WRAPPED:
            try:
                module = importlib.import_module(module_name)
            except ModuleNotFoundError:
                self.missing.add(span_name)
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.missing.add(span_name)
                continue
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrapper(span_name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, child)]

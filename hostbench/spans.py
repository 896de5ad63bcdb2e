"""Outside-in tracing: spans around the public entry points of each layer.

:func:`install` wraps the functions and methods in :data:`TRACE_POINTS`
at their module or class attribute, in this process only, and returns a
handle whose ``uninstall()`` puts the originals back.  Every wrapped call
records one span — name, start, end, parent span — in a
:class:`SpanRecorder` held in memory; :meth:`SpanRecorder.write_jsonl`
writes them out when the run ends.

A span's self time is its duration minus the durations of its direct
children, so the self times of all spans under a root, plus the root's
own self time, add up to the root's duration.
"""

import collections
import dataclasses
import functools
import importlib
import json
import time
from typing import Callable, Dict, List, Optional


@dataclasses.dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    rep: object          # repetition index, or "setup"
    start: float
    end: float = 0.0
    child_s: float = 0.0  # summed durations of direct children
    items: float = 0.0    # work items the call handled (words, bits, ...)
    attempts: float = 0.0
    useful: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class SpanRecorder:
    """In-memory span store with a stack of open spans."""

    def __init__(self, workload: str, clock: Callable[[], float] = time.perf_counter):
        self.workload = workload
        self.clock = clock
        self.spans: List[Span] = []
        self._open: List[Span] = []
        self.rep: object = None

    def open(self, name: str) -> Span:
        parent = self._open[-1] if self._open else None
        span = Span(
            id=len(self.spans),
            parent=parent.id if parent is not None else None,
            name=name,
            rep=self.rep,
            start=self.clock(),
        )
        self.spans.append(span)
        self._open.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        self._open.pop()
        if self._open:
            self._open[-1].child_s += span.duration

    def of_rep(self, rep) -> List[Span]:
        return [span for span in self.spans if span.rep == rep]

    def write_jsonl(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "id": span.id, "parent": span.parent, "name": span.name,
                    "workload": self.workload, "rep": span.rep,
                    "start": span.start, "end": span.end,
                    "self_s": span.self_s, "items": span.items,
                }) + "\n")


@dataclasses.dataclass
class LayerTotals:
    """One span name's totals over one repetition (or the setup)."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    items: float = 0.0
    attempts: float = 0.0
    useful: float = 0.0


def totals(spans: List[Span]) -> Dict[str, LayerTotals]:
    """Aggregate spans by name."""
    out: Dict[str, LayerTotals] = collections.defaultdict(LayerTotals)
    for span in spans:
        entry = out[span.name]
        entry.calls += 1
        entry.total_s += span.duration
        entry.self_s += span.self_s
        entry.items += span.items
        entry.attempts += span.attempts
        entry.useful += span.useful
    return out


# ----------------------------------------------------------------------
# Work-item counters: (span, args, kwargs, result) -> None
# ----------------------------------------------------------------------
def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_events(span, args, kwargs, result):
    span.items = result  # DiscreteEventEngine.run returns events executed


def _count_words(span, args, kwargs, result):
    span.items = len(_arg(args, kwargs, 1, "addresses"))


def _count_batch_outcomes(span, args, kwargs, result):
    span.items = len(result)
    span.attempts = sum(attempts for attempts, _ in result)
    span.useful = sum(1 for _, failed in result if not failed)


def _count_codewords(span, args, kwargs, result):
    span.items = len(_arg(args, kwargs, 1, "codewords"))


def _count_bits(span, args, kwargs, result):
    span.items = len(_arg(args, kwargs, 2, "states"))


def _sensing_classes():
    from repro.core.base import SensingScheme

    found, pending = [], [SensingScheme]
    while pending:
        cls = pending.pop()
        if "read_many" in vars(cls):
            found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


#: (span name, owner — a module path, a class path, or a callable that
#: returns classes — attribute, work-item counter).  Module functions are
#: wrapped where the caller looks them up: ``build_report`` in both the
#: report and topology modules, the wafer flow's helpers where
#: ``repro.prodtest.wafer`` and ``repro.prodtest.characterize`` bound them.
TRACE_POINTS = (
    # setup
    ("calibration.calibrate", "repro.calibration", "calibrate", None),
    ("service.scheme_service_times", "repro.service", "scheme_service_times", None),
    ("service.workload.generate", "repro.service.workload:RequestStream", "generate", None),
    ("service.build_backend", "repro.service", "build_backend", None),
    ("prodtest.build_wafer", "repro.prodtest", "build_wafer", None),
    # serving stack
    ("service.topology.simulate", "repro.service", "simulate_topology", None),
    ("service.topology.split", "repro.service.topology:ShardRouter", "split", None),
    ("service.controller.submit_all", "repro.service.controller:MemoryController", "submit_all", None),
    ("service.engine.run", "repro.service.engine:DiscreteEventEngine", "run", _count_events),
    ("service.report.build_report", "repro.service.report", "build_report", None),
    ("service.report.build_report", "repro.service.topology", "build_report", None),
    # backend / faults / ecc / core
    ("service.backend.read_batch", "repro.service.controller:ArrayBackend", "read_batch", _count_batch_outcomes),
    ("service.backend.write", "repro.service.controller:ArrayBackend", "write", None),
    ("faults.injector.perturb_scheme", "repro.faults.injector:FaultInjector", "perturb_scheme", None),
    ("faults.recovery.read_words", "repro.faults.recovery:RecoveryController", "read_words", _count_words),
    ("faults.recovery.read_word", "repro.faults.recovery:RecoveryController", "read_word", None),
    ("ecc.array.probe_words", "repro.ecc.array:EccArray", "probe_words", None),
    ("ecc.hamming.decode_words", "repro.ecc.hamming:HammingSECDED", "decode_words", _count_codewords),
    ("ecc.hamming.encode_word", "repro.ecc.hamming:HammingSECDED", "encode_word", None),
    ("core.read_many", _sensing_classes, "read_many", _count_bits),
    # wafer flow
    ("prodtest.run_wafer", "repro.prodtest", "run_wafer", None),
    ("prodtest.characterize_dies", "repro.prodtest.wafer", "characterize_dies", None),
    ("prodtest.scheme_margin_arrays", "repro.prodtest.wafer", "scheme_margin_arrays", None),
    ("core.margins.population_margins", "repro.prodtest.characterize", "population_conventional_margins", None),
    ("core.margins.population_margins", "repro.prodtest.characterize", "population_destructive_margins", None),
    ("core.margins.population_margins", "repro.prodtest.characterize", "population_nondestructive_margins", None),
    ("ecc.provision_ecc", "repro.prodtest.wafer", "provision_ecc", None),
)


def _owners(owner):
    if callable(owner):
        return owner()
    module_path, _, class_name = owner.partition(":")
    module = importlib.import_module(module_path)
    return [getattr(module, class_name) if class_name else module]


def _wrap(recorder: SpanRecorder, name: str, func: Callable, counter) -> Callable:
    @functools.wraps(func)
    def traced(*args, **kwargs):
        span = recorder.open(name)
        try:
            result = func(*args, **kwargs)
        finally:
            recorder.close(span)
        if counter is not None:
            counter(span, args, kwargs, result)
        return result

    return traced


class Installed:
    """Handle on installed wrappers; ``uninstall()`` restores originals."""

    def __init__(self, patched):
        self._patched = patched

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched = []


def install(recorder: SpanRecorder, points=TRACE_POINTS) -> Installed:
    """Wrap every trace point so its calls record spans in ``recorder``."""
    patched = []
    for name, owner_spec, attribute, counter in points:
        for owner in _owners(owner_spec):
            original = vars(owner)[attribute]
            setattr(owner, attribute, _wrap(recorder, name, original, counter))
            patched.append((owner, attribute, original))
    return Installed(patched)

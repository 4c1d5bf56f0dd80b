"""Span tracing for the benchmark, installed from outside the library.

The tracer replaces each listed library function with a wrapper that records
one span per call: name, start, end, parent span and job id.  Spans are kept
in flat typed arrays (a few tens of bytes each), so a run of a million calls
stays small, and are written out once when the run ends.  The library source
is never touched: wrappers are installed on the defining module and on every
``nsgleason`` module that imported the function by name, and the original
objects are put back by :meth:`Tracer.restore`.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

import numpy as np


def _clique_search_name(args, kwargs):
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "EXHAUSTIVE")
    return "keller.clique_search." + str(getattr(mode, "value", mode)).lower()


# (defining module, attribute, span name).  A callable span name receives the
# call's (args, kwargs) and picks the name per call.
TARGETS = (
    ("nsgleason.gleason", "spanning_design", "gleason.spanning_design"),
    ("nsgleason.gleason", "feature_of", "gleason.feature_of"),
    ("nsgleason.gleason", "reconstruct_pvm", "gleason.reconstruct_pvm"),
    ("nsgleason.gleason", "product_seesaw_min", "gleason.product_seesaw_min"),
    ("nsgleason.gleason", "classify_product_positivity",
     "gleason.classify_product_positivity"),
    ("nsgleason.framefn", "OperatorInduced.__call__", "framefn.eval"),
    ("nsgleason.framefn", "Tabulated.__call__", "framefn.eval"),
    ("nsgleason.framefn", "SignallingFamily.__call__", "framefn.eval"),
    ("nsgleason.framefn", "sample_from_operator", "framefn.sample_from_operator"),
    ("nsgleason.nosig", "chsh_optimize", "nosig.chsh_optimize"),
    ("nsgleason.nosig", "bell_operator", "nosig.bell_operator"),
    ("nsgleason.nosig", "quantum_extension", "nosig.quantum_extension"),
    ("nsgleason.nosig", "max_chsh_lp", "nosig.max_chsh_lp"),
    ("nsgleason.nosig", "check_box", "nosig.check_box"),
    ("nsgleason.nosig", "box_from_operator", "nosig.box_from_operator"),
    ("nsgleason.nosig", "check_framefn", "nosig.check_framefn"),
    ("nsgleason.orientation", "classify_orientation",
     "orientation.classify_orientation"),
    ("nsgleason.orientation", "choi_of", "orientation.choi_of"),
    ("nsgleason.presheaf", "random_context_family", "presheaf.random_context_family"),
    ("nsgleason.presheaf", "section_from_operator", "presheaf.section_from_operator"),
    ("nsgleason.presheaf", "check_section", "presheaf.check_section"),
    ("nsgleason.keller", "clique_search", _clique_search_name),
    ("nsgleason.keller", "edge", "keller.edge"),
    ("nsgleason.keller", "verify_clique", "keller.verify_clique"),
    ("nsgleason.keller", "basis_from_clique", "keller.basis_from_clique"),
    ("nsgleason.bases", "twist_search", "bases.twist_search"),
    ("nsgleason.bases", "apply_twist", "bases.apply_twist"),
    ("nsgleason.bases", "validate_unentangled", "bases.validate_unentangled"),
    ("nsgleason.bases", "find_local_pairs", "bases.find_local_pairs"),
    ("nsgleason.linalg", "random_unit", "linalg.random_unit"),
    ("nsgleason.linalg", "random_onb", "linalg.random_onb"),
    ("nsgleason.linalg", "hermitian_eig", "linalg.hermitian_eig"),
    ("nsgleason.linalg", "partial_transpose", "linalg.partial_transpose"),
    ("nsgleason.cli", "main", "cli"),
)

JOB_SPAN = "job"


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.job_id = -1
        self._patches: list = []  # (owner, attribute, original)

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.job.append(self.job_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def open_job(self, job_id: int) -> int:
        """Open the root span of one job; library spans below it carry its id."""
        self.job_id = job_id
        return self.open(JOB_SPAN)

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, name):
        tracer = self

        if callable(name):
            def traced(*args, **kwargs):
                idx = tracer.open(name(args, kwargs))
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
        else:
            def traced(*args, **kwargs):
                idx = tracer.open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(idx)

        traced.__wrapped__ = fn
        return traced

    def install(self, targets=TARGETS) -> None:
        """Wrap every target wherever the package holds a reference to it."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "nsgleason" or key.startswith("nsgleason."))
        ]
        for module_name, attr, name in targets:
            owner = sys.modules[module_name]
            if "." in attr:  # a method: patch the class attribute only
                cls_name, meth = attr.split(".")
                owner = getattr(owner, cls_name)
                self._patch(owner, meth, self.wrap(getattr(owner, meth), name))
                continue
            original = getattr(owner, attr)
            traced = self.wrap(original, name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, traced)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "job": np.frombuffer(self.job, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest properly, so the children of a span cover
    disjoint parts of it and their durations add up.
    """
    dur = end - start
    covered = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered


def layer_totals(names, spans: dict) -> dict:
    """Per span name: call count and summed self time, jobs excluded."""
    self_s = self_times(spans["parent"], spans["start"], spans["end"])
    calls = np.bincount(spans["name"], minlength=len(names))
    total = np.bincount(spans["name"], weights=self_s, minlength=len(names))
    return {
        n: {"calls": int(calls[i]), "self_s": float(total[i])}
        for i, n in enumerate(names) if n != JOB_SPAN
    }


def job_coverage(names, spans: dict) -> np.ndarray:
    """Share of each job span's wall time covered by library spans."""
    if JOB_SPAN not in names:
        return np.zeros(0)
    is_job = spans["name"] == names.index(JOB_SPAN)
    self_s = self_times(spans["parent"], spans["start"], spans["end"])
    dur = spans["end"][is_job] - spans["start"][is_job]
    return 1.0 - self_s[is_job] / dur

"""Per-layer tracing from outside the program.

:class:`Tracer` replaces public functions of the separ modules, and
methods of ``separ.core.Separ``, with timing wrappers for as long as it
is entered. The program's source is not touched. Spans nest on one
stack, so a span's self time is its duration minus the durations of the
spans it directly contains. A target that no longer exists is recorded
as absent and its metrics are left out, so a refactor of the program
does not stop the benchmark.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# (span name, module, attribute, what to note per call)
# Functions are replaced in every separ module that holds them, so calls
# through a re-export or a ``from ... import`` are seen too.
SPANS = [
    ("core.Separ", "separ.core", "Separ.__init__", None),
    ("core.initialize", "separ.core", "Separ.initialize", None),
    ("core.encrypt_word", "separ.core", "Separ.encrypt_word", None),
    ("core.decrypt_word", "separ.core", "Separ.decrypt_word", None),
    ("core.encrypt", "separ.core", "Separ.encrypt", "words"),
    ("core.decrypt", "separ.core", "Separ.decrypt", "words"),
    ("core.keystream", "separ.core", "Separ.keystream", "words"),
    ("core.enc_block", "separ.core", "enc_block", None),
    ("core.dec_block", "separ.core", "dec_block", None),
    ("core.enc_block_table", "separ.core", "enc_block_table", None),
    ("cli.main", "separ.cli", "main", None),
    ("stats.entropy", "separ.analysis.stats", "entropy", None),
    ("stats.autocorrelation", "separ.analysis.stats", "autocorrelation", None),
    ("stats.periodicity", "separ.analysis.stats", "periodicity", None),
    ("nist.nist_subset", "separ.analysis.nist", "nist_subset", "all_passed"),
    ("differential.characteristic_search", "separ.analysis.differential",
     "characteristic_search", "search"),
    ("sbox.compute_ddt", "separ.analysis.sbox", "compute_ddt", None),
]
NIST_TESTS = ("monobit", "block_frequency", "runs", "serial",
              "approximate_entropy", "cumulative_sums")
SPANS += [(f"nist.{t}", "separ.analysis.nist", t, None) for t in NIST_TESTS]

# Counted, not timed: the trail search's linear-layer evaluations. Only
# the differential module's reference is replaced, so the cipher's own
# use of linear_diffusion inside enc_block is not counted.
COUNTS = [("differential.linear_diffusion", "separ.analysis.differential", "linear_diffusion")]


def _note(kind, bound, result):
    if kind == "words":
        if "nwords" in bound.arguments:
            return bound.arguments["nwords"]
        return (len(bound.arguments["data"]) + 1) // 2
    if kind == "all_passed":
        return all(r.passed for r in result)
    if kind == "search":
        return bound.arguments["iterations"], len(result)
    return None


class Tracer:
    """Context manager that installs the wrappers and collects spans."""

    def __init__(self) -> None:
        self.dur: dict[str, array] = defaultdict(lambda: array("d"))
        self.self_: dict[str, array] = defaultdict(lambda: array("d"))
        self.notes: dict[str, list] = defaultdict(list)
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: set[str] = set()
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        for name, module, attr, kind in SPANS:
            self._install(name, module, attr, lambda fn, n=name, k=kind: self._span(n, fn, k))
        for name, module, attr in COUNTS:
            self._install(name, module, attr, lambda fn, n=name: self._count(n, fn), only_owner=True)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _install(self, name, module, attr, make, only_owner=False) -> None:
        try:
            owner = importlib.import_module(module)
        except ModuleNotFoundError:
            owner = None
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None)
        if original is None:
            self.absent.add(name)
            return
        wrapper = make(original)
        owners = [owner]
        if not path and not only_owner:
            owners = [m for key, m in list(sys.modules.items())
                      if key.split(".")[0] == "separ" and getattr(m, leaf, None) is original]
        for o in owners:
            self._undo.append((o, leaf, original))
            setattr(o, leaf, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn, kind):
        stack, dur, self_ = self._stack, self.dur[name], self.self_[name]
        notes = self.notes[name]
        signature = inspect.signature(fn) if kind else None

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = perf_counter() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += d
                dur.append(d)
                self_.append(d - children)
            if kind:
                notes.append(_note(kind, signature.bind(*args, **kwargs), result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- metrics --------------------------------------------------------------

    def metrics(self) -> tuple[dict[str, tuple[float, str]], dict[str, int]]:
        """Per-layer metrics as ``{name: (value, unit)}``, and the number
        of samples behind each median. A layer the workload never called
        reads 0."""
        out: dict[str, tuple[float, str]] = {}
        samples: dict[str, int] = {}

        def present(*spans):
            return not self.absent.intersection(spans)

        def median(metric, span, unit, scale, values=None):
            if not present(span):
                return
            values = self.dur[span] if values is None else values
            out[metric] = (statistics.median(values) * scale if values else 0.0, unit)
            samples[metric] = len(values)

        def calls(metric, span):
            if present(span):
                out[metric] = (len(self.dur[span]), "count")

        median("core.Separ.us", "core.Separ", "us", 1e6)
        median("core.initialize.us", "core.initialize", "us", 1e6)
        median("core.enc_block.us", "core.enc_block", "us", 1e6)
        calls("core.enc_block.calls", "core.enc_block")
        median("core.dec_block.us", "core.dec_block", "us", 1e6)
        calls("core.dec_block.calls", "core.dec_block")
        for span in ("core.encrypt_word", "core.decrypt_word"):
            median(f"{span}.self_us", span, "us", 1e6, self.self_[span])
        median("core.enc_block_table.ms", "core.enc_block_table", "ms", 1e3)
        calls("core.enc_block_table.calls", "core.enc_block_table")

        def self_per_word(span):
            words = sum(self.notes[span])
            return sum(self.self_[span]) / words if words else 0.0

        for span in ("core.encrypt", "core.decrypt"):
            if present(span):
                # 2 octets a word: seconds per word * 5e5 words per MB * 1e3 ms/s
                out[f"{span}.self_ms_per_mb"] = (self_per_word(span) * 5e8, "ms/MB")
        if present("core.keystream"):
            out["core.keystream.self_ns_per_word"] = (self_per_word("core.keystream") * 1e9, "ns/word")
        if present("core.encrypt_word", "core.decrypt_word", "core.encrypt",
                   "core.decrypt", "core.keystream"):
            scalar = len(self.dur["core.encrypt_word"]) + len(self.dur["core.decrypt_word"])
            total = sum(sum(self.notes[s]) for s in ("core.encrypt", "core.decrypt", "core.keystream"))
            out["core.scalar_word_share"] = (scalar / total if total else 0.0, "ratio")

        if present("cli.main"):
            median("cli.main.self_ms", "cli.main", "ms", 1e3, self.self_["cli.main"])
        for fn in ("entropy", "autocorrelation", "periodicity"):
            median(f"stats.{fn}.ms", f"stats.{fn}", "ms", 1e3)
        median("nist.nist_subset.ms", "nist.nist_subset", "ms", 1e3)
        for test in NIST_TESTS:
            median(f"nist.{test}.ms", f"nist.{test}", "ms", 1e3)
        if present("nist.nist_subset"):
            out["nist.samples_passed"] = (sum(self.notes["nist.nist_subset"]), "count")

        search = "differential.characteristic_search"
        if present(search):
            for rounds in (1, 5):
                picked = [i for i, (r, _) in enumerate(self.notes[search]) if r == rounds]
                times = [self.dur[search][i] for i in picked]
                median(f"{search}.r{rounds}_ms", search, "ms", 1e3, times)
                found = [self.notes[search][i][1] for i in picked]
                out[f"differential.trails.r{rounds}"] = (found[-1] if found else 0, "count")
        median("sbox.compute_ddt.ms", "sbox.compute_ddt", "ms", 1e3)
        calls("sbox.compute_ddt.calls", "sbox.compute_ddt")
        for name, _, _ in COUNTS:
            if present(name):
                out[f"{name}.calls"] = (self.counts[name], "count")
        return out, samples

"""Wall-clock benchmark harness.

Timings separate the one-time setup (key schedule plus nonce
initialization) from steady-state per-word encryption, since setup runs
once per message stream.  Medians over repetitions, with warm-up rounds
discarded, keep scheduler noise out of the numbers.  Absolute figures
are host-specific; the linear scaling of time with message length and
the throughput arithmetic are the portable properties.
"""

from __future__ import annotations

import csv
import io
import random
import statistics
import time
from dataclasses import dataclass

from .core import DEFAULT_LFSR, LfsrSpec, Separ, _words


@dataclass(frozen=True)
class BenchResult:
    operation: str       # "init" | "encrypt" | "decrypt"
    message_bits: int
    repetitions: int
    median_time: float   # seconds
    throughput_kbps: float

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")


def compute_throughput(bits: int, seconds: float) -> float:
    """Throughput in kilobits per second: bits / time.

    Pure unit arithmetic; bits/ms and kb/s are the same number.
    """
    if bits <= 0:
        raise ValueError("bits must be positive")
    if seconds <= 0:
        raise ValueError("time must be positive")
    return bits / seconds / 1000.0


def _deterministic_message(message_bits: int, seed: int) -> bytes:
    rng = random.Random(seed)
    return rng.randbytes(message_bits // 8)


def run_bench(key: bytes, nonce: bytes, message_bits: int, repetitions: int,
              operation: str = "encrypt", seed: int = 0x5EBA,
              warmup: int = 3, lfsr_spec: LfsrSpec = DEFAULT_LFSR,
              ) -> tuple[BenchResult, BenchResult]:
    """Benchmark one configuration.

    Returns (init_result, work_result): the setup phase (``Separ(key)``
    and ``initialize``, on each repetition) timed on its own, and the
    steady-state word loop for the requested operation.  Message content
    is derived from the seed, so runs are repeatable.
    """
    if message_bits <= 0 or message_bits % 16:
        raise ValueError("message_bits must be a positive multiple of 16")
    if repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    if operation not in ("encrypt", "decrypt"):
        raise ValueError(f"unknown operation: {operation!r}")

    data = _deterministic_message(message_bits, seed)
    words = _words(data)
    if operation == "decrypt":
        cipher = Separ(key, lfsr_spec)
        st = cipher.initialize(nonce)
        words = [cipher.encrypt_word(st, w) for w in words]

    init_times = []
    work_times = []
    for rep in range(warmup + repetitions):
        t0 = time.perf_counter()
        cipher = Separ(key, lfsr_spec)
        st = cipher.initialize(nonce)
        t1 = time.perf_counter()
        step = cipher.decrypt_word if operation == "decrypt" else cipher.encrypt_word
        for w in words:
            step(st, w)
        t2 = time.perf_counter()
        if rep >= warmup:
            init_times.append(t1 - t0)
            work_times.append(t2 - t1)

    init_med = statistics.median(init_times)
    work_med = statistics.median(work_times)
    init = BenchResult("init", message_bits, repetitions, init_med,
                       compute_throughput(message_bits, init_med))
    work = BenchResult(operation, message_bits, repetitions, work_med,
                       compute_throughput(message_bits, work_med))
    return init, work


def results_csv(results: list[BenchResult]) -> str:
    """CSV report: operation,message_bits,repetitions,median_ns,throughput_kbps."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["operation", "message_bits", "repetitions",
                     "median_ns", "throughput_kbps"])
    for r in results:
        writer.writerow([r.operation, r.message_bits, r.repetitions,
                         round(r.median_time * 1e9), f"{r.throughput_kbps:.3f}"])
    return buf.getvalue()

"""Benchmark harness: throughput arithmetic and measurement discipline."""

import time

import pytest

from separ import bench
from separ.bench import BenchResult, compute_throughput, results_csv, run_bench
from separ.core import Separ

KEY = bytes(range(32))
IV = bytes(range(16))


def test_throughput_reference_point():
    # 16 bits in 117.308 microseconds is roughly 136.4 kb/s
    kbps = compute_throughput(16, 117.308e-6)
    assert 136.3 <= kbps <= 136.5


def test_throughput_unit_identity():
    assert compute_throughput(64, 1e-3) == pytest.approx(64.0)


def test_throughput_ms_scaling_cross_check():
    # doubling the time at fixed bits halves the rate
    assert compute_throughput(128, 2 * 7092.86e-6) == pytest.approx(
        compute_throughput(64, 7092.86e-6), rel=1e-12)


def test_throughput_rejects_nonpositive():
    with pytest.raises(ValueError):
        compute_throughput(16, 0.0)
    with pytest.raises(ValueError):
        compute_throughput(16, -1.0)
    with pytest.raises(ValueError):
        compute_throughput(0, 1.0)


def test_run_bench_single_repetition():
    init, work = run_bench(KEY, IV, 64, repetitions=1, warmup=0)
    assert init.operation == "init" and work.operation == "encrypt"
    assert init.median_time > 0 and work.median_time > 0
    assert init.repetitions == work.repetitions == 1


def test_run_bench_reports_init_separately():
    init, work = run_bench(KEY, IV, 128, repetitions=5)
    assert init.operation == "init"
    assert init.message_bits == work.message_bits == 128
    assert init.median_time > 0


@pytest.mark.parametrize("operation", ["encrypt", "decrypt"])
def test_init_row_times_the_key_schedule(monkeypatch, operation):
    """The init row times Separ(key) as well as initialize, on every
    repetition."""
    def slow_separ(*args):
        time.sleep(1e-3)
        return Separ(*args)

    monkeypatch.setattr(bench, "Separ", slow_separ)
    init, _ = run_bench(KEY, IV, 64, repetitions=3, warmup=0, operation=operation)
    assert init.median_time >= 1e-3


def test_run_bench_decrypt_path():
    _, work = run_bench(KEY, IV, 64, repetitions=3, operation="decrypt")
    assert work.operation == "decrypt"
    assert work.median_time > 0


def test_run_bench_rejects_bad_sizes():
    with pytest.raises(ValueError):
        run_bench(KEY, IV, 65, 1)
    with pytest.raises(ValueError):
        run_bench(KEY, IV, 0, 1)
    with pytest.raises(ValueError):
        run_bench(KEY, IV, 64, 0)
    with pytest.raises(ValueError):
        run_bench(KEY, IV, 64, 1, operation="hash")


def test_timing_monotone_in_message_length():
    _, work64 = run_bench(KEY, IV, 64, repetitions=60)
    _, work128 = run_bench(KEY, IV, 128, repetitions=60)
    assert work128.median_time > work64.median_time


def test_bench_does_not_alter_cipher_outputs():
    """The measured path is the functional path: benchmarking leaves the
    cipher's input/output behaviour untouched."""
    before = Separ(KEY).encrypt(IV, bytes(16))
    run_bench(KEY, IV, 64, repetitions=2)
    after = Separ(KEY).encrypt(IV, bytes(16))
    assert before == after


def test_results_csv_layout():
    rows = [BenchResult("encrypt", 64, 3, 1.5e-4, compute_throughput(64, 1.5e-4))]
    text = results_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "operation,message_bits,repetitions,median_ns,throughput_kbps"
    assert lines[1].startswith("encrypt,64,3,150000,")


def test_benchresult_rejects_zero_reps():
    with pytest.raises(ValueError):
        BenchResult("encrypt", 64, 0, 1.0, 0.064)

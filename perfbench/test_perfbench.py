"""Tests of the benchmark itself: each workload's check catches a
one-bit-corrupted output, tracing leaves outputs unchanged, the exact
counts repeat, and the printed result follows ``BENCHMARK.json``.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads as W
from separ.analysis import DiffCharacteristic, sbox
from tracing import Tracer

SEED = W.DEFAULT_SEED
SPEC = json.loads((W.ROOT / "BENCHMARK.json").read_text())
EXACT = ("core.enc_block.calls", "core.dec_block.calls", "core.enc_block_table.calls",
         "core.scalar_word_share", "nist.samples_passed", "sbox.compute_ddt.calls",
         "differential.trails.r1", "differential.trails.r5",
         "differential.linear_diffusion.calls")


def flip(data: bytes, bit: int) -> bytes:
    out = bytearray(data)
    out[bit // 8] ^= 0x80 >> (bit % 8)
    return bytes(out)


def corrupt_short(workload, out):
    ct, rt = out
    return flip(ct, 5), rt


def corrupt_bulk(workload, out):
    # past the oracle-checked prefix: only the frozen digest can see it
    ct = workload.ct_path.read_bytes()
    workload.ct_path.write_bytes(flip(ct, 8 * len(ct) - 1))
    return out


def corrupt_keystream(workload, out):
    ks, *rest = out
    return (flip(ks, 8 * len(ks) - 1), *rest)


def corrupt_trails(workload, out):
    *rest, r5 = out
    last = r5[-1]
    bad = DiffCharacteristic(last.rounds, last.differences[:-1] + (last.differences[-1] ^ 1,),
                             last.probability)
    return (*rest, r5[:-1] + [bad])


@pytest.mark.parametrize("name,corrupt", [
    ("short-messages", corrupt_short),
    ("bulk-file", corrupt_bulk),
    ("analysis-battery", corrupt_keystream),
    ("analysis-battery", corrupt_trails),
])
def test_one_corrupted_bit_fails_the_check(name, corrupt, tmp_path):
    workload = W.WORKLOADS[name](SEED, tmp_path)
    inp = next(workload.inputs())
    out, _ = workload.op(inp)
    assert workload.check(0, inp, workload.evidence(inp, out)) is None
    bad = corrupt(workload, out)
    assert workload.check(0, inp, workload.evidence(inp, bad)) is not None


def test_an_op_that_raises_is_counted_and_the_run_goes_on(tmp_path):
    workload = W.ShortMessages(SEED, tmp_path)
    calls = []
    real_op = workload.op

    def flaky(inp):
        calls.append(inp)
        if len(calls) == 2:
            raise RuntimeError("injected")
        return real_op(inp)

    workload.op = flaky
    result = run.run_ops(workload, count=4)
    assert len(result.latencies) == 4
    assert [index for index, _ in result.problems] == [1]


def exact_counts(metrics):
    return {k: metrics[k][0] for k in EXACT}


@pytest.mark.parametrize("name,ops", [
    ("short-messages", 50),
    ("bulk-file", 1),
    ("analysis-battery", 1),
])
def test_tracing_keeps_outputs_and_exact_counts_repeat(name, ops, tmp_path):
    attempted, problems, metrics, details = run.traced(name, SEED, tmp_path, ops)
    assert attempted == ops
    assert problems == []  # includes the traced == untraced comparison
    assert details["absent"] == []
    assert {m["name"] for m in SPEC["per_layer"]} <= metrics.keys()

    with Tracer() as tracer:
        again = run.run_ops(W.WORKLOADS[name](SEED, tmp_path), count=ops)
    assert again.problems == []
    assert exact_counts(tracer.metrics()[0]) == exact_counts(metrics)

    share = metrics["core.scalar_word_share"][0]
    assert share == (1.0 if name == "short-messages" else 0.0)
    if name == "analysis-battery":
        assert metrics["differential.trails.r1"][0] == 72


def test_a_missing_layer_is_reported_absent(monkeypatch, tmp_path):
    monkeypatch.delattr(sbox, "compute_ddt")
    attempted, problems, metrics, details = run.traced("short-messages", SEED, tmp_path, 5)
    assert problems == []
    assert details["absent"] == ["sbox.compute_ddt"]
    assert "sbox.compute_ddt.ms" not in metrics


def bench(*args, cwd=W.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_names_every_metric(trace, section):
    proc = bench("--workload", "short-messages", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items() if k in units} == units
    details = json.loads(proc.stdout.splitlines()[-2])
    assert details["environment"]["seed"] == 3


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(W.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(W.ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "short-messages", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert sorted(p.name for p in Path(tmp_path).iterdir()) == ["BENCHMARK.json", "perfbench"]

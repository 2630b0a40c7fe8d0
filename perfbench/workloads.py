"""The four closed-loop workloads of the separ benchmark.

A workload draws every input from ``random.Random(seed)``; the program
only ever sees those generated inputs. Each workload offers:

* ``inputs()``: the endless, seed-determined sequence of op inputs;
* ``op(inp)``: the timed operation, returning the program's output and
  the durations of the op's steps;
* ``evidence(inp, out)``: the output reduced to what the checks need,
  taken outside the timed section;
* ``check(index, inp, ev)``: ``None`` when the output is correct, else a
  one-line reason.

Calls into the program go through module attributes at call time
(``core.Separ``, ``cli.main``, ``nist.nist_subset``...), so the wrappers
that :mod:`tracing` installs see them.
"""

from __future__ import annotations

import hashlib
import importlib.util
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from separ import cli, core  # noqa: E402
from separ.analysis import differential, nist, stats  # noqa: E402

DEFAULT_SEED = 0

# Frozen outputs of the first op at DEFAULT_SEED. The oracle is too slow
# to check a whole megabyte, so these cover the full output once.
BULK_CT_SHA256 = "651f000a586b78616a2995f76065d1e35ba24a527eabb6e3b8bfb1e690acdff5"
KEYSTREAM_SHA256 = "f9f9e349e8f21156a95beecd04d4a2722c384c8cb62b2609c7b3e29f41b69067"
BATTERY_SHA256 = "ea05e50ee5ba6b2d3cf29ccc349ee80689ab7565192e681e180c13cb5781f32b"
# The r=5 trail list does not depend on the seed.
TRAILS_R5_SHA256 = "26436943561482331a1efd7102b3107a2ba6aabcbc42d9e4a5f7a711a7819b1b"

ORACLE_PREFIX = 4096  # octets of each bulk output replayed through the oracle


def load_oracle():
    """Import the test suite's independent reference cipher, read-only."""
    path = ROOT / "tests" / "reference_oracle.py"
    spec = importlib.util.spec_from_file_location("reference_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ORACLE = load_oracle()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class ShortMessages:
    """Fresh key and nonce per op; encrypt then decrypt 1 to 12 words.

    Below the bulk threshold, so only the key schedule, ``initialize``
    and the scalar block functions run; no table is ever built.
    """

    name = "short-messages"
    trace_ops = 1000

    def __init__(self, seed: int, workdir: Path) -> None:
        self.rng = random.Random(seed)

    def inputs(self):
        rng = self.rng
        while True:
            yield rng.randbytes(32), rng.randbytes(16), rng.randbytes(2 * rng.randint(1, 12))

    def op(self, inp):
        key, nonce, pt = inp
        t0 = perf_counter()
        cipher = core.Separ(key)
        ct = cipher.encrypt(nonce, pt)
        t1 = perf_counter()
        rt = cipher.decrypt(nonce, ct)
        t2 = perf_counter()
        return (ct, rt), (t1 - t0, t2 - t1)

    def evidence(self, inp, out):
        return out

    def check(self, index, inp, ev):
        key, nonce, pt = inp
        ct, rt = ev
        if rt != pt:
            return "decrypt(encrypt(m)) != m"
        if ct != ORACLE.ref_encrypt_bytes(key, nonce, pt):
            return "ciphertext differs from the reference oracle"
        return None


class BulkFile:
    """``separ encrypt`` then ``separ decrypt`` of a 1 MB file via ``cli.main``.

    Every invocation builds the per-key tables again, as a user's
    command line would; decrypt also pays the inverse-table scatter.
    """

    name = "bulk-file"
    trace_ops = 2
    size = 1_000_000

    def __init__(self, seed: int, workdir: Path) -> None:
        self.rng = random.Random(seed)
        self.seed = seed
        self.plaintext = self.rng.randbytes(self.size)
        self.pt_path = workdir / "plain.bin"
        self.ct_path = workdir / "cipher.bin"
        self.rt_path = workdir / "roundtrip.bin"
        self.pt_path.write_bytes(self.plaintext)

    def inputs(self):
        rng = self.rng
        while True:
            yield rng.randbytes(32), rng.randbytes(16)

    def op(self, inp):
        key, iv = inp
        common = ["--key", key.hex(), "--iv", iv.hex()]
        t0 = perf_counter()
        enc = cli.main(["encrypt", *common, "--in", str(self.pt_path), "--out", str(self.ct_path)])
        t1 = perf_counter()
        dec = cli.main(["decrypt", *common, "--in", str(self.ct_path), "--out", str(self.rt_path)])
        t2 = perf_counter()
        if enc or dec:
            raise RuntimeError(f"separ exited with {enc} (encrypt) and {dec} (decrypt)")
        return None, (t1 - t0, t2 - t1)

    def evidence(self, inp, out):
        ct = self.ct_path.read_bytes()
        return ct[:ORACLE_PREFIX], len(ct), sha256(ct), self.rt_path.read_bytes() == self.plaintext

    def check(self, index, inp, ev):
        key, iv = inp
        head, length, digest, round_trip = ev
        if not round_trip:
            return "decrypted file differs from the plaintext"
        if length != self.size:
            return f"ciphertext is {length} octets, expected {self.size}"
        if head != ORACLE.ref_encrypt_bytes(key, iv, self.plaintext[:ORACLE_PREFIX]):
            return "ciphertext prefix differs from the reference oracle"
        if self.seed == DEFAULT_SEED and index == 0 and digest != BULK_CT_SHA256:
            return "ciphertext digest differs from the frozen value"
        return None


@dataclass(frozen=True)
class BatteryEvidence:
    head: bytes
    ks_digest: str
    results_digest: str
    entropy: float
    corr_peak: float
    period: int | None
    reports: int
    samples_passed: int
    census: int
    trails_digest: str
    trails_present: tuple[bool, ...]


class AnalysisBattery:
    """One key per run, a fresh nonce per op. Each op makes a 10^6-octet
    keystream; runs entropy, autocorrelation and periodicity on the whole
    stream and ``nist_subset`` on each of its eight 10^6-bit slices; and
    then runs criterion 07's two characteristic searches.

    The per-key tables are built by the first op and reused after it.
    """

    name = "analysis-battery"
    trace_ops = 1
    octets = 1_000_000
    slices = 8
    max_lag = 1024
    census = 72  # measured r=1 census; criterion 07 asserts the published 28
    required_trails = ((0x0300, 0x0500), (0x0700, 0x0D00))

    def __init__(self, seed: int, workdir: Path) -> None:
        self.rng = random.Random(seed)
        self.seed = seed
        self.key = self.rng.randbytes(32)
        self.cipher = core.Separ(self.key)

    def inputs(self):
        while True:
            yield self.rng.randbytes(16)

    def op(self, nonce):
        t0 = perf_counter()
        ks = self.cipher.keystream(nonce, self.octets // 2)
        t1 = perf_counter()
        h = stats.entropy(ks)
        corr = stats.autocorrelation(ks, self.max_lag)
        per = stats.periodicity(ks)
        n = self.octets // self.slices
        reports = [nist.nist_subset(ks[i * n:(i + 1) * n]) for i in range(self.slices)]
        t2 = perf_counter()
        r1 = differential.characteristic_search(1, Fraction(1, 4))
        r5 = differential.characteristic_search(5, Fraction(1, 2048))
        t3 = perf_counter()
        return (ks, h, corr, per, reports, r1, r5), (t1 - t0, t2 - t1, t3 - t2)

    def evidence(self, nonce, out):
        ks, h, corr, per, reports, r1, r5 = out
        corr_peak = float(np.nanmax(np.abs(corr)))
        # Nine significant digits: enough to catch a changed output,
        # few enough that a different BLAS summation order does not.
        lines = [f"entropy {h:.9e}", f"autocorrelation {corr_peak:.9e}",
                 f"periodicity {per.period} {per.longest_repeat} {per.witness}"]
        lines += [f"{r.name} {r.statistic:.9e} {r.p_value:.9e} {r.passed}"
                  for sample in reports for r in sample]
        ends = {(c.differences[0], c.differences[-1]) for c in r5}
        return BatteryEvidence(
            head=ks[:ORACLE_PREFIX],
            ks_digest=sha256(ks),
            results_digest=sha256("\n".join(lines).encode()),
            entropy=h,
            corr_peak=corr_peak,
            period=per.period,
            reports=sum(len(sample) for sample in reports),
            samples_passed=sum(all(r.passed for r in sample) for sample in reports),
            census=len(r1),
            trails_digest=sha256("\n".join(map(str, r5)).encode()),
            trails_present=tuple(t in ends for t in self.required_trails),
        )

    def check(self, index, nonce, ev: BatteryEvidence):
        if ev.head != ORACLE.ref_encrypt_bytes(self.key, nonce, bytes(ORACLE_PREFIX)):
            return "keystream prefix differs from the reference oracle"
        if ev.reports != 6 * self.slices:
            return f"{ev.reports} SP 800-22 reports, expected {6 * self.slices}"
        # criterion 08's gates; each sits many standard deviations away
        if ev.entropy < 7.99 or not ev.corr_peak < 0.01 or ev.period is not None:
            return "keystream fails the entropy, autocorrelation or periodicity gate"
        if ev.census != self.census:
            return f"r=1 census is {ev.census}, expected {self.census}"
        if not all(ev.trails_present):
            return "a required five-round trail is missing"
        if ev.trails_digest != TRAILS_R5_SHA256:
            return "r=5 trail list differs from the frozen value"
        if self.seed == DEFAULT_SEED and index == 0:
            if ev.ks_digest != KEYSTREAM_SHA256:
                return "keystream digest differs from the frozen value"
            if ev.results_digest != BATTERY_SHA256:
                return "battery results digest differs from the frozen value"
        return None


WORKLOADS = {w.name: w for w in (ShortMessages, BulkFile, AnalysisBattery)}

"""Command-line surface for the cipher, the analysis workbench, and the
benchmark harness.

Exit codes:
    0  success
    1  verification failure (vectors check)
    2  usage error (bad flags or argument values)
    3  malformed hex input
    4  wrong key/IV length
    5  I/O failure
    6  odd message length without --pad-zero

The LFSR feedback mask can be overridden for the whole invocation with
the environment variable SEPAR_LFSR_TAPS (hex, e.g. "D008"); the mask
must generate a maximal-length sequence.

Keystream export writes raw octets in "bin" format, most significant
bit of each octet first, which is the layout the external statistical
test suite ingests.

encrypt, decrypt and keystream run in memory that does not grow with
the data: "bin" input is read, and each piece's output written, _CHUNK
octets at a time.  A "hex" input, the vector format, is parsed whole.
Every --out file, or the file a --out symlink names, and each CSV of
"analyze sbox", is written under a temporary name beside it and moved
into place, keeping the old file's permission bits, only on success, so
a failing command leaves it absent or as it was.  Standard output gets
each piece as it is produced: an odd-length "bin" input without
--pad-zero has had its even prefix written there when the command
exits 6.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import stat
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import BinaryIO, Callable, Iterator

from . import analysis  # a lazy package: each command loads what it uses
from .core import (
    DEFAULT_LFSR,
    KEY_BYTES,
    LfsrSpec,
    NONCE_BYTES,
    OddLengthError,
    SBOXES,
    Separ,
    _keystream_length,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BAD_HEX = 3
EXIT_BAD_LENGTH = 4
EXIT_IO = 5
EXIT_ODD_LENGTH = 6

DEFAULT_KEY = "00" * KEY_BYTES
DEFAULT_IV = "00" * NONCE_BYTES

# Octets of "bin" input per read, and of keystream per write.
_CHUNK = 1 << 16


class HexFormatError(ValueError):
    pass


class HexLengthError(ValueError):
    pass


def parse_hex(text: str, expected_octets: int | None = None, what: str = "value") -> bytes:
    cleaned = "".join(text.split())
    if expected_octets is not None and len(cleaned) != 2 * expected_octets:
        raise HexLengthError(
            f"{what} must be {2 * expected_octets} hex digits, got {len(cleaned)}")
    try:
        return bytes.fromhex(cleaned)
    except ValueError as exc:
        raise HexFormatError(f"{what} is not valid hex: {exc}") from None


def _key_iv(args: argparse.Namespace) -> tuple[bytes, bytes]:
    return parse_hex(args.key, KEY_BYTES, "key"), parse_hex(args.iv, NONCE_BYTES, "iv")


def _lfsr_from_env() -> LfsrSpec:
    raw = os.environ.get("SEPAR_LFSR_TAPS")
    if not raw:
        return DEFAULT_LFSR
    try:
        taps = int(raw, 16)
    except ValueError:
        raise HexFormatError(f"SEPAR_LFSR_TAPS is not valid hex: {raw!r}") from None
    return LfsrSpec(taps=taps)


# ---------------------------------------------------------------------------
# data I/O
# ---------------------------------------------------------------------------

def _input(path: str) -> contextlib.AbstractContextManager[BinaryIO]:
    return contextlib.nullcontext(sys.stdin.buffer) if path == "-" else open(path, "rb")


def _read_hex(path: str) -> bytes:
    with _input(path) as src:
        raw = src.read()
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError as exc:
        raise HexFormatError(f"input data is not valid hex: {exc}") from None
    lines = [ln for ln in text.splitlines() if not ln.lstrip().startswith("#")]
    return parse_hex("".join(lines), what="input data")


@contextlib.contextmanager
def _output(path: str) -> Iterator[BinaryIO]:
    """The binary sink for --out.  A regular file, reached through any
    symlinks, or a path where none exists yet, is written under a
    temporary name in the same directory and moved into place, with the
    old file's permission bits, only if the block completes; stdout and
    anything else that is not a regular file (a device, a pipe) is
    written in place."""
    if path == "-":
        try:
            yield sys.stdout.buffer
        finally:
            sys.stdout.buffer.flush()
        return
    try:
        old = os.stat(path)
    except FileNotFoundError:
        old = None
    if old is not None and not stat.S_ISREG(old.st_mode):
        with open(path, "wb") as sink:
            yield sink
        return
    target = Path(os.path.realpath(path))
    part = target.with_name(f".{target.name}.{os.urandom(4).hex()}.part")
    try:
        with part.open("xb") as sink:
            if old is not None:
                os.chmod(sink.fileno(), stat.S_IMODE(old.st_mode))
            yield sink
        os.replace(part, target)
    except BaseException:
        part.unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------------------
# cipher commands
# ---------------------------------------------------------------------------

def _pipe(args: argparse.Namespace, update: Callable[[bytes], bytes],
          finalize: Callable[[], bytes]) -> int:
    """Run --in through a cipher stream into --out.  "bin" input goes in
    _CHUNK-octet pieces, each piece's output written as soon as it is
    produced; "hex" input is one piece, so its padding header can come
    first."""
    if args.format == "hex":
        data = _read_hex(args.infile)
        out = update(data) + finalize()
        # only a zero-padded encryption completes on an odd input
        header = "# zero-padded: 1 octet appended\n" if len(data) % 2 else ""
        with _output(args.outfile) as sink:
            sink.write(f"{header}{out.hex().upper()}\n".encode("ascii"))
    else:
        with _input(args.infile) as src, _output(args.outfile) as sink:
            for piece in iter(lambda: src.read(_CHUNK), b""):
                sink.write(update(piece))
            sink.write(finalize())
    return EXIT_OK


def cmd_encrypt(args: argparse.Namespace) -> int:
    key, iv = _key_iv(args)
    stream = Separ(key, _lfsr_from_env()).encryptor(iv)
    return _pipe(args, stream.update, lambda: stream.finalize(args.pad_zero))


def cmd_decrypt(args: argparse.Namespace) -> int:
    key, iv = _key_iv(args)
    stream = Separ(key, _lfsr_from_env()).decryptor(iv)
    return _pipe(args, stream.update, stream.finalize)


def cmd_keystream(args: argparse.Namespace) -> int:
    """Encrypted zero words, _CHUNK octets at a time."""
    key, iv = _key_iv(args)
    nwords = _keystream_length(args.words)
    stream = Separ(key, _lfsr_from_env()).encryptor(iv)
    zeros = memoryview(bytes(_CHUNK))
    with _output(args.outfile) as sink:
        for start in range(0, 2 * nwords, _CHUNK):
            ks = stream.update(zeros[:2 * nwords - start])
            sink.write(ks if args.format == "bin" else ks.hex().upper().encode("ascii"))
        if args.format == "hex":
            sink.write(b"\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# analysis commands
# ---------------------------------------------------------------------------

def _bits_to_words(bits: int, flag: str) -> int:
    """The number of 16-bit words in a bit count given on the command line."""
    if bits <= 0 or bits % 16:
        raise ValueError(f"{flag} must be a positive multiple of 16, got {bits}")
    return bits // 16


def _table_csv(table) -> str:
    return "\n".join(",".join(str(int(v)) for v in row) for row in table) + "\n"


def cmd_analyze_sbox(args: argparse.Namespace) -> int:
    if not 1 <= args.id <= 4:
        raise ValueError(f"S-box id must be in 1..4, got {args.id}")
    box = SBOXES[args.id - 1]
    ddt = analysis.compute_ddt(box)
    lat = analysis.compute_lat(box)
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, table in (("ddt", ddt.counts), ("lat", lat.biases)):
        with _output(str(outdir / f"sbox{args.id}_{name}.csv")) as sink:
            sink.write(_table_csv(table).encode("ascii"))
    report = analysis.golden_check(box)
    print(f"S-box {args.id}: bijective={report.bijective} "
          f"max_diff_prob={report.max_diff_prob} "
          f"max_lin_prob={report.max_lin_prob} "
          f"degree={report.degree} golden={report.is_golden}")
    print(f"wrote {outdir}/sbox{args.id}_ddt.csv and sbox{args.id}_lat.csv")
    return EXIT_OK


def cmd_analyze_avalanche(args: argparse.Namespace) -> int:
    key, iv = _key_iv(args)
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    message_octets = 2 * _bits_to_words(args.message_bits, "--message-bits")
    rng = random.Random(args.seed)
    distances = []
    for trial in range(args.trials):
        pt = rng.randbytes(message_octets)
        if args.bit is not None:
            bit = args.bit
        elif args.bits == "low-nibble":
            # bits 12..15 of the first word: the positions from which a
            # perturbation reaches every later position of the stream
            bit = 12 + rng.randrange(4)
        else:
            bit = rng.randrange(8 * message_octets)
        rep = analysis.avalanche(key, iv, pt, args.target, bit,
                                 lfsr_spec=_lfsr_from_env())
        distances.append(rep.distance)
        print(json.dumps({"trial": trial, "target": rep.flip_target,
                          "bit": rep.flip_bit, "distance": rep.distance,
                          "total_bits": rep.total_bits}))
    mean = sum(distances) / len(distances)
    print(json.dumps({"trials": args.trials, "mean_distance": mean,
                      "total_bits": 8 * message_octets}))
    return EXIT_OK


def cmd_analyze_stats(args: argparse.Namespace) -> int:
    key = parse_hex(args.key, KEY_BYTES, "key")
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    nwords = _bits_to_words(args.bits, "--bits")
    rng = random.Random(args.seed)
    cipher = Separ(key, _lfsr_from_env())
    for sample in range(args.samples):
        iv = rng.randbytes(NONCE_BYTES)
        ks = cipher.keystream(iv, nwords)
        for rep in analysis.nist_subset(ks):
            print(json.dumps({"sample": sample, "iv": iv.hex().upper(),
                              "test": rep.name, "statistic": rep.statistic,
                              "p_value": rep.p_value, "passed": rep.passed,
                              "n_bits": rep.n_bits}))
        print(json.dumps({"sample": sample, "test": "entropy",
                          "bits_per_octet": analysis.entropy(ks)}))
    return EXIT_OK


def cmd_analyze_diff(args: argparse.Namespace) -> int:
    try:
        p_min = Fraction(args.pmin) if "/" in args.pmin else Fraction(float(args.pmin))
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ValueError(f"--pmin is not a finite probability: {args.pmin!r}") from None
    chars = analysis.characteristic_search(args.rounds, p_min)
    text = "".join(f"{c.differences[0]:04X} -> {c.differences[-1]:04X} "
                   f"p={c.probability.numerator}/{c.probability.denominator}\n"
                   for c in chars)
    with _output(args.outfile) as sink:
        sink.write(text.encode("ascii"))
    if args.outfile != "-":
        print(f"{len(chars)} characteristics -> {args.outfile}")
    return EXIT_OK


def cmd_analyze_complexity(args: argparse.Namespace) -> int:
    eqs, vars_ = analysis.algebraic_complexity(
        args.sboxes_per_encblock, args.encblocks, args.keyschedule_sboxes)
    print(json.dumps({"sboxes_per_encblock": args.sboxes_per_encblock,
                      "encblocks": args.encblocks,
                      "keyschedule_sboxes": args.keyschedule_sboxes,
                      "equations": eqs, "variables": vars_}))
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench and vectors
# ---------------------------------------------------------------------------

def cmd_bench(args: argparse.Namespace) -> int:
    from . import bench
    key, iv = _key_iv(args)
    sizes = [int(s) for s in args.sizes.split(",")]
    results = []
    for bits in sizes:
        for op in ("encrypt", "decrypt"):
            init, work = bench.run_bench(key, iv, bits, args.reps, op,
                                         seed=args.seed,
                                         lfsr_spec=_lfsr_from_env())
            if op == "encrypt":
                results.append(init)
            results.append(work)
    with _output(args.outfile) as sink:
        sink.write(bench.results_csv(results).encode("ascii"))
    return EXIT_OK


def parse_vector_file(text: str) -> dict[str, bytes]:
    """key, iv, pt and ct; key and iv are held to the lengths of --key and --iv."""
    fields: dict[str, bytes] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, value = line.partition("=")
        name = name.strip().lower()
        expected = {"key": KEY_BYTES, "iv": NONCE_BYTES}.get(name)
        fields[name] = parse_hex(value, expected, name)
    missing = {"key", "iv", "pt", "ct"} - fields.keys()
    if missing:
        raise HexFormatError(f"vector file missing fields: {sorted(missing)}")
    return fields


def default_vector_dir() -> Path:
    return Path(str(resources.files("separ").joinpath("vectors")))


def check_vector_file(path: Path) -> bool:
    v = parse_vector_file(path.read_text())
    cipher = Separ(v["key"], _lfsr_from_env())
    ct = cipher.encrypt(v["iv"], v["pt"])
    pt = cipher.decrypt(v["iv"], v["ct"])
    return ct == v["ct"] and pt == v["pt"]


def cmd_vectors_check(args: argparse.Namespace) -> int:
    directory = Path(args.dir) if args.dir else default_vector_dir()
    files = sorted(directory.glob("*.txt"))
    if not files:
        print(f"no vector files found in {directory}", file=sys.stderr)
        return EXIT_IO
    failures = 0
    for f in files:
        ok = check_vector_file(f)
        print(f"{'PASS' if ok else 'FAIL'} {f.name}")
        failures += not ok
    return EXIT_OK if failures == 0 else 1


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _add_key_iv(p: argparse.ArgumentParser) -> None:
    p.add_argument("--key", default=DEFAULT_KEY,
                   help=f"{2 * KEY_BYTES}-digit hex master key")
    p.add_argument("--iv", default=DEFAULT_IV,
                   help=f"{2 * NONCE_BYTES}-digit hex initialization vector")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="separ",
        description="SEPAR cipher, analysis workbench, and benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn in (("encrypt", cmd_encrypt), ("decrypt", cmd_decrypt)):
        p = sub.add_parser(name, help=f"{name} a file or stream")
        _add_key_iv(p)
        p.add_argument("--in", dest="infile", default="-", help="input path or -")
        p.add_argument("--out", dest="outfile", default="-", help="output path or -")
        p.add_argument("--format", choices=("hex", "bin"), default="bin")
        if name == "encrypt":
            p.add_argument("--pad-zero", action="store_true",
                           help="zero-pad odd-length input")
        p.set_defaults(fn=fn)

    p = sub.add_parser("keystream", help="emit encrypted zero words")
    _add_key_iv(p)
    p.add_argument("--words", type=int, default=1024, help="16-bit words to emit")
    p.add_argument("--out", dest="outfile", default="-")
    p.add_argument("--format", choices=("hex", "bin"), default="bin")
    p.set_defaults(fn=cmd_keystream)

    pa = sub.add_parser("analyze", help="cryptanalysis reports")
    asub = pa.add_subparsers(dest="analysis", required=True)

    p = asub.add_parser("sbox", help="DDT/LAT tables and golden criteria")
    p.add_argument("--id", type=int, required=True, help="S-box number 1..4")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(fn=cmd_analyze_sbox)

    p = asub.add_parser("avalanche", help="bit-flip diffusion measurements")
    _add_key_iv(p)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--message-bits", type=int, default=128)
    p.add_argument("--target", choices=("plaintext", "key", "iv"),
                   default="plaintext")
    p.add_argument("--bit", type=int, default=None,
                   help="fixed flip position (default: random per trial)")
    p.add_argument("--bits", choices=("low-nibble", "uniform"),
                   default="low-nibble",
                   help="random flip position distribution")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_analyze_avalanche)

    p = asub.add_parser("stats", help="randomness test battery on keystream")
    p.add_argument("--key", default=DEFAULT_KEY)
    p.add_argument("--bits", type=int, default=1_000_000)
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_analyze_stats)

    p = asub.add_parser("diff", help="differential characteristic search")
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--pmin", required=True,
                   help="probability threshold, e.g. 0.25 or 1/1024")
    p.add_argument("--out", dest="outfile", default="-")
    p.set_defaults(fn=cmd_analyze_diff)

    p = asub.add_parser("complexity", help="algebraic equation/variable counts")
    p.add_argument("--sboxes-per-encblock", type=int, default=18,
                   help="S-boxes per enc_block (default 18: the paper's tally)")
    p.add_argument("--encblocks", type=int, default=16,
                   help="enc_block applications (default 16: the paper's tally)")
    p.add_argument("--keyschedule-sboxes", type=int, default=32,
                   help="key-schedule S-boxes (default 32: the paper's tally)")
    p.set_defaults(fn=cmd_analyze_complexity)

    p = sub.add_parser("bench", help="timing and throughput measurements")
    _add_key_iv(p)
    p.add_argument("--sizes", default="64,128,192", help="message sizes in bits")
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--seed", type=int, default=0x5EBA)
    p.add_argument("--out", dest="outfile", default="-")
    p.set_defaults(fn=cmd_bench)

    pv = sub.add_parser("vectors", help="golden vector management")
    vsub = pv.add_subparsers(dest="vectors_cmd", required=True)
    p = vsub.add_parser("check", help="re-encrypt stored vectors and compare")
    p.add_argument("--dir", default=None, help="vector directory override")
    p.set_defaults(fn=cmd_vectors_check)

    return parser


# The exit code of each failure, first match wins: the ValueError
# subclasses come before ValueError.
EXIT_CODES = (
    (HexFormatError, EXIT_BAD_HEX),
    (HexLengthError, EXIT_BAD_LENGTH),
    (OddLengthError, EXIT_ODD_LENGTH),
    (ValueError, EXIT_USAGE),
    (OSError, EXIT_IO),
)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except tuple(kind for kind, _ in EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())

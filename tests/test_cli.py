"""Command-line surface: thin-shell equivalence, exit codes, formats."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import separ
from separ.cli import (
    EXIT_BAD_HEX,
    EXIT_BAD_LENGTH,
    EXIT_IO,
    EXIT_ODD_LENGTH,
    EXIT_OK,
    EXIT_USAGE,
    _CHUNK,
    default_vector_dir,
    main,
    parse_vector_file,
)
from separ.core import LfsrSpec, Separ

KEY_HEX = "000102030405060708090A0B0C0D0E0F101112131415161718191A1B1C1D1E1F"
IV_HEX = "000102030405060708090A0B0C0D0E0F"
KEY = bytes.fromhex(KEY_HEX)
IV = bytes.fromhex(IV_HEX)


def run(args):
    return main(args)


def test_encrypt_decrypt_roundtrip_bin(tmp_path):
    data = bytes(range(256)) * 4  # 1 KiB
    src = tmp_path / "plain.bin"
    enc = tmp_path / "ct.bin"
    dec = tmp_path / "pt.bin"
    src.write_bytes(data)
    assert run(["encrypt", "--key", KEY_HEX, "--iv", IV_HEX, "--format", "bin",
                "--in", str(src), "--out", str(enc)]) == EXIT_OK
    assert run(["decrypt", "--key", KEY_HEX, "--iv", IV_HEX, "--format", "bin",
                "--in", str(enc), "--out", str(dec)]) == EXIT_OK
    assert dec.read_bytes() == data


def test_cli_matches_library(tmp_path):
    data = b"byte-identical results to direct library calls!!"
    src = tmp_path / "in.bin"
    out = tmp_path / "out.bin"
    src.write_bytes(data)
    run(["encrypt", "--key", KEY_HEX, "--iv", IV_HEX, "--format", "bin",
         "--in", str(src), "--out", str(out)])
    assert out.read_bytes() == Separ(KEY).encrypt(IV, data)


def test_hex_format_roundtrip(tmp_path):
    src = tmp_path / "in.hex"
    enc = tmp_path / "ct.hex"
    dec = tmp_path / "pt.hex"
    src.write_text("# comment line\nDEADBEEF\n")
    run(["encrypt", "--key", KEY_HEX, "--iv", IV_HEX, "--format", "hex",
         "--in", str(src), "--out", str(enc)])
    run(["decrypt", "--key", KEY_HEX, "--iv", IV_HEX, "--format", "hex",
         "--in", str(enc), "--out", str(dec)])
    assert "DEADBEEF" in dec.read_text()


def test_bad_key_hex_exit_code(tmp_path):
    src = tmp_path / "x"
    src.write_bytes(b"\x00\x00")
    out = tmp_path / "y"
    code = run(["encrypt", "--key", "ZZ" * 32, "--iv", IV_HEX, "--format", "bin",
                "--in", str(src), "--out", str(out)])
    assert code == EXIT_BAD_HEX
    assert not out.exists()


def test_bad_key_length_exit_code(tmp_path):
    src = tmp_path / "x"
    src.write_bytes(b"\x00\x00")
    out = tmp_path / "y"
    code = run(["encrypt", "--key", "AB" * 31 + "C", "--iv", IV_HEX,
                "--format", "bin", "--in", str(src), "--out", str(out)])
    assert code == EXIT_BAD_LENGTH
    assert not out.exists()


@pytest.mark.parametrize("octets", [0, 31, 33])
def test_wrong_key_length_exit_code(tmp_path, octets):
    src = tmp_path / "x"
    src.write_bytes(b"\x00\x00")
    out = tmp_path / "y"
    code = run(["encrypt", "--key", "AB" * octets, "--iv", IV_HEX,
                "--format", "bin", "--in", str(src), "--out", str(out)])
    assert code == EXIT_BAD_LENGTH
    assert not out.exists()


def test_odd_length_exit_code(tmp_path, capsys):
    src = tmp_path / "x"
    src.write_bytes(b"\x00\x00\x00")
    out = tmp_path / "y"
    code = run(["encrypt", "--key", KEY_HEX, "--iv", IV_HEX, "--format", "bin",
                "--in", str(src), "--out", str(out)])
    assert code == EXIT_ODD_LENGTH
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--pad-zero" in err


def test_pad_zero_flag(tmp_path):
    src = tmp_path / "x"
    src.write_bytes(b"\x41\x42\x43")
    out = tmp_path / "y"
    code = run(["encrypt", "--key", KEY_HEX, "--iv", IV_HEX, "--format", "bin",
                "--pad-zero", "--in", str(src), "--out", str(out)])
    assert code == EXIT_OK
    assert out.read_bytes() == Separ(KEY).encrypt(IV, b"ABC\x00")


def test_keystream_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for path in (a, b):
        assert run(["keystream", "--key", KEY_HEX, "--iv", IV_HEX,
                    "--words", "100", "--format", "bin",
                    "--out", str(path)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_bytes()) == 200
    assert a.read_bytes() == Separ(KEY).keystream(IV, 100)


def test_keystream_negative_words_exit_code(tmp_path, capsys):
    out = tmp_path / "ks"
    code = run(["keystream", "--key", KEY_HEX, "--iv", IV_HEX, "--words", "-3",
                "--out", str(out)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["encrypt", "decrypt"])
def test_non_ascii_hex_input_exit_code(tmp_path, capsys, command):
    src = tmp_path / "in.hex"
    src.write_bytes(b"DEAD\xffBEEF\n")
    out = tmp_path / "out.hex"
    code = run([command, "--key", KEY_HEX, "--iv", IV_HEX, "--format", "hex",
                "--in", str(src), "--out", str(out)])
    assert code == EXIT_BAD_HEX
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_keystream_iv_sensitivity(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    iv2 = "01" + IV_HEX[2:]
    run(["keystream", "--key", KEY_HEX, "--iv", IV_HEX, "--words", "10000",
         "--format", "bin", "--out", str(a)])
    run(["keystream", "--key", KEY_HEX, "--iv", iv2, "--words", "10000",
         "--format", "bin", "--out", str(b)])
    x = int.from_bytes(a.read_bytes(), "big")
    y = int.from_bytes(b.read_bytes(), "big")
    differing = (x ^ y).bit_count()
    assert differing >= 0.4 * 160_000


def test_analyze_sbox_writes_tables(tmp_path, capsys):
    assert run(["analyze", "sbox", "--id", "1",
                "--out-dir", str(tmp_path)]) == EXIT_OK
    ddt_rows = (tmp_path / "sbox1_ddt.csv").read_text().strip().splitlines()
    assert len(ddt_rows) == 16
    first = [int(v) for v in ddt_rows[0].split(",")]
    assert first[0] == 16 and sum(first) == 16
    # max nonzero-row entry is 4
    entries = [int(v) for row in ddt_rows[1:] for v in row.split(",")]
    assert max(entries) == 4
    lat_rows = (tmp_path / "sbox1_lat.csv").read_text().strip().splitlines()
    assert int(lat_rows[0].split(",")[0]) == 8


@pytest.mark.parametrize("box", ["0", "5"])
def test_analyze_sbox_bad_id_exit_code(tmp_path, capsys, box):
    code = run(["analyze", "sbox", "--id", box, "--out-dir", str(tmp_path)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")
    assert not list(tmp_path.iterdir())


def test_analyze_complexity_output(capsys):
    assert run(["analyze", "complexity"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out.strip())
    assert payload["equations"] == 6720
    assert payload["variables"] == 2560


def test_analyze_diff_output(tmp_path):
    out = tmp_path / "chars.txt"
    assert run(["analyze", "diff", "--rounds", "1", "--pmin", "0.25",
                "--out", str(out)]) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 72
    assert all("p=1/4" in ln for ln in lines)


@pytest.mark.parametrize("pmin", ["1/0", "inf", "nan", "1e400", "abc", "1/2/3", "2"])
def test_analyze_diff_bad_pmin_exit_code(tmp_path, capsys, pmin):
    out = tmp_path / "chars.txt"
    code = run(["analyze", "diff", "--rounds", "1", "--pmin", pmin,
                "--out", str(out)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_analyze_avalanche_json(capsys):
    assert run(["analyze", "avalanche", "--key", KEY_HEX, "--iv", IV_HEX,
                "--trials", "5", "--seed", "1"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 6
    summary = json.loads(lines[-1])
    assert summary["trials"] == 5 and 0 < summary["mean_distance"] <= 128


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_analyze_avalanche_bad_trials_exit_code(capsys, trials):
    code = run(["analyze", "avalanche", "--key", KEY_HEX, "--iv", IV_HEX,
                "--trials", trials])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""


def test_analyze_stats_json(capsys):
    assert run(["analyze", "stats", "--key", KEY_HEX, "--bits", "100000",
                "--samples", "1", "--seed", "3"]) == EXIT_OK
    lines = [json.loads(ln) for ln in capsys.readouterr().out.strip().splitlines()]
    tests = {ln["test"] for ln in lines}
    assert {"monobit", "runs", "serial", "entropy"} <= tests


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_analyze_stats_bad_samples_exit_code(capsys, samples):
    code = run(["analyze", "stats", "--key", KEY_HEX, "--samples", samples])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""


@pytest.mark.parametrize("bits", ["1000008", "7", "0", "-16"])
def test_analyze_stats_bits_not_whole_words_exit_code(capsys, bits):
    code = run(["analyze", "stats", "--key", KEY_HEX, "--bits", bits])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --bits must be a positive multiple of 16")
    assert captured.out == ""


@pytest.mark.parametrize("bits", ["20", "8", "0"])
def test_analyze_avalanche_message_bits_not_whole_words_exit_code(capsys, bits):
    code = run(["analyze", "avalanche", "--key", KEY_HEX, "--iv", IV_HEX,
                "--trials", "2", "--message-bits", bits])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --message-bits must be a positive multiple of 16")
    assert captured.out == ""


def test_analyze_stats_seed_reproducible(capsys):
    run(["analyze", "stats", "--key", KEY_HEX, "--bits", "100000",
         "--samples", "1", "--seed", "3"])
    first = capsys.readouterr().out
    run(["analyze", "stats", "--key", KEY_HEX, "--bits", "100000",
         "--samples", "1", "--seed", "3"])
    assert capsys.readouterr().out == first


def test_bench_csv(tmp_path):
    out = tmp_path / "bench.csv"
    assert run(["bench", "--key", KEY_HEX, "--iv", IV_HEX, "--sizes", "64",
                "--reps", "2", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("operation,message_bits")
    assert len(lines) == 4  # header + init + encrypt + decrypt


# text outputs: (argv with {out} and {dir} to fill in, files written, start of each)
TEXT_OUTPUTS = {
    "analyze diff": (["analyze", "diff", "--rounds", "1", "--pmin", "0.25", "--out", "{out}"],
                     {"out": "0002 -> 00AA p=1/4\n"}),
    "bench": (["bench", "--sizes", "64", "--reps", "2", "--out", "{out}"],
              {"out": "operation,message_bits"}),
    "analyze sbox": (["analyze", "sbox", "--id", "1", "--out-dir", "{dir}"],
                     {"sbox1_ddt.csv": "16,0,0", "sbox1_lat.csv": "8,0,0"}),
}


@pytest.mark.parametrize("command", TEXT_OUTPUTS)
def test_text_output_is_replaced_not_truncated(tmp_path, capsys, command):
    """A text --out (or CSV) that already exists is replaced as a whole:
    another hard link to the old file keeps the old content."""
    argv, written = TEXT_OUTPUTS[command]
    for name in written:
        (tmp_path / name).write_text("previous\n")
        os.link(tmp_path / name, tmp_path / f"{name}.old")
    assert run([a.format(out=tmp_path / "out", dir=tmp_path) for a in argv]) == EXIT_OK
    for name, start in written.items():
        assert (tmp_path / name).read_text().startswith(start)
        assert (tmp_path / f"{name}.old").read_text() == "previous\n"


def test_analyze_diff_to_stdout(capsys):
    assert run(["analyze", "diff", "--rounds", "1", "--pmin", "0.25"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 72
    assert all(ln.endswith(" p=1/4") for ln in lines)


def test_vectors_check_passes():
    assert run(["vectors", "check"]) == EXIT_OK


def test_encrypt_published_triple_gives_frozen_ct(tmp_path):
    """The stored avalanche-table triple, driven through the CLI hex
    flags, reproduces this implementation's frozen golden ciphertext."""
    src = tmp_path / "pt.hex"
    out = tmp_path / "ct.hex"
    src.write_text("156F19E18FE6297519A352C45731536A\n")
    key = "E8B9B733DA5D96D702DD3972E95307FD50C512DBF44A233E8D1E9DF5FC7D6371"
    assert run(["encrypt", "--key", key, "--iv", "00" * 16, "--format", "hex",
                "--in", str(src), "--out", str(out)]) == EXIT_OK
    assert out.read_text().strip() == "90CD4B40350FB603403B1743664676F5"


def test_vectors_check_detects_corruption(tmp_path):
    original = (default_vector_dir() / "zero_single_word.txt").read_text()
    corrupted = original.replace("ct=B06A", "ct=B06B")
    (tmp_path / "bad.txt").write_text(corrupted)
    assert run(["vectors", "check", "--dir", str(tmp_path)]) == 1


@pytest.mark.parametrize("field, value", [("key", "AB" * 31), ("iv", "CD" * 15)],
                         ids=["key", "iv"])
def test_vectors_check_bad_key_or_iv_length_exit_code(tmp_path, capsys, field, value):
    original = (default_vector_dir() / "zero_single_word.txt").read_text()
    lines = [f"{field}={value}" if ln.startswith(f"{field}=") else ln
             for ln in original.splitlines()]
    (tmp_path / "short.txt").write_text("\n".join(lines) + "\n")
    assert run(["vectors", "check", "--dir", str(tmp_path)]) == EXIT_BAD_LENGTH
    assert capsys.readouterr().err.startswith(f"error: {field} must be ")


def test_parse_vector_file_requires_fields():
    with pytest.raises(ValueError):
        parse_vector_file("key=00\niv=00\n")


def test_lfsr_env_override(tmp_path, monkeypatch):
    data = bytes(16)
    src = tmp_path / "in.bin"
    src.write_bytes(data)
    out_default = tmp_path / "d.bin"
    out_alt = tmp_path / "a.bin"
    run(["encrypt", "--key", KEY_HEX, "--iv", IV_HEX, "--format", "bin",
         "--in", str(src), "--out", str(out_default)])
    monkeypatch.setenv("SEPAR_LFSR_TAPS", "B400")
    run(["encrypt", "--key", KEY_HEX, "--iv", IV_HEX, "--format", "bin",
         "--in", str(src), "--out", str(out_alt)])
    assert out_alt.read_bytes() == Separ(KEY, LfsrSpec(taps=0xB400)).encrypt(IV, data)
    assert out_alt.read_bytes() != out_default.read_bytes()


def test_lfsr_env_override_rejects_weak_mask(tmp_path, monkeypatch):
    src = tmp_path / "in.bin"
    src.write_bytes(bytes(2))
    monkeypatch.setenv("SEPAR_LFSR_TAPS", "0001")
    code = run(["encrypt", "--key", KEY_HEX, "--iv", IV_HEX, "--format", "bin",
                "--in", str(src), "--out", str(tmp_path / "o")])
    assert code != EXIT_OK


def _listing(directory):
    return sorted(str(p.relative_to(directory)) for p in directory.rglob("*"))


# (command, --format, what --in holds, --out under tmp_path, SEPAR_LFSR_TAPS, exit code)
IO_FAILURES = {
    "missing-input": ("encrypt", "bin", None, "out.bin", None, EXIT_IO),
    "directory-input": ("encrypt", "bin", "dir", "out.bin", None, EXIT_IO),
    "missing-output-directory": ("encrypt", "bin", b"\x00\x01", "absent/out.bin", None, EXIT_IO),
    "weak-lfsr-taps": ("encrypt", "bin", b"\x00\x01", "out.bin", "0001", EXIT_USAGE),
    "non-hex-lfsr-taps": ("encrypt", "bin", b"\x00\x01", "out.bin", "zz", EXIT_BAD_HEX),
    "truncated-hex": ("decrypt", "hex", b"DEADBEE\n", "out.hex", None, EXIT_BAD_HEX),
    # odd after three whole pieces, so output was written before the error
    "odd-plaintext": ("encrypt", "bin", bytes(3 * _CHUNK + 1), "out.bin", None, EXIT_ODD_LENGTH),
    "odd-ciphertext": ("decrypt", "bin", bytes(3 * _CHUNK + 1), "out.bin", None, EXIT_ODD_LENGTH),
}


@pytest.mark.parametrize("case", IO_FAILURES.values(), ids=IO_FAILURES.keys())
def test_io_failures_leave_no_output(tmp_path, monkeypatch, capsys, case):
    command, fmt, content, out, taps, expected = case
    src = tmp_path / "in"
    if content == "dir":
        src.mkdir()
    elif content is not None:
        src.write_bytes(content)
    if taps is not None:
        monkeypatch.setenv("SEPAR_LFSR_TAPS", taps)
    before = _listing(tmp_path)
    code = run([command, "--key", KEY_HEX, "--iv", IV_HEX, "--format", fmt,
                "--in", str(src), "--out", str(tmp_path / out)])
    assert code == expected
    assert capsys.readouterr().err.startswith("error: ")
    assert _listing(tmp_path) == before


def test_failure_leaves_an_existing_output_untouched(tmp_path):
    src = tmp_path / "in"
    src.write_bytes(bytes(_CHUNK + 1))
    out = tmp_path / "out"
    out.write_bytes(b"previous")
    assert run(["encrypt", "--key", KEY_HEX, "--iv", IV_HEX,
                "--in", str(src), "--out", str(out)]) == EXIT_ODD_LENGTH
    assert out.read_bytes() == b"previous"
    assert _listing(tmp_path) == ["in", "out"]


def test_encrypt_in_place(tmp_path, rng):
    data = rng.randbytes(2 * _CHUNK + 6)
    f = tmp_path / "f"
    f.write_bytes(data)
    assert run(["encrypt", "--key", KEY_HEX, "--iv", IV_HEX,
                "--in", str(f), "--out", str(f)]) == EXIT_OK
    assert f.read_bytes() == Separ(KEY).encrypt(IV, data)
    assert _listing(tmp_path) == ["f"]


def test_out_symlink_is_written_through(tmp_path):
    src = tmp_path / "in"
    src.write_bytes(b"ABCD")
    target = tmp_path / "target"
    target.write_bytes(b"previous")
    link = tmp_path / "link"
    link.symlink_to(target)
    assert run(["encrypt", "--key", KEY_HEX, "--iv", IV_HEX,
                "--in", str(src), "--out", str(link)]) == EXIT_OK
    assert link.is_symlink()
    assert target.read_bytes() == Separ(KEY).encrypt(IV, b"ABCD")


@pytest.mark.parametrize("infile", ["link", "target"])
def test_encrypt_in_place_through_a_symlink(tmp_path, rng, infile):
    data = rng.randbytes(2 * _CHUNK + 6)
    target = tmp_path / "target"
    target.write_bytes(data)
    link = tmp_path / "link"
    link.symlink_to(target)
    assert run(["encrypt", "--key", KEY_HEX, "--iv", IV_HEX,
                "--in", str(tmp_path / infile), "--out", str(link)]) == EXIT_OK
    assert link.is_symlink()
    assert target.read_bytes() == Separ(KEY).encrypt(IV, data)
    assert _listing(tmp_path) == ["link", "target"]


def test_failure_leaves_a_symlink_target_untouched(tmp_path):
    src = tmp_path / "in"
    src.write_bytes(bytes(_CHUNK + 1))
    target = tmp_path / "target"
    target.write_bytes(b"previous")
    link = tmp_path / "link"
    link.symlink_to(target)
    assert run(["encrypt", "--key", KEY_HEX, "--iv", IV_HEX,
                "--in", str(src), "--out", str(link)]) == EXIT_ODD_LENGTH
    assert link.is_symlink()
    assert target.read_bytes() == b"previous"
    assert _listing(tmp_path) == ["in", "link", "target"]


@pytest.mark.parametrize("through_link", [False, True])
def test_replaced_output_keeps_its_permission_bits(tmp_path, through_link):
    src = tmp_path / "in"
    src.write_bytes(Separ(KEY).encrypt(IV, b"secret"))
    out = tmp_path / "out"
    out.write_bytes(b"previous")
    out.chmod(0o600)
    if through_link:
        (tmp_path / "link").symlink_to(out)
    dest = tmp_path / ("link" if through_link else "out")
    assert run(["decrypt", "--key", KEY_HEX, "--iv", IV_HEX,
                "--in", str(src), "--out", str(dest)]) == EXIT_OK
    assert out.read_bytes() == b"secret"
    assert out.stat().st_mode & 0o777 == 0o600


def test_out_device_is_written_in_place(tmp_path):
    src = tmp_path / "in"
    src.write_bytes(b"ABCD")
    assert run(["encrypt", "--key", KEY_HEX, "--iv", IV_HEX,
                "--in", str(src), "--out", os.devnull]) == EXIT_OK
    assert _listing(tmp_path) == ["in"]


def test_odd_input_to_stdout_leaves_the_even_prefix(tmp_path, capsysbinary):
    data = bytes(range(256)) * 2 + b"\x07"
    src = tmp_path / "in"
    src.write_bytes(data)
    code = run(["encrypt", "--key", KEY_HEX, "--iv", IV_HEX, "--in", str(src)])
    assert code == EXIT_ODD_LENGTH
    assert capsysbinary.readouterr().out == Separ(KEY).encrypt(IV, data[:-1])


@pytest.mark.parametrize("words", [0, 1, _CHUNK // 2 + 3])
def test_keystream_pieces_join_to_the_keystream(tmp_path, words):
    binary, text = tmp_path / "ks.bin", tmp_path / "ks.hex"
    for path, fmt in ((binary, "bin"), (text, "hex")):
        assert run(["keystream", "--key", KEY_HEX, "--iv", IV_HEX, "--words", str(words),
                    "--format", fmt, "--out", str(path)]) == EXIT_OK
    expected = Separ(KEY).keystream(IV, words)
    assert binary.read_bytes() == expected
    assert text.read_text() == expected.hex().upper() + "\n"


def test_cli_streams_in_chunks(tmp_path, monkeypatch, rng):
    """encrypt and decrypt never hand the word loops more than one piece
    of input, and every word goes through them."""
    sizes = []
    for name in ("_encrypt_words", "_decrypt_words"):
        def spy(self, st, words, stages, loop=getattr(Separ, name)):
            sizes.append(len(words))
            return loop(self, st, words, stages)
        monkeypatch.setattr(Separ, name, spy)
    data = rng.randbytes(3 * _CHUNK + 1)
    src, enc, dec = tmp_path / "pt", tmp_path / "ct", tmp_path / "rt"
    src.write_bytes(data)
    common = ["--key", KEY_HEX, "--iv", IV_HEX]
    assert run(["encrypt", *common, "--pad-zero", "--in", str(src), "--out", str(enc)]) == EXIT_OK
    assert run(["decrypt", *common, "--in", str(enc), "--out", str(dec)]) == EXIT_OK
    assert dec.read_bytes() == data + b"\x00"
    assert max(sizes) <= _CHUNK // 2
    assert sum(sizes) == 2 * (len(data) + 1) // 2


def test_cli_pieces_below_the_threshold_still_take_the_tables(tmp_path, monkeypatch, rng,
                                                              table_builds):
    """The engine follows the message's length so far, not the size of
    a piece: read in 1 KiB pieces, a 64 KiB file is encrypted and
    decrypted on the key's tables, each direction's eight built once,
    to the one-shot output."""
    data = rng.randbytes(1 << 16)
    expected = Separ(KEY).encrypt(IV, data)
    table_builds.clear()   # the one-shot call's own
    monkeypatch.setattr("separ.cli._CHUNK", 1024)
    src, enc, dec = tmp_path / "pt", tmp_path / "ct", tmp_path / "rt"
    src.write_bytes(data)
    common = ["--key", KEY_HEX, "--iv", IV_HEX]
    assert run(["encrypt", *common, "--in", str(src), "--out", str(enc)]) == EXIT_OK
    assert run(["decrypt", *common, "--in", str(enc), "--out", str(dec)]) == EXIT_OK
    assert enc.read_bytes() == expected
    assert dec.read_bytes() == data
    assert table_builds == [False] * 8 + [True] * 8


# The child reads its peak RSS as VmHWM: ru_maxrss would start from the
# forking test process's own peak, which exec carries over on Linux.  It
# imports numpy before its baseline: the first table build imports it,
# and the probe measures the file's pieces, not the library's code.
RSS_PROBE = """
import re, sys
import numpy
from separ import cli
def peak_kib():
    with open("/proc/self/status") as f:
        return int(re.search(r"VmHWM:\\s+(\\d+) kB", f.read()).group(1))
before = peak_kib()
code = cli.main(["encrypt", "--in", sys.argv[1], "--out", sys.argv[2]])
print(code, peak_kib() - before)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM")
def test_encrypt_peak_memory_does_not_grow_with_the_file(tmp_path, rng):
    """A child process encrypts a 2 MiB file.  Its peak RSS may grow by
    the key's 1 MiB of tables and a few pieces, not with the file: whole
    in memory, the file and its copies came to about 11 MiB."""
    data = rng.randbytes(2 << 20)
    src, out = tmp_path / "pt", tmp_path / "ct"
    src.write_bytes(data)
    env = {**os.environ, "PYTHONPATH": str(Path(separ.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", RSS_PROBE, str(src), str(out)], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    code, grown_kib = map(int, proc.stdout.split())
    assert code == EXIT_OK
    assert out.read_bytes()[:4096] == Separ(bytes(32)).encrypt(bytes(16), data[:4096])
    assert grown_kib < 3 * 1024

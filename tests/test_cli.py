"""Command-line surface: thin-shell equivalence, exit codes, formats."""

import json

import pytest

from separ.cli import (
    EXIT_BAD_HEX,
    EXIT_BAD_LENGTH,
    EXIT_ODD_LENGTH,
    EXIT_OK,
    EXIT_USAGE,
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

import json
import struct
from pathlib import Path

import numpy as np
import pytest

from modhash import protocol
from modhash.cli import main
from modhash.transport import TcpTransport


@pytest.fixture
def vectors(tmp_path):
    x1 = tmp_path / "x1.txt"
    x2 = tmp_path / "x2.txt"
    vals = np.linspace(-1.0, 1.0, 16)
    x1.write_text("".join(f"{v}\n" for v in vals))
    x2.write_text("".join(f"{v + 0.25}\n" for v in vals))
    return str(x1), str(x2)


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    fields = dict(line.split("=", 1) for line in out.strip().splitlines() if "=" in line)
    return code, fields


# ------------------------------------------------------------------ plan


def test_plan_reproduces_reference_point(capsys):
    # threshold 1.9 with a split budget of 0.5 is the smallest-k=8 regime
    code, fields = _run(capsys, "plan", "--threshold", "1.9", "--epsilon", "1.0", "--beta", "10")
    assert code == 0
    assert fields["k"] == "8"
    assert fields["m"] == "244"
    assert fields["epsilon_stat"] == "0.5"


def test_plan_rejects_zero_epsilon(capsys):
    code = main(["plan", "--threshold", "10", "--epsilon", "0"])
    assert code == 2
    assert capsys.readouterr().err != ""


def test_plan_names_an_epsilon_too_small_to_split(capsys):
    # half of 5e-324 rounds to 0, which the planner once named as epsilon_bias
    assert main(["plan", "--threshold", "5", "--epsilon", "5e-324"]) == 2
    assert capsys.readouterr().err == "InvalidParameter: epsilon=5e-324 is too small to split: half of it rounds to 0\n"


def test_plan_exits_0_or_2_for_any_flags(capsys):
    reals = ["nan", "inf", "-inf", "-1", "0", "5e-324", "1e-300", "1", "5", "1e6", "1.7e308"]
    exits = {}
    for threshold in reals:
        for epsilon in reals:
            for beta in ["-3", "0", "1", "10", "200"]:
                code = main(["plan", f"--threshold={threshold}", f"--epsilon={epsilon}", f"--beta={beta}"])
                out, err = capsys.readouterr()
                assert code in (0, 2) and "Traceback" not in err, (threshold, epsilon, beta, err)
                exits[code] = exits.get(code, 0) + 1
    assert exits[0] and exits[2]


def test_plan_missing_flags_exit_2():
    with pytest.raises(SystemExit) as err:
        main(["plan", "--threshold", "10"])
    assert err.value.code == 2


# ------------------------------------------------------------------ keygen / hash / estimate


def test_keygen_hash_roundtrip(capsys, tmp_path, vectors):
    key_file = str(tmp_path / "key.json")
    code, fields = _run(
        capsys, "keygen", "--k", "8", "--m", "24", "--n", "16", "--seed", "s1", "--out", key_file
    )
    assert code == 0
    doc = json.loads(Path(key_file).read_text())
    assert doc["k"] == 8 and doc["M"] == 24 and doc["N"] == 16
    assert len(doc["a"]) == 24 * 16

    code, fields = _run(capsys, "hash", "--key", key_file, "--input", vectors[0])
    assert code == 0
    comps = [int(v) for v in fields["hash"].split(",")]
    assert len(comps) == 24
    assert all(0 <= c < 8 for c in comps)

    code2, fields2 = _run(capsys, "hash", "--key", key_file, "--input", vectors[0])
    assert fields2["hash"] == fields["hash"]  # deterministic


def test_keygen_seed_form(capsys, tmp_path):
    key_file = str(tmp_path / "key.json")
    code, _ = _run(
        capsys, "keygen", "--k", "8", "--m", "4", "--n", "4", "--seed", "s1",
        "--out", key_file, "--seed-only",
    )
    assert code == 0
    doc = json.loads(Path(key_file).read_text())
    assert "seed" in doc and "a" not in doc and doc["sampler"] == "ziggurat256"
    vector = tmp_path / "x.txt"
    vector.write_text("0.5\n-1\n2\n0.25\n")
    code, fields = _run(capsys, "hash", "--key", key_file, "--input", str(vector))
    assert code == 0 and len(fields["hash"].split(",")) == 4
    # the same file without its sampler, as written before it was named
    del doc["sampler"]
    Path(key_file).write_text(json.dumps(doc))
    assert main(["hash", "--key", key_file, "--input", str(vector)]) == 2


def test_estimate_command(capsys):
    code, fields = _run(capsys, "estimate", "--k", "16", "--mean-lee", "5/2")
    assert code == 0
    assert fields["mean_lee"] == "5/2"
    assert fields["estimate"] == "2.5"
    code, fields = _run(capsys, "estimate", "--k", "8", "--mean-lee", "2", "--mode", "curve")
    assert fields["estimate"] == "SATURATED"
    # raw mode also refuses to report on the plateau
    code, fields = _run(capsys, "estimate", "--k", "8", "--mean-lee", "5/2")
    assert fields["estimate"] == "SATURATED"


def test_estimate_rejects_out_of_range(capsys):
    code = main(["estimate", "--k", "8", "--mean-lee", "9/2"])
    assert code == 2


# ------------------------------------------------------------------ run


def test_run_identical_files_gives_zero(capsys, vectors):
    code, fields = _run(
        capsys, "run", "--kind", "full-key", "--x1", vectors[0], "--x2", vectors[0],
        "--seed", "s", "--k", "8", "--m", "32",
    )
    assert code == 0
    assert fields["mean_lee"] == "0/1"
    assert fields["alice_estimate"] == "0.0"
    assert fields["bob_estimate"] == "0.0"


def test_run_with_planned_parameters(capsys, vectors):
    code, fields = _run(
        capsys, "run", "--kind", "full-key", "--x1", vectors[0], "--x2", vectors[1],
        "--seed", "s", "--threshold", "1.9", "--epsilon", "1.0",
    )
    assert code == 0
    assert float(fields["alice_estimate"]) == pytest.approx(1.0, abs=0.6)


def test_run_obfuscated_prints_charlie_view(capsys, vectors):
    code, fields = _run(
        capsys, "run", "--kind", "obfuscated", "--x1", vectors[0], "--x2", vectors[1],
        "--seed", "s", "--k", "8", "--m", "32",
    )
    assert code == 0
    assert "charlie_observed" in fields
    num, den = fields["charlie_observed"].split("/")
    assert abs(int(num) / int(den) - 2.0) < 0.75  # near the k/4 plateau
    assert fields["alice_estimate"] == fields["bob_estimate"]


@pytest.mark.parametrize("transport", ["local", "tcp"])
def test_run_without_a_seed_runs_on_fresh_key_material(capsys, vectors, transport):
    argv = ["run", "--kind", "obfuscated", "--x1", vectors[0], "--x2", vectors[1], "--k", "8", "--m", "32",
            "--transport", transport]
    code, fields = _run(capsys, *argv)
    assert code == 0
    assert fields["alice_estimate"] == fields["bob_estimate"]


def test_run_dimension_mismatch_exits_2(capsys, tmp_path, vectors):
    short = tmp_path / "short.txt"
    short.write_text("1.0\n2.0\n")
    code = main([
        "run", "--kind", "full-key", "--x1", vectors[0], "--x2", str(short),
        "--seed", "s", "--k", "8", "--m", "32",
    ])
    assert code == 2


def test_run_bad_vector_file_exits_2(capsys, tmp_path, vectors):
    bad = tmp_path / "bad.txt"
    bad.write_text("1.0\nnot-a-number\n")
    code = main([
        "run", "--kind", "full-key", "--x1", vectors[0], "--x2", str(bad),
        "--seed", "s", "--k", "8", "--m", "32",
    ])
    assert code == 2


def test_run_refuses_a_count_the_wire_cannot_carry_before_any_key(capsys, monkeypatch, vectors):
    # M = 2**32 - 1 plus its default padding of 10 M: no frame carries that
    # count, and the key alone would take 96 GiB

    def no_key(*args, **kwargs):
        raise AssertionError("generate_key was reached")

    monkeypatch.setattr(protocol, "generate_key", no_key)
    code = main([
        "run", "--kind", "full-key", "--x1", vectors[0], "--x2", vectors[1],
        "--seed", "s", "--k", "8", "--m", "4294967295",
    ])
    assert code == 2
    assert "exceed 4294967295, the wire's largest count" in capsys.readouterr().err


def test_run_refuses_a_key_share_the_wire_cannot_carry_before_any_key(capsys, monkeypatch, tmp_path):
    # M = 2**32 - 1 with no padding is a count the wire carries, but its
    # key share, 64 GiB even at N = 1, is no frame the decoder takes

    def no_key(*args, **kwargs):
        raise AssertionError("generate_key was reached")

    monkeypatch.setattr(protocol, "generate_key", no_key)
    x = tmp_path / "x.txt"
    x.write_text("0.5\n")
    code = main([
        "run", "--kind", "full-key", "--x1", str(x), "--x2", str(x),
        "--seed", "s", "--k", "8", "--m", "4294967295", "--padding", "0",
    ])
    assert code == 2
    assert "-byte frame, above the wire's cap" in capsys.readouterr().err


def test_run_tcp_selftest_matches_local(capsys, vectors):
    args = [
        "run", "--kind", "full-key", "--x1", vectors[0], "--x2", vectors[1],
        "--seed", "s", "--k", "8", "--m", "32",
    ]
    code, local = _run(capsys, *args)
    assert code == 0
    code, tcp = _run(capsys, *args, "--transport", "tcp")
    assert code == 0
    assert tcp["mean_lee"] == local["mean_lee"]
    assert tcp["alice_estimate"] == local["alice_estimate"]
    assert tcp["bob_estimate"] == local["bob_estimate"]


@pytest.mark.parametrize("kind", ["two-party", "obfuscated"])
def test_run_tcp_selftest_all_kinds(capsys, vectors, kind):
    code, fields = _run(
        capsys, "run", "--kind", kind, "--x1", vectors[0], "--x2", vectors[1],
        "--seed", "s", "--k", "8", "--m", "32", "--transport", "tcp",
    )
    assert code == 0
    assert fields["alice_estimate"] == fields["bob_estimate"]


def test_the_retired_public_a_kind_and_matrix_flags_are_refused(capsys, tmp_path, vectors):
    x1, x2 = vectors
    run = ["run", "--x1", x1, "--x2", x2, "--seed", "s", "--k", "8", "--m", "32"]
    key_file = tmp_path / "key.json"
    matrix, matrix_out = ("--" + name for name in ("matrix", "matrix-out"))  # flags of the public-A files
    for argv, named in [
        (run + ["--kind", "public-a"], "public-a"),
        (run + ["--kind", "full-key", matrix, "A.json"], matrix),
        # without --x2, a serve that took the flag would fail, not wait for a signal
        (["serve", "--role", "bob", "--listen", "127.0.0.1:0", matrix, "A.json"], matrix),
        (["keygen", "--k", "8", "--m", "4", "--n", "4", "--seed", "s", "--out", str(key_file),
          matrix_out, "A.json"], matrix_out),
    ]:
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert named in capsys.readouterr().err
    assert not key_file.exists()


def test_run_distributed_requires_bob(capsys, vectors):
    code = main([
        "run", "--kind", "full-key", "--x1", vectors[0], "--seed", "s",
        "--k", "8", "--m", "32", "--transport", "tcp", "--role", "alice",
    ])
    assert code == 2


def test_run_tcp_unreachable_exits_3(capsys, vectors):
    code = main([
        "run", "--kind", "two-party", "--x1", vectors[0], "--seed", "s",
        "--k", "8", "--m", "32", "--transport", "tcp", "--role", "alice",
        "--bob", "127.0.0.1:1",
    ])
    assert code == 3


@pytest.mark.parametrize("port", ["70000", "-1"])
@pytest.mark.parametrize("flag", ["--listen", "--bob", "--charlie"])
def test_a_port_outside_0_to_65535_exits_2(capsys, vectors, flag, port):
    # Before, serve raised OverflowError from bind and exited 1, and a dial
    # to port 70000 went to 4464.
    if flag == "--listen":
        argv = ["serve", "--role", "charlie", "--listen", f"127.0.0.1:{port}"]
    else:
        argv = [
            "run", "--kind", "full-key", "--x1", vectors[0], "--seed", "s", "--k", "8", "--m", "32",
            "--transport", "tcp", "--role", "alice", "--bob", "127.0.0.1:1", "--charlie", "127.0.0.1:1",
        ]
        argv[argv.index(flag) + 1] = f"127.0.0.1:{port}"
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: port must lie in 0-65535") and "Traceback" not in err


@pytest.mark.parametrize("threshold, epsilon", [("1e155", "1"), ("1e-300", "1e-301"), ("5", "1e-200"), ("1e6", "1")])
def test_plan_exits_2_for_a_plan_the_wire_cannot_carry(capsys, threshold, epsilon):
    # Before, the first three raised OverflowError or ZeroDivisionError and
    # the last planned k = 13,502,636.
    assert main(["plan", "--threshold", threshold, "--epsilon", epsilon]) == 2
    err = capsys.readouterr().err
    assert err.startswith("InvalidParameter: ") and "Traceback" not in err


# ------------------------------------------------------------------ serve + distributed run


def test_three_process_flow_over_loopback(capsys, vectors, tmp_path):
    # serve charlie + serve bob (as library servers driven the way the CLI
    # wires them), then a distributed alice run against both
    from modhash.transport import BobServer, CharlieServer

    x2 = np.loadtxt(vectors[1])
    with CharlieServer() as charlie:
        charlie.start()
        with BobServer(x2, charlie_address=charlie.address) as bob:
            bob.start()
            code, fields = _run(
                capsys, "run", "--kind", "full-key", "--x1", vectors[0], "--seed", "s",
                "--k", "8", "--m", "32", "--transport", "tcp", "--role", "alice",
                "--bob", f"{bob.address[0]}:{bob.address[1]}",
                "--charlie", f"{charlie.address[0]}:{charlie.address[1]}",
            )
            assert code == 0
    local_code, local = _run(
        capsys, "run", "--kind", "full-key", "--x1", vectors[0], "--x2", vectors[1],
        "--seed", "s", "--k", "8", "--m", "32",
    )
    assert fields["mean_lee"] == local["mean_lee"]
    assert fields["alice_estimate"] == local["alice_estimate"]


def test_charlie_env_var_default(capsys, vectors, monkeypatch):
    from modhash.transport import BobServer, CharlieServer

    x2 = np.loadtxt(vectors[1])
    with CharlieServer() as charlie:
        charlie.start()
        monkeypatch.setenv("MODHASH_CHARLIE_ADDR", f"{charlie.address[0]}:{charlie.address[1]}")
        with BobServer(x2, charlie_address=charlie.address) as bob:
            bob.start()
            code, fields = _run(
                capsys, "run", "--kind", "full-key", "--x1", vectors[0], "--seed", "s",
                "--k", "8", "--m", "32", "--transport", "tcp", "--role", "alice",
                "--bob", f"{bob.address[0]}:{bob.address[1]}",
            )
            assert code == 0


def test_server_survives_malformed_frame(capsys, vectors):
    from modhash.transport import CharlieServer

    with CharlieServer() as charlie:
        charlie.start()
        rogue = TcpTransport.connect(*charlie.address)
        rogue._sock.sendall(struct.pack(">I", 30) + b"\x00" * 30)
        rogue.close()
        # still serving
        conn = TcpTransport.connect(*charlie.address)
        conn.close()


# ------------------------------------------------------------------ sweep / curve / uniformity


def test_sweep_csv_deterministic(capsys, tmp_path):
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    argv = ["sweep", "--k", "4", "--m", "32", "--n", "16", "--trials", "2",
            "--distances", "0,1,2", "--seed", "s"]
    assert main(argv + ["--out", out1]) == 0
    assert main(argv + ["--out", out2]) == 0
    assert Path(out1).read_bytes() == Path(out2).read_bytes()
    assert len(Path(out1).read_text().splitlines()) == 4


def test_a_sweep_of_two_ks_joins_their_single_k_sweeps(capsys, tmp_path):
    argv = ["sweep", "--m", "8", "--n", "4", "--trials", "2", "--distances", "0,1", "--seed", "s"]
    for k in ("4,8", "4", "8"):
        assert main(argv + ["--k", k, "--out", str(tmp_path / f"{k}.csv")]) == 0
    both, four, eight = ((tmp_path / f"{k}.csv").read_text().splitlines() for k in ("4,8", "4", "8"))
    assert four[0] == eight[0] and len(four) == len(eight) == 3
    assert both == four + eight[1:]


def test_sweep_refuses_a_k_too_large_for_its_trial_seeds(capsys, tmp_path):
    out = tmp_path / "x.csv"
    argv = ["sweep", "--k", "4294967296", "--m", "1", "--n", "1", "--trials", "2",
            "--grid-points", "2", "--seed", "1", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "InvalidParameter: every k must be below 2**32\n"
    assert not out.exists()


def test_curve_csv(capsys, tmp_path):
    out = str(tmp_path / "curve.csv")
    code, fields = _run(capsys, "curve", "--k", "8", "--grid-points", "5", "--out", out)
    assert code == 0
    lines = Path(out).read_text().splitlines()
    assert lines[0] == "distance,expected_lee"
    assert lines[1] == "0,0"
    assert len(lines) == 6


def test_uniformity_command(capsys):
    code, fields = _run(
        capsys, "uniformity", "--k", "8", "--m", "50", "--n", "8",
        "--samples", "4000", "--seed", "s",
    )
    assert code == 0
    assert fields["pass"] == "true"
    code, fields = _run(
        capsys, "uniformity", "--k", "8", "--m", "50", "--n", "8",
        "--samples", "4000", "--seed", "s", "--broken-dither",
    )
    assert code == 0
    assert fields["pass"] == "false"


def test_charlie_log_output_never_leaks_secrets(caplog, vectors):
    # serve-side audit: whatever Charlie logs must not contain key material
    # or input vector values
    import logging

    from modhash.transport import BobServer, CharlieServer

    x1 = np.loadtxt(vectors[0])
    x2 = np.loadtxt(vectors[1])
    with caplog.at_level(logging.DEBUG, logger="modhash.transport"):
        with CharlieServer() as charlie:
            charlie.start()
            with BobServer(x2, charlie_address=charlie.address) as bob:
                bob.start()
                from modhash import ProtocolKind, ProtocolParams, run_over_tcp

                params = ProtocolParams.from_dimensions(8, 32)
                run_over_tcp(
                    ProtocolKind.FULL_KEY_3P, x1, params, b"\x07" * 32,
                    bob_address=bob.address, charlie_address=charlie.address,
                )
    text = "\n".join(r.getMessage() for r in caplog.records)
    from modhash import generate_key
    from modhash.rng import subseed

    key = generate_key(8, 32, 16, subseed(b"\x07" * 32, b"key"))
    for secret in list(key.u[:8]) + list(x1[:8]) + list(x2[:8]) + list(key.a[0][:8]):
        assert repr(float(secret)) not in text
        assert f"{float(secret):.6f}" not in text


def test_serve_subprocess_three_process_flow(vectors, tmp_path, capsys):
    # genuinely separate OS processes for charlie and bob, CLI alice against them
    import re
    import signal
    import subprocess
    import sys

    procs = []

    def spawn(*argv):
        proc = subprocess.Popen(
            [sys.executable, "-m", "modhash.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        procs.append(proc)
        for line in proc.stdout:
            m = re.match(r"listening=(.*):(\d+)", line.strip())
            if m:
                return m.group(1), int(m.group(2))
        raise AssertionError("server never reported its address")

    try:
        charlie_addr = spawn("serve", "--role", "charlie", "--listen", "127.0.0.1:0")
        bob_addr = spawn(
            "serve", "--role", "bob", "--listen", "127.0.0.1:0", "--x2", vectors[1],
            "--charlie", f"{charlie_addr[0]}:{charlie_addr[1]}",
        )
        code, fields = _run(
            capsys, "run", "--kind", "full-key", "--x1", vectors[0], "--seed", "s3",
            "--k", "8", "--m", "32", "--transport", "tcp", "--role", "alice",
            "--bob", f"{bob_addr[0]}:{bob_addr[1]}",
            "--charlie", f"{charlie_addr[0]}:{charlie_addr[1]}",
        )
        assert code == 0
        local_code, local = _run(
            capsys, "run", "--kind", "full-key", "--x1", vectors[0], "--x2", vectors[1],
            "--seed", "s3", "--k", "8", "--m", "32",
        )
        assert local_code == 0
        assert fields["mean_lee"] == local["mean_lee"]
        assert fields["alice_estimate"] == local["alice_estimate"]
    finally:
        for proc in procs:
            proc.send_signal(signal.SIGTERM)
        for proc in procs:
            with proc.stdout:  # closed even if the server does not exit cleanly
                assert proc.wait(timeout=10) == 0

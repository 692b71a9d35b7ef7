import csv
import json
import socket
import subprocess
import sys
import threading

import numpy as np
import pytest

import mpclr.cli
from mpclr import FixedPointParams, TrainingConfig, errors
from mpclr.cli import main
from mpclr.fixedpoint import encode, encode_array
from mpclr.sharing import read_share_file, write_share_file
from mpclr.training import Dataset, train_plain_fixed
from mpclr.transport import HandshakeInfo, perform_handshake, tcp_accept, tcp_connect, tcp_listen

from helpers import separable_toy

P64 = FixedPointParams()


def write_toy_csv(path, feats, labels):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(feats.shape[1])] + ["label"])
        for row, label in zip(feats, labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


@pytest.fixture
def toy_csv(tmp_path):
    feats, labels = separable_toy(20, 8)
    path = tmp_path / "toy.csv"
    write_toy_csv(path, feats, labels)
    return path, feats, labels


class TestSplit:
    def test_shares_open_to_encoded_input(self, toy_csv, tmp_path):
        path, feats, labels = toy_csv
        rc = main(["split", "--data", str(path), "--shares-out", str(tmp_path / "t"),
                   "--seed", "5"])
        assert rc == 0
        va, pa = read_share_file(tmp_path / "t.alice.shr")
        vb, _ = read_share_file(tmp_path / "t.bob.shr")
        opened = va + vb
        full = np.hstack([np.ones((len(labels), 1)), feats,
                          np.asarray(labels, dtype=np.float64).reshape(-1, 1)])
        assert np.array_equal(opened, encode_array(full, pa))

    def test_deterministic(self, toy_csv, tmp_path):
        path, *_ = toy_csv
        for out in ("m1", "m2"):
            assert main(["split", "--data", str(path), "--shares-out",
                         str(tmp_path / out), "--seed", "9"]) == 0
        assert (tmp_path / "m1.alice.shr").read_bytes() == (tmp_path / "m2.alice.shr").read_bytes()
        assert (tmp_path / "m1.bob.shr").read_bytes() == (tmp_path / "m2.bob.shr").read_bytes()

    def test_bad_label_names_row(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        with open(path, "w", newline="") as fh:
            fh.write("f0,label\n0.5,1\n0.25,2\n")
        rc = main(["split", "--data", str(path), "--shares-out", str(tmp_path / "x")])
        assert rc == 4
        assert ":3" in capsys.readouterr().err  # second data row

    def test_non_numeric_cell(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        with open(path, "w", newline="") as fh:
            fh.write("f0,label\nabc,1\n")
        rc = main(["split", "--data", str(path), "--shares-out", str(tmp_path / "x")])
        assert rc == 4
        assert "not numeric" in capsys.readouterr().err

    def test_out_of_range_value(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        for cell in ("99999.0", "nan"):
            with open(path, "w", newline="") as fh:
                fh.write(f"f0,label\n{cell},1\n")
            rc = main(["split", "--data", str(path), "--shares-out", str(tmp_path / "x")])
            assert rc == 4, cell

    def test_usage_error(self):
        assert main(["split"]) == 2


def read_weights_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return np.asarray(rows[1], dtype=np.float64)


class TestTrainLocalAndReconstruct:
    def test_pipeline_matches_plain_fixed_within_envelope(self, toy_csv, tmp_path):
        path, feats, labels = toy_csv
        assert main(["split", "--data", str(path), "--shares-out", str(tmp_path / "t"),
                     "--seed", "5"]) == 0
        rc = main(["train", "--role", "local", "--data", str(tmp_path / "t"),
                   "--weights-out", str(tmp_path / "w.csv"),
                   "--shares-out", str(tmp_path / "ws"),
                   "--lr", "0.05", "--iterations", "50", "--seed", "42"])
        assert rc == 0
        weights = read_weights_csv(tmp_path / "w.csv")
        ds = Dataset.from_features(feats, labels)
        cfg = TrainingConfig(eta=0.05, n_iter=50, params=P64, seed=42)
        reference = train_plain_fixed(ds.X, ds.t, cfg)
        envelope = P64.ulp * cfg.n_iter * (2 + cfg.eta * ds.n_samples * abs(ds.X).max())
        assert np.max(np.abs(weights - reference)) <= envelope

        rc = main(["reconstruct", str(tmp_path / "ws.alice.shr"), str(tmp_path / "ws.bob.shr"),
                   "--weights-out", str(tmp_path / "w2.csv")])
        assert rc == 0
        assert np.array_equal(read_weights_csv(tmp_path / "w2.csv"), weights)

    def test_zero_iterations_zero_weights(self, toy_csv, tmp_path):
        path, *_ = toy_csv
        main(["split", "--data", str(path), "--shares-out", str(tmp_path / "t"), "--seed", "1"])
        rc = main(["train", "--role", "local", "--data", str(tmp_path / "t"),
                   "--weights-out", str(tmp_path / "w.csv"), "--iterations", "0"])
        assert rc == 0
        assert np.all(read_weights_csv(tmp_path / "w.csv") == 0.0)

    def test_reconstruct_rejects_mismatched_precision(self, tmp_path, capsys):
        p32 = FixedPointParams(frac_bits=6, int_bits=6, ring_bits=32)
        write_share_file(tmp_path / "a.shr", np.zeros((1, 3), dtype=P64.dtype), P64)
        write_share_file(tmp_path / "b.shr", np.zeros((1, 3), dtype=p32.dtype), p32)
        rc = main(["reconstruct", str(tmp_path / "a.shr"), str(tmp_path / "b.shr"),
                   "--weights-out", str(tmp_path / "w.csv")])
        assert rc == 4
        assert "precision" in capsys.readouterr().err

    def test_reconstruct_zero_shares(self, tmp_path):
        write_share_file(tmp_path / "a.shr", np.zeros((1, 3), dtype=P64.dtype), P64)
        write_share_file(tmp_path / "b.shr", np.zeros((1, 3), dtype=P64.dtype), P64)
        rc = main(["reconstruct", str(tmp_path / "a.shr"), str(tmp_path / "b.shr"),
                   "--weights-out", str(tmp_path / "w.csv")])
        assert rc == 0
        assert np.all(read_weights_csv(tmp_path / "w.csv") == 0.0)

    def test_transcripts_printed(self, toy_csv, tmp_path, capsys):
        path, *_ = toy_csv
        main(["split", "--data", str(path), "--shares-out", str(tmp_path / "t"), "--seed", "1"])
        main(["train", "--role", "local", "--data", str(tmp_path / "t"),
              "--weights-out", str(tmp_path / "w.csv"), "--iterations", "2",
              "--lr", "0.05", "--seed", "3"])
        out = capsys.readouterr().out
        lines = [json.loads(l.split(" ", 1)[1]) for l in out.splitlines()
                 if l.startswith("TRANSCRIPT")]
        assert len(lines) == 2
        assert lines[0]["rounds"] == lines[1]["rounds"] == 2 * 9
        assert lines[0]["ring_mults"] == lines[0]["counted_ring_mults"]


class TestNetworkErrors:
    def test_peer_absent_is_transport_error(self, tmp_path, capsys):
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        write_share_file(tmp_path / "b.shr",
                         np.zeros((2, 3), dtype=P64.dtype), P64)
        rc = main(["train", "--role", "bob", "--peer", f"127.0.0.1:{port}",
                   "--data", str(tmp_path / "b.shr"),
                   "--weights-out", str(tmp_path / "w.shr"),
                   "--randomness", "file:nope"])
        assert rc == 3

    def test_file_mode_ti_deals_offline_and_bad_mode_is_usage(self, tmp_path):
        # a file-mode TI writes both files without touching the network; a
        # --randomness that is neither 'online' nor 'file:PATH' exits 2
        rc = main(["train", "--role", "ti", "--randomness", "file:" + str(tmp_path / "out"),
                   "--dims", "4x4", "--iterations", "1"])
        assert rc == 0
        assert (tmp_path / "out.alice.crn").exists() and (tmp_path / "out.bob.crn").exists()
        rc = main(["train", "--role", "ti", "--randomness", "badmode"])
        assert rc == 2


def run_tcp_pair(toy_csv, tmp_path, dims, alice_args, bob_args, tamper=None):
    """Split the toy data, deal file randomness for `dims`, pass each party's
    file path to `tamper` if given, and train alice and bob as two TCP
    processes; returns [(exit code, stderr)] per party."""
    path, *_ = toy_csv  # 20 samples: the share matrix is 20 x 10
    assert main(["split", "--data", str(path), "--shares-out", str(tmp_path / "t"),
                 "--seed", "1"]) == 0
    assert main(["train", "--role", "ti", "--randomness", f"file:{tmp_path / 'crn'}",
                 "--dims", dims, *alice_args]) == 0
    if tamper is not None:
        for party in ("alice", "bob"):
            tamper(tmp_path / f"crn.{party}.crn")
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    module = [sys.executable, "-m", "mpclr.cli", "train"]
    procs = [
        subprocess.Popen(module + ["--role", "alice", "--listen", f"127.0.0.1:{port}",
                                   "--data", str(tmp_path / "t.alice.shr"),
                                   "--randomness", f"file:{tmp_path / 'crn.alice.crn'}",
                                   "--weights-out", str(tmp_path / "w.alice.shr"), *alice_args],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True),
        subprocess.Popen(module + ["--role", "bob", "--peer", f"127.0.0.1:{port}",
                                   "--data", str(tmp_path / "t.bob.shr"),
                                   "--randomness", f"file:{tmp_path / 'crn.bob.crn'}",
                                   "--weights-out", str(tmp_path / "w.bob.shr"), *bob_args],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True),
    ]
    out = []
    for proc in procs:
        _, err = proc.communicate(timeout=60)
        out.append((proc.returncode, err))
    return out


class TestProtocolErrors:
    def test_randomness_for_other_dims_exits_4(self, toy_csv, tmp_path):
        # the stream's records are checked against the run's plan at load,
        # before any share traffic; the first, X's mask, is 21 x 9 here
        common = ["--iterations", "2", "--lr", "0.05", "--seed", "3"]
        for rc, err in run_tcp_pair(toy_csv, tmp_path, "21x10", common, common):
            assert rc == 4, err
            assert err == ("error: randomness stream does not fit this run: record 0 is "
                           "matmul MatmulDims(i=21, j=9, k=0, kind=1), the run needs "
                           "matmul MatmulDims(i=20, j=9, k=0, kind=1)\n")
        assert not (tmp_path / "w.alice.shr").exists()
        assert not (tmp_path / "w.bob.shr").exists()

    def test_randomness_of_another_protocol_version_exits_4(self, toy_csv, tmp_path):
        def version_11(path):
            raw = bytearray(path.read_bytes())
            raw[4:6] = (11).to_bytes(2, "little")  # the version, after the magic
            path.write_bytes(raw)

        common = ["--iterations", "2", "--lr", "0.05", "--seed", "3"]
        for rc, err in run_tcp_pair(toy_csv, tmp_path, "20x10", common, common, version_11):
            assert rc == 4, err
            assert err == ("error: randomness stream dealt by another protocol version than "
                           "this build's 13 (one dealt before version 8 has no version field); "
                           "deal it again\n")

    def test_randomness_of_another_session_exits_4(self, toy_csv, tmp_path):
        def other_session(path):
            raw = bytearray(path.read_bytes())
            raw[8:16] = (int.from_bytes(raw[8:16], "little") ^ 1).to_bytes(8, "little")
            path.write_bytes(raw)

        common = ["--iterations", "2", "--lr", "0.05", "--seed", "3"]
        for rc, err in run_tcp_pair(toy_csv, tmp_path, "20x10", common, common, other_session):
            assert rc == 4, err
            assert err == "error: randomness stream session id does not match --seed\n"
        assert not (tmp_path / "w.alice.shr").exists()
        assert not (tmp_path / "w.bob.shr").exists()

    def test_mismatched_learning_rate_exits_3_at_the_handshake(self, toy_csv, tmp_path):
        # before the handshake pinned it, this trained to weights around -3.9e10
        common = ["--iterations", "2", "--seed", "3"]
        results = run_tcp_pair(toy_csv, tmp_path, "20x10", ["--lr", "0.05", *common],
                               ["--lr", "0.5", *common])
        for rc, err in results:
            assert rc == 3, err
            assert err.startswith("error: transport: handshake") and "lr_encoded" in err
        assert not (tmp_path / "w.alice.shr").exists()
        assert not (tmp_path / "w.bob.shr").exists()


TRAIN_ARGS = ["--lr", "0.05", "--iterations", "2"]


class FakePeer(threading.Thread):
    """A peer that opens a channel with `connect()`, handshakes as `role`
    with the parameters of TRAIN_ARGS and closes the channel again."""

    def __init__(self, connect, role, rows=0, cols=0):
        super().__init__(daemon=True)
        self.connect = connect
        self.info = HandshakeInfo(role=role, ring_bits=64, frac_bits=12, int_bits=15,
                                  lr_encoded=encode(0.05, P64), n_iter=2, rows=rows, cols=cols)
        self.error = None
        self.start()

    def run(self):
        try:
            channel = self.connect()
            try:
                perform_handshake(channel, self.info)
            finally:
                channel.close()
        except Exception as exc:  # noqa: BLE001 - re-raised by finish()
            self.error = exc

    def finish(self):
        self.join(timeout=10)
        assert not self.is_alive(), "fake peer did not finish its handshake"
        if self.error is not None:
            raise self.error


class TestRefusals:
    def online_ti(self, capsys, *announced):
        """Exit code and stderr of an online TI whose two processors
        announce `announced`, one (role, rows, cols) each."""
        servers = [tcp_listen("127.0.0.1", 0) for _ in announced]
        try:
            peers = [FakePeer(lambda srv=srv: tcp_accept(srv, timeout=10), *info)
                     for srv, info in zip(servers, announced)]
            rc = main(["train", "--role", "ti", "--randomness", "online", *TRAIN_ARGS,
                       *(arg for srv in servers
                         for arg in ("--peer", f"127.0.0.1:{srv.getsockname()[1]}"))])
            for peer in peers:
                peer.finish()
        finally:
            for srv in servers:
                srv.close()
        return rc, capsys.readouterr().err

    def test_online_ti_refuses_processors_of_different_dims(self, capsys):
        rc, err = self.online_ti(capsys, ("A", 20, 10), ("B", 21, 10))
        assert rc == 3
        assert err == ("error: transport: data processors disagree on dataset dims: "
                       "(20, 10) vs (21, 10)\n")

    def test_online_ti_refuses_two_processors_announcing_a(self, capsys):
        rc, err = self.online_ti(capsys, ("A", 20, 10), ("A", 20, 10))
        assert rc == 3
        assert err.startswith("error: transport: expected roles A and B, got ")

    def test_file_mode_alice_refuses_a_ti_connection(self, tmp_path, capsys):
        write_share_file(tmp_path / "a.shr", np.zeros((20, 10), dtype=P64.dtype), P64)
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        ti = FakePeer(lambda: tcp_connect("127.0.0.1", port, timeout=10, retry_window=10), "TI")
        rc = main(["train", "--role", "alice", "--listen", f"127.0.0.1:{port}",
                   "--data", str(tmp_path / "a.shr"), "--weights-out", str(tmp_path / "w.shr"),
                   "--randomness", f"file:{tmp_path / 'nope'}", *TRAIN_ARGS])
        ti.finish()
        assert rc == 3
        assert capsys.readouterr().err == "error: transport: unexpected connection from role TI\n"

    def test_file_mode_ti_needs_dims(self, tmp_path):
        assert main(["train", "--role", "ti", "--randomness", f"file:{tmp_path / 'crn'}",
                     *TRAIN_ARGS]) == 2
        assert not list(tmp_path.iterdir())

    def test_bob_needs_peer(self, tmp_path):
        write_share_file(tmp_path / "b.shr", np.zeros((20, 10), dtype=P64.dtype), P64)
        assert main(["train", "--role", "bob", "--data", str(tmp_path / "b.shr"),
                     "--weights-out", str(tmp_path / "w.shr"),
                     "--randomness", f"file:{tmp_path / 'crn'}", *TRAIN_ARGS]) == 2

    def test_local_refuses_share_files_of_different_shapes(self, tmp_path, capsys):
        write_share_file(tmp_path / "t.alice.shr", np.zeros((20, 10), dtype=P64.dtype), P64)
        write_share_file(tmp_path / "t.bob.shr", np.zeros((21, 10), dtype=P64.dtype), P64)
        rc = main(["train", "--role", "local", "--data", str(tmp_path / "t"),
                   "--weights-out", str(tmp_path / "w.csv"), *TRAIN_ARGS])
        assert rc == 4
        assert capsys.readouterr().err == (
            "error: share files disagree on shape: (20, 9) vs (21, 9)\n")
        assert not (tmp_path / "w.csv").exists()


class TestUnreadableInput:
    """An input file that cannot be read exits 4 with one line naming it."""

    def test_split(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        assert main(["split", "--data", str(missing), "--shares-out", str(tmp_path / "t")]) == 4
        assert capsys.readouterr().err == (
            f"error: cannot read {missing}: No such file or directory\n")

    def test_split_of_a_file_that_is_not_utf8(self, tmp_path, capsys):
        data = tmp_path / "latin1.csv"
        data.write_bytes(b"f0,label\n0.5\xe9,1\n")  # a Latin-1 e acute
        assert main(["split", "--data", str(data), "--shares-out", str(tmp_path / "t")]) == 4
        assert capsys.readouterr().err == f"error: {data}: not UTF-8: byte 0xe9 at offset 12\n"

    def test_train_local(self, tmp_path, capsys):
        rc = main(["train", "--role", "local", "--data", str(tmp_path / "missing"),
                   "--weights-out", str(tmp_path / "w.csv")])
        assert rc == 4
        assert capsys.readouterr().err == (f"error: cannot read {tmp_path / 'missing'}.alice.shr: "
                                           "No such file or directory\n")

    def test_reconstruct(self, tmp_path, capsys):
        write_share_file(tmp_path / "a.shr", np.zeros((1, 3), dtype=P64.dtype), P64)
        missing = tmp_path / "missing.shr"
        rc = main(["reconstruct", str(tmp_path / "a.shr"), str(missing),
                   "--weights-out", str(tmp_path / "w.csv")])
        assert rc == 4
        assert capsys.readouterr().err == (
            f"error: cannot read {missing}: No such file or directory\n")

    def test_tcp_pair_without_randomness_files(self, toy_csv, tmp_path):
        common = ["--iterations", "2", "--lr", "0.05", "--seed", "3"]
        for party, (rc, err) in zip(("alice", "bob"), run_tcp_pair(
                toy_csv, tmp_path, "20x10", common, common, lambda path: path.unlink())):
            assert rc == 4, err
            assert err == (f"error: cannot read {tmp_path / f'crn.{party}.crn'}: "
                           "No such file or directory\n")
        assert not (tmp_path / "w.alice.shr").exists()
        assert not (tmp_path / "w.bob.shr").exists()


# the exit code that README lists for each error class: 3 transport,
# 4 file format, 5 randomness underflow, 6 any other protocol failure
README_EXIT_CODES = {
    errors.MpcError: 6,
    errors.RangeError: 6,
    errors.ProtocolError: 6,
    errors.TransportError: 3,
    errors.FrameError: 3,
    errors.FormatError: 4,
    errors.IngestionError: 4,
    errors.RandomnessUnderflowError: 5,
}


class TestExitCodes:
    def test_every_error_class_exits_with_its_readme_code(self, monkeypatch, capsys):
        classes = {value for value in vars(errors).values()
                   if isinstance(value, type) and issubclass(value, errors.MpcError)}
        assert classes == set(README_EXIT_CODES)
        for cls, code in README_EXIT_CODES.items():
            def fail(**_):
                raise cls("boom")

            monkeypatch.setattr(mpclr.cli, "cli", fail)
            assert main([]) == code, cls.__name__
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.endswith(" boom\n"), err
            assert err.count("\n") == 1, err


class TestBench:
    def test_mul_rounds_equal_across_batches(self, capsys):
        rc = main(["bench", "--kind", "mul", "--batch-sizes", "1,64", "--reps", "3"])
        assert rc == 0
        payload = [l for l in capsys.readouterr().out.splitlines() if l.startswith("BENCH")][0]
        results = json.loads(payload[6:])["results"]
        assert [r["rounds"] for r in results] == [1, 1]

    def test_decompose_reports_seven_rounds(self, capsys):
        rc = main(["bench", "--kind", "decompose", "--batch-sizes", "4", "--reps", "3"])
        assert rc == 0
        payload = [l for l in capsys.readouterr().out.splitlines() if l.startswith("BENCH")][0]
        assert json.loads(payload[6:])["results"][0]["rounds"] == 7

    def test_activation_smoke(self, capsys):
        rc = main(["bench", "--kind", "activation", "--batch-sizes", "8,16", "--reps", "3"])
        assert rc == 0
        payload = [l for l in capsys.readouterr().out.splitlines() if l.startswith("BENCH")][0]
        results = json.loads(payload[6:])["results"]
        assert results[0]["rounds"] == results[1]["rounds"] == 7

    def test_warm_up_rep_is_dropped_and_median_reported(self, capsys, monkeypatch):
        import mpclr.cli
        from mpclr.engine import Transcript

        # a slow warm-up per batch size, then three timed reps of each in turn
        walls = iter([9.0, 9.0, 0.010, 0.040, 0.030, 0.050, 0.020, 0.090])
        calls = []

        def fake(kind, batch, params, seed):
            calls.append((batch, seed))
            return next(walls), Transcript()

        monkeypatch.setattr(mpclr.cli, "_bench_once", fake)
        rc = main(["bench", "--kind", "mul", "--batch-sizes", "2,5", "--reps", "3",
                   "--seed", "7"])
        assert rc == 0
        assert calls == [(2, 7), (5, 7), (2, 7), (5, 7), (2, 8), (5, 8), (2, 9), (5, 9)]
        payload = [l for l in capsys.readouterr().out.splitlines() if l.startswith("BENCH")][0]
        results = json.loads(payload[6:])["results"]
        assert [(r["avg_ms"], r["min_ms"], r["per_eval_ms"]) for r in results] == [
            (20.0, 10.0, 10.0), (60.0, 40.0, 10.0)]

    def test_rep_validation(self):
        assert main(["bench", "--kind", "mul", "--reps", "1"]) == 2
        assert main(["bench", "--kind", "mul", "--batch-sizes", "0"]) == 2
        # a list of no sizes would print an empty table
        assert main(["bench", "--kind", "mul", "--batch-sizes", ","]) == 2


class TestConfigFile:
    def test_file_supplies_defaults_flags_override(self, toy_csv, tmp_path):
        path, *_ = toy_csv
        conf = tmp_path / "run.conf"
        conf.write_text(
            f"data={path}\nshares-out={tmp_path / 'cfg'}\nseed=5\nfrac-bits=12\n"
        )
        assert main(["split", "--config", str(conf)]) == 0
        assert (tmp_path / "cfg.alice.shr").exists()
        # now override the seed on the command line: different share bytes
        assert main(["split", "--config", str(conf), "--shares-out",
                     str(tmp_path / "cfg2"), "--seed", "6"]) == 0
        b1 = (tmp_path / "cfg.alice.shr").read_bytes()
        b2 = (tmp_path / "cfg2.alice.shr").read_bytes()
        assert b1 != b2

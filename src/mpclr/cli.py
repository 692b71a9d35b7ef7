"""Operator entry points: share splitting, the three process roles, model
reconstruction, and microbenchmarks.

Process topology of a networked run: the data processor `alice` listens, the
data processor `bob` connects, and the trusted initializer either streams the
correlated randomness over TCP (`--randomness online`, connecting to both
processors) or pre-generates per-party randomness files offline
(`--randomness file:PREFIX`) and never touches the network.  `local` runs
both processors on two threads of one process over an in-memory channel that
speaks the same wire format, so transcripts and weight shares are
bit-identical with a networked run under the same seed.
"""

from __future__ import annotations

import csv
import io
import json
import statistics
import sys
import time

import click
import numpy as np

from .engine import Session, batch_mul
from .errors import (
    FormatError,
    IngestionError,
    MpcError,
    ProtocolError,
    RandomnessUnderflowError,
    TransportError,
)
from .fixedpoint import FixedPointParams, decode_array, encode, encode_array
from .local import local_session_pair, run_sessions
from .randomness import (
    TrustedDealer,
    deserialize_stream,
    read_randomness_file,
    serialize_stream,
    session_id_from_seed,
    write_randomness_file,
)
from .sharing import Role, read_input, read_share_file, split_array, write_share_file
from .training import (
    TrainingConfig,
    count_multiplications,
    train_secure,
    training_randomness_requests,
)
from .transport import (
    Frame,
    HandshakeInfo,
    MSG_RANDOMNESS,
    perform_handshake,
    tcp_accept,
    tcp_connect,
    tcp_listen,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_TRANSPORT = 3
EXIT_FORMAT = 4
EXIT_RANDOMNESS = 5
EXIT_PROTOCOL = 6


def _load_config(ctx, param, value):
    """Eager --config callback: file values become defaults, flags override."""
    if not value:
        return value
    defaults = {}
    try:
        with open(value) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise click.UsageError(f"{value}:{lineno}: expected key=value, got {line!r}")
                key, _, raw = line.partition("=")
                defaults[key.strip().replace("-", "_")] = raw.strip()
    except OSError as exc:
        raise click.UsageError(f"cannot read config file {value}: {exc}")
    ctx.default_map = {**defaults, **(ctx.default_map or {})}
    return value


def _config_option():
    return click.option(
        "--config", callback=_load_config, is_eager=True, expose_value=False,
        type=click.Path(), help="Flat key=value file mirroring the flags; flags win.",
    )


def _params_options(fn):
    fn = click.option("--ring-bits", default=64, show_default=True,
                      type=click.Choice(["8", "16", "32", "64"]),
                      help="Ring width in bits.")(fn)
    fn = click.option("--int-bits", default=15, show_default=True, type=int,
                      help="Integer-field bits.")(fn)
    fn = click.option("--frac-bits", default=12, show_default=True, type=int,
                      help="Fractional-precision bits.")(fn)
    return fn


def _make_params(frac_bits, int_bits, ring_bits) -> FixedPointParams:
    try:
        return FixedPointParams(frac_bits=int(frac_bits), int_bits=int(int_bits),
                                ring_bits=int(ring_bits))
    except ValueError as exc:
        raise click.UsageError(str(exc))


@click.group()
def cli():
    """Two-party secure logistic regression over secret-shared fixed-point data."""


# ---------------------------------------------------------------------------
# split
# ---------------------------------------------------------------------------


def read_training_csv(path):
    """Parse a training CSV: header row, numeric features, final column the
    class label in {0,1}.  Errors name the offending row and column."""
    rows = []
    try:
        text = read_input(path).decode()
    except UnicodeDecodeError as exc:
        raise IngestionError(f"{path}: not UTF-8: byte 0x{exc.object[exc.start]:02x} "
                             f"at offset {exc.start}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise IngestionError(f"{path}: empty file") from None
    width = len(header)
    if width < 2:
        raise IngestionError(f"{path}: need at least one feature column plus the label")
    for rowno, row in enumerate(reader, 2):
        if len(row) != width:
            raise IngestionError(f"{path}:{rowno}: expected {width} cells, got {len(row)}")
        values = []
        for colno, cell in enumerate(row, 1):
            try:
                values.append(float(cell))
            except ValueError:
                raise IngestionError(
                    f"{path}:{rowno}: column {colno} ({header[colno - 1]!r}) "
                    f"is not numeric: {cell!r}"
                ) from None
        if values[-1] not in (0.0, 1.0):
            raise IngestionError(
                f"{path}:{rowno}: label must be 0 or 1, got {row[-1]!r}"
            )
        rows.append(values)
    if not rows:
        raise IngestionError(f"{path}: no data rows")
    data = np.asarray(rows, dtype=np.float64)
    return data[:, :-1], data[:, -1].astype(np.int64)


def _split_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([0x73706C69, int(seed) & (2 ** 64 - 1)]))


@cli.command("split")
@_config_option()
@click.option("--data", required=True, type=click.Path(), help="Training CSV to split.")
@click.option("--shares-out", required=True, type=click.Path(),
              help="Output prefix; writes PREFIX.alice.shr and PREFIX.bob.shr.")
@click.option("--seed", default=0, show_default=True, type=int)
@_params_options
def cmd_split(data, shares_out, seed, frac_bits, int_bits, ring_bits):
    """Encode a CSV into fixed point, prepend the dummy column, split into
    two uniform share files."""
    params = _make_params(frac_bits, int_bits, ring_bits)
    features, labels = read_training_csv(data)
    n = features.shape[0]
    full = np.hstack([np.ones((n, 1)), features, labels.reshape(-1, 1).astype(np.float64)])
    try:
        encoded = encode_array(full, params)
    except MpcError as exc:
        raise IngestionError(f"{data}: {exc}") from exc
    share_a, share_b = split_array(encoded, params, _split_rng(seed))
    for suffix, share in (("alice", share_a), ("bob", share_b)):
        write_share_file(f"{shares_out}.{suffix}.shr", share.values, params)
    click.echo(f"split {n} samples x {features.shape[1]} features "
               f"(+dummy, +label) -> {shares_out}.alice.shr, {shares_out}.bob.shr")


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def _load_party_shares(path, params):
    values, file_params = read_share_file(path)
    if file_params != params:
        raise FormatError(
            f"{path}: share file precision {file_params} does not match the "
            f"session precision {params}"
        )
    if values.shape[1] < 3:
        raise FormatError(f"{path}: expected at least dummy, one feature and label columns")
    return values[:, :-1], values[:, -1]


def _write_csv(path, prefix, rows):
    """Write decoded values as CSV: a header of PREFIX_i names, one line per row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"{prefix}_{i}" for i in range(rows.shape[1])])
        writer.writerows([repr(float(v)) for v in row] for row in rows)


def _deal(cfg, rows, cols):
    """Both parties' randomness streams for a rows x cols share matrix:
    dummy column, features and label."""
    return TrustedDealer(cfg.seed, cfg.params).generate(
        training_randomness_requests(rows, cols - 2, cfg))


def _train(sess, x_share, t_share, cfg):
    """One party's run: check its randomness stream against --seed and the
    run's plan, train, and return its weight share, as one row, and its
    TRANSCRIPT line."""
    n, m1 = x_share.shape
    if sess.randomness.session_id != session_id_from_seed(cfg.seed):
        raise FormatError("randomness stream session id does not match --seed")
    sess.randomness.check_plan(training_randomness_requests(n, m1 - 1, cfg))
    t0 = time.perf_counter()
    w_share = train_secure(sess, x_share, t_share, cfg).reshape(1, -1)
    wall = time.perf_counter() - t0
    counted = count_multiplications(n, m1 - 1, cfg.n_iter, cfg.params)
    info = {
        "role": sess.role.value,
        "wall_seconds": round(wall, 6),
        **sess.transcript.summary(),
        "counted_ring_mults": counted["ring"],
        "counted_bit_mults": counted["bit"],
    }
    return w_share, f"TRANSCRIPT {json.dumps(info, sort_keys=True)}"


def _train_local(data, weights_out, shares_out, cfg):
    (xa, ta), (xb, tb) = [_load_party_shares(f"{data}.{party}.shr", cfg.params)
                          for party in ("alice", "bob")]
    if xa.shape != xb.shape:
        raise FormatError(f"share files disagree on shape: {xa.shape} vs {xb.shape}")
    sessions = local_session_pair(cfg.params, cfg.seed, *_deal(cfg, len(xa), xa.shape[1] + 1))
    (wa, line_a), (wb, line_b) = run_sessions(*sessions, lambda s: _train(s, xa, ta, cfg),
                                              lambda s: _train(s, xb, tb, cfg))
    _write_csv(weights_out, "w", decode_array(wa + wb, cfg.params))
    if shares_out:
        write_share_file(f"{shares_out}.alice.shr", wa, cfg.params)
        write_share_file(f"{shares_out}.bob.shr", wb, cfg.params)
    click.echo(line_a)
    click.echo(line_b)
    click.echo(f"weights -> {weights_out}")


def _handshake_info(role: str, cfg, rows: int = 0, cols: int = 0) -> HandshakeInfo:
    params = cfg.params
    return HandshakeInfo(
        role=role, ring_bits=params.ring_bits, frac_bits=params.frac_bits,
        int_bits=params.int_bits, lr_encoded=encode(cfg.eta, params), n_iter=cfg.n_iter,
        rows=rows, cols=cols, seed_commitment=session_id_from_seed(cfg.seed),
    )


def _train_party(role_name, listen, peers, data, weights_out, cfg, randomness):
    role = Role.ALICE if role_name == "alice" else Role.BOB
    x_share, t_share = _load_party_shares(data, cfg.params)
    n, m1 = x_share.shape
    own = _handshake_info(role.value, cfg, rows=n, cols=m1 + 1)
    online = randomness == "online"
    # alice expects bob; in online mode each party also expects the TI
    expected = ({"B"} if role is Role.ALICE else set()) | ({"TI"} if online else set())
    server = tcp_listen(*_parse_endpoint(listen, "--listen")) if expected else None
    channels = {}  # by the peer's announced role
    try:
        if role is Role.BOB:
            channels["A"] = tcp_connect(*_parse_endpoint(peers[0], "--peer"), retry_window=5.0)
            perform_handshake(channels["A"], own)
        while expected - set(channels):
            ch = tcp_accept(server)
            peer = perform_handshake(ch, own)
            if peer.role not in expected - set(channels):
                ch.close()
                raise TransportError(f"unexpected connection from role {peer.role}")
            channels[peer.role] = ch
        if online:
            frame = channels["TI"].recv_frame()
            channels.pop("TI").close()
            if frame.msg_type != MSG_RANDOMNESS:
                raise TransportError(f"expected randomness stream, got message type "
                                     f"{frame.msg_type}")
            source = deserialize_stream(frame.payload, cfg.params)
        else:
            source = read_randomness_file(randomness[5:], cfg.params)
        sess = Session(role, channels["B" if role is Role.ALICE else "A"], source, cfg.params)
        w_share, line = _train(sess, x_share, t_share, cfg)
        write_share_file(weights_out, w_share, cfg.params)
        click.echo(line)
        click.echo(f"weight shares -> {weights_out}")
    finally:
        for ch in channels.values():
            ch.close()
        if server is not None:
            server.close()


def _train_ti(peers, cfg, randomness, dims):
    if randomness.startswith("file:"):
        if not dims:
            raise click.UsageError("file-mode TI needs --dims ROWSxCOLS of the share matrix")
        prefix = randomness[5:]
        for party, source in zip(("alice", "bob"), _deal(cfg, *_parse_dims(dims))):
            write_randomness_file(f"{prefix}.{party}.crn", source)
        click.echo(f"randomness -> {prefix}.alice.crn, {prefix}.bob.crn")
        return
    if len(peers) != 2:
        raise click.UsageError("online TI needs --peer alice_host:port --peer bob_host:port")
    own = _handshake_info("TI", cfg)
    channels = []
    infos = []
    try:
        for endpoint in peers:
            channels.append(tcp_connect(*_parse_endpoint(endpoint, "--peer"), retry_window=10.0))
            infos.append(perform_handshake(channels[-1], own))
        roles = sorted(info.role for info in infos)
        if roles != ["A", "B"]:
            raise TransportError(f"expected roles A and B, got {roles}")
        dims_a, dims_b = [(info.rows, info.cols) for info in infos]
        if dims_a != dims_b:
            raise TransportError(f"data processors disagree on dataset dims: {dims_a} vs {dims_b}")
        # deliver by announced role, not by connection order
        by_role = {info.role: ch for info, ch in zip(infos, channels)}
        for role, source in zip(("A", "B"), _deal(cfg, *dims_a)):
            by_role[role].send_frame(Frame(MSG_RANDOMNESS, serialize_stream(source)))
        click.echo(f"streamed randomness for {dims_a[0]} x {dims_a[1]} shares, "
                   f"{cfg.n_iter} iterations; leaving")
    finally:
        for ch in channels:
            ch.close()


def _parse_endpoint(value, flag):
    if not value or ":" not in value:
        raise click.UsageError(f"{flag} must be host:port, got {value!r}")
    host, _, port = value.rpartition(":")
    try:
        return host, int(port)
    except ValueError:
        raise click.UsageError(f"{flag}: bad port in {value!r}") from None


def _parse_dims(value):
    try:
        rows, cols = value.lower().split("x")
        return int(rows), int(cols)
    except ValueError:
        raise click.UsageError(f"--dims must be ROWSxCOLS, got {value!r}") from None


@cli.command("train")
@_config_option()
@click.option("--role", required=True, type=click.Choice(["ti", "alice", "bob", "local"]))
@click.option("--listen", default=None, help="host:port this process accepts on.")
@click.option("--peer", multiple=True,
              help="host:port to connect to (TI passes it twice: alice then bob).")
@click.option("--data", default=None, type=click.Path(),
              help="Own share file (alice/bob) or share-file prefix (local).")
@click.option("--weights-out", default=None, type=click.Path(),
              help="Weight share file (alice/bob) or decoded weights CSV (local).")
@click.option("--shares-out", default=None, type=click.Path(),
              help="local mode: also write weight share files under this prefix.")
@click.option("--lr", default=0.001, show_default=True, type=float, help="Learning rate.")
@click.option("--iterations", default=10, show_default=True, type=int)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--randomness", default=None,
              help="'file:PATH' (standard deployment) or 'online' (TI streams "
                   "over TCP). Local mode provisions in-process.")
@click.option("--dims", default=None, help="file-mode TI: ROWSxCOLS of the share matrix.")
@_params_options
def cmd_train(role, listen, peer, data, weights_out, shares_out, lr, iterations, seed,
              randomness, dims, frac_bits, int_bits, ring_bits):
    """Run one training-session role (or the whole session in local mode)."""
    params = _make_params(frac_bits, int_bits, ring_bits)
    try:
        cfg = TrainingConfig(eta=lr, n_iter=iterations, params=params, seed=seed)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if role != "local":
        if randomness is None:
            raise click.UsageError(
                f"role {role} needs --randomness file:PATH (standard) or online"
            )
        if randomness != "online" and not randomness.startswith("file:"):
            raise click.UsageError("--randomness must be 'online' or 'file:PATH'")
    if role == "ti":
        _train_ti(list(peer), cfg, randomness, dims)
        return
    if data is None or weights_out is None:
        raise click.UsageError(f"role {role} needs --data and --weights-out")
    if role == "local":
        _train_local(data, weights_out, shares_out, cfg)
        return
    if role == "alice" and not listen:
        raise click.UsageError("alice needs --listen")
    if role == "bob" and not peer:
        raise click.UsageError("bob needs --peer pointing at alice")
    _train_party(role, listen, list(peer), data, weights_out, cfg, randomness)


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------


@cli.command("reconstruct")
@_config_option()
@click.argument("share_a", type=click.Path())
@click.argument("share_b", type=click.Path())
@click.option("--weights-out", required=True, type=click.Path(), help="Decoded CSV output.")
def cmd_reconstruct(share_a, share_b, weights_out):
    """Combine two weight-share files and decode the model."""
    va, pa = read_share_file(share_a)
    vb, pb = read_share_file(share_b)
    if pa != pb:
        raise FormatError(f"precision headers differ: {pa} vs {pb}")
    if va.shape != vb.shape:
        raise FormatError(f"share shapes differ: {va.shape} vs {vb.shape}")
    opened = decode_array(va + vb, pa)
    _write_csv(weights_out, "w" if opened.shape[0] == 1 else "c", opened)
    click.echo(f"reconstructed {opened.shape[0]} x {opened.shape[1]} values -> {weights_out}")


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def _bench_once(kind, batch, params, seed):
    from .activation import batch_activate
    from .bitops import decompose_batch_slices

    rng = np.random.default_rng(seed)
    if kind == "activation":
        reals = rng.uniform(-4.0, 4.0, batch)
        secrets = encode_array(reals, params)
    else:
        secrets = np.frombuffer(rng.bytes(batch * 8), dtype=np.uint64).astype(params.dtype)
    share_a, share_b = split_array(secrets, params, rng)
    sess_a, sess_b = local_session_pair(params, seed=seed)

    if kind == "activation":
        fn = lambda s, v: batch_activate(s, v)
    elif kind == "decompose":
        fn = lambda s, v: decompose_batch_slices(s, v, params.ring_bits)
    else:
        fn = lambda s, v: batch_mul(s, v, v)

    t0 = time.perf_counter()
    run_sessions(sess_a, sess_b, lambda s: fn(s, share_a.values), lambda s: fn(s, share_b.values))
    wall = time.perf_counter() - t0
    return wall, sess_a.transcript


@cli.command("bench")
@_config_option()
@click.option("--kind", required=True, type=click.Choice(["activation", "decompose", "mul"]))
@click.option("--batch-sizes", default="256,512,1024,2048", show_default=True,
              help="Comma-separated batch sizes.")
@click.option("--reps", default=3, show_default=True, type=int)
@click.option("--seed", default=0, show_default=True, type=int)
@_params_options
def cmd_bench(kind, batch_sizes, reps, seed, frac_bits, int_bits, ring_bits):
    """Time one protocol kind over a local session at several batch sizes.

    Each size runs one untimed warm-up rep, then --reps timed ones; it
    reports their mean and minimum and, from their median, the time per
    evaluation.  The timed reps take the sizes in turn."""
    params = _make_params(frac_bits, int_bits, ring_bits)
    if reps < 3:
        raise click.UsageError("--reps must be at least 3")
    try:
        sizes = [int(s) for s in batch_sizes.split(",") if s.strip()]
    except ValueError:
        raise click.UsageError(f"bad --batch-sizes {batch_sizes!r}") from None
    if not sizes or min(sizes) < 1:
        raise click.UsageError("--batch-sizes must list sizes of at least 1")
    # The warm-up keeps one-off costs of a first run, such as lazy imports,
    # out of the timings; taking the sizes in turn spreads a slow stretch of
    # a shared host over all of them instead of one.
    for batch in sizes:
        _bench_once(kind, batch, params, seed)
    walls = [[] for _ in sizes]
    transcripts = [None] * len(sizes)
    for rep in range(reps):
        for i, batch in enumerate(sizes):
            wall, transcripts[i] = _bench_once(kind, batch, params, seed + rep)
            walls[i].append(wall)
    results = []
    for batch, times, transcript in zip(sizes, walls, transcripts):
        avg = sum(times) / len(times)
        results.append({
            "batch": batch,
            "avg_ms": round(avg * 1e3, 4),
            "min_ms": round(min(times) * 1e3, 4),
            "per_eval_ms": round(statistics.median(times) * 1e3 / batch, 6),
            "rounds": transcript.rounds,
            "bytes_sent": transcript.bytes_sent,
            "ring_mults": transcript.ring_mults,
            "bit_mults": transcript.bit_mults,
        })
    click.echo(f"{'batch':>8} {'avg ms':>12} {'per-eval ms':>12} {'rounds':>7} {'bytes':>12}")
    for r in results:
        click.echo(f"{r['batch']:>8} {r['avg_ms']:>12.3f} {r['per_eval_ms']:>12.6f} "
                   f"{r['rounds']:>7} {r['bytes_sent']:>12}")
    click.echo(f"BENCH {json.dumps({'kind': kind, 'reps': reps, 'results': results})}")


# ---------------------------------------------------------------------------
# entry point with the documented exit codes
# ---------------------------------------------------------------------------


# the first entry whose class the error is an instance of gives its exit
# code and the prefix of its one stderr line
_EXITS = [
    (RandomnessUnderflowError, EXIT_RANDOMNESS, "randomness underflow: "),
    (FormatError, EXIT_FORMAT, ""),
    (TransportError, EXIT_TRANSPORT, "transport: "),
    (ProtocolError, EXIT_PROTOCOL, "protocol: "),
    (MpcError, EXIT_PROTOCOL, ""),
]


def main(argv=None):
    try:
        cli(args=argv, standalone_mode=False)
        return EXIT_OK
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return 130
    except click.ClickException as exc:  # a UsageError's exit code is EXIT_USAGE
        exc.show()
        return exc.exit_code
    except MpcError as exc:
        code, prefix = next((code, prefix) for cls, code, prefix in _EXITS
                            if isinstance(exc, cls))
        click.echo(f"error: {prefix}{exc}", err=True)
        return code


if __name__ == "__main__":
    sys.exit(main())

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
import json
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
from .fixedpoint import FixedPointParams, decode_array, encode_array
from .local import local_session_pair, party_rng, run_pair
from .randomness import (
    MaterializedSource,
    OnDemandSource,
    TrustedDealer,
    deserialize_stream,
    read_randomness_file,
    serialize_stream,
    session_id_from_seed,
    write_randomness_file,
)
from .sharing import Role, read_share_file, split_array, write_share_file
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
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
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
    paths = {}
    for suffix, share in (("alice", share_a), ("bob", share_b)):
        path = f"{shares_out}.{suffix}.shr"
        write_share_file(path, share.values, params)
        paths[suffix] = path
    click.echo(f"split {n} samples x {features.shape[1]} features "
               f"(+dummy, +label) -> {paths['alice']}, {paths['bob']}")


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


def _print_transcript(role_name, sess, wall, counted):
    info = {
        "role": role_name,
        "wall_seconds": round(wall, 6),
        **sess.transcript.summary(),
        "counted_ring_mults": counted["ring"],
        "counted_bit_mults": counted["bit"],
    }
    click.echo(f"TRANSCRIPT {json.dumps(info, sort_keys=True)}")


def _weights_csv(path, weights):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"w_{i}" for i in range(len(weights))])
        writer.writerow([repr(float(w)) for w in weights])


def _train_local(data, weights_out, shares_out, cfg):
    xa, ta = _load_party_shares(f"{data}.alice.shr", cfg.params)
    xb, tb = _load_party_shares(f"{data}.bob.shr", cfg.params)
    if xa.shape != xb.shape:
        raise FormatError(f"share files disagree on shape: {xa.shape} vs {xb.shape}")
    n, m1 = xa.shape
    dealer = TrustedDealer(cfg.seed, cfg.params)
    src_a, src_b = dealer.generate(training_randomness_requests(n, m1 - 1, cfg))
    sess_a, sess_b = local_session_pair(cfg.params, seed=cfg.seed,
                                        randomness_a=src_a, randomness_b=src_b)
    t0 = time.perf_counter()
    wa, wb = run_pair(lambda: train_secure(sess_a, xa, ta, cfg),
                      lambda: train_secure(sess_b, xb, tb, cfg))
    wall = time.perf_counter() - t0
    weights = decode_array(wa + wb, cfg.params)
    _weights_csv(weights_out, weights)
    if shares_out:
        write_share_file(f"{shares_out}.alice.shr", wa.reshape(1, -1), cfg.params)
        write_share_file(f"{shares_out}.bob.shr", wb.reshape(1, -1), cfg.params)
    counted = count_multiplications(n, m1 - 1, cfg.n_iter, cfg.params)
    _print_transcript("A", sess_a, wall, counted)
    _print_transcript("B", sess_b, wall, counted)
    click.echo(f"weights -> {weights_out}")


def _recv_randomness(channel, cfg) -> MaterializedSource:
    frame = channel.recv_frame()
    if frame.msg_type != MSG_RANDOMNESS:
        raise TransportError(f"expected randomness stream, got message type {frame.msg_type}")
    source = deserialize_stream(frame.payload, cfg.params)
    expected = session_id_from_seed(cfg.seed)
    if source.session_id != expected:
        raise FormatError("randomness stream session id does not match --seed")
    return source


def _train_party(role_name, listen, peers, data, weights_out, cfg, randomness):
    role = Role.ALICE if role_name == "alice" else Role.BOB
    x_share, t_share = _load_party_shares(data, cfg.params)
    n, m1 = x_share.shape
    own = HandshakeInfo(
        role=role.value, ring_bits=cfg.params.ring_bits, frac_bits=cfg.params.frac_bits,
        int_bits=cfg.params.int_bits, rows=n, cols=m1 + 1,
        seed_commitment=session_id_from_seed(cfg.seed),
    )
    online = randomness == "online"
    ti_channel = None
    peer_channel = None
    server = None
    try:
        if role is Role.ALICE:
            host, port = _parse_endpoint(listen, "--listen")
            server = tcp_listen(host, port)
            wanted = {"B", "TI"} if online else {"B"}
            got = {}
            while wanted - set(got):
                ch = tcp_accept(server)
                peer = perform_handshake(ch, own)
                if peer.role not in wanted or peer.role in got:
                    ch.close()
                    raise TransportError(f"unexpected connection from role {peer.role}")
                got[peer.role] = ch
            peer_channel = got["B"]
            ti_channel = got.get("TI")
        else:
            if online:
                host, port = _parse_endpoint(listen, "--listen")
                server = tcp_listen(host, port)
            if not peers:
                raise click.UsageError("bob needs --peer pointing at alice")
            host, port = _parse_endpoint(peers[0], "--peer")
            peer_channel = tcp_connect(host, port, retry_window=5.0)
            perform_handshake(peer_channel, own)
            if online:
                ti_channel = tcp_accept(server)
                peer = perform_handshake(ti_channel, own)
                if peer.role != "TI":
                    raise TransportError(f"expected the trusted initializer, got role {peer.role}")

        if online:
            source = _recv_randomness(ti_channel, cfg)
            ti_channel.close()
        else:
            if not randomness.startswith("file:"):
                raise click.UsageError("--randomness must be 'online' or 'file:PATH'")
            source = read_randomness_file(randomness[5:], cfg.params)
            if source.session_id != session_id_from_seed(cfg.seed):
                raise FormatError("randomness file session id does not match --seed")

        sess = Session(role, peer_channel, source, cfg.params, rng=party_rng(cfg.seed, role))
        t0 = time.perf_counter()
        w_share = train_secure(sess, x_share, t_share, cfg)
        wall = time.perf_counter() - t0
        write_share_file(weights_out, w_share.reshape(1, -1), cfg.params)
        counted = count_multiplications(n, m1 - 1, cfg.n_iter, cfg.params)
        _print_transcript(role.value, sess, wall, counted)
        click.echo(f"weight shares -> {weights_out}")
    finally:
        for ch in (peer_channel, ti_channel):
            if ch is not None:
                ch.close()
        if server is not None:
            server.close()


def _train_ti(peers, cfg, randomness, dims):
    if randomness.startswith("file:"):
        if not dims:
            raise click.UsageError("file-mode TI needs --dims ROWSxCOLS of the share matrix")
        rows, cols = _parse_dims(dims)
        dealer = TrustedDealer(cfg.seed, cfg.params)
        src_a, src_b = dealer.generate(training_randomness_requests(rows, cols - 2, cfg))
        prefix = randomness[5:]
        write_randomness_file(f"{prefix}.alice.crn", src_a)
        write_randomness_file(f"{prefix}.bob.crn", src_b)
        click.echo(f"randomness -> {prefix}.alice.crn, {prefix}.bob.crn")
        return
    if randomness != "online":
        raise click.UsageError("--randomness must be 'online' or 'file:PATH'")
    if len(peers) != 2:
        raise click.UsageError("online TI needs --peer alice_host:port --peer bob_host:port")
    own = HandshakeInfo(
        role="TI", ring_bits=cfg.params.ring_bits, frac_bits=cfg.params.frac_bits,
        int_bits=cfg.params.int_bits, rows=0, cols=0,
        seed_commitment=session_id_from_seed(cfg.seed),
    )
    channels = []
    infos = []
    try:
        for endpoint in peers:
            host, port = _parse_endpoint(endpoint, "--peer")
            ch = tcp_connect(host, port, retry_window=10.0)
            infos.append(perform_handshake(ch, own))
            channels.append(ch)
        if (infos[0].rows, infos[0].cols) != (infos[1].rows, infos[1].cols):
            raise TransportError(
                f"data processors disagree on dataset dims: "
                f"{(infos[0].rows, infos[0].cols)} vs {(infos[1].rows, infos[1].cols)}"
            )
        rows, cols = infos[0].rows, infos[0].cols
        dealer = TrustedDealer(cfg.seed, cfg.params)
        src_a, src_b = dealer.generate(training_randomness_requests(rows, cols - 2, cfg))
        # deliver by announced role, not by connection order
        by_role = {infos[i].role: channels[i] for i in range(2)}
        if set(by_role) != {"A", "B"}:
            raise TransportError(f"expected roles A and B, got {sorted(by_role)}")
        by_role["A"].send_frame(Frame(MSG_RANDOMNESS, serialize_stream(src_a)))
        by_role["B"].send_frame(Frame(MSG_RANDOMNESS, serialize_stream(src_b)))
        click.echo(f"streamed randomness for {rows} x {cols} shares, "
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
    if opened.shape[0] == 1:
        _weights_csv(weights_out, opened[0])
    else:
        with open(weights_out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"c_{i}" for i in range(opened.shape[1])])
            for row in opened:
                writer.writerow([repr(float(v)) for v in row])
    click.echo(f"reconstructed {opened.shape[0]} x {opened.shape[1]} values -> {weights_out}")


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def _bench_once(kind, batch, params, seed):
    from .activation import batch_activate
    from .bitops import batch_decompose

    rng = np.random.default_rng(seed)
    if kind == "activation":
        reals = rng.uniform(-4.0, 4.0, batch)
        secrets = encode_array(reals, params)
    else:
        secrets = np.frombuffer(rng.bytes(batch * 8), dtype=np.uint64).astype(params.dtype)
    share_a, share_b = split_array(secrets, params, rng)
    sess_a, sess_b = local_session_pair(
        params, seed=seed,
        randomness_a=OnDemandSource(seed, Role.ALICE, params),
        randomness_b=OnDemandSource(seed, Role.BOB, params),
    )

    if kind == "activation":
        fn = lambda s, v: batch_activate(s, v)
    elif kind == "decompose":
        fn = lambda s, v: batch_decompose(s, v)
    else:
        fn = lambda s, v: batch_mul(s, v, v)

    t0 = time.perf_counter()
    run_pair(lambda: fn(sess_a, share_a.values), lambda: fn(sess_b, share_b.values))
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
    """Time one protocol kind over a local session at several batch sizes."""
    params = _make_params(frac_bits, int_bits, ring_bits)
    if reps < 3:
        raise click.UsageError("--reps must be at least 3")
    try:
        sizes = [int(s) for s in batch_sizes.split(",") if s.strip()]
    except ValueError:
        raise click.UsageError(f"bad --batch-sizes {batch_sizes!r}") from None
    results = []
    for batch in sizes:
        walls = []
        transcript = None
        for rep in range(reps):
            wall, transcript = _bench_once(kind, batch, params, seed + rep)
            walls.append(wall)
        avg = sum(walls) / len(walls)
        results.append({
            "batch": batch,
            "avg_ms": round(avg * 1e3, 4),
            "min_ms": round(min(walls) * 1e3, 4),
            "per_eval_ms": round(avg * 1e3 / batch, 6),
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


def main(argv=None):
    try:
        cli(args=argv, standalone_mode=False)
        return EXIT_OK
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return 130
    except click.UsageError as exc:
        exc.show()
        return EXIT_USAGE
    except click.ClickException as exc:
        exc.show()
        return exc.exit_code
    except RandomnessUnderflowError as exc:
        click.echo(f"error: randomness underflow: {exc}", err=True)
        return EXIT_RANDOMNESS
    except (FormatError, IngestionError) as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_FORMAT
    except TransportError as exc:
        click.echo(f"error: transport: {exc}", err=True)
        return EXIT_TRANSPORT
    except ProtocolError as exc:
        click.echo(f"error: protocol: {exc}", err=True)
        return EXIT_PROTOCOL
    except MpcError as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_PROTOCOL


if __name__ == "__main__":
    sys.exit(main())

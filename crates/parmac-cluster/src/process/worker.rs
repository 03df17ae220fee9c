//! The `parmac-machined` worker: one ring machine as an OS process.
//!
//! A worker is deliberately thin — the distributed *control plane* of the
//! §4.3 ring. It holds its resident shard codes, receives envelopes from its
//! ring predecessor, routes them by the envelope's visit list
//! (`should_process_at`), asks the coordinator to apply update visits, and
//! forwards envelopes to the next live successor. The submodel parameters
//! and the update closures never leave the coordinator, so the worker needs
//! no knowledge of the model being trained.
//!
//! Concurrency shape: reader threads (coordinator connection, ring peer
//! connections) pump frames into one mailbox; a single `worker_main_loop`
//! owns all state and does all writes. Every loop is an actor region under
//! the workspace lint — bounded waits, no panics.

use std::collections::{BTreeSet, HashMap};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use crossbeam_channel::{unbounded, Receiver, Sender};

use crate::envelope::SubmodelEnvelope;
use crate::replica::ReplicaStore;
use crate::waits;

use super::frames::Frame;
use super::transport::{self, FrameReader};
use super::ProcessConfig;

/// Read-poll granularity for worker sockets: short, because a worker's whole
/// job is routing latency.
const READ_TICK: Duration = Duration::from_millis(5);

enum WorkerEvent {
    Frame(Frame),
    CoordClosed,
}

struct RoundState {
    round: u64,
    epochs: usize,
    ring: Vec<usize>,
}

struct WorkerCtx {
    machine: usize,
    dir: PathBuf,
    cfg: ProcessConfig,
    coord: UnixStream,
    events_rx: Receiver<WorkerEvent>,
    round: Option<RoundState>,
    dead: BTreeSet<usize>,
    peers: HashMap<usize, UnixStream>,
    /// Envelopes for a round whose `WStepBegin` has not arrived yet: a fast
    /// predecessor can race the coordinator's step broadcast on a different
    /// connection. Replayed in arrival order when the round opens.
    stashed: Vec<(u64, u64, SubmodelEnvelope<()>)>,
    /// The resident shard: `LoadShard` snapshots and `ApplyZ` streams land
    /// here (a freshly streamed-in worker starts empty and grows from its
    /// first delta), `FetchShard` reads it back.
    replica: ReplicaStore,
}

/// Runs the worker for `machine` against the fleet directory `dir` until the
/// coordinator shuts it down. Returns the process exit code: 0 for a clean
/// shutdown (including coordinator disappearance — an orphaned worker exits
/// rather than lingering), non-zero for setup failures.
pub fn run_machined(machine: usize, dir: &Path) -> i32 {
    let cfg = ProcessConfig::default();
    let listener = match UnixListener::bind(dir.join(format!("m{machine}.sock"))) {
        Ok(listener) => listener,
        Err(_) => return 2,
    };
    if listener.set_nonblocking(true).is_err() {
        return 2;
    }
    let coord = match transport::connect_with_backoff(
        &dir.join("coord.sock"),
        cfg.connect_timeout,
        cfg.backoff_initial,
        cfg.backoff_cap,
    ) {
        Ok(stream) => stream,
        Err(_) => return 3,
    };
    if transport::write_frame(&coord, &Frame::Hello { machine }).is_err() {
        return 3;
    }
    let coord_reader = match coord
        .try_clone()
        .map_err(|_| ())
        .and_then(|clone| FrameReader::new(clone, READ_TICK).map_err(|_| ()))
    {
        Ok(reader) => reader,
        Err(()) => return 3,
    };

    let stop = Arc::new(AtomicBool::new(false));
    let (events_tx, events_rx) = unbounded();

    let accept_tx = events_tx.clone();
    let accept_stop = Arc::clone(&stop);
    let accept = thread::Builder::new()
        .name(format!("machined-{machine}-accept"))
        .spawn(move || worker_accept_loop(&listener, &accept_tx, &accept_stop));
    if accept.is_err() {
        return 4;
    }
    let coord_stop = Arc::clone(&stop);
    let coord_thread = thread::Builder::new()
        .name(format!("machined-{machine}-coord"))
        .spawn(move || coord_reader_loop(coord_reader, &events_tx, &coord_stop));
    if coord_thread.is_err() {
        return 4;
    }

    let mut ctx = WorkerCtx {
        machine,
        dir: dir.to_path_buf(),
        cfg,
        coord,
        events_rx,
        round: None,
        dead: BTreeSet::new(),
        peers: HashMap::new(),
        stashed: Vec::new(),
        replica: ReplicaStore::default(),
    };
    let code = worker_main_loop(&mut ctx);
    // Reader threads exit within a tick of the stop flag; the process exit
    // below reclaims them regardless.
    stop.store(true, Ordering::SeqCst);
    code
}

/// The worker's single state-owning loop: every frame, from the coordinator
/// or any ring peer, lands here.
fn worker_main_loop(ctx: &mut WorkerCtx) -> i32 {
    loop {
        match waits::recv_bounded(&ctx.events_rx, waits::IDLE_TICK) {
            Ok(WorkerEvent::CoordClosed) => return 0,
            Ok(WorkerEvent::Frame(frame)) => {
                if let Some(code) = handle_frame(ctx, frame) {
                    return code;
                }
            }
            // All reader threads gone without a shutdown: broken setup.
            Err(()) => return 4,
        }
    }
}

/// Dispatches one frame. `Some(code)` ends the worker.
fn handle_frame(ctx: &mut WorkerCtx, frame: Frame) -> Option<i32> {
    match frame {
        Frame::Ping { nonce } => reply_coord(ctx, &Frame::Pong { nonce }),
        Frame::Shutdown => return Some(0),
        Frame::WStepBegin {
            round,
            epochs,
            ring,
        } => {
            ctx.round = Some(RoundState {
                round,
                epochs,
                ring,
            });
            let stashed = std::mem::take(&mut ctx.stashed);
            for (env_round, generation, envelope) in stashed {
                if env_round == round {
                    route_envelope(ctx, round, generation, envelope);
                } else if env_round > round {
                    ctx.stashed.push((env_round, generation, envelope));
                }
            }
        }
        Frame::PeerDown { machine } => {
            ctx.dead.insert(machine);
            ctx.peers.remove(&machine);
        }
        Frame::Envelope {
            round,
            generation,
            envelope,
        } => match &ctx.round {
            Some(rs) if rs.round == round => route_envelope(ctx, round, generation, envelope),
            // Ahead of our WStepBegin: stash, replay when the round opens.
            _ if ctx.round.as_ref().is_none_or(|rs| round > rs.round) => {
                ctx.stashed.push((round, generation, envelope));
            }
            // Behind: a relic of a finished round; drop it.
            _ => {}
        },
        Frame::Processed {
            round,
            generation,
            envelope,
            finished,
        } => {
            if !finished {
                forward_envelope(ctx, round, generation, envelope);
            }
        }
        Frame::Stale {
            round: _,
            submodel: _,
        } => {}
        Frame::LoadShard { points, codes, seq } => {
            ctx.replica.load(points, codes, seq);
        }
        Frame::ApplyZ { round, updates } => {
            for update in &updates {
                ctx.replica.apply(update);
            }
            reply_coord(
                ctx,
                &Frame::ZApplied {
                    machine: ctx.machine,
                    round,
                },
            );
        }
        Frame::FetchShard => {
            let (points, codes, seq) = ctx.replica.snapshot();
            reply_coord(
                ctx,
                &Frame::ShardSnapshot {
                    machine: ctx.machine,
                    points,
                    codes,
                    seq,
                },
            );
        }
        // Coordinator-bound frames never arrive at a worker; ignore.
        Frame::Hello { .. }
        | Frame::Pong { .. }
        | Frame::UpdateRequest { .. }
        | Frame::ForwardFailed { .. }
        | Frame::ZApplied { .. }
        | Frame::ShardSnapshot { .. } => {}
    }
    None
}

/// The §4.3 routing rule: apply any locally-known faults to the visit list,
/// then either stop here (ask the coordinator to record the visit) or relay
/// to the next live successor.
fn route_envelope(
    ctx: &mut WorkerCtx,
    round: u64,
    generation: u64,
    mut envelope: SubmodelEnvelope<()>,
) {
    let (epochs, ring) = match &ctx.round {
        Some(rs) if rs.round == round => (rs.epochs, rs.ring.clone()),
        _ => return,
    };
    for &dead in &ctx.dead {
        if ring.contains(&dead) {
            envelope.handle_fault(dead, &ring, epochs);
        }
    }
    if envelope.should_process_at(ctx.machine, epochs) {
        reply_coord(
            ctx,
            &Frame::UpdateRequest {
                machine: ctx.machine,
                round,
                generation,
                envelope,
            },
        );
    } else {
        forward_envelope(ctx, round, generation, envelope);
    }
}

/// Sends the envelope to the next live machine after us in ring order. On
/// failure the envelope goes *back to the coordinator* (`ForwardFailed`) —
/// never silently dropped, because a dropped envelope is a hung W step.
fn forward_envelope(
    ctx: &mut WorkerCtx,
    round: u64,
    generation: u64,
    envelope: SubmodelEnvelope<()>,
) {
    let ring = match &ctx.round {
        Some(rs) if rs.round == round => rs.ring.clone(),
        _ => return,
    };
    let my_pos = match ring.iter().position(|&m| m == ctx.machine) {
        Some(pos) => pos,
        // We are not on this round's ring (late PeerDown about us?): hand
        // the envelope back rather than guessing a successor.
        None => {
            reply_coord(
                ctx,
                &Frame::ForwardFailed {
                    round,
                    generation,
                    envelope,
                },
            );
            return;
        }
    };
    for step in 1..=ring.len() {
        let target = ring[(my_pos + step) % ring.len()];
        if target == ctx.machine {
            // Every other machine is dead: a one-machine ring routes the
            // envelope straight back to itself. Process it if the visit
            // list allows; otherwise hand it to the coordinator (its view
            // of the faults is ahead of ours) instead of spinning.
            let epochs = ctx.round.as_ref().map_or(0, |rs| rs.epochs);
            let reply = if envelope.should_process_at(ctx.machine, epochs) {
                Frame::UpdateRequest {
                    machine: ctx.machine,
                    round,
                    generation,
                    envelope,
                }
            } else {
                Frame::ForwardFailed {
                    round,
                    generation,
                    envelope,
                }
            };
            reply_coord(ctx, &reply);
            return;
        }
        if ctx.dead.contains(&target) {
            continue;
        }
        if send_peer(
            ctx,
            target,
            &Frame::Envelope {
                round,
                generation,
                envelope: envelope.clone(),
            },
        ) {
            return;
        }
        // The successor looked live but is unreachable: report back. If it
        // truly died, the coordinator's reroute (with a fresh generation)
        // supersedes this copy; if it was transient, the coordinator
        // re-injects this generation unchanged.
        ctx.peers.remove(&target);
        reply_coord(
            ctx,
            &Frame::ForwardFailed {
                round,
                generation,
                envelope,
            },
        );
        return;
    }
}

/// Writes to a ring peer, connecting (with bounded backoff) on first use.
fn send_peer(ctx: &mut WorkerCtx, target: usize, frame: &Frame) -> bool {
    if !ctx.peers.contains_key(&target) {
        let path = ctx.dir.join(format!("m{target}.sock"));
        match transport::connect_with_backoff(
            &path,
            ctx.cfg.io_timeout,
            ctx.cfg.backoff_initial,
            ctx.cfg.backoff_cap,
        ) {
            Ok(stream) => {
                ctx.peers.insert(target, stream);
            }
            Err(_) => return false,
        }
    }
    match ctx.peers.get(&target) {
        Some(stream) => transport::write_frame(stream, frame).is_ok(),
        None => false,
    }
}

/// Best-effort write to the coordinator. A failed write is not handled here:
/// the coordinator reader thread will surface `CoordClosed` and the main
/// loop exits.
fn reply_coord(ctx: &WorkerCtx, frame: &Frame) {
    let _ = transport::write_frame(&ctx.coord, frame);
}

/// Accepts inbound ring connections (our predecessor, or any machine whose
/// successor walk lands on us after faults) and spawns a reader for each.
fn worker_accept_loop(
    listener: &UnixListener,
    events: &Sender<WorkerEvent>,
    stop: &Arc<AtomicBool>,
) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _addr)) => {
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                let reader = match FrameReader::new(stream, READ_TICK) {
                    Ok(reader) => reader,
                    Err(_) => continue,
                };
                let tx = events.clone();
                let peer_stop = Arc::clone(stop);
                let _ = thread::Builder::new()
                    .name("machined-peer".into())
                    .spawn(move || peer_reader_loop(reader, &tx, &peer_stop));
            }
            Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(READ_TICK);
            }
            Err(_) => thread::sleep(READ_TICK),
        }
    }
}

/// Pumps one inbound peer connection into the mailbox. A predecessor closing
/// its outbound socket is unremarkable (reconnects are lazy), so EOF just
/// ends the thread.
fn peer_reader_loop(mut reader: FrameReader, events: &Sender<WorkerEvent>, stop: &Arc<AtomicBool>) {
    while !stop.load(Ordering::SeqCst) {
        match reader.poll_frame() {
            Ok(Some(frame)) => {
                if events.send(WorkerEvent::Frame(frame)).is_err() {
                    return;
                }
            }
            Ok(None) => {}
            Err(_) => return,
        }
    }
}

/// Pumps the coordinator connection into the mailbox; EOF means the
/// coordinator is gone and the worker should exit.
fn coord_reader_loop(
    mut reader: FrameReader,
    events: &Sender<WorkerEvent>,
    stop: &Arc<AtomicBool>,
) {
    while !stop.load(Ordering::SeqCst) {
        match reader.poll_frame() {
            Ok(Some(frame)) => {
                if events.send(WorkerEvent::Frame(frame)).is_err() {
                    return;
                }
            }
            Ok(None) => {}
            Err(_) => {
                let _ = events.send(WorkerEvent::CoordClosed);
                return;
            }
        }
    }
}

//! A serving machine: one long-lived actor thread owning every shard replica
//! it hosts — codes and index — touched only from its own mailbox loop.

use super::{MachineMsg, Query, QueryReply};
use crate::backend::ZUpdate;
use crate::replica::ReplicaStore;
use crate::waits;
use crossbeam_channel::Receiver;
use parmac_hash::BinaryCodes;
use parmac_retrieval::PrefixIndex;
use std::collections::{BTreeMap, BTreeSet};
use std::thread;

/// One hosted replica of a shard: the resident `(points, codes)` store —
/// also what `FetchShard` donates to an under-replicated peer — and the
/// multi-probe index the actor serves from, kept in step with it row by row.
struct Replica {
    store: ReplicaStore,
    index: PrefixIndex,
}

impl Default for Replica {
    fn default() -> Self {
        let store = ReplicaStore::default();
        let index = PrefixIndex::build(store.codes(), store.points());
        Replica { store, index }
    }
}

impl Replica {
    // lint: actor-region — replica maintenance runs on serving-actor threads
    fn reindex(&mut self) {
        self.index = PrefixIndex::build(self.store.codes(), self.store.points());
    }

    fn apply(&mut self, update: &ZUpdate) {
        let row = self.store.apply(update);
        if self.index.n_bits() == self.store.codes().n_bits() {
            // Per-update index work, not a rebuild (`upsert_code`).
            self.index
                .upsert_code(update.point, self.store.codes(), row);
        } else {
            // The first delta into an empty store set its width.
            self.reindex();
        }
    }
    // lint: end-actor-region
}

/// State owned by one long-lived serving actor: every shard replica this
/// machine hosts, plus the replica-installation protocol state — shards it
/// has been told to *expect* (`ExpectReplica` arrived, snapshot still in
/// flight) and the updates stashed for them. Mailbox FIFO plus the
/// single-threaded publisher make the stash a contiguous suffix of the
/// update stream, so replaying it over the installed snapshot converges to
/// the donor's bytes.
struct MachineState {
    machine: usize,
    shards: BTreeMap<usize, Replica>,
    expecting: BTreeSet<usize>,
    pending: BTreeMap<usize, Vec<ZUpdate>>,
}

impl MachineState {
    // lint: actor-region — every method below runs on a serving-actor thread
    /// Seq-fenced placement of a whole shard ([`ReplicaStore::load`]: data
    /// older than what this machine holds is refused, so neither a late
    /// snapshot nor a load that raced a newer publish rolls the shard back),
    /// then a replay of the updates stashed while a donor's snapshot was in
    /// flight — re-applying ones the donor had already folded in is an
    /// idempotent overwrite. Taken or refused, the attempt's state goes.
    fn install(&mut self, shard: usize, points: Vec<usize>, codes: BinaryCodes, seq: u64) {
        self.expecting.remove(&shard);
        let stash = self.pending.remove(&shard).unwrap_or_default();
        let replica = self.shards.entry(shard).or_default();
        if replica.store.load(points, codes, seq) {
            replica.reindex();
            for update in &stash {
                replica.apply(update);
            }
        }
    }

    fn apply_updates(&mut self, shard: usize, updates: Vec<ZUpdate>) {
        if !self.shards.contains_key(&shard) && self.expecting.contains(&shard) {
            self.pending.entry(shard).or_default().extend(updates);
            return;
        }
        // A shard this machine never loaded grows from its deltas alone
        // (streaming `publish_point_codes` to a brand-new machine).
        let replica = self.shards.entry(shard).or_default();
        for update in &updates {
            replica.apply(update);
        }
    }

    fn answer(&self, query: &Query) -> QueryReply {
        let mut answered = Vec::new();
        let mut missing = Vec::new();
        for &shard in &query.shards {
            // Tolerate malformed queries (width mismatch, k = 0) with an
            // empty answer instead of panicking: a panic here would kill the
            // detached actor and leave the router failing over for nothing.
            // A resident-but-unservable shard counts as *answered* (empty),
            // never missing: its replicas are identical, so retrying
            // elsewhere cannot do better.
            match self.shards.get(&shard) {
                Some(replica) => {
                    let servable = !replica.index.is_empty()
                        && query.k > 0
                        && replica.index.n_bits() == query.queries.n_bits();
                    let hits = if servable {
                        replica
                            .index
                            .topk_batched(&query.queries, query.k, query.probes)
                    } else {
                        vec![Vec::new(); query.queries.len()]
                    };
                    answered.push((shard, hits));
                }
                None => missing.push(shard),
            }
        }
        QueryReply {
            machine: self.machine,
            answered,
            missing,
        }
    }
    // lint: end-actor-region
}

/// The long-lived serving actor loop: retrieval, shard placement and the
/// replica-installation protocol until `Shutdown`.
pub(super) fn serving_actor(machine: usize, rx: Receiver<MachineMsg>) {
    let mut state = MachineState {
        machine,
        shards: BTreeMap::new(),
        expecting: BTreeSet::new(),
        pending: BTreeMap::new(),
    };
    while let Ok(msg) = waits::recv_bounded(&rx, waits::IDLE_TICK) {
        match msg {
            MachineMsg::Query(query) => {
                let reply = query.reply.clone();
                let answer = state.answer(&query);
                // Release the shared query batch before replying so the
                // router's caller sees its Arc unique again on return.
                drop(query);
                let _ = reply.send(answer);
            }
            MachineMsg::LoadShard {
                shard,
                points,
                codes,
                seq,
            } => {
                // Authoritative: a publish is an install with nothing to
                // replay, whatever was stashed for one still in flight.
                state.pending.remove(&shard);
                state.install(shard, points, codes, seq);
            }
            MachineMsg::InstallReplica {
                shard,
                points,
                codes,
                seq,
            } => state.install(shard, points, codes, seq),
            MachineMsg::ExpectReplica { shard } => {
                if !state.shards.contains_key(&shard) {
                    state.expecting.insert(shard);
                }
            }
            MachineMsg::DropShard { shard } => {
                state.shards.remove(&shard);
                state.expecting.remove(&shard);
                state.pending.remove(&shard);
            }
            MachineMsg::ApplyUpdates { shard, updates } => state.apply_updates(shard, updates),
            MachineMsg::FetchShard { shard, reply } => {
                let snapshot = state.shards.get(&shard).map(|r| r.store.snapshot());
                let _ = reply.send(snapshot);
            }
            MachineMsg::Ping { reply } => {
                let _ = reply.send(machine);
            }
            MachineMsg::Wedge(duration) => thread::sleep(duration),
            MachineMsg::Shutdown => break,
        }
    }
}

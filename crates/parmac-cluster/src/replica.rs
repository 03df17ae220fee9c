//! The resident-shard store: one shard's `(points, codes)` as a machine keeps
//! it for good (§4), written once for both fleets. The in-process serving
//! actor ([`server`](crate::server)) puts its search index on top; the
//! `parmac-machined` worker ([`process`](crate::process)) holds it bare.

use crate::backend::ZUpdate;
use parmac_hash::BinaryCodes;
use std::collections::HashMap;

/// One resident shard. `row_of` maps global point id → row, so an update to
/// a known point rewrites its row instead of appending.
pub(crate) struct ReplicaStore {
    points: Vec<usize>,
    codes: BinaryCodes,
    row_of: HashMap<usize, usize>,
    /// Publish stamp of the whole-shard data this store derives from (0 =
    /// never loaded: empty, or grown from streamed deltas alone).
    seq: u64,
}

impl Default for ReplicaStore {
    /// An empty shard at `seq` 0; the first `apply` sets its code width.
    fn default() -> Self {
        ReplicaStore {
            points: Vec::new(),
            codes: BinaryCodes::zeros(0, 1),
            row_of: HashMap::new(),
            seq: 0,
        }
    }
}

impl ReplicaStore {
    /// Replaces the shard with `(points, codes)` published at `seq`, unless
    /// the store already holds *strictly newer* data; returns whether it
    /// took the load. The one fencing rule of both fleets: older data can
    /// never roll a shard back, and an equal `seq` replaces, so a retried
    /// publish is idempotent.
    pub(crate) fn load(&mut self, points: Vec<usize>, codes: BinaryCodes, seq: u64) -> bool {
        if seq < self.seq {
            return false;
        }
        self.row_of = points.iter().enumerate().map(|(r, &p)| (p, r)).collect();
        self.points = points;
        self.codes = codes;
        self.seq = seq;
        true
    }

    /// Writes one point's new code and returns its row: a known point's row
    /// is rewritten, a new point is appended. The first update into an empty
    /// store sets the code width (a machine streamed in after the last
    /// publish starts from deltas alone).
    pub(crate) fn apply(&mut self, update: &ZUpdate) -> usize {
        if self.points.is_empty() && self.codes.n_bits() != update.code.len() {
            self.codes = BinaryCodes::zeros(0, update.code.len().max(1));
        }
        match self.row_of.get(&update.point) {
            Some(&row) => {
                self.codes.set_code(row, &update.code);
                row
            }
            None => {
                let row = self.points.len();
                self.row_of.insert(update.point, row);
                self.points.push(update.point);
                self.codes.push_code(&update.code);
                row
            }
        }
    }

    /// A copy of the shard as `(points, codes, seq)` — what `load` takes.
    pub(crate) fn snapshot(&self) -> (Vec<usize>, BinaryCodes, u64) {
        (self.points.clone(), self.codes.clone(), self.seq)
    }

    /// Global point ids, one per row of [`codes`](Self::codes).
    pub(crate) fn points(&self) -> &[usize] {
        &self.points
    }

    /// The resident codes, in `points` order.
    pub(crate) fn codes(&self) -> &BinaryCodes {
        &self.codes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(rows: &[[f64; 3]]) -> BinaryCodes {
        let mut codes = BinaryCodes::zeros(0, 3);
        for row in rows {
            codes.push_code(row);
        }
        codes
    }

    fn update(point: usize, code: [f64; 3]) -> ZUpdate {
        ZUpdate {
            point,
            code: code.to_vec(),
        }
    }

    #[test]
    fn load_refuses_only_strictly_older_data() {
        let old = codes(&[[1.0, 0.0, 0.0]]);
        let new = codes(&[[0.0, 1.0, 0.0]]);
        // (incoming seq, accepted) against a store holding seq 2: older is
        // refused, equal and newer replace.
        for (seq, accepted) in [(1, false), (2, true), (3, true)] {
            let mut store = ReplicaStore::default();
            assert!(store.load(vec![7], old.clone(), 2), "first load");
            assert_eq!(store.load(vec![9], new.clone(), seq), accepted, "seq={seq}");
            let expected = if accepted {
                (vec![9], new.clone(), seq)
            } else {
                (vec![7], old.clone(), 2)
            };
            assert_eq!(store.snapshot(), expected, "seq={seq}");
        }
    }

    #[test]
    fn apply_rewrites_a_known_point_and_appends_a_new_one() {
        let mut store = ReplicaStore::default();
        store.load(vec![4, 5], codes(&[[0.0; 3], [0.0; 3]]), 1);
        assert_eq!(store.apply(&update(5, [1.0, 1.0, 0.0])), 1, "rewrite");
        assert_eq!(store.points(), [4, 5]);
        assert_eq!(store.apply(&update(8, [0.0, 0.0, 1.0])), 2, "append");
        assert_eq!(store.points(), [4, 5, 8]);
        assert_eq!(
            store.codes(),
            &codes(&[[0.0; 3], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        );
        // The appended point is now known: a second update rewrites row 2.
        assert_eq!(store.apply(&update(8, [1.0, 0.0, 1.0])), 2);
        assert_eq!(store.codes().to_f64_row(2), [1.0, 0.0, 1.0]);
        assert_eq!(store.snapshot().2, 1, "deltas keep the load's seq");
    }

    #[test]
    fn first_delta_into_an_empty_store_sets_the_width() {
        let mut store = ReplicaStore::default();
        assert_eq!(store.snapshot(), (Vec::new(), BinaryCodes::zeros(0, 1), 0));
        assert_eq!(store.apply(&update(3, [1.0, 0.0, 1.0])), 0);
        assert_eq!(store.apply(&update(6, [0.0, 1.0, 1.0])), 1);
        let expected = codes(&[[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]);
        assert_eq!(store.snapshot(), (vec![3, 6], expected, 0));
    }

    #[test]
    fn snapshot_round_trips_through_load() {
        let mut donor = ReplicaStore::default();
        donor.load(vec![2, 0], codes(&[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), 5);
        donor.apply(&update(9, [1.0, 1.0, 1.0]));
        let (points, shard_codes, seq) = donor.snapshot();
        let mut peer = ReplicaStore::default();
        assert!(peer.load(points, shard_codes, seq));
        assert_eq!(peer.snapshot(), donor.snapshot());
        // The peer rebuilt `row_of`: an update to a donated point rewrites.
        assert_eq!(peer.apply(&update(0, [0.0, 0.0, 1.0])), 1);
        assert_eq!(peer.points(), [2, 0, 9]);
    }
}

//! Per-submodel protocol metadata.
//!
//! In ParMAC's asynchronous W step "each submodel carries a counter that is
//! initially 1 and increases every time it visits a machine" (§4.1); the more
//! general fault-tolerant variant tags each submodel "with a list (per epoch)
//! of machines it has to visit" (§4.3). [`SubmodelEnvelope`] implements both:
//! the visit list drives the epoch bookkeeping and the fault-tolerant routing
//! (see [`next_machine`]), the counters expose progress for statistics.
//!
//! Machines removed by [`handle_fault`] are remembered in
//! [`faulted_machines`] and excluded from every subsequent epoch refill, so a
//! failed machine never re-enters a submodel's route — the visit list is the
//! authoritative record of where the submodel still has to go.
//!
//! [`next_machine`]: SubmodelEnvelope::next_machine
//! [`handle_fault`]: SubmodelEnvelope::handle_fault
//! [`faulted_machines`]: SubmodelEnvelope::faulted_machines

use serde::{Deserialize, Serialize};

/// A submodel in transit around the ring, together with its protocol state.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SubmodelEnvelope<S> {
    /// Which submodel this is (index into the model's submodel list).
    pub submodel_id: usize,
    /// The submodel parameters being circulated.
    pub payload: S,
    /// Number of machine visits so far (both updating and forwarding visits).
    pub visits: usize,
    /// Epochs fully completed: incremented whenever the pending list empties.
    pub epochs_completed: usize,
    /// Hops made in the final communication-only lap.
    pub forward_visits: usize,
    /// Machines this submodel still has to visit in the current epoch
    /// (§4.3's more general mechanism; kept in sync by [`record_visit`]).
    ///
    /// [`record_visit`]: SubmodelEnvelope::record_visit
    pub pending_machines: Vec<usize>,
    /// Machines removed by [`handle_fault`]: they are excluded from every
    /// epoch refill, so a failed machine never comes back into the route.
    ///
    /// [`handle_fault`]: SubmodelEnvelope::handle_fault
    pub faulted_machines: Vec<usize>,
}

impl<S> SubmodelEnvelope<S> {
    /// Wraps a submodel about to start its W step on a ring of `machines`.
    pub fn new(submodel_id: usize, payload: S, machines: &[usize]) -> Self {
        SubmodelEnvelope {
            submodel_id,
            payload,
            visits: 0,
            epochs_completed: 0,
            forward_visits: 0,
            pending_machines: machines.to_vec(),
            faulted_machines: Vec::new(),
        }
    }

    /// The protocol state without the payload: what crosses a socket when the
    /// parameters stay with the coordinator (the `process` backend).
    pub(crate) fn header(&self) -> SubmodelEnvelope<()> {
        SubmodelEnvelope {
            submodel_id: self.submodel_id,
            payload: (),
            visits: self.visits,
            epochs_completed: self.epochs_completed,
            forward_visits: self.forward_visits,
            pending_machines: self.pending_machines.clone(),
            faulted_machines: self.faulted_machines.clone(),
        }
    }

    /// Whether the submodel should still be *updated* when visiting a machine
    /// (as opposed to merely forwarded in the final communication lap): true
    /// until all `epochs` visit lists have been worked off.
    pub fn needs_update(&self, epochs: usize) -> bool {
        self.epochs_completed < epochs
    }

    /// Whether the envelope has completed the full W step: every epoch's
    /// visit list worked off, plus the final communication-only lap of
    /// `P_live − 1` hops over the `n_machines`-strong ring (machines that
    /// faulted after this envelope last saw them reduce the lap accordingly).
    pub fn is_finished(&self, n_machines: usize, epochs: usize) -> bool {
        let live = n_machines.saturating_sub(self.faulted_machines.len());
        !self.needs_update(epochs) && self.forward_visits >= live.saturating_sub(1)
    }

    /// Records a visit to `machine`: increments the counters, removes the
    /// machine from the pending list (refilling the list with the non-faulted
    /// members of `all_machines` when an epoch's list empties), and returns
    /// whether the visit performed an update.
    pub fn record_visit(&mut self, machine: usize, all_machines: &[usize], epochs: usize) -> bool {
        let updating = self.needs_update(epochs);
        self.visits += 1;
        if updating {
            if let Some(pos) = self.pending_machines.iter().position(|&m| m == machine) {
                self.pending_machines.remove(pos);
            }
            if self.pending_machines.is_empty() {
                self.epochs_completed += 1;
                if self.needs_update(epochs) {
                    // Start of the next epoch: must visit every live machine
                    // again — but never one that has faulted.
                    self.pending_machines = all_machines
                        .iter()
                        .copied()
                        .filter(|m| !self.faulted_machines.contains(m))
                        .collect();
                }
            }
        } else {
            self.forward_visits += 1;
        }
        updating
    }

    /// Handles the failure of `machine` (§4.3): the machine can no longer be
    /// visited, so it is dropped from the pending list *and* remembered so
    /// that later epoch refills exclude it.
    ///
    /// Routing follows from the list: a machine holding an envelope whose
    /// pending list does not contain it relays the envelope onward instead of
    /// processing it (see the process worker's `route_envelope`), so faulted
    /// machines are routed around without any successor-walk special cases.
    ///
    /// Removing the faulted machine may *empty* the pending list — when the
    /// fault strikes the last unvisited machine of the epoch. That completes
    /// the epoch exactly as a visit would, so the same epoch-advance logic
    /// runs here: `epochs_completed` is bumped and the list refilled from the
    /// non-faulted members of `all_machines` while updates remain. Without
    /// this the envelope would wedge — relayed forever by machines that see
    /// an empty-but-unfinished visit list.
    pub fn handle_fault(&mut self, machine: usize, all_machines: &[usize], epochs: usize) {
        self.pending_machines.retain(|&m| m != machine);
        if !self.faulted_machines.contains(&machine) {
            self.faulted_machines.push(machine);
        }
        while self.pending_machines.is_empty() && self.needs_update(epochs) {
            self.epochs_completed += 1;
            if self.needs_update(epochs) {
                self.pending_machines = all_machines
                    .iter()
                    .copied()
                    .filter(|m| !self.faulted_machines.contains(m))
                    .collect();
            }
        }
    }

    /// Whether a machine holding this envelope should process it (record a
    /// visit, possibly update) rather than relay it onward: always during the
    /// final forwarding lap, and only when on the pending list during the
    /// update phase. This is the §4.3 routing rule — the visit list, not a
    /// hardcoded successor walk, decides where the envelope stops next.
    pub fn should_process_at(&self, machine: usize, epochs: usize) -> bool {
        !self.needs_update(epochs) || self.pending_machines.contains(&machine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_drives_update_vs_forward_and_finish() {
        let machines = [0usize, 1, 2];
        let mut env = SubmodelEnvelope::new(0, (), &machines);
        let epochs = 2;
        // 6 update visits (P*e), then 2 forwarding visits (P-1), then finished.
        let mut updates = 0;
        let mut forwards = 0;
        let mut machine = 0;
        while !env.is_finished(machines.len(), epochs) {
            if env.record_visit(machine, &machines, epochs) {
                updates += 1;
            } else {
                forwards += 1;
            }
            machine = (machine + 1) % machines.len();
        }
        assert_eq!(updates, 6);
        assert_eq!(forwards, 2);
        assert_eq!(env.visits, 8); // P(e+1) − 1
        assert_eq!(env.epochs_completed, 2);
    }

    #[test]
    fn pending_list_refills_each_epoch() {
        let machines = [0usize, 1];
        let mut env = SubmodelEnvelope::new(3, 42u32, &machines);
        assert_eq!(env.pending_machines, vec![0, 1]);
        env.record_visit(0, &machines, 2);
        assert_eq!(env.pending_machines, vec![1]);
        env.record_visit(1, &machines, 2);
        // epoch finished but another epoch remains → refilled
        assert_eq!(env.pending_machines, vec![0, 1]);
    }

    #[test]
    fn fault_removes_machine_from_pending() {
        let machines = [0usize, 1, 2];
        let mut env = SubmodelEnvelope::new(0, (), &machines);
        env.handle_fault(1, &machines, 1);
        assert_eq!(env.pending_machines, vec![0, 2]);
        assert_eq!(env.faulted_machines, vec![1]);
    }

    #[test]
    fn faulted_machine_is_never_pending_again() {
        // Regression: the epoch refill used to reinstate machines previously
        // removed by handle_fault. Fault machine 1 during epoch 1 of a
        // 3-machine / 2-epoch run and drive the envelope to completion: 1 must
        // never appear on the pending list again.
        let machines = [0usize, 1, 2];
        let epochs = 2;
        let mut env = SubmodelEnvelope::new(0, (), &machines);
        assert!(env.record_visit(0, &machines, epochs));
        env.handle_fault(1, &machines, epochs); // machine 1 dies mid-epoch-1
        assert!(!env.pending_machines.contains(&1));
        let mut visited = Vec::new();
        let mut machine = 2; // continue around the (reconnected) ring 0 → 2
        while !env.is_finished(machines.len(), epochs) {
            assert!(
                !env.pending_machines.contains(&1),
                "faulted machine reinstated: pending {:?} after visits {:?}",
                env.pending_machines,
                visited
            );
            env.record_visit(machine, &machines, epochs);
            visited.push(machine);
            machine = if machine == 0 { 2 } else { 0 };
        }
        // Epoch 1 finishes on {0, 2}; epoch 2 refills with {0, 2} only; the
        // final lap is P_live − 1 = 1 hop.
        assert_eq!(env.epochs_completed, 2);
        assert_eq!(env.forward_visits, 1);
        assert!(!visited.is_empty());
    }

    #[test]
    fn single_machine_single_epoch_finishes_immediately_after_update() {
        let machines = [0usize];
        let mut env = SubmodelEnvelope::new(0, (), &machines);
        assert!(!env.is_finished(1, 1));
        assert!(env.record_visit(0, &machines, 1));
        assert!(env.is_finished(1, 1));
    }

    #[test]
    fn routing_processes_at_pending_machines_only_until_the_forwarding_lap() {
        let ring = [0usize, 1, 2, 3];
        let mut env = SubmodelEnvelope::new(0, (), &ring);
        // Machine 1 faulted: it must relay, the pending machines process.
        env.handle_fault(1, &ring, 1);
        assert!(env.should_process_at(0, 1));
        assert!(!env.should_process_at(1, 1));
        assert!(env.should_process_at(2, 1));
        // A visited machine relays for the rest of the epoch.
        env.record_visit(0, &ring, 1);
        assert!(!env.should_process_at(0, 1));
        // During the forwarding lap every machine processes (forward hop).
        env.record_visit(2, &ring, 1);
        env.record_visit(3, &ring, 1);
        assert!(!env.needs_update(1));
        assert!(env.should_process_at(0, 1) && env.should_process_at(1, 1));
    }

    #[test]
    fn two_sequential_faults_in_one_epoch_route_to_completion() {
        // Two machines die within the same epoch of a 4-machine / 2-epoch
        // run. Neither may ever reappear on the pending list, and the
        // envelope must still run to completion over the two survivors with
        // a correctly shortened forwarding lap.
        let machines = [0usize, 1, 2, 3];
        let epochs = 2;
        let mut env = SubmodelEnvelope::new(0, (), &machines);
        assert!(env.record_visit(0, &machines, epochs));
        env.handle_fault(1, &machines, epochs);
        env.handle_fault(3, &machines, epochs);
        assert_eq!(env.pending_machines, vec![2]);
        assert_eq!(env.faulted_machines, vec![1, 3]);
        let mut visited = Vec::new();
        let mut machine = 2; // surviving ring is 0 → 2
        while !env.is_finished(machines.len(), epochs) {
            assert!(
                !env.pending_machines.contains(&1) && !env.pending_machines.contains(&3),
                "faulted machine reinstated: pending {:?} after visits {:?}",
                env.pending_machines,
                visited
            );
            env.record_visit(machine, &machines, epochs);
            visited.push(machine);
            machine = if machine == 0 { 2 } else { 0 };
        }
        // Epoch 1 finishes at 2; epoch 2 refills with {0, 2}; the final lap
        // over the 2 live machines is a single hop.
        assert_eq!(env.epochs_completed, 2);
        assert_eq!(env.forward_visits, 1);
        assert_eq!(visited.len(), 4); // finish epoch 1 (1) + epoch 2 (2) + lap (1)
    }

    #[test]
    fn fault_emptying_the_pending_list_completes_the_epoch() {
        // The second fault of the epoch strikes the *last* unvisited machine:
        // the epoch must complete (and the next one start without the dead
        // machines) exactly as a visit would have done — otherwise the
        // envelope is relayed forever with an empty-but-unfinished list.
        let machines = [0usize, 1, 2];
        let epochs = 2;
        let mut env = SubmodelEnvelope::new(0, (), &machines);
        assert!(env.record_visit(0, &machines, epochs));
        env.handle_fault(1, &machines, epochs);
        assert_eq!(env.pending_machines, vec![2]);
        env.handle_fault(2, &machines, epochs); // empties epoch 1's list
        assert_eq!(env.epochs_completed, 1);
        assert_eq!(env.pending_machines, vec![0]); // epoch 2, survivors only
        assert!(env.should_process_at(0, epochs));
        assert!(env.record_visit(0, &machines, epochs));
        assert!(!env.needs_update(epochs));
        // One live machine → zero-hop forwarding lap: already finished.
        assert!(env.is_finished(machines.len(), epochs));
    }
}

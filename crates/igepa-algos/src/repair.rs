//! Region-scoped greedy repair: the serving engine's patch kernel.
//!
//! [`patch_region`] is the engine's repair pass over a shard's
//! arrangement: prune dirty users, evict overflow at dirty events, then
//! greedily re-admit the heaviest feasible candidates around the region.
//!
//! Determinism: for a fixed `(instance, arrangement, dirty_users,
//! dirty_events)` the pass is a pure function — candidate sets are
//! ordered (`BTreeSet`), ties break on ids, and the recorded op lists
//! come back in execution order.

use crate::warm_start::admit_greedily_with;
use igepa_core::{Arrangement, EventId, Instance, UserId};
use std::collections::BTreeSet;

/// The pair edits a repair pass performed, in execution order: all
/// removals (prunes then evictions), then all admissions.
///
/// Replaying `removed` then `added` onto any arrangement that matched the
/// repaired one pre-pass reproduces the post-pass state exactly; the
/// same lists drive incremental utility-tracker updates (exact sums are
/// order-independent, so post-hoc replay is bit-identical to inline
/// tracking).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PatchOps {
    /// Pairs removed, in removal order.
    pub removed: Vec<(EventId, UserId)>,
    /// Pairs admitted, in admission order.
    pub added: Vec<(EventId, UserId)>,
}

impl PatchOps {
    /// Whether the pass changed nothing.
    pub fn is_empty(&self) -> bool {
        self.removed.is_empty() && self.added.is_empty()
    }
}

/// The engine's greedy repair pass over a dirty region: prune every
/// dirty user, evict overflow at every dirty event (lightest attendees
/// first), then greedily re-admit the heaviest feasible candidates
/// around the region. Returns the recorded edits.
///
/// `dirty_users` and `dirty_events` must be sorted ascending (callers
/// hold them in ordered sets); determinism of the pass relies on it.
pub fn patch_region(
    instance: &Instance,
    arrangement: &mut Arrangement,
    dirty_users: &[UserId],
    dirty_events: &[EventId],
) -> PatchOps {
    let mut ops = PatchOps::default();

    // Re-seat every dirty user from scratch: removing all their pairs
    // and re-adding greedily uniformly handles revoked bids, shrunk
    // user capacities and conflict structure around new assignments.
    for &u in dirty_users {
        for v in arrangement.remove_user_assignments(u) {
            ops.removed.push((v, u));
        }
    }

    // Evict overflow at dirty events (capacity may have shrunk),
    // dropping the lightest attendees first.
    let mut evicted_users: BTreeSet<UserId> = BTreeSet::new();
    for &v in dirty_events {
        let capacity = instance.event(v).capacity;
        if arrangement.load_of(v) <= capacity {
            continue;
        }
        let mut attendees: Vec<(f64, UserId)> = arrangement
            .users_of(v)
            .iter()
            .map(|&u| (instance.weight(v, u), u))
            .collect();
        attendees.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.1.cmp(&b.1))
        });
        let overflow = arrangement.load_of(v) - capacity;
        for &(_, u) in attendees.iter().take(overflow) {
            arrangement.unassign(v, u);
            ops.removed.push((v, u));
            evicted_users.insert(u);
        }
    }

    // Candidate pairs: dirty users × their bids, dirty events × their
    // bidders, and every bid of a user evicted above (they may fit
    // elsewhere).
    let mut candidates: BTreeSet<(EventId, UserId)> = BTreeSet::new();
    for &u in dirty_users.iter().chain(evicted_users.iter()) {
        for &v in &instance.user(u).bids {
            candidates.insert((v, u));
        }
    }
    for &v in dirty_events {
        for &u in &instance.event(v).bidders {
            candidates.insert((v, u));
        }
    }

    admit_greedily_with(instance, arrangement, candidates, |v, u| {
        ops.added.push((v, u))
    });
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use igepa_core::{AttributeVector, ConstantInterest, PairSetConflict};

    /// 4 events (caps 2, 1, 2, 1; events 0 & 1 conflict), 4 users
    /// bidding broadly.
    fn instance() -> Instance {
        let mut b = Instance::builder();
        let v0 = b.add_event(2, AttributeVector::empty());
        let v1 = b.add_event(1, AttributeVector::empty());
        let v2 = b.add_event(2, AttributeVector::empty());
        let v3 = b.add_event(1, AttributeVector::empty());
        b.add_user(2, AttributeVector::empty(), vec![v0, v1, v2]);
        b.add_user(2, AttributeVector::empty(), vec![v0, v2, v3]);
        b.add_user(1, AttributeVector::empty(), vec![v1, v2]);
        b.add_user(2, AttributeVector::empty(), vec![v0, v3]);
        b.interaction_scores(vec![0.9, 0.5, 0.7, 0.3]);
        let mut sigma = PairSetConflict::new();
        sigma.add(v0, v1);
        b.build(&sigma, &ConstantInterest(0.5)).unwrap()
    }

    #[test]
    fn eviction_drops_the_lightest_attendees() {
        let inst = instance();
        let mut m = Arrangement::empty_for(&inst);
        // Overload event 0 (capacity 2) with three attendees by hand.
        m.assign(EventId::new(0), UserId::new(0));
        m.assign(EventId::new(0), UserId::new(1));
        m.assign(EventId::new(0), UserId::new(3));
        let ops = patch_region(&inst, &mut m, &[], &[EventId::new(0)]);
        // User 3 has the lowest interaction score → lightest → evicted
        // (and greedily re-seated elsewhere if feasible).
        assert!(ops.removed.contains(&(EventId::new(0), UserId::new(3))));
        assert_eq!(m.load_of(EventId::new(0)), 2);
        assert!(m.is_feasible(&inst));
    }
}

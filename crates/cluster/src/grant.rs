//! The arbiter → daemon cap channel.
//!
//! The global arbiter and each node's NRM daemon run on different
//! schedules: the arbiter redistributes at cluster barriers, the daemon
//! applies its cap once per control period. A [`GrantCell`] decouples
//! them — the arbiter stores the latest granted cap, and the daemon's
//! [`GrantSchedule`] reads whatever is current at each tick, exactly like
//! a real NRM daemon picking up the newest downstream power message.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use nrm::scheme::CapSchedule;
use simnode::time::Nanos;

/// Sentinel for "no cap": not a valid `f64::to_bits` of any finite watts
/// value we ever grant.
const UNCAPPED: u64 = u64::MAX;

/// A shared, atomically updated cap grant (watts; `None` = uncapped).
#[derive(Debug, Clone)]
pub struct GrantCell(Arc<AtomicU64>);

impl GrantCell {
    /// A cell holding `cap` (use `None` for uncapped).
    pub fn new(cap: Option<f64>) -> Self {
        let cell = Self(Arc::new(AtomicU64::new(UNCAPPED)));
        cell.set(cap);
        cell
    }

    /// Store a new grant.
    ///
    /// # Panics
    /// Panics on a non-finite or non-positive cap.
    pub fn set(&self, cap: Option<f64>) {
        let bits = match cap {
            None => UNCAPPED,
            Some(w) => {
                assert!(w.is_finite() && w > 0.0, "cap must be finite positive");
                w.to_bits()
            }
        };
        self.0.store(bits, Ordering::Release);
    }

    /// The current grant.
    pub fn get(&self) -> Option<f64> {
        match self.0.load(Ordering::Acquire) {
            UNCAPPED => None,
            bits => Some(f64::from_bits(bits)),
        }
    }
}

impl Default for GrantCell {
    fn default() -> Self {
        Self::new(None)
    }
}

/// A [`CapSchedule`] that always programs the cell's current grant,
/// ignoring elapsed time (the arbiter, not the clock, drives the cap).
#[derive(Debug, Clone)]
pub struct GrantSchedule(pub GrantCell);

impl CapSchedule for GrantSchedule {
    fn cap_at(&self, _elapsed: Nanos) -> Option<f64> {
        self.0.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_round_trips_grants() {
        let cell = GrantCell::default();
        assert_eq!(cell.get(), None);
        cell.set(Some(87.5));
        assert_eq!(cell.get(), Some(87.5));
        cell.set(None);
        assert_eq!(cell.get(), None);
    }

    #[test]
    fn schedule_tracks_the_cell_not_the_clock() {
        let cell = GrantCell::new(Some(60.0));
        let sched = GrantSchedule(cell.clone());
        assert_eq!(sched.cap_at(0), Some(60.0));
        cell.set(Some(110.0));
        assert_eq!(sched.cap_at(1_000_000_000), Some(110.0));
    }

    #[test]
    #[should_panic(expected = "finite positive")]
    fn non_finite_grant_rejected() {
        GrantCell::default().set(Some(f64::NAN));
    }
}

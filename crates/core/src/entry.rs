//! The MASCOT table entry payload (Fig. 6).
//!
//! Each entry is 28 bits in the default configuration: a 16-bit tag, a 7-bit
//! store distance (0 encodes a *non-dependence*), a 3-bit usefulness counter
//! (MDP confidence; doubles as the eviction guard) and a 2-bit bypass
//! counter (SMB confidence). The tag lives in the table's struct-of-arrays
//! tag lane; this type carries the remaining (payload) fields.

use crate::prediction::StoreDistance;
use mascot_snapshot::{SnapError, SnapReader, SnapWriter};
use mascot_stats::SaturatingCounter;

/// One MASCOT predictor entry payload (everything but the tag).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MascotEntry {
    /// 0 = non-dependence; otherwise the store distance (1..=127).
    distance: u8,
    usefulness: SaturatingCounter,
    bypass: SaturatingCounter,
}

impl MascotEntry {
    /// Creates a *dependent* entry predicting `distance`, with the given
    /// initial counters (§IV-C allocates with usefulness 6; §IV-E sets the
    /// bypass counter to 1 for bypassable conflicts, else 0).
    pub fn dependent(
        distance: StoreDistance,
        usefulness_bits: u8,
        initial_usefulness: u8,
        bypass_bits: u8,
        initial_bypass: u8,
    ) -> Self {
        Self {
            distance: distance.get(),
            usefulness: SaturatingCounter::new(usefulness_bits, initial_usefulness),
            bypass: SaturatingCounter::new(bypass_bits, initial_bypass),
        }
    }

    /// Creates a *non-dependence* entry (distance 0, §IV-D), allocated with
    /// usefulness 2 in the paper's configuration.
    pub fn non_dependent(usefulness_bits: u8, initial_usefulness: u8, bypass_bits: u8) -> Self {
        Self {
            distance: 0,
            usefulness: SaturatingCounter::new(usefulness_bits, initial_usefulness),
            bypass: SaturatingCounter::new(bypass_bits, 0),
        }
    }

    /// The predicted store distance, or `None` for a non-dependence entry.
    #[inline]
    pub fn distance(&self) -> Option<StoreDistance> {
        StoreDistance::new(u32::from(self.distance))
    }

    /// True when this entry encodes a non-dependence.
    #[inline]
    pub fn is_non_dependence(&self) -> bool {
        self.distance == 0
    }

    /// The usefulness (MDP confidence) counter.
    pub fn usefulness(&self) -> &SaturatingCounter {
        &self.usefulness
    }

    /// The bypass (SMB confidence) counter.
    pub fn bypass(&self) -> &SaturatingCounter {
        &self.bypass
    }

    /// SMB is predicted only when both counters are saturated (§IV-B).
    #[inline]
    pub fn predicts_bypass(&self) -> bool {
        self.distance != 0 && self.usefulness.is_saturated() && self.bypass.is_saturated()
    }

    /// Only entries with zero usefulness may be evicted (§IV-B).
    #[inline]
    pub fn is_evictable(&self) -> bool {
        self.usefulness.is_zero()
    }

    /// Increments MDP confidence (correct dependence prediction).
    pub fn reward_dependence(&mut self) {
        self.usefulness.increment();
    }

    /// Decrements MDP confidence (incorrect dependence prediction).
    pub fn punish_dependence(&mut self) {
        self.usefulness.decrement();
    }

    /// Decrements usefulness (allocation-pressure decay, §IV-C).
    pub fn decay(&mut self) {
        self.usefulness.decrement();
    }

    /// Increments SMB confidence (outcome was a bypass opportunity).
    pub fn reward_bypass(&mut self) {
        self.bypass.increment();
    }

    /// Resets SMB confidence (outcome was not a bypass opportunity).
    pub fn punish_bypass(&mut self) {
        self.bypass.reset();
    }

    /// Appends the entry to a snapshot payload.
    pub fn snap_encode(&self, w: &mut SnapWriter) {
        w.u8(self.distance);
        self.usefulness.snap_encode(w);
        self.bypass.snap_encode(w);
    }

    /// Decodes an entry from a snapshot payload, fail-closed: the distance
    /// must fit the 7-bit field and both counters must decode as valid
    /// saturating counters.
    ///
    /// # Errors
    ///
    /// [`SnapError`] on truncation or any out-of-range field.
    pub fn snap_decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let distance = r.u8("entry distance")?;
        if distance > 127 {
            return Err(SnapError::Corrupt("entry distance exceeds 7 bits"));
        }
        Ok(Self {
            distance,
            usefulness: SaturatingCounter::snap_decode(r)?,
            bypass: SaturatingCounter::snap_decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist(d: u32) -> StoreDistance {
        StoreDistance::new(d).unwrap()
    }

    #[test]
    fn dependent_entry_roundtrip() {
        let e = MascotEntry::dependent(dist(5), 3, 6, 2, 1);
        assert_eq!(e.distance().unwrap().get(), 5);
        assert!(!e.is_non_dependence());
        assert_eq!(e.usefulness().value(), 6);
        assert_eq!(e.bypass().value(), 1);
        assert!(!e.is_evictable());
    }

    #[test]
    fn non_dependent_entry_has_zero_distance() {
        let e = MascotEntry::non_dependent(3, 2, 2);
        assert!(e.is_non_dependence());
        assert_eq!(e.distance(), None);
        assert_eq!(e.usefulness().value(), 2);
        assert!(!e.predicts_bypass());
    }

    #[test]
    fn bypass_requires_both_counters_saturated() {
        let mut e = MascotEntry::dependent(dist(1), 3, 7, 2, 2);
        assert!(!e.predicts_bypass(), "bypass counter at 2 of 3 must not bypass");
        e.reward_bypass();
        assert!(e.predicts_bypass());
        e.punish_dependence(); // usefulness drops below saturation
        assert!(!e.predicts_bypass());
    }

    #[test]
    fn non_dependence_never_bypasses_even_saturated() {
        let mut e = MascotEntry::non_dependent(3, 2, 2);
        for _ in 0..10 {
            e.reward_dependence();
            e.reward_bypass();
        }
        assert!(!e.predicts_bypass());
    }

    #[test]
    fn evictable_only_at_zero_usefulness() {
        let mut e = MascotEntry::dependent(dist(2), 3, 1, 2, 0);
        assert!(!e.is_evictable());
        e.decay();
        assert!(e.is_evictable());
    }

    #[test]
    fn punish_bypass_resets_to_zero() {
        let mut e = MascotEntry::dependent(dist(2), 3, 7, 2, 3);
        e.punish_bypass();
        assert_eq!(e.bypass().value(), 0);
    }
}

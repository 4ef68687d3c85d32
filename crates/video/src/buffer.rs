//! The client playback buffer.
//!
//! Downloaded chunks add playback seconds to the buffer; playback drains it
//! in real time. The buffer is the central state variable of both
//! buffer-based ABR and Sammy's pace-rate interpolation (§4.2), and its
//! evolution obeys the standard update equation of Appendix A:
//! `B_{t+1} = B_t + d_t − Δ_t`.

use netsim::SimDuration;

/// Seconds of content buffered at the client.
#[derive(Debug, Clone, Copy)]
pub struct PlaybackBuffer {
    /// Buffered content duration.
    level: SimDuration,
    /// Client-imposed maximum (device memory limit).
    max: SimDuration,
}

impl PlaybackBuffer {
    /// An empty buffer with the given capacity.
    ///
    /// # Panics
    /// Panics if `max` is zero.
    pub fn new(max: SimDuration) -> Self {
        assert!(!max.is_zero(), "buffer capacity must be positive");
        PlaybackBuffer {
            level: SimDuration::ZERO,
            max,
        }
    }

    /// Current buffered duration.
    pub fn level(&self) -> SimDuration {
        self.level
    }

    /// Capacity.
    pub fn max(&self) -> SimDuration {
        self.max
    }

    /// Fill fraction in `[0, 1]` — the `B̂` of Sammy's multiplier.
    pub fn fill_fraction(&self) -> f64 {
        (self.level.as_secs_f64() / self.max.as_secs_f64()).clamp(0.0, 1.0)
    }

    /// True if no content is buffered.
    pub fn is_empty(&self) -> bool {
        self.level.is_zero()
    }

    /// Add a downloaded chunk's duration. Content above capacity is still
    /// admitted (the request policy, not the buffer, enforces the cap —
    /// matching real players that stop *requesting* rather than discard).
    pub fn add_chunk(&mut self, duration: SimDuration) {
        self.level += duration;
    }

    /// Whether a chunk of `duration` may be requested without exceeding
    /// capacity on arrival.
    pub fn has_room_for(&self, duration: SimDuration) -> bool {
        self.level + duration <= self.max
    }

    /// Drain `elapsed` of playback. Returns the duration actually played;
    /// if the buffer ran dry mid-interval the remainder is a stall.
    pub fn drain(&mut self, elapsed: SimDuration) -> SimDuration {
        let played = self.level.min(elapsed);
        self.level -= played;
        played
    }

    /// Time until the buffer runs dry at normal playback speed.
    pub fn time_to_empty(&self) -> SimDuration {
        self.level
    }

    /// Time until there is room for a chunk of `duration`, at normal
    /// playback drain. Zero if there is room now.
    pub fn time_until_room(&self, duration: SimDuration) -> SimDuration {
        if self.has_room_for(duration) {
            SimDuration::ZERO
        } else {
            (self.level + duration) - self.max
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_and_drain() {
        let mut b = PlaybackBuffer::new(SimDuration::from_secs(240));
        assert!(b.is_empty());
        b.add_chunk(SimDuration::from_secs(4));
        b.add_chunk(SimDuration::from_secs(4));
        assert_eq!(b.level(), SimDuration::from_secs(8));
        let played = b.drain(SimDuration::from_secs(3));
        assert_eq!(played, SimDuration::from_secs(3));
        assert_eq!(b.level(), SimDuration::from_secs(5));
    }

    #[test]
    fn drain_beyond_empty_stalls() {
        let mut b = PlaybackBuffer::new(SimDuration::from_secs(240));
        b.add_chunk(SimDuration::from_secs(2));
        let played = b.drain(SimDuration::from_secs(5));
        assert_eq!(played, SimDuration::from_secs(2));
        assert!(b.is_empty());
    }

    #[test]
    fn fill_fraction() {
        let mut b = PlaybackBuffer::new(SimDuration::from_secs(100));
        assert_eq!(b.fill_fraction(), 0.0);
        b.add_chunk(SimDuration::from_secs(50));
        assert!((b.fill_fraction() - 0.5).abs() < 1e-12);
        b.add_chunk(SimDuration::from_secs(100));
        assert_eq!(b.fill_fraction(), 1.0); // clamped when overfull
    }

    #[test]
    fn room_accounting() {
        let mut b = PlaybackBuffer::new(SimDuration::from_secs(10));
        b.add_chunk(SimDuration::from_secs(8));
        assert!(b.has_room_for(SimDuration::from_secs(2)));
        assert!(!b.has_room_for(SimDuration::from_secs(3)));
        assert_eq!(
            b.time_until_room(SimDuration::from_secs(2)),
            SimDuration::ZERO
        );
        assert_eq!(
            b.time_until_room(SimDuration::from_secs(4)),
            SimDuration::from_secs(2)
        );
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        PlaybackBuffer::new(SimDuration::ZERO);
    }
}

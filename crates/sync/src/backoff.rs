//! Bounded exponential backoff used by the contended paths of the spinlocks.
//!
//! Backoff reduces the coherence-traffic storm that naive test-and-set locks
//! generate: instead of re-asserting ownership of the lock's cache line on
//! every iteration, a waiter pauses for an exponentially growing number of
//! `spin_loop` hints before retrying.

/// Exponential backoff state for one acquisition attempt.
///
/// The sequence of waits is `1, 2, 4, ... , 2^MAX_SHIFT` spin-loop hints;
/// once the cap is reached every further pause is the longest one.
#[derive(Debug)]
pub struct Backoff {
    step: u32,
}

impl Backoff {
    /// Upper bound (log2) on the number of spin hints per pause.
    const MAX_SHIFT: u32 = 10;

    /// Creates a fresh backoff ladder.
    #[inline]
    pub fn new() -> Self {
        Backoff { step: 0 }
    }

    /// Pauses for the current step's duration and advances the ladder.
    #[inline]
    pub fn pause(&mut self) {
        let spins = 1u32 << self.step.min(Self::MAX_SHIFT);
        for _ in 0..spins {
            std::hint::spin_loop();
        }
        if self.step < Self::MAX_SHIFT {
            self.step += 1;
        }
    }

    /// Number of pauses performed so far.
    #[inline]
    pub fn steps(&self) -> u32 {
        self.step
    }
}

impl Default for Backoff {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturates_after_bounded_steps() {
        let mut b = Backoff::new();
        for _ in 0..Backoff::MAX_SHIFT {
            b.pause();
        }
        assert_eq!(b.steps(), Backoff::MAX_SHIFT);
        // Further pauses keep it saturated without overflowing.
        for _ in 0..4 {
            b.pause();
        }
        assert_eq!(b.steps(), Backoff::MAX_SHIFT);
    }

    #[test]
    fn steps_monotone() {
        let mut b = Backoff::new();
        let mut last = b.steps();
        for _ in 0..5 {
            b.pause();
            assert!(b.steps() >= last);
            last = b.steps();
        }
    }
}

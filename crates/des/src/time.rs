//! Virtual time with picosecond resolution.
//!
//! Picoseconds in a `u64` cover ~213 days of simulated time, far beyond any
//! experiment in this repository, while resolving single bytes on a
//! 240 GB/s memory interface (one byte ≈ 4.2 ps).

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A point in virtual time, measured in integer picoseconds since simulation
/// start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, measured in integer picoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable time; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Raw picosecond count since simulation start.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Time elapsed since an earlier instant.
    ///
    /// # Panics
    /// Panics if `earlier` is after `self` (a causality violation in the
    /// calling model).
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("SimTime::since: causality violation (earlier instant is in the future)"),
        )
    }

    /// Seconds since simulation start as a float (for statistics only; the
    /// simulation itself never depends on float time).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-12
    }

    /// Convenience: microseconds since start as a float.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 * 1e-6
    }

    /// Convenience: milliseconds since start as a float.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 * 1e-9
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from raw picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimDuration(ps)
    }

    /// Construct from integer nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns * 1_000)
    }

    /// Construct from integer microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000_000)
    }

    /// Construct from integer milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000_000)
    }

    /// Construct from float seconds, rounding to the nearest picosecond
    /// (halves away from zero). Negative or non-finite inputs are clamped
    /// to zero.
    ///
    /// The value is exactly `(secs * 1e12).round() as u64`, without the
    /// libm `round` call: below 2^52 picoseconds the truncation is exact
    /// and so is the fraction it leaves, so rounding is one compare (and
    /// the signed conversions there are single instructions on x86-64);
    /// from 2^52 up every `f64` is already an integer, and `as` saturates
    /// past `u64::MAX` just as it does after `round`.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            return SimDuration(0);
        }
        let ps = secs * 1e12;
        if ps >= (1u64 << 52) as f64 {
            return SimDuration(ps as u64);
        }
        let whole = ps as i64;
        SimDuration((whole + i64::from(ps - whole as f64 >= 0.5)) as u64)
    }

    /// Raw picosecond count.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Duration in float seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-12
    }

    /// Duration in float microseconds.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 * 1e-6
    }

    /// Duration in float milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 * 1e-9
    }

    /// Saturating integer multiplication by a count (e.g. per-item costs).
    #[inline]
    pub fn saturating_mul(self, n: u64) -> Self {
        SimDuration(self.0.saturating_mul(n))
    }

    /// Checked subtraction.
    #[inline]
    pub fn checked_sub(self, other: SimDuration) -> Option<SimDuration> {
        self.0.checked_sub(other.0).map(SimDuration)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimDuration subtraction underflow"),
        )
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}us", self.as_micros_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        let d = SimDuration::from_micros(19);
        assert_eq!(d.as_ps(), 19_000_000);
        assert!((d.as_micros_f64() - 19.0).abs() < 1e-9);
        let d2 = SimDuration::from_secs_f64(19e-6);
        assert_eq!(d, d2);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_micros(5);
        let t2 = t + SimDuration::from_nanos(500);
        assert_eq!((t2 - t).as_ps(), 500_000);
        assert_eq!(t2.since(t), SimDuration::from_nanos(500));
    }

    #[test]
    #[should_panic(expected = "causality")]
    fn since_panics_on_future() {
        let t = SimTime::from_ps(10);
        let later = SimTime::from_ps(20);
        let _ = t.since(later);
    }

    #[test]
    fn float_clamping() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_ps(1) < SimTime::from_ps(2));
        assert!(SimTime::MAX > SimTime::from_ps(u64::MAX - 1));
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_micros).sum();
        assert_eq!(total, SimDuration::from_micros(10));
    }
}

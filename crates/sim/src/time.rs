//! Simulated time: microsecond-resolution, monotone, 64-bit.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant in simulated time, microseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// Zero.
    pub const ZERO: SimTime = SimTime(0);
    /// Far future; used as "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// From secs.
    pub fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// From secs f64.
    pub fn from_secs_f64(s: f64) -> Self {
        SimTime((s * 1e6).round() as u64)
    }

    /// From millis.
    pub fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// From micros.
    pub fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// As secs f64.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// As micros.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Saturating difference `self - earlier`.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero.
    pub const ZERO: SimDuration = SimDuration(0);

    /// From secs.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// From secs f64.
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration((s * 1e6).round() as u64)
    }

    /// From millis.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// From micros.
    pub fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// As secs f64.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// As micros.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Mul f64.
    pub fn mul_f64(self, k: f64) -> Self {
        SimDuration((self.0 as f64 * k).round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, d: SimDuration) {
        self.0 = self.0.saturating_add(d.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, other: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimTime::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimTime::from_secs_f64(0.5).as_micros(), 500_000);
        assert!((SimDuration::from_secs(1).as_secs_f64() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_saturates() {
        let t = SimTime::from_secs(1) + SimDuration::from_secs(2);
        assert_eq!(t, SimTime::from_secs(3));
        assert_eq!(SimTime::ZERO - SimTime::from_secs(5), SimDuration::ZERO);
        assert_eq!(
            SimTime::from_secs(5).since(SimTime::from_secs(2)),
            SimDuration::from_secs(3)
        );
    }

    #[test]
    fn mul_f64_rounds() {
        assert_eq!(SimDuration::from_secs(10).mul_f64(0.25), SimDuration::from_secs_f64(2.5));
    }

    #[test]
    fn display() {
        assert_eq!(SimTime::from_millis(1500).to_string(), "1.500s");
    }
}

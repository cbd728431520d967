use std::error::Error;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, Neg, Sub};

/// Integer time with `±∞` sentinels.
///
/// Every timing quantity in HFTA — gate delays, arrival times, required
/// times, the entries of timing tuples — is a `Time`. The paper's
/// experiments use the unit delay model, so integer time is exact, and
/// it makes the binary search used by XBD0 delay computation terminate
/// without tolerance fiddling.
///
/// `Time::NEG_INF` encodes "stability of this input is not even
/// required" in a required-time tuple (the paper writes `∞` for the
/// required time; a delay is the *negated* required time, hence `−∞`).
/// Addition saturates at the infinities: `NEG_INF + x = NEG_INF` and
/// `POS_INF + x = POS_INF` for any finite `x`.
///
/// # Example
///
/// ```
/// use hfta_netlist::Time;
///
/// let a = Time::new(3);
/// assert_eq!(a + Time::new(4), Time::new(7));
/// assert_eq!(Time::NEG_INF + a, Time::NEG_INF);
/// assert!(Time::NEG_INF < a && a < Time::POS_INF);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(i64);

impl Time {
    /// Negative infinity: earlier than every finite time.
    pub const NEG_INF: Time = Time(i64::MIN);
    /// Positive infinity: later than every finite time.
    pub const POS_INF: Time = Time(i64::MAX);
    /// Time zero.
    pub const ZERO: Time = Time(0);

    /// Creates a finite time.
    ///
    /// # Panics
    ///
    /// Panics if `t` collides with an infinity sentinel
    /// (`i64::MIN`/`i64::MAX`), which no realistic circuit produces.
    #[must_use]
    pub fn new(t: i64) -> Time {
        assert!(
            t != i64::MIN && t != i64::MAX,
            "finite Time must not equal an infinity sentinel"
        );
        Time(t)
    }

    /// The largest magnitude of a finite time accepted from outside the
    /// program: `2^60`. An arrival and a stored timing-tuple entry of at
    /// most this size, plus a path of up to `2^30` gates of at most
    /// `u32::MAX` delay each, stay below `2^63 - 2^61`, clear of the
    /// infinity sentinels, so no sum the analyses form can wrap.
    pub const LIMIT: i64 = 1 << 60;

    /// Creates a finite time from a value read from outside the program
    /// (a command line, a request, a stored record), refusing values
    /// beyond [`Time::LIMIT`] instead of panicking or wrapping later.
    ///
    /// # Errors
    ///
    /// Returns [`TimeRangeError`] when `|t| > Time::LIMIT`.
    ///
    /// # Example
    ///
    /// ```
    /// use hfta_netlist::Time;
    ///
    /// assert_eq!(Time::checked(-7), Ok(Time::new(-7)));
    /// assert!(Time::checked(i64::MAX).is_err());
    /// ```
    pub fn checked(t: i64) -> Result<Time, TimeRangeError> {
        if (-Time::LIMIT..=Time::LIMIT).contains(&t) {
            Ok(Time(t))
        } else {
            Err(TimeRangeError(t))
        }
    }

    /// Returns `true` if this time is finite.
    #[must_use]
    pub fn is_finite(self) -> bool {
        self != Time::NEG_INF && self != Time::POS_INF
    }

    /// Returns the finite value, or `None` for `±∞`.
    #[must_use]
    pub fn finite(self) -> Option<i64> {
        if self.is_finite() {
            Some(self.0)
        } else {
            None
        }
    }

    /// Returns the raw value; infinities map to `i64::MIN`/`i64::MAX`.
    #[must_use]
    pub fn raw(self) -> i64 {
        self.0
    }

    /// Component-wise maximum.
    #[must_use]
    pub fn max(self, other: Time) -> Time {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Component-wise minimum.
    #[must_use]
    pub fn min(self, other: Time) -> Time {
        if self <= other {
            self
        } else {
            other
        }
    }
}

/// A finite time from outside the program beyond [`Time::LIMIT`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TimeRangeError(pub i64);

impl fmt::Display for TimeRangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "time {} is out of range (|t| must not exceed 2^60)",
            self.0
        )
    }
}

impl Error for TimeRangeError {}

impl Add for Time {
    type Output = Time;

    /// Saturating addition: any infinity absorbs.
    ///
    /// # Panics
    ///
    /// Panics when adding `NEG_INF + POS_INF`, which has no meaningful
    /// timing interpretation.
    fn add(self, rhs: Time) -> Time {
        match (self.is_finite(), rhs.is_finite()) {
            (true, true) => Time::new(self.0 + rhs.0),
            (false, true) => self,
            (true, false) => rhs,
            (false, false) => {
                assert_eq!(self, rhs, "cannot add opposite infinities");
                self
            }
        }
    }
}

impl Sub for Time {
    type Output = Time;

    /// Saturating subtraction (`a - b = a + (-b)`).
    fn sub(self, rhs: Time) -> Time {
        self + (-rhs)
    }
}

impl Neg for Time {
    type Output = Time;

    fn neg(self) -> Time {
        if self == Time::NEG_INF {
            Time::POS_INF
        } else if self == Time::POS_INF {
            Time::NEG_INF
        } else {
            Time(-self.0)
        }
    }
}

impl Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        iter.fold(Time::ZERO, Add::add)
    }
}

impl From<i32> for Time {
    fn from(t: i32) -> Time {
        Time::new(i64::from(t))
    }
}

impl From<u32> for Time {
    fn from(t: u32) -> Time {
        Time::new(i64::from(t))
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == Time::NEG_INF {
            f.pad("-inf")
        } else if *self == Time::POS_INF {
            f.pad("+inf")
        } else {
            f.pad(&self.0.to_string())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finite_arithmetic() {
        assert_eq!(Time::new(3) + Time::new(4), Time::new(7));
        assert_eq!(Time::new(3) - Time::new(4), Time::new(-1));
        assert_eq!(-Time::new(5), Time::new(-5));
        assert_eq!(Time::ZERO, Time::new(0));
    }

    #[test]
    fn infinities_absorb() {
        assert_eq!(Time::NEG_INF + Time::new(100), Time::NEG_INF);
        assert_eq!(Time::POS_INF + Time::new(-100), Time::POS_INF);
        assert_eq!(Time::NEG_INF + Time::NEG_INF, Time::NEG_INF);
        assert_eq!(-Time::NEG_INF, Time::POS_INF);
        assert_eq!(-Time::POS_INF, Time::NEG_INF);
    }

    #[test]
    #[should_panic(expected = "opposite infinities")]
    fn opposite_infinities_panic() {
        let _ = Time::NEG_INF + Time::POS_INF;
    }

    #[test]
    fn ordering() {
        assert!(Time::NEG_INF < Time::new(i64::MIN + 1));
        assert!(Time::new(i64::MAX - 1) < Time::POS_INF);
        assert_eq!(Time::new(2).max(Time::new(5)), Time::new(5));
        assert_eq!(Time::NEG_INF.max(Time::new(-7)), Time::new(-7));
        assert_eq!(Time::POS_INF.min(Time::new(-7)), Time::new(-7));
    }

    #[test]
    fn display() {
        assert_eq!(Time::new(12).to_string(), "12");
        assert_eq!(Time::NEG_INF.to_string(), "-inf");
        assert_eq!(Time::POS_INF.to_string(), "+inf");
    }

    #[test]
    fn sum_of_times() {
        let total: Time = [Time::new(1), Time::new(2), Time::new(3)].into_iter().sum();
        assert_eq!(total, Time::new(6));
    }

    #[test]
    fn checked_accepts_the_limit_and_refuses_beyond_it() {
        assert_eq!(Time::checked(Time::LIMIT), Ok(Time::new(Time::LIMIT)));
        assert_eq!(Time::checked(-Time::LIMIT), Ok(Time::new(-Time::LIMIT)));
        for t in [
            Time::LIMIT + 1,
            -Time::LIMIT - 1,
            i64::MAX,
            i64::MAX - 1,
            i64::MIN,
        ] {
            assert_eq!(Time::checked(t), Err(TimeRangeError(t)));
        }
        assert!(TimeRangeError(i64::MIN)
            .to_string()
            .contains("out of range"));
    }

    #[test]
    #[should_panic(expected = "sentinel")]
    fn new_rejects_sentinels() {
        let _ = Time::new(i64::MAX);
    }
}

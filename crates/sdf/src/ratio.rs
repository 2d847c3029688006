//! Exact rational arithmetic used by the throughput results and the
//! max-cycle-ratio analysis.
//!
//! The standard library has no rational type and external numeric crates are
//! out of scope for this project, so a small, always-normalized `i128`
//! implementation lives here. Values occurring in SDF analysis (port rates,
//! token counts, execution times) are small, so `i128` gives ample headroom.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// An exact rational number `num / den` with `den > 0` and `gcd(num, den) == 1`.
///
/// # Examples
///
/// ```
/// use mamps_sdf::ratio::Ratio;
///
/// let a = Ratio::new(2, 4);
/// assert_eq!(a, Ratio::new(1, 2));
/// assert_eq!(a + Ratio::new(1, 3), Ratio::new(5, 6));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ratio {
    num: i128,
    den: i128,
}

// Manual impls instead of derives: deserialization must re-normalize
// through `Ratio::new` so the `den > 0`, `gcd(num, den) == 1` invariant
// holds for any input, not just values this code emitted.
impl serde::Serialize for Ratio {
    fn to_value(&self) -> serde::Value {
        serde::Value::Seq(vec![
            serde::Value::Int(self.num),
            serde::Value::Int(self.den),
        ])
    }
}

impl<'de> serde::Deserialize<'de> for Ratio {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let seq = value
            .as_seq()
            .ok_or_else(|| serde::Error::expected("[num, den] array", "Ratio"))?;
        let [num, den] = seq else {
            return Err(serde::Error::expected("a 2-element array", "Ratio"));
        };
        let num = num
            .as_int()
            .ok_or_else(|| serde::Error::expected("integer numerator", "Ratio"))?;
        let den = den
            .as_int()
            .ok_or_else(|| serde::Error::expected("integer denominator", "Ratio"))?;
        if den == 0 {
            return Err(serde::Error::custom("Ratio denominator must be nonzero"));
        }
        Ok(Ratio::new(num, den))
    }
}

/// Greatest common divisor of two non-negative integers.
pub fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

fn gcd_i128(mut a: i128, mut b: i128) -> i128 {
    a = a.abs();
    b = b.abs();
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Ratio {
    /// The rational zero.
    pub const ZERO: Ratio = Ratio { num: 0, den: 1 };
    /// The rational one.
    pub const ONE: Ratio = Ratio { num: 1, den: 1 };

    /// Creates a new ratio, normalizing sign and common factors.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Ratio {
        assert!(den != 0, "ratio denominator must be non-zero");
        let sign = if den < 0 { -1 } else { 1 };
        let g = gcd_i128(num, den).max(1);
        Ratio {
            num: sign * num / g,
            den: sign * den / g,
        }
    }

    /// Creates a ratio from an integer.
    pub fn from_int(v: i128) -> Ratio {
        Ratio { num: v, den: 1 }
    }

    /// Numerator (after normalization; carries the sign).
    pub fn numer(&self) -> i128 {
        self.num
    }

    /// Denominator (always positive).
    pub fn denom(&self) -> i128 {
        self.den
    }

    /// Returns the value as an `f64` (possibly losing precision).
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Returns the multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero.
    pub fn recip(&self) -> Ratio {
        assert!(self.num != 0, "cannot invert zero");
        Ratio::new(self.den, self.num)
    }

    /// True if the value is exactly zero.
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// True if the value is an integer.
    pub fn is_integer(&self) -> bool {
        self.den == 1
    }
}

impl Default for Ratio {
    fn default() -> Self {
        Ratio::ZERO
    }
}

impl Add for Ratio {
    type Output = Ratio;
    fn add(self, rhs: Ratio) -> Ratio {
        Ratio::new(self.num * rhs.den + rhs.num * self.den, self.den * rhs.den)
    }
}

impl Sub for Ratio {
    type Output = Ratio;
    fn sub(self, rhs: Ratio) -> Ratio {
        Ratio::new(self.num * rhs.den - rhs.num * self.den, self.den * rhs.den)
    }
}

impl Mul for Ratio {
    type Output = Ratio;
    fn mul(self, rhs: Ratio) -> Ratio {
        Ratio::new(self.num * rhs.num, self.den * rhs.den)
    }
}

impl Div for Ratio {
    type Output = Ratio;
    fn div(self, rhs: Ratio) -> Ratio {
        assert!(rhs.num != 0, "division by zero ratio");
        Ratio::new(self.num * rhs.den, self.den * rhs.num)
    }
}

impl Neg for Ratio {
    type Output = Ratio;
    fn neg(self) -> Ratio {
        Ratio {
            num: -self.num,
            den: self.den,
        }
    }
}

impl PartialOrd for Ratio {
    fn partial_cmp(&self, other: &Ratio) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ratio {
    fn cmp(&self, other: &Ratio) -> Ordering {
        // Denominators are positive, so cross-multiplication preserves order.
        (self.num * other.den).cmp(&(other.num * self.den))
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization() {
        assert_eq!(Ratio::new(2, 4), Ratio::new(1, 2));
        assert_eq!(Ratio::new(-2, -4), Ratio::new(1, 2));
        assert_eq!(Ratio::new(2, -4), Ratio::new(-1, 2));
        assert_eq!(Ratio::new(0, 5), Ratio::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = Ratio::new(1, 2);
        let b = Ratio::new(1, 3);
        assert_eq!(a + b, Ratio::new(5, 6));
        assert_eq!(a - b, Ratio::new(1, 6));
        assert_eq!(a * b, Ratio::new(1, 6));
        assert_eq!(a / b, Ratio::new(3, 2));
        assert_eq!(-a, Ratio::new(-1, 2));
    }

    #[test]
    fn ordering() {
        assert!(Ratio::new(1, 3) < Ratio::new(1, 2));
        assert!(Ratio::new(-1, 2) < Ratio::ZERO);
        assert!(Ratio::new(7, 7) == Ratio::ONE);
    }

    #[test]
    fn recip_and_predicates() {
        assert_eq!(Ratio::new(2, 3).recip(), Ratio::new(3, 2));
        assert!(Ratio::from_int(4).is_integer());
        assert!(!Ratio::new(1, 2).is_integer());
        assert!(Ratio::ZERO.is_zero());
    }

    #[test]
    #[should_panic(expected = "denominator")]
    fn zero_denominator_panics() {
        let _ = Ratio::new(1, 0);
    }

    #[test]
    fn gcd_of_pairs() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(0, 5), 5);
    }

    #[test]
    fn display() {
        assert_eq!(Ratio::new(3, 6).to_string(), "1/2");
        assert_eq!(Ratio::from_int(7).to_string(), "7");
    }
}

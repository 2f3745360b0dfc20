//! Minimal complex arithmetic (f64), implemented in-crate to avoid an
//! external dependency.

use std::ops::{Add, Div, Mul, Neg, Sub};

/// A complex number with `f64` components.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Creates `re + im·i`.
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// The additive identity.
    pub const ZERO: Complex = Complex::new(0.0, 0.0);

    /// The multiplicative identity.
    pub const ONE: Complex = Complex::new(1.0, 0.0);

    /// A purely real number.
    pub const fn real(re: f64) -> Self {
        Complex::new(re, 0.0)
    }

    /// Constructs from polar coordinates.
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Complex::new(r * theta.cos(), r * theta.sin())
    }

    /// Magnitude `|z|`.
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude.
    pub fn abs_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Argument (phase angle) in `(-π, π]`.
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Integer power by repeated squaring.
    pub fn powi(self, mut n: u32) -> Self {
        let mut base = self;
        let mut acc = Complex::ONE;
        while n > 0 {
            if n & 1 == 1 {
                acc = acc * base;
            }
            base = base * base;
            n >>= 1;
        }
        acc
    }

    /// Whether both components are finite.
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(self.re * rhs.re - self.im * rhs.im, self.re * rhs.im + self.im * rhs.re)
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    fn mul(self, rhs: f64) -> Complex {
        Complex::new(self.re * rhs, self.im * rhs)
    }
}

impl Div for Complex {
    type Output = Complex;
    fn div(self, rhs: Complex) -> Complex {
        let d = rhs.abs_sq();
        Complex::new(
            (self.re * rhs.re + self.im * rhs.im) / d,
            (self.im * rhs.re - self.re * rhs.im) / d,
        )
    }
}

impl Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_identities() {
        let z = Complex::new(3.0, -4.0);
        assert_eq!(z + Complex::ZERO, z);
        assert_eq!(z * Complex::ONE, z);
        assert_eq!(z - z, Complex::ZERO);
        assert_eq!(z.abs(), 5.0);
        assert_eq!(z.abs_sq(), 25.0);
    }

    #[test]
    fn multiplication_and_division_inverse() {
        let a = Complex::new(1.5, 2.0);
        let b = Complex::new(-0.5, 3.0);
        let c = a * b / b;
        assert!((c - a).abs() < 1e-12);
    }

    #[test]
    fn i_squared_is_minus_one() {
        let i = Complex::new(0.0, 1.0);
        assert_eq!(i * i, Complex::new(-1.0, 0.0));
    }

    #[test]
    fn polar_roundtrip() {
        let z = Complex::from_polar(2.0, std::f64::consts::FRAC_PI_3);
        assert!((z.abs() - 2.0).abs() < 1e-12);
        assert!((z.arg() - std::f64::consts::FRAC_PI_3).abs() < 1e-12);
    }

    #[test]
    fn powi_matches_repeated_multiplication() {
        let z = Complex::new(0.8, 0.3);
        let mut acc = Complex::ONE;
        for n in 0..10u32 {
            assert!((z.powi(n) - acc).abs() < 1e-12, "n = {n}");
            acc = acc * z;
        }
    }

    #[test]
    fn roots_of_unity() {
        // (e^{2πi/5})^5 == 1.
        let w = Complex::from_polar(1.0, std::f64::consts::TAU / 5.0);
        assert!((w.powi(5) - Complex::ONE).abs() < 1e-12);
    }
}

//! Real-coefficient polynomials with complex root finding
//! (Aberth–Ehrlich method).

use crate::complex::Complex;

/// A polynomial with real `f64` coefficients, stored ascending:
/// `coeffs[k]` multiplies `ωᵏ`.
#[derive(Clone, Debug, PartialEq)]
pub struct Polynomial {
    coeffs: Vec<f64>,
}

impl Polynomial {
    /// Creates a polynomial from ascending coefficients, trimming trailing
    /// (highest-degree) zeros.
    ///
    /// # Panics
    ///
    /// Panics if all coefficients are zero (the zero polynomial has no
    /// well-defined degree/roots).
    pub fn new(mut coeffs: Vec<f64>) -> Self {
        while coeffs.len() > 1 && coeffs.last() == Some(&0.0) {
            coeffs.pop();
        }
        assert!(coeffs.iter().any(|&c| c != 0.0), "the zero polynomial has no roots");
        Polynomial { coeffs }
    }

    /// Builds a polynomial from sparse `(power, coefficient)` terms.
    pub fn from_terms(terms: &[(usize, f64)]) -> Self {
        let deg = terms.iter().map(|&(p, _)| p).max().unwrap_or(0);
        let mut coeffs = vec![0.0; deg + 1];
        for &(p, c) in terms {
            coeffs[p] += c;
        }
        Polynomial::new(coeffs)
    }

    /// Degree of the polynomial.
    pub fn degree(&self) -> usize {
        self.coeffs.len() - 1
    }

    /// Ascending coefficients.
    pub fn coeffs(&self) -> &[f64] {
        &self.coeffs
    }

    /// Evaluates at a complex point (Horner's method).
    pub fn eval(&self, z: Complex) -> Complex {
        let mut acc = Complex::ZERO;
        for &c in self.coeffs.iter().rev() {
            acc = acc * z + Complex::real(c);
        }
        acc
    }

    /// The formal derivative.
    pub fn derivative(&self) -> Polynomial {
        if self.coeffs.len() == 1 {
            return Polynomial { coeffs: vec![0.0] };
        }
        let coeffs = self.coeffs.iter().enumerate().skip(1).map(|(k, &c)| k as f64 * c).collect();
        Polynomial { coeffs }
    }

    /// All complex roots, found by the Aberth–Ehrlich method.
    ///
    /// Roots at zero (trailing low-order zero coefficients) are factored
    /// out exactly first. Accuracy is roughly `1e-10` on well-conditioned
    /// polynomials; clustered/multiple roots are returned with reduced
    /// accuracy, which is fine for spectral-radius use.
    pub fn roots(&self) -> Vec<Complex> {
        // Factor out roots at zero.
        let zeros_at_origin = self.coeffs.iter().take_while(|&&c| c == 0.0).count();
        let mut roots = vec![Complex::ZERO; zeros_at_origin];
        let reduced: Vec<f64> = self.coeffs[zeros_at_origin..].to_vec();
        if reduced.len() <= 1 {
            return roots;
        }
        let p = Polynomial { coeffs: reduced };
        let dp = p.derivative();
        let n = p.degree();
        // Cauchy bound on root magnitudes.
        let lead = *p.coeffs.last().unwrap();
        let bound = 1.0 + p.coeffs[..n].iter().map(|c| (c / lead).abs()).fold(0.0f64, f64::max);
        // Initial guesses: points on a circle of radius ~bound/2 with an
        // irrational angular offset to break symmetry.
        let mut z: Vec<Complex> = (0..n)
            .map(|k| {
                Complex::from_polar(0.5 * bound, std::f64::consts::TAU * k as f64 / n as f64 + 0.4)
            })
            .collect();
        for _iter in 0..200 {
            let mut max_step = 0.0f64;
            let snapshot = z.clone();
            for k in 0..n {
                let pz = p.eval(snapshot[k]);
                let dpz = dp.eval(snapshot[k]);
                if pz.abs() < 1e-14 {
                    continue;
                }
                let w = if dpz.abs() < 1e-300 { Complex::new(1e-6, 1e-6) } else { pz / dpz };
                let mut sum = Complex::ZERO;
                for (j, &zj) in snapshot.iter().enumerate() {
                    if j != k {
                        let diff = snapshot[k] - zj;
                        if diff.abs() > 1e-300 {
                            sum = sum + Complex::ONE / diff;
                        }
                    }
                }
                let denom = Complex::ONE - w * sum;
                let step = if denom.abs() < 1e-300 { w } else { w / denom };
                z[k] = snapshot[k] - step;
                max_step = max_step.max(step.abs());
            }
            if max_step < 1e-13 {
                break;
            }
        }
        roots.extend(z);
        roots
    }
}

/// The largest root magnitude of `p` — the spectral radius of the
/// companion matrix whose characteristic polynomial is `p`.
pub fn spectral_radius(p: &Polynomial) -> f64 {
    p.roots().iter().map(|r| r.abs()).fold(0.0, f64::max)
}

#[cfg(test)]
impl Polynomial {
    /// Evaluates at a real point: the tests' check of roots and
    /// derivatives.
    pub(crate) fn eval_real(&self, x: f64) -> f64 {
        self.coeffs.iter().rev().fold(0.0, |acc, &c| acc * x + c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted_real_roots(p: &Polynomial) -> Vec<f64> {
        let mut r: Vec<f64> =
            p.roots().iter().filter(|z| z.im.abs() < 1e-6).map(|z| z.re).collect();
        r.sort_by(|a, b| a.partial_cmp(b).unwrap());
        r
    }

    #[test]
    fn eval_and_derivative() {
        // p(x) = 1 + 2x + 3x^2
        let p = Polynomial::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(p.eval_real(2.0), 17.0);
        assert_eq!(p.derivative().coeffs(), &[2.0, 6.0]);
        let z = Complex::new(1.0, 1.0);
        // p(1+i) = 1 + 2(1+i) + 3(1+i)^2 = 1 + 2 + 2i + 3*2i = 3 + 8i
        let v = p.eval(z);
        assert!((v - Complex::new(3.0, 8.0)).abs() < 1e-12);
    }

    #[test]
    fn quadratic_roots() {
        // (x - 1)(x - 3) = 3 - 4x + x^2
        let p = Polynomial::new(vec![3.0, -4.0, 1.0]);
        let r = sorted_real_roots(&p);
        assert_eq!(r.len(), 2);
        assert!((r[0] - 1.0).abs() < 1e-9);
        assert!((r[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn complex_conjugate_pair() {
        // x^2 + 1: roots ±i.
        let p = Polynomial::new(vec![1.0, 0.0, 1.0]);
        let roots = p.roots();
        assert_eq!(roots.len(), 2);
        for r in &roots {
            assert!((r.abs() - 1.0).abs() < 1e-9);
            assert!(r.re.abs() < 1e-9);
        }
    }

    #[test]
    fn roots_at_origin_factored_exactly() {
        // x^3 (x - 2): roots {0, 0, 0, 2}.
        let p = Polynomial::from_terms(&[(4, 1.0), (3, -2.0)]);
        let roots = p.roots();
        let zeros = roots.iter().filter(|z| z.abs() == 0.0).count();
        assert_eq!(zeros, 3);
        assert!(roots.iter().any(|z| (z.re - 2.0).abs() < 1e-9 && z.im.abs() < 1e-9));
    }

    #[test]
    fn high_degree_roots_of_unity() {
        // x^20 - 1: all roots on the unit circle.
        let p = Polynomial::from_terms(&[(20, 1.0), (0, -1.0)]);
        let roots = p.roots();
        assert_eq!(roots.len(), 20);
        for r in &roots {
            assert!((r.abs() - 1.0).abs() < 1e-8, "|{r:?}| = {}", r.abs());
            assert!(p.eval(*r).abs() < 1e-8);
        }
        assert!((spectral_radius(&p) - 1.0).abs() < 1e-8);
    }

    #[test]
    fn spectral_radius_of_scaled_roots() {
        // (x - 0.5)(x - 0.25)(x + 0.9): radius 0.9.
        let mut coeffs = vec![1.0f64];
        for root in [0.5, 0.25, -0.9] {
            // multiply by (x - root)
            let mut next = vec![0.0; coeffs.len() + 1];
            for (i, &c) in coeffs.iter().enumerate() {
                next[i + 1] += c;
                next[i] -= root * c;
            }
            coeffs = next;
        }
        let p = Polynomial::new(coeffs);
        assert!((spectral_radius(&p) - 0.9).abs() < 1e-9);
    }

    #[test]
    fn from_terms_accumulates() {
        let p = Polynomial::from_terms(&[(1, 2.0), (1, 3.0), (0, 1.0)]);
        assert_eq!(p.coeffs(), &[1.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "zero polynomial")]
    fn zero_polynomial_rejected() {
        Polynomial::new(vec![0.0, 0.0]);
    }

    #[test]
    fn residuals_small_on_companion_like_poly() {
        // The paper's basic characteristic polynomial at a moderate delay.
        // p(w) = w^{τ+1} - w^τ + αλ with τ = 30.
        let tau = 30;
        let p = Polynomial::from_terms(&[(tau + 1, 1.0), (tau, -1.0), (0, 0.01)]);
        let roots = p.roots();
        assert_eq!(roots.len(), tau + 1);
        for r in &roots {
            assert!(p.eval(*r).abs() < 1e-7, "residual {} at {r:?}", p.eval(*r).abs());
        }
    }
}

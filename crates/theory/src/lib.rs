//! Theory toolkit for the PipeMare quadratic-model analysis (§3, App. B/D),
//! plus the pipeline's closed forms in [`delays`]: Table 1's forward delay
//! in slots, App. D's recompute delay and the GPipe bubble fraction.
//!
//! Everything else operates on the paper's one-dimensional quadratic
//! objective `f(w) = λ/2 · w²` trained with fixed-delay asynchronous SGD:
//!
//! * [`quadratic`]: direct simulators of the delayed recurrences (Eq. 2,
//!   the discrepancy model of §3.2, the momentum model of App. B.3, the
//!   T2-corrected update, and the recompute model of App. D).
//! * [`companion`]: the characteristic polynomials of the associated
//!   companion matrices, whose root magnitudes decide stability.
//! * [`poly`]: complex polynomial root finding (Aberth–Ehrlich) and
//!   spectral-radius computation, built on [`complex::Complex`].
//! * [`bounds`]: the closed-form stability bounds of Lemmas 1–3 and the
//!   T2 decay constants (`γ* = 1 − 2/(τ_f − τ_b + 1)`, `D ≈ e⁻²`).
//! * [`stability`]: numerical search for the largest stable step size of
//!   any parameterized characteristic polynomial (used by Figures 5(b),
//!   8, and 16).

pub mod bounds;
pub mod companion;
pub mod complex;
pub mod delays;
pub mod poly;
pub mod quadratic;
pub mod stability;

pub use bounds::{
    d_default, gamma_from_d, gamma_star, lemma1_double_root_alpha, lemma1_max_alpha,
    lemma1_max_alpha_frac, lemma2_max_alpha, lemma3_max_alpha,
};
pub use companion::{
    char_poly_basic, char_poly_discrepancy, char_poly_momentum, char_poly_recompute, char_poly_t2,
};
pub use complex::Complex;
pub use delays::{delay_slots, gpipe_bubble_fraction, recomp_delay_slots};
pub use poly::{spectral_radius, Polynomial};
pub use quadratic::{QuadraticSim, RecomputeModel, SimResult};
pub use stability::{
    lemma1_alpha_margin, max_stable_alpha, quantized_secant_denominator, t2_alpha_margin,
    t2_max_alpha,
};

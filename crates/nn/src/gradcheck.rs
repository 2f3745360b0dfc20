//! Finite-difference gradient checking used by tests across the workspace.

use rand::rngs::StdRng;
use rand::SeedableRng;

use pipemare_tensor::Tensor;

use crate::layer::Layer;

/// Initializes a fresh parameter vector for `layer`.
pub fn init_layer(layer: &dyn Layer, rng: &mut StdRng) -> Vec<f32> {
    let mut p = vec![0.0f32; layer.param_len()];
    layer.init_params(&mut p, rng);
    p
}

/// Scalar loss used by the checks: `0.5 * Σ y²`, whose gradient w.r.t. `y`
/// is simply `y`.
fn half_sq(y: &Tensor) -> f32 {
    0.5 * y.sq_norm()
}

/// Checks `layer`'s analytic gradients (both `dx` and `dparams`) against
/// central finite differences on the loss `0.5‖forward(x)‖²`.
///
/// `rel_tol` is a relative tolerance on each coordinate (with an absolute
/// floor of `1e-3` to absorb f32 noise near zero).
///
/// # Panics
///
/// Panics (test-style) on any mismatching coordinate.
pub fn check_layer_gradients(layer: &dyn Layer, input_shape: &[usize], seed: u64, rel_tol: f32) {
    let mut rng = StdRng::seed_from_u64(seed);
    let params = init_layer(layer, &mut rng);
    let x = Tensor::randn(input_shape, &mut rng);

    let (y, cache) = layer.forward(&params, &x);
    let dy = y.clone(); // d(half_sq)/dy = y
    let (dx, dp) = layer.backward(&params, &cache, &dy);

    let eps = 1e-2f32;
    // Check input gradient on a subset of coordinates (all if small).
    let n_check = x.len().min(24);
    let stride = (x.len() / n_check).max(1);
    for ci in (0..x.len()).step_by(stride).take(n_check) {
        let mut xp = x.clone();
        xp.data_mut()[ci] += eps;
        let mut xm = x.clone();
        xm.data_mut()[ci] -= eps;
        let fp = half_sq(&layer.forward_no_cache(&params, &xp));
        let fm = half_sq(&layer.forward_no_cache(&params, &xm));
        let num = (fp - fm) / (2.0 * eps);
        let ana = dx.data()[ci];
        let tol = 1e-3f32.max(rel_tol * num.abs().max(ana.abs()));
        assert!(
            (num - ana).abs() <= tol,
            "input grad mismatch at {ci}: numeric {num} vs analytic {ana} (tol {tol})"
        );
    }
    // Check parameter gradient on a subset of coordinates.
    if !params.is_empty() {
        let n_check = params.len().min(24);
        let stride = (params.len() / n_check).max(1);
        for ci in (0..params.len()).step_by(stride).take(n_check) {
            let mut pp = params.clone();
            pp[ci] += eps;
            let mut pm = params.clone();
            pm[ci] -= eps;
            let fp = half_sq(&layer.forward_no_cache(&pp, &x));
            let fm = half_sq(&layer.forward_no_cache(&pm, &x));
            let num = (fp - fm) / (2.0 * eps);
            let ana = dp[ci];
            let tol = 1e-3f32.max(rel_tol * num.abs().max(ana.abs()));
            assert!(
                (num - ana).abs() <= tol,
                "param grad mismatch at {ci}: numeric {num} vs analytic {ana} (tol {tol})"
            );
        }
    }
}

#[cfg(test)]
/// Checks an arbitrary scalar-valued function's gradient against central
/// finite differences at `point`.
///
/// `f` maps a parameter vector to a scalar loss; `grad` is the analytic
/// gradient at `point`. A random subset of up to `max_coords` coordinates
/// is checked.
pub(crate) fn check_scalar_fn_gradient(
    f: &mut dyn FnMut(&[f32]) -> f32,
    point: &[f32],
    grad: &[f32],
    eps: f32,
    rel_tol: f32,
    max_coords: usize,
) {
    assert_eq!(point.len(), grad.len());
    let n_check = point.len().min(max_coords);
    let stride = (point.len() / n_check).max(1);
    for ci in (0..point.len()).step_by(stride).take(n_check) {
        let mut pp = point.to_vec();
        pp[ci] += eps;
        let mut pm = point.to_vec();
        pm[ci] -= eps;
        let num = (f(&pp) - f(&pm)) / (2.0 * eps);
        let ana = grad[ci];
        let tol = 2e-3f32.max(rel_tol * num.abs().max(ana.abs()));
        assert!(
            (num - ana).abs() <= tol,
            "grad mismatch at {ci}: numeric {num} vs analytic {ana} (tol {tol})"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_fn_check_accepts_correct_gradient() {
        // f(p) = p0^2 + 3 p1, grad = [2 p0, 3]
        let point = [1.5f32, -2.0];
        let grad = [3.0f32, 3.0];
        check_scalar_fn_gradient(&mut |p| p[0] * p[0] + 3.0 * p[1], &point, &grad, 1e-3, 1e-2, 8);
    }

    #[test]
    #[should_panic(expected = "grad mismatch")]
    fn scalar_fn_check_rejects_wrong_gradient() {
        let point = [1.5f32, -2.0];
        let wrong = [0.0f32, 0.0];
        check_scalar_fn_gradient(&mut |p| p[0] * p[0] + 3.0 * p[1], &point, &wrong, 1e-3, 1e-2, 8);
    }
}

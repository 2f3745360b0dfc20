//! Loss functions: softmax cross-entropy and mean squared error.
//!
//! Losses return the scalar loss together with the gradient w.r.t. their
//! input, so model backward passes can start directly from `dlogits`.

use pipemare_tensor::{StoragePrecision, Tensor};

use crate::{Cache, Layer, Sequential};

/// Configuration for softmax cross-entropy.
#[derive(Clone, Copy, Debug)]
pub struct CrossEntropyCfg {
    /// Label-smoothing mass spread uniformly over the vocabulary
    /// (`0.0` disables smoothing; the Transformer experiments use `0.1`).
    pub label_smoothing: f32,
    /// Target ids equal to this value are ignored (no loss, no gradient).
    /// Used for padding in sequence tasks.
    pub ignore_index: Option<usize>,
}

impl Default for CrossEntropyCfg {
    fn default() -> Self {
        CrossEntropyCfg { label_smoothing: 0.0, ignore_index: None }
    }
}

/// Softmax cross-entropy over logits `(R, V)` with integer targets.
///
/// Returns `(mean_loss, dlogits)` where the gradient is already averaged
/// over the counted (non-ignored) rows. With label smoothing `ε`, the
/// target distribution is `(1-ε)·onehot + ε/V`.
///
/// # Panics
///
/// Panics if `logits` is not 2-D, `targets.len()` differs from the number
/// of rows, or any counted target id is out of range.
pub fn cross_entropy_logits(
    logits: &Tensor,
    targets: &[usize],
    cfg: CrossEntropyCfg,
) -> (f32, Tensor) {
    assert_eq!(logits.ndim(), 2, "cross_entropy: logits must be (R, V)");
    let (rows, v) = (logits.shape()[0], logits.shape()[1]);
    assert_eq!(targets.len(), rows, "cross_entropy: {} targets for {rows} rows", targets.len());
    let log_p = logits.log_softmax_last();
    let eps = cfg.label_smoothing;
    let mut dlogits = Tensor::zeros(&[rows, v]);
    let mut loss = 0.0f64;
    let mut counted = 0usize;
    for (r, &t) in targets.iter().enumerate() {
        if Some(t) == cfg.ignore_index {
            continue;
        }
        assert!(t < v, "cross_entropy: target {t} out of range (V = {v})");
        counted += 1;
        let lp = &log_p.data()[r * v..(r + 1) * v];
        // loss = -(1-eps) log p_t - (eps/V) sum_v log p_v
        let mut row_loss = -(1.0 - eps) * lp[t];
        if eps > 0.0 {
            row_loss -= eps / v as f32 * lp.iter().sum::<f32>();
        }
        loss += row_loss as f64;
        // dlogits = p - q
        for (j, &lpj) in lp.iter().enumerate() {
            let p = lpj.exp();
            let q = if j == t { 1.0 - eps + eps / v as f32 } else { eps / v as f32 };
            dlogits.data_mut()[r * v + j] = p - q;
        }
    }
    if counted == 0 {
        return (0.0, dlogits);
    }
    let scale = 1.0 / counted as f32;
    dlogits.map_inplace(|g| g * scale);
    ((loss / counted as f64) as f32, dlogits)
}

/// The one loss body of the chain classifiers ([`crate::Mlp`],
/// [`crate::CifarResNet`]): `chain` on `x`, checkpointed as `(segment,
/// stash)` if `recompute` is set, then mean cross-entropy against `labels`.
pub(crate) fn chain_xent_forward(
    chain: &Sequential,
    params: &[f32],
    x: &Tensor,
    labels: &[usize],
    recompute: Option<(usize, StoragePrecision)>,
) -> (f32, Cache) {
    let (logits, chain_cache) = match recompute {
        Some((segment, stash)) => chain.forward_checkpointed_with(params, x, segment, stash),
        None => chain.forward(params, x),
    };
    let (loss, dlogits) = cross_entropy_logits(&logits, labels, CrossEntropyCfg::default());
    (loss, Cache { tensors: vec![dlogits], children: vec![chain_cache], ..Cache::new() })
}

/// Parameter gradient for a [`chain_xent_forward`] cache, the one vector
/// it allocates: every layer writes into it, and the first computes no
/// input gradient. A checkpointed chain cache records its segment size in
/// `indices`; a plain one never.
pub(crate) fn chain_xent_backward(chain: &Sequential, params: &[f32], cache: &Cache) -> Vec<f32> {
    let (chain_cache, dlogits) = (cache.child(0), cache.tensor(0));
    let mut grads = vec![0.0f32; chain.param_len()];
    if chain_cache.indices.is_empty() {
        chain.param_grads_into(params, chain_cache, dlogits, &mut grads);
    } else {
        chain.recomputed_into(params, params, chain_cache, dlogits, &mut grads, false);
    }
    grads
}

/// Mean squared error `mean((pred - target)²)` with gradient
/// `2 (pred - target) / n`.
///
/// # Panics
///
/// Panics if shapes differ.
pub fn mse_loss(pred: &Tensor, target: &Tensor) -> (f32, Tensor) {
    assert_eq!(pred.shape(), target.shape(), "mse_loss: shape mismatch");
    let n = pred.len() as f32;
    let diff = pred.sub(target);
    let loss = diff.sq_norm() / n;
    let grad = diff.scale(2.0 / n);
    (loss, grad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_scalar_fn_gradient;
    use pipemare_conv_oracle::assert_close;

    #[test]
    fn uniform_logits_give_log_v() {
        let logits = Tensor::zeros(&[2, 4]);
        let (loss, _) = cross_entropy_logits(&logits, &[0, 3], CrossEntropyCfg::default());
        assert!((loss - 4f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn perfect_prediction_loss_near_zero() {
        let mut logits = Tensor::zeros(&[1, 3]);
        logits.data_mut()[1] = 50.0;
        let (loss, _) = cross_entropy_logits(&logits, &[1], CrossEntropyCfg::default());
        assert!(loss < 1e-4);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let logits = vec![0.5f32, -1.0, 2.0, 0.1, 0.3, -0.2];
        let targets = [2usize, 0];
        let cfg = CrossEntropyCfg { label_smoothing: 0.1, ignore_index: None };
        let t = Tensor::from_vec(logits.clone(), &[2, 3]);
        let (_, grad) = cross_entropy_logits(&t, &targets, cfg);
        check_scalar_fn_gradient(
            &mut |p| cross_entropy_logits(&Tensor::from_vec(p.to_vec(), &[2, 3]), &targets, cfg).0,
            &logits,
            grad.data(),
            1e-3,
            2e-2,
            6,
        );
    }

    #[test]
    fn ignore_index_masks_rows() {
        let logits = Tensor::from_vec(vec![1.0, -1.0, 3.0, 0.0], &[2, 2]);
        let cfg = CrossEntropyCfg { label_smoothing: 0.0, ignore_index: Some(0) };
        let (loss, grad) = cross_entropy_logits(&logits, &[1, 0], cfg);
        // Second row ignored: zero gradient there.
        assert_eq!(&grad.data()[2..], &[0.0, 0.0]);
        // Loss equals the single-row loss.
        let (loss_single, _) =
            cross_entropy_logits(&logits.slice0(0, 1), &[1], CrossEntropyCfg::default());
        assert!((loss - loss_single).abs() < 1e-6);
    }

    #[test]
    fn all_ignored_returns_zero() {
        let logits = Tensor::full(&[2, 3], 1.0);
        let cfg = CrossEntropyCfg { label_smoothing: 0.0, ignore_index: Some(9) };
        let (loss, grad) = cross_entropy_logits(&logits, &[9, 9], cfg);
        assert_eq!(loss, 0.0);
        assert!(grad.data().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        // Softmax CE gradient rows sum to zero (p and q both sum to 1).
        let logits = Tensor::from_vec(vec![0.2, 1.4, -0.7, 0.9, 0.0, 0.1], &[2, 3]);
        let (_, grad) = cross_entropy_logits(
            &logits,
            &[0, 2],
            CrossEntropyCfg { label_smoothing: 0.1, ignore_index: None },
        );
        for r in 0..2 {
            let s: f32 = grad.data()[r * 3..(r + 1) * 3].iter().sum();
            assert!(s.abs() < 1e-6, "row {r} sums to {s}");
        }
    }

    #[test]
    fn mse_basics() {
        let pred = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let target = Tensor::from_vec(vec![0.0, 0.0], &[2]);
        let (loss, grad) = mse_loss(&pred, &target);
        assert!((loss - 2.5).abs() < 1e-6);
        assert_close(grad.data(), &[1.0, 2.0], 1e-6, 1e-6);
    }
}

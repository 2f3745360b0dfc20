//! First-order optimizers with per-range stepping.

/// Which update rule an [`Optimizer`] applies.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum OptimizerKind {
    /// Plain stochastic gradient descent.
    Sgd {
        /// L2 regularization coefficient (coupled; added to the gradient).
        weight_decay: f32,
    },
    /// SGD with (heavy-ball) momentum: `v ← βv + g; w ← w − αv`.
    Momentum {
        /// Momentum coefficient β.
        beta: f32,
        /// L2 regularization coefficient (coupled).
        weight_decay: f32,
    },
    /// Adam (Kingma & Ba 2015) with bias correction.
    Adam {
        /// First-moment decay β₁.
        beta1: f32,
        /// Second-moment decay β₂.
        beta2: f32,
        /// Numerical-stability constant.
        eps: f32,
    },
    /// AdamW: Adam with decoupled weight decay (the Transformer recipe).
    AdamW {
        /// First-moment decay β₁.
        beta1: f32,
        /// Second-moment decay β₂.
        beta2: f32,
        /// Numerical-stability constant.
        eps: f32,
        /// Decoupled weight-decay coefficient.
        weight_decay: f32,
    },
}

impl OptimizerKind {
    /// The ResNet recipe from the paper (momentum 0.9; weight decay is
    /// dataset-specific, see Table 6).
    pub fn resnet_momentum(weight_decay: f32) -> Self {
        OptimizerKind::Momentum { beta: 0.9, weight_decay }
    }

    /// The Transformer recipe from the paper (AdamW, β = (0.9, 0.98),
    /// Table 7).
    pub fn transformer_adamw(weight_decay: f32) -> Self {
        OptimizerKind::AdamW { beta1: 0.9, beta2: 0.98, eps: 1e-8, weight_decay }
    }
}

/// A flat-vector optimizer supporting per-range steps.
///
/// The trainer calls [`Optimizer::begin_step`] once per optimizer step and
/// then [`Optimizer::step_range`] for each pipeline stage with that
/// stage's learning rate (PipeMare T1 gives every stage a different
/// rate), or [`Optimizer::step_chunk`] for each chunk of a range that
/// arrives piece by piece. [`Optimizer::step`] is the whole-vector
/// convenience wrapper.
#[derive(Clone, Debug)]
pub struct Optimizer {
    kind: OptimizerKind,
    /// First state buffer (momentum `v` or Adam `m`).
    m: Vec<f32>,
    /// Second state buffer (Adam `v`).
    v: Vec<f32>,
    /// Completed optimizer steps (for Adam bias correction).
    t: usize,
}

impl Optimizer {
    /// Creates an optimizer for `n` parameters.
    pub fn new(kind: OptimizerKind, n: usize) -> Self {
        let (need_m, need_v) = match kind {
            OptimizerKind::Sgd { .. } => (false, false),
            OptimizerKind::Momentum { .. } => (true, false),
            OptimizerKind::Adam { .. } | OptimizerKind::AdamW { .. } => (true, true),
        };
        Optimizer {
            kind,
            m: if need_m { vec![0.0; n] } else { Vec::new() },
            v: if need_v { vec![0.0; n] } else { Vec::new() },
            t: 0,
        }
    }

    /// The update rule in use.
    pub fn kind(&self) -> OptimizerKind {
        self.kind
    }

    /// Completed optimizer steps.
    pub fn steps(&self) -> usize {
        self.t
    }

    /// Advances the step counter; call once before the `step_range` calls
    /// of an optimizer step.
    pub fn begin_step(&mut self) {
        self.t += 1;
    }

    /// Applies the update to `params[lo..hi]` using `grads[lo..hi]` at
    /// learning rate `lr`: [`Optimizer::step_chunk`] over that range.
    ///
    /// # Panics
    ///
    /// As [`Optimizer::step_chunk`], or if the range is out of bounds.
    pub fn step_range(&mut self, params: &mut [f32], grads: &[f32], lo: usize, hi: usize, lr: f32) {
        self.step_chunk(&mut params[lo..hi], &grads[lo..hi], lo, lr);
    }

    /// Applies the update to one contiguous chunk of the parameters:
    /// `params` and `grads` hold the chunk's values, and `offset` is
    /// where the chunk starts in the optimizer's moment buffers. Every
    /// update rule is elementwise, so any split of a range into chunks
    /// gives bit-identical parameters and moments.
    ///
    /// # Panics
    ///
    /// Panics if `begin_step` has never been called, the two slices
    /// differ in length, or the chunk runs past the moment buffers.
    pub fn step_chunk(&mut self, params: &mut [f32], grads: &[f32], offset: usize, lr: f32) {
        assert!(self.t > 0, "call begin_step() before step_chunk()");
        assert_eq!(params.len(), grads.len(), "step_chunk: params/grads length mismatch");
        let range = offset..offset + params.len();
        match self.kind {
            OptimizerKind::Sgd { weight_decay } => {
                for (p, &g) in params.iter_mut().zip(grads) {
                    let g = g + weight_decay * *p;
                    *p -= lr * g;
                }
            }
            OptimizerKind::Momentum { beta, weight_decay } => {
                for ((p, &g), m) in params.iter_mut().zip(grads).zip(&mut self.m[range]) {
                    let g = g + weight_decay * *p;
                    *m = beta * *m + g;
                    *p -= lr * *m;
                }
            }
            OptimizerKind::Adam { beta1, beta2, eps } => {
                let bc1 = 1.0 - beta1.powi(self.t as i32);
                let bc2 = 1.0 - beta2.powi(self.t as i32);
                let moments = self.m[range.clone()].iter_mut().zip(&mut self.v[range]);
                for ((p, &g), (m, v)) in params.iter_mut().zip(grads).zip(moments) {
                    *m = beta1 * *m + (1.0 - beta1) * g;
                    *v = beta2 * *v + (1.0 - beta2) * g * g;
                    let mhat = *m / bc1;
                    let vhat = *v / bc2;
                    *p -= lr * mhat / (vhat.sqrt() + eps);
                }
            }
            OptimizerKind::AdamW { beta1, beta2, eps, weight_decay } => {
                let bc1 = 1.0 - beta1.powi(self.t as i32);
                let bc2 = 1.0 - beta2.powi(self.t as i32);
                let moments = self.m[range.clone()].iter_mut().zip(&mut self.v[range]);
                for ((p, &g), (m, v)) in params.iter_mut().zip(grads).zip(moments) {
                    *m = beta1 * *m + (1.0 - beta1) * g;
                    *v = beta2 * *v + (1.0 - beta2) * g * g;
                    let mhat = *m / bc1;
                    let vhat = *v / bc2;
                    *p -= lr * (mhat / (vhat.sqrt() + eps) + weight_decay * *p);
                }
            }
        }
    }

    /// The mutable optimizer state `(m, v, t)` for checkpointing: first
    /// and second moment buffers (empty when the rule keeps none) and the
    /// completed step count.
    pub fn state(&self) -> (&[f32], &[f32], usize) {
        (&self.m, &self.v, self.t)
    }

    /// Restores state captured by [`Optimizer::state`].
    ///
    /// # Panics
    ///
    /// Panics if the buffer lengths don't match what the update rule
    /// allocated (a checkpoint from a different optimizer or model size).
    pub fn restore_state(&mut self, m: Vec<f32>, v: Vec<f32>, t: usize) {
        assert_eq!(m.len(), self.m.len(), "optimizer m-buffer length mismatch");
        assert_eq!(v.len(), self.v.len(), "optimizer v-buffer length mismatch");
        self.m = m;
        self.v = v;
        self.t = t;
    }

    /// Whole-vector step: `begin_step` + one `step_range` over everything.
    pub fn step(&mut self, params: &mut [f32], grads: &[f32], lr: f32) {
        self.begin_step();
        let n = params.len();
        self.step_range(params, grads, 0, n, lr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quad_grad(w: &[f32]) -> Vec<f32> {
        // f(w) = 0.5 * ||w||^2, grad = w.
        w.to_vec()
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Optimizer::new(OptimizerKind::Sgd { weight_decay: 0.0 }, 3);
        let mut w = vec![1.0f32, -2.0, 3.0];
        for _ in 0..100 {
            let g = quad_grad(&w);
            opt.step(&mut w, &g, 0.1);
        }
        assert!(w.iter().all(|&x| x.abs() < 1e-3));
    }

    #[test]
    fn sgd_step_is_exact() {
        let mut opt = Optimizer::new(OptimizerKind::Sgd { weight_decay: 0.0 }, 2);
        let mut w = vec![1.0f32, 2.0];
        opt.step(&mut w, &[0.5, -0.5], 0.2);
        assert_eq!(w, vec![0.9, 2.1]);
    }

    #[test]
    fn weight_decay_shrinks_params() {
        let mut opt = Optimizer::new(OptimizerKind::Sgd { weight_decay: 0.1 }, 1);
        let mut w = vec![1.0f32];
        opt.step(&mut w, &[0.0], 0.5);
        assert!((w[0] - 0.95).abs() < 1e-6);
    }

    #[test]
    fn momentum_matches_hand_rollout() {
        let mut opt = Optimizer::new(OptimizerKind::Momentum { beta: 0.9, weight_decay: 0.0 }, 1);
        let mut w = vec![0.0f32];
        // Constant gradient 1: v1 = 1, v2 = 1.9, v3 = 2.71.
        opt.step(&mut w, &[1.0], 0.1);
        assert!((w[0] + 0.1).abs() < 1e-6);
        opt.step(&mut w, &[1.0], 0.1);
        assert!((w[0] + 0.1 + 0.19).abs() < 1e-6);
        opt.step(&mut w, &[1.0], 0.1);
        assert!((w[0] + 0.1 + 0.19 + 0.271).abs() < 1e-6);
    }

    #[test]
    fn adam_first_step_is_lr_sized() {
        // With bias correction, the first Adam step is ~lr * sign(g).
        let mut opt =
            Optimizer::new(OptimizerKind::Adam { beta1: 0.9, beta2: 0.999, eps: 1e-8 }, 2);
        let mut w = vec![0.0f32, 0.0];
        opt.step(&mut w, &[3.0, -0.01], 0.1);
        assert!((w[0] + 0.1).abs() < 1e-4, "w[0] = {}", w[0]);
        assert!((w[1] - 0.1).abs() < 1e-3, "w[1] = {}", w[1]);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt =
            Optimizer::new(OptimizerKind::Adam { beta1: 0.9, beta2: 0.999, eps: 1e-8 }, 3);
        let mut w = vec![5.0f32, -5.0, 2.0];
        for _ in 0..500 {
            let g = quad_grad(&w);
            opt.step(&mut w, &g, 0.05);
        }
        assert!(w.iter().all(|&x| x.abs() < 0.05), "{w:?}");
    }

    #[test]
    fn adamw_decay_is_decoupled() {
        // With zero gradient, AdamW still shrinks weights by lr*wd*w.
        let mut opt = Optimizer::new(
            OptimizerKind::AdamW { beta1: 0.9, beta2: 0.98, eps: 1e-8, weight_decay: 0.1 },
            1,
        );
        let mut w = vec![1.0f32];
        opt.step(&mut w, &[0.0], 0.5);
        assert!((w[0] - 0.95).abs() < 1e-6);
    }

    #[test]
    fn per_range_steps_respect_boundaries() {
        let mut opt = Optimizer::new(OptimizerKind::Sgd { weight_decay: 0.0 }, 4);
        let mut w = vec![1.0f32; 4];
        let g = vec![1.0f32; 4];
        opt.begin_step();
        opt.step_range(&mut w, &g, 0, 2, 0.1);
        opt.step_range(&mut w, &g, 2, 4, 0.5);
        assert_eq!(w, vec![0.9, 0.9, 0.5, 0.5]);
    }

    #[test]
    fn per_range_equals_full_step_with_uniform_lr() {
        let kinds = [
            OptimizerKind::Momentum { beta: 0.9, weight_decay: 0.01 },
            OptimizerKind::AdamW { beta1: 0.9, beta2: 0.98, eps: 1e-8, weight_decay: 0.01 },
        ];
        for kind in kinds {
            let mut a = Optimizer::new(kind, 4);
            let mut b = Optimizer::new(kind, 4);
            let mut wa = vec![1.0f32, -2.0, 0.5, 3.0];
            let mut wb = wa.clone();
            for s in 0..5 {
                let g: Vec<f32> = wa.iter().map(|&x| x + s as f32 * 0.1).collect();
                a.step(&mut wa, &g, 0.05);
                b.begin_step();
                b.step_range(&mut wb, &g, 0, 2, 0.05);
                b.step_range(&mut wb, &g, 2, 4, 0.05);
            }
            for (x, y) in wa.iter().zip(wb.iter()) {
                assert!((x - y).abs() < 1e-6, "{kind:?}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn state_roundtrip_resumes_momentum_exactly() {
        let kind = OptimizerKind::Adam { beta1: 0.9, beta2: 0.999, eps: 1e-8 };
        let mut full = Optimizer::new(kind, 3);
        let mut w_full = vec![1.0f32, -2.0, 3.0];
        for _ in 0..4 {
            let g = quad_grad(&w_full);
            full.step(&mut w_full, &g, 0.1);
        }
        let (m, v, t) = full.state();
        let (m, v) = (m.to_vec(), v.to_vec());
        let mut resumed = Optimizer::new(kind, 3);
        resumed.restore_state(m, v, t);
        let mut w_resumed = w_full.clone();
        for _ in 0..4 {
            let g = quad_grad(&w_full);
            full.step(&mut w_full, &g, 0.1);
            let g = quad_grad(&w_resumed);
            resumed.step(&mut w_resumed, &g, 0.1);
        }
        assert_eq!(w_full, w_resumed, "resumed optimizer must continue bit-identically");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn restore_state_rejects_wrong_size() {
        let mut opt = Optimizer::new(OptimizerKind::Momentum { beta: 0.9, weight_decay: 0.0 }, 3);
        opt.restore_state(vec![0.0; 2], Vec::new(), 1);
    }

    #[test]
    #[should_panic(expected = "begin_step")]
    fn step_range_requires_begin_step() {
        let mut opt = Optimizer::new(OptimizerKind::Sgd { weight_decay: 0.0 }, 2);
        let mut w = vec![0.0f32; 2];
        opt.step_range(&mut w, &[1.0, 1.0], 0, 2, 0.1);
    }
}

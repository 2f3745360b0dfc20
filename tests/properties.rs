//! Property-based tests over the workspace's core invariants.

use proptest::prelude::*;

use pipemare::data::corpus_bleu;
use pipemare::nn::{Layer, Linear};
use pipemare::optim::{clip_grad_norm, Optimizer, OptimizerKind, T1Rescheduler};
use pipemare::pipeline::{Method, PipelineClock, StagePartition};
use pipemare::tensor::Tensor;
use pipemare::theory::{char_poly_basic, lemma1_max_alpha, spectral_radius};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // --- Stage partitioning -------------------------------------------

    #[test]
    fn partition_tiles_and_is_nonempty(
        unit_lens in prop::collection::vec(1usize..40, 2..12),
        stage_frac in 0.1f64..1.0,
    ) {
        let total: usize = unit_lens.iter().sum();
        let mut units = Vec::new();
        let mut off = 0;
        for &l in &unit_lens {
            units.push((off, l));
            off += l;
        }
        let stages = ((unit_lens.len() as f64 * stage_frac).ceil() as usize).clamp(1, total);
        let p = StagePartition::from_units(&units, total, stages);
        prop_assert_eq!(p.stages(), stages);
        let mut cursor = 0;
        for s in 0..stages {
            let (lo, hi) = p.range(s);
            prop_assert_eq!(lo, cursor);
            prop_assert!(hi > lo);
            cursor = hi;
        }
        prop_assert_eq!(cursor, total);
        // stage_of agrees with ranges.
        for i in (0..total).step_by((total / 7).max(1)) {
            let s = p.stage_of(i);
            let (lo, hi) = p.range(s);
            prop_assert!(lo <= i && i < hi);
        }
    }

    // --- Delay schedules ----------------------------------------------

    #[test]
    fn delay_schedule_invariants(
        p in 1usize..20,
        n in 1usize..8,
        t in 0usize..60,
        s_frac in 0.0f64..1.0,
    ) {
        let clk = PipelineClock::new(p, n);
        let s = ((p as f64 - 1.0) * s_frac).round() as usize;
        for mb in 0..n {
            for m in Method::ALL {
                let vf = clk.fwd_version(m, t, mb, s);
                let vb = clk.bkwd_version(m, t, mb, s);
                prop_assert!(vf <= t, "forward version in the future");
                prop_assert!(vb <= t);
                prop_assert!(vf <= vb, "forward must not be fresher than backward");
                if m == Method::GPipe {
                    prop_assert_eq!(vf, t);
                    prop_assert_eq!(vb, t);
                }
                if m == Method::PipeDream {
                    prop_assert_eq!(vb, vf);
                }
            }
        }
        // Steady-state mean forward delay equals the nominal value.
        let t_deep = 50 + 4 * p;
        let mean_v: f64 = (0..n)
            .map(|mb| clk.fwd_version(Method::PipeMare, t_deep, mb, s) as f64)
            .sum::<f64>() / n as f64;
        let delay = t_deep as f64 - mean_v;
        prop_assert!((delay - clk.nominal_tau_fwd(s)).abs() < 1e-9);
    }

    // --- BLEU ------------------------------------------------------------

    #[test]
    fn bleu_bounds_and_identity(
        sents in prop::collection::vec(prop::collection::vec(0usize..20, 4..12), 1..6),
    ) {
        let self_score = corpus_bleu(&sents, &sents);
        prop_assert!((self_score - 100.0).abs() < 1e-3, "self-BLEU {self_score}");
        // Against shifted references: still within [0, 100].
        let shifted: Vec<Vec<usize>> = sents.iter().map(|s| {
            s.iter().map(|&t| (t + 1) % 20).collect()
        }).collect();
        let cross = corpus_bleu(&sents, &shifted);
        prop_assert!((0.0..=100.0).contains(&cross));
    }

    // --- Optimizers -------------------------------------------------------

    #[test]
    fn optimizer_range_split_equals_full_step(
        n in 2usize..24,
        split_frac in 0.1f64..0.9,
        lr in 1e-4f32..0.5,
        steps in 1usize..6,
    ) {
        let kinds = [
            OptimizerKind::Sgd { weight_decay: 0.01 },
            OptimizerKind::Momentum { beta: 0.9, weight_decay: 0.0 },
            OptimizerKind::Adam { beta1: 0.9, beta2: 0.999, eps: 1e-8 },
        ];
        let split = ((n as f64 * split_frac) as usize).clamp(1, n - 1);
        for kind in kinds {
            let mut a = Optimizer::new(kind, n);
            let mut b = Optimizer::new(kind, n);
            let mut wa: Vec<f32> = (0..n).map(|i| (i as f32 * 0.3).sin()).collect();
            let mut wb = wa.clone();
            for s in 0..steps {
                let g: Vec<f32> = wa.iter().map(|&x| x * 0.5 + s as f32 * 0.01).collect();
                a.step(&mut wa, &g, lr);
                b.begin_step();
                b.step_range(&mut wb, &g, 0, split, lr);
                b.step_range(&mut wb, &g, split, n, lr);
            }
            for (x, y) in wa.iter().zip(wb.iter()) {
                prop_assert!((x - y).abs() < 1e-5, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn optimizer_chunked_step_is_bit_identical_to_one_range_step(
        n in 1usize..40,
        chunk in 1usize..40,
        lr in 1e-4f32..0.5,
        steps in 1usize..5,
    ) {
        // Any chunking — one value at a time, a ragged tail, the whole
        // range at once — updates parameters and moments bit for bit
        // like one `step_range` call.
        let kinds = [
            OptimizerKind::Sgd { weight_decay: 0.01 },
            OptimizerKind::Momentum { beta: 0.9, weight_decay: 0.01 },
            OptimizerKind::Adam { beta1: 0.9, beta2: 0.999, eps: 1e-8 },
            OptimizerKind::AdamW { beta1: 0.9, beta2: 0.98, eps: 1e-8, weight_decay: 0.01 },
        ];
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        for kind in kinds {
            for size in [1, chunk.min(n), n] {
                let mut a = Optimizer::new(kind, n);
                let mut b = Optimizer::new(kind, n);
                let mut wa: Vec<f32> = (0..n).map(|i| (i as f32 * 0.3).sin()).collect();
                let mut wb = wa.clone();
                for s in 0..steps {
                    let g: Vec<f32> = wa.iter().map(|&x| x * 0.5 - s as f32 * 0.01).collect();
                    a.begin_step();
                    a.step_range(&mut wa, &g, 0, n, lr);
                    b.begin_step();
                    for lo in (0..n).step_by(size) {
                        let hi = n.min(lo + size);
                        b.step_chunk(&mut wb[lo..hi], &g[lo..hi], lo, lr);
                    }
                }
                prop_assert_eq!(bits(&wa), bits(&wb), "{:?}, chunks of {}", kind, size);
                let ((ma, va, ta), (mb, vb, tb)) = (a.state(), b.state());
                prop_assert_eq!((bits(ma), bits(va), ta), (bits(mb), bits(vb), tb));
            }
        }
    }

    #[test]
    fn clip_never_increases_norm(g in prop::collection::vec(-10.0f32..10.0, 1..32), max in 0.1f32..20.0) {
        let mut clipped = g.clone();
        let before = (g.iter().map(|&x| x as f64 * x as f64).sum::<f64>()).sqrt();
        clip_grad_norm(&mut clipped, max);
        let after = (clipped.iter().map(|&x| x as f64 * x as f64).sum::<f64>()).sqrt();
        prop_assert!(after <= before + 1e-4);
        prop_assert!(after <= max as f64 + 1e-3);
    }

    // --- T1 -------------------------------------------------------------

    #[test]
    fn t1_scale_in_unit_interval(k in 1usize..1000, step in 0usize..2000, tau in 0.1f64..200.0) {
        let t1 = T1Rescheduler::new(k);
        let s = t1.scale(step, tau);
        prop_assert!(s > 0.0 && s <= 1.0 + 1e-6, "scale {s}");
        // Monotone non-decreasing in step.
        if step + 1 < 2000 {
            prop_assert!(t1.scale(step + 1, tau) >= s - 1e-6);
        }
    }

    // --- Theory -----------------------------------------------------------

    #[test]
    fn lemma1_bound_is_tight_against_roots(tau in 0usize..24, lambda in 0.2f64..4.0) {
        let bound = lemma1_max_alpha(lambda, tau);
        let inside = spectral_radius(&char_poly_basic(lambda, 0.95 * bound, tau));
        let outside = spectral_radius(&char_poly_basic(lambda, 1.05 * bound, tau));
        prop_assert!(inside <= 1.0 + 1e-6, "inside radius {inside}");
        prop_assert!(outside > 1.0, "outside radius {outside}");
    }

    // --- Layers -----------------------------------------------------------

    #[test]
    fn linear_forward_is_linear_in_input(
        in_f in 1usize..6,
        out_f in 1usize..6,
        seed in 0u64..500,
    ) {
        use rand::SeedableRng;
        let layer = Linear::new(in_f, out_f);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut params = vec![0.0f32; layer.param_len()];
        layer.init_params(&mut params, &mut rng);
        let x1 = Tensor::randn(&[3, in_f], &mut rng);
        let x2 = Tensor::randn(&[3, in_f], &mut rng);
        // f(x1 + x2) + f(0) == f(x1) + f(x2) for affine f.
        let f = |x: &Tensor| layer.forward(&params, x).0;
        let lhs = f(&x1.add(&x2)).add(&f(&Tensor::zeros(&[3, in_f])));
        let rhs = f(&x1).add(&f(&x2));
        for (a, b) in lhs.data().iter().zip(rhs.data().iter()) {
            prop_assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }
}

//! Property tests over the neural-network layers: gradient correctness
//! across random configurations, mask invariants, normalization
//! invariants, and training splits that chain to the whole model.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use pipemare::nn::gradcheck::{check_layer_gradients, init_layer};
use pipemare::nn::{
    cross_entropy_logits, Activation, AttnMask, BatchNorm2d, CifarResNet, Conv2d, CrossEntropyCfg,
    ImageBatch, Layer, LayerNorm, Linear, Mlp, MultiHeadAttention, ResNetConfig, Sequential,
    TrainModel,
};
use pipemare::pipeline::StagePartition;
use pipemare::tensor::Tensor;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A model's weight units as `(offset, len)` pairs, the partitioner's input.
fn unit_ranges(units: &[pipemare::nn::WeightUnit]) -> Vec<(usize, usize)> {
    units.iter().map(|u| (u.offset, u.len)).collect()
}

/// Cuts inside a layer have no layer span: element-wise ranges that cut a
/// `Linear`, and the ResNet stand-in at P = 16, whose unit cuts fall
/// inside residual blocks. One stage is always the whole chain.
#[test]
fn splits_at_rejects_cuts_inside_a_layer() {
    let mlp = Mlp::new(&[4, 12, 3]);
    let (chain, total) = (mlp.chain(), mlp.param_len());
    let cut_fc0 = StagePartition::by_elements(total, 2);
    assert_eq!(cut_fc0.ranges(), &[(0, 50), (50, 99)]);
    assert_eq!(chain.splits_at(cut_fc0.ranges()), None);
    assert_eq!(chain.splits_at(&[(0, total)]), Some(chain.serve_splits(1)));

    let net = CifarResNet::new(ResNetConfig::resnet50_standin(10));
    let (chain, total) = (net.chain(), TrainModel::param_len(&net));
    let units = unit_ranges(&net.weight_units());
    assert_eq!(chain.splits_at(StagePartition::from_units(&units, total, 16).ranges()), None);
    let one = chain.splits_at(StagePartition::from_units(&units, total, 1).ranges());
    assert_eq!(one, Some(chain.serve_splits(1)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The training-split contract: for every stage count P, running
    /// `forward_split` over the §4.1 partition's splits with `u_fwd`, the
    /// loss, then `backward_split` in reverse with `u_bkwd` reproduces
    /// `Mlp::forward_loss` and `backward` bit for bit — loss, every
    /// parameter gradient and the input gradient.
    #[test]
    fn mlp_training_splits_chain_to_the_whole_model(
        widths in prop::collection::vec(1usize..9, 3..=6),
        seed in 0u64..1000,
    ) {
        let model = Mlp::new(&widths);
        let (chain, total) = (model.chain(), model.param_len());
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut u_fwd, mut u_bkwd) = (vec![0.0; total], vec![0.0; total]);
        model.init_params(&mut u_fwd, &mut rng);
        model.init_params(&mut u_bkwd, &mut rng);
        let classes = widths[widths.len() - 1];
        let y = (0..5).map(|i| i % classes).collect();
        let batch = ImageBatch { x: Tensor::randn(&[5, widths[0]], &mut rng), y };
        let (loss, cache) = model.forward_loss(&u_fwd, &batch);
        let grads = model.backward(&u_bkwd, &cache);
        let (dx, _) = chain.backward(&u_bkwd, cache.child(0), cache.tensor(0));

        let units = unit_ranges(&model.weight_units());
        for p in 1..=units.len() {
            let partition = StagePartition::from_units(&units, total, p);
            let splits = chain.splits_at(partition.ranges()).expect("Mlp cuts fall between layers");
            prop_assert_eq!(splits.len(), p);
            let mut h = batch.x.clone();
            let mut caches = Vec::new();
            for sp in &splits {
                let (y, c) = chain.forward_split(&u_fwd[sp.param_lo..sp.param_hi], sp, &h);
                caches.push(c);
                h = y;
            }
            let (split_loss, mut d) = cross_entropy_logits(&h, &batch.y, CrossEntropyCfg::default());
            prop_assert_eq!(split_loss.to_bits(), loss.to_bits(), "P={}", p);
            let mut split_grads = vec![f32::NAN; total];
            for (sp, c) in splits.iter().zip(&caches).rev() {
                let range = sp.param_lo..sp.param_hi;
                d = chain.backward_split(&u_bkwd[range.clone()], sp, c, &d, &mut split_grads[range]);
            }
            prop_assert_eq!(bits(&split_grads), bits(&grads), "P={}", p);
            prop_assert_eq!(bits(d.data()), bits(dx.data()), "P={}", p);
        }
    }

    #[test]
    fn linear_gradcheck_random_configs(
        in_f in 1usize..7,
        out_f in 1usize..7,
        batch in 1usize..5,
        seed in 0u64..1000,
    ) {
        check_layer_gradients(&Linear::new(in_f, out_f), &[batch, in_f], seed, 5e-2);
    }

    #[test]
    fn conv_gradcheck_random_configs(
        in_c in 1usize..4,
        out_c in 1usize..4,
        stride in 1usize..3,
        seed in 0u64..1000,
    ) {
        let conv = Conv2d::new(in_c, out_c, 3, stride, 1);
        check_layer_gradients(&conv, &[2, in_c, 5, 5], seed, 8e-2);
    }

    #[test]
    fn layernorm_gradcheck_random_dims(dim in 2usize..10, rows in 1usize..5, seed in 0u64..1000) {
        check_layer_gradients(&LayerNorm::new(dim), &[rows, dim], seed, 8e-2);
    }

    #[test]
    fn batchnorm_gradcheck_random_dims(c in 1usize..4, b in 2usize..5, seed in 0u64..1000) {
        check_layer_gradients(&BatchNorm2d::new(c), &[b, c, 3, 3], seed, 8e-2);
    }

    #[test]
    fn mixed_chain_gradcheck(seed in 0u64..1000, hidden in 2usize..8) {
        let chain = Sequential::new()
            .push(Linear::new(5, hidden))
            .push(Activation::tanh())
            .push(Linear::new(hidden, 3));
        check_layer_gradients(&chain, &[3, 5], seed, 8e-2);
    }

    #[test]
    fn attention_output_invariant_to_masked_keys(
        seed in 0u64..1000,
        keep in 1usize..4,
    ) {
        // Values at masked key positions never influence the output.
        let mha = MultiHeadAttention::new(8, 2);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = vec![0.0f32; mha.param_len()];
        mha.init_params(&mut params, &mut rng);
        let q = Tensor::randn(&[1, 2, 8], &mut rng);
        let kv = Tensor::randn(&[1, 4, 8], &mut rng);
        let mask = AttnMask::KeyLens(vec![keep]);
        let (y1, _) = mha.forward(&params, &q, &kv, &mask);
        let mut kv2 = kv.clone();
        for t in keep..4 {
            for d in 0..8 {
                kv2.data_mut()[t * 8 + d] = 123.0;
            }
        }
        let (y2, _) = mha.forward(&params, &q, &kv2, &mask);
        for (a, b) in y1.data().iter().zip(y2.data().iter()) {
            prop_assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn attention_causal_prefix_stability(seed in 0u64..1000) {
        // With a causal mask, truncating the sequence does not change the
        // outputs of the surviving prefix.
        let mha = MultiHeadAttention::new(4, 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = vec![0.0f32; mha.param_len()];
        mha.init_params(&mut params, &mut rng);
        let x = Tensor::randn(&[1, 5, 4], &mut rng);
        let (full, _) = mha.forward(&params, &x, &x, &AttnMask::Causal);
        let x3 = x.reshape(&[5, 4]).slice0(0, 3).reshape(&[1, 3, 4]);
        let (short, _) = mha.forward(&params, &x3, &x3, &AttnMask::Causal);
        for i in 0..3 * 4 {
            prop_assert!((full.data()[i] - short.data()[i]).abs() < 1e-4);
        }
    }

    #[test]
    fn normalization_is_shift_invariant(dim in 2usize..10, shift in -5.0f32..5.0, seed in 0u64..1000) {
        // LayerNorm(x + c) == LayerNorm(x) for a constant shift.
        let ln = LayerNorm::new(dim);
        let mut rng = StdRng::seed_from_u64(seed);
        let params = init_layer(&ln, &mut rng);
        let x = Tensor::randn(&[3, dim], &mut rng);
        let (a, _) = ln.forward(&params, &x);
        let (b, _) = ln.forward(&params, &x.add_scalar(shift));
        for (u, v) in a.data().iter().zip(b.data().iter()) {
            prop_assert!((u - v).abs() < 2e-3, "{u} vs {v}");
        }
    }
}

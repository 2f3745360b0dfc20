//! Property tests over the neural-network layers: gradient correctness
//! across random configurations, mask invariants, normalization
//! invariants, training splits that chain to the whole model, and the
//! cache-free pass equal bit for bit to the training forward.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pipemare::nn::gradcheck::{check_layer_gradients, init_layer};
use pipemare::nn::{
    cross_entropy_logits, Activation, AttnMask, BatchNorm2d, CifarResNet, Conv2d, CrossEntropyCfg,
    Dropout, Embedding, Flatten, GlobalAvgPool2d, GroupNorm, ImageBatch, InferModel, Layer,
    LayerNorm, Linear, MaxPool2d, Mlp, MultiHeadAttention, ResNetConfig, Sequential, TrainModel,
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

/// Values that take a kernel off its common path: signed zeros,
/// subnormals, infinities and NaNs of either sign.
const SPECIALS: [f32; 8] =
    [0.0, -0.0, 1e-40, -1e-40, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -f32::NAN];

/// Replaces about one value in `every` with a special one.
fn sprinkle(values: &mut [f32], every: usize, rng: &mut StdRng) {
    for v in values.iter_mut() {
        if rng.gen_range(0..every) == 0 {
            *v = SPECIALS[rng.gen_range(0..SPECIALS.len())];
        }
    }
}

/// Bit patterns with every NaN folded to one: which NaN survives an
/// operation is the instruction's choice, not the layer's.
fn folded_bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| if x.is_nan() { f32::NAN.to_bits() } else { x.to_bits() }).collect()
}

/// `forward_no_cache` is `forward(..).0`, bit for bit, for every layer
/// kind: one computation serves both passes. Inputs and parameters are
/// random, then sprinkled with special values.
#[test]
fn the_cache_free_pass_equals_the_training_forward() {
    let layers: Vec<(&str, Box<dyn Layer>, Vec<usize>)> = vec![
        ("linear", Box::new(Linear::new(6, 5)), vec![2, 3, 6]),
        ("conv", Box::new(Conv2d::new(3, 4, 3, 1, 1)), vec![2, 3, 6, 6]),
        ("conv s2", Box::new(Conv2d::new_no_bias(3, 4, 3, 2, 1)), vec![2, 3, 7, 7]),
        ("batchnorm", Box::new(BatchNorm2d::new(4)), vec![3, 4, 5, 5]),
        ("batchnorm+relu", Box::new(BatchNorm2d::with_relu(4)), vec![3, 4, 5, 5]),
        ("layernorm", Box::new(LayerNorm::new(6)), vec![2, 4, 6]),
        ("groupnorm", Box::new(GroupNorm::new(4, 2)), vec![2, 4, 3, 3]),
        ("relu", Box::new(Activation::relu()), vec![5, 7]),
        ("gelu", Box::new(Activation::gelu()), vec![5, 7]),
        ("tanh", Box::new(Activation::tanh()), vec![5, 7]),
        ("avgpool", Box::new(GlobalAvgPool2d), vec![2, 3, 4, 4]),
        ("maxpool", Box::new(MaxPool2d::new(2)), vec![2, 3, 4, 5]),
        ("flatten", Box::new(Flatten), vec![2, 3, 4, 4]),
        ("disabled dropout", Box::new(disabled_dropout()), vec![4, 9]),
    ];
    // Residual blocks and the chain itself, through the whole network.
    let net = CifarResNet::new(ResNetConfig::tiny(5));
    let resnet: (&str, &dyn Layer, Vec<usize>) = ("resnet", net.chain(), vec![2, 3, 8, 8]);
    let all = layers.iter().map(|(name, layer, shape)| (*name, layer.as_ref(), shape.clone()));
    let mut rng = StdRng::seed_from_u64(71);
    for (name, layer, shape) in all.chain([resnet]) {
        for every in [0, 10, 4] {
            // Random weights: an initialized γ = 1, β = 0 would hide a
            // difference in how the affine step rounds.
            let mut params = Tensor::randn(&[layer.param_len()], &mut rng).data().to_vec();
            let mut x = Tensor::randn(&shape, &mut rng);
            if every > 0 {
                sprinkle(x.data_mut(), every, &mut rng);
                sprinkle(&mut params, 4 * every, &mut rng);
            }
            let (y, _) = layer.forward(&params, &x);
            let z = layer.forward_no_cache(&params, &x);
            assert_eq!(y.shape(), z.shape(), "{name}");
            assert_eq!(folded_bits(y.data()), folded_bits(z.data()), "{name}, 1 in {every}");
        }
    }

    // Token ids stay ids; the table takes the special values.
    let embed = Embedding::new_scaled(11, 4);
    let ids: Vec<f32> = (0..10).map(|i| (i * 7 % 11) as f32).collect();
    let x = Tensor::from_vec(ids, &[2, 5]);
    let mut params = init_layer(&embed, &mut rng);
    sprinkle(&mut params, 3, &mut rng);
    let (y, _) = embed.forward(&params, &x);
    assert_eq!(folded_bits(y.data()), folded_bits(embed.forward_no_cache(&params, &x).data()));
}

fn disabled_dropout() -> Dropout {
    let d = Dropout::new(0.5, 3);
    d.set_enabled(false);
    d
}

/// Dropout draws the same masks in both passes, and a call takes the
/// same counter value whichever pass ran before it.
#[test]
fn dropout_passes_draw_the_same_masks() {
    let mut rng = StdRng::seed_from_u64(72);
    let mut x = Tensor::randn(&[6, 32], &mut rng);
    sprinkle(x.data_mut(), 8, &mut rng);
    for enabled in [true, false] {
        let (trained, served) = (Dropout::new(0.4, 9), Dropout::new(0.4, 9));
        trained.set_enabled(enabled);
        served.set_enabled(enabled);
        let (y, _) = trained.forward(&[], &x);
        let z = served.forward_no_cache(&[], &x);
        assert_eq!(folded_bits(y.data()), folded_bits(z.data()), "enabled={enabled}");
        trained.set_enabled(true);
        served.set_enabled(true);
        let (next_y, _) = trained.forward(&[], &x);
        let (next_z, _) = served.forward(&[], &x);
        assert_eq!(folded_bits(next_y.data()), folded_bits(next_z.data()), "enabled={enabled}");
    }
}

/// FNV-1a over the little-endian bit patterns.
fn hash_f32(values: &[f32]) -> u64 {
    values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// `CifarResNet::logits` keeps the bits it had when it ran the training
/// forward and dropped the cache. Never edit the constant.
#[test]
fn resnet_logits_keep_their_bits() {
    const LOGITS_HASH: u64 = 0xed21ef8dc765f6d0;
    let net = CifarResNet::new(ResNetConfig::resnet50_standin(10));
    let mut rng = StdRng::seed_from_u64(73);
    let mut params = vec![0.0f32; TrainModel::param_len(&net)];
    net.init_params(&mut params, &mut rng);
    let x = Tensor::randn(&[6, 3, 16, 16], &mut rng);
    let logits = net.logits(&params, &x);
    assert_eq!(logits.shape(), &[6, 10]);
    assert_eq!(hash_f32(logits.data()), LOGITS_HASH, "{:#018x}", hash_f32(logits.data()));
}

/// The MLP has one inference path: its logits are serving's `infer`.
#[test]
fn mlp_logits_are_inference_on_the_prepared_input() {
    let model = Mlp::new(&[48, 16, 9, 4]);
    let mut rng = StdRng::seed_from_u64(74);
    let mut params = vec![0.0f32; model.param_len()];
    model.init_params(&mut params, &mut rng);
    let x = Tensor::randn(&[5, 3, 4, 4], &mut rng);
    let want = model.infer(&params, &model.prepare_input(&x));
    assert_eq!(bits(model.logits(&params, &x).data()), bits(want.data()));
}

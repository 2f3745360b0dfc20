//! The Transformer caches each activation once.
//!
//! `Transformer::forward_loss` keeps what its backward pass reads and
//! nothing twice: a self-attention keeps its input once (not as both
//! query and key/value), a decoder layer's cross-attention reads the
//! encoder memory the model's cache holds, the feed-forward ReLU reads its
//! derivative from the second projection's input, and an input that is a
//! layer norm's output is rebuilt from that norm's `x̂` in backward. This
//! test pins the float count of that cache at pmbench's
//! `transformer_recompute` shapes — a 3-sentence microbatch and the
//! 24-sentence test batch whose `forward_loss` sets the workload's peak
//! heap — and checks that no activation-sized tensor is cached twice and
//! that the pass leaves nothing allocated beside its cache.
//!
//! This file is its own test binary because it installs the counting
//! allocator, and holds a single test because the allocator's counts are
//! process-wide.

use std::mem::size_of;

use pipemare::data::SyntheticTranslation;
use pipemare::nn::{Cache, SeqBatch, TrainModel, Transformer, TransformerConfig};
use pipemare::tensor::{CountingAlloc, Tensor};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Floats cached for `b` sentences of `ts` source and `tt` target tokens
/// (`tt` counts the BOS shift). Per encoder layer: the self-attention's
/// input, Q, K, V and context (five activations) and its weights, each
/// norm's `x̂` and the second projection's input. Per decoder layer: the
/// same for the causal self-attention, then the cross-attention's Q and
/// context over the target, its K and V over the source and its weights,
/// three norms' `x̂` and the second projection's input. Then the output
/// projection's input, and the model's logit gradient and memory.
fn expected_floats(cfg: &TransformerConfig, b: usize, ts: usize, tt: usize) -> usize {
    let (d, f, h, v) = (cfg.dim, cfg.ff_dim, cfg.heads, cfg.tgt_vocab);
    let (rs, rt) = (b * ts, b * tt);
    let encoder = (5 * rs * d + b * h * ts * ts) + 2 * rs * d + rs * f;
    let cross_attention = 2 * rt * d + 2 * rs * d + b * h * tt * ts;
    let decoder = (5 * rt * d + b * h * tt * tt) + cross_attention + 3 * rt * d + rt * f;
    cfg.enc_layers * encoder + cfg.dec_layers * decoder + rt * d + rt * v + rs * d
}

/// Every tensor of `cache` and its children, with its path in the tree.
fn tensors<'c>(cache: &'c Cache, path: String, out: &mut Vec<(String, &'c Tensor)>) {
    assert!(cache.bf16_tensors.is_empty(), "{path}: a bf16 stash in a training cache");
    for (i, t) in cache.tensors.iter().enumerate() {
        out.push((format!("{path}/tensor {i}"), t));
    }
    for (i, child) in cache.children.iter().enumerate() {
        tensors(child, format!("{path}/child {i}"), out);
    }
}

/// Heap bytes `cache` holds: its tensors' floats and every vector's
/// buffer, children included.
fn held_bytes(cache: &Cache) -> usize {
    let own = 4 * cache.tensors.iter().map(Tensor::len).sum::<usize>()
        + size_of::<Tensor>() * cache.tensors.capacity()
        + size_of::<f32>() * cache.scalars.capacity()
        + size_of::<usize>() * cache.indices.capacity()
        + size_of::<Cache>() * cache.children.capacity();
    own + cache.children.iter().map(held_bytes).sum::<usize>()
}

#[test]
fn the_forward_cache_holds_each_activation_once() {
    // pmbench's `transformer_recompute` data and model: six-token
    // sentences, the IWSLT stand-in (width 32, 4 heads, FFN 64, 2 + 2
    // layers).
    let ds = SyntheticTranslation {
        vocab: 8,
        min_len: 6,
        max_len: 6,
        train: 80,
        test: 24,
        reverse: true,
        seed: 1,
    }
    .generate();
    let cfg = TransformerConfig::iwslt_standin(ds.total_vocab, ds.total_vocab);
    let model = Transformer::new(cfg);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
    let mut params = vec![0.0f32; model.param_len()];
    model.init_params(&mut params, &mut rng);
    // Off the initial γ = 1, β = 0, where a norm's output equals its x̂.
    let noise = Tensor::randn(&[params.len()], &mut rng);
    params.iter_mut().zip(noise.data()).for_each(|(p, n)| *p += 0.05 * n);

    let micro: SeqBatch = ds.batch(&[0, 1, 2]);
    for (batch, want) in [(micro, 33_327), (ds.test_batch(), 266_616)] {
        let (b, ts, tt) = (batch.src.shape()[0], batch.src.shape()[1], batch.tgt_in.shape()[1]);
        assert_eq!(expected_floats(&cfg, b, ts, tt), want, "the layout for {b} sentences");

        // Once unmeasured: per-thread kernel scratch grows on first use
        // and stays.
        drop(model.forward_loss(&params, &batch));
        let before = ALLOC.live_bytes();
        let (_, cache) = model.forward_loss(&params, &batch);
        let held = ALLOC.live_bytes() - before;

        let mut cached = Vec::new();
        tensors(&cache, "cache".into(), &mut cached);
        let floats: usize = cached.iter().map(|(_, t)| t.len()).sum();
        assert_eq!(floats, want, "floats cached for {b} sentences");
        assert_eq!(cache.activation_bytes(), 4 * want);
        assert_eq!(held, held_bytes(&cache), "{b} sentences: memory held beside the cache");

        // The smallest activation is one source-side (B·Ts, D) tensor.
        let activation = b * ts * cfg.dim;
        let large: Vec<_> = cached.iter().filter(|(_, t)| t.len() >= activation).collect();
        for (i, (path_i, t_i)) in large.iter().enumerate() {
            for (path_j, t_j) in &large[i + 1..] {
                let same = t_i.len() == t_j.len()
                    && t_i.data().iter().zip(t_j.data()).all(|(x, y)| x.to_bits() == y.to_bits());
                assert!(!same, "{b} sentences: {path_i} and {path_j} hold the same tensor");
            }
        }
    }
}

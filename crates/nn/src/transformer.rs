//! Encoder–decoder Transformer (the 12-layer IWSLT/WMT model stand-in).
//!
//! Post-norm architecture (Vaswani et al. 2017): each sublayer is
//! `x = LayerNorm(x + Sublayer(x))`. The encoder stacks self-attention +
//! feed-forward layers; the decoder adds causal self-attention and
//! cross-attention over the encoder memory. Token ids use the convention
//! `pad = 0`, `bos = 1`, `eos = 2`, content tokens `>= 3`.

use rand::rngs::StdRng;

use pipemare_tensor::Tensor;

use crate::activation::Activation;
use crate::attention::{AttnMask, MultiHeadAttention};
use crate::cache::Cache;
use crate::embedding::{Embedding, PositionalEncoding};
use crate::layer::{Layer, WeightUnit};
use crate::linear::Linear;
use crate::loss::{cross_entropy_logits, CrossEntropyCfg};
use crate::model::{SeqBatch, TrainModel};
use crate::norm::LayerNorm;

/// Padding token id.
pub const PAD: usize = 0;
/// Beginning-of-sequence token id.
pub const BOS: usize = 1;
/// End-of-sequence token id.
pub const EOS: usize = 2;

/// Transformer hyperparameters.
#[derive(Clone, Copy, Debug)]
pub struct TransformerConfig {
    /// Source vocabulary size (including pad/bos/eos).
    pub src_vocab: usize,
    /// Target vocabulary size.
    pub tgt_vocab: usize,
    /// Model dimension.
    pub dim: usize,
    /// Attention heads.
    pub heads: usize,
    /// Feed-forward inner dimension.
    pub ff_dim: usize,
    /// Encoder layers.
    pub enc_layers: usize,
    /// Decoder layers.
    pub dec_layers: usize,
    /// Label smoothing for the training loss.
    pub label_smoothing: f32,
}

impl TransformerConfig {
    /// A small fast configuration for tests.
    pub fn tiny(src_vocab: usize, tgt_vocab: usize) -> Self {
        TransformerConfig {
            src_vocab,
            tgt_vocab,
            dim: 16,
            heads: 2,
            ff_dim: 32,
            enc_layers: 1,
            dec_layers: 1,
            label_smoothing: 0.0,
        }
    }

    /// The IWSLT-like configuration used by the experiments
    /// (scaled-down 12-layer model: 2+2 layers at reproduction scale by
    /// default; the stage-count semantics are preserved by the
    /// partitioner).
    pub fn iwslt_standin(src_vocab: usize, tgt_vocab: usize) -> Self {
        TransformerConfig {
            src_vocab,
            tgt_vocab,
            dim: 32,
            heads: 4,
            ff_dim: 64,
            enc_layers: 2,
            dec_layers: 2,
            label_smoothing: 0.1,
        }
    }
}

struct EncoderLayer {
    attn: MultiHeadAttention,
    ln1: LayerNorm,
    ff1: Linear,
    act: Activation,
    ff2: Linear,
    ln2: LayerNorm,
}

impl EncoderLayer {
    fn new(cfg: &TransformerConfig) -> Self {
        EncoderLayer {
            attn: MultiHeadAttention::new(cfg.dim, cfg.heads),
            ln1: LayerNorm::new(cfg.dim),
            ff1: Linear::new(cfg.dim, cfg.ff_dim),
            act: Activation::relu(),
            ff2: Linear::new(cfg.ff_dim, cfg.dim),
            ln2: LayerNorm::new(cfg.dim),
        }
    }

    fn param_len(&self) -> usize {
        self.attn.param_len()
            + self.ln1.param_len()
            + self.ff1.param_len()
            + self.ff2.param_len()
            + self.ln2.param_len()
    }

    /// Offsets: [attn, ln1, ff1, ff2, ln2, end].
    fn offsets(&self) -> [usize; 6] {
        let mut o = [0usize; 6];
        o[1] = self.attn.param_len();
        o[2] = o[1] + self.ln1.param_len();
        o[3] = o[2] + self.ff1.param_len();
        o[4] = o[3] + self.ff2.param_len();
        o[5] = o[4] + self.ln2.param_len();
        o
    }

    fn init_params(&self, out: &mut [f32], rng: &mut StdRng) {
        let o = self.offsets();
        self.attn.init_params(&mut out[o[0]..o[1]], rng);
        self.ln1.init_params(&mut out[o[1]..o[2]], rng);
        self.ff1.init_params(&mut out[o[2]..o[3]], rng);
        self.ff2.init_params(&mut out[o[3]..o[4]], rng);
        self.ln2.init_params(&mut out[o[4]..o[5]], rng);
    }

    fn units(&self, prefix: &str) -> Vec<WeightUnit> {
        let o = self.offsets();
        let mut units: Vec<WeightUnit> = self
            .attn
            .weight_units()
            .into_iter()
            .map(|u| WeightUnit { name: format!("{prefix}.attn.{}", u.name), ..u })
            .collect();
        units.push(WeightUnit { name: format!("{prefix}.ln1"), offset: o[1], len: o[2] - o[1] });
        units.push(WeightUnit { name: format!("{prefix}.ff1"), offset: o[2], len: o[3] - o[2] });
        units.push(WeightUnit { name: format!("{prefix}.ff2"), offset: o[3], len: o[4] - o[3] });
        units.push(WeightUnit { name: format!("{prefix}.ln2"), offset: o[4], len: o[5] - o[4] });
        units
    }

    /// The cache keeps each activation once: the attention's input (in
    /// the attention's cache), the norms' `x̂` and the second projection's
    /// input, which is the ReLU's output. The first projection's input is
    /// `ln1`'s output, rebuilt from its cache in backward, and the ReLU
    /// reads its derivative from its output.
    fn forward(&self, params: &[f32], x: &Tensor, mask: &AttnMask) -> (Tensor, Cache) {
        let o = self.offsets();
        // Residual sums land in a buffer that is free anyway: `x + a` in
        // a's, `h1 + f3` in h1's — the same two operands per element.
        let (mut sum1, ca) = self.attn.forward(&params[o[0]..o[1]], x, x, mask);
        sum1.axpy(1.0, x);
        let (h1, cl1) = self.ln1.forward(&params[o[1]..o[2]], &sum1);
        let mut f = self.ff1.forward_no_cache(&params[o[2]..o[3]], &h1);
        self.act.forward_in_place(&mut f);
        let (f3, cf2) = self.ff2.forward(&params[o[3]..o[4]], &f);
        drop(f);
        let mut sum2 = h1;
        sum2.axpy(1.0, &f3);
        let (y, cl2) = self.ln2.forward(&params[o[4]..o[5]], &sum2);
        let mut cache = Cache::new();
        cache.children = vec![ca, cl1, cf2, cl2];
        (y, cache)
    }

    /// Writes the layer's gradient into `grads` (zeroed on entry) and
    /// returns the input gradient.
    fn backward_into(
        &self,
        params: &[f32],
        cache: &Cache,
        dy: &Tensor,
        grads: &mut [f32],
    ) -> Tensor {
        let o = self.offsets();
        let r = |i: usize| o[i]..o[i + 1];
        let dsum2 = self.ln2.backward_into(&params[r(4)], cache.child(3), dy, &mut grads[r(4)]);
        let cf2 = cache.child(2);
        let mut dh1 = self.ff2.backward_into(&params[r(3)], cf2, &dsum2, &mut grads[r(3)]);
        dh1 = self.act.relu_backward_from_output(&dh1, cf2.tensor(0));
        let h1 = self.ln1.output_from_cache(cache.child(1));
        dh1 = self.ff1.backward_with_input(&params[r(2)], &h1, &dh1, &mut grads[r(2)]);
        drop(h1);
        dh1.axpy(1.0, &dsum2);
        drop(dsum2);
        let mut dx = self.ln1.backward_into(&params[r(1)], cache.child(1), &dh1, &mut grads[r(1)]);
        drop(dh1);
        let (dq, dkv) =
            self.attn.backward_into(&params[r(0)], cache.child(0), &dx, &mut grads[r(0)]);
        dx.axpy(1.0, &dq);
        dx.axpy(1.0, &dkv);
        dx
    }
}

struct DecoderLayer {
    self_attn: MultiHeadAttention,
    ln1: LayerNorm,
    cross_attn: MultiHeadAttention,
    ln2: LayerNorm,
    ff1: Linear,
    act: Activation,
    ff2: Linear,
    ln3: LayerNorm,
}

impl DecoderLayer {
    fn new(cfg: &TransformerConfig) -> Self {
        DecoderLayer {
            self_attn: MultiHeadAttention::new(cfg.dim, cfg.heads),
            ln1: LayerNorm::new(cfg.dim),
            cross_attn: MultiHeadAttention::new(cfg.dim, cfg.heads),
            ln2: LayerNorm::new(cfg.dim),
            ff1: Linear::new(cfg.dim, cfg.ff_dim),
            act: Activation::relu(),
            ff2: Linear::new(cfg.ff_dim, cfg.dim),
            ln3: LayerNorm::new(cfg.dim),
        }
    }

    fn param_len(&self) -> usize {
        self.offsets()[8]
    }

    /// Offsets: [self_attn, ln1, cross, ln2, ff1, ff2, ln3, end] (+sentinel).
    fn offsets(&self) -> [usize; 9] {
        let mut o = [0usize; 9];
        o[1] = self.self_attn.param_len();
        o[2] = o[1] + self.ln1.param_len();
        o[3] = o[2] + self.cross_attn.param_len();
        o[4] = o[3] + self.ln2.param_len();
        o[5] = o[4] + self.ff1.param_len();
        o[6] = o[5] + self.ff2.param_len();
        o[7] = o[6] + self.ln3.param_len();
        o[8] = o[7];
        o
    }

    fn init_params(&self, out: &mut [f32], rng: &mut StdRng) {
        let o = self.offsets();
        self.self_attn.init_params(&mut out[o[0]..o[1]], rng);
        self.ln1.init_params(&mut out[o[1]..o[2]], rng);
        self.cross_attn.init_params(&mut out[o[2]..o[3]], rng);
        self.ln2.init_params(&mut out[o[3]..o[4]], rng);
        self.ff1.init_params(&mut out[o[4]..o[5]], rng);
        self.ff2.init_params(&mut out[o[5]..o[6]], rng);
        self.ln3.init_params(&mut out[o[6]..o[7]], rng);
    }

    fn units(&self, prefix: &str) -> Vec<WeightUnit> {
        let o = self.offsets();
        let mut units: Vec<WeightUnit> = self
            .self_attn
            .weight_units()
            .into_iter()
            .map(|u| WeightUnit { name: format!("{prefix}.self.{}", u.name), ..u })
            .collect();
        units.push(WeightUnit { name: format!("{prefix}.ln1"), offset: o[1], len: o[2] - o[1] });
        units.extend(self.cross_attn.weight_units().into_iter().map(|u| WeightUnit {
            name: format!("{prefix}.cross.{}", u.name),
            offset: o[2] + u.offset,
            len: u.len,
        }));
        units.push(WeightUnit { name: format!("{prefix}.ln2"), offset: o[3], len: o[4] - o[3] });
        units.push(WeightUnit { name: format!("{prefix}.ff1"), offset: o[4], len: o[5] - o[4] });
        units.push(WeightUnit { name: format!("{prefix}.ff2"), offset: o[5], len: o[6] - o[5] });
        units.push(WeightUnit { name: format!("{prefix}.ln3"), offset: o[6], len: o[7] - o[6] });
        units
    }

    /// `memory_mask` hides the padded source positions of `memory`.
    ///
    /// The cache keeps each activation once, as the encoder layer's does.
    /// The cross-attention keeps neither input: its query is `ln1`'s
    /// output, rebuilt in backward, and `memory` is the encoder's output,
    /// which the model's cache holds and hands to
    /// [`DecoderLayer::backward_into`].
    fn forward(
        &self,
        params: &[f32],
        x: &Tensor,
        memory: &Tensor,
        memory_mask: &AttnMask,
    ) -> (Tensor, Cache) {
        let o = self.offsets();
        let (mut sum1, ca) = self.self_attn.forward(&params[o[0]..o[1]], x, x, &AttnMask::Causal);
        sum1.axpy(1.0, x);
        let (h1, cl1) = self.ln1.forward(&params[o[1]..o[2]], &sum1);
        let (c, cc) =
            self.cross_attn.forward_without_inputs(&params[o[2]..o[3]], &h1, memory, memory_mask);
        let mut sum2 = h1;
        sum2.axpy(1.0, &c);
        let (h2, cl2) = self.ln2.forward(&params[o[3]..o[4]], &sum2);
        let mut f = self.ff1.forward_no_cache(&params[o[4]..o[5]], &h2);
        self.act.forward_in_place(&mut f);
        let (f3, cf2) = self.ff2.forward(&params[o[5]..o[6]], &f);
        drop(f);
        let mut sum3 = h2;
        sum3.axpy(1.0, &f3);
        let (y, cl3) = self.ln3.forward(&params[o[6]..o[7]], &sum3);
        let mut cache = Cache::new();
        cache.children = vec![ca, cl1, cc, cl2, cf2, cl3];
        (y, cache)
    }

    /// Writes the layer's gradient into `grads` (zeroed on entry) and
    /// returns `(dx, dmemory)`; `memory` is the forward pass's.
    fn backward_into(
        &self,
        params: &[f32],
        cache: &Cache,
        memory: &Tensor,
        dy: &Tensor,
        grads: &mut [f32],
    ) -> (Tensor, Tensor) {
        let o = self.offsets();
        let r = |i: usize| o[i]..o[i + 1];
        let dsum3 = self.ln3.backward_into(&params[r(6)], cache.child(5), dy, &mut grads[r(6)]);
        let cf2 = cache.child(4);
        let mut dh2 = self.ff2.backward_into(&params[r(5)], cf2, &dsum3, &mut grads[r(5)]);
        dh2 = self.act.relu_backward_from_output(&dh2, cf2.tensor(0));
        let h2 = self.ln2.output_from_cache(cache.child(3));
        dh2 = self.ff1.backward_with_input(&params[r(4)], &h2, &dh2, &mut grads[r(4)]);
        drop(h2);
        dh2.axpy(1.0, &dsum3);
        drop(dsum3);
        let dsum2 = self.ln2.backward_into(&params[r(3)], cache.child(3), &dh2, &mut grads[r(3)]);
        drop(dh2);
        let h1 = self.ln1.output_from_cache(cache.child(1));
        let (mut dh1, dmem) = self.cross_attn.backward_with_inputs(
            &params[r(2)],
            cache.child(2),
            (&h1, memory),
            &dsum2,
            &mut grads[r(2)],
        );
        drop(h1);
        dh1.axpy(1.0, &dsum2);
        drop(dsum2);
        let mut dx = self.ln1.backward_into(&params[r(1)], cache.child(1), &dh1, &mut grads[r(1)]);
        drop(dh1);
        let (dq, dkv) =
            self.self_attn.backward_into(&params[r(0)], cache.child(0), &dx, &mut grads[r(0)]);
        dx.axpy(1.0, &dq);
        dx.axpy(1.0, &dkv);
        (dx, dmem)
    }
}

/// An encoder–decoder Transformer for sequence-to-sequence tasks.
pub struct Transformer {
    cfg: TransformerConfig,
    src_embed: Embedding,
    tgt_embed: Embedding,
    pos: PositionalEncoding,
    enc: Vec<EncoderLayer>,
    dec: Vec<DecoderLayer>,
    out_proj: Linear,
    /// Offsets: src_embed, tgt_embed, enc layers, dec layers, out_proj.
    offsets: Vec<usize>,
    total: usize,
}

impl Transformer {
    /// Builds a transformer from a configuration.
    pub fn new(cfg: TransformerConfig) -> Self {
        let src_embed = Embedding::new_scaled(cfg.src_vocab, cfg.dim);
        let tgt_embed = Embedding::new_scaled(cfg.tgt_vocab, cfg.dim);
        let enc: Vec<_> = (0..cfg.enc_layers).map(|_| EncoderLayer::new(&cfg)).collect();
        let dec: Vec<_> = (0..cfg.dec_layers).map(|_| DecoderLayer::new(&cfg)).collect();
        let out_proj = Linear::new(cfg.dim, cfg.tgt_vocab);
        let mut offsets = Vec::new();
        let mut acc = 0usize;
        offsets.push(acc);
        acc += src_embed.param_len();
        offsets.push(acc);
        acc += tgt_embed.param_len();
        for l in &enc {
            offsets.push(acc);
            acc += l.param_len();
        }
        for l in &dec {
            offsets.push(acc);
            acc += l.param_len();
        }
        offsets.push(acc);
        acc += out_proj.param_len();
        Transformer {
            pos: PositionalEncoding::new(cfg.dim),
            cfg,
            src_embed,
            tgt_embed,
            enc,
            dec,
            out_proj,
            offsets,
            total: acc,
        }
    }

    /// The configuration this model was built from.
    pub fn config(&self) -> TransformerConfig {
        self.cfg
    }

    fn enc_off(&self, i: usize) -> usize {
        self.offsets[2 + i]
    }

    fn dec_off(&self, i: usize) -> usize {
        self.offsets[2 + self.cfg.enc_layers + i]
    }

    fn out_off(&self) -> usize {
        self.offsets[2 + self.cfg.enc_layers + self.cfg.dec_layers]
    }

    /// Runs the encoder: `(B, Ts)` token ids → `(B, Ts, D)` memory.
    pub fn encode(&self, params: &[f32], src: &Tensor, src_lens: &[usize]) -> (Tensor, Cache) {
        let se = &self.src_embed;
        let (mut h, ce) = se.forward(&params[self.offsets[0]..self.offsets[1]], src);
        self.pos.add_to(&mut h);
        let mask = AttnMask::KeyLens(src_lens.to_vec());
        let mut cache = Cache::new();
        cache.children.push(ce);
        for (i, layer) in self.enc.iter().enumerate() {
            let off = self.enc_off(i);
            let (y, c) = layer.forward(&params[off..off + layer.param_len()], &h, &mask);
            cache.children.push(c);
            h = y;
        }
        (h, cache)
    }

    /// Runs the decoder over `tgt_in` given encoder `memory`, producing
    /// logits `(B * Tt, V)`. The cache does not hold `memory`: training's
    /// backward pass takes it from the cache of
    /// [`TrainModel::forward_loss`], which keeps it once for every layer.
    pub fn decode(
        &self,
        params: &[f32],
        tgt_in: &Tensor,
        memory: &Tensor,
        src_lens: &[usize],
    ) -> (Tensor, Cache) {
        let (mut h, ct) = self.tgt_embed.forward(&params[self.offsets[1]..self.offsets[2]], tgt_in);
        self.pos.add_to(&mut h);
        let mask = AttnMask::KeyLens(src_lens.to_vec());
        let mut cache = Cache::new();
        cache.children.push(ct);
        for (i, layer) in self.dec.iter().enumerate() {
            let off = self.dec_off(i);
            let (y, c) = layer.forward(&params[off..off + layer.param_len()], &h, memory, &mask);
            cache.children.push(c);
            h = y;
        }
        let (b, tt, d) = (h.shape()[0], h.shape()[1], h.shape()[2]);
        let h2 = h.reshaped(&[b * tt, d]);
        let off = self.out_off();
        let (logits, cproj) =
            self.out_proj.forward(&params[off..off + self.out_proj.param_len()], &h2);
        cache.children.push(cproj);
        (logits, cache)
    }

    /// Greedy decoding of one source sentence (token ids without
    /// bos/eos handling — the function adds `BOS` internally and stops at
    /// `EOS` or `max_len`). Returns generated target ids (without
    /// bos/eos).
    pub fn greedy_decode(&self, params: &[f32], src_ids: &[usize], max_len: usize) -> Vec<usize> {
        let ts = src_ids.len();
        let src = Tensor::from_vec(src_ids.iter().map(|&t| t as f32).collect(), &[1, ts]);
        let src_lens = vec![ts];
        let (memory, _) = self.encode(params, &src, &src_lens);
        let mut out: Vec<usize> = vec![BOS];
        for _ in 0..max_len {
            let tgt_in = Tensor::from_vec(out.iter().map(|&t| t as f32).collect(), &[1, out.len()]);
            let (logits, _) = self.decode(params, &tgt_in, &memory, &src_lens);
            let v = self.cfg.tgt_vocab;
            let last = logits.slice0(out.len() - 1, 1).reshaped(&[1, v]);
            let next = last.argmax_rows()[0];
            if next == EOS {
                break;
            }
            out.push(next);
        }
        out.remove(0);
        out
    }

    /// Beam-search decoding with length-normalized log-probability scores
    /// (the paper evaluates BLEU with beam width 5). Returns the best
    /// hypothesis' target ids (without bos/eos).
    ///
    /// # Panics
    ///
    /// Panics if `beam == 0`.
    pub fn beam_decode(
        &self,
        params: &[f32],
        src_ids: &[usize],
        max_len: usize,
        beam: usize,
    ) -> Vec<usize> {
        assert!(beam > 0, "beam width must be positive");
        let ts = src_ids.len();
        let src = Tensor::from_vec(src_ids.iter().map(|&t| t as f32).collect(), &[1, ts]);
        let src_lens = vec![ts];
        let (memory, _) = self.encode(params, &src, &src_lens);
        let v = self.cfg.tgt_vocab;
        // (tokens-with-bos, total log prob, finished)
        let mut beams: Vec<(Vec<usize>, f64, bool)> = vec![(vec![BOS], 0.0, false)];
        for _ in 0..max_len {
            if beams.iter().all(|(_, _, done)| *done) {
                break;
            }
            let mut candidates: Vec<(Vec<usize>, f64, bool)> = Vec::new();
            for (toks, score, done) in &beams {
                if *done {
                    candidates.push((toks.clone(), *score, true));
                    continue;
                }
                let tgt_in =
                    Tensor::from_vec(toks.iter().map(|&t| t as f32).collect(), &[1, toks.len()]);
                let (logits, _) = self.decode(params, &tgt_in, &memory, &src_lens);
                let last = logits.slice0(toks.len() - 1, 1).reshaped(&[1, v]);
                let log_p = last.log_softmax_last();
                // Top-`beam` next tokens of this hypothesis.
                let mut scored: Vec<(usize, f32)> =
                    log_p.data().iter().cloned().enumerate().collect();
                scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
                for &(tok, lp) in scored.iter().take(beam) {
                    let mut next = toks.clone();
                    let finished = tok == EOS;
                    if !finished {
                        next.push(tok);
                    }
                    candidates.push((next, score + lp as f64, finished));
                }
            }
            // Keep the best `beam` by length-normalized score.
            candidates.sort_by(|a, b| {
                let na = a.1 / (a.0.len() as f64);
                let nb = b.1 / (b.0.len() as f64);
                nb.partial_cmp(&na).unwrap_or(std::cmp::Ordering::Equal)
            });
            candidates.truncate(beam);
            beams = candidates;
        }
        let best = beams
            .into_iter()
            .max_by(|a, b| {
                let na = a.1 / (a.0.len() as f64);
                let nb = b.1 / (b.0.len() as f64);
                na.partial_cmp(&nb).unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("at least one beam");
        let mut out = best.0;
        out.remove(0); // strip BOS
        out
    }
}

impl TrainModel for Transformer {
    type Batch = SeqBatch;

    fn param_len(&self) -> usize {
        self.total
    }

    fn init_params(&self, out: &mut [f32], rng: &mut StdRng) {
        self.src_embed.init_params(&mut out[self.offsets[0]..self.offsets[1]], rng);
        self.tgt_embed.init_params(&mut out[self.offsets[1]..self.offsets[2]], rng);
        for (i, l) in self.enc.iter().enumerate() {
            let off = self.enc_off(i);
            l.init_params(&mut out[off..off + l.param_len()], rng);
        }
        for (i, l) in self.dec.iter().enumerate() {
            let off = self.dec_off(i);
            l.init_params(&mut out[off..off + l.param_len()], rng);
        }
        let off = self.out_off();
        self.out_proj.init_params(&mut out[off..off + self.out_proj.param_len()], rng);
    }

    fn weight_units(&self) -> Vec<WeightUnit> {
        let mut units = vec![
            WeightUnit {
                name: "src_embed".into(),
                offset: self.offsets[0],
                len: self.src_embed.param_len(),
            },
            WeightUnit {
                name: "tgt_embed".into(),
                offset: self.offsets[1],
                len: self.tgt_embed.param_len(),
            },
        ];
        for (i, l) in self.enc.iter().enumerate() {
            let off = self.enc_off(i);
            units.extend(l.units(&format!("enc{i}")).into_iter().map(|u| WeightUnit {
                name: u.name,
                offset: off + u.offset,
                len: u.len,
            }));
        }
        for (i, l) in self.dec.iter().enumerate() {
            let off = self.dec_off(i);
            units.extend(l.units(&format!("dec{i}")).into_iter().map(|u| WeightUnit {
                name: u.name,
                offset: off + u.offset,
                len: u.len,
            }));
        }
        units.push(WeightUnit {
            name: "out_proj".into(),
            offset: self.out_off(),
            len: self.out_proj.param_len(),
        });
        units
    }

    fn forward_loss(&self, params: &[f32], batch: &SeqBatch) -> (f32, Cache) {
        let (memory, enc_cache) = self.encode(params, &batch.src, &batch.src_lens);
        let (logits, dec_cache) = self.decode(params, &batch.tgt_in, &memory, &batch.src_lens);
        let cfg = CrossEntropyCfg {
            label_smoothing: self.cfg.label_smoothing,
            ignore_index: Some(batch.pad_id),
        };
        let (loss, dlogits) = cross_entropy_logits(&logits, &batch.tgt_out, cfg);
        let mut cache = Cache::new();
        cache.children = vec![enc_cache, dec_cache];
        cache.tensors = vec![dlogits, memory];
        cache.indices = batch.src_lens.clone();
        (loss, cache)
    }

    fn backward(&self, params: &[f32], cache: &Cache) -> Vec<f32> {
        let mut grads = vec![0.0f32; self.total];
        let dlogits = cache.tensor(0);
        let memory = cache.tensor(1);
        let enc_cache = cache.child(0);
        let dec_cache = cache.child(1);
        let (b, ts, d) = (memory.shape()[0], memory.shape()[1], memory.shape()[2]);

        // Output projection.
        let out = self.out_off()..self.out_off() + self.out_proj.param_len();
        let dh2 = self.out_proj.backward_into(
            &params[out.clone()],
            dec_cache.child(1 + self.cfg.dec_layers),
            dlogits,
            &mut grads[out],
        );
        let tt = dh2.shape()[0] / b;
        let mut dh = dh2.reshaped(&[b, tt, d]);

        // Decoder layers (reverse), accumulating memory gradient.
        let mut dmem = Tensor::zeros(&[b, ts, d]);
        for (i, layer) in self.dec.iter().enumerate().rev() {
            let off = self.dec_off(i);
            let (dx, dm) = layer.backward_into(
                &params[off..off + layer.param_len()],
                dec_cache.child(1 + i),
                memory,
                &dh,
                &mut grads[off..off + layer.param_len()],
            );
            dmem.axpy(1.0, &dm);
            dh = dx;
        }
        // Target embedding (positional encoding is additive: gradient
        // passes through unchanged; token ids take none).
        let tgt = self.offsets[1]..self.offsets[2];
        let embed_cache = dec_cache.child(0);
        self.tgt_embed.param_grads_into(&params[tgt.clone()], embed_cache, &dh, &mut grads[tgt]);
        drop(dh);

        // Encoder layers (reverse).
        let mut dh = dmem;
        for (i, layer) in self.enc.iter().enumerate().rev() {
            let off = self.enc_off(i);
            dh = layer.backward_into(
                &params[off..off + layer.param_len()],
                enc_cache.child(1 + i),
                &dh,
                &mut grads[off..off + layer.param_len()],
            );
        }
        let src = self.offsets[0]..self.offsets[1];
        let embed_cache = enc_cache.child(0);
        self.src_embed.param_grads_into(&params[src.clone()], embed_cache, &dh, &mut grads[src]);
        grads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn tiny_model() -> Transformer {
        Transformer::new(TransformerConfig::tiny(8, 8))
    }

    fn tiny_batch() -> SeqBatch {
        // src: [3 4 5], tgt: [5 4 3]; bos-shifted decoder input.
        SeqBatch {
            src: Tensor::from_vec(vec![3.0, 4.0, 5.0, 6.0, 7.0, 0.0], &[2, 3]),
            tgt_in: Tensor::from_vec(vec![1.0, 5.0, 4.0, 1.0, 7.0, 6.0], &[2, 3]),
            tgt_out: vec![5, 4, 3, 7, 6, 0],
            src_lens: vec![3, 2],
            pad_id: PAD,
        }
    }

    #[test]
    fn shapes_and_units() {
        let model = tiny_model();
        crate::layer::validate_units(&model.weight_units(), model.param_len()).unwrap();
        // Units: 2 embeds + enc (4 attn + 4) + dec (4 + 1 + 4 + 4) + out.
        assert_eq!(model.weight_units().len(), 2 + 8 + 13 + 1);
        let mut rng = StdRng::seed_from_u64(1);
        let mut params = vec![0.0; model.param_len()];
        model.init_params(&mut params, &mut rng);
        let batch = tiny_batch();
        let (loss, _) = model.forward_loss(&params, &batch);
        assert!(loss.is_finite() && loss > 0.0);
    }

    #[test]
    fn model_gradcheck() {
        use crate::gradcheck::check_scalar_fn_gradient;
        let model = tiny_model();
        let mut rng = StdRng::seed_from_u64(2);
        let mut params = vec![0.0; model.param_len()];
        model.init_params(&mut params, &mut rng);
        let batch = tiny_batch();
        let (_, cache) = model.forward_loss(&params, &batch);
        let grads = model.backward(&params, &cache);
        check_scalar_fn_gradient(
            &mut |p| model.forward_loss(p, &batch).0,
            &params,
            &grads,
            2e-3,
            8e-2,
            32,
        );
    }

    #[test]
    fn overfits_single_batch() {
        let model = tiny_model();
        let mut rng = StdRng::seed_from_u64(3);
        let mut params = vec![0.0; model.param_len()];
        model.init_params(&mut params, &mut rng);
        let batch = tiny_batch();
        let (loss0, _) = model.forward_loss(&params, &batch);
        for _ in 0..150 {
            let (_, cache) = model.forward_loss(&params, &batch);
            let grads = model.backward(&params, &cache);
            for (p, g) in params.iter_mut().zip(grads.iter()) {
                *p -= 0.1 * g;
            }
        }
        let (loss1, _) = model.forward_loss(&params, &batch);
        assert!(loss1 < loss0 * 0.1, "loss did not drop: {loss0} -> {loss1}");
    }

    #[test]
    fn greedy_decode_learns_copy_reverse() {
        let model = tiny_model();
        let mut rng = StdRng::seed_from_u64(4);
        let mut params = vec![0.0; model.param_len()];
        model.init_params(&mut params, &mut rng);
        let batch = SeqBatch {
            src: Tensor::from_vec(vec![3.0, 4.0, 5.0], &[1, 3]),
            tgt_in: Tensor::from_vec(vec![1.0, 5.0, 4.0, 3.0], &[1, 4]),
            tgt_out: vec![5, 4, 3, EOS],
            src_lens: vec![3],
            pad_id: PAD,
        };
        for _ in 0..250 {
            let (_, cache) = model.forward_loss(&params, &batch);
            let grads = model.backward(&params, &cache);
            for (p, g) in params.iter_mut().zip(grads.iter()) {
                *p -= 0.1 * g;
            }
        }
        let out = model.greedy_decode(&params, &[3, 4, 5], 8);
        assert_eq!(out, vec![5, 4, 3], "greedy decode failed to reproduce training target");
    }

    #[test]
    fn beam_search_with_width_one_matches_greedy() {
        let model = tiny_model();
        let mut rng = StdRng::seed_from_u64(6);
        let mut params = vec![0.0; model.param_len()];
        model.init_params(&mut params, &mut rng);
        // Even on an untrained model, width-1 beam must equal greedy.
        for src in [[3usize, 4, 5], [5, 3, 4], [4, 4, 3]] {
            let g = model.greedy_decode(&params, &src, 6);
            let b = model.beam_decode(&params, &src, 6, 1);
            assert_eq!(g, b, "beam(1) != greedy for {src:?}");
        }
    }

    #[test]
    fn beam_search_decodes_trained_task() {
        let model = tiny_model();
        let mut rng = StdRng::seed_from_u64(4);
        let mut params = vec![0.0; model.param_len()];
        model.init_params(&mut params, &mut rng);
        let batch = SeqBatch {
            src: Tensor::from_vec(vec![3.0, 4.0, 5.0], &[1, 3]),
            tgt_in: Tensor::from_vec(vec![1.0, 5.0, 4.0, 3.0], &[1, 4]),
            tgt_out: vec![5, 4, 3, EOS],
            src_lens: vec![3],
            pad_id: PAD,
        };
        for _ in 0..250 {
            let (_, cache) = model.forward_loss(&params, &batch);
            let grads = model.backward(&params, &cache);
            for (p, g) in params.iter_mut().zip(grads.iter()) {
                *p -= 0.1 * g;
            }
        }
        let out = model.beam_decode(&params, &[3, 4, 5], 8, 5);
        assert_eq!(out, vec![5, 4, 3], "beam-5 decode failed on trained task");
    }

    #[test]
    fn padding_does_not_affect_loss() {
        // Adding extra padding to the source (with src_lens fixed) must not
        // change the loss.
        let model = tiny_model();
        let mut rng = StdRng::seed_from_u64(5);
        let mut params = vec![0.0; model.param_len()];
        model.init_params(&mut params, &mut rng);
        let b1 = SeqBatch {
            src: Tensor::from_vec(vec![3.0, 4.0, 0.0], &[1, 3]),
            tgt_in: Tensor::from_vec(vec![1.0, 4.0], &[1, 2]),
            tgt_out: vec![4, 3],
            src_lens: vec![2],
            pad_id: PAD,
        };
        let b2 = SeqBatch {
            src: Tensor::from_vec(vec![3.0, 4.0, 0.0, 0.0, 0.0], &[1, 5]),
            ..b1.clone()
        };
        let (l1, _) = model.forward_loss(&params, &b1);
        let (l2, _) = model.forward_loss(&params, &b2);
        assert!((l1 - l2).abs() < 1e-4, "padding changed loss: {l1} vs {l2}");
    }
}

//! Token embedding layer.

use rand::rngs::StdRng;

use pipemare_tensor::Tensor;

use crate::cache::Cache;
use crate::layer::{Layer, WeightUnit};

/// A lookup-table embedding: token ids `(B, T)` → vectors `(B, T, D)`.
///
/// Token ids are carried in an `f32` tensor (exact for ids below 2²⁴);
/// the layer rounds to the nearest integer on lookup.
#[derive(Clone, Copy, Debug)]
pub struct Embedding {
    /// Vocabulary size.
    pub vocab: usize,
    /// Embedding dimension.
    pub dim: usize,
    /// Scale applied to looked-up vectors (Transformers use `√dim`).
    pub scale: f32,
}

impl Embedding {
    /// Creates an embedding with no output scaling.
    pub fn new(vocab: usize, dim: usize) -> Self {
        Embedding { vocab, dim, scale: 1.0 }
    }

    /// Creates an embedding scaled by `√dim` (Transformer convention).
    pub fn new_scaled(vocab: usize, dim: usize) -> Self {
        Embedding { vocab, dim, scale: (dim as f32).sqrt() }
    }

    fn ids_of(&self, x: &Tensor) -> Vec<usize> {
        x.data()
            .iter()
            .map(|&v| {
                let id = v.round() as usize;
                assert!(
                    id < self.vocab,
                    "Embedding: token id {id} out of range (vocab {})",
                    self.vocab
                );
                id
            })
            .collect()
    }

    /// Both passes: the scaled rows of `ids`, shaped `(shape..., dim)`.
    fn lookup(&self, params: &[f32], ids: &[usize], shape: &[usize]) -> Tensor {
        let mut out_shape = shape.to_vec();
        out_shape.push(self.dim);
        let mut y = Tensor::zeros(&out_shape);
        for (k, &id) in ids.iter().enumerate() {
            let src = &params[id * self.dim..(id + 1) * self.dim];
            let dst = &mut y.data_mut()[k * self.dim..(k + 1) * self.dim];
            for (d, &s) in dst.iter_mut().zip(src.iter()) {
                *d = s * self.scale;
            }
        }
        y
    }
}

impl Layer for Embedding {
    fn param_len(&self) -> usize {
        self.vocab * self.dim
    }

    fn init_params(&self, out: &mut [f32], rng: &mut StdRng) {
        // N(0, 1/sqrt(dim)) keeps scaled outputs at unit variance.
        let t = Tensor::randn(&[self.param_len()], rng).scale(1.0 / (self.dim as f32).sqrt());
        out.copy_from_slice(t.data());
    }

    fn forward(&self, params: &[f32], x: &Tensor) -> (Tensor, Cache) {
        let ids = self.ids_of(x);
        let y = self.lookup(params, &ids, x.shape());
        (y, Cache { indices: ids, ..Cache::default() })
    }

    fn forward_no_cache(&self, params: &[f32], x: &Tensor) -> Tensor {
        self.lookup(params, &self.ids_of(x), x.shape())
    }

    fn backward_into(&self, _: &[f32], cache: &Cache, dy: &Tensor, grads: &mut [f32]) -> Tensor {
        for (k, &id) in cache.indices.iter().enumerate() {
            let src = &dy.data()[k * self.dim..(k + 1) * self.dim];
            let dst = &mut grads[id * self.dim..(id + 1) * self.dim];
            for (g, &s) in dst.iter_mut().zip(src.iter()) {
                *g += s * self.scale;
            }
        }
        // Token ids carry no gradient.
        Tensor::zeros(&dy.shape()[..dy.ndim() - 1])
    }

    fn weight_units(&self) -> Vec<WeightUnit> {
        vec![WeightUnit { name: "embed".into(), offset: 0, len: self.param_len() }]
    }

    fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        let mut out = input.to_vec();
        out.push(self.dim);
        out
    }
}

/// Adds fixed sinusoidal positional encodings to `(B, T, D)` inputs
/// (Vaswani et al. 2017). Parameterless.
#[derive(Clone, Copy, Debug)]
pub struct PositionalEncoding {
    /// Model dimension.
    pub dim: usize,
}

impl PositionalEncoding {
    /// Creates a positional encoding for dimension `dim`.
    pub fn new(dim: usize) -> Self {
        PositionalEncoding { dim }
    }

    /// The encoding value at position `pos`, channel `i`.
    pub fn value(&self, pos: usize, i: usize) -> f32 {
        let exponent = (2 * (i / 2)) as f32 / self.dim as f32;
        let freq = 1.0 / 10_000f32.powf(exponent);
        let angle = pos as f32 * freq;
        if i.is_multiple_of(2) {
            angle.sin()
        } else {
            angle.cos()
        }
    }

    /// Adds encodings in place to a `(B, T, D)` tensor.
    pub fn add_to(&self, x: &mut Tensor) {
        assert_eq!(x.ndim(), 3, "PositionalEncoding expects (B,T,D)");
        let (b, t, d) = (x.shape()[0], x.shape()[1], x.shape()[2]);
        assert_eq!(d, self.dim);
        for bi in 0..b {
            for ti in 0..t {
                for di in 0..d {
                    x.data_mut()[(bi * t + ti) * d + di] += self.value(ti, di);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn lookup_and_scale() {
        let e = Embedding { vocab: 3, dim: 2, scale: 2.0 };
        let params = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let x = Tensor::from_vec(vec![2.0, 0.0], &[1, 2]);
        let (y, _) = e.forward(&params, &x);
        assert_eq!(y.shape(), &[1, 2, 2]);
        assert_eq!(y.data(), &[10.0, 12.0, 2.0, 4.0]);
    }

    #[test]
    fn backward_accumulates_repeated_tokens() {
        let e = Embedding::new(4, 2);
        let params = vec![0.0; e.param_len()];
        let x = Tensor::from_vec(vec![1.0, 1.0, 3.0], &[1, 3]);
        let (_, cache) = e.forward(&params, &x);
        let dy = Tensor::full(&[1, 3, 2], 1.0);
        let (_, grads) = e.backward(&params, &cache, &dy);
        // Token 1 appears twice: gradient 2 per channel.
        assert_eq!(&grads[2..4], &[2.0, 2.0]);
        assert_eq!(&grads[6..8], &[1.0, 1.0]);
        assert_eq!(&grads[0..2], &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_vocab() {
        let e = Embedding::new(2, 2);
        let params = vec![0.0; 4];
        e.forward(&params, &Tensor::from_vec(vec![5.0], &[1, 1]));
    }

    #[test]
    fn embedding_grad_matches_finite_difference() {
        use crate::gradcheck::check_scalar_fn_gradient;
        let e = Embedding::new(5, 3);
        let mut rng = StdRng::seed_from_u64(9);
        let mut params = vec![0.0; e.param_len()];
        e.init_params(&mut params, &mut rng);
        let x = Tensor::from_vec(vec![0.0, 2.0, 2.0, 4.0], &[2, 2]);
        let (y, cache) = e.forward(&params, &x);
        let (_, grads) = e.backward(&params, &cache, &y);
        check_scalar_fn_gradient(
            &mut |p| {
                let (y, _) = e.forward(p, &x);
                0.5 * y.sq_norm()
            },
            &params,
            &grads,
            1e-2,
            3e-2,
            16,
        );
    }

    #[test]
    fn positional_encoding_basics() {
        let pe = PositionalEncoding::new(4);
        // Position 0: sin(0)=0 for even channels, cos(0)=1 for odd.
        assert_eq!(pe.value(0, 0), 0.0);
        assert_eq!(pe.value(0, 1), 1.0);
        let mut x = Tensor::zeros(&[1, 2, 4]);
        pe.add_to(&mut x);
        assert_eq!(x.at(&[0, 0, 1]), 1.0);
        assert!((x.at(&[0, 1, 0]) - 1f32.sin()).abs() < 1e-6);
    }
}

//! Gaussian-prototype synthetic image classification datasets.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pipemare_tensor::Tensor;

/// Generator configuration for [`ImageDataset`].
///
/// Each class gets a smooth random prototype image; samples are the
/// prototype plus white noise plus a random brightness jitter. The
/// signal-to-noise ratio controls task difficulty.
#[derive(Clone, Copy, Debug)]
pub struct SyntheticImages {
    /// Number of classes.
    pub classes: usize,
    /// Image channels.
    pub channels: usize,
    /// Image height/width (square).
    pub size: usize,
    /// Training samples.
    pub train: usize,
    /// Test samples.
    pub test: usize,
    /// Noise standard deviation added to prototypes.
    pub noise: f32,
    /// RNG seed.
    pub seed: u64,
}

impl SyntheticImages {
    /// The CIFAR10-like stand-in: 10 classes of 3×16×16 images.
    pub fn cifar_like(train: usize, test: usize, seed: u64) -> Self {
        SyntheticImages { classes: 10, channels: 3, size: 16, train, test, noise: 0.7, seed }
    }

    /// The ImageNet-like stand-in: more classes, same geometry, noisier.
    pub fn imagenet_like(train: usize, test: usize, seed: u64) -> Self {
        SyntheticImages { classes: 20, channels: 3, size: 16, train, test, noise: 0.9, seed }
    }

    /// Generates the dataset.
    pub fn generate(&self) -> ImageDataset {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let (c, s) = (self.channels, self.size);
        // Smooth prototypes: random low-frequency sinusoids per channel.
        let mut prototypes = Vec::with_capacity(self.classes);
        for _ in 0..self.classes {
            let mut proto = Tensor::zeros(&[c, s, s]);
            for ci in 0..c {
                let (fx, fy) = (rng.gen_range(0.5..2.5f32), rng.gen_range(0.5..2.5f32));
                let (px, py) = (
                    rng.gen_range(0.0..std::f32::consts::TAU),
                    rng.gen_range(0.0..std::f32::consts::TAU),
                );
                let amp = rng.gen_range(0.8..1.6f32);
                for y in 0..s {
                    for x in 0..s {
                        let v = amp
                            * ((fx * x as f32 / s as f32 * std::f32::consts::TAU + px).sin()
                                + (fy * y as f32 / s as f32 * std::f32::consts::TAU + py).cos());
                        proto.data_mut()[(ci * s + y) * s + x] = v;
                    }
                }
            }
            prototypes.push(proto);
        }
        let make_split = |n: usize, rng: &mut StdRng| {
            let mut x = Tensor::zeros(&[n, c, s, s]);
            let mut y = Vec::with_capacity(n);
            let img_len = c * s * s;
            for i in 0..n {
                let label = i % self.classes;
                y.push(label);
                let jitter = rng.gen_range(-0.2..0.2f32);
                let noise = Tensor::randn(&[img_len], rng).scale(self.noise);
                for j in 0..img_len {
                    x.data_mut()[i * img_len + j] =
                        prototypes[label].data()[j] + noise.data()[j] + jitter;
                }
            }
            (x, y)
        };
        let (train_x, train_y) = make_split(self.train, &mut rng);
        let (test_x, test_y) = make_split(self.test, &mut rng);
        ImageDataset { train_x, train_y, test_x, test_y, classes: self.classes }
    }
}

/// A generated image-classification dataset with train/test splits.
#[derive(Clone, Debug)]
pub struct ImageDataset {
    /// Training images `(N, C, H, W)`.
    pub train_x: Tensor,
    /// Training labels.
    pub train_y: Vec<usize>,
    /// Test images.
    pub test_x: Tensor,
    /// Test labels.
    pub test_y: Vec<usize>,
    /// Number of classes.
    pub classes: usize,
}

impl ImageDataset {
    /// Number of training samples.
    pub fn train_len(&self) -> usize {
        self.train_y.len()
    }

    /// Extracts training samples `[start, start+count)` as a batch.
    pub fn train_batch(&self, indices: &[usize]) -> (Tensor, Vec<usize>) {
        gather(&self.train_x, &self.train_y, indices)
    }

    /// Extracts the full test split as a batch.
    pub fn test_batch(&self) -> (Tensor, Vec<usize>) {
        (self.test_x.clone(), self.test_y.clone())
    }
}

fn gather(x: &Tensor, y: &[usize], indices: &[usize]) -> (Tensor, Vec<usize>) {
    let dims = x.shape();
    let inner: usize = dims[1..].iter().product();
    let mut out_dims = dims.to_vec();
    out_dims[0] = indices.len();
    let mut bx = Tensor::zeros(&out_dims);
    let mut by = Vec::with_capacity(indices.len());
    for (k, &i) in indices.iter().enumerate() {
        bx.data_mut()[k * inner..(k + 1) * inner]
            .copy_from_slice(&x.data()[i * inner..(i + 1) * inner]);
        by.push(y[i]);
    }
    (bx, by)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = SyntheticImages::cifar_like(20, 10, 7);
        let a = spec.generate();
        let b = spec.generate();
        assert_eq!(a.train_x, b.train_x);
        assert_eq!(a.test_y, b.test_y);
    }

    #[test]
    fn shapes_and_label_coverage() {
        let ds = SyntheticImages::cifar_like(30, 20, 1).generate();
        assert_eq!(ds.train_x.shape(), &[30, 3, 16, 16]);
        assert_eq!(ds.test_x.shape(), &[20, 3, 16, 16]);
        // Round-robin labels cover all classes.
        for c in 0..10 {
            assert!(ds.train_y.contains(&c));
        }
    }

    #[test]
    fn same_class_samples_are_correlated() {
        let ds = SyntheticImages::cifar_like(20, 0, 3).generate();
        // Samples 0 and 10 share class 0; samples 0 and 1 do not.
        let img_len = 3 * 16 * 16;
        let a = &ds.train_x.data()[0..img_len];
        let same = &ds.train_x.data()[10 * img_len..11 * img_len];
        let diff = &ds.train_x.data()[img_len..2 * img_len];
        let corr = |u: &[f32], v: &[f32]| {
            let dot: f32 = u.iter().zip(v).map(|(&a, &b)| a * b).sum();
            let nu: f32 = u.iter().map(|&a| a * a).sum::<f32>().sqrt();
            let nv: f32 = v.iter().map(|&a| a * a).sum::<f32>().sqrt();
            dot / (nu * nv)
        };
        assert!(corr(a, same) > corr(a, diff) + 0.1, "class structure too weak");
    }

    #[test]
    fn batch_gather() {
        let ds = SyntheticImages::cifar_like(10, 5, 2).generate();
        let (bx, by) = ds.train_batch(&[3, 7]);
        assert_eq!(bx.shape(), &[2, 3, 16, 16]);
        assert_eq!(by, vec![ds.train_y[3], ds.train_y[7]]);
        let img_len = 3 * 16 * 16;
        assert_eq!(&bx.data()[..img_len], &ds.train_x.data()[3 * img_len..4 * img_len]);
    }
}

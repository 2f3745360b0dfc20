//! Minibatch index iteration with per-epoch shuffling.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Yields shuffled minibatch index lists over a dataset, epoch after
/// epoch, deterministically from a seed.
#[derive(Clone, Debug)]
pub struct MinibatchIter {
    n: usize,
    batch: usize,
    rng: StdRng,
    order: Vec<usize>,
    cursor: usize,
    epoch: usize,
}

impl MinibatchIter {
    /// Creates an iterator over `n` samples with the given minibatch size.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0` or `n == 0`.
    pub fn new(n: usize, batch: usize, seed: u64) -> Self {
        assert!(batch > 0, "minibatch size must be positive");
        assert!(n > 0, "dataset must be non-empty");
        let mut it = MinibatchIter {
            n,
            batch,
            rng: StdRng::seed_from_u64(seed),
            order: (0..n).collect(),
            cursor: 0,
            epoch: 0,
        };
        it.order.shuffle(&mut it.rng);
        it
    }

    /// Completed epochs.
    pub fn epoch(&self) -> usize {
        self.epoch
    }

    /// Minibatches per epoch. A final partial batch is kept: the count
    /// is `⌈n / batch⌉`.
    pub fn batches_per_epoch(&self) -> usize {
        self.n.div_ceil(self.batch)
    }

    /// Returns the next minibatch's sample indices, reshuffling at epoch
    /// boundaries.
    pub fn next_batch(&mut self) -> Vec<usize> {
        if self.cursor >= self.n {
            self.cursor = 0;
            self.epoch += 1;
            self.order.shuffle(&mut self.rng);
        }
        let end = (self.cursor + self.batch).min(self.n);
        let out = self.order[self.cursor..end].to_vec();
        self.cursor = end;
        out
    }
}

/// Splits a minibatch index list into `n_micro` microbatches of
/// (nearly) equal size, preserving order. Later microbatches may be one
/// element smaller.
pub fn split_microbatches(indices: &[usize], n_micro: usize) -> Vec<Vec<usize>> {
    assert!(n_micro > 0, "n_micro must be positive");
    let n = indices.len();
    let m = n_micro.min(n.max(1));
    let base = n / m;
    let extra = n % m;
    let mut out = Vec::with_capacity(m);
    let mut cursor = 0;
    for k in 0..m {
        let len = base + usize::from(k < extra);
        out.push(indices[cursor..cursor + len].to_vec());
        cursor += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_every_sample_each_epoch() {
        let mut it = MinibatchIter::new(10, 3, 1);
        let mut seen = Vec::new();
        for _ in 0..it.batches_per_epoch() {
            seen.extend(it.next_batch());
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        assert_eq!(it.epoch(), 0);
        it.next_batch();
        assert_eq!(it.epoch(), 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = MinibatchIter::new(20, 4, 9);
        let mut b = MinibatchIter::new(20, 4, 9);
        for _ in 0..10 {
            assert_eq!(a.next_batch(), b.next_batch());
        }
    }

    #[test]
    fn shuffles_between_epochs() {
        let mut it = MinibatchIter::new(50, 50, 2);
        let e0 = it.next_batch();
        let e1 = it.next_batch();
        assert_ne!(e0, e1, "epochs should be differently shuffled");
    }

    #[test]
    fn microbatch_split_sizes() {
        let idx: Vec<usize> = (0..10).collect();
        let micro = split_microbatches(&idx, 3);
        assert_eq!(micro.len(), 3);
        assert_eq!(micro[0].len(), 4);
        assert_eq!(micro[1].len(), 3);
        assert_eq!(micro[2].len(), 3);
        let flat: Vec<usize> = micro.concat();
        assert_eq!(flat, idx);
    }

    #[test]
    fn microbatch_more_splits_than_samples() {
        let idx = vec![1, 2];
        let micro = split_microbatches(&idx, 5);
        assert_eq!(micro.len(), 2);
        assert_eq!(micro.concat(), idx);
    }
}

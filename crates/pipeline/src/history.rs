//! Ring buffer of recent weight versions, with optional bf16 storage
//! for the delayed (non-latest) versions.

use std::borrow::Cow;
use std::collections::VecDeque;

use pipemare_tensor::{bf16, StoragePrecision};

/// One retained version: full f32 or bf16-compressed storage.
#[derive(Clone, Debug)]
enum Stored {
    F32(Vec<f32>),
    Bf16(Vec<u16>),
}

/// Stores the most recent weight versions, addressed by version number.
///
/// This mirrors the queue-of-weights the paper's simulator keeps per
/// stage (App. C.4); here one buffer holds full parameter vectors and the
/// trainer slices out per-stage ranges, which is equivalent and simpler.
/// Requests older than the retained window clamp to the oldest version
/// (which only happens in the first few minibatches, where the delay
/// formulas clamp to version 0 anyway).
///
/// # bf16 storage
///
/// With [`StoragePrecision::Bf16`], the **latest** version always stays
/// f32 — it is the master copy the optimizer reads and writes, so the
/// update itself never quantizes. When a new version is pushed, the
/// previous latest is demoted to bf16 (one deterministic
/// round-to-nearest-even per element), halving the footprint of every
/// version behind the pipeline delay. Delayed reads then see weights
/// carrying at most [`pipemare_tensor::BF16_REL_EPS`] relative rounding
/// error — exactly the `ε` the health monitor's quantization-aware
/// margins account for.
#[derive(Clone, Debug)]
pub struct WeightHistory {
    versions: VecDeque<(usize, Stored)>,
    capacity: usize,
    precision: StoragePrecision,
}

impl WeightHistory {
    /// Creates a history whose non-latest versions are stored at
    /// `precision`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn with_precision(capacity: usize, initial: Vec<f32>, precision: StoragePrecision) -> Self {
        assert!(capacity > 0, "history capacity must be positive");
        let mut versions = VecDeque::with_capacity(capacity + 1);
        versions.push_back((0, Stored::F32(initial)));
        WeightHistory { versions, capacity, precision }
    }

    /// Records a new version. Versions must be pushed in increasing
    /// consecutive order. Under bf16 storage the previously-latest
    /// version is demoted to bf16 here (the push step is the one
    /// deterministic point where quantization happens).
    ///
    /// # Panics
    ///
    /// Panics if `version` is not `latest + 1`.
    pub fn push(&mut self, version: usize, params: Vec<f32>) {
        let latest = self.latest_version();
        assert_eq!(version, latest + 1, "pushed version {version}, expected {}", latest + 1);
        let (_, last) = self.versions.back_mut().expect("history never empty");
        if let (StoragePrecision::Bf16, Stored::F32(full)) = (self.precision, &*last) {
            *last = Stored::Bf16(bf16::encode_slice(full));
        }
        self.versions.push_back((version, Stored::F32(params)));
        while self.versions.len() > self.capacity {
            self.versions.pop_front();
        }
    }

    /// Takes the oldest version out of a full window ahead of the push
    /// that would evict it, handing back its buffer for the caller to
    /// build the next version in. `None`, and nothing removed, while the
    /// window is still filling, when it keeps a single version, or when
    /// the oldest version is stored in bf16.
    pub fn recycle_oldest(&mut self) -> Option<Vec<f32>> {
        let full = self.versions.len() == self.capacity && self.capacity > 1;
        if full && matches!(self.versions.front(), Some((_, Stored::F32(_)))) {
            if let Some((_, Stored::F32(oldest))) = self.versions.pop_front() {
                return Some(oldest);
            }
        }
        None
    }

    /// How many versions the window retains at most.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether `version` is inside the retained window. Reads outside
    /// it clamp to the nearest retained version; a caller for whom that
    /// would be a wrong answer checks first.
    pub fn holds(&self, version: usize) -> bool {
        let oldest = self.versions.front().expect("history never empty").0;
        (oldest..=self.latest_version()).contains(&version)
    }

    /// The newest recorded version number.
    pub fn latest_version(&self) -> usize {
        self.versions.back().expect("history never empty").0
    }

    /// The newest parameter vector — always full f32, the master copy.
    pub fn latest(&self) -> &[f32] {
        match &self.versions.back().expect("history never empty").1 {
            Stored::F32(v) => v,
            Stored::Bf16(_) => unreachable!("latest version is always stored f32"),
        }
    }

    /// The parameter vector at `version`, clamped to the retained
    /// window. Borrowed for f32-stored versions; bf16-stored versions
    /// are widened (exactly) into an owned vector.
    pub fn get(&self, version: usize) -> Cow<'_, [f32]> {
        match &self.entry(version).1 {
            Stored::F32(v) => Cow::Borrowed(v.as_slice()),
            Stored::Bf16(v) => Cow::Owned(bf16::decode_slice(v)),
        }
    }

    /// Copies `version[lo..hi]` into `dst` without materializing the
    /// whole vector — the trainer's per-stage assemble path.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or `dst` is not `hi - lo`
    /// long.
    pub fn copy_range(&self, version: usize, lo: usize, hi: usize, dst: &mut [f32]) {
        assert_eq!(dst.len(), hi - lo, "copy_range destination length mismatch");
        match &self.entry(version).1 {
            Stored::F32(v) => dst.copy_from_slice(&v[lo..hi]),
            Stored::Bf16(v) => bf16::decode_into(&v[lo..hi], dst),
        }
    }

    /// The raw bf16 storage of `version` (clamped), when it is
    /// bf16-stored — lets the comms layer ship the stored bits verbatim
    /// (widening on the far side is exact, so the wire adds no error).
    pub fn stored_bf16(&self, version: usize) -> Option<&[u16]> {
        match &self.entry(version).1 {
            Stored::F32(_) => None,
            Stored::Bf16(v) => Some(v),
        }
    }

    fn entry(&self, version: usize) -> &(usize, Stored) {
        let oldest = self.versions.front().expect("history never empty").0;
        let v = version.clamp(oldest, self.latest_version());
        &self.versions[v - oldest]
    }

    /// Bytes the retained window occupies (the quantity bf16 storage
    /// halves; reported by benches and memory accounting).
    pub fn storage_bytes(&self) -> usize {
        let bytes = |s: &Stored| match s {
            Stored::F32(v) => 4 * v.len(),
            Stored::Bf16(v) => 2 * v.len(),
        };
        self.versions.iter().map(|(_, s)| bytes(s)).sum()
    }

    /// All retained versions, oldest first — the checkpointing snapshot.
    /// Resuming an asynchronous run needs the whole window, not just the
    /// latest vector: the next minibatches read delayed versions.
    /// bf16-stored versions are widened to f32 (exact), so the
    /// checkpoint format is precision-independent; restoring into a bf16
    /// history re-encodes them, which is the identity on
    /// bf16-representable values — a round-trip is bit-lossless.
    pub fn snapshot(&self) -> Vec<(usize, Vec<f32>)> {
        self.versions
            .iter()
            .map(|(v, s)| {
                let full = match s {
                    Stored::F32(w) => w.clone(),
                    Stored::Bf16(w) => bf16::decode_slice(w),
                };
                (*v, full)
            })
            .collect()
    }

    /// Rebuilds a history from a [`WeightHistory::snapshot`] at the given
    /// storage precision (all but the newest version are re-encoded).
    ///
    /// # Panics
    ///
    /// Panics if `versions` is empty, not consecutively numbered, or
    /// longer than `capacity`.
    pub fn from_versions_with_precision(
        capacity: usize,
        versions: Vec<(usize, Vec<f32>)>,
        precision: StoragePrecision,
    ) -> Self {
        assert!(capacity > 0, "history capacity must be positive");
        assert!(!versions.is_empty(), "snapshot must hold at least one version");
        assert!(versions.len() <= capacity, "snapshot larger than history capacity");
        for w in versions.windows(2) {
            assert_eq!(w[1].0, w[0].0 + 1, "snapshot versions must be consecutive");
        }
        let newest = versions.len() - 1;
        let versions = versions
            .into_iter()
            .enumerate()
            .map(|(i, (v, w))| {
                let stored = if precision == StoragePrecision::Bf16 && i != newest {
                    Stored::Bf16(bf16::encode_slice(&w))
                } else {
                    Stored::F32(w)
                };
                (v, stored)
            })
            .collect();
        WeightHistory { versions, capacity, precision }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get() {
        let mut h = WeightHistory::with_precision(3, vec![0.0], StoragePrecision::F32);
        h.push(1, vec![1.0]);
        h.push(2, vec![2.0]);
        assert_eq!(&*h.get(0), &[0.0]);
        assert_eq!(&*h.get(1), &[1.0]);
        assert_eq!(&*h.get(2), &[2.0]);
        assert_eq!(h.latest(), &[2.0]);
        assert_eq!(h.latest_version(), 2);
    }

    #[test]
    fn eviction_clamps_to_oldest() {
        let mut h = WeightHistory::with_precision(2, vec![0.0], StoragePrecision::F32);
        h.push(1, vec![1.0]);
        h.push(2, vec![2.0]); // evicts version 0
        assert!(!h.holds(0) && h.holds(1));
        assert_eq!(&*h.get(0), &[1.0], "evicted request clamps to oldest");
        assert_eq!(&*h.get(99), &[2.0], "future request clamps to latest");
    }

    #[test]
    #[should_panic(expected = "expected 1")]
    fn non_consecutive_push_rejected() {
        let mut h = WeightHistory::with_precision(3, vec![0.0], StoragePrecision::F32);
        h.push(2, vec![2.0]);
    }

    #[test]
    fn snapshot_roundtrip_preserves_window() {
        let mut h = WeightHistory::with_precision(3, vec![0.0], StoragePrecision::F32);
        for v in 1..=4 {
            h.push(v, vec![v as f32]);
        }
        let snap = h.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].0, 2, "oldest retained version");
        let r = WeightHistory::from_versions_with_precision(3, snap, StoragePrecision::F32);
        assert_eq!(r.latest_version(), 4);
        assert_eq!(r.get(2), h.get(2));
        assert_eq!(r.get(0), r.get(2), "clamping matches the original window");
    }

    #[test]
    #[should_panic(expected = "consecutive")]
    fn from_versions_rejects_gaps() {
        WeightHistory::from_versions_with_precision(
            3,
            vec![(0, vec![0.0]), (2, vec![2.0])],
            StoragePrecision::F32,
        );
    }

    #[test]
    fn bf16_latest_stays_exact_and_older_versions_round() {
        let exactish = vec![1.0f32, -2.5, 0.03125];
        let noisy = vec![0.1f32, 1.0 / 3.0, std::f32::consts::PI];
        let mut h = WeightHistory::with_precision(3, exactish.clone(), StoragePrecision::Bf16);
        h.push(1, noisy.clone());
        // Latest is the exact f32 master.
        assert_eq!(h.latest(), noisy.as_slice());
        assert!(h.stored_bf16(1).is_none(), "latest is never bf16-stored");
        // Version 0 was demoted at push time: bf16-rounded, error-bounded.
        assert!(h.stored_bf16(0).is_some());
        for (got, want) in h.get(0).iter().zip(exactish.iter()) {
            assert!((got - want).abs() <= pipemare_tensor::BF16_REL_EPS * want.abs());
        }
        h.push(2, vec![7.0, 8.0, 9.0]);
        // The noisy vector is now demoted; widened values re-encode
        // identically (bf16 → f32 → bf16 is the identity).
        let stored = h.stored_bf16(1).unwrap().to_vec();
        assert_eq!(pipemare_tensor::bf16::encode_slice(&h.get(1)), stored);
    }

    #[test]
    fn bf16_storage_bytes_halve_old_versions() {
        let n = 1000;
        let mut f = WeightHistory::with_precision(3, vec![1.0; n], StoragePrecision::F32);
        let mut b = WeightHistory::with_precision(3, vec![1.0; n], StoragePrecision::Bf16);
        for v in 1..=2 {
            f.push(v, vec![v as f32; n]);
            b.push(v, vec![v as f32; n]);
        }
        assert_eq!(f.storage_bytes(), 3 * n * 4);
        // Two demoted versions at 2 bytes + the f32 master.
        assert_eq!(b.storage_bytes(), 2 * n * 2 + n * 4);
    }

    #[test]
    fn bf16_copy_range_decodes_only_the_slice() {
        let w: Vec<f32> = (0..10).map(|i| i as f32 * 0.7).collect();
        let mut h = WeightHistory::with_precision(2, w.clone(), StoragePrecision::Bf16);
        h.push(1, vec![0.0; 10]);
        let mut dst = vec![0.0f32; 4];
        h.copy_range(0, 3, 7, &mut dst);
        assert_eq!(dst, h.get(0)[3..7].to_vec());
    }

    #[test]
    fn bf16_snapshot_restore_is_bit_lossless() {
        let w: Vec<f32> = (0..64).map(|i| (i as f32).sin()).collect();
        let mut h = WeightHistory::with_precision(3, w, StoragePrecision::Bf16);
        h.push(1, (0..64).map(|i| (i as f32).cos()).collect());
        h.push(2, (0..64).map(|i| i as f32 * 0.01).collect());
        let snap = h.snapshot();
        let r = WeightHistory::from_versions_with_precision(3, snap, StoragePrecision::Bf16);
        for v in 0..=2 {
            assert_eq!(
                h.get(v).iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                r.get(v).iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "version {v} must survive snapshot → restore bit-exactly"
            );
            assert_eq!(h.stored_bf16(v).is_some(), r.stored_bf16(v).is_some());
        }
    }
}

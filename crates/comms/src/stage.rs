//! Worker-side weight-shard state machine, and the read plan both ends
//! of a link share.
//!
//! A [`ShardStage`] owns one stage's slice of the parameter vector: its
//! version history, optimizer slice, and T2 velocity buffer δ. It
//! answers [`crate::protocol::PassKind`] fetches with exactly the
//! delayed/corrected weight versions the in-process
//! `PipelineTrainer` would assemble, and applies optimizer updates via
//! a stage-then-commit protocol so the orchestrator can revert a
//! diverged step across all shards atomically.
//!
//! # One plan, two callers
//!
//! Which stored version a pass reads, and whether it is extrapolated
//! along δ, is decided by [`plan`] — a pure function of the stage's
//! config, the pipeline clock and `(step, micro, pass)`. The worker
//! calls it to serve a fetch; the driver calls the same function to
//! learn, without asking, *what* a fetch would return. That knowledge
//! is the [`ContentTag`]:
//!
//! * `version` — weight versions are immutable once committed, and a
//!   revert still advances the version, so a number never names two
//!   vectors;
//! * the T2 term, when the read is extrapolated: the gap's bits and the
//!   step whose δ it is taken along (δ changes at every commit, so the
//!   same version and gap read in a later step is different content);
//! * `as_latest` — under bf16 storage version `v` read while it is the
//!   f32 master differs from `v` read after its demotion to bf16, so
//!   the tag records which side of the demotion the read fell on (it is
//!   constant under f32 storage, where demotion changes nothing).
//!
//! Two reads of one stage with equal tags return equal bytes, so the
//! driver keeps what it already holds and fetches each distinct tag
//! once.
//!
//! Bit-identity contract: every floating-point operation here mirrors
//! `pipemare_core::PipelineTrainer::train_minibatch` operation for
//! operation (same f64→f32 casts, same element order), so a distributed
//! run with pinned seeds reproduces the in-process run bit for bit.

use pipemare_optim::Optimizer;
use pipemare_pipeline::{Method, PipelineClock, WeightHistory};
use pipemare_tensor::{bf16, StoragePrecision};

use crate::codec::{encode_dense, encode_dense_bf16, Writer};
use crate::error::CommsError;
use crate::protocol::{PassKind, StageConfig, PROTOCOL_VERSION};

/// What one pass reads: a stored weight version, optionally
/// extrapolated along δ by `gap` steps (T2). A `None` gap means the
/// stored version is served untouched.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReadPlan {
    /// Stored weight version.
    pub version: usize,
    /// T2 extrapolation gap in optimizer steps.
    pub gap: Option<f64>,
}

/// Identity of the values a fetch returns (see the module docs): equal
/// tags on one stage mean equal bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct ContentTag {
    version: u64,
    /// `(gap bits, step whose δ is used)` of an extrapolated read.
    t2: Option<(u64, u64)>,
    as_latest: bool,
}

impl ReadPlan {
    /// The content tag of this read when served at `step` (the number
    /// of steps the stage has committed).
    pub fn tag(&self, cfg: &StageConfig, step: u64) -> ContentTag {
        ContentTag {
            version: self.version as u64,
            t2: self.gap.map(|g| (g.to_bits(), step)),
            as_latest: cfg.weight_storage == StoragePrecision::Bf16 && self.version as u64 == step,
        }
    }
}

/// Resolves one pass of `(step, micro)` at the stage `cfg` describes to
/// the version and T2 correction the in-process trainer would use.
/// `step` is the number of steps the stage has committed; for
/// [`PassKind::Latest`] nothing else matters.
///
/// # Errors
///
/// [`CommsError::Protocol`] for a microbatch index out of range or a
/// recompute read on a stage configured without recomputation.
pub fn plan(
    cfg: &StageConfig,
    clock: &PipelineClock,
    step: u64,
    micro: u32,
    pass: PassKind,
) -> Result<ReadPlan, CommsError> {
    if pass != PassKind::Latest && micro >= cfg.n_micro {
        return Err(CommsError::Protocol(format!(
            "stage {}: microbatch {micro} out of range ({} per step)",
            cfg.stage, cfg.n_micro
        )));
    }
    let t = step as usize;
    let n = micro as usize;
    let s = cfg.stage as usize;
    let sync_phase = step < cfg.warmup_steps;
    let t2_on = cfg.t2_decay.is_some();
    match pass {
        PassKind::Latest => Ok(ReadPlan { version: t, gap: None }),
        PassKind::Fwd => {
            let version = if sync_phase { t } else { clock.fwd_version(cfg.method, t, n, s) };
            Ok(ReadPlan { version, gap: None })
        }
        PassKind::Bkwd => {
            let version = if sync_phase { t } else { clock.bkwd_version(cfg.method, t, n, s) };
            // T2: extrapolate toward the forward version along δ
            // (τ_bkwd = 0 for PipeMare, so the gap is τ_fwd).
            let gap = (!sync_phase && cfg.method == Method::PipeMare && t2_on)
                .then(|| clock.nominal_tau_fwd(s));
            Ok(ReadPlan { version, gap })
        }
        PassKind::Recomp => {
            let slots = cfg.recomp_slots.ok_or_else(|| {
                CommsError::Protocol(format!(
                    "stage {}: recompute fetch but no recompute configured",
                    cfg.stage
                ))
            })? as usize;
            let n_micro = cfg.n_micro as usize;
            let m = (t * n_micro + n) as i64 - slots as i64;
            let version = m.div_euclid(n_micro as i64).clamp(0, t as i64) as usize;
            let gap = if cfg.recomp_t2 && t2_on {
                let g = clock.nominal_tau_fwd(s) - slots as f64 / n_micro as f64;
                (g > 0.0).then_some(g)
            } else {
                None
            };
            Ok(ReadPlan { version, gap })
        }
    }
}

/// One pipeline stage's shard of the model: weight-version history,
/// optimizer state, and T2 velocity, all shard-sized.
pub struct ShardStage {
    cfg: StageConfig,
    clock: PipelineClock,
    history: WeightHistory,
    opt: Optimizer,
    /// T2 velocity buffer δ for this shard.
    delta: Vec<f32>,
    /// Post-optimizer weights awaiting commit: `(step, values)`.
    staged: Option<(u64, Vec<f32>)>,
    /// Next step this shard expects (= number of committed steps).
    committed: u64,
}

impl ShardStage {
    /// Validates a handshake config without committing any state — the
    /// worker runs this at Hello time, before the init shard arrives, so
    /// version/shape mismatches are reported in the handshake reply.
    pub fn validate(cfg: &StageConfig) -> Result<(), CommsError> {
        if cfg.protocol != PROTOCOL_VERSION {
            return Err(CommsError::Handshake(format!(
                "protocol mismatch: orchestrator speaks v{}, worker speaks v{}",
                cfg.protocol, PROTOCOL_VERSION
            )));
        }
        if cfg.stage >= cfg.stages {
            return Err(CommsError::Handshake(format!(
                "stage id {} out of range for {} stages",
                cfg.stage, cfg.stages
            )));
        }
        if cfg.n_micro == 0 || cfg.stages == 0 {
            return Err(CommsError::Handshake("stages and n_micro must be positive".into()));
        }
        if cfg.shard_lo >= cfg.shard_hi || cfg.shard_hi > cfg.param_len {
            return Err(CommsError::Handshake(format!(
                "shard bounds [{}, {}) invalid for param_len {}",
                cfg.shard_lo, cfg.shard_hi, cfg.param_len
            )));
        }
        Ok(())
    }

    /// Validates the handshake config and seeds the shard with its
    /// initial weights (version 0).
    pub fn new(cfg: StageConfig, init: Vec<f32>) -> Result<Self, CommsError> {
        Self::validate(&cfg)?;
        let shard_len = (cfg.shard_hi - cfg.shard_lo) as usize;
        if init.len() != shard_len {
            return Err(CommsError::Handshake(format!(
                "init shard has {} values, shard bounds promise {}",
                init.len(),
                shard_len
            )));
        }
        let clock = PipelineClock::new(cfg.stages as usize, cfg.n_micro as usize);
        // This stage's own window, not the pipeline's deepest: the
        // latest version plus as many whole steps back as its longest
        // read delay reaches (Table 1 — the last stage keeps two
        // versions where the first keeps `⌈(2P−1)/N⌉ + 1`). `plan`
        // never asks for anything older; GPipe reads only the latest.
        let slots = match cfg.method {
            Method::GPipe => 0,
            Method::PipeDream | Method::PipeMare => {
                clock.delay_slots(cfg.stage as usize).max(cfg.recomp_slots.unwrap_or(0) as usize)
            }
        };
        let window = slots.div_ceil(cfg.n_micro as usize) + 1;
        let history = WeightHistory::with_precision(window, init, cfg.weight_storage);
        let opt = Optimizer::new(cfg.opt, shard_len);
        Ok(ShardStage {
            delta: vec![0.0; shard_len],
            staged: None,
            committed: 0,
            cfg,
            clock,
            history,
            opt,
        })
    }

    /// This shard's stage id.
    pub fn stage(&self) -> u32 {
        self.cfg.stage
    }

    /// Number of committed optimizer steps.
    pub fn committed_steps(&self) -> u64 {
        self.committed
    }

    /// Shard length in parameters.
    pub fn len(&self) -> usize {
        (self.cfg.shard_hi - self.cfg.shard_lo) as usize
    }

    /// Whether the shard is empty (never true for a valid config).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The latest committed shard values.
    pub fn latest(&self) -> &[f32] {
        self.history.latest()
    }

    fn check_step(&self, step: u64, what: &str) -> Result<(), CommsError> {
        if step != self.committed {
            return Err(CommsError::Protocol(format!(
                "stage {}: {what} for step {step} but shard is at step {}",
                self.cfg.stage, self.committed
            )));
        }
        Ok(())
    }

    /// Appends the tensor payload answering one pass of `(step, micro)`
    /// to `w`, straight from the stored version: bf16-stored versions
    /// ship their stored bits verbatim when uncorrected (half the bytes;
    /// widening on the far side is exact), everything else goes dense
    /// f32 with the T2 extrapolation `w − gap·δ` computed in the same
    /// pass that encodes it.
    pub fn encode_fetch(
        &self,
        step: u64,
        micro: u32,
        pass: PassKind,
        w: &mut Writer,
    ) -> Result<(), CommsError> {
        // Latest is step-free: a serving frontend fetches whatever is
        // committed right now without tracking the worker's step, so
        // the step echo is not validated for it.
        if pass != PassKind::Latest {
            self.check_step(step, "fetch")?;
        }
        let ReadPlan { version, gap } = plan(&self.cfg, &self.clock, self.committed, micro, pass)?;
        let scale = gap.map(|g| g as f32);
        match (self.history.stored_bf16(version), scale) {
            (Some(bits), None) => encode_dense_bf16(w, bits),
            (Some(bits), Some(g)) => encode_dense(
                w,
                bits.iter().zip(&self.delta).map(|(&h, &d)| bf16::decode(h) - g * d),
            ),
            (None, None) => encode_dense(w, self.history.get(version).iter().copied()),
            (None, Some(g)) => encode_dense(
                w,
                self.history.get(version).iter().zip(&self.delta).map(|(&b, &d)| b - g * d),
            ),
        }
        Ok(())
    }

    /// Runs the optimizer on this shard's slice of the minibatch
    /// gradient and stages the result. Returns `(sq_norm, finite)`: the
    /// staged shard's Σx² and whether it is entirely finite.
    ///
    /// `apply = false` (the orchestrator saw a non-finite gradient)
    /// stages the old weights untouched and leaves the optimizer's step
    /// counter alone, matching the in-process trainer's skip.
    pub fn apply_grad(
        &mut self,
        step: u64,
        lr: f32,
        apply: bool,
        grad: &[f32],
    ) -> Result<(f64, bool), CommsError> {
        self.check_step(step, "apply_grad")?;
        if self.staged.is_some() {
            return Err(CommsError::Protocol(format!(
                "stage {}: step {step} already staged and uncommitted",
                self.cfg.stage
            )));
        }
        if grad.len() != self.len() {
            return Err(CommsError::Protocol(format!(
                "stage {}: gradient has {} values, shard holds {}",
                self.cfg.stage,
                grad.len(),
                self.len()
            )));
        }
        // The one copy of the shard a step makes: it becomes the next
        // version at commit, whichever way the vote goes.
        let mut w = self.history.latest().to_vec();
        if apply {
            self.opt.begin_step();
            self.opt.step_range(&mut w, grad, 0, grad.len(), lr);
        }
        let finite = w.iter().all(|x| x.is_finite());
        let sq_norm = w.iter().map(|&x| x as f64 * x as f64).sum::<f64>();
        self.staged = Some((step, w));
        Ok((sq_norm, finite))
    }

    /// Commits (`keep = true`) or reverts (`keep = false`) the staged
    /// step, advancing the shard to version `step + 1` either way and
    /// updating δ from the realized weight change — a revert therefore
    /// decays δ by γ, exactly like the trainer's divergence path.
    /// Optimizer moment buffers are never rolled back (the trainer
    /// doesn't either). Returns the committed shard's Σx².
    pub fn commit(&mut self, step: u64, keep: bool) -> Result<f64, CommsError> {
        self.check_step(step, "commit")?;
        let (staged_step, mut pushed) = self.staged.take().ok_or_else(|| {
            CommsError::Protocol(format!(
                "stage {}: commit for step {step} with nothing staged",
                self.cfg.stage
            ))
        })?;
        debug_assert_eq!(staged_step, step);
        let old = self.history.latest();
        if !keep {
            pushed.copy_from_slice(old);
        }
        if self.cfg.t2_decay.is_some() {
            let g = self.cfg.gamma as f32;
            for ((d, &new), &old) in self.delta.iter_mut().zip(&pushed).zip(old) {
                *d = g * *d + (1.0 - g) * (new - old);
            }
        }
        let sq_norm = pushed.iter().map(|&x| x as f64 * x as f64).sum::<f64>();
        self.history.push(step as usize + 1, pushed);
        self.committed = step + 1;
        Ok(sq_norm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{Reader, TensorPayload};
    use pipemare_optim::OptimizerKind;

    /// What the peer of `stage` decodes from one fetch.
    fn fetch_payload(
        stage: &ShardStage,
        step: u64,
        micro: u32,
        pass: PassKind,
    ) -> Result<TensorPayload, CommsError> {
        let mut w = Writer::new();
        stage.encode_fetch(step, micro, pass, &mut w)?;
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let payload = TensorPayload::decode(&mut r).expect("a stage encodes valid payloads");
        r.finish().expect("and nothing after them");
        Ok(payload)
    }

    fn fetch(
        stage: &ShardStage,
        step: u64,
        micro: u32,
        pass: PassKind,
    ) -> Result<Vec<f32>, CommsError> {
        fetch_payload(stage, step, micro, pass).map(TensorPayload::into_dense)
    }

    fn cfg(stage: u32, warmup: u64) -> StageConfig {
        StageConfig {
            protocol: PROTOCOL_VERSION,
            stage,
            stages: 3,
            n_micro: 2,
            method: Method::PipeMare,
            param_len: 12,
            shard_lo: 4 * stage as u64,
            shard_hi: 4 * stage as u64 + 4,
            opt: OptimizerKind::Sgd { weight_decay: 0.0 },
            t2_decay: None,
            gamma: 0.0,
            recomp_slots: None,
            recomp_t2: false,
            warmup_steps: warmup,
            weight_storage: pipemare_tensor::StoragePrecision::F32,
        }
    }

    #[test]
    fn handshake_validation_rejects_bad_configs() {
        let mut bad = cfg(0, 0);
        bad.protocol = PROTOCOL_VERSION + 1;
        assert!(matches!(ShardStage::new(bad, vec![0.0; 4]), Err(CommsError::Handshake(_))));
        let mut bad = cfg(0, 0);
        bad.shard_hi = 100;
        assert!(matches!(ShardStage::new(bad, vec![0.0; 96]), Err(CommsError::Handshake(_))));
        assert!(matches!(ShardStage::new(cfg(0, 0), vec![0.0; 3]), Err(CommsError::Handshake(_))));
        assert!(matches!(ShardStage::new(cfg(5, 0), vec![0.0; 4]), Err(CommsError::Handshake(_))));
    }

    #[test]
    fn sgd_step_stage_commit_advances_versions() {
        let mut st = ShardStage::new(cfg(0, 0), vec![1.0; 4]).unwrap();
        let (sq, finite) = st.apply_grad(0, 0.5, true, &[1.0, 2.0, 0.0, -1.0]).unwrap();
        assert!(finite);
        // staged: [0.5, 0.0, 1.0, 1.5] → Σx² = 0.25 + 0 + 1 + 2.25.
        assert!((sq - 3.5).abs() < 1e-12);
        st.commit(0, true).unwrap();
        assert_eq!(st.latest(), &[0.5, 0.0, 1.0, 1.5]);
        assert_eq!(st.committed_steps(), 1);
    }

    #[test]
    fn revert_keeps_old_weights_but_advances_the_clock() {
        let mut st = ShardStage::new(cfg(0, 0), vec![1.0; 4]).unwrap();
        st.apply_grad(0, 1e30, true, &[1e30; 4]).unwrap();
        let sq = st.commit(0, false).unwrap();
        assert_eq!(st.latest(), &[1.0; 4]);
        assert!((sq - 4.0).abs() < 1e-12);
        assert_eq!(st.committed_steps(), 1);
    }

    #[test]
    fn stale_step_and_double_stage_are_protocol_errors() {
        let mut st = ShardStage::new(cfg(0, 0), vec![1.0; 4]).unwrap();
        assert!(matches!(fetch(&st, 3, 0, PassKind::Fwd), Err(CommsError::Protocol(_))));
        st.apply_grad(0, 0.1, true, &[0.0; 4]).unwrap();
        assert!(matches!(st.apply_grad(0, 0.1, true, &[0.0; 4]), Err(CommsError::Protocol(_))));
        assert!(matches!(st.commit(1, true), Err(CommsError::Protocol(_))));
    }

    #[test]
    fn warmup_fetch_is_synchronous() {
        // During warmup every pass reads the latest version regardless of
        // the pipeline clock.
        let mut st = ShardStage::new(cfg(0, 10), vec![1.0; 4]).unwrap();
        st.apply_grad(0, 0.5, true, &[1.0; 4]).unwrap();
        st.commit(0, true).unwrap();
        let fwd = fetch(&st, 1, 0, PassKind::Fwd).unwrap();
        let bkwd = fetch(&st, 1, 1, PassKind::Bkwd).unwrap();
        assert_eq!(fwd, vec![0.5; 4]);
        assert_eq!(fwd, bkwd);
    }

    #[test]
    fn async_fetch_reads_delayed_versions() {
        // Stage 0 of P = 3, N = 2 has delay_slots = 5; at t = 1, n = 0 the
        // fwd version is max(0, (2·1+0−5)) div 2 → 0, i.e. still the
        // initial weights, while the bkwd version is t itself.
        let mut st = ShardStage::new(cfg(0, 0), vec![1.0; 4]).unwrap();
        st.apply_grad(0, 0.5, true, &[1.0; 4]).unwrap();
        st.commit(0, true).unwrap();
        let fwd = fetch(&st, 1, 0, PassKind::Fwd).unwrap();
        let bkwd = fetch(&st, 1, 0, PassKind::Bkwd).unwrap();
        assert_eq!(fwd, vec![1.0; 4], "stage 0 forward must lag");
        assert_eq!(bkwd, vec![0.5; 4], "PipeMare backward reads fresh weights");
    }

    #[test]
    fn bf16_shard_ships_stored_bits_for_delayed_fetches() {
        let mut c = cfg(0, 0);
        c.weight_storage = pipemare_tensor::StoragePrecision::Bf16;
        let init = vec![0.1f32, 0.2, 0.3, 0.4];
        let mut st = ShardStage::new(c, init).unwrap();
        st.apply_grad(0, 0.5, true, &[1.0; 4]).unwrap();
        st.commit(0, true).unwrap();
        // Latest is still the exact f32 master.
        match fetch_payload(&st, 1, 0, PassKind::Latest).unwrap() {
            TensorPayload::Dense(v) => assert_eq!(v, st.latest()),
            other => panic!("latest must be dense f32, got {other:?}"),
        }
        // Stage 0's forward at t=1 lags to version 0, which was demoted
        // to bf16 at commit — the payload carries the raw bits, and
        // widening reproduces fetch() exactly.
        let fetched = fetch(&st, 1, 0, PassKind::Fwd).unwrap();
        match fetch_payload(&st, 1, 0, PassKind::Fwd).unwrap() {
            TensorPayload::DenseBf16(bits) => {
                assert_eq!(pipemare_tensor::bf16::decode_slice(&bits), fetched);
            }
            other => panic!("delayed fetch must ship bf16, got {other:?}"),
        }
    }

    #[test]
    fn t2_delta_tracks_weight_velocity_and_corrects_bkwd() {
        let mut c = cfg(0, 0);
        c.t2_decay = Some(0.5);
        // γ = d^{1/τ_fwd}, stage 0, P=3, N=2 → τ_fwd = 5/2.
        let tau = 2.5f64;
        c.gamma = 0.5f64.powf(1.0 / tau);
        let mut st = ShardStage::new(c, vec![1.0; 4]).unwrap();
        st.apply_grad(0, 0.5, true, &[1.0; 4]).unwrap();
        st.commit(0, true).unwrap();
        // δ = (1−γ)(0.5 − 1.0).
        let g = 0.5f64.powf(1.0 / tau) as f32;
        let expect_delta = (1.0 - g) * -0.5;
        let bkwd = fetch(&st, 1, 0, PassKind::Bkwd).unwrap();
        // bkwd = latest − τ_fwd·δ (δ negative → correction pushes ahead).
        let expect = 0.5 - tau as f32 * expect_delta;
        assert!((bkwd[0] - expect).abs() < 1e-6, "{} vs {expect}", bkwd[0]);
    }
}

//! The one stage state, and the read plan every reader shares.
//!
//! A [`ShardStage`] owns one stage's slice of the parameter vector: its
//! version window, optimizer slice, and under T2 its velocity buffer δ.
//! Nothing else in the workspace holds a stage's weights: the in-process
//! trainer keeps a `Vec<ShardStage>` and calls it, a worker process keeps
//! one and serves it over the wire ([`ShardStage::read_into`] and
//! [`ShardStage::encode_fetch`] are the same read into two sinks, the
//! second a chunk at a time), and both apply updates through the same
//! stage-then-commit pair so a diverged step is reverted on every shard
//! atomically. A gradient is staged chunk by chunk
//! ([`ShardStage::stage_grad`]) as it arrives; the in-process trainer
//! hands over the whole shard as one chunk.
//!
//! # One plan
//!
//! Which stored version a pass reads, and whether it is extrapolated
//! along δ, is decided by [`plan`] — a pure function of the stage's
//! config, the pipeline clock and `(step, micro, pass)`. Its version is
//! [`PipelineClock::reads`], the one every executor plan's op carries
//! (outside T3's warm-up, which reads the latest). The worker
//! calls it to serve a fetch; the step driver calls the same function to
//! learn, without asking, *what* a read would return. That knowledge
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
//! Two reads of one stage with equal tags return equal values, so the
//! driver keeps what it already holds and reads each distinct tag once.

use pipemare_optim::Optimizer;
use pipemare_pipeline::{Method, PipelineClock, StageOpKind, WeightHistory};
use pipemare_tensor::{bf16, StoragePrecision};
use pipemare_theory::delay_slots;

use std::ops::Range;

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
/// the version and T2 correction it reads.
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
    let s = cfg.stage as usize;
    let kind = match pass {
        PassKind::Latest => return Ok(ReadPlan { version: t, gap: None }),
        PassKind::Fwd => StageOpKind::Fwd,
        PassKind::Bkwd => StageOpKind::Bkwd,
        PassKind::Recomp => StageOpKind::Recomp,
    };
    let replay_slots = cfg.recomp_slots.map(|r| r as usize);
    if kind == StageOpKind::Recomp && replay_slots.is_none() {
        return Err(CommsError::Protocol(format!(
            "stage {}: recompute fetch but no recompute configured",
            cfg.stage
        )));
    }
    // T3: a warm-up step reads the latest version forwards and
    // backwards; its replays keep their lag.
    let sync_phase = step < cfg.warmup_steps;
    let version = if sync_phase && kind != StageOpKind::Recomp {
        t
    } else {
        let micro = t * cfg.n_micro as usize + micro as usize;
        clock.reads(cfg.method, kind, micro, s, replay_slots)
    };
    let t2_on = cfg.t2_decay.is_some();
    let gap = match (kind, replay_slots) {
        // T2: extrapolate toward the forward version along δ
        // (τ_bkwd = 0 for PipeMare, so the gap is τ_fwd).
        (StageOpKind::Bkwd, _) => (!sync_phase && cfg.method == Method::PipeMare && t2_on)
            .then(|| clock.nominal_tau_fwd(s)),
        (StageOpKind::Recomp, Some(slots)) if cfg.recomp_t2 && t2_on => {
            let g = clock.nominal_tau_fwd(s) - slots as f64 / cfg.n_micro as f64;
            (g > 0.0).then_some(g)
        }
        _ => None,
    };
    Ok(ReadPlan { version, gap })
}

/// Where a read's values go: a reply frame or a local buffer.
trait ShardSink {
    /// A version stored in bf16, served untouched.
    fn bf16(self, bits: &[u16]);
    /// f32 values, computed on the way out.
    fn dense(self, values: impl ExactSizeIterator<Item = f32>);
}

/// bf16-stored versions ship their stored bits verbatim (half the
/// bytes; widening on the far side is exact), everything else dense f32.
impl ShardSink for &mut Writer {
    fn bf16(self, bits: &[u16]) {
        encode_dense_bf16(self, bits);
    }
    fn dense(self, values: impl ExactSizeIterator<Item = f32>) {
        encode_dense(self, values);
    }
}

impl ShardSink for &mut [f32] {
    fn bf16(self, bits: &[u16]) {
        bf16::decode_into(bits, self);
    }
    fn dense(self, values: impl ExactSizeIterator<Item = f32>) {
        assert_eq!(self.len(), values.len(), "shard read length mismatch");
        for (dst, v) in self.iter_mut().zip(values) {
            *dst = v;
        }
    }
}

/// The T2 read: a stored weight extrapolated `gap` steps along its
/// velocity estimate δ (§3.2).
#[inline]
fn t2_read(w: f32, gap: f32, delta: f32) -> f32 {
    w - gap * delta
}

/// Whether every value is finite — the step's finite vote. One branch
/// per 64 values, so each chunk's test vectorizes (`iter().all` branches
/// on every value): a value is ±∞ or NaN exactly when its exponent bits
/// are all set, so a chunk is finite when the largest of its exponent
/// fields is below that.
pub(crate) fn all_finite(values: &[f32]) -> bool {
    const EXPONENT: u32 = 0x7f80_0000;
    values
        .chunks(64)
        .all(|chunk| chunk.iter().fold(0, |most, v| most.max(v.to_bits() & EXPONENT)) < EXPONENT)
}

/// One stage's resumable state — the unit a checkpoint is made of.
/// bf16-stored versions are widened to f32 (exact), so the state is
/// precision-independent and a round trip is bit-lossless.
#[derive(Clone, Debug, PartialEq)]
pub struct StageState {
    /// The retained versions, oldest first, consecutively numbered
    /// (delayed reads look backwards: the latest alone is not enough).
    pub window: Vec<(usize, Vec<f32>)>,
    /// T2 EWMA velocity δ, all zero while T2 is off.
    pub delta: Vec<f32>,
    /// Optimizer first-moment buffer (momentum `v` / Adam `m`).
    pub opt_m: Vec<f32>,
    /// Optimizer second-moment buffer (Adam `v`).
    pub opt_v: Vec<f32>,
    /// The optimizer's completed-step counter (Adam bias correction).
    pub opt_steps: usize,
}

/// Deepest pipeline a handshake may configure.
pub const MAX_STAGES: u32 = 1 << 16;

/// A step's update, staged a chunk at a time and then awaiting commit.
struct Staged {
    step: u64,
    lr: f32,
    apply: bool,
    /// The next version: the latest one, updated on its first `filled`
    /// values so far.
    w: Vec<f32>,
    filled: usize,
    /// Σx² of `w`, once every value is filled.
    sq_norm: f64,
}

/// One pipeline stage's shard of the model: weight-version window,
/// optimizer state, and T2 velocity, all shard-sized.
pub struct ShardStage {
    cfg: StageConfig,
    clock: PipelineClock,
    history: WeightHistory,
    opt: Optimizer,
    /// T2 velocity buffer δ for this shard, empty while T2 is off.
    delta: Vec<f32>,
    /// The step being staged, or staged and awaiting commit.
    staged: Option<Staged>,
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
        // `stages` and `recomp_slots` size the window `new` allocates.
        if cfg.n_micro == 0 || !(1..=MAX_STAGES).contains(&cfg.stages) {
            return Err(CommsError::Handshake(format!(
                "need n_micro > 0 and 1..={MAX_STAGES} stages, got {} and {}",
                cfg.n_micro, cfg.stages
            )));
        }
        // App. D's 2(S − s mod S) is even and lies in 2..=2S ⊆ 2..=2P.
        let replay_ok = |r: u32| r.is_multiple_of(2) && (2..=2 * cfg.stages).contains(&r);
        if let Some(r) = cfg.recomp_slots.filter(|&r| !replay_ok(r)) {
            return Err(CommsError::Handshake(format!("recompute slots {r} invalid")));
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
    /// initial weights (version 0), keeping this stage's own window, not
    /// the pipeline's deepest: the latest version plus as many whole
    /// steps back as its longest read delay reaches (Table 1 — the last
    /// stage keeps two versions where the first keeps
    /// `⌈(2P−1)/N⌉ + 1`). `plan` never asks for anything older; GPipe
    /// reads only the latest.
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
        let slots = match cfg.method {
            Method::GPipe => 0,
            Method::PipeDream | Method::PipeMare => delay_slots(clock.stages, cfg.stage as usize)
                .max(cfg.recomp_slots.unwrap_or(0) as usize),
        };
        let window = slots.div_ceil(cfg.n_micro as usize) + 1;
        let history = WeightHistory::with_precision(window, init, cfg.weight_storage);
        let opt = Optimizer::new(cfg.opt, shard_len);
        Ok(ShardStage {
            delta: if cfg.t2_decay.is_some() { vec![0.0; shard_len] } else { Vec::new() },
            staged: None,
            committed: 0,
            cfg,
            clock,
            history,
            opt,
        })
    }

    /// A freshly seeded stage keeping `window` versions instead — for a
    /// caller whose reads [`plan`] does not decide: Hogwild keeps its
    /// largest drawable delay plus the latest, a compute stage applying
    /// its updates lazily only the versions its reads reach back to.
    pub fn with_window(mut self, window: usize) -> Self {
        let init = self.history.latest().to_vec();
        self.history = WeightHistory::with_precision(window, init, self.cfg.weight_storage);
        self
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

    /// Sends the `range` slice of what `read` names to `sink`, the T2
    /// extrapolation `w − gap·δ` and bf16 widening computed on the way
    /// out.
    ///
    /// # Errors
    ///
    /// [`CommsError::Protocol`] when the window does not hold the
    /// version: a reader is handed the version its plan names or an
    /// error, never the nearest one that happens to be retained.
    ///
    /// # Panics
    ///
    /// Panics if `range` runs past the shard.
    fn serve(
        &self,
        read: ReadPlan,
        range: Range<usize>,
        sink: impl ShardSink,
    ) -> Result<(), CommsError> {
        let ReadPlan { version, gap } = read;
        if !self.history.holds(version) {
            return Err(CommsError::Protocol(format!(
                "stage {}: version {version} is outside the {}-version window ending at {}",
                self.cfg.stage,
                self.history.capacity(),
                self.committed
            )));
        }
        // A gap implies T2: δ is read only then.
        let delta = if gap.is_some() { &self.delta[range.clone()] } else { &[] };
        match (self.history.stored_bf16(version), gap.map(|g| g as f32)) {
            (Some(bits), None) => sink.bf16(&bits[range]),
            (Some(bits), Some(g)) => sink.dense(
                bits[range].iter().zip(delta).map(|(&h, &d)| t2_read(bf16::decode(h), g, d)),
            ),
            (None, None) => sink.dense(self.history.get(version)[range].iter().copied()),
            (None, Some(g)) => sink.dense(
                self.history.get(version)[range].iter().zip(delta).map(|(&w, &d)| t2_read(w, g, d)),
            ),
        }
        Ok(())
    }

    /// The local read: fills `dst` with what `read` names, the whole
    /// shard.
    pub fn read_into(&self, read: ReadPlan, dst: &mut [f32]) -> Result<(), CommsError> {
        self.serve(read, 0..self.len(), dst)
    }

    /// The remote read, one chunk of it: appends the tensor payload of
    /// the `range` slice of what one pass of `(step, micro)` reads to
    /// `w`, straight from the stored version.
    pub fn encode_fetch(
        &self,
        step: u64,
        micro: u32,
        pass: PassKind,
        range: Range<usize>,
        w: &mut Writer,
    ) -> Result<(), CommsError> {
        // Latest is step-free: a serving frontend fetches whatever is
        // committed right now without tracking the worker's step, so
        // the step echo is not validated for it.
        if pass != PassKind::Latest {
            self.check_step(step, "fetch")?;
        }
        self.serve(plan(&self.cfg, &self.clock, self.committed, micro, pass)?, range, w)
    }

    /// Runs the optimizer on this shard's whole slice of the minibatch
    /// gradient and stages the result: [`Self::stage_grad`] with one
    /// chunk. Returns `(sq_norm, finite)`: the staged shard's Σx² and
    /// whether it is entirely finite.
    pub fn apply_grad(
        &mut self,
        step: u64,
        lr: f32,
        apply: bool,
        grad: &[f32],
    ) -> Result<(f64, bool), CommsError> {
        if grad.len() != self.len() {
            return Err(CommsError::Protocol(format!(
                "stage {}: gradient has {} values, shard holds {}",
                self.cfg.stage,
                grad.len(),
                self.len()
            )));
        }
        Ok(self.stage_grad(step, lr, apply, grad)?.expect("a whole-shard chunk completes the step"))
    }

    /// How many values of the step being staged have had their gradient
    /// chunk applied: 0 unless a step is open, part way through.
    pub fn grad_filled(&self) -> usize {
        self.staged.as_ref().map_or(0, |s| if s.filled < self.len() { s.filled } else { 0 })
    }

    /// Runs the optimizer over the next `grad.len()` values of this
    /// shard with `grad`, the matching chunk of its slice of the
    /// minibatch gradient, and stages the result. The first chunk of a
    /// step opens it; the chunk that fills the shard returns
    /// `Some((sq_norm, finite))`: the staged shard's Σx² and whether it
    /// is entirely finite.
    ///
    /// `apply = false` (the driver saw a non-finite gradient) stages the
    /// old weights untouched and leaves the optimizer's step counter
    /// alone.
    ///
    /// # Errors
    ///
    /// [`CommsError::Protocol`], with nothing changed, for a step other
    /// than the next one, a chunk whose `(step, lr, apply)` differs from
    /// its step's first chunk, an empty chunk or one past the shard's
    /// end, and a chunk once the step is fully staged.
    pub fn stage_grad(
        &mut self,
        step: u64,
        lr: f32,
        apply: bool,
        grad: &[f32],
    ) -> Result<Option<(f64, bool)>, CommsError> {
        let (stage, len) = (self.cfg.stage, self.len());
        let filled = match &self.staged {
            None => {
                self.check_step(step, "gradient")?;
                0
            }
            Some(s) if s.filled == len => {
                return Err(CommsError::Protocol(format!(
                    "stage {stage}: step {} already staged and uncommitted",
                    s.step
                )))
            }
            Some(s) if (s.step, s.lr.to_bits(), s.apply) != (step, lr.to_bits(), apply) => {
                return Err(CommsError::Protocol(format!(
                    "stage {stage}: gradient chunk for step {step} inside step {}'s gradient",
                    s.step
                )))
            }
            Some(s) => s.filled,
        };
        if grad.is_empty() || grad.len() > len - filled {
            return Err(CommsError::Protocol(format!(
                "stage {stage}: gradient chunk of {} values where {} of {len} remain",
                grad.len(),
                len - filled
            )));
        }
        if filled == 0 {
            // The one copy of the shard a step makes: it becomes the
            // next version at commit, whichever way the vote goes. It is
            // built in the buffer of the version that commit would evict
            // — every read of this step precedes its update and no later
            // step reaches back that far, so nothing can name it any
            // more — or in a fresh one while the window is filling.
            let mut w = self.history.recycle_oldest().unwrap_or_default();
            w.clear();
            w.extend_from_slice(self.history.latest());
            if apply {
                self.opt.begin_step();
            }
            self.staged = Some(Staged { step, lr, apply, w, filled: 0, sq_norm: 0.0 });
        }
        let staged = self.staged.as_mut().expect("opened above");
        let range = filled..filled + grad.len();
        if apply {
            self.opt.step_chunk(&mut staged.w[range.clone()], grad, filled, lr);
        }
        staged.filled = range.end;
        if staged.filled < len {
            return Ok(None);
        }
        let finite = all_finite(&staged.w);
        staged.sq_norm = staged.w.iter().map(|&x| x as f64 * x as f64).sum::<f64>();
        Ok(Some((staged.sq_norm, finite)))
    }

    /// Commits (`keep = true`) or reverts (`keep = false`) the staged
    /// step, advancing the shard to version `step + 1` either way and
    /// updating δ ← γδ + (1−γ)(w_new − w_old) from the realized weight
    /// change — a revert therefore decays δ by γ. Optimizer moment
    /// buffers are never rolled back. Returns the committed shard's Σx².
    pub fn commit(&mut self, step: u64, keep: bool) -> Result<f64, CommsError> {
        self.check_step(step, "commit")?;
        let len = self.len();
        let Some(Staged { w: mut pushed, mut sq_norm, .. }) =
            self.staged.take_if(|s| s.filled == len)
        else {
            return Err(CommsError::Protocol(format!(
                "stage {}: commit for step {step} with nothing fully staged",
                self.cfg.stage
            )));
        };
        let old = self.history.latest();
        if !keep {
            pushed.copy_from_slice(old);
            sq_norm = pushed.iter().map(|&x| x as f64 * x as f64).sum::<f64>();
        }
        let g = self.cfg.gamma as f32;
        for ((d, &new), &old) in self.delta.iter_mut().zip(&pushed).zip(old) {
            *d = g * *d + (1.0 - g) * (new - old);
        }
        self.history.push(step as usize + 1, pushed);
        self.committed = step + 1;
        Ok(sq_norm)
    }

    /// The T2 velocity buffer δ (empty while T2 is off).
    pub fn delta(&self) -> &[f32] {
        &self.delta
    }

    /// Snapshots everything needed to resume this stage exactly (δ zero
    /// while T2 is off).
    pub fn state(&self) -> StageState {
        let (m, v, t) = self.opt.state();
        StageState {
            window: self.history.snapshot(),
            delta: if self.delta.is_empty() { vec![0.0; self.len()] } else { self.delta.clone() },
            opt_m: m.to_vec(),
            opt_v: v.to_vec(),
            opt_steps: t,
        }
    }

    /// Restores a [`ShardStage::state`] snapshot into a stage built from
    /// the same configuration; the stage resumes at the window's newest
    /// version, and keeps no δ while T2 is off.
    ///
    /// # Errors
    ///
    /// [`CommsError::Protocol`] when the state does not fit this shard
    /// (another model, optimizer or pipeline): a checkpoint is input
    /// from outside the program.
    pub fn restore(&mut self, state: StageState) -> Result<(), CommsError> {
        let (m, v, _) = self.opt.state();
        let fits = state.window.len() <= self.history.capacity()
            && state.window.windows(2).all(|w| w[1].0 == w[0].0 + 1)
            && state.window.iter().all(|(_, w)| w.len() == self.len())
            && state.delta.len() == self.len()
            && (state.opt_m.len(), state.opt_v.len()) == (m.len(), v.len());
        let Some(&(newest, _)) = state.window.last().filter(|_| fits) else {
            return Err(CommsError::Protocol(format!(
                "stage {}: saved state does not fit a shard of {} parameters keeping {} versions",
                self.cfg.stage,
                self.len(),
                self.history.capacity()
            )));
        };
        self.history = WeightHistory::from_versions_with_precision(
            self.history.capacity(),
            state.window,
            self.cfg.weight_storage,
        );
        self.opt.restore_state(state.opt_m, state.opt_v, state.opt_steps);
        self.delta = if self.cfg.t2_decay.is_some() { state.delta } else { Vec::new() };
        self.staged = None;
        self.committed = newest as u64;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{Reader, TensorPayload};
    use pipemare_optim::OptimizerKind;

    #[test]
    fn all_finite_finds_every_non_finite_value_at_any_position() {
        assert!(all_finite(&[]));
        let specials = [f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        // Lengths on both sides of one and two chunks, and one that 64
        // does not divide.
        for len in [1, 63, 64, 65, 128, 129, 200] {
            let finite: Vec<f32> =
                (0..len).map(|i| [-0.0, 0.0, f32::MAX, f32::MIN, 1e-45, -1.5][i % 6]).collect();
            assert!(all_finite(&finite), "len {len}");
            for at in [0, len / 2, len - 1] {
                for bad in specials {
                    let mut values = finite.clone();
                    values[at] = bad;
                    assert!(!all_finite(&values), "{bad} at {at} of {len}");
                    assert_eq!(all_finite(&values), values.iter().all(|v| v.is_finite()));
                }
            }
        }
    }

    /// What the peer of `stage` decodes from one fetch.
    fn fetch_payload(
        stage: &ShardStage,
        step: u64,
        micro: u32,
        pass: PassKind,
    ) -> Result<TensorPayload, CommsError> {
        let mut w = Writer::new();
        stage.encode_fetch(step, micro, pass, 0..stage.len(), &mut w)?;
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
    fn chunked_staging_matches_one_chunk_and_refuses_a_broken_run() {
        let mut c = cfg(0, 0);
        c.opt = OptimizerKind::Momentum { beta: 0.9, weight_decay: 0.0 };
        let mut whole = ShardStage::new(c.clone(), vec![1.0; 4]).unwrap();
        let mut chunked = ShardStage::new(c, vec![1.0; 4]).unwrap();
        let grad = [1.0, -2.0, 0.5, 3.0];
        let protocol =
            |r: Result<Option<(f64, bool)>, CommsError>| matches!(r, Err(CommsError::Protocol(_)));
        for step in 0..3 {
            let want = whole.apply_grad(step, 0.1, true, &grad).unwrap();
            assert_eq!(chunked.stage_grad(step, 0.1, true, &grad[..1]).unwrap(), None);
            assert_eq!(chunked.grad_filled(), 1);
            // Mid-run nothing commits, and no other step's chunk lands.
            assert!(matches!(chunked.commit(step, true), Err(CommsError::Protocol(_))));
            assert!(protocol(chunked.stage_grad(step + 1, 0.1, true, &grad[1..3])));
            assert!(protocol(chunked.stage_grad(step, 0.1, true, &[0.0; 4])), "past the end");
            assert_eq!(chunked.stage_grad(step, 0.1, true, &grad[1..3]).unwrap(), None);
            assert_eq!(chunked.stage_grad(step, 0.1, true, &grad[3..]).unwrap(), Some(want));
            assert_eq!(chunked.grad_filled(), 0);
            assert!(protocol(chunked.stage_grad(step, 0.1, true, &grad[..1])), "a surplus chunk");
            whole.commit(step, true).unwrap();
            chunked.commit(step, true).unwrap();
            assert_eq!(whole.state(), chunked.state());
        }
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
    fn a_fetch_outside_the_window_is_an_error_not_the_nearest_version() {
        // Stage 0's forward at t = 1 reads version 0; a window of one
        // keeps only version 1 by then.
        let mut st = ShardStage::new(cfg(0, 0), vec![1.0; 4]).unwrap().with_window(1);
        st.apply_grad(0, 0.5, true, &[1.0; 4]).unwrap();
        st.commit(0, true).unwrap();
        assert!(matches!(fetch(&st, 1, 0, PassKind::Fwd), Err(CommsError::Protocol(_))));
        assert_eq!(fetch(&st, 1, 0, PassKind::Bkwd).unwrap(), vec![0.5; 4]);
    }

    #[test]
    fn state_round_trips_and_misfits_are_errors() {
        // A T2 stage, and a GPipe one that holds no δ but saves a zero
        // one, so a checkpoint has one format.
        let mut t2 = cfg(0, 0);
        (t2.t2_decay, t2.gamma) = (Some(0.5), 0.7);
        let mut gpipe = cfg(0, 0);
        gpipe.method = Method::GPipe;
        for mut c in [t2, gpipe] {
            c.opt = OptimizerKind::Momentum { beta: 0.9, weight_decay: 0.0 };
            let delta_len = if c.t2_decay.is_some() { 4 } else { 0 };
            let mut st = ShardStage::new(c.clone(), vec![1.0; 4]).unwrap();
            for step in 0..3 {
                st.apply_grad(step, 0.5, true, &[1.0, -1.0, 0.5, 0.0]).unwrap();
                st.commit(step, true).unwrap();
            }
            assert_eq!(st.delta().len(), delta_len);
            let state = st.state();
            assert_eq!(state.window.last().unwrap().0, 3);
            assert_eq!(state.delta.len(), 4, "a saved δ is shard-sized");
            let mut resumed = ShardStage::new(c.clone(), vec![0.0; 4]).unwrap();
            resumed.restore(state.clone()).unwrap();
            assert_eq!(resumed.committed_steps(), 3);
            assert_eq!(resumed.delta().len(), delta_len);
            assert_eq!(resumed.state(), state);
            for s in [&mut st, &mut resumed] {
                s.apply_grad(3, 0.5, true, &[1.0; 4]).unwrap();
                s.commit(3, true).unwrap();
            }
            assert_eq!(st.state(), resumed.state(), "the resumed stage continues bit for bit");
            // Another shard length, optimizer, or a window with a hole
            // (GPipe keeps one version: removing any empties it).
            let mut short = state.clone();
            short.delta.pop();
            assert!(matches!(resumed.restore(short), Err(CommsError::Protocol(_))));
            let mut no_moments = state.clone();
            no_moments.opt_m.clear();
            assert!(matches!(resumed.restore(no_moments), Err(CommsError::Protocol(_))));
            let mut holed = state.clone();
            holed.window.remove(state.window.len() / 2);
            assert!(matches!(resumed.restore(holed), Err(CommsError::Protocol(_))));
            let mut empty = state;
            empty.window.clear();
            assert!(matches!(resumed.restore(empty), Err(CommsError::Protocol(_))));
        }
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

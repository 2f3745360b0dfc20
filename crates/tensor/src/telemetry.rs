//! Kernel instrumentation: a flops counter and per-kernel latency
//! histograms, recorded into a `pipemare-telemetry` metrics registry.
//!
//! Instrumentation is off until [`install_kernel_metrics`] wires a
//! registry in; the hot path then pays one relaxed atomic load per
//! kernel call when disabled, and two clock reads plus a few atomic
//! updates when enabled.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use pipemare_telemetry::{Counter, Histogram, MetricsRegistry};

/// Which kernel a timing sample belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelKind {
    /// Plain `A @ B`.
    Gemm,
    /// `A @ B^T`.
    GemmNt,
    /// `A^T @ B`.
    GemmTn,
    /// Batched matmul (any transpose variant).
    Bmm,
    /// Convolution unfold. No production code records it any more: the
    /// blocked passes of [`crate::conv`] build no patch matrix and are
    /// recorded as the products they replaced (`Gemm` forward, `GemmNt`
    /// weight gradient, `GemmTn` input gradient, each with its nominal
    /// `2·oc·C·k·k·B·oh·ow` flops). The kind and its instruments stay
    /// because benchmark code names them.
    Im2col,
    /// `Tensor::permute`: like the unfold, data movement with no flops.
    Permute,
}

impl KernelKind {
    fn metric_name(self) -> &'static str {
        match self {
            KernelKind::Gemm => "kernel.gemm.us",
            KernelKind::GemmNt => "kernel.gemm_nt.us",
            KernelKind::GemmTn => "kernel.gemm_tn.us",
            KernelKind::Bmm => "kernel.bmm.us",
            KernelKind::Im2col => "kernel.im2col.us",
            KernelKind::Permute => "kernel.permute.us",
        }
    }
}

/// Handles to the kernel instruments inside a registry.
#[derive(Clone)]
pub struct KernelMetrics {
    /// Cumulative floating-point operations issued by GEMM-family
    /// kernels (2·m·k·n per product, a convolution pass as the product
    /// it stands for). The data-movement kernels (`Im2col`, `Permute`)
    /// count calls and latency, and zero flops.
    pub flops: Arc<Counter>,
    /// Kernel invocations by family, same order as [`KernelKind`].
    calls: [Arc<Counter>; 6],
    /// Latency histograms (µs) by family, same order as [`KernelKind`].
    latency_us: [Arc<Histogram>; 6],
}

impl KernelMetrics {
    /// Calls counter for one kernel family.
    pub fn calls(&self, kind: KernelKind) -> &Arc<Counter> {
        &self.calls[kind as usize]
    }

    /// Latency histogram for one kernel family.
    pub fn latency(&self, kind: KernelKind) -> &Arc<Histogram> {
        &self.latency_us[kind as usize]
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);

fn slot() -> &'static Mutex<Option<KernelMetrics>> {
    static SLOT: OnceLock<Mutex<Option<KernelMetrics>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

/// Registers the kernel instruments (`kernel.flops`, `kernel.<kind>.us`,
/// `kernel.<kind>.calls`) in `registry` and turns recording on. The most
/// recently installed registry receives all subsequent samples.
pub fn install_kernel_metrics(registry: &MetricsRegistry) -> KernelMetrics {
    // 1µs .. ~65ms in octaves.
    let bounds: Vec<f64> = (0..17).map(|i| 2f64.powi(i)).collect();
    let kinds = [
        KernelKind::Gemm,
        KernelKind::GemmNt,
        KernelKind::GemmTn,
        KernelKind::Bmm,
        KernelKind::Im2col,
        KernelKind::Permute,
    ];
    let metrics = KernelMetrics {
        flops: registry.counter("kernel.flops"),
        calls: kinds.map(|k| {
            registry.counter(&format!("{}.calls", k.metric_name().trim_end_matches(".us")))
        }),
        latency_us: kinds.map(|k| registry.histogram(k.metric_name(), &bounds)),
    };
    *slot().lock().unwrap() = Some(metrics.clone());
    ENABLED.store(true, Ordering::Release);
    metrics
}

/// Turns kernel recording off and drops the registry handles.
pub fn uninstall_kernel_metrics() {
    ENABLED.store(false, Ordering::Release);
    *slot().lock().unwrap() = None;
}

/// A started kernel timing, present only while metrics are installed.
pub(crate) struct KernelTimer {
    kind: KernelKind,
    flops: u64,
    start: Instant,
}

/// Starts timing a kernel call; returns `None` (zero cost beyond one
/// atomic load) when instrumentation is not installed.
#[inline]
pub(crate) fn kernel_timer(kind: KernelKind, flops: u64) -> Option<KernelTimer> {
    if ENABLED.load(Ordering::Acquire) {
        Some(KernelTimer { kind, flops, start: Instant::now() })
    } else {
        None
    }
}

/// Records a finished kernel timing.
pub(crate) fn kernel_record(timer: Option<KernelTimer>) {
    let Some(timer) = timer else { return };
    let elapsed_us = timer.start.elapsed().as_secs_f64() * 1e6;
    let guard = slot().lock().unwrap();
    if let Some(metrics) = guard.as_ref() {
        metrics.flops.add(timer.flops);
        metrics.calls(timer.kind).inc();
        metrics.latency(timer.kind).observe(elapsed_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;
    use pipemare_telemetry::MetricValue;

    #[test]
    fn install_records_gemm_flops_and_latency() {
        // Other tests in this binary may run matmuls concurrently while
        // recording is on, so assert lower bounds rather than exact
        // counts.
        let registry = MetricsRegistry::new();
        let metrics = install_kernel_metrics(&registry);
        let a = Tensor::full(&[4, 5], 1.0);
        let b = Tensor::full(&[5, 6], 1.0);
        let _ = a.matmul(&b);
        uninstall_kernel_metrics();
        assert!(metrics.flops.get() >= 2 * 4 * 5 * 6);
        assert!(metrics.calls(KernelKind::Gemm).get() >= 1);
        assert!(metrics.latency(KernelKind::Gemm).count() >= 1);
        // Registry sees the same instruments under the kernel.* names.
        let snap = registry.snapshot();
        match snap.get("kernel.flops") {
            Some(MetricValue::Counter(c)) => assert!(*c >= 2 * 4 * 5 * 6),
            other => panic!("kernel.flops missing or wrong type: {other:?}"),
        }
        assert!(snap.get("kernel.gemm.us").is_some());
    }

    #[test]
    fn disabled_instrumentation_records_nothing() {
        uninstall_kernel_metrics();
        let timer = kernel_timer(KernelKind::Gemm, 100);
        assert!(timer.is_none());
        kernel_record(timer); // must be a no-op, not a panic
    }
}

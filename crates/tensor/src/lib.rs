//! Dense `f32` tensor substrate for the PipeMare reproduction.
//!
//! This crate provides the minimal-but-complete numerical foundation the
//! rest of the workspace builds on: a contiguous row-major [`Tensor`],
//! NumPy-style broadcasting for elementwise arithmetic, (batched) matrix
//! multiplication, axis reductions, softmax / log-softmax, and the
//! blocked convolution passes ([`conv`]) used by convolution layers.
//!
//! # Conventions
//!
//! * All tensors are contiguous and row-major ("C order").
//! * Shape errors are programming errors and **panic** with a descriptive
//!   message (as in `ndarray`); there is no fallible shape API.
//! * Randomized constructors take an explicit [`rand::Rng`] so every
//!   experiment in the workspace is reproducible from a seed.
//!
//! # Example
//!
//! ```
//! use pipemare_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]);
//! let c = a.matmul(&b);
//! assert_eq!(c.data(), a.data());
//! ```

mod alloc_count;
pub mod bf16;
pub mod conv;
pub mod fold;
pub mod heap;
mod init;
pub mod kernels;
mod matmul;
mod ops;
pub mod pool;
mod reduce;
mod shape;
mod telemetry;
mod tensor;

pub use alloc_count::CountingAlloc;
pub use bf16::{StoragePrecision, BF16_REL_EPS};
pub use conv::{Conv2dGeometry, ConvProblem};
pub use fold::FoldDims;
pub use pool::ThreadPool;
pub use shape::{broadcast_shapes, Shape};
pub use telemetry::{install_kernel_metrics, uninstall_kernel_metrics, KernelKind, KernelMetrics};
pub use tensor::Tensor;

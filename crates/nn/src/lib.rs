//! Layer-wise neural-network library with **explicit parameter passing**,
//! purpose-built for asynchronous pipeline-parallel training.
//!
//! # Why explicit parameters?
//!
//! PipeMare (Yang et al., MLSYS 2021) trains with *different* weight
//! versions in the forward and backward passes: the gradient is
//! `∇f(u_fwd, u_bkwd)` — the value backpropagation computes when the
//! forward activations were produced under `u_fwd` but the backward
//! Jacobian products use `u_bkwd`. A conventional framework hides the
//! weights inside the layers, which makes this impossible to express.
//! Here every [`Layer::forward`] and [`Layer::backward`] takes the
//! parameter slice explicitly, so a trainer can assemble any weight
//! version it wants for either pass:
//!
//! * `forward(u_fwd, x)` caches activations computed under `u_fwd`;
//! * `backward(u_bkwd, cache, dy)` uses `u_bkwd` for the weight-dependent
//!   Jacobian products (`dx = dy · Wᵀ`) and the cached activations for the
//!   parameter gradients (`dW = xᵀ · dy`). Every layer implements it as
//!   [`Layer::backward_into`], which writes the parameter gradient into a
//!   caller-owned slice of the model's gradient instead of a vector of
//!   its own.
//!
//! When the same slice is passed to both, this reduces to ordinary
//! backpropagation (checked against finite differences in the test suite).
//! [`Layer::forward_no_cache`] is the forward's computation, bit for bit,
//! keeping no cache: evaluation, serving and the recompute stash hook.
//!
//! # Contents
//!
//! * [`Layer`] trait + the chain combinator [`Sequential`].
//! * Layers: [`Linear`], [`Conv2d`], [`BatchNorm2d`], [`LayerNorm`],
//!   [`GroupNorm`], [`Activation`], pooling, [`Flatten`], [`Embedding`],
//!   [`MultiHeadAttention`].
//! * Losses: softmax cross-entropy (with label smoothing and a padding
//!   index) and mean-squared error.
//! * Models implementing [`TrainModel`]: [`Mlp`], [`LinearRegression`],
//!   [`CifarResNet`] (ResNet-50/152 stand-in), [`Transformer`]
//!   (encoder–decoder, IWSLT/WMT stand-in).
//! * [`gradcheck`]: finite-difference utilities used throughout the tests.

pub mod activation;
pub mod attention;
pub mod cache;
pub mod conv;
pub mod dropout;
pub mod embedding;
pub mod gradcheck;
pub mod layer;
pub mod linear;
pub mod loss;
pub mod mlp;
pub mod model;
pub mod norm;
pub mod pool;
pub mod regression;
pub mod resnet;
pub mod sequential;
pub mod transformer;

pub use activation::{Activation, ActivationKind};
pub use attention::{AttnMask, MultiHeadAttention};
pub use cache::{Bf16Stash, Cache};
pub use conv::Conv2d;
pub use dropout::Dropout;
pub use embedding::{Embedding, PositionalEncoding};
pub use layer::{Layer, ParamAlloc, WeightUnit};
pub use linear::Linear;
pub use loss::{cross_entropy_logits, mse_loss, CrossEntropyCfg};
pub use mlp::Mlp;
pub use model::{ImageBatch, InferModel, RegressionBatch, SeqBatch, ServeSplit, TrainModel};
pub use norm::{BatchNorm2d, GroupNorm, LayerNorm};
pub use pool::{Flatten, GlobalAvgPool2d, MaxPool2d};
pub use regression::LinearRegression;
pub use resnet::{CifarResNet, ResNetConfig};
pub use sequential::Sequential;
pub use transformer::{Transformer, TransformerConfig};

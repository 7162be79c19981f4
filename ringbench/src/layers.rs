//! Layer-by-layer walks over a float `Sequential` and a
//! `QuantizedModel`, driven from outside the program through the public
//! `Layer::forward_infer` and `ringcnn_quant::quantized::execute_layer`
//! calls, plus the scalar i64 oracle chain for the integer pipeline.
//!
//! A walk reproduces the model's own forward exactly (residual adds
//! included), timing every leaf and every piece of glue, so the pieces
//! sum to the time of the whole forward they decompose.

use ringcnn_nn::layer::Layer;
use ringcnn_nn::layers::shuffle::{PixelShuffle, PixelUnshuffle};
use ringcnn_nn::layers::structure::{Residual, Sequential};
use ringcnn_quant::prelude::{expand_formats, QLayer, QTensor, QuantizedModel};
use ringcnn_quant::quantized::{execute_layer, run_conv_reference};
use ringcnn_tensor::prelude::Tensor;
use ringcnn_trace::span;
use std::time::Instant;

/// One timed leaf of a walk.
#[derive(Clone, Debug)]
pub struct LeafTime {
    /// Child-index path, e.g. `0.3.1`.
    pub path: String,
    /// `conv`, `act` or `shuffle`.
    pub kind: &'static str,
    /// Wall time of the call, seconds.
    pub secs: f64,
    /// Operation count of the call (real multiplications for float
    /// convs, integer MACs for quantized ones, 0 otherwise).
    pub ops: f64,
    /// Bytes the call reads and writes, computed from tensor and weight
    /// sizes (not measured).
    pub bytes: f64,
}

/// Everything one walk recorded.
#[derive(Clone, Debug, Default)]
pub struct Walk {
    /// Timed leaves in execution order.
    pub leaves: Vec<LeafTime>,
    /// Time outside the leaves: residual adds, input quantization and
    /// output dequantization, seconds.
    pub glue_secs: f64,
}

impl Walk {
    /// Leaves plus glue: the walk's decomposition of the forward.
    pub fn total_secs(&self) -> f64 {
        self.leaves.iter().map(|l| l.secs).sum::<f64>() + self.glue_secs
    }
}

fn join(prefix: &str, i: usize) -> String {
    if prefix.is_empty() {
        i.to_string()
    } else {
        format!("{prefix}.{i}")
    }
}

/// Float forward of `model` on `x`, one leaf at a time.
pub fn walk_float(model: &mut Sequential, x: &Tensor, walk: &mut Walk) -> Tensor {
    walk_seq(model, x, "", walk)
}

fn walk_seq(seq: &mut Sequential, x: &Tensor, prefix: &str, walk: &mut Walk) -> Tensor {
    let mut cur = x.clone();
    for (i, layer) in seq.layers_mut().iter_mut().enumerate() {
        cur = walk_layer(layer.as_mut(), &cur, &join(prefix, i), walk);
    }
    cur
}

fn walk_layer(layer: &mut dyn Layer, x: &Tensor, path: &str, walk: &mut Walk) -> Tensor {
    let is_shuffle = {
        let any = layer.as_any_mut();
        any.is::<PixelShuffle>() || any.is::<PixelUnshuffle>()
    };
    if let Some(seq) = layer.as_any_mut().downcast_mut::<Sequential>() {
        return walk_seq(seq, x, path, walk);
    }
    if let Some(res) = layer.as_any_mut().downcast_mut::<Residual>() {
        let mut out = walk_seq(res.body_mut(), x, path, walk);
        let t = Instant::now();
        out.add_assign(x);
        walk.glue_secs += t.elapsed().as_secs_f64();
        return out;
    }
    let mults = layer.mults_per_pixel();
    let params = layer.num_params();
    let layer: &dyn Layer = layer;
    {
        let _span = span::child_span("walk.layer");
        let t = Instant::now();
        let out = layer.forward_infer(x);
        let secs = t.elapsed().as_secs_f64();
        let s = out.shape();
        walk.leaves.push(LeafTime {
            path: path.to_string(),
            kind: if mults > 0.0 {
                "conv"
            } else if is_shuffle {
                "shuffle"
            } else {
                "act"
            },
            secs,
            ops: mults * (s.n * s.h * s.w) as f64,
            bytes: 4.0 * (x.shape().len() + s.len() + params) as f64,
        });
        out
    }
}

/// Integer forward of `model` on `x` (the same quantize → chain →
/// dequantize as `QuantizedModel::forward`), one layer at a time.
pub fn walk_quant(model: &QuantizedModel, x: &Tensor, walk: &mut Walk) -> Tensor {
    let t = Instant::now();
    let q = QTensor::quantize(x, vec![model.input_format(); x.shape().c]);
    walk.glue_secs += t.elapsed().as_secs_f64();
    let out = walk_qchain(model.layers(), q, "", walk);
    let t = Instant::now();
    let y = out.dequantize();
    walk.glue_secs += t.elapsed().as_secs_f64();
    y
}

fn walk_qchain(layers: &[QLayer], mut q: QTensor, prefix: &str, walk: &mut Walk) -> QTensor {
    for (i, layer) in layers.iter().enumerate() {
        let path = join(prefix, i);
        q = match layer {
            QLayer::Residual(res) => {
                let body = walk_qchain(res.body(), q.clone(), &path, walk);
                let t = Instant::now();
                let formats = expand_formats(res.out_formats(), q.shape().c);
                let out = body.add_saturating(&q, formats);
                walk.glue_secs += t.elapsed().as_secs_f64();
                out
            }
            leaf => {
                let in_len = q.shape().len();
                let _span = span::child_span("walk.layer");
                let t = Instant::now();
                let out = execute_layer(leaf, q);
                let secs = t.elapsed().as_secs_f64();
                let s = out.shape();
                let (kind, ops, weights) = match leaf {
                    QLayer::Conv(c) => (
                        "conv",
                        (c.co() * c.ci() * c.k() * c.k() * s.n * s.h * s.w) as f64,
                        c.weights().len(),
                    ),
                    QLayer::Shuffle(_) | QLayer::Unshuffle(_) => ("shuffle", 0.0, 0),
                    _ => ("act", 0.0, 0),
                };
                walk.leaves.push(LeafTime {
                    path,
                    kind,
                    secs,
                    ops,
                    bytes: 8.0 * (in_len + s.len() + weights) as f64,
                });
                out
            }
        };
    }
    q
}

/// The integer oracle: the same pipeline with every convolution run by
/// the scalar i64 reference loop (`run_conv_reference`) instead of the
/// production GEMM. Non-convolution layers share their single
/// implementation; residual bodies are walked so that their
/// convolutions run on the oracle too.
pub fn quant_reference(model: &QuantizedModel, x: &Tensor) -> Tensor {
    let q = QTensor::quantize(x, vec![model.input_format(); x.shape().c]);
    reference_chain(model.layers(), q).dequantize()
}

fn reference_chain(layers: &[QLayer], mut q: QTensor) -> QTensor {
    for layer in layers {
        q = match layer {
            QLayer::Conv(c) => run_conv_reference(c, &q),
            QLayer::Residual(res) => {
                let body = reference_chain(res.body(), q.clone());
                let formats = expand_formats(res.out_formats(), q.shape().c);
                body.add_saturating(&q, formats)
            }
            QLayer::UpsampleResidual(_) => {
                panic!(
                    "the i64 oracle walk covers the benchmark's models, which have no bicubic skip"
                )
            }
            other => execute_layer(other, q),
        };
    }
    q
}

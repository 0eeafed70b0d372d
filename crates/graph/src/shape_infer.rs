//! Shape inference for every operator.
//!
//! Supports dynamic dims: arithmetic over a dynamic extent produces a
//! derived dynamic extent when the result cannot be computed, and
//! propagates fixed values when it can.

use crate::graph::GraphError;
use crate::op::{Dim, Op, PoolKind, TensorType};

fn fail(reason: String) -> GraphError {
    GraphError::ShapeInference { reason }
}

/// Applies the conv output-size formula to one spatial dim.
fn conv_out(dim: &Dim, kernel: usize, stride: usize, padding: usize) -> Result<Dim, GraphError> {
    if stride == 0 {
        return Err(fail("stride must be positive".into()));
    }
    let n = match dim {
        Dim::Fixed(n) => *n,
        Dim::Dynamic(name) => return Ok(Dim::Dynamic(format!("conv({name})"))),
    };
    match padding.checked_mul(2).and_then(|p| p.checked_add(n)) {
        Some(padded) if padded >= kernel => Ok(Dim::Fixed((padded - kernel) / stride + 1)),
        Some(padded) => Err(fail(format!(
            "kernel {kernel} is larger than the padded input {padded}"
        ))),
        None => Err(fail(format!("padding {padding} overflows usize"))),
    }
}

/// Rejects a type whose fixed byte size overflows usize.
fn fits(ty: TensorType) -> Result<TensorType, GraphError> {
    let mut fixed = ty.dims.iter().filter_map(Dim::value);
    match fixed.try_fold(ty.dtype.size_bytes(), usize::checked_mul) {
        Some(_) => Ok(ty),
        None => Err(fail(format!("{ty} has more bytes than usize holds"))),
    }
}

/// Checked `a * b + c` for one output extent.
fn extent(a: usize, b: usize, c: usize) -> Result<Dim, GraphError> {
    a.checked_mul(b)
        .and_then(|v| v.checked_add(c))
        .map(Dim::Fixed)
        .ok_or_else(|| fail(format!("extent {a}x{b} overflows usize")))
}

/// Infers the output type of `op` given its input types.
///
/// # Errors
///
/// Returns [`GraphError::ShapeInference`] when the inputs are malformed
/// for the operator (wrong rank, mismatched shapes, bad axis, channel
/// count not divisible by groups, a zero stride, a kernel larger than
/// its padded input, a size that overflows usize, ...).
pub fn infer_node_shape(op: &Op, inputs: &[&TensorType]) -> Result<TensorType, GraphError> {
    infer_op(op, inputs).and_then(fits)
}

fn infer_op(op: &Op, inputs: &[&TensorType]) -> Result<TensorType, GraphError> {
    let one = |inputs: &[&TensorType]| -> Result<TensorType, GraphError> {
        inputs
            .first()
            .copied()
            .cloned()
            .ok_or_else(|| fail("operator requires an input".into()))
    };
    match op {
        Op::Input { ty } => Ok(ty.clone()),
        Op::Conv2d {
            out_channels,
            kernel,
            stride,
            padding,
            groups,
        } => {
            let x = one(inputs)?;
            if x.rank() != 4 {
                return Err(fail(format!("conv2d expects rank-4 input, got {x}")));
            }
            if *groups == 0 {
                return Err(fail("groups must be positive".into()));
            }
            if let Some(c) = x.dims[1].value() {
                if c % groups != 0 {
                    return Err(fail(format!(
                        "channels {c} not divisible by groups {groups}"
                    )));
                }
            }
            if out_channels % groups != 0 {
                return Err(fail(format!(
                    "out_channels {out_channels} not divisible by groups {groups}"
                )));
            }
            Ok(TensorType {
                dtype: x.dtype,
                dims: vec![
                    x.dims[0].clone(),
                    Dim::Fixed(*out_channels),
                    conv_out(&x.dims[2], *kernel, *stride, *padding)?,
                    conv_out(&x.dims[3], *kernel, *stride, *padding)?,
                ],
            })
        }
        Op::ConvTranspose2d {
            out_channels,
            kernel,
            stride,
        } => {
            let x = one(inputs)?;
            if x.rank() != 4 {
                return Err(fail(format!("deconv expects rank-4 input, got {x}")));
            }
            if *stride == 0 {
                return Err(fail("stride must be positive".into()));
            }
            let up = |d: &Dim| match d {
                // Standard transposed-conv output size with padding chosen
                // for exact stride-multiple upsampling.
                Dim::Fixed(n) => extent(*n, *stride, kernel.saturating_sub(*stride)),
                Dim::Dynamic(name) => Ok(Dim::Dynamic(format!("deconv({name})"))),
            };
            Ok(TensorType {
                dtype: x.dtype,
                dims: vec![
                    x.dims[0].clone(),
                    Dim::Fixed(*out_channels),
                    up(&x.dims[2])?,
                    up(&x.dims[3])?,
                ],
            })
        }
        Op::Dense { units } => {
            let x = one(inputs)?;
            if x.rank() == 0 {
                return Err(fail("dense expects rank >= 1".into()));
            }
            let mut dims = x.dims.clone();
            *dims.last_mut().expect("rank >= 1") = Dim::Fixed(*units);
            Ok(TensorType {
                dtype: x.dtype,
                dims,
            })
        }
        Op::MatMul => {
            if inputs.len() != 2 {
                return Err(fail("matmul needs two inputs".into()));
            }
            let (a, b) = (inputs[0], inputs[1]);
            if a.rank() < 2 || b.rank() < 2 {
                return Err(fail(format!("matmul ranks too small: {a} x {b}")));
            }
            let (ka, kb) = (&a.dims[a.rank() - 1], &b.dims[b.rank() - 2]);
            if let (Some(x), Some(y)) = (ka.value(), kb.value()) {
                if x != y {
                    return Err(fail(format!("matmul inner dims differ: {x} vs {y}")));
                }
            }
            let mut dims = a.dims[..a.rank() - 1].to_vec();
            dims.push(b.dims[b.rank() - 1].clone());
            Ok(TensorType {
                dtype: a.dtype,
                dims,
            })
        }
        // Shape-preserving element-wise ops.
        Op::Activation { .. }
        | Op::Relu
        | Op::LeakyRelu { .. }
        | Op::BatchNorm
        | Op::LayerNorm
        | Op::Softmax => one(inputs),
        Op::Binary { .. } => {
            if inputs.len() != 2 {
                return Err(fail("binary op needs two inputs".into()));
            }
            let (a, b) = (inputs[0], inputs[1]);
            if a.dims != b.dims {
                return Err(fail(format!("binary operand shapes differ: {a} vs {b}")));
            }
            Ok(a.clone())
        }
        Op::Pool {
            kind,
            kernel,
            stride,
        } => {
            let x = one(inputs)?;
            if x.rank() != 4 {
                return Err(fail(format!("pool expects rank-4 input, got {x}")));
            }
            match kind {
                PoolKind::GlobalAvg => Ok(TensorType {
                    dtype: x.dtype,
                    dims: vec![
                        x.dims[0].clone(),
                        x.dims[1].clone(),
                        Dim::Fixed(1),
                        Dim::Fixed(1),
                    ],
                }),
                _ => Ok(TensorType {
                    dtype: x.dtype,
                    dims: vec![
                        x.dims[0].clone(),
                        x.dims[1].clone(),
                        conv_out(&x.dims[2], *kernel, *stride, 0)?,
                        conv_out(&x.dims[3], *kernel, *stride, 0)?,
                    ],
                }),
            }
        }
        Op::Upsample { scale } => {
            let x = one(inputs)?;
            if x.rank() != 4 {
                return Err(fail(format!("upsample expects rank-4 input, got {x}")));
            }
            let up = |d: &Dim| match d {
                Dim::Fixed(n) => extent(*n, *scale, 0),
                Dim::Dynamic(name) => Ok(Dim::Dynamic(format!("{scale}x({name})"))),
            };
            Ok(TensorType {
                dtype: x.dtype,
                dims: vec![
                    x.dims[0].clone(),
                    x.dims[1].clone(),
                    up(&x.dims[2])?,
                    up(&x.dims[3])?,
                ],
            })
        }
        Op::Concat { axis } => {
            let first = one(inputs)?;
            if *axis >= first.rank() {
                return Err(fail(format!("concat axis {axis} out of range")));
            }
            let mut total = 0usize;
            let mut all_fixed = true;
            for t in inputs {
                if t.rank() != first.rank() {
                    return Err(fail("concat rank mismatch".into()));
                }
                for (i, (da, db)) in first.dims.iter().zip(&t.dims).enumerate() {
                    if i != *axis {
                        if let (Some(x), Some(y)) = (da.value(), db.value()) {
                            if x != y {
                                return Err(fail(format!("concat dim {i} differs: {x} vs {y}")));
                            }
                        }
                    }
                }
                match t.dims[*axis].value() {
                    Some(v) => {
                        total = total
                            .checked_add(v)
                            .ok_or_else(|| fail("concat extent overflows usize".into()))?
                    }
                    None => all_fixed = false,
                }
            }
            let mut dims = first.dims.clone();
            dims[*axis] = if all_fixed {
                Dim::Fixed(total)
            } else {
                Dim::Dynamic("concat".into())
            };
            Ok(TensorType {
                dtype: first.dtype,
                dims,
            })
        }
        Op::Transpose { perm } => {
            let x = one(inputs)?;
            if perm.len() != x.rank() {
                return Err(fail(format!(
                    "transpose perm rank {} != input rank {}",
                    perm.len(),
                    x.rank()
                )));
            }
            let mut seen = vec![false; perm.len()];
            for &p in perm {
                if p >= perm.len() || seen[p] {
                    return Err(fail(format!("{perm:?} is not a permutation")));
                }
                seen[p] = true;
            }
            Ok(TensorType {
                dtype: x.dtype,
                dims: perm.iter().map(|&p| x.dims[p].clone()).collect(),
            })
        }
        Op::Reshape { dims } => {
            let x = one(inputs)?;
            // When both sides are fully fixed, check element counts.
            let out = fits(TensorType {
                dtype: x.dtype,
                dims: dims.clone(),
            })?;
            if let (Some(a), Some(b)) = (x.len(), out.len()) {
                if a != b {
                    return Err(fail(format!("reshape {a} elements into {b}")));
                }
            }
            Ok(out)
        }
        Op::Embedding { width, .. } => {
            let idx = one(inputs)?;
            let mut dims = idx.dims.clone();
            dims.push(Dim::Fixed(*width));
            Ok(TensorType {
                dtype: idx.dtype,
                dims,
            })
        }
        Op::TopK { k } => {
            let x = one(inputs)?;
            if x.rank() == 0 {
                return Err(fail("topk expects rank >= 1".into()));
            }
            let mut dims = x.dims.clone();
            *dims.last_mut().expect("rank >= 1") = Dim::Fixed(*k);
            Ok(TensorType {
                dtype: x.dtype,
                dims,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtu_isa::SfuFunc;

    fn t(dims: &[usize]) -> TensorType {
        TensorType::fixed(dims)
    }

    #[test]
    fn conv_shape_formula() {
        let x = t(&[1, 3, 224, 224]);
        let out = infer_node_shape(&Op::conv2d(64, 7, 2, 3), &[&x]).unwrap();
        assert_eq!(out.dims[1], Dim::Fixed(64));
        assert_eq!(out.dims[2], Dim::Fixed(112));
        // Same padding preserves size.
        let out = infer_node_shape(&Op::conv2d(64, 3, 1, 1), &[&x]).unwrap();
        assert_eq!(out.dims[2], Dim::Fixed(224));
    }

    #[test]
    fn conv_group_validation() {
        let x = t(&[1, 30, 8, 8]);
        assert!(infer_node_shape(
            &Op::Conv2d {
                out_channels: 64,
                kernel: 3,
                stride: 1,
                padding: 1,
                groups: 7
            },
            &[&x]
        )
        .is_err());
        assert!(infer_node_shape(&Op::conv2d(64, 3, 1, 1), &[&t(&[1, 3])]).is_err());
    }

    #[test]
    fn deconv_upsamples() {
        let x = t(&[1, 64, 56, 56]);
        let out = infer_node_shape(
            &Op::ConvTranspose2d {
                out_channels: 32,
                kernel: 2,
                stride: 2,
            },
            &[&x],
        )
        .unwrap();
        assert_eq!(out.dims[2], Dim::Fixed(112));
        assert_eq!(out.dims[1], Dim::Fixed(32));
    }

    #[test]
    fn dense_and_matmul() {
        let x = t(&[8, 384, 1024]);
        let out = infer_node_shape(&Op::Dense { units: 4096 }, &[&x]).unwrap();
        assert_eq!(out.dims[2], Dim::Fixed(4096));

        let a = t(&[8, 12, 384, 64]);
        let b = t(&[8, 12, 64, 384]);
        let out = infer_node_shape(&Op::MatMul, &[&a, &b]).unwrap();
        assert_eq!(
            out.dims,
            vec![
                Dim::Fixed(8),
                Dim::Fixed(12),
                Dim::Fixed(384),
                Dim::Fixed(384)
            ]
        );
        let bad = t(&[8, 12, 63, 384]);
        assert!(infer_node_shape(&Op::MatMul, &[&a, &bad]).is_err());
    }

    #[test]
    fn pooling() {
        let x = t(&[1, 64, 112, 112]);
        let out = infer_node_shape(
            &Op::Pool {
                kind: PoolKind::Max,
                kernel: 2,
                stride: 2,
            },
            &[&x],
        )
        .unwrap();
        assert_eq!(out.dims[2], Dim::Fixed(56));
        let g = infer_node_shape(
            &Op::Pool {
                kind: PoolKind::GlobalAvg,
                kernel: 0,
                stride: 0,
            },
            &[&x],
        )
        .unwrap();
        assert_eq!(g.dims[2], Dim::Fixed(1));
        assert_eq!(g.dims[1], Dim::Fixed(64));
    }

    #[test]
    fn concat_and_upsample() {
        let a = t(&[1, 64, 56, 56]);
        let b = t(&[1, 128, 56, 56]);
        let out = infer_node_shape(&Op::Concat { axis: 1 }, &[&a, &b]).unwrap();
        assert_eq!(out.dims[1], Dim::Fixed(192));
        let bad = t(&[1, 128, 28, 28]);
        assert!(infer_node_shape(&Op::Concat { axis: 1 }, &[&a, &bad]).is_err());

        let up = infer_node_shape(&Op::Upsample { scale: 2 }, &[&a]).unwrap();
        assert_eq!(up.dims[3], Dim::Fixed(112));
    }

    #[test]
    fn transpose_and_reshape() {
        let x = t(&[2, 3, 4]);
        let out = infer_node_shape(
            &Op::Transpose {
                perm: vec![2, 0, 1],
            },
            &[&x],
        )
        .unwrap();
        assert_eq!(out.dims, vec![Dim::Fixed(4), Dim::Fixed(2), Dim::Fixed(3)]);
        assert!(infer_node_shape(
            &Op::Transpose {
                perm: vec![0, 0, 1]
            },
            &[&x]
        )
        .is_err());

        let r = infer_node_shape(
            &Op::Reshape {
                dims: vec![Dim::Fixed(6), Dim::Fixed(4)],
            },
            &[&x],
        )
        .unwrap();
        assert_eq!(r.len(), Some(24));
        assert!(infer_node_shape(
            &Op::Reshape {
                dims: vec![Dim::Fixed(5)]
            },
            &[&x]
        )
        .is_err());
    }

    #[test]
    fn dynamic_batch_propagates() {
        let x = TensorType {
            dtype: dtu_isa::DataType::Fp16,
            dims: vec![
                Dim::Dynamic("batch".into()),
                Dim::Fixed(3),
                Dim::Fixed(224),
                Dim::Fixed(224),
            ],
        };
        let out = infer_node_shape(&Op::conv2d(64, 3, 2, 1), &[&x]).unwrap();
        assert_eq!(out.dims[0], Dim::Dynamic("batch".into()));
        assert_eq!(out.dims[2], Dim::Fixed(112));
        // Binding later fixes it.
        let bound = out.bind("batch", 16);
        assert_eq!(bound.dims[0], Dim::Fixed(16));
    }

    #[test]
    fn embedding_and_topk() {
        let idx = t(&[1, 384]);
        let out = infer_node_shape(
            &Op::Embedding {
                vocab: 30_000,
                width: 1024,
            },
            &[&idx],
        )
        .unwrap();
        assert_eq!(out.dims.last(), Some(&Dim::Fixed(1024)));

        let scores = t(&[1, 1000]);
        let top = infer_node_shape(&Op::TopK { k: 5 }, &[&scores]).unwrap();
        assert_eq!(top.dims, vec![Dim::Fixed(1), Dim::Fixed(5)]);
    }

    #[test]
    fn elementwise_shape_checks() {
        let a = t(&[2, 3]);
        let b = t(&[2, 3]);
        let c = t(&[3, 2]);
        assert!(infer_node_shape(
            &Op::Binary {
                kind: crate::BinaryKind::Add
            },
            &[&a, &b]
        )
        .is_ok());
        assert!(infer_node_shape(
            &Op::Binary {
                kind: crate::BinaryKind::Add
            },
            &[&a, &c]
        )
        .is_err());
        let act = infer_node_shape(
            &Op::Activation {
                func: SfuFunc::Gelu,
            },
            &[&a],
        )
        .unwrap();
        assert_eq!(act.dims, a.dims);
    }
}

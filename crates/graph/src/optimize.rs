//! Graph-level optimisation passes.
//!
//! Alongside operator fusion, the graph compilers the paper cites
//! (TASO, Rammer, Glow, DNNFusion — §V-B's references) run structural
//! rewrites before lowering. This module implements the classic trio
//! the TopsInference layer needs:
//!
//! * **dead-code elimination** — drop nodes that cannot reach an output;
//! * **identity elimination** — remove no-op layout operators
//!   (identity transposes, reshapes to the same shape, inverse
//!   transpose pairs, single-input concats);
//! * **common-subexpression elimination** — merge structurally
//!   identical nodes with identical inputs.
//!
//! [`optimize`] runs the passes to a fixed point and reports what it
//! removed.

use crate::graph::{Graph, GraphError, Node, NodeId};
use crate::op::{Op, TensorType};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::mem::discriminant;

/// What one [`optimize`] run eliminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OptimizeStats {
    /// Nodes removed because no output depends on them.
    pub dead_nodes: usize,
    /// No-op layout operators removed.
    pub identity_ops: usize,
    /// Nodes merged into an identical twin.
    pub cse_merged: usize,
    /// Fixed-point iterations taken.
    pub iterations: usize,
    /// Whole-graph shape inferences run (at most one per iteration,
    /// and only in iterations that meet a reshape).
    pub shape_passes: usize,
}

impl OptimizeStats {
    /// Total nodes eliminated.
    pub fn total(&self) -> usize {
        self.dead_nodes + self.identity_ops + self.cse_merged
    }
}

/// Whether CSE may merge two ops: structural equality, except that
/// `LeakyRelu` slopes compare by bit pattern (`0.0` and `-0.0` stay
/// apart) and any two NaN slopes match, which is exactly when their
/// `Debug` renderings match.
fn same_op(a: &Op, b: &Op) -> bool {
    match (a, b) {
        (Op::LeakyRelu { alpha: x }, Op::LeakyRelu { alpha: y }) => {
            x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
        }
        _ => a == b,
    }
}

/// Whether an op may be CSE-merged: only ops without learned parameters.
/// Two structurally identical convs carry *different weights* in a real
/// network (this IR does not represent weight values), so merging them
/// would change the model.
fn cse_eligible(op: &Op) -> bool {
    !matches!(
        op,
        Op::Conv2d { .. }
            | Op::ConvTranspose2d { .. }
            | Op::Dense { .. }
            | Op::Embedding { .. }
            | Op::BatchNorm
            | Op::LayerNorm
    )
}

/// Whether a node is a no-op given its input/output types, returning the
/// input it forwards. `shapes` is the graph's shape map, inferred on the
/// first reshape that needs it and reused for the rest of the pass.
fn identity_forward(
    graph: &Graph,
    id: NodeId,
    shapes: &mut Option<BTreeMap<NodeId, TensorType>>,
) -> Result<Option<NodeId>, GraphError> {
    let node = graph.node(id)?;
    let forwarded = match &node.op {
        Op::Transpose { perm } => {
            if perm.iter().enumerate().all(|(i, &p)| i == p) {
                Some(node.inputs[0])
            } else {
                // Transpose of a transpose with the inverse permutation.
                let prev = graph.node(node.inputs[0])?;
                if let Op::Transpose { perm: prev_perm } = &prev.op {
                    let composes_to_identity = perm.len() == prev_perm.len()
                        && perm.iter().enumerate().all(|(i, &p)| prev_perm[p] == i);
                    if composes_to_identity {
                        Some(prev.inputs[0])
                    } else {
                        None
                    }
                } else {
                    None
                }
            }
        }
        Op::Reshape { dims } => {
            // Reshape to the producer's own (fully fixed) shape.
            let shapes = match shapes {
                Some(shapes) => shapes,
                None => shapes.insert(graph.infer_shapes()?),
            };
            let src = &shapes[&node.inputs[0]];
            if src.is_fully_fixed() && src.dims == *dims {
                Some(node.inputs[0])
            } else {
                None
            }
        }
        Op::Concat { .. } if node.inputs.len() == 1 => Some(node.inputs[0]),
        Op::Upsample { scale: 1 } => Some(node.inputs[0]),
        _ => None,
    };
    Ok(forwarded)
}

/// Rebuilds a graph keeping only `keep`, rewiring inputs through
/// `replace` (old id -> forwarded id, resolved transitively).
fn rebuild(
    graph: &Graph,
    keep: &BTreeSet<NodeId>,
    replace: &BTreeMap<NodeId, NodeId>,
) -> Result<Graph, GraphError> {
    let resolve = |mut id: NodeId| {
        let mut hops = 0;
        while let Some(&next) = replace.get(&id) {
            id = next;
            hops += 1;
            assert!(hops <= graph.len(), "replacement cycle");
        }
        id
    };
    let mut out = Graph::new(graph.name.clone());
    let mut remap: BTreeMap<NodeId, NodeId> = BTreeMap::new();
    for node in graph.nodes() {
        if !keep.contains(&node.id) {
            continue;
        }
        let inputs: Vec<NodeId> = node.inputs.iter().map(|&i| remap[&resolve(i)]).collect();
        let new_id = match &node.op {
            Op::Input { ty } => out.input(node.name.clone(), ty.clone()),
            op => out.add_named_node(node.name.clone(), op.clone(), inputs)?,
        };
        remap.insert(node.id, new_id);
    }
    for &o in graph.outputs() {
        out.mark_output(remap[&resolve(o)]);
    }
    Ok(out)
}

/// Runs DCE + identity elimination + CSE to a fixed point.
///
/// Graph outputs are never eliminated or merged away; inputs survive
/// even when unused (they are the model's signature).
///
/// # Errors
///
/// Propagates [`GraphError::NoOutputs`] and shape-inference failures
/// (identity detection for reshapes needs fixed shapes; dynamic graphs
/// still get DCE and CSE).
pub fn optimize(graph: &Graph) -> Result<(Graph, OptimizeStats), GraphError> {
    if graph.outputs().is_empty() {
        return Err(GraphError::NoOutputs);
    }
    let mut current = graph.clone();
    let mut stats = OptimizeStats::default();
    loop {
        stats.iterations += 1;
        let before = current.len();

        // --- identity elimination ---
        let mut replace: BTreeMap<NodeId, NodeId> = BTreeMap::new();
        let mut shapes = None;
        for node in current.nodes() {
            if current.outputs().contains(&node.id) {
                continue; // outputs keep their identity
            }
            if let Some(fwd) = identity_forward(&current, node.id, &mut shapes)? {
                replace.insert(node.id, fwd);
            }
        }
        stats.identity_ops += replace.len();
        stats.shape_passes += usize::from(shapes.is_some());

        // --- CSE ---
        // Candidates bucketed by op kind and inputs; a bucket holds the
        // first node of each distinct op, which later twins merge into.
        let mut seen: HashMap<_, Vec<&Node>> = HashMap::new();
        for node in current.nodes() {
            if matches!(node.op, Op::Input { .. })
                || replace.contains_key(&node.id)
                || !cse_eligible(&node.op)
            {
                continue;
            }
            // Keys use post-replacement inputs so chains collapse together.
            let inputs: Vec<NodeId> = node
                .inputs
                .iter()
                .map(|&i| *replace.get(&i).unwrap_or(&i))
                .collect();
            let bucket = seen.entry((discriminant(&node.op), inputs)).or_default();
            match bucket.iter().find(|twin| same_op(&twin.op, &node.op)) {
                Some(twin) if !current.outputs().contains(&node.id) => {
                    replace.insert(node.id, twin.id);
                    stats.cse_merged += 1;
                }
                Some(_) => {}
                None => bucket.push(node),
            }
        }

        // --- DCE: keep what outputs (after replacement) reach ---
        let resolve = |mut id: NodeId| {
            while let Some(&n) = replace.get(&id) {
                id = n;
            }
            id
        };
        let mut keep: BTreeSet<NodeId> = BTreeSet::new();
        let mut stack: Vec<NodeId> = current.outputs().iter().map(|&o| resolve(o)).collect();
        while let Some(id) = stack.pop() {
            if !keep.insert(id) {
                continue;
            }
            for &i in &current.node(id)?.inputs {
                stack.push(resolve(i));
            }
        }
        // Inputs always survive (model signature).
        for node in current.nodes() {
            if matches!(node.op, Op::Input { .. }) {
                keep.insert(node.id);
            }
        }
        let removed_dead = current
            .nodes()
            .iter()
            .filter(|n| !keep.contains(&n.id) && !replace.contains_key(&n.id))
            .count();
        stats.dead_nodes += removed_dead;

        current = rebuild(&current, &keep, &replace)?;
        if current.len() == before {
            break;
        }
    }
    Ok((current, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{BinaryKind, TensorType};

    fn base() -> (Graph, NodeId) {
        let mut g = Graph::new("opt");
        let x = g.input("x", TensorType::fixed(&[1, 4, 8, 8]));
        (g, x)
    }

    #[test]
    fn dead_code_removed() {
        let (mut g, x) = base();
        let live = g.add_node(Op::Relu, vec![x]).unwrap();
        let dead = g.add_node(Op::conv2d(8, 3, 1, 1), vec![x]).unwrap();
        let _deader = g.add_node(Op::Relu, vec![dead]).unwrap();
        g.mark_output(live);
        let (opt, stats) = optimize(&g).unwrap();
        assert_eq!(opt.len(), 2); // input + relu
        assert_eq!(stats.dead_nodes, 2);
        opt.infer_shapes().unwrap();
    }

    #[test]
    fn identity_transpose_removed() {
        let (mut g, x) = base();
        let t = g
            .add_node(
                Op::Transpose {
                    perm: vec![0, 1, 2, 3],
                },
                vec![x],
            )
            .unwrap();
        let r = g.add_node(Op::Relu, vec![t]).unwrap();
        g.mark_output(r);
        let (opt, stats) = optimize(&g).unwrap();
        assert_eq!(stats.identity_ops, 1);
        assert_eq!(opt.len(), 2);
        assert_eq!(opt.nodes()[1].inputs, vec![opt.nodes()[0].id]);
    }

    #[test]
    fn inverse_transpose_pair_cancelled() {
        let (mut g, x) = base();
        let t1 = g
            .add_node(
                Op::Transpose {
                    perm: vec![0, 2, 3, 1],
                },
                vec![x],
            )
            .unwrap();
        let t2 = g
            .add_node(
                Op::Transpose {
                    perm: vec![0, 3, 1, 2],
                },
                vec![t1],
            )
            .unwrap();
        let r = g.add_node(Op::Relu, vec![t2]).unwrap();
        g.mark_output(r);
        let (opt, stats) = optimize(&g).unwrap();
        // t2 forwards to x; t1 becomes dead.
        assert!(stats.identity_ops >= 1);
        assert_eq!(opt.count_ops(|op| matches!(op, Op::Transpose { .. })), 0);
        let shapes = opt.infer_shapes().unwrap();
        assert_eq!(shapes[opt.outputs().last().unwrap()].dims.len(), 4);
    }

    #[test]
    fn noop_reshape_removed_but_real_reshape_kept() {
        let (mut g, x) = base();
        use crate::op::Dim;
        let same = g
            .add_node(
                Op::Reshape {
                    dims: vec![Dim::Fixed(1), Dim::Fixed(4), Dim::Fixed(8), Dim::Fixed(8)],
                },
                vec![x],
            )
            .unwrap();
        let real = g
            .add_node(
                Op::Reshape {
                    dims: vec![Dim::Fixed(1), Dim::Fixed(256)],
                },
                vec![same],
            )
            .unwrap();
        g.mark_output(real);
        let (opt, stats) = optimize(&g).unwrap();
        assert_eq!(stats.identity_ops, 1);
        assert_eq!(opt.count_ops(|op| matches!(op, Op::Reshape { .. })), 1);
    }

    #[test]
    fn cse_merges_identical_weightless_ops_only() {
        let (mut g, x) = base();
        // Two identical ReLUs merge; two identical convs must NOT (they
        // carry different weights in a real network).
        let r1 = g.add_node(Op::Relu, vec![x]).unwrap();
        let r2 = g.add_node(Op::Relu, vec![x]).unwrap();
        let c1 = g.add_node(Op::conv2d(4, 3, 1, 1), vec![r1]).unwrap();
        let c2 = g.add_node(Op::conv2d(4, 3, 1, 1), vec![r2]).unwrap();
        let s = g
            .add_node(
                Op::Binary {
                    kind: BinaryKind::Add,
                },
                vec![c1, c2],
            )
            .unwrap();
        g.mark_output(s);
        let (opt, stats) = optimize(&g).unwrap();
        assert_eq!(stats.cse_merged, 1); // only the relu twins
        assert_eq!(opt.count_ops(|op| matches!(op, Op::Conv2d { .. })), 2);
        assert_eq!(opt.count_ops(|op| matches!(op, Op::Relu)), 1);
        // Both convs now read the surviving relu.
        let convs: Vec<_> = opt
            .nodes()
            .iter()
            .filter(|n| matches!(n.op, Op::Conv2d { .. }))
            .collect();
        assert_eq!(convs[0].inputs, convs[1].inputs);
    }

    #[test]
    fn outputs_never_eliminated() {
        let (mut g, x) = base();
        let t = g
            .add_node(
                Op::Transpose {
                    perm: vec![0, 1, 2, 3],
                },
                vec![x],
            )
            .unwrap();
        g.mark_output(t); // the identity IS the output
        let (opt, stats) = optimize(&g).unwrap();
        assert_eq!(stats.identity_ops, 0);
        assert_eq!(opt.outputs().len(), 1);
        assert!(matches!(
            opt.node(opt.outputs()[0]).unwrap().op,
            Op::Transpose { .. }
        ));
    }

    #[test]
    fn chains_collapse_to_fixed_point() {
        let (mut g, x) = base();
        // Four stacked identity transposes before a relu.
        let mut cur = x;
        for _ in 0..4 {
            cur = g
                .add_node(
                    Op::Transpose {
                        perm: vec![0, 1, 2, 3],
                    },
                    vec![cur],
                )
                .unwrap();
        }
        let r = g.add_node(Op::Relu, vec![cur]).unwrap();
        g.mark_output(r);
        let (opt, stats) = optimize(&g).unwrap();
        assert_eq!(opt.len(), 2);
        assert!(stats.iterations >= 1);
        assert_eq!(stats.total(), 4);
    }

    #[test]
    fn benchmark_models_survive_optimization() {
        // The suite's graphs are already lean; the passes must at least
        // preserve shapes and never grow the graph.
        use crate::fusion::{fuse, FusionConfig};
        let mut g = Graph::new("mini-res");
        let x = g.input("x", TensorType::fixed(&[1, 8, 16, 16]));
        let c1 = g.add_node(Op::conv2d(8, 3, 1, 1), vec![x]).unwrap();
        let b = g.add_node(Op::BatchNorm, vec![c1]).unwrap();
        let r = g.add_node(Op::Relu, vec![b]).unwrap();
        let a = g
            .add_node(
                Op::Binary {
                    kind: BinaryKind::Add,
                },
                vec![r, x],
            )
            .unwrap();
        g.mark_output(a);
        let (opt, _) = optimize(&g).unwrap();
        assert!(opt.len() <= g.len());
        let s1 = g.infer_shapes().unwrap();
        let s2 = opt.infer_shapes().unwrap();
        assert_eq!(
            s1[g.outputs().last().unwrap()],
            s2[opt.outputs().last().unwrap()]
        );
        // Still fusable afterwards.
        fuse(&opt, &FusionConfig::default()).unwrap();
    }

    /// Optimises `a` and `b`, both over `x`, summed into the output.
    fn twins(a: Op, b: Op) -> OptimizeStats {
        let (mut g, x) = base();
        let n1 = g.add_node(a, vec![x]).unwrap();
        let n2 = g.add_node(b, vec![x]).unwrap();
        let kind = BinaryKind::Add;
        let s = g.add_node(Op::Binary { kind }, vec![n1, n2]).unwrap();
        g.mark_output(s);
        optimize(&g).unwrap().1
    }

    #[test]
    fn cse_merges_leaky_relus_with_equal_slopes() {
        let leaky = |alpha| Op::LeakyRelu { alpha };
        assert_eq!(twins(leaky(0.1), leaky(0.1)).cse_merged, 1);
        assert_eq!(twins(leaky(0.1), leaky(0.2)).cse_merged, 0);
        // Equal as floats but rendered differently: never merged.
        assert_eq!(twins(leaky(0.0), leaky(-0.0)).cse_merged, 0);
    }

    #[test]
    fn cse_keeps_transposes_with_different_perms() {
        let perm = |perm: &[usize]| Op::Transpose {
            perm: perm.to_vec(),
        };
        assert_eq!(
            twins(perm(&[0, 2, 3, 1]), perm(&[0, 3, 1, 2])).cse_merged,
            0
        );
        assert_eq!(
            twins(perm(&[0, 2, 3, 1]), perm(&[0, 2, 3, 1])).cse_merged,
            1
        );
    }

    #[test]
    fn cse_matches_exactly_the_debug_rendering() {
        use crate::op::Dim;
        let ops = [
            Op::Relu,
            Op::Softmax,
            Op::LeakyRelu { alpha: 0.1 },
            Op::LeakyRelu { alpha: 0.2 },
            Op::LeakyRelu { alpha: 0.0 },
            Op::LeakyRelu { alpha: -0.0 },
            Op::LeakyRelu { alpha: f32::NAN },
            Op::LeakyRelu { alpha: -f32::NAN },
            Op::Transpose { perm: vec![1, 0] },
            Op::Reshape {
                dims: vec![Dim::Fixed(2)],
            },
            Op::Reshape {
                dims: vec![Dim::Dynamic("2".into())],
            },
            Op::Pool {
                kind: crate::op::PoolKind::Max,
                kernel: 2,
                stride: 2,
            },
        ];
        for a in &ops {
            for b in &ops {
                assert_eq!(
                    same_op(a, b),
                    format!("{a:?}") == format!("{b:?}"),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn output_twin_is_never_merged_away() {
        let (mut g, x) = base();
        let r1 = g.add_node(Op::Relu, vec![x]).unwrap();
        let r2 = g.add_node(Op::Relu, vec![x]).unwrap();
        let r3 = g.add_node(Op::Relu, vec![x]).unwrap();
        let kind = BinaryKind::Add;
        let s = g.add_node(Op::Binary { kind }, vec![r1, r3]).unwrap();
        g.mark_output(r2);
        g.mark_output(s);
        let (opt, stats) = optimize(&g).unwrap();
        // r3 merges into the first twin, r1; the output r2 survives.
        assert_eq!(stats.cse_merged, 1);
        assert_eq!(opt.count_ops(|op| matches!(op, Op::Relu)), 2);
        assert_eq!(opt.outputs().len(), 2);
    }

    #[test]
    fn shapes_are_inferred_at_most_once_per_iteration() {
        use crate::op::Dim;
        let (mut g, x) = base();
        let same = vec![Dim::Fixed(1), Dim::Fixed(4), Dim::Fixed(8), Dim::Fixed(8)];
        let flat = vec![Dim::Fixed(1), Dim::Fixed(256)];
        let mut cur = x;
        for i in 0..64 {
            // Every fourth reshape flattens and the next one restores
            // the shape; the other half are identities.
            let dims = if i % 4 == 1 {
                flat.clone()
            } else {
                same.clone()
            };
            cur = g.add_node(Op::Reshape { dims }, vec![cur]).unwrap();
            cur = g.add_node(Op::Relu, vec![cur]).unwrap();
        }
        g.mark_output(cur);
        let (opt, stats) = optimize(&g).unwrap();
        assert!(stats.identity_ops > 0);
        assert!(stats.shape_passes >= 1);
        assert!(
            stats.shape_passes <= stats.iterations,
            "{} shape passes over {} iterations",
            stats.shape_passes,
            stats.iterations
        );
        opt.infer_shapes().unwrap();
    }

    #[test]
    fn shape_inference_runs_only_when_a_reshape_is_present() {
        use crate::op::Dim;
        // A kernel larger than its input fails shape inference.
        let (mut g, x) = base();
        let bad = g.add_node(Op::conv2d(4, 99, 1, 0), vec![x]).unwrap();
        let r = g.add_node(Op::Relu, vec![bad]).unwrap();
        g.mark_output(r);
        let stats = optimize(&g).expect("no reshape, no shape inference").1;
        assert_eq!(stats.shape_passes, 0);
        let dims = vec![Dim::Fixed(1)];
        let reshape = g.add_node(Op::Reshape { dims }, vec![r]).unwrap();
        let out = g.add_node(Op::Relu, vec![reshape]).unwrap();
        g.mark_output(out);
        assert!(matches!(
            optimize(&g),
            Err(GraphError::ShapeInference { .. })
        ));
    }

    #[test]
    fn single_input_concat_and_upsample1_removed() {
        let (mut g, x) = base();
        let c = g.add_node(Op::Concat { axis: 1 }, vec![x]).unwrap();
        let u = g.add_node(Op::Upsample { scale: 1 }, vec![c]).unwrap();
        let r = g.add_node(Op::Relu, vec![u]).unwrap();
        g.mark_output(r);
        let (opt, stats) = optimize(&g).unwrap();
        assert_eq!(stats.identity_ops, 2);
        assert_eq!(opt.len(), 2);
    }
}

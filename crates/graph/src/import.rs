//! Model import: a line-oriented textual graph format.
//!
//! The paper's TopsInference "leverages ONNX to import/convert DNN
//! models developed with various frameworks" (§V-B). Standing in for
//! ONNX, this module defines a small text format that covers the same
//! operator set the IR supports, with a parser ([`parse_model`]) and an
//! exporter ([`export_model`]) that round-trip.
//!
//! ```text
//! # comment
//! model tiny
//! input x fp16 1x3x32x32
//! conv c1 x out=8 k=3 s=1 p=1
//! bn   b1 c1
//! relu r1 b1
//! gpool g1 r1
//! reshape f1 g1 dims=1x8
//! dense d1 f1 units=10
//! softmax sm d1
//! output sm
//! ```
//!
//! Every node line is `<op> <name> <inputs...> [key=value...]`; tensors
//! are referenced by name; `output` marks graph outputs. Dynamic dims
//! are written as identifiers (e.g. `Nx3x224x224`).

use crate::graph::{Graph, GraphError, NodeId};
use crate::op::{BinaryKind, Dim, Op, PoolKind, TensorType};
use dtu_isa::{DataType, SfuFunc};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Errors from parsing the textual model format.
#[derive(Debug, Clone, PartialEq)]
pub enum ImportError {
    /// A line could not be parsed.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// A node referenced an undefined tensor name.
    UnknownTensor {
        /// 1-based line number.
        line: usize,
        /// The missing name.
        name: String,
    },
    /// A tensor name was defined twice.
    DuplicateName {
        /// 1-based line number.
        line: usize,
        /// The duplicated name.
        name: String,
    },
    /// Graph construction rejected the parsed structure.
    Graph(GraphError),
}

impl fmt::Display for ImportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImportError::Syntax { line, reason } => write!(f, "line {line}: {reason}"),
            ImportError::UnknownTensor { line, name } => {
                write!(f, "line {line}: unknown tensor '{name}'")
            }
            ImportError::DuplicateName { line, name } => {
                write!(f, "line {line}: tensor '{name}' already defined")
            }
            ImportError::Graph(e) => write!(f, "graph construction: {e}"),
        }
    }
}

impl Error for ImportError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ImportError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for ImportError {
    fn from(e: GraphError) -> Self {
        ImportError::Graph(e)
    }
}

fn parse_dims(s: &str, line: usize) -> Result<Vec<Dim>, ImportError> {
    s.split('x')
        .map(|tok| {
            if tok.is_empty() {
                Err(ImportError::Syntax {
                    line,
                    reason: "empty dimension".into(),
                })
            } else if tok.chars().all(|c| c.is_ascii_digit()) {
                tok.parse()
                    .map(Dim::Fixed)
                    .map_err(|_| ImportError::Syntax {
                        line,
                        reason: format!("dimension '{tok}' overflows usize"),
                    })
            } else if tok.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                Ok(Dim::Dynamic(tok.to_string()))
            } else {
                Err(ImportError::Syntax {
                    line,
                    reason: format!("bad dimension '{tok}'"),
                })
            }
        })
        .collect()
}

fn parse_dtype(s: &str, line: usize) -> Result<DataType, ImportError> {
    match s {
        "fp32" => Ok(DataType::Fp32),
        "tf32" => Ok(DataType::Tf32),
        "fp16" => Ok(DataType::Fp16),
        "bf16" => Ok(DataType::Bf16),
        "int32" => Ok(DataType::Int32),
        "int16" => Ok(DataType::Int16),
        "int8" => Ok(DataType::Int8),
        other => Err(ImportError::Syntax {
            line,
            reason: format!("unknown dtype '{other}'"),
        }),
    }
}

fn parse_sfu(s: &str, line: usize) -> Result<SfuFunc, ImportError> {
    match s {
        "exp" => Ok(SfuFunc::Exp),
        "ln" => Ok(SfuFunc::Ln),
        "rsqrt" => Ok(SfuFunc::Rsqrt),
        "tanh" => Ok(SfuFunc::Tanh),
        "sigmoid" => Ok(SfuFunc::Sigmoid),
        "softplus" => Ok(SfuFunc::Softplus),
        "gelu" => Ok(SfuFunc::Gelu),
        "swish" => Ok(SfuFunc::Swish),
        "erf" => Ok(SfuFunc::Erf),
        "sin" => Ok(SfuFunc::Sin),
        other => Err(ImportError::Syntax {
            line,
            reason: format!("unknown activation '{other}'"),
        }),
    }
}

/// Key=value attribute bag for one node line.
struct Attrs<'a> {
    map: BTreeMap<&'a str, &'a str>,
    line: usize,
}

impl<'a> Attrs<'a> {
    fn parse(tokens: &[&'a str], line: usize) -> Result<(Vec<&'a str>, Attrs<'a>), ImportError> {
        let mut positional = Vec::new();
        let mut map = BTreeMap::new();
        for t in tokens {
            if let Some((k, v)) = t.split_once('=') {
                if map.insert(k, v).is_some() {
                    return Err(ImportError::Syntax {
                        line,
                        reason: format!("duplicate attribute '{k}'"),
                    });
                }
            } else {
                if !map.is_empty() {
                    return Err(ImportError::Syntax {
                        line,
                        reason: format!("positional argument '{t}' after attributes"),
                    });
                }
                positional.push(*t);
            }
        }
        Ok((positional, Attrs { map, line }))
    }

    fn usize(&self, key: &str) -> Result<usize, ImportError> {
        self.map
            .get(key)
            .ok_or(ImportError::Syntax {
                line: self.line,
                reason: format!("missing attribute '{key}'"),
            })?
            .parse()
            .map_err(|_| ImportError::Syntax {
                line: self.line,
                reason: format!("attribute '{key}' is not an integer"),
            })
    }

    fn usize_or(&self, key: &str, default: usize) -> Result<usize, ImportError> {
        match self.map.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ImportError::Syntax {
                line: self.line,
                reason: format!("attribute '{key}' is not an integer"),
            }),
        }
    }

    fn f32_or(&self, key: &str, default: f32) -> Result<f32, ImportError> {
        match self.map.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ImportError::Syntax {
                line: self.line,
                reason: format!("attribute '{key}' is not a number"),
            }),
        }
    }

    fn str(&self, key: &str) -> Result<&'a str, ImportError> {
        self.map.get(key).copied().ok_or(ImportError::Syntax {
            line: self.line,
            reason: format!("missing attribute '{key}'"),
        })
    }
}

/// Parses a model in the textual format into a [`Graph`].
///
/// # Errors
///
/// Syntax, reference, and graph-construction errors, each carrying the
/// offending line number where applicable.
pub fn parse_model(text: &str) -> Result<Graph, ImportError> {
    let mut graph = Graph::new("imported");
    let mut names: BTreeMap<String, NodeId> = BTreeMap::new();

    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let op_word = tokens[0];

        if op_word == "model" {
            if tokens.len() != 2 {
                return Err(ImportError::Syntax {
                    line: line_no,
                    reason: "model takes exactly one name".into(),
                });
            }
            graph.name = tokens[1].to_string();
            continue;
        }
        if op_word == "output" {
            for &name in &tokens[1..] {
                let id = *names.get(name).ok_or(ImportError::UnknownTensor {
                    line: line_no,
                    name: name.to_string(),
                })?;
                graph.mark_output(id);
            }
            if tokens.len() < 2 {
                return Err(ImportError::Syntax {
                    line: line_no,
                    reason: "output needs at least one tensor".into(),
                });
            }
            continue;
        }

        // Node lines: <op> <name> <inputs...> [attrs...].
        if tokens.len() < 2 {
            return Err(ImportError::Syntax {
                line: line_no,
                reason: format!("'{op_word}' needs a result name"),
            });
        }
        let name = tokens[1];
        if names.contains_key(name) {
            return Err(ImportError::DuplicateName {
                line: line_no,
                name: name.to_string(),
            });
        }

        if op_word == "input" {
            // input <name> <dtype> <dims>
            if tokens.len() != 4 {
                return Err(ImportError::Syntax {
                    line: line_no,
                    reason: "input syntax: input <name> <dtype> <dims>".into(),
                });
            }
            let dtype = parse_dtype(tokens[2], line_no)?;
            let dims = parse_dims(tokens[3], line_no)?;
            let id = graph.input(name, TensorType { dtype, dims });
            names.insert(name.to_string(), id);
            continue;
        }

        let (positional, attrs) = Attrs::parse(&tokens[2..], line_no)?;
        let inputs: Vec<NodeId> = positional
            .iter()
            .map(|&n| {
                names.get(n).copied().ok_or(ImportError::UnknownTensor {
                    line: line_no,
                    name: n.to_string(),
                })
            })
            .collect::<Result<_, _>>()?;

        let op = match op_word {
            "conv" => Op::Conv2d {
                out_channels: attrs.usize("out")?,
                kernel: attrs.usize("k")?,
                stride: attrs.usize_or("s", 1)?,
                padding: attrs.usize_or("p", 0)?,
                groups: attrs.usize_or("g", 1)?,
            },
            "dwconv" => {
                let k = attrs.usize("k")?;
                let ch = attrs.usize("ch")?;
                Op::Conv2d {
                    out_channels: ch,
                    kernel: k,
                    stride: attrs.usize_or("s", 1)?,
                    padding: attrs.usize_or("p", 0)?,
                    groups: ch,
                }
            }
            "deconv" => Op::ConvTranspose2d {
                out_channels: attrs.usize("out")?,
                kernel: attrs.usize("k")?,
                stride: attrs.usize_or("s", 1)?,
            },
            "dense" => Op::Dense {
                units: attrs.usize("units")?,
            },
            "matmul" => Op::MatMul,
            "act" => Op::Activation {
                func: parse_sfu(attrs.str("fn")?, line_no)?,
            },
            "relu" => Op::Relu,
            "leakyrelu" => Op::LeakyRelu {
                alpha: attrs.f32_or("alpha", 0.1)?,
            },
            "add" => Op::Binary {
                kind: BinaryKind::Add,
            },
            "mul" => Op::Binary {
                kind: BinaryKind::Mul,
            },
            "sub" => Op::Binary {
                kind: BinaryKind::Sub,
            },
            "max" => Op::Binary {
                kind: BinaryKind::Max,
            },
            "bn" => Op::BatchNorm,
            "layernorm" => Op::LayerNorm,
            "softmax" => Op::Softmax,
            "pool" => Op::Pool {
                kind: match attrs.str("kind")? {
                    "max" => PoolKind::Max,
                    "avg" => PoolKind::Avg,
                    other => {
                        return Err(ImportError::Syntax {
                            line: line_no,
                            reason: format!("unknown pool kind '{other}'"),
                        })
                    }
                },
                kernel: attrs.usize("k")?,
                stride: attrs.usize_or("s", 1)?,
            },
            "gpool" => Op::Pool {
                kind: PoolKind::GlobalAvg,
                kernel: 0,
                stride: 0,
            },
            "upsample" => Op::Upsample {
                scale: attrs.usize("scale")?,
            },
            "concat" => Op::Concat {
                axis: attrs.usize_or("axis", 1)?,
            },
            "transpose" => Op::Transpose {
                perm: attrs
                    .str("perm")?
                    .split(',')
                    .map(|t| {
                        t.parse().map_err(|_| ImportError::Syntax {
                            line: line_no,
                            reason: format!("bad perm element '{t}'"),
                        })
                    })
                    .collect::<Result<_, _>>()?,
            },
            "reshape" => Op::Reshape {
                dims: parse_dims(attrs.str("dims")?, line_no)?,
            },
            "embedding" => Op::Embedding {
                vocab: attrs.usize("vocab")?,
                width: attrs.usize("width")?,
            },
            "topk" => Op::TopK {
                k: attrs.usize("k")?,
            },
            other => {
                return Err(ImportError::Syntax {
                    line: line_no,
                    reason: format!("unknown operator '{other}'"),
                })
            }
        };
        let id = graph.add_named_node(name, op, inputs)?;
        names.insert(name.to_string(), id);
    }
    Ok(graph)
}

fn dims_to_string(dims: &[Dim]) -> String {
    dims.iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join("x")
}

fn dtype_to_string(dt: DataType) -> &'static str {
    match dt {
        DataType::Fp32 => "fp32",
        DataType::Tf32 => "tf32",
        DataType::Fp16 => "fp16",
        DataType::Bf16 => "bf16",
        DataType::Int32 => "int32",
        DataType::Int16 => "int16",
        DataType::Int8 => "int8",
    }
}

/// Exports a graph back into the textual format (round-trips with
/// [`parse_model`]).
pub fn export_model(graph: &Graph) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    // Names are single tokens in the format; sanitise spaces.
    let _ = writeln!(out, "model {}", graph.name.replace(' ', "_"));
    for node in graph.nodes() {
        let ins = node
            .inputs
            .iter()
            .map(|i| graph.node(*i).expect("valid graph").name.clone())
            .collect::<Vec<_>>()
            .join(" ");
        let n = &node.name;
        let line = match &node.op {
            Op::Input { ty } => {
                format!(
                    "input {n} {} {}",
                    dtype_to_string(ty.dtype),
                    dims_to_string(&ty.dims)
                )
            }
            Op::Conv2d {
                out_channels,
                kernel,
                stride,
                padding,
                groups,
            } => {
                if *groups == *out_channels && *groups > 1 {
                    format!("dwconv {n} {ins} ch={out_channels} k={kernel} s={stride} p={padding}")
                } else {
                    format!(
                        "conv {n} {ins} out={out_channels} k={kernel} s={stride} p={padding} g={groups}"
                    )
                }
            }
            Op::ConvTranspose2d {
                out_channels,
                kernel,
                stride,
            } => format!("deconv {n} {ins} out={out_channels} k={kernel} s={stride}"),
            Op::Dense { units } => format!("dense {n} {ins} units={units}"),
            Op::MatMul => format!("matmul {n} {ins}"),
            Op::Activation { func } => {
                format!("act {n} {ins} fn={}", format!("{func:?}").to_lowercase())
            }
            Op::Relu => format!("relu {n} {ins}"),
            Op::LeakyRelu { alpha } => format!("leakyrelu {n} {ins} alpha={alpha}"),
            Op::Binary { kind } => {
                let w = match kind {
                    BinaryKind::Add => "add",
                    BinaryKind::Mul => "mul",
                    BinaryKind::Sub => "sub",
                    BinaryKind::Max => "max",
                };
                format!("{w} {n} {ins}")
            }
            Op::BatchNorm => format!("bn {n} {ins}"),
            Op::LayerNorm => format!("layernorm {n} {ins}"),
            Op::Softmax => format!("softmax {n} {ins}"),
            Op::Pool {
                kind,
                kernel,
                stride,
            } => match kind {
                PoolKind::GlobalAvg => format!("gpool {n} {ins}"),
                PoolKind::Max => format!("pool {n} {ins} kind=max k={kernel} s={stride}"),
                PoolKind::Avg => format!("pool {n} {ins} kind=avg k={kernel} s={stride}"),
            },
            Op::Upsample { scale } => format!("upsample {n} {ins} scale={scale}"),
            Op::Concat { axis } => format!("concat {n} {ins} axis={axis}"),
            Op::Transpose { perm } => format!(
                "transpose {n} {ins} perm={}",
                perm.iter()
                    .map(|p| p.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            ),
            Op::Reshape { dims } => format!("reshape {n} {ins} dims={}", dims_to_string(dims)),
            Op::Embedding { vocab, width } => {
                format!("embedding {n} {ins} vocab={vocab} width={width}")
            }
            Op::TopK { k } => format!("topk {n} {ins} k={k}"),
        };
        let _ = writeln!(out, "{line}");
    }
    let outputs = graph
        .outputs()
        .iter()
        .map(|o| graph.node(*o).expect("valid graph").name.clone())
        .collect::<Vec<_>>()
        .join(" ");
    let _ = writeln!(out, "output {outputs}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: &str = r"
# a tiny CNN
model tiny
input x fp16 1x3x32x32
conv c1 x out=8 k=3 s=1 p=1
bn   b1 c1
relu r1 b1
gpool g1 r1
reshape f1 g1 dims=1x8
dense d1 f1 units=10
softmax sm d1
output sm
";

    #[test]
    fn parse_tiny_model() {
        let g = parse_model(TINY).unwrap();
        assert_eq!(g.name, "tiny");
        assert_eq!(g.len(), 8);
        assert_eq!(g.outputs().len(), 1);
        let shapes = g.infer_shapes().unwrap();
        let out = &shapes[&g.outputs()[0]];
        assert_eq!(out.len(), Some(10));
    }

    #[test]
    fn roundtrip_export_parse() {
        let g = parse_model(TINY).unwrap();
        let text = export_model(&g);
        let g2 = parse_model(&text).unwrap();
        assert_eq!(g.len(), g2.len());
        assert_eq!(g.name, g2.name);
        // Shapes agree node-for-node.
        let s1 = g.infer_shapes().unwrap();
        let s2 = g2.infer_shapes().unwrap();
        for (a, b) in g.nodes().iter().zip(g2.nodes()) {
            assert_eq!(s1[&a.id], s2[&b.id], "{} vs {}", a.name, b.name);
        }
    }

    #[test]
    fn dynamic_dims_parse() {
        let g = parse_model("model d\ninput x fp16 Nx128\ndense h x units=64\noutput h\n").unwrap();
        let shapes = g.infer_shapes().unwrap();
        assert_eq!(
            shapes[&g.outputs()[0]].dims[0],
            Dim::Dynamic("N".to_string())
        );
        let bound = g.bind("N", 4);
        assert!(bound.infer_shapes().unwrap()[&g.outputs()[0]].is_fully_fixed());
    }

    #[test]
    fn binary_and_residual() {
        let g = parse_model(
            "model r\ninput x fp16 1x8x8x8\nconv c x out=8 k=3 s=1 p=1\nadd s c x\noutput s\n",
        )
        .unwrap();
        assert_eq!(g.len(), 3);
        g.infer_shapes().unwrap();
    }

    #[test]
    fn syntax_errors_carry_line_numbers() {
        let err = parse_model("model m\ninput x fp16 1x4\nfrobnicate y x\noutput y\n").unwrap_err();
        assert!(matches!(err, ImportError::Syntax { line: 3, .. }), "{err}");

        let err = parse_model("input x fp99 1x4\n").unwrap_err();
        assert!(err.to_string().contains("fp99"));

        let err = parse_model("model m\ninput x fp16 1x4\ndense d x\noutput d\n").unwrap_err();
        assert!(err.to_string().contains("units"));
    }

    #[test]
    fn unknown_and_duplicate_tensors() {
        let err = parse_model("model m\nrelu r ghost\noutput r\n").unwrap_err();
        assert!(matches!(err, ImportError::UnknownTensor { line: 2, .. }));

        let err =
            parse_model("model m\ninput x fp16 1x4\ninput x fp16 1x4\noutput x\n").unwrap_err();
        assert!(matches!(err, ImportError::DuplicateName { line: 3, .. }));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let g = parse_model(
            "\n\n# header\nmodel m # trailing\ninput x fp16 1x4 # dims\n  \noutput x\n",
        )
        .unwrap();
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn attr_validation() {
        // Positional after attribute.
        let err =
            parse_model("model m\ninput x fp16 1x4\ninput y fp16 1x4\nadd s x k=1 y\noutput s\n")
                .unwrap_err();
        assert!(matches!(err, ImportError::Syntax { line: 4, .. }));
        // Duplicate attribute.
        let err =
            parse_model("model m\ninput x fp16 1x3x8x8\nconv c x out=4 out=8 k=3\noutput c\n")
                .unwrap_err();
        assert!(err.to_string().contains("duplicate"));
    }

    #[test]
    fn every_operator_parses() {
        let text = r"
model all_ops
input x fp16 1x4x16x16
input idx fp16 1x12
conv c x out=8 k=3 s=1 p=1
dwconv dw c ch=8 k=3 s=1 p=1
deconv dc dw out=4 k=2 s=2
leakyrelu lr dc alpha=0.2
act ge lr fn=gelu
pool mp ge kind=max k=2 s=2
upsample up mp scale=2
bn b up
layernorm ln b
softmax sm ln
transpose tr sm perm=0,2,3,1
reshape rs tr dims=1x4096
dense de rs units=64
reshape sq de dims=8x8
matmul mm sq sq
embedding em idx vocab=100 width=8
topk tk de k=5
sub s2 de de
max m2 de de
mul m3 de de
concat cc m2 m3 axis=1
output cc tk em mm
";
        let g = parse_model(text).unwrap();
        g.infer_shapes().unwrap();
        assert!(g.len() > 20);
    }
}

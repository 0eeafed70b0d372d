//! JSON serialization of lowered [`Program`]s for the on-disk
//! compiled-session cache.
//!
//! `dtu-harness` persists compiled programs under `target/dtu-cache/` so
//! repeated sweeps skip recompilation across *processes*, not just
//! within one. The format is a small, explicit JSON schema covering
//! exactly what the graph compiler emits today: descriptor-only kernel
//! launches, dense/bitmap DMA copies (with repeat, broadcast, and
//! known-zero-fraction sparse estimates), code prefetches, and sync
//! events. Anything outside that set — in particular DMA descriptors
//! carrying a layout [`TransformOp`] other than `Identity` — is
//! rejected at serialization time rather than silently dropped, so a
//! cache round-trip can never change what a program does.
//!
//! A cache hit is only worth having if decoding costs well under a
//! recompile, so both directions are single-pass (the workspace
//! deliberately has no serde):
//!
//! * the encoder writes every command straight into one pre-sized
//!   `String`, in a fixed key order, so equal programs always encode
//!   to the same bytes;
//! * the decoder builds the [`Program`] directly from the borrowed
//!   input, with no intermediate JSON tree. Each command's fields land
//!   in a small fixed table of borrowed scalars (strings stay borrowed
//!   unless they carry escapes; `u64`s are parsed from their digit
//!   token, so values above 2^53 never round-trip through `f64`), and
//!   are type-checked only once the command's `op` asks for them.
//!
//! Unknown fields are ignored for forward compatibility, the first of
//! two duplicate keys wins, and *every* malformed input — truncated
//! file, bad escape, wrong type, missing field, trailing bytes —
//! surfaces as [`ProgramIoError::Parse`], never a panic, which is what
//! lets the cache treat a corrupt artifact as a plain miss.
//!
//! [`TransformOp`]: dtu_tensor::TransformOp

use crate::dma::{DmaDescriptor, DmaPath, MemLevel};
use crate::program::{Command, GroupId, Program, Stream};
use crate::sync::SyncPattern;
use dtu_isa::{DataType, KernelDescriptor, KernelId, OpClass};
use dtu_telemetry::json::escape;
use dtu_tensor::{SparseFormat, TransformOp};
use std::borrow::Cow;
use std::error::Error;
use std::fmt::{self, Write};

/// Errors from program serialization or parsing.
#[derive(Debug, Clone, PartialEq)]
pub enum ProgramIoError {
    /// The program uses a feature the JSON schema does not cover.
    Unsupported(String),
    /// The JSON input is malformed or does not describe a program.
    Parse(String),
}

impl fmt::Display for ProgramIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramIoError::Unsupported(what) => {
                write!(f, "program not serializable: {what}")
            }
            ProgramIoError::Parse(why) => write!(f, "program JSON invalid: {why}"),
        }
    }
}

impl Error for ProgramIoError {}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

/// Capacity reserved per command: a little above the mean encoded
/// command size of the compiled Table III models, so a typical program
/// encodes without regrowing its buffer.
const RESERVE_BYTES_PER_COMMAND: usize = 160;

fn mem_level_name(level: MemLevel) -> &'static str {
    match level {
        MemLevel::L1 => "l1",
        MemLevel::L2 => "l2",
        MemLevel::L3 => "l3",
        MemLevel::Host => "host",
    }
}

fn op_class_name(class: OpClass) -> &'static str {
    match class {
        OpClass::MatrixDense => "matrix_dense",
        OpClass::Elementwise => "elementwise",
        OpClass::Activation => "activation",
        OpClass::Reduction => "reduction",
        OpClass::Movement => "movement",
        OpClass::Gather => "gather",
    }
}

fn dtype_name(dtype: DataType) -> &'static str {
    match dtype {
        DataType::Fp32 => "fp32",
        DataType::Tf32 => "tf32",
        DataType::Fp16 => "fp16",
        DataType::Bf16 => "bf16",
        DataType::Int32 => "int32",
        DataType::Int16 => "int16",
        DataType::Int8 => "int8",
    }
}

/// Appends `s` escaped by [`escape`]'s rules, copying it verbatim when
/// nothing in it needs escaping (the common case for kernel names).
fn push_escaped(out: &mut String, s: &str) {
    if s.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\') {
        out.push_str(&escape(s));
    } else {
        out.push_str(s);
    }
}

fn write_command(out: &mut String, cmd: &Command) -> Result<(), ProgramIoError> {
    // Writing into a `String` cannot fail, so the `fmt::Result`s below
    // carry no information.
    match cmd {
        Command::Launch { kernel, descriptor } => {
            let _ = write!(
                out,
                "{{\"op\":\"launch\",\"kernel\":{},\"name\":\"",
                kernel.0
            );
            push_escaped(out, &descriptor.name);
            let _ = write!(
                out,
                "\",\"class\":\"{}\",\"dtype\":\"{}\",\"macs\":{},\"vector_ops\":{},\
                 \"sfu_ops\":{},\"l1_bytes\":{},\"l2_bytes\":{},\"l3_bytes\":{},\
                 \"code_bytes\":{},\"narrow_dim\":{}}}",
                op_class_name(descriptor.class),
                dtype_name(descriptor.dtype),
                descriptor.macs,
                descriptor.vector_ops,
                descriptor.sfu_ops,
                descriptor.l1_bytes,
                descriptor.l2_bytes,
                descriptor.l3_bytes,
                descriptor.code_bytes,
                descriptor.narrow_dim,
            );
        }
        Command::Dma {
            descriptor,
            overlapped,
        } => {
            if descriptor.transform != TransformOp::Identity {
                return Err(ProgramIoError::Unsupported(format!(
                    "DMA layout transform {:?} (only Identity copies are cacheable)",
                    descriptor.transform
                )));
            }
            let sparse = match descriptor.sparse {
                SparseFormat::Dense => "dense",
                SparseFormat::BitmapBlock => "bitmap_block",
            };
            let _ = write!(
                out,
                "{{\"op\":\"dma\",\"src\":\"{}\",\"dst\":\"{}\",\"bytes\":{},\"sparse\":\"{}\",\
                 \"broadcast\":{},\"repeat\":{},\"zero_fraction\":",
                mem_level_name(descriptor.path.src),
                mem_level_name(descriptor.path.dst),
                descriptor.bytes,
                sparse,
                descriptor.broadcast,
                descriptor.repeat,
            );
            // `dtu_telemetry::json::number`'s rules, without its String:
            // shortest round-trip form, non-finite as 0.
            if descriptor.zero_fraction.is_finite() {
                let _ = write!(out, "{}", descriptor.zero_fraction);
            } else {
                out.push('0');
            }
            let _ = write!(out, ",\"overlapped\":{overlapped}}}");
        }
        Command::Prefetch { kernel, code_bytes } => {
            let _ = write!(
                out,
                "{{\"op\":\"prefetch\",\"kernel\":{},\"code_bytes\":{code_bytes}}}",
                kernel.0
            );
        }
        Command::RegisterEvent { event, pattern } => {
            let (kind, producers, consumers) = match *pattern {
                SyncPattern::OneToOne => ("one_to_one", 1, 1),
                SyncPattern::OneToN { consumers } => ("one_to_n", 1, consumers),
                SyncPattern::NToOne { producers } => ("n_to_one", producers, 1),
                SyncPattern::NToM {
                    producers,
                    consumers,
                } => ("n_to_m", producers, consumers),
            };
            let _ = write!(
                out,
                "{{\"op\":\"register\",\"event\":{event},\"pattern\":{{\"kind\":\"{kind}\",\
                 \"producers\":{producers},\"consumers\":{consumers}}}}}"
            );
        }
        Command::Signal { event } => {
            let _ = write!(out, "{{\"op\":\"signal\",\"event\":{event}}}");
        }
        Command::Wait { event } => {
            let _ = write!(out, "{{\"op\":\"wait\",\"event\":{event}}}");
        }
    }
    Ok(())
}

/// Serializes a program into the cacheable JSON schema.
///
/// # Errors
///
/// [`ProgramIoError::Unsupported`] when the program carries constructs
/// the schema cannot represent losslessly (non-`Identity` DMA
/// transforms). The graph compiler never emits those today, but
/// hand-built programs can.
pub fn program_to_json(program: &Program) -> Result<String, ProgramIoError> {
    let mut out = String::with_capacity(
        64 + program.name.len()
            + 64 * program.streams.len()
            + RESERVE_BYTES_PER_COMMAND * program.total_commands(),
    );
    out.push_str("{\"name\":\"");
    push_escaped(&mut out, &program.name);
    out.push_str("\",\"streams\":[");
    for (i, stream) in program.streams.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"cluster\":{},\"group\":{},\"commands\":[",
            stream.group.cluster, stream.group.group
        );
        for (j, cmd) in stream.commands.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            write_command(&mut out, cmd)?;
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    Ok(out)
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// A scalar JSON value as it appears in the input, borrowed from it.
/// Objects and arrays in a scalar position are validated and skipped.
#[derive(Debug, Clone, Copy, Default)]
enum Raw<'s> {
    /// The key did not occur.
    #[default]
    Absent,
    /// A string's body between its quotes; `true` when it still holds
    /// (already validated) escapes.
    Str(&'s str, bool),
    /// A plain digit run that fits a `u64`, parsed while scanning.
    Int(u64),
    /// Any other number token, already checked to be a valid JSON
    /// number.
    Num(&'s str),
    Bool(bool),
    /// `null`, an array or an object.
    Other,
}

fn missing(key: &str) -> ProgramIoError {
    ProgramIoError::Parse(format!("missing field `{key}`"))
}

fn mismatch(key: &str, want: &str, got: Raw<'_>) -> ProgramIoError {
    match got {
        Raw::Absent => missing(key),
        got => ProgramIoError::Parse(format!("field `{key}` should be {want}, got {got:?}")),
    }
}

fn str_of<'s>(raw: Raw<'s>, key: &str) -> Result<Cow<'s, str>, ProgramIoError> {
    match raw {
        Raw::Str(body, false) => Ok(Cow::Borrowed(body)),
        Raw::Str(body, true) => unescape(body).map(Cow::Owned),
        other => Err(mismatch(key, "a string", other)),
    }
}

fn u64_of(raw: Raw<'_>, key: &str) -> Result<u64, ProgramIoError> {
    match raw {
        Raw::Int(v) => Ok(v),
        // Signed, fractional, exponent or overflowing: never a u64.
        Raw::Num(token) => Err(ProgramIoError::Parse(format!(
            "field `{key}`: `{token}` is not a u64"
        ))),
        other => Err(mismatch(key, "a number", other)),
    }
}

fn usize_of(raw: Raw<'_>, key: &str) -> Result<usize, ProgramIoError> {
    let v = u64_of(raw, key)?;
    usize::try_from(v)
        .map_err(|_| ProgramIoError::Parse(format!("field `{key}`: {v} overflows usize")))
}

fn u32_of(raw: Raw<'_>, key: &str) -> Result<u32, ProgramIoError> {
    let v = u64_of(raw, key)?;
    u32::try_from(v).map_err(|_| ProgramIoError::Parse(format!("event id {v} overflows u32")))
}

fn f64_of(raw: Raw<'_>, key: &str) -> Result<f64, ProgramIoError> {
    match raw {
        // Exact below 2^53; above it `as` rounds to nearest-even, as
        // parsing the digits would.
        Raw::Int(v) => Ok(v as f64),
        Raw::Num(token) => token.parse::<f64>().map_err(|_| {
            ProgramIoError::Parse(format!("field `{key}`: `{token}` is not a number"))
        }),
        other => Err(mismatch(key, "a number", other)),
    }
}

fn bool_of(raw: Raw<'_>, key: &str) -> Result<bool, ProgramIoError> {
    match raw {
        Raw::Bool(b) => Ok(b),
        other => Err(mismatch(key, "a bool", other)),
    }
}

/// The scalar fields a command may carry. `pattern`, the one nested
/// field, is parsed on its own so the per-command table stays small.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Field {
    Op,
    Kernel,
    Name,
    Class,
    Dtype,
    Macs,
    VectorOps,
    SfuOps,
    L1Bytes,
    L2Bytes,
    L3Bytes,
    CodeBytes,
    NarrowDim,
    Src,
    Dst,
    Bytes,
    Sparse,
    Broadcast,
    Repeat,
    ZeroFraction,
    Overlapped,
    Event,
}

/// Field keys, indexed by `Field as usize`.
const FIELD_KEYS: [&str; 22] = [
    "op",
    "kernel",
    "name",
    "class",
    "dtype",
    "macs",
    "vector_ops",
    "sfu_ops",
    "l1_bytes",
    "l2_bytes",
    "l3_bytes",
    "code_bytes",
    "narrow_dim",
    "src",
    "dst",
    "bytes",
    "sparse",
    "broadcast",
    "repeat",
    "zero_fraction",
    "overlapped",
    "event",
];

impl Field {
    fn from_key(key: &str) -> Option<Field> {
        Some(match key {
            "op" => Field::Op,
            "kernel" => Field::Kernel,
            "name" => Field::Name,
            "class" => Field::Class,
            "dtype" => Field::Dtype,
            "macs" => Field::Macs,
            "vector_ops" => Field::VectorOps,
            "sfu_ops" => Field::SfuOps,
            "l1_bytes" => Field::L1Bytes,
            "l2_bytes" => Field::L2Bytes,
            "l3_bytes" => Field::L3Bytes,
            "code_bytes" => Field::CodeBytes,
            "narrow_dim" => Field::NarrowDim,
            "src" => Field::Src,
            "dst" => Field::Dst,
            "bytes" => Field::Bytes,
            "sparse" => Field::Sparse,
            "broadcast" => Field::Broadcast,
            "repeat" => Field::Repeat,
            "zero_fraction" => Field::ZeroFraction,
            "overlapped" => Field::Overlapped,
            "event" => Field::Event,
            _ => return None,
        })
    }

    fn key(self) -> &'static str {
        FIELD_KEYS[self as usize]
    }
}

/// One command's scalar fields, by [`Field`].
#[derive(Default)]
struct Fields<'s>([Raw<'s>; FIELD_KEYS.len()]);

impl<'s> Fields<'s> {
    /// Field `f`, converted by `as_type` (one of the `*_of` checks).
    fn get<T>(
        &self,
        f: Field,
        as_type: fn(Raw<'s>, &str) -> Result<T, ProgramIoError>,
    ) -> Result<T, ProgramIoError> {
        as_type(self.0[f as usize], f.key())
    }

    /// Builds the command its `op` names, reading only the fields that
    /// op uses; `pattern` is the already-converted `pattern` field.
    fn command(
        &self,
        pattern: Option<Result<SyncPattern, ProgramIoError>>,
    ) -> Result<Command, ProgramIoError> {
        match &*self.get(Field::Op, str_of)? {
            "launch" => Ok(Command::Launch {
                kernel: KernelId(self.get(Field::Kernel, u64_of)?),
                descriptor: KernelDescriptor {
                    name: self.get(Field::Name, str_of)?.into_owned(),
                    class: op_class_from(&self.get(Field::Class, str_of)?)?,
                    dtype: dtype_from(&self.get(Field::Dtype, str_of)?)?,
                    macs: self.get(Field::Macs, u64_of)?,
                    vector_ops: self.get(Field::VectorOps, u64_of)?,
                    sfu_ops: self.get(Field::SfuOps, u64_of)?,
                    l1_bytes: self.get(Field::L1Bytes, u64_of)?,
                    l2_bytes: self.get(Field::L2Bytes, u64_of)?,
                    l3_bytes: self.get(Field::L3Bytes, u64_of)?,
                    code_bytes: self.get(Field::CodeBytes, u64_of)?,
                    narrow_dim: self.get(Field::NarrowDim, u64_of)?,
                },
            }),
            "dma" => {
                let sparse = match &*self.get(Field::Sparse, str_of)? {
                    "dense" => SparseFormat::Dense,
                    "bitmap_block" => SparseFormat::BitmapBlock,
                    other => {
                        return Err(ProgramIoError::Parse(format!(
                            "unknown sparse format `{other}`"
                        )))
                    }
                };
                Ok(Command::Dma {
                    descriptor: DmaDescriptor {
                        path: DmaPath::new(
                            mem_level_from(&self.get(Field::Src, str_of)?)?,
                            mem_level_from(&self.get(Field::Dst, str_of)?)?,
                        ),
                        bytes: self.get(Field::Bytes, u64_of)?,
                        transform: TransformOp::Identity,
                        sparse,
                        broadcast: self.get(Field::Broadcast, usize_of)?,
                        repeat: self.get(Field::Repeat, usize_of)?,
                        zero_fraction: self.get(Field::ZeroFraction, f64_of)?,
                    },
                    overlapped: self.get(Field::Overlapped, bool_of)?,
                })
            }
            "prefetch" => Ok(Command::Prefetch {
                kernel: KernelId(self.get(Field::Kernel, u64_of)?),
                code_bytes: self.get(Field::CodeBytes, u64_of)?,
            }),
            "register" => Ok(Command::RegisterEvent {
                event: self.get(Field::Event, u32_of)?,
                pattern: pattern.unwrap_or_else(|| Err(missing("pattern")))?,
            }),
            "signal" => Ok(Command::Signal {
                event: self.get(Field::Event, u32_of)?,
            }),
            "wait" => Ok(Command::Wait {
                event: self.get(Field::Event, u32_of)?,
            }),
            other => Err(ProgramIoError::Parse(format!(
                "unknown command op `{other}`"
            ))),
        }
    }
}

fn mem_level_from(name: &str) -> Result<MemLevel, ProgramIoError> {
    match name {
        "l1" => Ok(MemLevel::L1),
        "l2" => Ok(MemLevel::L2),
        "l3" => Ok(MemLevel::L3),
        "host" => Ok(MemLevel::Host),
        other => Err(ProgramIoError::Parse(format!(
            "unknown memory level `{other}`"
        ))),
    }
}

fn op_class_from(name: &str) -> Result<OpClass, ProgramIoError> {
    match name {
        "matrix_dense" => Ok(OpClass::MatrixDense),
        "elementwise" => Ok(OpClass::Elementwise),
        "activation" => Ok(OpClass::Activation),
        "reduction" => Ok(OpClass::Reduction),
        "movement" => Ok(OpClass::Movement),
        "gather" => Ok(OpClass::Gather),
        other => Err(ProgramIoError::Parse(format!("unknown op class `{other}`"))),
    }
}

fn dtype_from(name: &str) -> Result<DataType, ProgramIoError> {
    match name {
        "fp32" => Ok(DataType::Fp32),
        "tf32" => Ok(DataType::Tf32),
        "fp16" => Ok(DataType::Fp16),
        "bf16" => Ok(DataType::Bf16),
        "int32" => Ok(DataType::Int32),
        "int16" => Ok(DataType::Int16),
        "int8" => Ok(DataType::Int8),
        other => Err(ProgramIoError::Parse(format!("unknown dtype `{other}`"))),
    }
}

fn sync_pattern_from(
    kind: Raw<'_>,
    producers: Raw<'_>,
    consumers: Raw<'_>,
) -> Result<SyncPattern, ProgramIoError> {
    let producers = usize_of(producers, "producers")?;
    let consumers = usize_of(consumers, "consumers")?;
    match &*str_of(kind, "kind")? {
        "one_to_one" => Ok(SyncPattern::OneToOne),
        "one_to_n" => Ok(SyncPattern::OneToN { consumers }),
        "n_to_one" => Ok(SyncPattern::NToOne { producers }),
        "n_to_m" => Ok(SyncPattern::NToM {
            producers,
            consumers,
        }),
        other => Err(ProgramIoError::Parse(format!(
            "unknown sync kind `{other}`"
        ))),
    }
}

/// Stores `value` in `slot` unless an earlier duplicate key filled it.
fn first_wins<'s>(slot: &mut Raw<'s>, value: Raw<'s>) {
    if matches!(slot, Raw::Absent) {
        *slot = value;
    }
}

/// Resolves a string body's escapes (validated when it was scanned).
fn unescape(body: &str) -> Result<String, ProgramIoError> {
    let mut out = String::with_capacity(body.len());
    let mut p = Parser::new(body);
    loop {
        let start = p.pos;
        while p.peek().is_some_and(|b| b != b'\\') {
            p.pos += 1;
        }
        out.push_str(p.slice(start)?);
        if p.peek().is_none() {
            return Ok(out);
        }
        p.pos += 1;
        out.push(p.escape()?);
    }
}

struct Parser<'s> {
    text: &'s str,
    pos: usize,
}

impl<'s> Parser<'s> {
    fn new(text: &'s str) -> Self {
        Parser { text, pos: 0 }
    }

    fn err(&self, why: impl Into<String>) -> ProgramIoError {
        ProgramIoError::Parse(format!("{} at byte {}", why.into(), self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// The input from `start` up to the cursor. Both ends sit next to
    /// ASCII delimiters, which never occur inside a UTF-8 sequence.
    fn slice(&self, start: usize) -> Result<&'s str, ProgramIoError> {
        self.text
            .get(start..self.pos)
            .ok_or_else(|| self.err("token splits a UTF-8 character"))
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ProgramIoError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    /// Any JSON value: scalars come back borrowed, containers are
    /// validated, skipped, and come back as [`Raw::Other`].
    fn value(&mut self) -> Result<Raw<'s>, ProgramIoError> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => {
                let (body, escaped) = self.string()?;
                Ok(Raw::Str(body, escaped))
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b't') => self.keyword("true").map(|()| Raw::Bool(true)),
            Some(b'f') => self.keyword("false").map(|()| Raw::Bool(false)),
            Some(b'n') => self.keyword("null").map(|()| Raw::Other),
            Some(b'{') => self.object(|p, _| p.skip()).map(|()| Raw::Other),
            Some(b'[') => self.array(Self::skip).map(|()| Raw::Other),
            Some(b) => Err(self.err(format!("unexpected byte `{}`", b as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn skip(&mut self) -> Result<(), ProgramIoError> {
        self.value().map(drop)
    }

    fn keyword(&mut self, word: &str) -> Result<(), ProgramIoError> {
        let rest = self.text.as_bytes().get(self.pos..).unwrap_or_default();
        if rest.starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    /// A number token. Plain digit runs — every number the encoder
    /// writes except `zero_fraction` — are valid by construction and
    /// parsed to a `u64` on the way; any other token must parse as an
    /// `f64`.
    fn number(&mut self) -> Result<Raw<'s>, ProgramIoError> {
        let start = self.pos;
        let mut digits_only = true;
        let mut int = Some(0u64);
        if self.peek() == Some(b'-') {
            self.pos += 1;
            digits_only = false;
        }
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {
                    int = int.and_then(|v| v.checked_mul(10)?.checked_add(u64::from(b - b'0')));
                }
                b'.' | b'e' | b'E' | b'+' | b'-' => digits_only = false,
                _ => break,
            }
            self.pos += 1;
        }
        match int {
            Some(v) if digits_only => Ok(Raw::Int(v)),
            _ => {
                let token = self.slice(start)?;
                if !digits_only && token.parse::<f64>().is_err() {
                    return Err(self.err(format!("`{token}` is not a number")));
                }
                Ok(Raw::Num(token))
            }
        }
    }

    /// A string's body, borrowed, and whether it holds escapes. Every
    /// escape is validated here, so [`unescape`] cannot fail later.
    fn string(&mut self) -> Result<(&'s str, bool), ProgramIoError> {
        self.expect(b'"')?;
        let start = self.pos;
        let mut escaped = false;
        loop {
            let rest = self.text.as_bytes().get(self.pos..).unwrap_or_default();
            let Some(n) = rest.iter().position(|&b| b == b'"' || b == b'\\') else {
                self.pos = self.text.len();
                return Err(self.err("unterminated string"));
            };
            self.pos += n;
            if rest[n] == b'"' {
                let body = self.slice(start)?;
                self.pos += 1;
                return Ok((body, escaped));
            }
            self.pos += 1;
            self.escape()?;
            escaped = true;
        }
    }

    /// The character an escape sequence stands for; the cursor sits
    /// just past its backslash.
    fn escape(&mut self) -> Result<char, ProgramIoError> {
        let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b't' => '\t',
            b'r' => '\r',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'u' => {
                let hex = self
                    .text
                    .as_bytes()
                    .get(self.pos..self.pos + 4)
                    .ok_or_else(|| self.err("truncated \\u escape"))?;
                let hex = std::str::from_utf8(hex).map_err(|_| self.err("non-UTF-8 \\u escape"))?;
                let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
                self.pos += 4;
                char::from_u32(code).ok_or_else(|| self.err("non-scalar \\u escape"))?
            }
            other => return Err(self.err(format!("unknown escape `\\{}`", other as char))),
        })
    }

    /// An object, handing each key to `member`, which must consume the
    /// key's value.
    fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, &str) -> Result<(), ProgramIoError>,
    ) -> Result<(), ProgramIoError> {
        self.skip_ws();
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = match self.string()? {
                (body, false) => Cow::Borrowed(body),
                (body, true) => Cow::Owned(unescape(body)?),
            };
            self.skip_ws();
            self.expect(b':')?;
            member(self, &key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    /// An array, handing each element to `element`, which must consume
    /// it.
    fn array(
        &mut self,
        mut element: impl FnMut(&mut Self) -> Result<(), ProgramIoError>,
    ) -> Result<(), ProgramIoError> {
        self.skip_ws();
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            element(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    /// The first value of a key that must be an array of `T`s.
    fn list<T>(
        &mut self,
        key: &str,
        mut item: impl FnMut(&mut Self) -> Result<T, ProgramIoError>,
    ) -> Result<Vec<T>, ProgramIoError> {
        self.skip_ws();
        if self.peek() != Some(b'[') {
            let got = self.value()?;
            return Err(mismatch(key, "an array", got));
        }
        let mut items = Vec::new();
        self.array(|p| {
            items.push(item(p)?);
            Ok(())
        })?;
        Ok(items)
    }

    fn stream(&mut self) -> Result<Stream, ProgramIoError> {
        let (mut cluster, mut group) = (Raw::Absent, Raw::Absent);
        let mut commands = None;
        self.object(|p, key| {
            match key {
                "cluster" => first_wins(&mut cluster, p.value()?),
                "group" => first_wins(&mut group, p.value()?),
                "commands" if commands.is_none() => {
                    commands = Some(p.list("commands", Self::command)?);
                }
                _ => p.skip()?,
            }
            Ok(())
        })?;
        Ok(Stream {
            group: GroupId::new(usize_of(cluster, "cluster")?, usize_of(group, "group")?),
            commands: commands.ok_or_else(|| missing("commands"))?,
        })
    }

    fn command(&mut self) -> Result<Command, ProgramIoError> {
        let mut fields = Fields::default();
        let mut pattern = None;
        self.object(|p, key| {
            if let Some(f) = Field::from_key(key) {
                first_wins(&mut fields.0[f as usize], p.value()?);
            } else if key == "pattern" && pattern.is_none() {
                pattern = Some(p.pattern()?);
            } else {
                p.skip()?;
            }
            Ok(())
        })?;
        fields.command(pattern)
    }

    /// A `pattern` value, converted now but reported only if the
    /// command turns out to be a `register` (other ops ignore it).
    fn pattern(&mut self) -> Result<Result<SyncPattern, ProgramIoError>, ProgramIoError> {
        self.skip_ws();
        if self.peek() != Some(b'{') {
            let got = self.value()?;
            return Ok(Err(mismatch("pattern", "an object", got)));
        }
        let (mut kind, mut producers, mut consumers) = (Raw::Absent, Raw::Absent, Raw::Absent);
        self.object(|p, key| {
            match key {
                "kind" => first_wins(&mut kind, p.value()?),
                "producers" => first_wins(&mut producers, p.value()?),
                "consumers" => first_wins(&mut consumers, p.value()?),
                _ => p.skip()?,
            }
            Ok(())
        })?;
        Ok(sync_pattern_from(kind, producers, consumers))
    }
}

/// Parses a program from the JSON produced by [`program_to_json`].
///
/// # Errors
///
/// [`ProgramIoError::Parse`] on any malformed input — this function
/// never panics on untrusted bytes, which is what lets the disk cache
/// degrade a corrupt artifact into a recompile.
pub fn program_from_json(text: &str) -> Result<Program, ProgramIoError> {
    let mut parser = Parser::new(text);
    let mut name = Raw::Absent;
    let mut streams = None;
    parser.object(|p, key| {
        match key {
            "name" => first_wins(&mut name, p.value()?),
            "streams" if streams.is_none() => streams = Some(p.list("streams", Parser::stream)?),
            _ => p.skip()?,
        }
        Ok(())
    })?;
    parser.skip_ws();
    if parser.pos != text.len() {
        return Err(parser.err("trailing bytes after program"));
    }
    let mut program = Program::new(str_of(name, "name")?);
    for stream in streams.ok_or_else(|| missing("streams"))? {
        program.add_stream(stream);
    }
    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_program() -> Program {
        let mut p = Program::new("unit \"quoted\" ☃");
        let mut s0 = Stream::new(GroupId::new(0, 0));
        s0.push(Command::RegisterEvent {
            event: 7,
            pattern: SyncPattern::NToM {
                producers: 2,
                consumers: 3,
            },
        })
        .push(Command::Prefetch {
            kernel: KernelId(3),
            code_bytes: 4096,
        })
        .push(Command::Launch {
            kernel: KernelId(3),
            descriptor: KernelDescriptor {
                name: "conv+relu".into(),
                class: OpClass::MatrixDense,
                dtype: DataType::Fp16,
                // > 2^53: must survive without a float round-trip.
                macs: (1u64 << 53) + 1,
                vector_ops: 10,
                sfu_ops: 5,
                l1_bytes: 1,
                l2_bytes: 2,
                l3_bytes: 3,
                code_bytes: 4096,
                narrow_dim: 64,
            },
        })
        .push(Command::Dma {
            descriptor: DmaDescriptor {
                path: DmaPath::new(MemLevel::L3, MemLevel::L2),
                bytes: 65536,
                transform: TransformOp::Identity,
                sparse: SparseFormat::BitmapBlock,
                broadcast: 3,
                repeat: 8,
                zero_fraction: 0.71,
            },
            overlapped: true,
        })
        .push(Command::Signal { event: 7 });
        let mut s1 = Stream::new(GroupId::new(1, 2));
        s1.push(Command::Wait { event: 7 });
        p.add_stream(s0);
        p.add_stream(s1);
        p
    }

    #[test]
    fn round_trip_preserves_program_exactly() {
        let p = sample_program();
        let json = program_to_json(&p).unwrap();
        let back = program_from_json(&json).unwrap();
        assert_eq!(p, back);
    }

    /// The exact bytes the cache format version 1 encoder wrote for
    /// [`sample_program`]. Artifacts on disk are read back by this
    /// schema, so any change here must bump the harness's
    /// `CACHE_FORMAT_VERSION`.
    const SAMPLE_V1: &str = concat!(
        r#"{"name":"unit \"quoted\" ☃","streams":[{"cluster":0,"group":0,"commands":["#,
        r#"{"op":"register","event":7,"pattern":{"kind":"n_to_m","producers":2,"consumers":3}},"#,
        r#"{"op":"prefetch","kernel":3,"code_bytes":4096},"#,
        r#"{"op":"launch","kernel":3,"name":"conv+relu","class":"matrix_dense","dtype":"fp16","#,
        r#""macs":9007199254740993,"vector_ops":10,"sfu_ops":5,"l1_bytes":1,"l2_bytes":2,"#,
        r#""l3_bytes":3,"code_bytes":4096,"narrow_dim":64},"#,
        r#"{"op":"dma","src":"l3","dst":"l2","bytes":65536,"sparse":"bitmap_block","broadcast":3,"#,
        r#""repeat":8,"zero_fraction":0.71,"overlapped":true},"#,
        r#"{"op":"signal","event":7}]},"#,
        r#"{"cluster":1,"group":2,"commands":[{"op":"wait","event":7}]}]}"#,
    );

    #[test]
    fn encoding_is_pinned_to_cache_format_v1() {
        assert_eq!(program_to_json(&sample_program()).unwrap(), SAMPLE_V1);
        assert_eq!(program_from_json(SAMPLE_V1).unwrap(), sample_program());
    }

    #[test]
    fn every_command_shape_and_escape_round_trips() {
        let mut p = Program::new("ctl\u{1}\t\n\r\\/");
        let mut s = Stream::new(GroupId::new(2, 5));
        for pattern in [
            SyncPattern::OneToOne,
            SyncPattern::OneToN { consumers: 4 },
            SyncPattern::NToOne { producers: 6 },
        ] {
            s.push(Command::RegisterEvent {
                event: u32::MAX,
                pattern,
            });
        }
        let mut d = DmaDescriptor::copy(DmaPath::new(MemLevel::Host, MemLevel::L1), u64::MAX);
        d.zero_fraction = 1e-300;
        s.push(Command::Dma {
            descriptor: d,
            overlapped: false,
        });
        let mut k = KernelDescriptor::new("a\"b\\c");
        k.class = OpClass::Gather;
        k.dtype = DataType::Int8;
        s.push(Command::Launch {
            kernel: KernelId(u64::MAX),
            descriptor: k,
        });
        p.add_stream(s);
        let json = program_to_json(&p).unwrap();
        assert_eq!(program_from_json(&json).unwrap(), p);
    }

    #[test]
    fn non_finite_zero_fraction_encodes_as_zero() {
        let mut p = Program::new("nan");
        let mut s = Stream::new(GroupId::new(0, 0));
        let mut d = DmaDescriptor::copy(DmaPath::new(MemLevel::L3, MemLevel::L2), 8);
        d.zero_fraction = f64::NAN;
        s.push(Command::Dma {
            descriptor: d,
            overlapped: false,
        });
        p.add_stream(s);
        let json = program_to_json(&p).unwrap();
        assert!(json.contains("\"zero_fraction\":0,"), "{json}");
    }

    #[test]
    fn field_keys_map_back_to_their_slots() {
        for (i, key) in FIELD_KEYS.iter().enumerate() {
            let f = Field::from_key(key).unwrap();
            assert_eq!(f as usize, i);
            assert_eq!(f.key(), *key);
        }
        assert_eq!(Field::from_key("pattern"), None);
    }

    #[test]
    fn serialization_is_deterministic() {
        let p = sample_program();
        assert_eq!(program_to_json(&p).unwrap(), program_to_json(&p).unwrap());
    }

    #[test]
    fn non_identity_transform_is_rejected() {
        let mut p = Program::new("bad");
        let mut s = Stream::new(GroupId::new(0, 0));
        let mut d = DmaDescriptor::copy(DmaPath::new(MemLevel::L3, MemLevel::L2), 64);
        d.transform = TransformOp::Concat { axis: 1 };
        s.push(Command::Dma {
            descriptor: d,
            overlapped: false,
        });
        p.add_stream(s);
        assert!(matches!(
            program_to_json(&p),
            Err(ProgramIoError::Unsupported(_))
        ));
    }

    #[test]
    fn truncated_json_is_a_parse_error_not_a_panic() {
        let json = program_to_json(&sample_program()).unwrap();
        for cut in [0, 1, json.len() / 3, json.len() / 2, json.len() - 1] {
            let truncated = &json[..cut];
            if std::str::from_utf8(truncated.as_bytes()).is_err() {
                continue;
            }
            assert!(
                program_from_json(truncated).is_err(),
                "cut at {cut} should fail to parse"
            );
        }
    }

    #[test]
    fn garbage_inputs_are_parse_errors() {
        for bad in [
            "",
            "null",
            "[]",
            "{\"name\":1,\"streams\":[]}",
            "{\"name\":\"x\"}",
            "{\"name\":\"x\",\"streams\":[{\"cluster\":0}]}",
            "{\"name\":\"x\",\"streams\":[]} trailing",
            "{\"name\":\"x\",\"streams\":[{\"cluster\":-1,\"group\":0,\"commands\":[]}]}",
            "{\"name\":\"x\",\"streams\":[{\"cluster\":0,\"group\":0,\"commands\":[{\"op\":\"zap\"}]}]}",
        ] {
            assert!(program_from_json(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn unknown_fields_are_ignored() {
        let json = "{\"name\":\"x\",\"future\":42,\"streams\":[{\"cluster\":0,\"group\":0,\
                    \"commands\":[{\"op\":\"signal\",\"event\":1,\"extra\":null}]}]}";
        let p = program_from_json(json).unwrap();
        assert_eq!(p.total_commands(), 1);
    }

    /// A one-command program around `command`, with whitespace between
    /// every token.
    fn one_command(command: &str) -> String {
        format!(
            " {{ \"name\" : \"x\" , \"streams\" : [ {{ \"cluster\" : 0 , \"group\" : 0 , \
             \"commands\" : [ {command} ] }} ] }} "
        )
    }

    #[test]
    fn fields_an_op_does_not_use_may_hold_any_value() {
        let json = one_command(
            "{\"macs\":\"not a number\",\"name\":7,\"pattern\":[1,{\"a\":null}],\
             \"op\":\"wait\",\"event\":3,\"nested\":{\"deep\":[true,false,-1.5e3]}}",
        );
        let p = program_from_json(&json).unwrap();
        assert_eq!(p.streams[0].commands, vec![Command::Wait { event: 3 }]);
    }

    #[test]
    fn the_first_of_duplicate_keys_wins() {
        let json =
            one_command("{\"op\":\"signal\",\"event\":1,\"event\":\"ignored\",\"op\":\"wait\"}");
        let p = program_from_json(&json).unwrap();
        assert_eq!(p.streams[0].commands, vec![Command::Signal { event: 1 }]);
        let json = "{\"name\":\"a\",\"name\":1,\"streams\":[],\"streams\":7}";
        assert_eq!(program_from_json(json).unwrap(), Program::new("a"));
        // The first key decides even when it is the ill-typed one.
        let json = one_command("{\"op\":\"signal\",\"event\":\"1\",\"event\":1}");
        assert!(program_from_json(&json).is_err());
    }

    #[test]
    fn escaped_keys_and_values_match_their_plain_spelling() {
        let json =
            one_command("{\"o\\u0070\":\"sig\\u006eal\",\"ev\\u0065nt\":9,\"name\":\"\\ud800\"}");
        // The lone surrogate sits in a field `signal` ignores, but it is
        // still malformed JSON.
        assert!(program_from_json(&json).is_err());
        let json = one_command("{\"o\\u0070\":\"sig\\u006eal\",\"ev\\u0065nt\":9}");
        let p = program_from_json(&json).unwrap();
        assert_eq!(p.streams[0].commands, vec![Command::Signal { event: 9 }]);
    }

    #[test]
    fn numbers_are_checked_for_their_field() {
        for (event, ok) in [
            ("4294967295", true),
            ("007", true),
            ("4294967296", false),
            ("-1", false),
            ("1.0", false),
            ("1e3", false),
            ("99999999999999999999", false),
            ("-", false),
            ("1e", false),
            ("1.2.3", false),
        ] {
            let json = one_command(&format!("{{\"op\":\"wait\",\"event\":{event}}}"));
            assert_eq!(program_from_json(&json).is_ok(), ok, "event {event}");
        }
        // Malformed numbers are rejected even where no op reads them.
        let json = one_command("{\"op\":\"wait\",\"event\":1,\"x\":1e}");
        assert!(program_from_json(&json).is_err());
    }

    #[test]
    fn register_needs_an_object_pattern() {
        for (pattern, ok) in [
            (
                "{\"kind\":\"one_to_one\",\"producers\":1,\"consumers\":1}",
                true,
            ),
            ("{\"kind\":\"one_to_one\",\"producers\":1}", false),
            ("{\"kind\":\"all\",\"producers\":1,\"consumers\":1}", false),
            ("[]", false),
            ("null", false),
        ] {
            let json = one_command(&format!(
                "{{\"op\":\"register\",\"event\":1,\"pattern\":{pattern}}}"
            ));
            assert_eq!(program_from_json(&json).is_ok(), ok, "pattern {pattern}");
        }
        let json = one_command("{\"op\":\"register\",\"event\":1}");
        assert!(program_from_json(&json).is_err());
    }
}

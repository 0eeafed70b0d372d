//! The `.tops` importer and shape inference on damaged input: every
//! text imports to a graph with shapes or to an error, never to a
//! panic or to a silently wrapped size.

use dtu_graph::{export_model, parse_model, ImportError};
use dtu_models::Model;

fn import(text: &str) -> Result<(), ImportError> {
    parse_model(text).and_then(|g| Ok(g.infer_shapes().map(|_| ())?))
}

#[test]
fn malformed_sizes_are_errors() {
    let cases = [
        // A dims token of digits only that overflows usize.
        "input x fp16 99999999999999999999999x4\noutput x",
        // Zero strides and zero groups.
        "input x fp16 1x4x8x8\nconv c x out=4 k=3 s=0\noutput c",
        "input x fp16 1x4x8x8\npool c x kind=max k=3 s=0\noutput c",
        "input x fp16 1x4x8x8\nconv c x out=4 k=3 g=0\noutput c",
        "input x fp16 1x4x8x8\ndwconv c x ch=0 k=3\noutput c",
        "input x fp16 1x4x8x8\ndeconv c x out=4 k=2 s=0\noutput c",
        // A kernel larger than the padded input.
        "input x fp16 1x4x8x8\nconv c x out=4 k=99\noutput c",
        "input x fp16 1x4x8x8\npool c x kind=avg k=9 s=1\noutput c",
        // Sizes whose arithmetic overflows usize.
        "input x fp16 99999999999x99999999999\noutput x",
        "input x fp32 1x4611686018427387904\noutput x",
        "input x fp16 1x4x8x8\nconv c x out=4 k=3 p=9999999999999999999\noutput c",
        "input x fp16 1x4x8x8\nupsample u x scale=9999999999999999999\noutput u",
        "input x fp16 1x4x8x8\nreshape r x dims=99999999999x99999999999\noutput r",
    ];
    for case in cases {
        assert!(import(&format!("model m\n{case}\n")).is_err(), "{case}");
    }
}

#[test]
fn damaged_exports_import_without_panicking() {
    for model in [Model::Resnet50, Model::BertLarge] {
        let text = export_model(&model.build(1));
        import(&text).expect("an export imports");
        // The export is ASCII, so every byte offset is a cut point.
        for cut in (0..text.len()).step_by(text.len() / 89 + 1) {
            let _ = import(&text[..cut]);
        }
        let tokens: Vec<&str> = text.split(' ').collect();
        for at in (0..tokens.len()).step_by(tokens.len() / 53 + 1) {
            let key = tokens[at].split_once('=').map(|(k, _)| k);
            for value in ["0", "99999999999", "99999999999999999999999", "x", "-1"] {
                let mut damaged = tokens.clone();
                let token = key.map_or(value.to_string(), |k| format!("{k}={value}"));
                damaged[at] = &token;
                let _ = import(&damaged.join(" "));
            }
        }
    }
}

//! The session cache's artifact codec on real compiled programs: every
//! Table III point round-trips exactly, compiles to the pinned bytes,
//! and a damaged artifact decodes to an error or to a program, never to
//! a panic.

use dtu::{Accelerator, SessionOptions};
use dtu_compiler::{compile, Fnv1a};
use dtu_graph::optimize;
use dtu_models::Model;
use dtu_sim::{program_from_json, program_to_json, Program};

fn compiled(accel: &Accelerator, model: Model, batch: usize) -> Program {
    let graph = model.build(batch);
    let (placement, compiler, _) = SessionOptions::batched(batch).resolve(accel);
    compile(&graph, accel.config(), &placement, &compiler).expect("Table III models compile")
}

#[test]
fn all_forty_table_iii_programs_round_trip() {
    let accel = Accelerator::cloudblazer_i20();
    for model in Model::ALL {
        for batch in [1, 2, 4, 8] {
            let program = compiled(&accel, model, batch);
            let json = program_to_json(&program).expect("compiled programs are cacheable");
            let back = program_from_json(&json).expect("encoded programs decode");
            assert!(
                back == program,
                "{model} b{batch} changed in the round trip"
            );
        }
    }
}

/// Per Table III point: the FNV-1a digest of the compiled program's
/// artifact JSON, and what `optimize` removes from the model graph
/// (`dead_nodes`, `identity_ops`, `cse_merged`, `iterations`).
/// Regenerate only for a deliberate change to the emitted programs, and
/// bump `COMPILER_VERSION` with it.
#[rustfmt::skip]
const PINNED: [(Model, usize, u64, [usize; 4]); 40] = [
    (Model::YoloV3, 1, 0x75a84a4628aedd60, [0, 0, 0, 1]),
    (Model::YoloV3, 2, 0x92e038de48c8bcae, [0, 0, 0, 1]),
    (Model::YoloV3, 4, 0xcc461081a3619f90, [0, 0, 0, 1]),
    (Model::YoloV3, 8, 0x766302270f5617de, [0, 0, 0, 1]),
    (Model::CenterNet, 1, 0xdf47e9721cfb3a26, [0, 0, 0, 1]),
    (Model::CenterNet, 2, 0xc642f89bfa4b819a, [0, 0, 0, 1]),
    (Model::CenterNet, 4, 0x6d9abb8e0554ea02, [0, 0, 0, 1]),
    (Model::CenterNet, 8, 0x5ac828276b000a5a, [0, 0, 0, 1]),
    (Model::RetinaFace, 1, 0x96659f776997fab6, [0, 0, 0, 1]),
    (Model::RetinaFace, 2, 0xb4858f3914871d6e, [0, 0, 0, 1]),
    (Model::RetinaFace, 4, 0xf4fce8937d1cb8ce, [0, 0, 0, 1]),
    (Model::RetinaFace, 8, 0x5837e58271fdbe0c, [0, 0, 0, 1]),
    (Model::Vgg16, 1, 0xcc1eddd63762f960, [0, 0, 0, 1]),
    (Model::Vgg16, 2, 0x9048a93e91afab1a, [0, 0, 0, 1]),
    (Model::Vgg16, 4, 0x9d4a1ba50887229e, [0, 0, 0, 1]),
    (Model::Vgg16, 8, 0x8440c3f99cd99bc4, [0, 0, 0, 1]),
    (Model::Resnet50, 1, 0x91817054e71ac54d, [0, 0, 0, 1]),
    (Model::Resnet50, 2, 0x7d2d0660a91bdd0d, [0, 0, 0, 1]),
    (Model::Resnet50, 4, 0xb2cb3d6856a5d43d, [0, 0, 0, 1]),
    (Model::Resnet50, 8, 0x143730440324b815, [0, 0, 0, 1]),
    (Model::InceptionV4, 1, 0x398e5cc09557764a, [4, 0, 0, 2]),
    (Model::InceptionV4, 2, 0x982f1a482afad1c4, [4, 0, 0, 2]),
    (Model::InceptionV4, 4, 0x044f0e10ecd24b1c, [4, 0, 0, 2]),
    (Model::InceptionV4, 8, 0x8844f8448b1744f4, [4, 0, 0, 2]),
    (Model::Unet, 1, 0x936429bc065fd6e6, [0, 0, 0, 1]),
    (Model::Unet, 2, 0x6fdf28fd19a8c9d8, [0, 0, 0, 1]),
    (Model::Unet, 4, 0x8bdbb8ba480b36ea, [0, 0, 0, 1]),
    (Model::Unet, 8, 0xbd7a99f38b83c244, [0, 0, 0, 1]),
    (Model::SrResnet, 1, 0x9cfaf667b7b4b21c, [0, 0, 0, 1]),
    (Model::SrResnet, 2, 0x6f99c3dbfddccd0a, [0, 0, 0, 1]),
    (Model::SrResnet, 4, 0xeceef217dc0d0254, [0, 0, 0, 1]),
    (Model::SrResnet, 8, 0x131e780b69861d1a, [0, 0, 0, 1]),
    (Model::BertLarge, 1, 0xd94968f9e97684d7, [0, 0, 0, 1]),
    (Model::BertLarge, 2, 0xe9e4a4c85a2d5621, [0, 0, 0, 1]),
    (Model::BertLarge, 4, 0x116463419088ffcb, [0, 0, 0, 1]),
    (Model::BertLarge, 8, 0x67a0f725cab83d73, [0, 0, 0, 1]),
    (Model::Conformer, 1, 0x3dc9d04442c591ec, [0, 0, 0, 1]),
    (Model::Conformer, 2, 0xe21e2dbba2bebed8, [0, 0, 0, 1]),
    (Model::Conformer, 4, 0xfbb5e8364c4b6d96, [0, 0, 0, 1]),
    (Model::Conformer, 8, 0xdf1e2682a612c332, [0, 0, 0, 1]),
];

#[test]
fn all_forty_table_iii_programs_match_their_pins() {
    let accel = Accelerator::cloudblazer_i20();
    let mut drifted = Vec::new();
    for (model, batch, digest, counts) in PINNED {
        let mut h = Fnv1a::new();
        h.write_str(&program_to_json(&compiled(&accel, model, batch)).unwrap());
        let (_, s) = optimize(&model.build(batch)).expect("Table III models optimise");
        let got = [s.dead_nodes, s.identity_ops, s.cse_merged, s.iterations];
        if h.finish() != digest || got != counts {
            drifted.push(format!("{model} b{batch}: {:#018x} {got:?}", h.finish()));
        }
    }
    assert!(drifted.is_empty(), "drifted from the pins: {drifted:#?}");
}

#[test]
fn bert_optimises_with_one_shape_pass_per_iteration_at_most() {
    // BERT is the reshape-heaviest Table III graph; inferring shapes per
    // reshape would make this count reshapes x iterations.
    for batch in [1, 2, 4, 8] {
        let (_, stats) = optimize(&Model::BertLarge.build(batch)).expect("BERT optimises");
        assert!(
            stats.shape_passes <= stats.iterations,
            "b{batch}: {} shape passes over {} iterations",
            stats.shape_passes,
            stats.iterations
        );
    }
}

/// Decodes damaged input; whatever decodes must encode again.
fn decode_without_panic(text: &str, what: &str) {
    if let Ok(program) = program_from_json(text) {
        assert!(
            program_to_json(&program).is_ok(),
            "{what}: decoded program does not re-encode"
        );
    }
}

#[test]
fn damaged_artifacts_decode_to_errors_not_panics() {
    let accel = Accelerator::cloudblazer_i20();
    let json = program_to_json(&compiled(&accel, Model::Resnet50, 1)).unwrap();
    let bytes = json.as_bytes();
    // Strides coprime to the typical command length, so the cuts and
    // overwrites land at every kind of token.
    for cut in (0..bytes.len()).step_by(bytes.len() / 97 + 1) {
        let text = String::from_utf8_lossy(&bytes[..cut]);
        assert!(
            program_from_json(&text).is_err(),
            "truncation at byte {cut} decoded"
        );
    }
    let mut damaged = bytes.to_vec();
    for at in (0..bytes.len()).step_by(bytes.len() / 61 + 1) {
        for b in *b"\"\\{]9-" {
            damaged[at] = b;
            decode_without_panic(
                &String::from_utf8_lossy(&damaged),
                &format!("byte {at} := {}", b as char),
            );
        }
        damaged[at] = bytes[at];
    }
}

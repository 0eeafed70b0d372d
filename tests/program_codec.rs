//! The session cache's artifact codec on real compiled programs: every
//! Table III point round-trips exactly, and a damaged artifact decodes
//! to an error or to a program, never to a panic.

use dtu::{Accelerator, SessionOptions};
use dtu_compiler::compile;
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

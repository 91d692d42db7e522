//! Behaviour lock for the JSON documents the reproduction emits.
//!
//! Each emitter below is compared byte for byte with a checked-in
//! snapshot under `tests/golden/`: the measurement document
//! (`bench_json`), every report as one `tables_json` document, the
//! canonical `osarch-spec/1` document of each built-in machine, and the
//! per-architecture lint and abstract-interpretation documents (one line
//! each in the `.jsonl` files). A reader or emitter refactor must leave
//! all of them untouched. When a change to an emitter is intentional,
//! regenerate the files with
//! `cargo test --test json_golden -- --ignored regenerate_goldens`.
//!
//! The same documents pin the reader: parsing any of them, bare or inside
//! any reply envelope, and re-emitting it with `Display` must give back
//! the emitter's bytes.

use osarch::cpu::json::{self, Json};
use osarch::serve::protocol;
use osarch::{metrics, session, AbsintAnalyzer, Analyzer, Arch};

fn bench() -> String {
    metrics::bench_json()
}

fn tables() -> String {
    metrics::tables_json(&session::all_tables())
}

/// The canonical spec document of every built-in, one per line.
fn specs() -> String {
    Arch::all()
        .into_iter()
        .map(|arch| {
            let name = format!("copy-of-{}", arch.to_string().to_ascii_lowercase());
            arch.spec().to_json(&name) + "\n"
        })
        .collect()
}

fn lints() -> String {
    let analyzer = Analyzer::new();
    Arch::all()
        .into_iter()
        .map(|arch| metrics::lint_json(&analyzer.analyze_arch(arch)))
        .collect()
}

fn absints() -> String {
    let analyzer = AbsintAnalyzer::new();
    Arch::all()
        .into_iter()
        .map(|arch| metrics::absint_json(&analyzer.analyze_arch(arch)))
        .collect()
}

/// `(file under tests/golden/, snapshot, emitter)`.
type Golden = (&'static str, &'static str, fn() -> String);

const GOLDENS: [Golden; 5] = [
    ("bench.json", include_str!("golden/bench.json"), bench),
    ("tables.json", include_str!("golden/tables.json"), tables),
    ("specs.jsonl", include_str!("golden/specs.jsonl"), specs),
    ("lint.jsonl", include_str!("golden/lint.jsonl"), lints),
    ("absint.jsonl", include_str!("golden/absint.jsonl"), absints),
];

#[test]
fn every_emitter_matches_its_golden_byte_for_byte() {
    for (file, golden, emit) in GOLDENS {
        let doc = emit();
        for line in doc.lines() {
            assert_eq!(metrics::validate_json(line), Ok(()), "{file}: {line}");
        }
        assert!(
            doc == golden,
            "output drifted from tests/golden/{file}; if intentional, regenerate \
             with `cargo test --test json_golden -- --ignored regenerate_goldens`"
        );
    }
}

#[test]
fn goldens_cover_every_architecture() {
    for (file, golden, _) in &GOLDENS[2..] {
        assert_eq!(golden.lines().count(), Arch::all().len(), "{file}");
    }
}

#[test]
#[ignore = "rewrites the snapshots; run only for an intentional emitter change"]
fn regenerate_goldens() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    for (file, _, emit) in GOLDENS {
        std::fs::write(dir.join(file), emit()).expect("tests/golden is writable");
    }
}

/// Every golden document, one per line, without its trailing newline.
fn golden_documents() -> impl Iterator<Item = &'static str> {
    GOLDENS.iter().flat_map(|(_, golden, _)| golden.lines())
}

fn reparsed(doc: &str) -> String {
    Json::parse(doc)
        .unwrap_or_else(|e| panic!("{e}: {doc}"))
        .to_string()
}

#[test]
fn emit_parse_display_is_the_identity_on_every_golden() {
    for doc in golden_documents() {
        assert_eq!(reparsed(doc), doc);
    }
}

#[test]
fn emit_parse_display_is_the_identity_inside_every_envelope() {
    for doc in golden_documents() {
        for id in ["null", "7", "-1.50e+2", "true", "\"a\\\"b\""] {
            for envelope in [
                protocol::ok_envelope(id, false, 3, 812, doc),
                protocol::degraded_envelope(id, 3, 812, doc, "panicked: \"boom\"\n"),
                protocol::err_envelope(id, doc),
                protocol::not_owner_envelope(id, doc, "127.0.0.1:4001", &["127.0.0.1:4002"]),
            ] {
                assert_eq!(reparsed(&envelope), envelope);
            }
        }
    }
}

fn depth(value: &Json<'_>) -> usize {
    match value {
        Json::Array(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
        Json::Object(members) => 1 + members.iter().map(|(_, v)| depth(v)).max().unwrap_or(0),
        _ => 0,
    }
}

#[test]
fn the_depth_bound_leaves_headroom_over_every_written_document() {
    let deepest = golden_documents()
        .map(|doc| depth(&Json::parse(doc).expect("golden parses")))
        .max()
        .expect("goldens exist");
    assert_eq!(
        deepest, 7,
        "the deepest emitted document changed; revisit json::MAX_DEPTH"
    );
    // A reply envelope adds one level; the bound keeps twice the room.
    assert!(json::MAX_DEPTH >= 2 * deepest, "{}", json::MAX_DEPTH);
}

//! Byte-level fuzzing of the service's trust boundaries. A real store
//! segment line and a real TCP `submit` request are mutated (byte flips,
//! inserts, deletes, truncation); whatever comes out, the store codec and
//! the request handler must answer with a result or an error, never a
//! panic, and a mutated segment line must never load as a different
//! record.

use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use scenario::{ClusterStrategy, Executor, ProtocolSpec, RunCache, ScenarioSpec};
use serde_json::Value;
use sweep_server::{codec, RunStore, Server};
use workloads::WorkloadSpec;

/// A real `submit` request line, as `sweep submit` sends it.
const SUBMIT: &str = r#"{"cmd":"submit","name":"fuzz","suite":"[suite]\nname = \"fuzz\"\n\n[defaults]\nworkloads = [\"stencil:4x4:face=64:compute_us=5\"]\n\n[scenario.main]\nprotocols = [\"hydee\"]\n","priority":2,"max_cells":1}"#;

/// Bytes that steer mutations into the JSON grammar's interesting corners.
const SIGNIFICANT: &[u8] = b"[]{}\":,\\0-.eE \n";

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sweep-fuzz-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec() -> ScenarioSpec {
    ScenarioSpec::new(
        WorkloadSpec::NetPipe {
            rounds: 3,
            bytes: 256,
        },
        ProtocolSpec::hydee(),
        ClusterStrategy::PerRank,
    )
}

/// One committed segment line (without its newline) and the record bytes
/// it carries, written by a real store.
fn committed() -> &'static (String, String) {
    static LINE: OnceLock<(String, String)> = OnceLock::new();
    LINE.get_or_init(|| {
        let dir = tmpdir("seed");
        let spec = spec();
        let raw = {
            let store = RunStore::open(&dir).unwrap();
            let run = store.get_or_run(&spec, &|| Executor::run_one(&spec));
            codec::encode_record(&run.record)
        };
        let segment = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|x| x == "jsonl"))
            .unwrap();
        let line = std::fs::read_to_string(segment).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        (line.trim_end().to_owned(), raw)
    })
}

/// Apply `(op, at, byte)` edits: 0 flips bits, 1 inserts, 2 deletes,
/// 3 truncates. Invalid UTF-8 is replaced, as a line reader would.
fn mutate(text: &str, edits: &[(u8, u64, u8)]) -> String {
    let mut b = text.as_bytes().to_vec();
    for &(op, at, byte) in edits {
        let i = (at % (b.len() as u64 + 1)) as usize;
        let byte = if byte & 1 == 0 {
            SIGNIFICANT[(byte >> 1) as usize % SIGNIFICANT.len()]
        } else {
            byte
        };
        match op {
            0 if i < b.len() => b[i] ^= byte | 1,
            1 => b.insert(i, byte),
            2 if i < b.len() => {
                b.remove(i);
            }
            3 => b.truncate(i),
            _ => {}
        }
    }
    String::from_utf8_lossy(&b).into_owned()
}

fn edits() -> impl Strategy<Value = Vec<(u8, u64, u8)>> {
    prop::collection::vec((0u8..4, any::<u64>(), any::<u8>()), 1..6)
}

/// splitmix64 step, for building values from a seed.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn arb_string(state: &mut u64) -> String {
    const CHARS: &[char] = &[
        'a', 'Z', '"', '\\', '/', '\n', '\t', '\u{1}', 'é', '✓', '😀',
    ];
    (0..next(state) % 6)
        .map(|_| CHARS[(next(state) % CHARS.len() as u64) as usize])
        .collect()
}

fn arb_value(state: &mut u64, depth: usize) -> Value {
    let pick = next(state) % if depth == 0 { 5 } else { 7 };
    match pick {
        0 => Value::Null,
        1 => Value::Bool(next(state) & 1 == 1),
        2 => Value::Number(next(state).to_string()),
        3 => Value::Number(f64::from_bits(next(state) >> 2).to_string()),
        4 => Value::String(arb_string(state)),
        5 => Value::Array(
            (0..next(state) % 4)
                .map(|_| arb_value(state, depth - 1))
                .collect(),
        ),
        _ => Value::Object(
            (0..next(state) % 4)
                .map(|_| (arb_string(state), arb_value(state, depth - 1)))
                .collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn mutated_records_decode_or_error(edits in edits()) {
        let (line, raw) = committed();
        for text in [mutate(raw, &edits), mutate(line, &edits)] {
            if let Ok(record) = codec::decode_verified(&text) {
                // A record that verifies re-encodes to exactly its input.
                prop_assert_eq!(codec::encode_record(&record), text);
            }
        }
    }

    #[test]
    fn mutated_segment_lines_never_load_a_different_record(edits in edits()) {
        let (line, raw) = committed();
        let dir = tmpdir("segment");
        std::fs::create_dir_all(&dir).unwrap();
        let mutated = mutate(line, &edits);
        std::fs::write(dir.join("segment-000000.jsonl"), format!("{mutated}\n")).unwrap();
        let store = RunStore::open(&dir).unwrap();
        prop_assert!(store.load_report().loaded <= 1);
        if let Some(stored) = store.get(spec().cache_key()) {
            prop_assert_eq!(&stored.raw, raw);
        }
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mutated_requests_get_one_response_line(edits in edits()) {
        let dir = tmpdir("server");
        let server = Server::new(Arc::new(RunStore::open(&dir).unwrap()), None);
        let resp = server.handle_request(&mutate(SUBMIT, &edits));
        prop_assert!(resp.ends_with('\n') && resp.matches('\n').count() == 1, "{resp}");
        let v = serde_json::from_str(&resp).expect("response is JSON");
        prop_assert!(v.get("ok").and_then(Value::as_bool).is_some(), "{resp}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn to_json_round_trips_through_from_str(seed in any::<u64>()) {
        let mut state = seed;
        let v = arb_value(&mut state, 4);
        let text = v.to_json();
        let back = serde_json::from_str(&text).expect("emitted JSON parses");
        prop_assert_eq!(back.to_json(), text);
        prop_assert_eq!(back, v);
    }
}

#[test]
fn unmutated_inputs_are_accepted() {
    let (line, raw) = committed();
    assert!(codec::decode_verified(raw).is_ok());
    let v = serde_json::from_str(line).unwrap();
    assert_eq!(
        v.get("record").map(Value::to_json).as_deref(),
        Some(raw.as_str())
    );
    let dir = tmpdir("accept");
    let server = Server::new(Arc::new(RunStore::open(&dir).unwrap()), None);
    assert!(server.handle_request(SUBMIT).starts_with("{\"ok\":true"));
    std::fs::remove_dir_all(&dir).unwrap();
}

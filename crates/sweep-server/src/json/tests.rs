use serde_json::{from_str, Value, MAX_DEPTH};

#[test]
fn full_range_u64_survives() {
    let v = from_str("18446744073709551615").unwrap();
    assert_eq!(v.as_u64(), Some(u64::MAX));
    // The f64 path would have rounded this; the raw text must not.
    assert_eq!(v, Value::Number("18446744073709551615".into()));
}

#[test]
fn objects_preserve_member_order() {
    let v = from_str(r#"{"b":1,"a":2}"#).unwrap();
    match &v {
        Value::Object(m) => {
            assert_eq!(m[0].0, "b");
            assert_eq!(m[1].0, "a");
        }
        other => panic!("{other:?}"),
    }
    assert_eq!(v.get("a").and_then(Value::as_u64), Some(2));
}

#[test]
fn floats_and_null_nan() {
    assert_eq!(from_str("1.5").unwrap().as_f64(), Some(1.5));
    assert_eq!(from_str("-2e3").unwrap().as_f64(), Some(-2000.0));
    assert_eq!(from_str("-1.5e3").unwrap().as_f64(), Some(-1500.0));
    assert_eq!(from_str("null").unwrap(), Value::Null);
    assert!(from_str("null").unwrap().as_f64().unwrap().is_nan());
    assert_eq!(from_str(" true ").unwrap(), Value::Bool(true));
    // Floats are not exact integers.
    assert_eq!(from_str("1.5").unwrap().as_u64(), None);
    assert_eq!(from_str("-3").unwrap().as_u64(), None);
}

#[test]
fn strings_unescape() {
    assert_eq!(
        from_str(r#""a\"b\\c\nd\u0041""#).unwrap().as_str(),
        Some("a\"b\\c\ndA")
    );
    assert_eq!(from_str(r#""\ud83d\ude00""#).unwrap().as_str(), Some("😀"));
    let v = from_str("{\"k\": \"héllo ✓\"}").unwrap();
    assert_eq!(v.get("k").and_then(Value::as_str), Some("héllo ✓"));
}

#[test]
fn nesting_is_bounded_at_max_depth() {
    let nested = |n: usize| format!("{}1{}", "[".repeat(n), "]".repeat(n));
    assert!(from_str(&nested(64)).is_ok());
    assert!(from_str(&nested(MAX_DEPTH)).is_ok());
    let err = from_str(&nested(MAX_DEPTH + 1)).unwrap_err();
    assert!(err.to_string().contains("nesting too deep"), "{err}");
    let objects = format!(
        "{}1{}",
        "{\"k\":".repeat(MAX_DEPTH + 1),
        "}".repeat(MAX_DEPTH + 1)
    );
    assert!(from_str(&objects).is_err());
}

#[test]
fn rejects_malformed_documents() {
    for bad in [
        "",
        "{",
        "}",
        "[1,",
        "[1,]",
        "[1 2]",
        "{\"a\"}",
        "{\"a\":}",
        "01",
        "1.",
        "-.5",
        "1e",
        "1x",
        "tru",
        "\"open",
        "\x01",
        "[1] x",
        "{\"a\":1,}",
        "\"\\ud800\"",
        "\"\\u+041\"",
        "nan",
    ] {
        assert!(from_str(bad).is_err(), "`{bad}` must not parse");
    }
    // A server connection thread has the default 2 MiB stack: a long run
    // of `[` must be an error there, not a stack overflow.
    let deep = "[".repeat(100_000);
    let result = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || from_str(&deep).map(|_| ()))
        .unwrap()
        .join()
        .expect("parser thread survives");
    assert!(result.is_err());
}

#[test]
fn round_trips_emitter_output() {
    // What the vendored serde emits for a nested struct shape.
    let text = r#"{"s":"x","n":42,"f":0.25,"inner":{"b":true,"v":[1,2,{"z":null}]}}"#;
    let v = from_str(text).unwrap();
    assert_eq!(v.to_json(), text);
    assert_eq!(v.get("n").and_then(Value::as_u64), Some(42));
    assert_eq!(v.get("f").and_then(Value::as_f64), Some(0.25));
    let inner = v.get("inner").unwrap();
    assert_eq!(inner.get("b").and_then(Value::as_bool), Some(true));
    assert_eq!(
        inner.get("v").and_then(Value::as_array).map(<[_]>::len),
        Some(3)
    );
}

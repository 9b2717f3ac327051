//! Seeded request generation shared by the workloads, plus the small
//! byte-level readers the checks use on response bodies.

use perpetuum_exp::scenario::Scenario;

/// SplitMix64 finaliser: a well-mixed 64-bit value from any input.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform value in `[0, 1)` drawn from `(a, b, c)`.
pub fn unit(a: u64, b: u64, c: u64) -> f64 {
    (mix(mix(mix(a) ^ b) ^ c) >> 11) as f64 / (1u64 << 53) as f64
}

/// The master seed every request of a run carries, derived from the
/// benchmark's `--seed`.
pub fn request_seed(seed: u64) -> u64 {
    // Keep it below 2^53 so it survives the JSON number round trip.
    mix(seed) >> 11
}

/// A scenario as the JSON object the daemon expects under `"scenario"`.
pub fn scenario_json(scenario: &Scenario) -> String {
    serde_json::to_string(scenario).expect("a scenario always serializes")
}

/// A planning request body: topology `index` of `scenario` under `seed`,
/// with `extra` (`,"key":value…`) appended inside the object.
pub fn body(scenario: &str, seed: u64, index: u64, extra: &str) -> String {
    format!("{{\"scenario\":{scenario},\"seed\":{seed},\"index\":{index}{extra}}}")
}

/// The number after `"key":` in a JSON text, read without parsing the
/// whole document.
pub fn number_after(text: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = text.find(&pat)? + pat.len();
    let rest = &text[start..];
    let end =
        rest.find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c))).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The bytes of a response body from its `"result":` member to the end —
/// the part the daemon caches and must repeat byte for byte.
pub fn result_part(body: &[u8]) -> Option<&[u8]> {
    const KEY: &[u8] = b"\"result\":";
    let at = body.windows(KEY.len()).position(|w| w == KEY)?;
    Some(&body[at + KEY.len()..])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readers_find_fields_without_parsing() {
        let text = r#"{"cache_hit":false,"plan_us":1234,"result":{"n":2}}"#;
        assert_eq!(number_after(text, "plan_us"), Some(1234.0));
        assert_eq!(number_after(text, "missing"), None);
        assert_eq!(result_part(text.as_bytes()), Some(br#"{"n":2}}"#.as_slice()));
    }

    #[test]
    fn generation_is_seeded() {
        assert_eq!(request_seed(7), request_seed(7));
        assert_ne!(request_seed(7), request_seed(8));
        assert!(request_seed(u64::MAX) < 1 << 53);
        let u = unit(1, 2, 3);
        assert!((0.0..1.0).contains(&u));
        assert_eq!(u, unit(1, 2, 3));
        let s = scenario_json(&Scenario::paper_fixed());
        assert!(body(&s, 5, 9, "").starts_with("{\"scenario\":{"));
        assert!(body(&s, 5, 9, ",\"refine\":\"inline\"")
            .ends_with(",\"index\":9,\"refine\":\"inline\"}"));
    }
}

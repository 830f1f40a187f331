//! Minimal hand-rolled JSON field extraction.
//!
//! This environment has no serialization crates, so every artifact in the
//! workspace writes one canonical JSON shape by hand and reads it back
//! with these scanners. They are **not** a general JSON parser: they find
//! a named field in one object's text and slice its value out, tolerating
//! unknown fields (forward compatibility) and absent ones (legacy
//! artifacts). Public so integration tests can round-trip other crates'
//! hand-rolled writers (e.g. `pl_serve::StatsSnapshot::to_json`) through
//! the same reader the bench artifact trusts.

/// Splits `body` into the interiors of its top-level `{...}` objects,
/// string-aware: braces inside quoted values (e.g. a mode named
/// `"router{2}"`) do not terminate an object.
pub fn split_objects(body: &str) -> Vec<&str> {
    let mut objects = Vec::new();
    let mut start = None;
    let mut in_string = false;
    let mut escaped = false;
    let mut depth = 0usize;
    for (i, c) in body.char_indices() {
        if in_string {
            match (escaped, c) {
                (true, _) => escaped = false,
                (false, '\\') => escaped = true,
                (false, '"') => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' => {
                if depth == 0 {
                    start = Some(i + 1);
                }
                depth += 1;
            }
            '}' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    if let Some(s) = start.take() {
                        objects.push(&body[s..i]);
                    }
                }
            }
            _ => {}
        }
    }
    objects
}

/// The string value of field `name` in `obj` (one object's interior
/// text), unescaped. `None` when absent or not a string.
pub fn field_str(obj: &str, name: &str) -> Option<String> {
    let tag = format!("\"{name}\"");
    let at = obj.find(&tag)? + tag.len();
    let rest = obj[at..].trim_start().strip_prefix(':')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    // Scan to the first *unescaped* quote, unescaping as we go.
    let mut out = String::new();
    let mut chars = rest.chars();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => out.push(chars.next()?),
            c => out.push(c),
        }
    }
}

/// The numeric value of field `name` in `obj`. `None` when absent or
/// unparseable.
pub fn field_num(obj: &str, name: &str) -> Option<f64> {
    let tag = format!("\"{name}\"");
    let at = obj.find(&tag)? + tag.len();
    let rest = obj[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The raw `[...]` text (brackets included) of array field `name` in
/// `obj`, bracket-balanced and string-aware — nested arrays like
/// `[[2,1],[3,1]]` come back whole. `None` when absent or not an array.
pub fn field_array<'a>(obj: &'a str, name: &str) -> Option<&'a str> {
    let tag = format!("\"{name}\"");
    let at = obj.find(&tag)? + tag.len();
    let rest = obj[at..].trim_start().strip_prefix(':')?.trim_start();
    if !rest.starts_with('[') {
        return None;
    }
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in rest.char_indices() {
        if in_string {
            match (escaped, c) {
                (true, _) => escaped = false,
                (false, '\\') => escaped = true,
                (false, '"') => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&rest[..=i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Every number in `text`, in order — the companion to [`field_array`]
/// for numeric arrays (nested structure is flattened; `[[2,1],[3,1]]`
/// yields `[2, 1, 3, 1]`).
pub fn numbers(text: &str) -> Vec<f64> {
    let mut out = Vec::new();
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_ascii_digit() || c == '-' {
            let start = i;
            i += 1;
            while i < bytes.len() {
                let c = bytes[i] as char;
                if c.is_ascii_digit() || c == '.' || c == 'e' || c == 'E' || c == '-' || c == '+' {
                    i += 1;
                } else {
                    break;
                }
            }
            if let Ok(v) = text[start..i].parse() {
                out.push(v);
            }
        } else {
            i += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_parse_and_tolerate_absence() {
        let obj = "\"mode\":\"fu\\\"sed\",\"batch\":8,\"steps_per_s\":123.5,\"neg\":-2e3";
        assert_eq!(field_str(obj, "mode").unwrap(), "fu\"sed");
        assert_eq!(field_num(obj, "batch"), Some(8.0));
        assert_eq!(field_num(obj, "steps_per_s"), Some(123.5));
        assert_eq!(field_num(obj, "neg"), Some(-2000.0));
        assert_eq!(field_str(obj, "missing"), None);
        assert_eq!(field_num(obj, "missing"), None);
        assert_eq!(field_num(obj, "mode"), None, "string is not a number");
    }

    #[test]
    fn arrays_slice_out_balanced_and_nested() {
        let obj = "\"buckets\":[0,3,1],\"dist\":[[2,1],[3,1]],\"modes\":[\"a]b\"],\"x\":1";
        assert_eq!(field_array(obj, "buckets"), Some("[0,3,1]"));
        assert_eq!(field_array(obj, "dist"), Some("[[2,1],[3,1]]"));
        assert_eq!(field_array(obj, "modes"), Some("[\"a]b\"]"), "brackets in strings ignored");
        assert_eq!(field_array(obj, "x"), None, "scalar is not an array");
        assert_eq!(numbers(field_array(obj, "dist").unwrap()), vec![2.0, 1.0, 3.0, 1.0]);
    }

    #[test]
    fn split_objects_handles_nesting_and_strings() {
        let body = "{\"a\":1},{\"mode\":\"router{2}\"},{\"nested\":{\"x\":2}}";
        let objs = split_objects(body);
        assert_eq!(objs.len(), 3);
        assert!(objs[1].contains("router{2}"));
        assert!(objs[2].contains("\"x\":2"), "nested object stays inside its parent");
    }

    /// `pl_serve::StatsSnapshot::to_json` is a hand-rolled writer and
    /// these scanners are the hand-rolled reader its consumers (the
    /// bench artifact, scrapers) rely on. Round-trip a snapshot with
    /// every field set to a distinctive value and assert nothing is
    /// lost or misattributed — in particular that prefix-sharing names
    /// (`batches`/`decode_batches`, `prefills`/`prefill_chunks`,
    /// `p50_us`/`queue_wait_p50_us`) never alias.
    #[test]
    fn stats_snapshot_json_roundtrips_through_these_scanners() {
        let mut s = pl_serve::StatsSnapshot::empty();
        s.elapsed_s = 1.5;
        s.submitted = 101;
        s.completed = 102;
        s.rejected_backpressure = 103;
        s.rejected_sessions = 104;
        s.batches = 105;
        s.decode_batches = 106;
        s.prefills = 107;
        s.prefill_chunks = 108;
        s.mixed_batches = 109;
        s.gemm_shapes = vec![((2, 64, 64), 7), ((4, 64, 64), 9)];
        s.tokens_per_s = 123.456;
        s.mean_batch = 3.25;
        s.max_batch_observed = 111;
        s.batch_distribution = vec![(2, 40), (4, 60)];
        s.latency_buckets[3] = 5;
        s.p50_us = 112;
        s.p99_us = 113;
        s.mean_us = 42.5;
        s.queue_wait_buckets[4] = 6;
        s.queue_wait_p50_us = 114;
        s.queue_wait_p99_us = 115;
        s.execute_buckets[5] = 7;
        s.execute_p50_us = 116;
        s.execute_p99_us = 117;
        s.chunk_latency_buckets[6] = 8;
        s.chunk_p50_us = 118;
        s.chunk_p99_us = 119;

        let text = s.to_json();
        let objs = split_objects(&text);
        assert_eq!(objs.len(), 1, "one flat top-level object");
        let obj = objs[0];

        assert_eq!(field_num(obj, "elapsed_s"), Some(1.5));
        // Every plain counter/scalar: (name, expected) table so a field
        // added to the writer without reader coverage fails loudly here
        // when this list is extended.
        let scalars: &[(&str, f64)] = &[
            ("submitted", 101.0),
            ("completed", 102.0),
            ("rejected_backpressure", 103.0),
            ("rejected_sessions", 104.0),
            ("batches", 105.0),
            ("decode_batches", 106.0),
            ("prefills", 107.0),
            ("prefill_chunks", 108.0),
            ("mixed_batches", 109.0),
            ("tokens_per_s", 123.456),
            ("mean_batch", 3.25),
            ("max_batch_observed", 111.0),
            ("p50_us", 112.0),
            ("p99_us", 113.0),
            ("mean_us", 42.5),
            ("queue_wait_p50_us", 114.0),
            ("queue_wait_p99_us", 115.0),
            ("execute_p50_us", 116.0),
            ("execute_p99_us", 117.0),
            ("chunk_p50_us", 118.0),
            ("chunk_p99_us", 119.0),
        ];
        for &(name, want) in scalars {
            assert_eq!(field_num(obj, name), Some(want), "field {name}");
        }

        // Histogram arrays: full bucket vectors survive, with counts in
        // the right slots (an off-by-one in bucket order would corrupt
        // merged quantiles downstream).
        let lat = numbers(field_array(obj, "latency_buckets").unwrap());
        assert_eq!(lat.len(), s.latency_buckets.len());
        assert_eq!(lat[3], 5.0);
        assert_eq!(lat.iter().sum::<f64>(), 5.0);
        let qw = numbers(field_array(obj, "queue_wait_buckets").unwrap());
        assert_eq!((qw.len(), qw[4]), (s.queue_wait_buckets.len(), 6.0));
        let ex = numbers(field_array(obj, "execute_buckets").unwrap());
        assert_eq!((ex.len(), ex[5]), (s.execute_buckets.len(), 7.0));
        let ch = numbers(field_array(obj, "chunk_latency_buckets").unwrap());
        assert_eq!((ch.len(), ch[6]), (s.chunk_latency_buckets.len(), 8.0));

        // Paired histograms: `[[key, count], ...]` and `[[m,n,k], count]`.
        let dist = numbers(field_array(obj, "batch_distribution").unwrap());
        assert_eq!(dist, vec![2.0, 40.0, 4.0, 60.0]);
        let shapes = numbers(field_array(obj, "gemm_shapes").unwrap());
        assert_eq!(shapes, vec![2.0, 64.0, 64.0, 7.0, 4.0, 64.0, 64.0, 9.0]);

        // Merged-then-rendered stays readable too (merge is the router's
        // aggregation path; its output feeds the same scrapers).
        let mut merged = pl_serve::StatsSnapshot::empty();
        merged.merge(&s);
        merged.merge(&s);
        let mtext = merged.to_json();
        let mobjs = split_objects(&mtext);
        assert_eq!(field_num(mobjs[0], "completed"), Some(204.0));
        let mlat = numbers(field_array(mobjs[0], "latency_buckets").unwrap());
        assert_eq!(mlat[3], 10.0, "merged buckets double");
    }
}

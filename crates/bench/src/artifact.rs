//! The machine-readable perf artifact: `BENCH_serve.json`.
//!
//! Bench harnesses and demos append their measured rows here so the perf
//! trajectory is tracked in-repo from PR to PR, keyed by
//! `{mode, batch, shards, fingerprint}`. Hand-rolled JSON both ways (this
//! environment has no serialization crates): the writer emits one
//! canonical shape and the reader parses exactly that shape, tolerating a
//! missing or foreign file by starting fresh. Field scanning lives in
//! [`crate::json`], shared with the other artifact readers.

use crate::json::{field_num, field_str, split_objects};
use std::fmt;
use std::path::{Path, PathBuf};

/// Resolves `file` against the workspace root — the nearest ancestor of
/// the current directory whose `Cargo.toml` declares `[workspace]`
/// (falling back to the nearest plain `Cargo.toml`, then to the current
/// directory). Cargo runs bench binaries from the package directory and
/// examples from the workspace root; anchoring here makes every harness
/// read and write the *same* artifact, and stopping at the first
/// workspace manifest keeps a stray `Cargo.toml` higher up (a scratch
/// project in `$HOME`, say) from silently redirecting the artifact
/// outside the repository.
pub fn workspace_path(file: &str) -> PathBuf {
    let start = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let mut fallback: Option<PathBuf> = None;
    let mut dir: &Path = &start;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.exists() {
            if fallback.is_none() {
                fallback = Some(dir.to_path_buf());
            }
            let is_workspace =
                std::fs::read_to_string(&manifest).is_ok_and(|text| text.contains("[workspace]"));
            if is_workspace {
                return dir.join(file);
            }
        }
        match dir.parent() {
            Some(parent) => dir = parent,
            None => break,
        }
    }
    fallback.unwrap_or(start).join(file)
}

/// One measured throughput row.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRow {
    /// What the row measured (`batched`, `router`, `mixed-chunked`, …).
    pub mode: String,
    /// The `max_batch` setting of the run.
    pub batch: usize,
    /// Serving shards (1 = a single `Server`).
    pub shards: usize,
    /// Measured decode throughput.
    pub steps_per_s: f64,
    /// Measured decode p99 queue-to-reply latency in µs (0 when the run
    /// did not measure latency — throughput-only rows).
    pub p99_us: f64,
    /// Host/topology fingerprint of the measuring machine, the same
    /// `os/arch/platform/threads` string `TUNE_db.json` entries carry
    /// (see `pl_retune::host_fingerprint`). Part of the row key: numbers
    /// from different hosts coexist instead of overwriting each other.
    /// Empty on rows written before the column existed.
    pub fingerprint: String,
}

impl BenchRow {
    fn key(&self) -> (String, usize, usize, String) {
        (self.mode.clone(), self.batch, self.shards, self.fingerprint.clone())
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"mode\":\"{}\",\"batch\":{},\"shards\":{},\"steps_per_s\":{:.3},\"p99_us\":{:.1},\"fingerprint\":\"{}\"}}",
            escape(&self.mode),
            self.batch,
            self.shards,
            self.steps_per_s,
            self.p99_us,
            escape(&self.fingerprint)
        )
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// One row's throughput movement between two artifacts, matched by the
/// full `{mode, batch, shards, fingerprint}` key. `Display` renders a
/// one-line delta suitable for a PR comment or CI log.
#[derive(Debug, Clone, PartialEq)]
pub struct RowDelta {
    /// Execution mode of the matched pair.
    pub mode: String,
    /// Shared `max_batch`.
    pub batch: usize,
    /// Shared shard count.
    pub shards: usize,
    /// Shared host fingerprint.
    pub fingerprint: String,
    /// Throughput in the baseline artifact.
    pub base_steps_per_s: f64,
    /// Throughput in the new artifact.
    pub new_steps_per_s: f64,
    /// `(new - base) / base * 100`; 0 when the baseline is 0.
    pub delta_pct: f64,
}

impl fmt::Display for RowDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {{batch={}, shards={}}}: {:.1} -> {:.1} steps/s ({:+.1}%)",
            self.mode,
            self.batch,
            self.shards,
            self.base_steps_per_s,
            self.new_steps_per_s,
            self.delta_pct
        )
    }
}

/// Diffs two artifacts row-by-row: one [`RowDelta`] per key present in
/// **both**, in `new`'s row order. Rows only one side has (a bench that
/// gained or lost a mode, a different host's fingerprint) are skipped —
/// there is no movement to report without both endpoints.
pub fn compare(base: &BenchArtifact, new: &BenchArtifact) -> Vec<RowDelta> {
    new.rows()
        .iter()
        .filter_map(|n| {
            let b = base.rows().iter().find(|b| b.key() == n.key())?;
            let delta_pct = if b.steps_per_s == 0.0 {
                0.0
            } else {
                (n.steps_per_s - b.steps_per_s) / b.steps_per_s * 100.0
            };
            Some(RowDelta {
                mode: n.mode.clone(),
                batch: n.batch,
                shards: n.shards,
                fingerprint: n.fingerprint.clone(),
                base_steps_per_s: b.steps_per_s,
                new_steps_per_s: n.steps_per_s,
                delta_pct,
            })
        })
        .collect()
}

/// The artifact: a keyed set of [`BenchRow`]s with JSON persistence.
#[derive(Debug, Default)]
pub struct BenchArtifact {
    rows: Vec<BenchRow>,
}

impl BenchArtifact {
    /// Empty artifact.
    pub fn new() -> Self {
        Self::default()
    }

    /// All rows, in insertion order.
    pub fn rows(&self) -> &[BenchRow] {
        &self.rows
    }

    /// Rows matching a shard count.
    pub fn rows_at_shards(&self, shards: usize) -> Vec<&BenchRow> {
        self.rows.iter().filter(|r| r.shards == shards).collect()
    }

    /// Inserts `row`, replacing any existing row with the same
    /// `{mode, batch, shards, fingerprint}` key — re-running a bench
    /// updates its rows in place instead of appending duplicates.
    pub fn upsert(&mut self, row: BenchRow) {
        match self.rows.iter_mut().find(|r| r.key() == row.key()) {
            Some(existing) => *existing = row,
            None => self.rows.push(row),
        }
    }

    /// Renders the canonical JSON document.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self.rows.iter().map(BenchRow::to_json).collect();
        format!(
            "{{\n  \"bench\": \"serve_throughput\",\n  \"rows\": [\n    {}\n  ]\n}}\n",
            rows.join(",\n    ")
        )
    }

    /// Parses a document produced by [`BenchArtifact::to_json`]. Returns
    /// `None` when the text lacks the document shape; a **row** that
    /// fails to parse is skipped rather than poisoning the document — a
    /// truncated tail (e.g. a previous writer died mid-save) must not
    /// wipe the rows that survived. Anything before the `rows` array is
    /// ignored.
    pub fn from_json(text: &str) -> Option<Self> {
        let rows_start = text.find("\"rows\"")?;
        let open = text[rows_start..].find('[')? + rows_start;
        // A truncated document may have lost the closing bracket; parse
        // to the end in that case (the incomplete trailing object is
        // dropped by `split_objects`).
        let close = text[open..].rfind(']').map_or(text.len(), |i| i + open);
        let body = &text[open + 1..close];
        let mut rows = Vec::new();
        for obj in split_objects(body) {
            let parsed = (|| {
                Some(BenchRow {
                    mode: field_str(obj, "mode")?,
                    batch: field_num(obj, "batch")? as usize,
                    shards: field_num(obj, "shards")? as usize,
                    steps_per_s: field_num(obj, "steps_per_s")?,
                    // Older artifacts predate the latency column.
                    p99_us: field_num(obj, "p99_us").unwrap_or(0.0),
                    // …and the host fingerprint column.
                    fingerprint: field_str(obj, "fingerprint").unwrap_or_default(),
                })
            })();
            if let Some(row) = parsed {
                rows.push(row);
            }
        }
        Some(BenchArtifact { rows })
    }

    /// Loads from `path`; a missing or unparseable file yields an empty
    /// artifact (the bench will simply rewrite it).
    pub fn load(path: &Path) -> Self {
        std::fs::read_to_string(path)
            .ok()
            .and_then(|text| Self::from_json(&text))
            .unwrap_or_default()
    }

    /// Writes the canonical JSON document to `path` atomically (temp
    /// file + rename in the same directory), so a writer killed mid-save
    /// can never leave a truncated artifact behind.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let tmp = path.with_extension("json.tmp");
        std::fs::write(&tmp, self.to_json())?;
        std::fs::rename(&tmp, path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(mode: &str, batch: usize, shards: usize, sps: f64) -> BenchRow {
        BenchRow {
            mode: mode.into(),
            batch,
            shards,
            steps_per_s: sps,
            p99_us: 0.0,
            fingerprint: String::new(),
        }
    }

    #[test]
    fn json_roundtrip_preserves_rows() {
        let mut a = BenchArtifact::new();
        a.upsert(row("batched", 8, 1, 9442.125));
        a.upsert(row("batched-i8", 8, 1, 12486.5));
        a.upsert(row("router", 8, 2, 17000.0));
        a.upsert(BenchRow {
            mode: "mixed-chunked".into(),
            batch: 8,
            shards: 1,
            steps_per_s: 5000.0,
            p99_us: 512.5,
            fingerprint: "linux/x86_64/generic/8t".into(),
        });
        let parsed = BenchArtifact::from_json(&a.to_json()).expect("own output parses");
        assert_eq!(parsed.rows().len(), 4);
        assert_eq!(parsed.rows()[0].mode, "batched");
        assert_eq!(parsed.rows()[2].shards, 2);
        assert!((parsed.rows()[0].steps_per_s - 9442.125).abs() < 1e-9);
        assert!((parsed.rows()[3].p99_us - 512.5).abs() < 1e-9, "latency column round-trips");
        assert_eq!(parsed.rows()[3].fingerprint, "linux/x86_64/generic/8t");
    }

    #[test]
    fn rows_without_latency_or_fingerprint_parse_with_defaults() {
        // Pre-latency-column, pre-fingerprint artifacts must still load.
        let legacy = "{\n  \"bench\": \"serve_throughput\",\n  \"rows\": [\n    \
                      {\"mode\":\"serial\",\"batch\":8,\"shards\":1,\"steps_per_s\":100.000}\n  ]\n}\n";
        let parsed = BenchArtifact::from_json(legacy).expect("legacy shape parses");
        assert_eq!(parsed.rows().len(), 1);
        assert_eq!(parsed.rows()[0].p99_us, 0.0);
        assert_eq!(parsed.rows()[0].fingerprint, "");
    }

    #[test]
    fn upsert_replaces_by_key() {
        let mut a = BenchArtifact::new();
        a.upsert(row("batched", 8, 1, 100.0));
        a.upsert(row("batched", 8, 2, 180.0));
        a.upsert(row("batched", 8, 1, 120.0)); // rerun updates in place
        assert_eq!(a.rows().len(), 2);
        assert!((a.rows()[0].steps_per_s - 120.0).abs() < 1e-9);
        assert_eq!(a.rows_at_shards(2).len(), 1);
        // A different host fingerprint is a different key: coexists.
        let mut other = row("batched", 8, 1, 90.0);
        other.fingerprint = "linux/x86_64/spr/16t".into();
        a.upsert(other);
        assert_eq!(a.rows().len(), 3, "same shape from another host keeps its own row");
    }

    #[test]
    fn truncated_tail_loses_only_the_broken_row() {
        let mut a = BenchArtifact::new();
        a.upsert(row("batched", 1, 1, 10.0));
        a.upsert(row("batched", 2, 1, 20.0));
        let full = a.to_json();
        // Simulate a writer killed mid-save: cut the document inside the
        // last row. The intact rows must survive the reload.
        let cut = full.rfind("\"batch\":2").unwrap();
        let truncated = &full[..cut + 3];
        let recovered = BenchArtifact::from_json(truncated).expect("document shape intact");
        assert_eq!(recovered.rows().len(), 1, "only the broken row is dropped");
        assert_eq!(recovered.rows()[0].batch, 1);
    }

    #[test]
    fn load_tolerates_missing_and_garbage() {
        let dir = std::env::temp_dir().join("pl_bench_artifact_test");
        std::fs::create_dir_all(&dir).unwrap();
        let missing = dir.join("nope.json");
        assert!(BenchArtifact::load(&missing).rows().is_empty());
        let garbage = dir.join("garbage.json");
        std::fs::write(&garbage, "not json at all").unwrap();
        assert!(BenchArtifact::load(&garbage).rows().is_empty());
        // Save → load roundtrip through a real file.
        let mut a = BenchArtifact::new();
        a.upsert(row("batched", 4, 1, 55.5));
        let path = dir.join("ok.json");
        a.save(&path).unwrap();
        let back = BenchArtifact::load(&path);
        assert_eq!(back.rows().len(), 1);
        assert_eq!(back.rows()[0].batch, 4);
    }

    #[test]
    fn compare_reports_deltas_for_shared_keys_only() {
        let mut base = BenchArtifact::new();
        base.upsert(row("batched", 8, 1, 100.0));
        base.upsert(row("batched-i8", 8, 1, 200.0));
        base.upsert(row("retired-mode", 8, 1, 1.0)); // gone in new
        let mut new = BenchArtifact::new();
        new.upsert(row("batched", 8, 1, 110.0));
        new.upsert(row("batched-i8", 8, 1, 150.0));
        new.upsert(row("brand-new", 8, 1, 5.0)); // absent in base
        let deltas = compare(&base, &new);
        assert_eq!(deltas.len(), 2, "unmatched rows on either side are skipped");
        assert!((deltas[0].delta_pct - 10.0).abs() < 1e-9);
        assert!((deltas[1].delta_pct - -25.0).abs() < 1e-9);
        let line = deltas[0].to_string();
        assert!(line.contains("+10.0%") && line.contains("batched"), "line: {line}");
        // Same key, different fingerprint: no match.
        let mut other_host = BenchArtifact::new();
        let mut r = row("batched", 8, 1, 110.0);
        r.fingerprint = "linux/x86_64/spr/16t".into();
        other_host.upsert(r);
        assert!(compare(&base, &other_host).is_empty());
    }

    #[test]
    fn mode_strings_are_escaped() {
        let mut a = BenchArtifact::new();
        a.upsert(row("we\"ird\\mode", 1, 1, 1.0));
        // Braces inside a quoted mode must not break object splitting —
        // a single bad row must never wipe the accumulated trajectory.
        a.upsert(row("router{2}", 2, 2, 2.0));
        let parsed = BenchArtifact::from_json(&a.to_json()).unwrap();
        assert_eq!(parsed.rows().len(), 2);
        assert_eq!(parsed.rows()[0].mode, "we\"ird\\mode");
        assert_eq!(parsed.rows()[1].mode, "router{2}");
        assert_eq!(parsed.rows()[1].shards, 2);
    }
}

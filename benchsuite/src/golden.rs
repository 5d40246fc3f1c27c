//! Golden correctness digests under `golden/`, one file per workload:
//! `<scale> <seed> <key> <value>` lines. They are written only by
//! `--bless`; every other run compares against them when its scale and
//! seed were blessed, and falls back to self-consistency otherwise.

use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;

/// The blessed digests of one workload.
#[derive(Debug, Default)]
pub struct Golden {
    path: PathBuf,
    entries: BTreeMap<(String, String), BTreeMap<String, String>>,
}

impl Golden {
    /// Loads `golden/<workload>.txt` (empty when missing).
    #[must_use]
    pub fn load(workload: &str) -> Self {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("golden")
            .join(format!("{workload}.txt"));
        let mut entries: BTreeMap<(String, String), BTreeMap<String, String>> = BTreeMap::new();
        if let Ok(text) = std::fs::read_to_string(&path) {
            for line in text
                .lines()
                .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
            {
                let parts: Vec<&str> = line.split_whitespace().collect();
                if let [scale, seed, key, value] = parts[..] {
                    entries
                        .entry((scale.to_string(), seed.to_string()))
                        .or_default()
                        .insert(key.to_string(), value.to_string());
                }
            }
        }
        Self { path, entries }
    }

    /// The blessed digests for one scale and seed, if any.
    #[must_use]
    pub fn get(&self, scale: &str, seed: &str) -> Option<&BTreeMap<String, String>> {
        self.entries.get(&(scale.to_string(), seed.to_string()))
    }

    /// Compares `actual` with the blessed digests for `scale`/`seed`:
    /// `None` when nothing was blessed, otherwise the mismatching keys
    /// (a key blessed but not produced is not a mismatch: time-bounded
    /// runs may stop early).
    #[must_use]
    pub fn mismatches(
        &self,
        scale: &str,
        seed: &str,
        actual: &BTreeMap<String, String>,
    ) -> Option<Vec<String>> {
        let blessed = self.get(scale, seed)?;
        Some(
            actual
                .iter()
                .filter(|(k, v)| blessed.get(*k).is_some_and(|b| b != *v))
                .map(|(k, v)| format!("{k}: got {v}, blessed {}", blessed[k]))
                .collect(),
        )
    }

    /// Replaces the digests of `scale`/`seed` and rewrites the file.
    ///
    /// # Errors
    ///
    /// Propagates file-system failures.
    pub fn bless(
        &mut self,
        scale: &str,
        seed: &str,
        actual: BTreeMap<String, String>,
    ) -> io::Result<()> {
        self.entries
            .insert((scale.to_string(), seed.to_string()), actual);
        let mut text = String::from(
            "# Golden digests: <scale> <seed> <key> <value>. Regenerate with --bless.\n",
        );
        for ((scale, seed), map) in &self.entries {
            for (k, v) in map {
                text.push_str(&format!("{scale} {seed} {k} {v}\n"));
            }
        }
        if let Some(dir) = self.path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(&self.path, text)
    }
}

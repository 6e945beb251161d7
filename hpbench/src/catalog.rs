//! The metric catalog is `BENCHMARK.json` at the repository root, compiled
//! in: its workload names and its end-to-end and per-layer metric lists,
//! with units, in the order printed.

use serde_json::Value;

fn benchmark_json() -> Value {
    serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

fn names(key: &str, field: &str) -> Vec<(String, String)> {
    benchmark_json()[key]
        .as_array()
        .expect("a list in BENCHMARK.json")
        .iter()
        .map(|m| {
            let text = |f: &str| m[f].as_str().unwrap_or_default().to_string();
            (text("name"), text(field))
        })
        .collect()
}

/// Workload names.
pub fn workloads() -> Vec<String> {
    names("workloads", "name")
        .into_iter()
        .map(|(n, _)| n)
        .collect()
}

/// End-to-end metrics `(name, unit)`, reported by every workload.
pub fn end_to_end() -> Vec<(String, String)> {
    names("end_to_end", "unit")
}

/// Per-layer metrics `(name, unit)`. A workload that does not exercise a
/// layer reports its metrics as 0.
pub fn per_layer() -> Vec<(String, String)> {
    names("per_layer", "unit")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_units_present() {
        let all: Vec<(String, String)> = end_to_end().into_iter().chain(per_layer()).collect();
        let mut names: Vec<&str> = all.iter().map(|(n, _)| n.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
        assert!(all.iter().all(|(n, u)| !n.is_empty() && !u.is_empty()));
        assert_eq!(workloads(), ["kernels", "train", "serve"]);
    }
}

//! Workspace discovery and the full-repo analysis driver.
//!
//! `ch-lint` walks every crate under `<root>/crates/` (the workspace
//! members; `vendor/` stand-ins are excluded from the workspace and from
//! linting), classifies each `.rs` file as library or test-target code,
//! and runs the rules.

use std::fs;
use std::path::{Path, PathBuf};

use crate::config::Config;
use crate::{analyze_files_with_deps, FileContext, FileKind, Finding};

/// Summary of one analysis run.
#[derive(Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
    pub crates_scanned: usize,
}

/// Walks upward from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

/// The keys of a crate's `[dependencies]` section (direct deps only —
/// call-graph reachability is transitive through each crate's own edges).
fn direct_dependencies(manifest: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut in_deps = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_deps = line == "[dependencies]";
            continue;
        }
        if in_deps && !line.is_empty() && !line.starts_with('#') {
            // `ch-sim.workspace = true` / `ch-sim = { path = … }`.
            let key: String = line
                .chars()
                .take_while(|c| !matches!(c, '.' | '=' | ' ' | '\t'))
                .collect();
            if !key.is_empty() {
                out.push(key);
            }
        }
    }
    out
}

/// The `name = "…"` of a crate's `[package]` section.
fn package_name(manifest: &str) -> Option<String> {
    let mut in_package = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(value) = rest.strip_prefix('=') {
                    return Some(value.trim().trim_matches('"').to_string());
                }
            }
        }
    }
    None
}

/// Recursively collects `.rs` files under `dir`, sorted for deterministic
/// diagnostics.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = fs::read_dir(dir) else {
        return out;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            out.extend(rust_files(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out
}

/// Analyzes every workspace crate under `root`, honouring `config`.
///
/// Two passes: first every file is collected (so the symbol index spans
/// the whole workspace), then [`crate::analyze_files`] lexes, indexes and runs
/// the rules. Config filtering (levels, `[scoped-allow]`) applies last.
pub fn analyze_workspace(root: &Path, config: &Config) -> Result<Report, String> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    crate_dirs.sort();

    let mut report = Report::default();
    let mut files: Vec<(FileContext, String)> = Vec::new();
    let mut deps: Vec<(String, Vec<String>)> = Vec::new();
    for crate_dir in crate_dirs {
        let manifest = fs::read_to_string(crate_dir.join("Cargo.toml"))
            .map_err(|e| format!("cannot read {}: {e}", crate_dir.display()))?;
        let Some(crate_name) = package_name(&manifest) else {
            continue; // not a package (e.g. a nested workspace stub)
        };
        deps.push((crate_name.clone(), direct_dependencies(&manifest)));
        report.crates_scanned += 1;
        for (subdir, kind) in [
            ("src", FileKind::Library),
            ("tests", FileKind::TestTarget),
            ("benches", FileKind::TestTarget),
            ("examples", FileKind::TestTarget),
        ] {
            for file in rust_files(&crate_dir.join(subdir)) {
                let source = fs::read_to_string(&file)
                    .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
                let rel = file
                    .strip_prefix(root)
                    .unwrap_or(&file)
                    .to_string_lossy()
                    .replace('\\', "/");
                report.files_scanned += 1;
                files.push((
                    FileContext {
                        crate_name: crate_name.clone(),
                        path: rel,
                        kind,
                    },
                    source,
                ));
            }
        }
    }
    report.findings = analyze_files_with_deps(&files, &deps, config)
        .into_iter()
        .filter(|f| config.is_denied(f.rule) && !config.is_path_allowed(f.rule, &f.path))
        .collect();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn package_name_parses_package_section_only() {
        let manifest = "\
[package]
name = \"ch-example\"

[dependencies]
name = \"not-this-one\"
";
        assert_eq!(package_name(manifest).as_deref(), Some("ch-example"));
        assert_eq!(package_name("[workspace]\n"), None);
    }

    #[test]
    fn finds_this_workspace_root() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("repo has a workspace root");
        assert!(root.join("crates").is_dir(), "{}", root.display());
    }
}

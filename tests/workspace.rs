//! The root manifest's `default-members` must list every workspace
//! member, so a plain `cargo test` at the root keeps covering the whole
//! workspace when a crate is added.

/// The quoted entries of the top-level array `key = [ ... ]`.
fn string_array(manifest: &str, key: &str) -> Vec<String> {
    let start = manifest
        .lines()
        .position(|l| l.trim_start().starts_with(&format!("{key} = [")))
        .unwrap_or_else(|| panic!("no `{key}` array in the root manifest"));
    let mut entries = Vec::new();
    for line in manifest.lines().skip(start + 1) {
        let line = line.trim();
        if line.starts_with(']') {
            return entries;
        }
        if let Some(entry) = line.strip_suffix(',').unwrap_or(line).strip_prefix('"') {
            entries.push(entry.trim_end_matches('"').to_string());
        }
    }
    panic!("unterminated `{key}` array in the root manifest");
}

#[test]
fn default_members_cover_every_member() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml");
    let manifest = std::fs::read_to_string(path).expect("read the root manifest");
    let mut members = string_array(&manifest, "members");
    let mut defaults = string_array(&manifest, "default-members");
    assert!(!members.is_empty());
    members.sort();
    defaults.sort();
    assert_eq!(
        members, defaults,
        "default-members must list exactly the workspace members"
    );
}

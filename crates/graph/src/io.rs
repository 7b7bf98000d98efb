//! OpenEA-style TSV I/O.
//!
//! The public EA benchmarks ship as plain TSV files:
//!
//! * `triples_1` / `triples_2` — one `subject\tpredicate\tobject` per line;
//! * `ent_links` — one `source_entity\ttarget_entity` per line.
//!
//! This module reads and writes that layout so a real DBP15K/SRPRS dump can
//! be dropped in as a replacement for the synthetic generators.

use crate::alignment::{AlignmentSet, Link};
use crate::error::GraphError;
use crate::graph::{KgBuilder, KnowledgeGraph};
use crate::pair::KgPair;
use crate::Result;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Reads a triples TSV file into a [`KgBuilder`].
pub fn read_triples(path: &Path, name: &str) -> Result<KgBuilder> {
    let file = std::fs::File::open(path)?;
    let reader = BufReader::new(file);
    let mut builder = KgBuilder::new(name);
    let file_label = path.display().to_string();
    let mut line_buf = String::new();
    let mut reader = reader;
    let mut line_no = 0usize;
    loop {
        line_buf.clear();
        if reader.read_line(&mut line_buf)? == 0 {
            break;
        }
        line_no += 1;
        let line = line_buf.trim_end_matches(['\n', '\r']);
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split('\t');
        match (parts.next(), parts.next(), parts.next(), parts.next()) {
            (Some(s), Some(p), Some(o), None) if !s.is_empty() && !o.is_empty() => {
                builder.add_triple(s, p, o);
            }
            _ => {
                return Err(GraphError::MalformedLine {
                    file: file_label,
                    line: line_no,
                    expected: "subject\\tpredicate\\tobject",
                })
            }
        }
    }
    Ok(builder)
}

/// Reads an `ent_links` TSV file, resolving names against the two KGs.
pub fn read_links(
    path: &Path,
    source: &KnowledgeGraph,
    target: &KnowledgeGraph,
) -> Result<AlignmentSet> {
    let file = std::fs::File::open(path)?;
    let reader = BufReader::new(file);
    let mut links = Vec::new();
    let file_label = path.display().to_string();
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim_end_matches('\r');
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split('\t');
        let (Some(u), Some(v)) = (parts.next(), parts.next()) else {
            return Err(GraphError::MalformedLine {
                file: file_label,
                line: i + 1,
                expected: "source\\ttarget",
            });
        };
        let su = source
            .entity_id(u)
            .ok_or_else(|| GraphError::UnknownLinkEndpoint(u.to_owned()))?;
        let tv = target
            .entity_id(v)
            .ok_or_else(|| GraphError::UnknownLinkEndpoint(v.to_owned()))?;
        links.push(Link::new(su, tv));
    }
    Ok(AlignmentSet::new(links))
}

/// Loads a full KG pair from a directory holding `triples_1`, `triples_2`
/// and `ent_links`. Optional `unmatchable_1` / `unmatchable_2` files (one
/// entity symbol per line) restore the unmatchable candidate lists of the
/// DBP15K+-style setting. The pair id is the directory's file name.
pub fn load_pair_dir(dir: &Path, seed: u64) -> Result<KgPair> {
    let source = read_triples(&dir.join("triples_1"), "KG1")?.build()?;
    let target = read_triples(&dir.join("triples_2"), "KG2")?.build()?;
    let gold = read_links(&dir.join("ent_links"), &source, &target)?;
    let id = dir
        .file_name()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "pair".to_owned());
    let mut pair = KgPair::new(id, source, target, gold, seed)?;
    pair.unmatchable_sources = read_entity_list(&dir.join("unmatchable_1"), &pair.source)?;
    pair.unmatchable_targets = read_entity_list(&dir.join("unmatchable_2"), &pair.target)?;
    Ok(pair)
}

/// Reads an optional one-symbol-per-line entity list; a missing file is an
/// empty list.
fn read_entity_list(path: &Path, kg: &KnowledgeGraph) -> Result<Vec<crate::ids::EntityId>> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e.into()),
    };
    let mut out = Vec::new();
    for line in text.lines() {
        let name = line.trim();
        if name.is_empty() {
            continue;
        }
        let id = kg
            .entity_id(name)
            .ok_or_else(|| GraphError::UnknownLinkEndpoint(name.to_owned()))?;
        out.push(id);
    }
    Ok(out)
}

/// Writes a KG's triples in the TSV layout.
pub fn write_triples(path: &Path, kg: &KnowledgeGraph) -> Result<()> {
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    for t in kg.triples() {
        let s = kg
            .entity_name(t.subject)
            .ok_or(GraphError::UnknownEntity(t.subject.0))?;
        let p = kg
            .relation_name(t.predicate)
            .ok_or(GraphError::UnknownRelation(t.predicate.0))?;
        let o = kg
            .entity_name(t.object)
            .ok_or(GraphError::UnknownEntity(t.object.0))?;
        writeln!(out, "{s}\t{p}\t{o}")?;
    }
    out.flush()?;
    Ok(())
}

/// Writes an alignment set in the `ent_links` layout.
pub fn write_links(
    path: &Path,
    links: &AlignmentSet,
    source: &KnowledgeGraph,
    target: &KnowledgeGraph,
) -> Result<()> {
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    for l in links.iter() {
        let u = source
            .entity_name(l.source)
            .ok_or(GraphError::UnknownEntity(l.source.0))?;
        let v = target
            .entity_name(l.target)
            .ok_or(GraphError::UnknownEntity(l.target.0))?;
        writeln!(out, "{u}\t{v}")?;
    }
    out.flush()?;
    Ok(())
}

/// Persists a pair as `triples_1` / `triples_2` / `ent_links` under `dir`,
/// plus `unmatchable_1` / `unmatchable_2` when the pair carries unmatchable
/// candidate lists.
pub fn save_pair_dir(dir: &Path, pair: &KgPair) -> Result<()> {
    std::fs::create_dir_all(dir)?;
    write_triples(&dir.join("triples_1"), &pair.source)?;
    write_triples(&dir.join("triples_2"), &pair.target)?;
    write_links(
        &dir.join("ent_links"),
        &pair.gold,
        &pair.source,
        &pair.target,
    )?;
    for (file, entities, kg) in [
        ("unmatchable_1", &pair.unmatchable_sources, &pair.source),
        ("unmatchable_2", &pair.unmatchable_targets, &pair.target),
    ] {
        let path = dir.join(file);
        if !entities.is_empty() {
            write_entity_list(&path, entities, kg)?;
        } else if let Err(e) = std::fs::remove_file(&path) {
            // An empty list is no file, so a list left by an earlier pair in
            // this directory must go or it would load as this pair's.
            if e.kind() != std::io::ErrorKind::NotFound {
                return Err(e.into());
            }
        }
    }
    Ok(())
}

fn write_entity_list(
    path: &Path,
    entities: &[crate::ids::EntityId],
    kg: &KnowledgeGraph,
) -> Result<()> {
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    for &e in entities {
        let name = kg.entity_name(e).ok_or(GraphError::UnknownEntity(e.0))?;
        writeln!(out, "{name}")?;
    }
    out.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "entmatcher-io-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn build_sample_pair() -> KgPair {
        let mut s = KgBuilder::new("KG1");
        s.add_triple("u0", "born_in", "u1");
        s.add_triple("u1", "part_of", "u2");
        let mut t = KgBuilder::new("KG2");
        t.add_triple("v0", "birthplace", "v1");
        t.add_triple("v1", "located_in", "v2");
        let source = s.build().unwrap();
        let target = t.build().unwrap();
        let gold = (0..3u32)
            .map(|i| {
                Link::new(
                    source.entity_id(&format!("u{i}")).unwrap(),
                    target.entity_id(&format!("v{i}")).unwrap(),
                )
            })
            .collect();
        KgPair::new("sample", source, target, gold, 5).unwrap()
    }

    #[test]
    fn save_and_load_roundtrip() {
        let dir = temp_dir("roundtrip");
        let pair = build_sample_pair();
        save_pair_dir(&dir, &pair).unwrap();
        let loaded = load_pair_dir(&dir, 5).unwrap();
        assert_eq!(loaded.source.num_triples(), 2);
        assert_eq!(loaded.target.num_triples(), 2);
        assert_eq!(loaded.gold.len(), 3);
        assert_eq!(loaded.source.entity_name(crate::EntityId(0)), Some("u0"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn malformed_triple_line_reports_location() {
        let dir = temp_dir("malformed");
        let path = dir.join("triples_1");
        std::fs::write(&path, "a\tr\tb\nbad line without tabs\n").unwrap();
        let err = read_triples(&path, "x").unwrap_err();
        match err {
            GraphError::MalformedLine { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_link_endpoint_is_rejected() {
        let dir = temp_dir("badlink");
        std::fs::write(dir.join("triples_1"), "a\tr\tb\n").unwrap();
        std::fs::write(dir.join("triples_2"), "x\tp\ty\n").unwrap();
        std::fs::write(dir.join("ent_links"), "a\tmissing\n").unwrap();
        let err = load_pair_dir(&dir, 0).unwrap_err();
        assert!(matches!(err, GraphError::UnknownLinkEndpoint(name) if name == "missing"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn blank_lines_are_skipped() {
        let dir = temp_dir("blank");
        let path = dir.join("triples_1");
        std::fs::write(&path, "a\tr\tb\n\n\nc\tr\td\n").unwrap();
        let builder = read_triples(&path, "x").unwrap();
        assert_eq!(builder.num_triples(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unmatchable_lists_roundtrip() {
        let dir = temp_dir("unmatchable");
        let mut pair = build_sample_pair();
        pair.unmatchable_sources = vec![pair.source.entity_id("u2").unwrap()];
        save_pair_dir(&dir, &pair).unwrap();
        assert!(dir.join("unmatchable_1").exists());
        assert!(
            !dir.join("unmatchable_2").exists(),
            "empty list writes no file"
        );
        let loaded = load_pair_dir(&dir, 5).unwrap();
        assert_eq!(loaded.unmatchable_sources.len(), 1);
        assert_eq!(
            loaded.source.entity_name(loaded.unmatchable_sources[0]),
            Some("u2")
        );
        assert!(loaded.unmatchable_targets.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn saving_a_pair_without_unmatchables_removes_stale_lists() {
        let dir = temp_dir("stale-unmatchable");
        let mut first = build_sample_pair();
        first.unmatchable_sources = vec![first.source.entity_id("u2").unwrap()];
        first.unmatchable_targets = vec![first.target.entity_id("v2").unwrap()];
        save_pair_dir(&dir, &first).unwrap();
        // A second pair without `v2`: the stale `unmatchable_2` would name
        // an entity its target KG lacks.
        let mut t = KgBuilder::new("KG2");
        t.add_triple("w0", "linked_to", "w1");
        let target = t.build().unwrap();
        let gold = AlignmentSet::new(vec![
            Link::new(crate::EntityId(0), target.entity_id("w0").unwrap()),
            Link::new(crate::EntityId(1), target.entity_id("w1").unwrap()),
        ]);
        let second = KgPair::new("second", first.source.clone(), target, gold, 5).unwrap();
        save_pair_dir(&dir, &second).unwrap();
        assert!(!dir.join("unmatchable_1").exists());
        assert!(!dir.join("unmatchable_2").exists());
        let loaded = load_pair_dir(&dir, 5).unwrap();
        assert!(loaded.unmatchable_sources.is_empty());
        assert!(loaded.unmatchable_targets.is_empty());
        assert_eq!(loaded.target.entity_name(crate::EntityId(0)), Some("w0"));
        assert_eq!(loaded.gold.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_unmatchable_symbol_is_rejected() {
        let dir = temp_dir("badunmatch");
        std::fs::write(dir.join("triples_1"), "a\tr\tb\n").unwrap();
        std::fs::write(dir.join("triples_2"), "x\tp\ty\n").unwrap();
        std::fs::write(dir.join("ent_links"), "a\tx\n").unwrap();
        std::fs::write(dir.join("unmatchable_1"), "ghost\n").unwrap();
        assert!(load_pair_dir(&dir, 0).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn extra_fields_are_malformed() {
        let dir = temp_dir("extra");
        let path = dir.join("triples_1");
        std::fs::write(&path, "a\tr\tb\textra\n").unwrap();
        assert!(read_triples(&path, "x").is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

//! Durable stores over a generated corpus, and the documents the
//! write workloads insert.

use crate::BenchResult;
use std::path::Path;
use toss_datagen::Corpus;
use toss_tree::serialize::{tree_to_xml, Style};
use toss_xmldb::{apply_op, Database, DatabaseConfig, DurableDatabase, DurableWriter, JournalOp};

/// Documents per group-commit batch while loading a store.
const LOAD_BATCH: usize = 1024;

/// Booktitle every inserted document carries. It is no ontology term,
/// so inserted documents never match a `similar` read, and a single
/// equality query finds all of them.
pub const INBOX: &str = "perfbench inbox";

/// Create a store at `snapshot` holding both renderings of `corpus`
/// (`dblp` and `sigmod`), loaded through the journal in batches and
/// then checkpointed. Returns the live database and its writer.
pub fn build(snapshot: &Path, corpus: &Corpus) -> BenchResult<(Database, DurableWriter)> {
    let e = |e: toss_xmldb::DbError| format!("store {}: {e}", snapshot.display());
    let mut durable = DurableDatabase::open(snapshot, DatabaseConfig::unlimited()).map_err(e)?;
    durable.create_collection("dblp").map_err(e)?;
    durable.create_collection("sigmod").map_err(e)?;
    let (mut db, mut writer) = durable.into_parts();
    for (collection, forest) in [("dblp", &corpus.dblp), ("sigmod", &corpus.sigmod)] {
        let trees: Vec<_> = forest.iter().collect();
        for chunk in trees.chunks(LOAD_BATCH) {
            let ops: Vec<JournalOp> = chunk
                .iter()
                .map(|t| JournalOp::Insert {
                    collection: collection.into(),
                    xml: tree_to_xml(t, Style::Compact),
                })
                .collect();
            writer.append_batch(&ops).map_err(e)?;
            for op in &ops {
                apply_op(&mut db, op).map_err(e)?;
            }
        }
    }
    writer.checkpoint(&db).map_err(e)?;
    Ok((db, writer))
}

/// The `n`-th document a write workload inserts: a DBLP-shaped paper
/// with a title unique to this seed and `n`.
pub fn insert_doc(seed: u64, n: usize, author: &str) -> String {
    format!(
        "<inproceedings key=\"perfbench/{seed}/{n}\"><author>{author}</author>\
         <title>perfbench insert {seed} {n}</title><year>2004</year>\
         <booktitle>{INBOX}</booktitle></inproceedings>"
    )
}

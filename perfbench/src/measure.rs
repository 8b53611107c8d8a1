//! `measure-texture60`: the `measure --backend file` pipeline on the
//! TEXTURE60 analog with per-batch durability. Each op builds the index
//! into a `FileStore` and probes it, publishes the tree as a snapshot
//! generation, scrubs it, and loads it back.

use crate::bench::Bench;
use crate::inputs::{self, K, M, PAGE_BYTES};
use hdidx_datagen::registry::NamedDataset;
use hdidx_diskio::external::{build_on_disk_in, ExternalConfig};
use hdidx_diskio::{measure_on_disk, DiskModel, DiskOptions, IoStats};
use hdidx_faults::FaultPhase;
use hdidx_store::{Durability, FileStore, ScrubReport, SnapshotSet};
use hdidx_vamsplit::query::knn;
use std::path::Path;

/// The outputs every op must reproduce.
#[derive(Debug, PartialEq)]
struct Answer {
    build_io: IoStats,
    query_io: IoStats,
    per_query: Vec<u64>,
    wal_bytes: u64,
    publish_io: IoStats,
    scrub: ScrubReport,
    load_io: IoStats,
    reloaded_identical: bool,
}

fn clear(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("{}: {e}", dir.display()))
        }
        _ => Ok(()),
    }
}

/// Total bytes of the files directly under `dir`.
fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| e.to_string())?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

pub fn run(b: &mut Bench) -> Result<(), String> {
    let named = NamedDataset::Texture60;
    let csv = inputs::csv(named, &b.seeds, &b.work.join("cache"))?;
    let p = b.setup(&csv, |_, _| Ok(()))?;
    let centers = p.centers();
    let cfg = ExternalConfig::with_mem_points(M).map_err(|e| e.to_string())?;
    let disk = DiskModel::paper_with_page_bytes(PAGE_BYTES);
    let durability = Durability::PerBatch;
    let root = b.work.join("store");
    let scratch = root.join("scratch");
    let index = root.join("index");
    // The simulated backend's measurement, which the file backend must
    // match charge for charge.
    let sim = measure_on_disk(&p.data, &p.topo, &centers, K, &cfg).map_err(|e| e.to_string())?;

    // A fresh store per op, so every op does the same work.
    let fresh = root.clone();
    b.before_op = Some(Box::new(move || clear(&fresh)));
    let (_, answer) = b.ops("measure", &mut |t| {
        let (built, wal_bytes) = t
            .span("diskio.build", |_| {
                let mut fs = FileStore::open(
                    &scratch,
                    durability,
                    &DiskOptions::new().phase(FaultPhase::Build),
                )?;
                let built = build_on_disk_in(&mut fs, &p.data, &p.topo, &cfg)?;
                Ok::<_, hdidx_core::Error>((built, fs.wal_len()))
            })
            .map_err(|e| e.to_string())?;
        let (per_query, query_io) = t
            .span("diskio.probe", |_| {
                let mut per_query = Vec::with_capacity(centers.len());
                let mut io = IoStats::default();
                for c in &centers {
                    let res = knn(&built.tree, &p.data, c, K)?;
                    per_query.push(res.stats.leaf_accesses);
                    io += IoStats::random(res.stats.total());
                }
                Ok::<_, hdidx_core::Error>((per_query, io))
            })
            .map_err(|e| e.to_string())?;
        let set = SnapshotSet::open(&index, durability).map_err(|e| e.to_string())?;
        let (_, publish_io) = t
            .span("store.publish", |_| {
                set.publish(&built.tree, &DiskOptions::new())
            })
            .map_err(|e| e.to_string())?;
        let scrub = t
            .span("store.scrub", |_| set.scrub(&DiskOptions::new()))
            .map_err(|e| e.to_string())?;
        let (loaded, _, load_io) = t
            .span("store.load", |_| set.load(&DiskOptions::new()))
            .map_err(|e| e.to_string())?;
        Ok(Answer {
            build_io: built.io,
            query_io,
            per_query,
            wal_bytes,
            publish_io,
            scrub,
            load_io,
            reloaded_identical: loaded == built.tree && loaded == sim.tree,
        })
    })?;
    b.before_op = None;
    b.attempted += 1;
    b.check(
        "file backend vs sim backend (build io, query io, leaf accesses)",
        &(sim.build_io, sim.query_io, &sim.per_query_leaf_accesses),
        &(answer.build_io, answer.query_io, &answer.per_query),
    );
    b.check(
        "reloaded tree verifies identical",
        &true,
        &answer.reloaded_identical,
    );
    let generation = index.join(format!("gen-{:08}", 1));
    let snapshot_bytes = dir_bytes(&generation)?;
    clear(&root)?;

    let io = answer.build_io + answer.query_io;
    b.charged(io, &disk);
    b.layer_metrics(&csv);
    let r = &mut b.report;
    r.line(&format!(
        "dataset {} {} x {}, csv_bytes {}, m {M}, page_bytes {PAGE_BYTES}, {} density-biased \
         {K}-NN queries, durability {durability}",
        named.name(),
        p.data.len(),
        p.data.dim(),
        csv.bytes,
        centers.len()
    ));
    r.metric(
        "measure_io_s",
        disk.cost_seconds(io),
        "s",
        &format!("charged build + query, {io}"),
    );
    for (name, value) in [
        ("diskio.build_seeks", answer.build_io.seeks),
        ("diskio.build_transfers", answer.build_io.transfers),
        ("diskio.pages_written", answer.build_io.writes),
        ("diskio.query_accesses", answer.per_query.iter().sum()),
        ("store.scrub_pages", answer.scrub.pages_scanned),
        ("store.wal_bytes", answer.wal_bytes),
        ("store.snapshot_bytes", snapshot_bytes),
    ] {
        r.metric(name, value as f64, "count", "from the op's return values");
    }
    Ok(())
}

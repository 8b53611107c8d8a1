//! Inputs derived from the seed: the dataset (written once per seed as a
//! CSV, outside every timer) and the timed set-up that ingests it.

use crate::trace::Tracer;
use hdidx_core::Dataset;
use hdidx_datagen::registry::{DatasetSpec, NamedDataset};
use hdidx_datagen::Workload;
use hdidx_model::QueryBall;
use hdidx_pool::derive_seed;
use hdidx_vamsplit::topology::{PageConfig, Topology};
use std::path::{Path, PathBuf};

/// Page size of every workload's index: 8 KiB, as in the paper.
pub const PAGE_BYTES: usize = 8_192;
/// Working memory of the predictors and the external build (points).
pub const M: usize = 10_000;
/// Neighbours per query.
pub const K: usize = 21;
/// Density-biased queries per workload.
pub const QUERIES: usize = 500;

/// Every input seed, derived from the one `--seed` argument.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    pub base: u64,
    /// Dataset generator.
    pub data: u64,
    /// Query workload and the predictors' sample draws.
    pub query: u64,
    /// Serve request stream.
    pub stream: u64,
    /// Serve fault plan.
    pub fault: u64,
}

impl Seeds {
    pub fn new(base: u64) -> Seeds {
        Seeds {
            base,
            data: derive_seed(base, 1),
            query: derive_seed(base, 2),
            stream: derive_seed(base, 3),
            fault: derive_seed(base, 4),
        }
    }
}

/// A dataset on disk, as the CLI would ingest it.
pub struct Csv {
    pub path: PathBuf,
    pub bytes: u64,
}

/// The full-scale analog of `named` with its generator reseeded.
fn spec(named: NamedDataset, seed: u64) -> Result<DatasetSpec, String> {
    match named.spec() {
        DatasetSpec::Clustered(mut s) => {
            s.seed = seed;
            Ok(DatasetSpec::Clustered(s))
        }
        _ => Err(format!("{} is not a clustered analog", named.name())),
    }
}

/// The datasets the workloads read, by the name `--write-csv` takes.
pub fn dataset(name: &str) -> Result<NamedDataset, String> {
    match name {
        "color64" => Ok(NamedDataset::Color64),
        "texture60" => Ok(NamedDataset::Texture60),
        _ => Err(format!("no dataset {name}")),
    }
}

fn cache_path(named: NamedDataset, seeds: &Seeds, cache: &Path) -> PathBuf {
    let stem = named.name().to_ascii_lowercase();
    cache.join(format!("{stem}-{}.csv", seeds.base))
}

/// Writes the seeded dataset to its cache path, replacing the files of
/// other seeds of the same dataset so the cache holds one per dataset.
pub fn write_csv(named: NamedDataset, seeds: &Seeds, cache: &Path) -> Result<(), String> {
    let stem = named.name().to_ascii_lowercase();
    std::fs::create_dir_all(cache).map_err(|e| format!("{}: {e}", cache.display()))?;
    for entry in std::fs::read_dir(cache).map_err(|e| e.to_string())? {
        let p = entry.map_err(|e| e.to_string())?.path();
        let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with(&format!("{stem}-")) {
            std::fs::remove_file(&p).map_err(|e| format!("{}: {e}", p.display()))?;
        }
    }
    let data = spec(named, seeds.data)?
        .generate()
        .map_err(|e| e.to_string())?;
    let path = cache_path(named, seeds, cache);
    let tmp = path.with_extension("tmp");
    hdidx_cli::csvio::write_csv(&tmp, &data).map_err(|e| e.to_string())?;
    std::fs::rename(&tmp, &path).map_err(|e| e.to_string())
}

/// The seeded dataset's CSV, written first if the cache lacks it. The
/// writing runs in a child process, so generating the points leaves this
/// process's peak resident set alone.
pub fn csv(named: NamedDataset, seeds: &Seeds, cache: &Path) -> Result<Csv, String> {
    let path = cache_path(named, seeds, cache);
    if !path.exists() {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let status = std::process::Command::new(exe)
            .arg("--write-csv")
            .arg(named.name().to_ascii_lowercase())
            .arg("--seed")
            .arg(seeds.base.to_string())
            .status()
            .map_err(|e| format!("cannot start the CSV writer: {e}"))?;
        if !status.success() || !path.exists() {
            return Err(format!("writing {} failed ({status})", path.display()));
        }
    }
    let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    Ok(Csv { path, bytes })
}

/// What every workload's set-up produces.
pub struct Prepared {
    pub data: Dataset,
    pub topo: Topology,
    pub balls: Vec<QueryBall>,
}

impl Prepared {
    pub fn centers(&self) -> Vec<Vec<f32>> {
        self.balls.iter().map(|b| b.center.clone()).collect()
    }
}

/// The timed part of set-up: ingest the CSV, size the index, generate
/// the density-biased query workload (exact k-NN radii).
pub fn prepare(t: &mut Tracer, csv: &Csv, seeds: &Seeds) -> Result<Prepared, String> {
    let data = t
        .span("cli.read_csv", |_| hdidx_cli::csvio::read_csv(&csv.path))
        .map_err(|e| e.to_string())?;
    let topo = Topology::new(
        data.dim(),
        data.len(),
        &PageConfig::with_page_bytes(PAGE_BYTES),
    )
    .map_err(|e| e.to_string())?;
    let workload = t
        .span("datagen.workload", |_| {
            Workload::density_biased(&data, QUERIES, K, seeds.query)
        })
        .map_err(|e| e.to_string())?;
    let balls = workload
        .queries
        .iter()
        .map(|q| QueryBall::new(q.center.clone(), q.radius))
        .collect();
    Ok(Prepared { data, topo, balls })
}

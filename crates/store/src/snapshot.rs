//! Index persistence: serializing a bulk-loaded [`RTree`] into a page
//! store and loading it back.
//!
//! ## Index-deferred layout
//!
//! The snapshot is written the way an external bulk loader would want to:
//!
//! 1. the **leaf-entry arena** (point ids in leaf order) goes first,
//!    written sequentially from page 1 — the big, cheap, append-only part,
//! 2. the **directory** (the serialized node arena) is back-filled after
//!    the entries,
//! 3. the **superblock** (page 0) is written **last** and then
//!    [`PageStore::sync`]ed — it is the commit point: a reopen that finds
//!    no valid superblock finds no index.
//!
//! ## Superblock (page 0, little-endian u64 words)
//!
//! | word | field |
//! |-----:|-------|
//! | 0    | `SNAP_MAGIC` |
//! | 1    | format version (1) |
//! | 2    | dimensionality |
//! | 3    | root level |
//! | 4    | leaf level |
//! | 5    | number of nodes |
//! | 6    | number of entries |
//! | 7    | entry pages |
//! | 8    | node pages |
//! | 9    | entry bytes |
//! | 10   | node bytes |
//!
//! ## Node record
//!
//! `level: u32 | lo: dim × f32 | hi: dim × f32 | tag: u8 |` then for a
//! leaf `start: u32, end: u32` (entry-arena range) or for an inner node
//! `count: u32, children: count × u32` (arena indices).
//!
//! Loading requires a byte-carrying backend (the file store); on the
//! simulated backend reads return no bytes and the superblock check
//! fails, by design.
//!
//! ## Versioned generations ([`SnapshotSet`])
//!
//! A single store directory can only ever hold one index, and
//! re-persisting means clobbering the previous one — a crash mid-write
//! loses both. [`SnapshotSet`] lifts persistence to *generations*: each
//! [`SnapshotSet::publish`] writes a complete new store under
//! `gen-<N>/` **beside** the old one and then commits by swapping the
//! `CURRENT` superblock file. The swap is the sole commit point:
//!
//! 1. the new generation is written and checkpointed in its own
//!    directory (the old generation is never touched),
//! 2. the inactive slot of the two-slot `CURRENT` file is overwritten
//!    with the new generation number, fsynced, and the *root directory*
//!    is fsynced — LMDB-style ping-pong, so a torn `CURRENT` write can
//!    only corrupt the slot that was not current,
//! 3. only once the swap is durable are superseded generations GC'd.
//!
//! A crash at any operation therefore leaves either the old or the new
//! generation fully loadable.

use crate::inject::{OsFs, Vfs};
use crate::pagefile::PAYLOAD_BYTES;
use crate::scrub::{scrub_store_in, ScrubReport};
use crate::{fnv1a, Durability, FileStore, FNV_OFFSET};
use hdidx_core::{Error, HyperRect, Result};
use hdidx_diskio::{DiskOptions, FileHandle, IoStats, PageStore};
use hdidx_vamsplit::tree::{Node, NodeKind, RTree};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const SNAP_MAGIC: u64 = 0x4844_4958_534E_4150; // "HDIXSNAP"
const VERSION: u64 = 1;
const SUPERBLOCK_WORDS: usize = 11;

fn pages_for(bytes: usize) -> u64 {
    (bytes.div_ceil(PAYLOAD_BYTES) as u64).max(1)
}

/// Pads `bytes` with zeros to exactly `pages * PAYLOAD_BYTES`.
fn padded(mut bytes: Vec<u8>, pages: u64) -> Vec<u8> {
    bytes.resize(pages as usize * PAYLOAD_BYTES, 0);
    bytes
}

fn encode_nodes(tree: &RTree) -> Vec<u8> {
    let mut out = Vec::new();
    for node in tree.nodes() {
        out.extend_from_slice(&node.level.to_le_bytes());
        for &v in node.rect.lo() {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for &v in node.rect.hi() {
            out.extend_from_slice(&v.to_le_bytes());
        }
        match &node.kind {
            NodeKind::Leaf { entries } => {
                out.push(0);
                out.extend_from_slice(&entries.start.to_le_bytes());
                out.extend_from_slice(&entries.end.to_le_bytes());
            }
            NodeKind::Inner { children } => {
                out.push(1);
                out.extend_from_slice(&(children.len() as u32).to_le_bytes());
                for &c in children {
                    out.extend_from_slice(&c.to_le_bytes());
                }
            }
        }
    }
    out
}

/// Sequential byte reader over the deserialized snapshot regions.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let s = self
            .bytes
            .get(self.at..self.at + n)
            .ok_or_else(|| Error::StoreFailure {
                op: "snapshot decode",
                detail: format!("truncated at byte {} of {}", self.at, self.bytes.len()),
            })?;
        self.at += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn f32(&mut self) -> Result<f32> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Bytes not yet decoded — the bound on any capacity a decoded count
    /// asks for.
    fn left(&self) -> usize {
        self.bytes.len() - self.at
    }
}

/// Decodes `num_nodes` node records. Every capacity is bounded by the
/// bytes left, so hostile counts fail as truncation instead of
/// allocating.
fn decode_nodes(bytes: &[u8], dim: usize, num_nodes: usize) -> Result<Vec<Node>> {
    let mut cur = Cursor { bytes, at: 0 };
    // level, lo, hi, tag and at least one u32 of payload.
    let min_record = dim.saturating_mul(8).saturating_add(9);
    let mut nodes = Vec::with_capacity(num_nodes.min(cur.left() / min_record));
    for _ in 0..num_nodes {
        let level = cur.u32()?;
        let mut lo = Vec::with_capacity(dim.min(cur.left() / 4));
        let mut hi = Vec::with_capacity(dim.min(cur.left() / 4));
        for _ in 0..dim {
            lo.push(cur.f32()?);
        }
        for _ in 0..dim {
            hi.push(cur.f32()?);
        }
        let rect = HyperRect::new(lo, hi).map_err(|e| Error::StoreFailure {
            op: "snapshot decode",
            detail: format!("node {}: {e}", nodes.len()),
        })?;
        let kind = match cur.u8()? {
            0 => NodeKind::Leaf {
                entries: cur.u32()?..cur.u32()?,
            },
            1 => {
                let count = cur.u32()? as usize;
                let mut children = Vec::with_capacity(count.min(cur.left() / 4));
                for _ in 0..count {
                    children.push(cur.u32()?);
                }
                NodeKind::Inner { children }
            }
            tag => {
                return Err(Error::StoreFailure {
                    op: "snapshot decode",
                    detail: format!("unknown node tag {tag}"),
                })
            }
        };
        nodes.push(Node { level, rect, kind });
    }
    Ok(nodes)
}

/// Writes `tree` into an **empty** `store` using the index-deferred
/// layout (entries first, directory back-filled, superblock last) and
/// syncs it. Returns the handle of the snapshot region (always pages
/// `0..total`).
///
/// # Errors
///
/// Rejects a non-empty store (the snapshot owns page 0); propagates
/// backend errors.
pub fn persist_index(store: &mut dyn PageStore, tree: &RTree) -> Result<FileHandle> {
    if store.pages() != 0 {
        return Err(Error::invalid(
            "store",
            format!(
                "persist_index needs an empty store; {} pages already allocated",
                store.pages()
            ),
        ));
    }
    let entry_bytes: Vec<u8> = tree
        .entries()
        .iter()
        .flat_map(|e| e.to_le_bytes())
        .collect();
    let node_bytes = encode_nodes(tree);
    let entry_pages = pages_for(entry_bytes.len());
    let node_pages = pages_for(node_bytes.len());
    let total = 1 + entry_pages + node_pages;
    let f = store.alloc(total)?;

    let mut sb = Vec::with_capacity(SUPERBLOCK_WORDS * 8);
    for w in [
        SNAP_MAGIC,
        VERSION,
        tree.dim() as u64,
        tree.root_level() as u64,
        tree.leaf_level() as u64,
        tree.nodes().len() as u64,
        tree.num_entries() as u64,
        entry_pages,
        node_pages,
        entry_bytes.len() as u64,
        node_bytes.len() as u64,
    ] {
        sb.extend_from_slice(&w.to_le_bytes());
    }

    // Entries first, sequential from page 1; directory back-filled;
    // superblock last as the commit point.
    store.write_pages(&f, 1, entry_pages, &padded(entry_bytes, entry_pages))?;
    store.write_pages(
        &f,
        1 + entry_pages,
        node_pages,
        &padded(node_bytes, node_pages),
    )?;
    store.write_pages(&f, 0, 1, &padded(sb, 1))?;
    store.sync()?;
    Ok(f)
}

/// Loads the index persisted by [`persist_index`] from `store`, checking
/// the structural invariants. Returns the tree and the snapshot region's
/// handle.
///
/// # Errors
///
/// A missing or malformed superblock, decode failures, or a tree that
/// fails [`RTree::check_invariants`].
pub fn load_index(store: &mut dyn PageStore) -> Result<(RTree, FileHandle)> {
    let sb_handle = FileHandle::from_raw(0, 1);
    let mut sb = vec![0u8; PAYLOAD_BYTES];
    store.read_pages(&sb_handle, 0, 1, &mut sb)?;
    let word = |i: usize| u64::from_le_bytes(sb[i * 8..i * 8 + 8].try_into().unwrap());
    let bad = |detail: String| Error::StoreFailure {
        op: "snapshot superblock",
        detail,
    };
    if word(0) != SNAP_MAGIC {
        return Err(bad(format!(
            "bad magic {:#018x} (no index persisted?)",
            word(0)
        )));
    }
    if word(1) != VERSION {
        return Err(bad(format!("unsupported version {}", word(1))));
    }
    let dim = word(2) as usize;
    let root_level = word(3) as usize;
    let leaf_level = word(4) as usize;
    let num_nodes = word(5) as usize;
    let num_entries = word(6) as usize;
    let entry_pages = word(7);
    let node_pages = word(8);
    let entry_len = word(9) as usize;
    let node_len = word(10) as usize;
    // Every size is checked against the store before anything is
    // allocated from it.
    let total = entry_pages
        .checked_add(node_pages)
        .and_then(|p| p.checked_add(1))
        .filter(|&t| t <= store.pages())
        .ok_or_else(|| {
            bad(format!(
                "{entry_pages} entry + {node_pages} node pages exceed the store's {}",
                store.pages()
            ))
        })?;
    let region_bytes = |pages: u64| {
        usize::try_from(pages)
            .ok()
            .and_then(|p| p.checked_mul(PAYLOAD_BYTES))
            .ok_or_else(|| bad(format!("{pages} pages overflow a byte count")))
    };
    let (entry_bytes, node_bytes) = (region_bytes(entry_pages)?, region_bytes(node_pages)?);
    if num_entries.checked_mul(4) != Some(entry_len) || entry_len > entry_bytes {
        return Err(bad(format!(
            "entry arena: {num_entries} entries in {entry_len} bytes"
        )));
    }
    if node_len > node_bytes {
        return Err(bad(format!(
            "node arena: {node_len} bytes in {node_pages} pages"
        )));
    }
    if dim == 0 || dim > node_len / 8 {
        return Err(bad(format!(
            "dimensionality {dim} for a {node_len}-byte node arena"
        )));
    }
    let f = FileHandle::from_raw(0, total);

    let mut buf = vec![0u8; entry_bytes];
    store.read_pages(&f, 1, entry_pages, &mut buf)?;
    let entries: Vec<u32> = buf[..entry_len]
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
        .collect();

    let mut buf = vec![0u8; node_bytes];
    store.read_pages(&f, 1 + entry_pages, node_pages, &mut buf)?;
    let nodes = decode_nodes(&buf[..node_len], dim, num_nodes)?;

    let tree = RTree::from_arenas(dim, root_level, leaf_level, nodes, entries)?;
    tree.check_invariants()?;
    Ok((tree, f))
}

const CUR_MAGIC: u64 = 0x4844_4958_4355_5252; // "HDIXCURR"
/// Bytes per `CURRENT` slot: magic, version, commit sequence,
/// generation, checksum.
const SLOT_BYTES: usize = 40;

/// Encodes one `CURRENT` slot: the `seq`-th commit, pointing at
/// `generation`. The sequence (not the generation) decides which slot
/// is newest, so a commit can *demote* to an older generation — which
/// is what a scrub fallback does.
fn encode_slot(seq: u64, generation: u64) -> [u8; SLOT_BYTES] {
    let mut slot = [0u8; SLOT_BYTES];
    slot[0..8].copy_from_slice(&CUR_MAGIC.to_le_bytes());
    slot[8..16].copy_from_slice(&VERSION.to_le_bytes());
    slot[16..24].copy_from_slice(&seq.to_le_bytes());
    slot[24..32].copy_from_slice(&generation.to_le_bytes());
    let sum = fnv1a(FNV_OFFSET, &slot[0..32]);
    slot[32..40].copy_from_slice(&sum.to_le_bytes());
    slot
}

/// Decodes one `CURRENT` slot into `(seq, generation)`, `None` if
/// torn/blank/checksum-bad.
fn decode_slot(slot: &[u8]) -> Option<(u64, u64)> {
    if slot.len() < SLOT_BYTES {
        return None;
    }
    let word = |i: usize| u64::from_le_bytes(slot[i * 8..i * 8 + 8].try_into().unwrap());
    if word(0) != CUR_MAGIC || word(1) != VERSION {
        return None;
    }
    if fnv1a(FNV_OFFSET, &slot[0..32]) != word(4) {
        return None;
    }
    Some((word(2), word(3)))
}

/// A root directory of versioned index snapshots with a two-slot
/// `CURRENT` commit file. See the module docs for the commit protocol.
#[derive(Debug)]
pub struct SnapshotSet {
    fs: Arc<dyn Vfs>,
    root: PathBuf,
    durability: Durability,
    /// How many generations (including the current one) GC retains.
    keep: u64,
}

impl SnapshotSet {
    /// Opens (creating if missing) the snapshot set rooted at `root` on
    /// the real filesystem.
    ///
    /// # Errors
    ///
    /// OS errors.
    pub fn open(root: &Path, durability: Durability) -> Result<SnapshotSet> {
        SnapshotSet::open_in(Arc::new(OsFs), root, durability)
    }

    /// [`SnapshotSet::open`] against a caller-supplied filesystem.
    ///
    /// # Errors
    ///
    /// OS errors.
    pub fn open_in(fs: Arc<dyn Vfs>, root: &Path, durability: Durability) -> Result<SnapshotSet> {
        fs.create_dir_all(root)
            .map_err(|e| crate::io_err("snapshot-set mkdir", e))?;
        Ok(SnapshotSet {
            fs,
            root: root.to_path_buf(),
            durability,
            keep: 2,
        })
    }

    /// Sets how many generations GC retains (minimum 1, the current).
    #[must_use]
    pub fn with_keep(mut self, keep: u64) -> SnapshotSet {
        self.keep = keep.max(1);
        self
    }

    /// The set's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn current_path(&self) -> PathBuf {
        self.root.join("CURRENT")
    }

    fn gen_dir(&self, generation: u64) -> PathBuf {
        self.root.join(format!("gen-{generation:08}"))
    }

    /// Reads both `CURRENT` slots; returns `(seq, generation,
    /// slot_index)` of the newest (highest-sequence) valid one.
    fn read_slots(&self) -> Result<Option<(u64, u64, usize)>> {
        if !self.fs.exists(&self.current_path()) {
            return Ok(None);
        }
        let f = self
            .fs
            .open(&self.current_path())
            .map_err(|e| crate::io_err("snapshot CURRENT open", e))?;
        let len = f
            .len()
            .map_err(|e| crate::io_err("snapshot CURRENT len", e))? as usize;
        let mut bytes = vec![0u8; len.min(2 * SLOT_BYTES)];
        if !bytes.is_empty() {
            f.read_exact_at(&mut bytes, 0)
                .map_err(|e| crate::io_err("snapshot CURRENT read", e))?;
        }
        let mut best: Option<(u64, u64, usize)> = None;
        for (i, slot) in bytes.chunks(SLOT_BYTES).enumerate() {
            if let Some((seq, g)) = decode_slot(slot) {
                if best.is_none_or(|(bseq, _, _)| seq > bseq) {
                    best = Some((seq, g, i));
                }
            }
        }
        Ok(best)
    }

    /// The committed current generation, if any.
    ///
    /// # Errors
    ///
    /// OS errors; a torn or missing `CURRENT` is `Ok(None)`, not an
    /// error.
    pub fn current(&self) -> Result<Option<u64>> {
        Ok(self.read_slots()?.map(|(_, g, _)| g))
    }

    /// Every `gen-*` directory present under the root, sorted ascending
    /// — committed or not (a stray from a crashed publish lists too).
    ///
    /// # Errors
    ///
    /// OS errors.
    pub fn generations(&self) -> Result<Vec<u64>> {
        let mut gens = Vec::new();
        for p in self
            .fs
            .list_dir(&self.root)
            .map_err(|e| crate::io_err("snapshot-set list", e))?
        {
            if let Some(rest) = p
                .file_name()
                .and_then(|n| n.to_str())
                .and_then(|n| n.strip_prefix("gen-"))
            {
                if let Ok(g) = rest.parse::<u64>() {
                    gens.push(g);
                }
            }
        }
        gens.sort_unstable();
        Ok(gens)
    }

    /// Makes `generation` the committed current one: writes the
    /// *inactive* `CURRENT` slot, fsyncs the file, fsyncs the root
    /// directory. This is the sole commit point of a publish.
    fn commit(&self, generation: u64) -> Result<()> {
        let active = self.read_slots()?;
        // Ping-pong: never overwrite the slot readers would fall back to.
        let slot_index = match active {
            Some((_, _, 0)) => 1,
            _ => 0,
        };
        let seq = active.map_or(1, |(s, _, _)| s + 1);
        let mut f = self
            .fs
            .open(&self.current_path())
            .map_err(|e| crate::io_err("snapshot CURRENT open", e))?;
        f.write_all_at(
            &encode_slot(seq, generation),
            (slot_index * SLOT_BYTES) as u64,
        )
        .map_err(|e| crate::io_err("snapshot CURRENT write", e))?;
        f.sync_all()
            .map_err(|e| crate::io_err("snapshot CURRENT fsync", e))?;
        self.fs
            .sync_dir(&self.root)
            .map_err(|e| crate::io_err("snapshot-set dir fsync", e))?;
        Ok(())
    }

    /// Removes every generation directory outside the newest
    /// [`keep`](SnapshotSet::with_keep) committed-or-older ones. Runs
    /// only after a commit is durable; never touches the current
    /// generation.
    fn gc(&self, current: u64) -> Result<()> {
        let gens = self.generations()?;
        let keep_floor = {
            // The `keep` newest generations ≤ current survive.
            let mut kept = 0u64;
            let mut floor = current;
            for &g in gens.iter().rev() {
                if g > current {
                    continue;
                }
                kept += 1;
                floor = g;
                if kept == self.keep {
                    break;
                }
            }
            floor
        };
        for &g in &gens {
            // Below the retention floor, or a stray newer than the
            // commit we just made durable (a crashed publish's leftovers).
            if g < keep_floor || g > current {
                self.fs
                    .remove_dir_all(&self.gen_dir(g))
                    .map_err(|e| crate::io_err("snapshot-set gc", e))?;
            }
        }
        Ok(())
    }

    /// Persists `tree` as a fresh generation and commits it. Returns the
    /// new generation number and the I/O bill the write charged.
    ///
    /// # Errors
    ///
    /// OS errors; the previous current generation stays committed unless
    /// the `CURRENT` swap itself completed.
    pub fn publish(&self, tree: &RTree, opts: &DiskOptions) -> Result<(u64, IoStats)> {
        let committed = self.current()?;
        let next = self
            .generations()?
            .last()
            .copied()
            .max(committed)
            .map_or(1, |g| g + 1);
        let dir = self.gen_dir(next);
        let mut store = FileStore::open_in(Arc::clone(&self.fs), &dir, self.durability, opts)?;
        persist_index(&mut store, tree)?;
        let io = store.stats();
        drop(store);
        self.commit(next)?;
        self.gc(next)?;
        Ok((next, io))
    }

    /// Loads the committed current generation. Returns the tree, its
    /// generation number, and the I/O bill the load charged.
    ///
    /// # Errors
    ///
    /// No committed generation, or any load failure (see
    /// [`load_index`]); use [`SnapshotSet::scrub`] to repair or fall
    /// back first.
    pub fn load(&self, opts: &DiskOptions) -> Result<(RTree, u64, IoStats)> {
        let generation = self.current()?.ok_or(Error::StoreFailure {
            op: "snapshot-set load",
            detail: "no committed generation (CURRENT missing or torn)".to_string(),
        })?;
        let mut store = FileStore::open_in(
            Arc::clone(&self.fs),
            &self.gen_dir(generation),
            self.durability,
            opts,
        )?;
        let (tree, _) = load_index(&mut store)?;
        Ok((tree, generation, store.stats()))
    }

    /// Scrubs the committed current generation
    /// ([`scrub_store_in`] + a load check) and, if it still does not
    /// load, falls back generation by generation to the newest older one
    /// that does — demoting `CURRENT` to it, so subsequent
    /// [`SnapshotSet::load`]s serve the fallback.
    ///
    /// # Errors
    ///
    /// No committed generation, or no generation loads at all.
    pub fn scrub(&self, opts: &DiskOptions) -> Result<ScrubReport> {
        let current = self.current()?.ok_or(Error::StoreFailure {
            op: "snapshot-set scrub",
            detail: "no committed generation (CURRENT missing or torn)".to_string(),
        })?;
        let mut candidates: Vec<u64> = self
            .generations()?
            .into_iter()
            .filter(|&g| g <= current)
            .collect();
        candidates.sort_unstable_by(|a, b| b.cmp(a)); // newest first
        let mut first_err: Option<Error> = None;
        for g in candidates {
            let mut report = scrub_store_in(&*self.fs, &self.gen_dir(g))?;
            report.generation = Some(g);
            report.fell_back = g != current;
            let loads = FileStore::open_in(
                Arc::clone(&self.fs),
                &self.gen_dir(g),
                self.durability,
                opts,
            )
            .and_then(|mut store| load_index(&mut store));
            match loads {
                Ok(_) => {
                    if report.fell_back {
                        self.commit(g)?;
                    }
                    return Ok(report);
                }
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        Err(first_err.unwrap_or(Error::StoreFailure {
            op: "snapshot-set scrub",
            detail: format!("generation {current} committed but its directory is gone"),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::InjectedFs;
    use crate::{Durability, FileStore};
    use hdidx_diskio::DiskOptions;

    fn sample_tree() -> RTree {
        let leaf = |lo: f32, hi: f32, range: std::ops::Range<u32>| Node {
            level: 1,
            rect: HyperRect::new(vec![lo, lo], vec![hi, hi]).unwrap(),
            kind: NodeKind::Leaf { entries: range },
        };
        let root = Node {
            level: 2,
            rect: HyperRect::new(vec![0.0, 0.0], vec![4.0, 4.0]).unwrap(),
            kind: NodeKind::Inner {
                children: vec![1, 2, 3],
            },
        };
        let nodes = vec![
            root,
            leaf(0.0, 1.0, 0..3),
            leaf(1.5, 2.5, 3..5),
            leaf(3.0, 4.0, 5..9),
        ];
        RTree::from_arenas(2, 2, 1, nodes, (0..9).rev().collect()).unwrap()
    }

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("hdidx_snap_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn persisted_tree_loads_back_structurally_identical() {
        let dir = tmpdir("roundtrip");
        let tree = sample_tree();
        let mut st = FileStore::open(&dir, Durability::PerBatch, &DiskOptions::new()).unwrap();
        let f = persist_index(&mut st, &tree).unwrap();
        drop(st); // crash-style close; persist_index synced

        let mut st = FileStore::open(&dir, Durability::PerBatch, &DiskOptions::new()).unwrap();
        let (loaded, f2) = load_index(&mut st).unwrap();
        assert_eq!(loaded, tree, "arenas must round-trip bitwise");
        assert_eq!(f2.pages(), f.pages());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persist_requires_an_empty_store() {
        let dir = tmpdir("nonempty");
        let mut st = FileStore::open(&dir, Durability::PerBatch, &DiskOptions::new()).unwrap();
        st.alloc(1).unwrap();
        assert!(persist_index(&mut st, &sample_tree()).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn loading_an_empty_store_reports_a_missing_superblock() {
        let dir = tmpdir("empty");
        let mut st = FileStore::open(&dir, Durability::PerBatch, &DiskOptions::new()).unwrap();
        let err = load_index(&mut st).unwrap_err();
        assert!(
            matches!(
                err,
                Error::StoreFailure {
                    op: "snapshot superblock",
                    ..
                }
            ),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entries_precede_the_directory_on_disk() {
        // The index-deferred layout: sequential entry pages from page 1,
        // directory after, superblock at page 0 written last.
        let dir = tmpdir("layout");
        let tree = sample_tree();
        let mut st = FileStore::open(&dir, Durability::PerBatch, &DiskOptions::new()).unwrap();
        let f = persist_index(&mut st, &tree).unwrap();
        assert_eq!(f.start_page(), 0);
        assert_eq!(f.pages(), 3, "superblock + 1 entry page + 1 node page");
        let mut page = vec![0u8; PAYLOAD_BYTES];
        st.read_pages(&f, 1, 1, &mut page).unwrap();
        assert_eq!(
            u32::from_le_bytes(page[0..4].try_into().unwrap()),
            8,
            "entry arena (reversed ids) starts at page 1"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A second tree distinguishable from [`sample_tree`] (entry order).
    fn other_tree() -> RTree {
        let mut nodes = sample_tree().nodes().to_vec();
        nodes.truncate(4);
        RTree::from_arenas(2, 2, 1, nodes, (0..9).collect()).unwrap()
    }

    #[test]
    fn publish_load_and_gc_cycle_generations() {
        let fs = InjectedFs::clean();
        let set =
            SnapshotSet::open_in(Arc::new(fs), &PathBuf::from("/snaps"), Durability::PerBatch)
                .unwrap()
                .with_keep(2);
        assert_eq!(set.current().unwrap(), None);
        assert!(
            set.load(&DiskOptions::new()).is_err(),
            "nothing committed yet"
        );

        let (g1, _) = set.publish(&sample_tree(), &DiskOptions::new()).unwrap();
        assert_eq!(g1, 1);
        let (t, g, _) = set.load(&DiskOptions::new()).unwrap();
        assert_eq!((t, g), (sample_tree(), 1));

        let (g2, _) = set.publish(&other_tree(), &DiskOptions::new()).unwrap();
        assert_eq!(g2, 2);
        let (t, g, _) = set.load(&DiskOptions::new()).unwrap();
        assert_eq!((t, g), (other_tree(), 2));
        assert_eq!(
            set.generations().unwrap(),
            vec![1, 2],
            "keep=2 retains both"
        );

        let (g3, _) = set.publish(&sample_tree(), &DiskOptions::new()).unwrap();
        assert_eq!(g3, 3);
        assert_eq!(set.generations().unwrap(), vec![2, 3], "generation 1 GC'd");
    }

    #[test]
    fn a_torn_current_slot_still_reads_the_other_slot() {
        let fs = InjectedFs::clean();
        let root = PathBuf::from("/snaps");
        let set = SnapshotSet::open_in(Arc::new(fs.clone()), &root, Durability::PerBatch).unwrap();
        set.publish(&sample_tree(), &DiskOptions::new()).unwrap();
        set.publish(&other_tree(), &DiskOptions::new()).unwrap();
        // Generation 2 lives in the slot written second; corrupt it.
        let (_, _, active) = set.read_slots().unwrap().unwrap();
        let mut f = fs.open(&root.join("CURRENT")).unwrap();
        f.write_all_at(&[0xEE], (active * SLOT_BYTES + 20) as u64)
            .unwrap();
        assert_eq!(
            set.current().unwrap(),
            Some(1),
            "ping-pong: the untouched slot still commits generation 1"
        );
        let (t, g, _) = set.load(&DiskOptions::new()).unwrap();
        assert_eq!((t, g), (sample_tree(), 1));
    }

    #[test]
    fn scrub_falls_back_to_an_older_generation_and_demotes_current() {
        let fs = InjectedFs::clean();
        let root = PathBuf::from("/snaps");
        let set = SnapshotSet::open_in(Arc::new(fs.clone()), &root, Durability::PerBatch).unwrap();
        set.publish(&sample_tree(), &DiskOptions::new()).unwrap();
        let (g2, _) = set.publish(&other_tree(), &DiskOptions::new()).unwrap();
        // Destroy generation 2's superblock beyond repair (empty WAL).
        let mut f = fs.open(&root.join("gen-00000002/pages.db")).unwrap();
        f.write_all_at(&[0xEE], 40).unwrap();

        let report = set.scrub(&DiskOptions::new()).unwrap();
        assert!(report.fell_back, "{report}");
        assert_eq!(report.generation, Some(1), "{report}");
        assert_eq!(set.current().unwrap(), Some(1), "CURRENT demoted");
        let (t, g, _) = set.load(&DiskOptions::new()).unwrap();
        assert_eq!((t, g), (sample_tree(), 1));
        assert!(g < g2);
    }

    /// Persists [`sample_tree`] into an in-memory store, lets `craft`
    /// rewrite the snapshot's pages (through the store, so every page
    /// checksum stays valid), and returns what loading it gives.
    fn load_crafted(craft: impl FnOnce(&mut Vec<u8>, &mut Vec<u8>)) -> Result<RTree> {
        let fs = Arc::new(InjectedFs::clean());
        let dir = PathBuf::from("/crafted");
        let opts = DiskOptions::new();
        let mut st = FileStore::open_in(fs, &dir, Durability::PerBatch, &opts).unwrap();
        let f = persist_index(&mut st, &sample_tree()).unwrap();
        assert_eq!(f.pages(), 3, "superblock, entry page, node page");
        let (mut sb, mut arena) = (vec![0u8; PAYLOAD_BYTES], vec![0u8; PAYLOAD_BYTES]);
        st.read_pages(&f, 0, 1, &mut sb).unwrap();
        st.read_pages(&f, 2, 1, &mut arena).unwrap();
        craft(&mut sb, &mut arena);
        st.write_pages(&f, 0, 1, &sb).unwrap();
        st.write_pages(&f, 2, 1, &arena).unwrap();
        load_index(&mut st).map(|(tree, _)| tree)
    }

    /// Loads the snapshot with superblock word `word` set to `value`.
    fn load_with_word(word: usize, value: u64) -> Result<RTree> {
        load_crafted(|sb, _| sb[word * 8..word * 8 + 8].copy_from_slice(&value.to_le_bytes()))
    }

    fn assert_store_failure(got: Result<RTree>, what: &str) {
        assert!(
            matches!(got, Err(Error::StoreFailure { .. })),
            "{what}: {got:?}"
        );
    }

    #[test]
    fn an_uncrafted_snapshot_loads() {
        assert_eq!(load_crafted(|_, _| {}).unwrap(), sample_tree());
    }

    #[test]
    fn hostile_dimensionality_is_a_store_failure() {
        for dim in [0, 3, 1 << 20, u64::MAX / 8 + 1, u64::MAX] {
            assert_store_failure(load_with_word(2, dim), &format!("dim {dim}"));
        }
    }

    #[test]
    fn hostile_node_count_is_a_store_failure() {
        for n in [5, 1 << 40, u64::MAX] {
            assert_store_failure(load_with_word(5, n), &format!("num_nodes {n}"));
        }
    }

    #[test]
    fn hostile_entry_count_is_a_store_failure() {
        // The sample has 9 entries in 36 bytes; `2^62 + 9` times 4 wraps
        // to 36, so without checked arithmetic it would pass the
        // byte-length test.
        for n in [10, (1 << 62) + 9, u64::MAX] {
            assert_store_failure(load_with_word(6, n), &format!("num_entries {n}"));
        }
    }

    #[test]
    fn hostile_entry_pages_are_a_store_failure() {
        for pages in [2, 1 << 40, u64::MAX / PAYLOAD_BYTES as u64 + 1, u64::MAX] {
            assert_store_failure(load_with_word(7, pages), &format!("entry pages {pages}"));
        }
    }

    #[test]
    fn hostile_node_pages_are_a_store_failure() {
        for pages in [2, 1 << 40, u64::MAX / PAYLOAD_BYTES as u64 + 1, u64::MAX] {
            assert_store_failure(load_with_word(8, pages), &format!("node pages {pages}"));
        }
    }

    #[test]
    fn hostile_region_lengths_are_a_store_failure() {
        for (word, len) in [(9, 40), (9, u64::MAX), (10, PAYLOAD_BYTES as u64 + 1)] {
            assert_store_failure(load_with_word(word, len), &format!("word {word} = {len}"));
        }
        assert_store_failure(load_with_word(10, u64::MAX), "node bytes");
    }

    #[test]
    fn hostile_child_count_is_a_store_failure() {
        // The root record: level (4), lo and hi (2 × 2 × 4), tag (1), then
        // its child count.
        let at = 4 + 16 + 1;
        let got =
            load_crafted(|_, arena| arena[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes()));
        assert_store_failure(got, "child count");
    }

    #[test]
    fn an_out_of_range_child_fails_load_and_scrub_falls_back() {
        let fs = InjectedFs::clean();
        let set =
            SnapshotSet::open_in(Arc::new(fs), &PathBuf::from("/snaps"), Durability::PerBatch)
                .unwrap();
        set.publish(&sample_tree(), &DiskOptions::new()).unwrap();
        let mut nodes = sample_tree().nodes().to_vec();
        nodes[0].kind = NodeKind::Inner {
            children: vec![1, 2, 3, 40],
        };
        let bad = RTree::from_arenas(2, 2, 1, nodes, (0..9).rev().collect()).unwrap();
        let (g2, _) = set.publish(&bad, &DiskOptions::new()).unwrap();
        assert_eq!(set.current().unwrap(), Some(g2));

        let err = set.load(&DiskOptions::new()).unwrap_err();
        assert!(err.to_string().contains("child 40"), "{err}");
        let report = set.scrub(&DiskOptions::new()).unwrap();
        assert!(report.fell_back, "{report}");
        assert_eq!(report.generation, Some(1), "{report}");
        let (t, g, _) = set.load(&DiskOptions::new()).unwrap();
        assert_eq!((t, g), (sample_tree(), 1));
    }

    #[test]
    fn a_clean_set_scrubs_clean_on_the_real_filesystem() {
        let root = tmpdir("set_os");
        let set = SnapshotSet::open(&root, Durability::PerBatch).unwrap();
        set.publish(&sample_tree(), &DiskOptions::new()).unwrap();
        let report = set.scrub(&DiskOptions::new()).unwrap();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.generation, Some(1));
        let _ = std::fs::remove_dir_all(&root);
    }
}

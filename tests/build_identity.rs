//! A pinned external build: the VAMSplit tree `build_on_disk` produces on
//! a seeded 20,000 × 60 clustered dataset at M = 1,000, once clean and
//! once under a seeded fault plan.
//!
//! The expected `IoStats`, fault-trace length and FNV-1a digests of the
//! node and id arenas below were recorded before the split kernels
//! (`dim_stats`, `partition_by_rank`, the external select accounting and
//! `mbr_of`) were rewritten. Any change to the tree, the id order or the
//! I/O bill shows up here, at every thread count.

use hdidx_repro::core::Dataset;
use hdidx_repro::datagen::clustered::{ClusteredSpec, Tail};
use hdidx_repro::diskio::external::{build_on_disk, BuildOutput, ExternalConfig};
use hdidx_repro::diskio::IoStats;
use hdidx_repro::faults::FaultConfig;
use hdidx_repro::pool::Pool;
use hdidx_repro::vamsplit::bulkload::bulk_load_with;
use hdidx_repro::vamsplit::topology::{PageConfig, Topology};
use hdidx_repro::vamsplit::tree::{NodeKind, RTree};

const THREAD_COUNTS: &[usize] = &[1, 2, 8];

/// Digest of the pinned tree's node arena (see [`node_digest`]).
const NODE_DIGEST: u64 = 0x8f8a_9710_8efa_83cb;
/// Digest of the pinned tree's id arena (see [`id_digest`]).
const ID_DIGEST: u64 = 0x1141_1861_df9a_a7dd;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// Digest of the node arena: per node its level, rectangle bounds (bit
/// patterns) and children or entry range, in arena order.
fn node_digest(tree: &RTree) -> u64 {
    let mut h = FNV_OFFSET;
    for node in tree.nodes() {
        fnv(&mut h, &node.level.to_le_bytes());
        for x in node.rect.lo().iter().chain(node.rect.hi()) {
            fnv(&mut h, &x.to_bits().to_le_bytes());
        }
        match &node.kind {
            NodeKind::Inner { children } => {
                fnv(&mut h, &[0]);
                for c in children {
                    fnv(&mut h, &c.to_le_bytes());
                }
            }
            NodeKind::Leaf { entries } => {
                fnv(&mut h, &[1]);
                fnv(&mut h, &entries.start.to_le_bytes());
                fnv(&mut h, &entries.end.to_le_bytes());
            }
        }
    }
    h
}

/// Digest of the id arena, in order.
fn id_digest(tree: &RTree) -> u64 {
    let mut h = FNV_OFFSET;
    for id in tree.entries() {
        fnv(&mut h, &id.to_le_bytes());
    }
    h
}

fn dataset() -> Dataset {
    ClusteredSpec {
        n: 20_000,
        dim: 60,
        n_clusters: 12,
        decay: 0.05,
        spread: 0.3,
        tail: Tail::Gaussian,
        seed: 20_260_417,
    }
    .generate()
    .unwrap()
}

/// What one pinned build must reproduce.
struct Pin {
    io: IoStats,
    trace_len: usize,
    nodes: u64,
    ids: u64,
}

fn check(label: &str, built: &BuildOutput, pin: &Pin) {
    built.tree.check_invariants().unwrap();
    assert_eq!(built.io, pin.io, "{label}: IoStats");
    assert_eq!(built.fault_trace.len(), pin.trace_len, "{label}: trace");
    assert_eq!(
        node_digest(&built.tree),
        pin.nodes,
        "{label}: node arena digest {:#018x}",
        node_digest(&built.tree)
    );
    assert_eq!(
        id_digest(&built.tree),
        pin.ids,
        "{label}: id arena digest {:#018x}",
        id_digest(&built.tree)
    );
}

#[test]
fn external_build_reproduces_the_pinned_tree_and_bill() {
    let data = dataset();
    let topo = Topology::new(60, data.len(), &PageConfig::DEFAULT).unwrap();
    let clean_cfg = ExternalConfig::with_mem_points(1_000).unwrap();
    let faulty_cfg = ExternalConfig {
        faults: Some(FaultConfig::disabled(17).with_rate_ppm(20_000)),
        ..clean_cfg
    };
    let clean = Pin {
        io: IoStats {
            seeks: 2572,
            transfers: 20030,
            retries: 0,
            backoff: 0,
            reads: 11404,
            writes: 8678,
        },
        trace_len: 0,
        nodes: NODE_DIGEST,
        ids: ID_DIGEST,
    };
    // The same tree; the retries burn extra seeks and transfers.
    let faulty = Pin {
        io: IoStats {
            seeks: 2690,
            transfers: 20097,
            retries: 73,
            backoff: 0,
            reads: 11404,
            writes: 8678,
        },
        trace_len: 96,
        ..clean
    };
    for &t in THREAD_COUNTS {
        hdidx_repro::pool::set_threads(t);
        let a = build_on_disk(&data, &topo, &clean_cfg).unwrap();
        let b = build_on_disk(&data, &topo, &faulty_cfg).unwrap();
        check(&format!("clean, {t} threads"), &a, &clean);
        check(&format!("faulted, {t} threads"), &b, &faulty);
        // Survivable faults change the bill, never the tree.
        assert_eq!(a.tree, b.tree, "{t} threads: faults changed the tree");
    }
}

#[test]
fn in_memory_build_reproduces_the_same_tree() {
    // The in-memory loader runs the same split kernels (and its parallel
    // path the same partitions per subtree), so it lays out the very tree
    // the external build pinned above.
    let data = dataset();
    let topo = Topology::new(60, data.len(), &PageConfig::DEFAULT).unwrap();
    for &t in THREAD_COUNTS {
        let tree = bulk_load_with(&Pool::new(t), &data, &topo).unwrap();
        tree.check_invariants().unwrap();
        assert_eq!(node_digest(&tree), NODE_DIGEST, "{t} threads: node arena");
        assert_eq!(id_digest(&tree), ID_DIGEST, "{t} threads: id arena");
    }
}

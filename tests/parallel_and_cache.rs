//! The parallel extraction engine and the persistent table cache, tested
//! end-to-end: serial-vs-parallel determinism, table-vs-solver accuracy,
//! and cache round-trips.

use rlcx::core::{CacheMiss, TableBuilder, TableCache};
use rlcx::geom::units::RHO_COPPER;
use rlcx::geom::{Axis, Bar, Block, Point3, ShieldConfig, Stackup};
use rlcx::numeric::with_thread_count;
use rlcx::obs;
use rlcx::peec::{BlockExtractor, Conductor, MeshSpec, PartialSystem, SolverBackend};
use std::path::PathBuf;

fn bus(n: usize) -> PartialSystem {
    (0..n)
        .map(|i| {
            let bar = Bar::new(
                Point3::new(0.0, i as f64 * 4.0, 9.4),
                Axis::X,
                800.0,
                2.5,
                2.0,
            )
            .unwrap();
            Conductor::new(bar, RHO_COPPER).unwrap()
        })
        .collect()
}

fn small_builder() -> TableBuilder {
    TableBuilder::new(Stackup::hp_six_metal_copper(), 5)
        .unwrap()
        .widths(vec![1.0, 2.0, 5.0])
        .spacings(vec![0.5, 1.0, 2.0])
        .lengths(vec![200.0, 400.0, 800.0])
        .mesh(MeshSpec::new(2, 1))
}

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rlcx_test_{tag}_{}", std::process::id()))
}

/// Serial and parallel skin-effect solves agree bit-for-bit. `RLCX_THREADS`
/// is flipped inside one test so no other test observes the mutation order.
#[test]
fn impedance_solve_is_deterministic_across_thread_counts() {
    let sys = bus(6);
    let mesh = MeshSpec::new(2, 2);
    std::env::set_var("RLCX_THREADS", "1");
    let (r1, l1) = sys.rl_at(3.2e9, mesh).unwrap();
    std::env::set_var("RLCX_THREADS", "5");
    let (rn, ln) = sys.rl_at(3.2e9, mesh).unwrap();
    std::env::remove_var("RLCX_THREADS");
    for i in 0..6 {
        for j in 0..6 {
            assert_eq!(r1[(i, j)].to_bits(), rn[(i, j)].to_bits(), "R ({i},{j})");
            assert_eq!(l1[(i, j)].to_bits(), ln[(i, j)].to_bits(), "L ({i},{j})");
        }
    }
}

/// Golden: a self-inductance table lookup reproduces the direct PEEC
/// solve within 3% at off-grid points.
#[test]
fn table_lookup_matches_direct_peec_within_three_percent() {
    let stackup = Stackup::hp_six_metal_copper();
    let tables = small_builder().build().unwrap();
    let layer = stackup.layer(5).unwrap();
    for (w, len) in [(1.5, 300.0), (3.0, 600.0)] {
        let bar = Bar::new(
            Point3::new(0.0, 0.0, layer.z_bottom()),
            Axis::X,
            len,
            w,
            layer.thickness(),
        )
        .unwrap();
        let sys: PartialSystem = [Conductor::new(bar, layer.resistivity()).unwrap()]
            .into_iter()
            .collect();
        let (_, l) = sys.rl_at(3.2e9, MeshSpec::new(2, 1)).unwrap();
        let rel = (tables.self_l.lookup(w, len) - l[(0, 0)]).abs() / l[(0, 0)];
        assert!(rel < 0.03, "w={w}, len={len}: rel err {rel}");
    }
}

/// Cache round-trip: a cold build misses and stores, a second build hits
/// and returns numerically identical tables.
#[test]
fn cache_roundtrip_is_exact() {
    let dir = scratch_dir("cache_roundtrip");
    std::fs::remove_dir_all(&dir).ok();
    let builder = small_builder();
    let cold = builder.build_cached(&dir).unwrap();
    assert!(!cold.cache_hit, "first build must miss the cache");
    let warm = builder.build_cached(&dir).unwrap();
    assert!(warm.cache_hit, "second build must hit the cache");
    for (w, len) in [(1.0, 200.0), (2.0, 400.0), (5.0, 800.0), (1.7, 333.0)] {
        assert_eq!(
            cold.tables.self_l.lookup(w, len).to_bits(),
            warm.tables.self_l.lookup(w, len).to_bits(),
            "self_l({w},{len})"
        );
        assert_eq!(
            cold.tables.mutual_l.lookup(w, w, 1.0, len).to_bits(),
            warm.tables.mutual_l.lookup(w, w, 1.0, len).to_bits(),
            "mutual_l({w},{len})"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Every cache probe lands in the `cache.hit` / `cache.miss` metrics with
/// an attributable miss reason. Metrics are process-global and other tests
/// in this binary probe the cache concurrently, so all assertions are
/// deltas (`>=`) against a before-snapshot.
#[test]
fn cache_probes_record_hit_and_miss_metrics() {
    let dir = scratch_dir("cache_metrics");
    std::fs::remove_dir_all(&dir).ok();
    let builder = small_builder();
    let key = builder.cache_key();
    let cache = TableCache::new(&dir);

    let hits_before = obs::counter_value("cache.hit");
    let misses_before = obs::counter_value("cache.miss");
    let absent_before = obs::counter_value("cache.miss.absent");

    assert!(matches!(cache.lookup(&key), Err(CacheMiss::Absent)));
    let cold = builder.build_cached(&dir).unwrap();
    assert!(!cold.cache_hit);
    assert_eq!(cold.miss_reason, Some(CacheMiss::Absent));
    let warm = builder.build_cached(&dir).unwrap();
    assert!(warm.cache_hit);
    assert_eq!(warm.miss_reason, None);
    assert!(cache.lookup(&key).is_ok());

    assert!(
        obs::counter_value("cache.hit") >= hits_before + 2,
        "two hits recorded"
    );
    assert!(
        obs::counter_value("cache.miss") >= misses_before + 2,
        "two misses recorded"
    );
    assert!(
        obs::counter_value("cache.miss.absent") >= absent_before + 2,
        "misses attributed to the absent reason"
    );

    // A corrupted payload is a miss with its own reason.
    let corrupt_before = obs::counter_value("cache.miss.corrupt");
    let path = cache.path_for(&key);
    let body = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, &body[..body.len() / 2]).unwrap();
    assert!(matches!(cache.lookup(&key), Err(CacheMiss::Corrupt)));
    assert!(obs::counter_value("cache.miss.corrupt") > corrupt_before);
    std::fs::remove_dir_all(&dir).ok();
}

/// A changed builder input (frequency here) must key a different cache
/// entry — the stale entry must not be served.
#[test]
fn cache_is_invalidated_by_input_changes() {
    let dir = scratch_dir("cache_invalidation");
    std::fs::remove_dir_all(&dir).ok();
    let first = small_builder().build_cached(&dir).unwrap();
    assert!(!first.cache_hit);
    let changed = small_builder().frequency(1.0e9).build_cached(&dir).unwrap();
    assert!(
        !changed.cache_hit,
        "different inputs must not hit the old entry"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `small_builder` with both loop-table shield configurations.
fn two_shield_builder() -> TableBuilder {
    small_builder().shields(vec![ShieldConfig::Coplanar, ShieldConfig::PlaneBelow])
}

/// A table build shares one GMD memo across all its solves. Every grid
/// value it stores must equal, bit for bit, the direct un-memoized solve
/// at the same point — self and mutual through `rl_at_backend`, loop L and
/// R through `BlockExtractor::extract` — at any worker-thread count.
#[test]
fn memoized_build_matches_direct_solves_bit_for_bit() {
    let stackup = Stackup::hp_six_metal_copper();
    let layer = stackup.layer(5).unwrap();
    let (rho, t, z) = (layer.resistivity(), layer.thickness(), layer.z_bottom());
    let (f, mesh) = (3.2e9, MeshSpec::new(2, 1));
    let widths = [1.0, 2.0, 5.0];
    let spacings = [0.5, 1.0, 2.0];
    let lengths = [200.0, 400.0, 800.0];
    let bar = |y: f64, len: f64, w: f64| Bar::new(Point3::new(0.0, y, z), Axis::X, len, w, t);
    let solve = |bars: &[Bar]| -> f64 {
        let sys: PartialSystem = bars
            .iter()
            .map(|&b| Conductor::new(b, rho).unwrap())
            .collect();
        let (_, l) = sys.rl_at_backend(f, mesh, SolverBackend::Auto).unwrap();
        l[(0, bars.len() - 1)]
    };
    let extractor = BlockExtractor::new(stackup.clone(), 5)
        .unwrap()
        .frequency(f)
        .mesh(mesh)
        .plane_strips(10);

    for threads in [1, 2, 7] {
        let tables = with_thread_count(threads, || two_shield_builder().build().unwrap());
        for (i, &w) in widths.iter().enumerate() {
            for (k, &len) in lengths.iter().enumerate() {
                let direct = solve(&[bar(0.0, len, w).unwrap()]);
                let stored = tables.self_l.grid()[i][k];
                assert_eq!(stored.to_bits(), direct.to_bits(), "self w={w} len={len}");
                for shield in [ShieldConfig::Coplanar, ShieldConfig::PlaneBelow] {
                    let block = Block::coplanar_waveguide(len, w, w, 1.0)
                        .unwrap()
                        .with_shield(shield);
                    let out = extractor.extract(&block).unwrap();
                    let table = tables.loop_table(shield).unwrap();
                    let (l, r) = (table.l_grid()[i][k], table.r_grid()[i][k]);
                    let what = format!("{shield:?} w={w} len={len} threads={threads}");
                    assert_eq!(l.to_bits(), out.loop_l[(0, 0)].to_bits(), "loop L {what}");
                    assert_eq!(r.to_bits(), out.loop_r[(0, 0)].to_bits(), "loop R {what}");
                }
            }
        }
        for (i, &wi) in widths.iter().enumerate() {
            for (j, &wj) in widths.iter().enumerate().skip(i) {
                for (si, &s) in spacings.iter().enumerate() {
                    for (k, &len) in lengths.iter().enumerate() {
                        let direct =
                            solve(&[bar(0.0, len, wi).unwrap(), bar(wi + s, len, wj).unwrap()]);
                        let stored = tables.mutual_l.grid()[i][j][si][k];
                        assert_eq!(
                            stored.to_bits(),
                            direct.to_bits(),
                            "mutual w={wi}/{wj} s={s} len={len} threads={threads}"
                        );
                    }
                }
            }
        }
    }
}

/// The GMD memo is an implementation detail of a build: the cache key of
/// a builder is pinned to its value from before the memo existed, so
/// persisted `tables-<key>.txt` files stay valid.
#[test]
fn cache_key_is_pinned() {
    assert_eq!(two_shield_builder().cache_key(), "98c0e0cc01967a81");
}

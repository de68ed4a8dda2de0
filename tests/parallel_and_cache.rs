//! The parallel extraction engine tested end-to-end: serial-vs-parallel
//! determinism, table-vs-solver accuracy, and the memoized table build
//! against direct solves.

use rlcx::core::TableBuilder;
use rlcx::geom::units::RHO_COPPER;
use rlcx::geom::{Axis, Bar, Block, Point3, ShieldConfig, Stackup};
use rlcx::numeric::with_thread_count;
use rlcx::peec::{BlockExtractor, Conductor, MeshSpec, PartialSystem, SolverBackend};

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

//! E6 benchmark: table+spline lookup vs direct field solve — the paper's
//! headline efficiency claim — plus the cold characterization of the
//! experiment table grid.

use rlcx::geom::units::RHO_COPPER;
use rlcx::geom::{Axis, Bar, Point3};
use rlcx::peec::{Conductor, MeshSpec, PartialSystem};
use rlcx_bench::harness::Bench;
use rlcx_bench::quick_tables;
use std::hint::black_box;

fn main() {
    let tables = quick_tables();
    println!("table_vs_solver");

    let mut i = 0u64;
    Bench::new("self_l_table_lookup").samples(1000).run(|| {
        i = i.wrapping_add(1);
        let w = 2.0 + (i % 8) as f64;
        let len = 300.0 + (i % 6000) as f64;
        black_box(tables.self_l.lookup(black_box(w), black_box(len)))
    });

    let mut i = 0u64;
    Bench::new("mutual_l_table_lookup").samples(1000).run(|| {
        i = i.wrapping_add(1);
        let w = 2.0 + (i % 8) as f64;
        let s = 0.5 + (i % 4) as f64 * 0.5;
        let len = 300.0 + (i % 6000) as f64;
        black_box(tables.mutual_l.lookup(w, w, black_box(s), black_box(len)))
    });

    Bench::new("direct_1trace_solve").run(|| {
        let bar = Bar::new(Point3::new(0.0, 0.0, 9.4), Axis::X, 1000.0, 5.0, 2.0).unwrap();
        let sys: PartialSystem = [Conductor::new(bar, RHO_COPPER).unwrap()]
            .into_iter()
            .collect();
        black_box(sys.rl_at(3.2e9, MeshSpec::new(3, 2)).unwrap())
    });

    Bench::new("direct_2trace_solve").run(|| {
        let a = Bar::new(Point3::new(0.0, 0.0, 9.4), Axis::X, 1000.0, 5.0, 2.0).unwrap();
        let bb = Bar::new(Point3::new(0.0, 6.0, 9.4), Axis::X, 1000.0, 5.0, 2.0).unwrap();
        let sys: PartialSystem = [
            Conductor::new(a, RHO_COPPER).unwrap(),
            Conductor::new(bb, RHO_COPPER).unwrap(),
        ]
        .into_iter()
        .collect();
        black_box(sys.rl_at(3.2e9, MeshSpec::new(3, 2)).unwrap())
    });

    // The cold build `exp_table_accuracy` reports as `figures.table.build_s`.
    let builder = rlcx_bench::experiment_builder();
    Bench::new("table_build")
        .samples(5)
        .run(|| black_box(builder.build().unwrap()));
}

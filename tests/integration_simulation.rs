//! Cross-crate integration: extraction → netlist → transient simulation.
//!
//! These tests check *physics at the system level*: transmission-line wave
//! speed, characteristic impedance matching, π-ladder convergence, and the
//! RC-vs-RLC contrast that motivates the whole paper.

use rlcx::core::{ClocktreeExtractor, TableBuilder, TreeNetlistBuilder, TreeRlcNetlist};
use rlcx::geom::{Block, HTree, SegmentTree, Stackup};
use rlcx::peec::MeshSpec;
use rlcx::spice::{
    measure, AdaptiveOptions, Netlist, SolverEngine, Stepping, Transient, TransientResult,
    Waveform, GROUND,
};

fn extractor() -> ClocktreeExtractor {
    let stackup = Stackup::hp_six_metal_copper();
    let tables = TableBuilder::new(stackup.clone(), 5)
        .unwrap()
        .widths(vec![2.0, 5.0, 10.0])
        .spacings(vec![0.5, 1.0, 2.0])
        .lengths(vec![500.0, 2000.0, 8000.0])
        .mesh(MeshSpec::new(2, 1))
        .build()
        .unwrap();
    ClocktreeExtractor::new(stackup, 5, tables).unwrap()
}

fn straight_net(len: f64) -> SegmentTree {
    let mut t = SegmentTree::new(0.0, 0.0);
    t.add_node(0, len, 0.0).unwrap();
    t
}

#[test]
fn wave_velocity_below_speed_of_light() {
    // The simulated sink arrival time of a long RLC line must equal the
    // lumped √(LC) estimate and must correspond to a propagation velocity
    // below c (and above c/10 — on-chip lines are slow-wave but not that
    // slow).
    let ex = extractor();
    let len = 8000.0;
    let tree = straight_net(len);
    let cross = Block::coplanar_waveguide(1.0, 10.0, 5.0, 1.0).unwrap();
    let seg = ex
        .extract_segment(&cross.with_length(len).unwrap())
        .unwrap();
    let tof = seg.time_of_flight();
    let velocity = rlcx::geom::units::um_to_m(len) / tof;
    let c = 2.998e8;
    assert!(velocity < c, "v = {velocity}");
    assert!(velocity > c / 10.0, "v = {velocity}");

    // The simulation's first sink activity should appear near tof.
    let out = TreeNetlistBuilder::new(&ex)
        .sections_per_segment(12)
        .driver_resistance(15.0)
        .input(Waveform::ramp(0.0, 1.8, 0.0, 20e-12))
        .build(&tree, &cross)
        .unwrap();
    let res = Transient::new(&out.netlist)
        .timestep(0.2e-12)
        .duration(2e-9)
        .run()
        .unwrap();
    let t = res.time().to_vec();
    let v = res.voltage(&out.sinks[0]).unwrap().to_vec();
    let t10 = measure::cross_time(&t, &v, 0.18, true, 0.0).unwrap();
    assert!(
        t10 > 0.5 * tof && t10 < 2.0 * tof,
        "10% arrival {t10} vs tof {tof}"
    );
}

#[test]
fn pi_ladder_converges_with_sections() {
    // Doubling the section count should change the measured delay by less
    // and less — the ladder converges to the distributed line.
    let ex = extractor();
    let tree = straight_net(6000.0);
    let cross = Block::coplanar_waveguide(1.0, 10.0, 5.0, 1.0).unwrap();
    let delay = |k: usize| {
        let out = TreeNetlistBuilder::new(&ex)
            .sections_per_segment(k)
            .driver_resistance(15.0)
            .input(Waveform::ramp(0.0, 1.8, 0.0, 50e-12))
            .build(&tree, &cross)
            .unwrap();
        let res = Transient::new(&out.netlist)
            .timestep(0.2e-12)
            .duration(2e-9)
            .run()
            .unwrap();
        let t = res.time().to_vec();
        let vin = res.voltage("drv_in").unwrap().to_vec();
        let vout = res.voltage(&out.sinks[0]).unwrap().to_vec();
        measure::delay_50(&t, &vin, &vout, 0.0, 1.8).unwrap()
    };
    let d4 = delay(4);
    let d8 = delay(8);
    let d16 = delay(16);
    let step1 = (d8 - d4).abs();
    let step2 = (d16 - d8).abs();
    assert!(
        step2 < step1,
        "ladder should converge: {step1} then {step2}"
    );
    assert!(step2 / d16 < 0.05, "16 sections should be within 5%");
}

#[test]
fn rc_netlist_is_monotone_rlc_rings() {
    let ex = extractor();
    let tree = straight_net(6000.0);
    let cross = Block::coplanar_waveguide(1.0, 10.0, 5.0, 1.0).unwrap();
    let run = |include_l: bool| {
        let out = TreeNetlistBuilder::new(&ex)
            .sections_per_segment(10)
            .include_inductance(include_l)
            .driver_resistance(15.0)
            .input(Waveform::ramp(0.0, 1.8, 0.0, 30e-12))
            .build(&tree, &cross)
            .unwrap();
        let res = Transient::new(&out.netlist)
            .timestep(0.2e-12)
            .duration(2e-9)
            .run()
            .unwrap();
        (
            res.time().to_vec(),
            res.voltage(&out.sinks[0]).unwrap().to_vec(),
        )
    };
    let (_, v_rc) = run(false);
    let (t, v_rlc) = run(true);
    assert_eq!(measure::overshoot(&v_rc, 0.0, 1.8), 0.0);
    assert!(measure::overshoot(&v_rlc, 0.0, 1.8) > 0.05);
    // Ringing decays: the last 200 ps must sit near the rail.
    let tail_start = t.len() - (200e-12 / 0.2e-12) as usize;
    for &v in &v_rlc[tail_start..] {
        assert!((v - 1.8).abs() < 0.05, "unsettled tail: {v}");
    }
}

#[test]
fn driver_strength_trades_delay_for_ringing() {
    let ex = extractor();
    let tree = straight_net(6000.0);
    let cross = Block::coplanar_waveguide(1.0, 10.0, 5.0, 1.0).unwrap();
    let run = |rdrv: f64| {
        let out = TreeNetlistBuilder::new(&ex)
            .sections_per_segment(8)
            .driver_resistance(rdrv)
            .input(Waveform::ramp(0.0, 1.8, 0.0, 30e-12))
            .build(&tree, &cross)
            .unwrap();
        let res = Transient::new(&out.netlist)
            .timestep(0.3e-12)
            .duration(3e-9)
            .run()
            .unwrap();
        let t = res.time().to_vec();
        let vin = res.voltage("drv_in").unwrap().to_vec();
        let vout = res.voltage(&out.sinks[0]).unwrap().to_vec();
        (
            measure::delay_50(&t, &vin, &vout, 0.0, 1.8).unwrap(),
            measure::overshoot(&vout, 0.0, 1.8),
        )
    };
    let (d_strong, os_strong) = run(5.0);
    let (d_weak, os_weak) = run(120.0);
    assert!(d_strong < d_weak, "stronger driver is faster");
    assert!(
        os_strong > os_weak,
        "stronger driver rings more: {os_strong} vs {os_weak}"
    );
}

#[test]
fn branched_tree_sinks_see_consistent_delays() {
    // A symmetric Y: both sinks must match; an asymmetric Y must order
    // delays by branch length.
    let ex = extractor();
    let cross = Block::coplanar_waveguide(1.0, 5.0, 5.0, 1.0).unwrap();
    let run = |tree: &SegmentTree| {
        let out = TreeNetlistBuilder::new(&ex)
            .driver_resistance(20.0)
            .input(Waveform::ramp(0.0, 1.8, 0.0, 50e-12))
            .build(tree, &cross)
            .unwrap();
        let res = Transient::new(&out.netlist)
            .timestep(0.5e-12)
            .duration(3e-9)
            .run()
            .unwrap();
        let t = res.time().to_vec();
        let vin = res.voltage("drv_in").unwrap().to_vec();
        out.sinks
            .iter()
            .map(|s| {
                let vout = res.voltage(s).unwrap().to_vec();
                measure::delay_50(&t, &vin, &vout, 0.0, 1.8).unwrap()
            })
            .collect::<Vec<_>>()
    };
    let mut sym = SegmentTree::new(0.0, 0.0);
    let b = sym.add_node(0, 1000.0, 0.0).unwrap();
    sym.add_node(b, 1000.0, 1500.0).unwrap();
    sym.add_node(b, 1000.0, -1500.0).unwrap();
    let d = run(&sym);
    assert!((d[0] - d[1]).abs() < 1e-14, "symmetric Y must be skewless");

    let mut asym = SegmentTree::new(0.0, 0.0);
    let b = asym.add_node(0, 1000.0, 0.0).unwrap();
    asym.add_node(b, 1000.0, 500.0).unwrap();
    asym.add_node(b, 1000.0, -3000.0).unwrap();
    let d = run(&asym);
    assert!(d[1] > d[0], "longer branch must be slower: {d:?}");
}

#[test]
fn spice_export_roundtrip_contains_extracted_values() {
    let ex = extractor();
    let tree = straight_net(2000.0);
    let cross = Block::coplanar_waveguide(1.0, 5.0, 5.0, 1.0).unwrap();
    let out = TreeNetlistBuilder::new(&ex)
        .sections_per_segment(1)
        .build(&tree, &cross)
        .unwrap();
    let deck = rlcx::spice::writer::to_spice(&out.netlist, "roundtrip");
    let seg = ex
        .extract_segment(&cross.with_length(2000.0).unwrap())
        .unwrap();
    // One section: the full loop L appears on a single L card.
    assert!(deck.contains(&format!("{:.6e}", seg.l)), "deck:\n{deck}");
    assert!(deck.contains(&format!("{:.6e}", seg.r)));
    assert!(deck.contains("Vdrv"));
}

/// One level-0 stage of a 4 mm H-tree (trunk plus four arms, six edges):
/// `k` π-sections per edge give `3 + 6k` MNA unknowns RC-only and
/// `3 + 18k` with inductance — the stage sizes the skew workloads run.
fn clock_stage(ex: &ClocktreeExtractor, sections: usize, include_l: bool) -> TreeRlcNetlist {
    let stage = HTree::new(1, 4000.0)
        .unwrap()
        .iter()
        .next()
        .unwrap()
        .stage_tree();
    let cross = Block::coplanar_waveguide(1.0, 5.0, 5.0, 1.0).unwrap();
    TreeNetlistBuilder::new(ex)
        .sections_per_segment(sections)
        .include_inductance(include_l)
        .build(&stage, &cross)
        .unwrap()
}

/// MNA unknowns of a netlist with one voltage source: non-ground nodes
/// plus one branch current per inductor and for the source.
fn mna_dim(nl: &Netlist) -> usize {
    nl.node_count() - 1 + nl.inductor_count() + 1
}

/// Branch currents a [`clock_stage`] records: the driver, then every
/// section inductor.
fn clock_stage_branches(sections: usize) -> Vec<String> {
    let mut names = vec!["drv".to_string()];
    for e in 0..6 {
        for s in 0..sections {
            names.push(format!("l{e}s{s}"));
        }
    }
    names
}

/// Two coupled 4-section RLC lines: a ramp-driven aggressor and a quiet
/// victim, with mutual inductance between facing and diagonal sections.
fn coupled_lines() -> (Netlist, Vec<String>) {
    let mut nl = Netlist::new();
    let mut branches = Vec::new();
    let mut inductors = Vec::new();
    for (line, wave) in [
        ("a", Waveform::ramp(0.0, 1.8, 0.0, 30e-12)),
        ("v", Waveform::Dc(0.0)),
    ] {
        let src = nl.node(format!("{line}_in"));
        nl.vsource(&format!("V{line}"), src, GROUND, wave).unwrap();
        branches.push(format!("V{line}"));
        let mut from = nl.node(format!("{line}0"));
        nl.resistor(&format!("Rd{line}"), src, from, 30.0).unwrap();
        let mut ids = Vec::new();
        for s in 0..4 {
            let mid = nl.node(format!("{line}{s}m"));
            let to = nl.node(format!("{line}{}", s + 1));
            nl.capacitor(&format!("C{line}{s}"), from, GROUND, 40e-15)
                .unwrap();
            nl.resistor(&format!("R{line}{s}"), from, mid, 2.0).unwrap();
            let name = format!("L{line}{s}");
            ids.push(nl.inductor(&name, mid, to, 0.3e-9).unwrap());
            branches.push(name);
            from = to;
        }
        nl.capacitor(&format!("Cload{line}"), from, GROUND, 20e-15)
            .unwrap();
        inductors.push(ids);
    }
    for s in 0..4 {
        nl.mutual(&format!("K{s}"), inductors[0][s], inductors[1][s], 0.12e-9)
            .unwrap();
        if s + 1 < 4 {
            nl.mutual(
                &format!("Kd{s}"),
                inductors[0][s],
                inductors[1][s + 1],
                0.03e-9,
            )
            .unwrap();
        }
    }
    (nl, branches)
}

/// FNV-1a over the bits of the time axis, every node voltage (in
/// interning order) and the named branch currents.
fn trajectory_hash(res: &TransientResult, branches: &[String]) -> u64 {
    let mut bytes = Vec::new();
    let mut series: Vec<&[f64]> = vec![res.time()];
    for name in res.node_names() {
        series.push(res.voltage(name).unwrap());
    }
    for name in branches {
        series.push(res.current(name).unwrap());
    }
    for s in series {
        for v in s {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    fnv1a(&bytes)
}

/// 64-bit FNV-1a (offset basis `0xcbf29ce484222325`, prime `0x100000001b3`).
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn solver_engines_agree_on_extracted_netlist() {
    use rlcx::spice::ac::{Ac, Sweep};
    // Dense LU is kept as the oracle for the sparse engine. Compare the
    // two on extracted netlists at the sizes the skew flow simulates (one
    // H-tree stage, RC and RLC, one and two sections) and on a long
    // ladder the size of the tail stages, through fixed and adaptive
    // transients and an AC sweep.
    let ex = extractor();
    let ladder = TreeNetlistBuilder::new(&ex)
        .sections_per_segment(24)
        .driver_resistance(25.0)
        .input(Waveform::ramp(0.0, 1.0, 0.0, 20e-12))
        .build(
            &straight_net(4000.0),
            &Block::coplanar_waveguide(1.0, 5.0, 5.0, 1.0).unwrap(),
        )
        .unwrap();
    let cases = [
        (9, clock_stage(&ex, 1, false), 1.8),
        (15, clock_stage(&ex, 2, false), 1.8),
        (21, clock_stage(&ex, 1, true), 1.8),
        (39, clock_stage(&ex, 2, true), 1.8),
        (75, ladder, 1.0),
    ];
    for (dim, out, swing) in cases {
        assert_eq!(mna_dim(&out.netlist), dim);
        // The sink delays a stage is signed off on.
        let delays = |res: &TransientResult| -> Vec<f64> {
            let vin = res.voltage("drv_in").unwrap();
            out.sinks
                .iter()
                .map(|sink| {
                    let vout = res.voltage(sink).unwrap();
                    measure::delay_50(res.time(), vin, vout, 0.0, swing).unwrap()
                })
                .collect()
        };
        for stepping in [
            Stepping::Fixed,
            Stepping::Adaptive(AdaptiveOptions::default()),
        ] {
            let run = |engine: SolverEngine| {
                Transient::new(&out.netlist)
                    .engine(engine)
                    .stepping(stepping.clone())
                    .timestep(0.5e-12)
                    .duration(1e-9)
                    .run()
                    .unwrap()
            };
            let dense = run(SolverEngine::Dense);
            let sparse = run(SolverEngine::Sparse);
            let agree = |what: &str, d: &[f64], s: &[f64], floor: f64| {
                assert_eq!(
                    d.len(),
                    s.len(),
                    "dim {dim} {stepping:?} {what}: sample counts"
                );
                for (d, s) in d.iter().zip(s) {
                    let tol = 1e-12 * d.abs().max(floor);
                    assert!(
                        (d - s).abs() <= tol,
                        "dim {dim} {stepping:?} {what}: {d} vs {s}"
                    );
                }
            };
            // On the fixed axis every sample must agree. The adaptive
            // controller sizes its steps from error estimates that are
            // differences of nearly equal solutions, so roundoff moves
            // the time axis (same step count, shifted samples); there
            // the sink delays carry the comparison.
            if stepping == Stepping::Fixed {
                agree("time", dense.time(), sparse.time(), 0.0);
                for name in dense.node_names() {
                    agree(
                        name,
                        dense.voltage(name).unwrap(),
                        sparse.voltage(name).unwrap(),
                        1.0,
                    );
                }
                agree(
                    "drv",
                    dense.current("drv").unwrap(),
                    sparse.current("drv").unwrap(),
                    1.0,
                );
            } else {
                assert_eq!(dense.steps_accepted(), sparse.steps_accepted(), "dim {dim}");
            }
            agree("sink delays", &delays(&dense), &delays(&sparse), 0.0);
        }

        let ac = |engine: SolverEngine| {
            Ac::new(&out.netlist)
                .sweep(Sweep::log(1e8, 5e10, 15))
                .engine(engine)
                .run()
                .unwrap()
        };
        let (ac_dense, ac_sparse) = (ac(SolverEngine::Dense), ac(SolverEngine::Sparse));
        for sink in &out.sinks {
            for (d, s) in ac_dense
                .voltage(sink)
                .unwrap()
                .iter()
                .zip(ac_sparse.voltage(sink).unwrap())
            {
                assert!(
                    (*d - *s).abs() / d.abs().max(1.0) < 1e-9,
                    "dim {dim} AC {sink}: {d:?} vs {s:?}"
                );
            }
        }
    }
}

#[test]
fn pinned_trajectory_hashes_hold() {
    // Bit-exact fingerprints of fixed and adaptive trajectories on one
    // clock stage (39 unknowns) and one mutually coupled netlist, taken
    // from the sparse engine while the step loop still matched on every
    // element. The default engine must reproduce them: any change to the
    // companion-model arithmetic or its accumulation order moves them.
    let ex = extractor();
    let stage = clock_stage(&ex, 2, true);
    let stage_branches = clock_stage_branches(2);
    let (coupled, coupled_branches) = coupled_lines();
    let cases: [(&str, &Netlist, &[String], Stepping, u64); 4] = [
        (
            "stage fixed",
            &stage.netlist,
            &stage_branches,
            Stepping::Fixed,
            0x0510e2c8ee7a3779,
        ),
        (
            "stage adaptive",
            &stage.netlist,
            &stage_branches,
            Stepping::Adaptive(AdaptiveOptions::default()),
            0xc1a1416ba4e92b7c,
        ),
        (
            "coupled fixed",
            &coupled,
            &coupled_branches,
            Stepping::Fixed,
            0x48286ea861d6c370,
        ),
        (
            "coupled adaptive",
            &coupled,
            &coupled_branches,
            Stepping::Adaptive(AdaptiveOptions::default()),
            0xb8dfc301593a1487,
        ),
    ];
    let mut moved = Vec::new();
    for (what, nl, branches, stepping, pinned) in cases {
        let res = Transient::new(nl)
            .stepping(stepping)
            .timestep(0.5e-12)
            .duration(1e-9)
            .run()
            .unwrap();
        let hash = trajectory_hash(&res, branches);
        if hash != pinned {
            moved.push(format!("{what}: {hash:#018x} (pinned {pinned:#018x})"));
        }
    }
    assert!(
        moved.is_empty(),
        "trajectory hashes moved:\n{}",
        moved.join("\n")
    );
}

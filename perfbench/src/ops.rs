//! Seeded op generation.
//!
//! The benchmark draws every input from `--seed`; the program only receives
//! the generated ops. Ops come in *rounds*: each round holds its workload's
//! fixed list of op classes, in a seeded order and with seeded geometry.
//! A run executes whole rounds, so the op mix — and with it every blended
//! figure — is the same on every seed while the inputs themselves differ.

use crate::stats::fnv1a;
use rlcx_geom::ShieldConfig;
use rlcx_numeric::rng::{SplitMix64, UniformRng};
use std::fmt::Write as _;

/// Rounds generated per run: more than a 60 s run of the cheapest
/// workload (`skew_reduced`, about 10 rounds per second) consumes.
pub const ROUNDS: usize = 1024;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold table characterization jobs.
    Characterize,
    /// Clock-tree sign-off queries on the transient path.
    SkewTransient,
    /// The same queries on the PRIMA macromodel path.
    SkewReduced,
    /// Multi-port filament impedance solves.
    Fieldsolve,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::Characterize,
        Workload::SkewTransient,
        Workload::SkewReduced,
        Workload::Fieldsolve,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Characterize => "characterize",
            Workload::SkewTransient => "skew_transient",
            Workload::SkewReduced => "skew_reduced",
            Workload::Fieldsolve => "fieldsolve",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One cold characterization job around the experiment grid.
#[derive(Debug, Clone, PartialEq)]
pub struct CharJob {
    /// Cost class.
    pub kind: &'static str,
    /// Routing layer of the copper stackup.
    pub layer: usize,
    /// Driver rise time (s); the job runs at the significant frequency
    /// `0.32 / rise`.
    pub rise: f64,
    /// Filament mesh `(nw, nt)`.
    pub mesh: (usize, usize),
    /// Width axis (µm).
    pub widths: Vec<f64>,
    /// Spacing axis (µm).
    pub spacings: Vec<f64>,
    /// Length axis (µm).
    pub lengths: Vec<f64>,
    /// Loop tables to characterize.
    pub shields: Vec<ShieldConfig>,
}

impl CharJob {
    /// Significant frequency (Hz).
    pub fn frequency(&self) -> f64 {
        0.32 / self.rise
    }
}

/// Clock-tree query kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkewKind {
    /// `analyze` of the nominal tree.
    Nominal,
    /// `analyze_tapered` with one cross-section per level.
    Tapered,
    /// `analyze` with `include_inductance(false)`.
    Rc,
    /// `analyze_with_variation` (one geometry draw per stage instance).
    MonteCarlo,
}

/// A guarded clock-wire cross-section.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cross {
    /// Signal width (µm).
    pub signal: f64,
    /// Ground width (µm).
    pub ground: f64,
    /// Signal-to-ground spacing (µm).
    pub spacing: f64,
    /// Microstrip (plane below) instead of coplanar.
    pub plane: bool,
}

/// One clock-tree sign-off query.
#[derive(Debug, Clone, PartialEq)]
pub struct SkewOp {
    /// Query kind.
    pub kind: SkewKind,
    /// Buffer levels.
    pub depth: usize,
    /// Die half-span (µm).
    pub span: f64,
    /// π-sections per segment.
    pub sections: usize,
    /// Strong (15 Ω) rather than typical (40 Ω) buffers.
    pub strong: bool,
    /// One cross-section, or one per level for tapered queries.
    pub crosses: Vec<Cross>,
    /// Seed of the Monte-Carlo draws.
    pub mc_seed: u64,
    /// Keep nominal L under variation (the paper's recipe).
    pub nominal_l: bool,
}

/// Geometry of a multi-port field solve.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldGeom {
    /// Coplanar G-S-G: trace `(y, width)` triples at one height.
    Coplanar {
        /// `(y offset, width)` per trace (µm).
        traces: Vec<(f64, f64)>,
    },
    /// Signal and grounds over a plane cut into `strips` strips.
    Microstrip {
        /// `(y offset, width)` per trace (µm).
        traces: Vec<(f64, f64)>,
        /// Plane width (µm).
        plane_width: f64,
        /// Plane strips.
        strips: usize,
        /// Trace-to-plane gap (µm).
        height: f64,
    },
    /// A bundle of parallel same-layer wires.
    Bundle {
        /// `(y offset, width)` per wire (µm).
        traces: Vec<(f64, f64)>,
    },
}

/// One filament impedance solve.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldOp {
    /// Cost class.
    pub kind: &'static str,
    /// Conductor layout.
    pub geom: FieldGeom,
    /// Conductor length (µm).
    pub length: f64,
    /// Conductor thickness (µm).
    pub thickness: f64,
    /// Trace mesh `(nw, nt)`.
    pub mesh: (usize, usize),
    /// Plane-strip mesh `(nw, nt)` (microstrip only).
    pub strip_mesh: (usize, usize),
    /// Frequency (Hz).
    pub frequency: f64,
}

/// Any op.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A characterization job.
    Char(CharJob),
    /// A clock-tree query.
    Skew(SkewOp),
    /// A field solve.
    Field(FieldOp),
}

/// Every op kind any workload emits, for the per-kind latency figures.
pub const KINDS: [&str; 12] = [
    "grid_small",
    "grid_plane",
    "grid_mid",
    "grid_fine",
    "grid_wide",
    "nominal",
    "tapered",
    "rc",
    "mc",
    "cpw",
    "microstrip",
    "bundle",
];

impl Op {
    /// The op's kind (one of [`KINDS`]).
    pub fn kind(&self) -> &'static str {
        match self {
            Op::Char(j) => j.kind,
            Op::Skew(s) => match s.kind {
                SkewKind::Nominal => "nominal",
                SkewKind::Tapered => "tapered",
                SkewKind::Rc => "rc",
                SkewKind::MonteCarlo => "mc",
            },
            Op::Field(f) => f.kind,
        }
    }

    /// Canonical text of the op; floats are written as exact bit patterns.
    pub fn describe(&self) -> String {
        let mut s = String::new();
        let bits = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{:016x}", x.to_bits()))
                .collect::<Vec<_>>()
                .join(",")
        };
        match self {
            Op::Char(j) => {
                let _ = write!(
                    s,
                    "char {} layer={} rise={} mesh={}x{} w=[{}] s=[{}] l=[{}] shields={:?}",
                    j.kind,
                    j.layer,
                    bits(&[j.rise]),
                    j.mesh.0,
                    j.mesh.1,
                    bits(&j.widths),
                    bits(&j.spacings),
                    bits(&j.lengths),
                    j.shields
                );
            }
            Op::Skew(q) => {
                let _ = write!(
                    s,
                    "skew {:?} depth={} span={} sections={} strong={} mc_seed={} nominal_l={}",
                    q.kind,
                    q.depth,
                    bits(&[q.span]),
                    q.sections,
                    q.strong,
                    q.mc_seed,
                    q.nominal_l
                );
                for c in &q.crosses {
                    let _ = write!(
                        s,
                        " cross=[{}] plane={}",
                        bits(&[c.signal, c.ground, c.spacing]),
                        c.plane
                    );
                }
            }
            Op::Field(f) => {
                let _ = write!(
                    s,
                    "field {} len={} t={} mesh={}x{} strip_mesh={}x{} f={} geom={:?}",
                    f.kind,
                    bits(&[f.length]),
                    bits(&[f.thickness]),
                    f.mesh.0,
                    f.mesh.1,
                    f.strip_mesh.0,
                    f.strip_mesh.1,
                    bits(&[f.frequency]),
                    f.geom
                );
            }
        }
        s
    }
}

/// The seeded op list of `workload`: [`ROUNDS`] rounds.
pub fn generate(workload: Workload, seed: u64) -> Vec<Vec<Op>> {
    let mut rng = SplitMix64::new(seed ^ 0x5EED_0000_0000_0000 ^ workload as u64);
    let streams = if workload == Workload::Fieldsolve {
        FIELD_OPS * FieldDraw::COUNT
    } else {
        0
    };
    let draws: Vec<Vec<f64>> = (0..streams).map(|_| stratified(&mut rng, ROUNDS)).collect();
    (0..ROUNDS)
        .map(|r| {
            let mut round = match workload {
                Workload::Characterize => char_round(&mut rng),
                Workload::SkewTransient | Workload::SkewReduced => skew_round(&mut rng),
                Workload::Fieldsolve => field_round(&mut rng, |op, d| {
                    draws[op * FieldDraw::COUNT + d as usize][r]
                }),
            };
            shuffle(&mut round, &mut rng);
            round
        })
        .collect()
}

/// FNV-1a of the canonical op list text.
pub fn list_hash(rounds: &[Vec<Op>]) -> u64 {
    let mut text = String::new();
    for op in rounds.iter().flatten() {
        text.push_str(&op.describe());
        text.push('\n');
    }
    fnv1a(text.as_bytes())
}

/// Field solves per round.
const FIELD_OPS: usize = 5;
/// Cells of a stratified draw.
const STRATA: usize = 6;

/// `n` draws in [0, 1), stratified: each block of [`STRATA`] draws holds one
/// value from each of [`STRATA`] equal cells, in seeded order.
fn stratified(rng: &mut SplitMix64, n: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(n + STRATA);
    while out.len() < n {
        let mut cells: Vec<usize> = (0..STRATA).collect();
        shuffle(&mut cells, rng);
        out.extend(
            cells
                .into_iter()
                .map(|c| (c as f64 + rng.next_f64()) / STRATA as f64),
        );
    }
    out.truncate(n);
    out
}

fn shuffle<T>(v: &mut [T], rng: &mut SplitMix64) {
    for i in (1..v.len()).rev() {
        let j = pick(rng, i + 1);
        v.swap(i, j);
    }
}

fn pick(rng: &mut SplitMix64, n: usize) -> usize {
    ((rng.next_f64() * n as f64) as usize).min(n - 1)
}

fn choose<T: Copy>(rng: &mut SplitMix64, items: &[T]) -> T {
    items[pick(rng, items.len())]
}

/// `k` of `axis` in increasing order, each jittered by up to ±`jitter`
/// of the gap to its neighbours so the axis stays strictly increasing.
fn sub_axis(rng: &mut SplitMix64, axis: &[f64], k: usize, jitter: f64) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..axis.len()).collect();
    shuffle(&mut idx, rng);
    idx.truncate(k);
    idx.sort_unstable();
    idx.into_iter()
        .map(|i| axis[i] * (1.0 + jitter * (2.0 * rng.next_f64() - 1.0)))
        .collect()
}

/// The experiment grid the characterization jobs are drawn around.
const EXP_WIDTHS: [f64; 5] = [1.0, 2.0, 5.0, 10.0, 20.0];
const EXP_SPACINGS: [f64; 4] = [0.5, 1.0, 2.0, 5.0];
const EXP_LENGTHS: [f64; 7] = [100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0, 6400.0];

/// `(kind, mesh, widths, spacings, lengths, with plane loop table)`.
type CharClass = (&'static str, (usize, usize), usize, usize, usize, bool);

fn char_round(rng: &mut SplitMix64) -> Vec<Op> {
    // An odd number of classes whose middle three lie close together puts
    // the median op in a dense cost range rather than on a gap.
    let classes: [CharClass; 5] = [
        ("grid_small", (2, 1), 2, 2, 3, false),
        ("grid_plane", (2, 1), 2, 2, 4, true),
        ("grid_mid", (3, 2), 2, 2, 3, false),
        ("grid_fine", (3, 2), 2, 2, 4, false),
        ("grid_wide", (3, 2), 2, 2, 3, true),
    ];
    classes
        .into_iter()
        .map(|(kind, mesh, nw, ns, nl, plane)| {
            let mut shields = vec![ShieldConfig::Coplanar];
            if plane {
                shields.push(ShieldConfig::PlaneBelow);
            }
            Op::Char(CharJob {
                kind,
                layer: choose(rng, &[4, 5]),
                rise: choose(rng, &[50e-12, 75e-12, 100e-12, 150e-12]),
                mesh,
                widths: sub_axis(rng, &EXP_WIDTHS, nw, 0.1),
                spacings: sub_axis(rng, &EXP_SPACINGS, ns, 0.1),
                lengths: sub_axis(rng, &EXP_LENGTHS, nl, 0.1),
                shields,
            })
        })
        .collect()
}

fn skew_round(rng: &mut SplitMix64) -> Vec<Op> {
    use SkewKind::*;
    // (kind, depth, sections): π-sections {1, 2, 4} give stage MNA sizes
    // 21, 39 and 75, on both sides of the sparse cutover (48). A third of
    // the round is cheap on both the transient and the reduced path, a
    // third costs ≥ 1.5× the middle third on both, and the middle third is
    // one cost level, so the median op always falls inside that level.
    let classes: [(SkewKind, usize, usize); 15] = [
        (Rc, 4, 1),
        (Rc, 4, 2),
        (Nominal, 3, 1),
        (Nominal, 4, 1),
        (Tapered, 4, 1),
        (Nominal, 3, 2),
        (Nominal, 3, 2),
        (Nominal, 3, 2),
        (Tapered, 3, 2),
        (Tapered, 3, 2),
        (Nominal, 5, 2),
        (Nominal, 5, 4),
        (Tapered, 5, 2),
        (MonteCarlo, 2, 2),
        (MonteCarlo, 2, 4),
    ];
    classes
        .into_iter()
        .map(|(kind, depth, sections)| {
            // Few distinct nominal geometries, so stages repeat across
            // queries; Monte-Carlo draws never repeat.
            let cross = |rng: &mut SplitMix64, signal: f64| Cross {
                signal,
                ground: signal,
                spacing: choose(rng, &[1.0, 2.0]),
                plane: choose(rng, &[false, true]),
            };
            let crosses = if kind == Tapered {
                let trunk: f64 = choose(rng, &[10.0, 20.0]);
                let shared = cross(rng, trunk);
                (0..depth)
                    .map(|l| Cross {
                        signal: (trunk / f64::from(1u32 << l)).max(2.0),
                        ground: (trunk / f64::from(1u32 << l)).max(2.0),
                        ..shared
                    })
                    .collect()
            } else if kind == MonteCarlo {
                // Pitch-preserving width draws eat into the spacing; keep
                // wide enough gaps that a 4σ draw still leaves one.
                vec![Cross {
                    spacing: choose(rng, &[1.5, 2.0]),
                    ..cross(rng, 5.0)
                }]
            } else {
                let w = choose(rng, &[5.0, 10.0]);
                vec![cross(rng, w)]
            };
            Op::Skew(SkewOp {
                kind,
                depth,
                span: choose(rng, &[8000.0, 10000.0, 12800.0]),
                sections,
                strong: choose(rng, &[false, true]),
                crosses,
                mc_seed: rng.next_u64(),
                nominal_l: choose(rng, &[false, true]),
            })
        })
        .collect()
}

/// The draws of a field solve that are stratified over rounds. A solve's
/// cost grows with its frequency and conductor thickness and, over a
/// plane, falls with the trace height; drawing these from a stratified
/// stream per op class gives every run the same spread of them, so a
/// class's upper quantile — where `op_tail_ms` lands — does not follow the
/// seed.
#[derive(Debug, Clone, Copy)]
enum FieldDraw {
    /// Driver rise time, 30–100 ps; the solve runs at `0.32 / rise`.
    Rise,
    /// Conductor thickness.
    Thickness,
    /// Trace height over the plane (microstrip only).
    Height,
}

impl FieldDraw {
    const COUNT: usize = 3;
}

/// One round of field solves; `u(i, d)` is the stratified draw in [0, 1)
/// of `d` for the round's `i`-th solve.
fn field_round(rng: &mut SplitMix64, u: impl Fn(usize, FieldDraw) -> f64) -> Vec<Op> {
    let length = |rng: &mut SplitMix64| rng.uniform(500.0, 2000.0);
    let frequency = |i: usize| 0.32 / (30e-12 + 70e-12 * u(i, FieldDraw::Rise));
    let thickness = |i: usize, lo: f64, hi: f64| lo + (hi - lo) * u(i, FieldDraw::Thickness);
    let row = |rng: &mut SplitMix64, n: usize, w: (f64, f64), gap: (f64, f64)| {
        let mut y = 0.0;
        (0..n)
            .map(|_| {
                let width = rng.uniform(w.0, w.1);
                let t = (y, width);
                y += width + rng.uniform(gap.0, gap.1);
                t
            })
            .collect::<Vec<_>>()
    };
    let mut ops = Vec::with_capacity(FIELD_OPS);
    // Coplanar sizes: 288 (dense), 864 and 2400 filaments.
    for (i, mesh) in [(12, 8), (18, 16), (25, 32)].into_iter().enumerate() {
        ops.push(FieldOp {
            kind: "cpw",
            geom: FieldGeom::Coplanar {
                traces: row(rng, 3, (4.0, 12.0), (0.8, 3.0)),
            },
            length: length(rng),
            thickness: thickness(i, 1.5, 2.5),
            mesh,
            strip_mesh: (1, 1),
            frequency: frequency(i),
        });
    }
    let traces = row(rng, 3, (3.0, 10.0), (0.8, 3.0));
    let span = traces.last().map_or(0.0, |&(y, w)| y + w);
    ops.push(FieldOp {
        kind: "microstrip",
        geom: FieldGeom::Microstrip {
            traces,
            plane_width: span + rng.uniform(10.0, 30.0),
            strips: 24,
            height: 2.0 + 3.0 * u(3, FieldDraw::Height),
        },
        length: length(rng),
        thickness: thickness(3, 1.0, 2.0),
        mesh: (10, 6),
        strip_mesh: (8, 2),
        frequency: frequency(3),
    }); // 3·60 + 24·16 = 564 filaments
    ops.push(FieldOp {
        kind: "bundle",
        geom: FieldGeom::Bundle {
            traces: row(rng, 6, (2.0, 8.0), (2.0, 10.0)),
        },
        length: length(rng),
        thickness: thickness(4, 1.0, 2.5),
        mesh: (12, 10),
        strip_mesh: (1, 1),
        frequency: frequency(4),
    }); // 6·120 = 720 filaments
    ops.into_iter().map(Op::Field).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_a_byte_identical_list() {
        for w in Workload::ALL {
            let a = generate(w, 7);
            let b = generate(w, 7);
            let text = |r: &[Vec<Op>]| r.iter().flatten().map(Op::describe).collect::<Vec<_>>();
            assert_eq!(text(&a), text(&b));
            assert_eq!(list_hash(&a), list_hash(&b));
        }
    }

    #[test]
    fn different_seed_gives_a_different_list() {
        for w in Workload::ALL {
            assert_ne!(list_hash(&generate(w, 7)), list_hash(&generate(w, 8)));
        }
    }

    #[test]
    fn every_round_holds_the_same_mix() {
        for w in Workload::ALL {
            let rounds = generate(w, 3);
            let mix = |r: &[Op]| {
                let mut k: Vec<&str> = r.iter().map(Op::kind).collect();
                k.sort_unstable();
                k
            };
            let first = mix(&rounds[0]);
            assert!(rounds.iter().all(|r| mix(r) == first));
            assert!(first.iter().all(|k| KINDS.contains(k)));
        }
    }

    #[test]
    fn stratified_draws_fill_every_cell_once_per_block() {
        let mut rng = SplitMix64::new(5);
        let u = stratified(&mut rng, 4 * STRATA + 1);
        assert_eq!(u.len(), 4 * STRATA + 1);
        for block in u.chunks_exact(STRATA) {
            let mut cells: Vec<usize> = block
                .iter()
                .map(|&x| (x * STRATA as f64) as usize)
                .collect();
            cells.sort_unstable();
            assert_eq!(cells, (0..STRATA).collect::<Vec<_>>());
        }
    }

    #[test]
    fn characterization_axes_stay_strictly_increasing() {
        for round in generate(Workload::Characterize, 11) {
            for op in round {
                let Op::Char(j) = op else { unreachable!() };
                for axis in [&j.widths, &j.spacings, &j.lengths] {
                    assert!(axis.windows(2).all(|p| p[0] < p[1]), "{axis:?}");
                }
            }
        }
    }
}

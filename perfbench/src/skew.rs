//! `skew_transient` and `skew_reduced`: clock-tree sign-off queries through
//! `ClockTreeAnalyzer`, and the same queries decomposed into the public
//! calls the analyzer makes.

use crate::ops::{Cross, SkewKind, SkewOp};
use crate::stats::fnv1a;
use crate::trace::span;
use rlcx_cap::VariationSpec;
use rlcx_clocktree::{BufferModel, ClockTreeAnalyzer, SkewReport};
use rlcx_core::{ClocktreeExtractor, TableBuilder, TreeNetlistBuilder};
use rlcx_geom::{Block, BlockBuilder, HTree, SegmentTree, ShieldConfig, Stackup};
use rlcx_numeric::rng::SplitMix64;
use rlcx_peec::MeshSpec;
use rlcx_spice::{measure, Reduce, ReductionOrder, Stepping, Transient, Waveform};
use std::time::Instant;

/// The clock layer of the copper stackup the trees are routed on.
const CLOCK_LAYER: usize = 5;

/// Analyzer defaults the facade runs with; the decomposed path reads the
/// same values.
const TIMESTEP: f64 = 0.5e-12;
const DURATION: f64 = 3e-9;

/// Set-up: characterizes the experiment table set (widths 1–20 µm,
/// lengths 100–6400 µm, coplanar and microstrip loop tables) cold.
pub fn setup() -> Result<ClocktreeExtractor, String> {
    let stack = Stackup::hp_six_metal_copper();
    let tables = TableBuilder::new(stack.clone(), CLOCK_LAYER)
        .map_err(|e| e.to_string())?
        .widths(vec![1.0, 2.0, 5.0, 10.0, 20.0])
        .spacings(vec![0.5, 1.0, 2.0, 5.0])
        .lengths(vec![100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0, 6400.0])
        .shields(vec![ShieldConfig::Coplanar, ShieldConfig::PlaneBelow])
        .mesh(MeshSpec::new(3, 2))
        .frequency(3.2e9)
        .build()
        .map_err(|e| e.to_string())?;
    ClocktreeExtractor::new(stack, CLOCK_LAYER, tables).map_err(|e| e.to_string())
}

/// How a query's stage delays are evaluated.
#[derive(Debug, Clone, Copy)]
pub struct Engine {
    /// `Some` for the PRIMA macromodel path.
    pub reduction: Option<ReductionOrder>,
    /// Transient timestep (s).
    pub timestep: f64,
}

impl Engine {
    /// The transient path at the analyzer's default timestep.
    pub fn transient() -> Engine {
        Engine {
            reduction: None,
            timestep: TIMESTEP,
        }
    }

    /// The macromodel path at the default reduction order.
    pub fn reduced() -> Engine {
        Engine {
            reduction: Some(ReductionOrder::default()),
            timestep: TIMESTEP,
        }
    }
}

fn buffer(op: &SkewOp) -> BufferModel {
    if op.strong {
        BufferModel::strong()
    } else {
        BufferModel::typical()
    }
}

fn block(c: &Cross) -> Result<Block, String> {
    let b = if c.plane {
        Block::microstrip(1.0, c.signal, c.ground, c.spacing)
    } else {
        Block::coplanar_waveguide(1.0, c.signal, c.ground, c.spacing)
    };
    b.map_err(|e| e.to_string())
}

fn analyzer<'a>(ex: &'a ClocktreeExtractor, op: &SkewOp, engine: Engine) -> ClockTreeAnalyzer<'a> {
    let an = ClockTreeAnalyzer::new(ex, buffer(op))
        .sections(op.sections)
        .include_inductance(op.kind != SkewKind::Rc)
        .timestep(engine.timestep)
        .duration(DURATION);
    match engine.reduction {
        Some(order) => an.reduced(order),
        None => an,
    }
}

/// The facade op: one `ClockTreeAnalyzer` query.
pub fn facade(ex: &ClocktreeExtractor, op: &SkewOp, engine: Engine) -> Result<SkewReport, String> {
    let an = analyzer(ex, op, engine);
    let htree = HTree::new(op.depth, op.span).map_err(|e| e.to_string())?;
    let blocks = op
        .crosses
        .iter()
        .map(block)
        .collect::<Result<Vec<_>, _>>()?;
    let out = match op.kind {
        SkewKind::Nominal | SkewKind::Rc => an.analyze(&htree, &blocks[0]),
        SkewKind::Tapered => an.analyze_tapered(&htree, &blocks),
        SkewKind::MonteCarlo => an.analyze_with_variation(
            &htree,
            &blocks[0],
            &VariationSpec::typical(),
            op.nominal_l,
            &mut SplitMix64::new(op.mc_seed),
        ),
    };
    out.map_err(|e| e.to_string())
}

/// What the decomposed path observes about each stage it simulates,
/// collected outside the op's timed wall.
#[derive(Debug, Default)]
pub struct StageProbe {
    /// FNV-1a of each stage's SPICE deck.
    pub hashes: Vec<u64>,
    /// MNA unknowns of each stage.
    pub dims: Vec<usize>,
    /// Per-segment table lookup times (s).
    pub lookups: Vec<f64>,
    /// Reduced-model orders.
    pub orders: Vec<usize>,
    /// Unstable poles over all reduced models.
    pub unstable: usize,
    /// Accepted plus rejected transient steps.
    pub steps: usize,
    /// Seconds the probes took; excluded from the op's wall time.
    pub probe_s: f64,
}

/// The same query driven through the calls `ClockTreeAnalyzer` makes, in
/// the same order: `stage_tree` → `TreeNetlistBuilder::build` → either
/// `Transient::run` + `measure::delay_50` or `Reduce::run` +
/// `delay_50_all`, then the path accumulation.
pub fn decomposed(
    ex: &ClocktreeExtractor,
    op: &SkewOp,
    engine: Engine,
    probe: &mut StageProbe,
) -> Result<SkewReport, String> {
    let buf = buffer(op);
    let htree = span("geom", || HTree::new(op.depth, op.span)).map_err(|e| e.to_string())?;
    let blocks = span("geom", || {
        op.crosses.iter().map(block).collect::<Result<Vec<_>, _>>()
    })?;
    let mut totals = vec![buf.intrinsic_delay];
    match op.kind {
        SkewKind::Nominal | SkewKind::Rc | SkewKind::Tapered => {
            let mut per_level = Vec::with_capacity(op.depth);
            for (l, level) in htree.iter().enumerate() {
                let cross = if op.kind == SkewKind::Tapered {
                    &blocks[l]
                } else {
                    &blocks[0]
                };
                let stage = span("geom", || level.stage_tree());
                per_level.push(stage_delays(ex, op, engine, &stage, cross, probe)?);
            }
            span("clocktree", || {
                for delays in &per_level {
                    let mut next = Vec::with_capacity(totals.len() * delays.len());
                    for &t in &totals {
                        for &d in delays {
                            next.push(t + d + buf.intrinsic_delay);
                        }
                    }
                    totals = next;
                }
            });
        }
        SkewKind::MonteCarlo => {
            let spec = VariationSpec::typical();
            let mut rng = SplitMix64::new(op.mc_seed);
            for level in htree.iter() {
                let stage = span("geom", || level.stage_tree());
                let mut next = Vec::new();
                for &t in &totals {
                    let (sampled, _, _) =
                        span("cap.sample", || spec.sample_block(&blocks[0], &mut rng))
                            .map_err(|e| e.to_string())?;
                    let cross = if op.nominal_l {
                        span("geom", || blend_nominal_l(&blocks[0], &sampled))?
                    } else {
                        sampled
                    };
                    let delays = stage_delays(ex, op, engine, &stage, &cross, probe)?;
                    span("clocktree", || {
                        for &d in &delays {
                            next.push(t + d + buf.intrinsic_delay);
                        }
                    });
                }
                totals = next;
            }
        }
    }
    Ok(span("clocktree", || {
        let insertion_delay = if totals.is_empty() {
            0.0
        } else {
            totals.iter().sum::<f64>() / totals.len() as f64
        };
        SkewReport {
            sink_delays: totals,
            insertion_delay,
        }
    }))
}

/// `ClockTreeAnalyzer::stage_delays` through its public parts.
fn stage_delays(
    ex: &ClocktreeExtractor,
    op: &SkewOp,
    engine: Engine,
    stage: &SegmentTree,
    cross: &Block,
    probe: &mut StageProbe,
) -> Result<Vec<f64>, String> {
    let buf = buffer(op);
    let out = span("core.netlist", || {
        let loads = vec![buf.input_cap; stage.leaves().len()];
        TreeNetlistBuilder::new(ex)
            .sections_per_segment(op.sections)
            .include_inductance(op.kind != SkewKind::Rc)
            .driver_resistance(buf.resistance)
            .input(Waveform::ramp(0.0, buf.swing, 0.0, buf.rise_time))
            .sink_caps(loads)
            .build(stage, cross)
    })
    .map_err(|e| e.to_string())?;
    probed(probe, |p| {
        p.hashes.push(fnv1a(
            rlcx_spice::writer::to_spice(&out.netlist, "stage").as_bytes(),
        ));
        for e in 0..stage.edges().len() {
            let seg = cross
                .with_length(stage.edge_length(e))
                .map_err(|e| e.to_string())?;
            let t0 = Instant::now();
            ex.extract_segment(&seg).map_err(|e| e.to_string())?;
            p.lookups.push(t0.elapsed().as_secs_f64());
        }
        Ok(())
    })?;
    if let Some(order) = engine.reduction {
        let model = span("spice.reduce", || {
            Reduce::new(&out.netlist)
                .order(order)
                .outputs(out.sinks.iter().map(String::as_str))
                .run()
        })
        .map_err(|e| e.to_string())?;
        probed(probe, |p| {
            p.dims.push(model.full_order());
            p.orders.push(model.order());
            p.unstable += model.unstable_count();
            Ok(())
        })?;
        let raw =
            span("spice.query", || model.delay_50_all(DURATION)).map_err(|e| e.to_string())?;
        return span("spice.query", || {
            out.sinks
                .iter()
                .zip(raw)
                .map(|(sink, d)| d.ok_or_else(|| format!("sink {sink} never reached midswing")))
                .collect()
        });
    }
    let res = span("spice.transient", || {
        Transient::new(&out.netlist)
            .timestep(engine.timestep)
            .duration(DURATION)
            .stepping(Stepping::default())
            .run()
    })
    .map_err(|e| e.to_string())?;
    probed(probe, |p| {
        p.steps += res.steps_accepted() + res.steps_rejected();
        p.dims.push(gauge_dim());
        Ok(())
    })?;
    span("spice.measure", || {
        let time = res.time().to_vec();
        let vin = res.voltage("drv_in").map_err(|e| e.to_string())?.to_vec();
        let mut delays = Vec::with_capacity(out.sinks.len());
        for sink in &out.sinks {
            let vout = res.voltage(sink).map_err(|e| e.to_string())?.to_vec();
            let d = measure::delay_50(&time, &vin, &vout, 0.0, buf.swing)
                .ok_or_else(|| format!("sink {sink} never reached midswing"))?;
            delays.push(d);
        }
        Ok(delays)
    })
}

/// MNA size of the last transient, as the simulator publishes it.
fn gauge_dim() -> usize {
    match rlcx_numeric::obs::metric_value("spice.mna.dim") {
        Some(rlcx_numeric::obs::MetricValue::Gauge(v)) => v as usize,
        _ => 0,
    }
}

fn probed(
    probe: &mut StageProbe,
    f: impl FnOnce(&mut StageProbe) -> Result<(), String>,
) -> Result<(), String> {
    let t0 = Instant::now();
    let out = f(probe);
    probe.probe_s += t0.elapsed().as_secs_f64();
    out
}

/// The analyzer's "nominal L + statistical RC" block: nominal widths (the
/// loop-table key) with the sampled spacings.
fn blend_nominal_l(nominal: &Block, sampled: &Block) -> Result<Block, String> {
    let mut b = BlockBuilder::new(nominal.length()).shield(nominal.shield());
    for i in 0..nominal.widths().len() {
        b = b.trace(nominal.widths()[i]);
        if i < sampled.spacings().len() {
            b = b.space(sampled.spacings()[i]);
        }
    }
    b.build().map_err(|e| e.to_string())
}

/// Every reported number, as bits, for the bit-identity assertion.
pub fn bits(r: &SkewReport) -> Vec<u64> {
    let mut out = vec![r.insertion_delay.to_bits()];
    out.extend(r.sink_delays.iter().map(|d| d.to_bits()));
    out
}

/// Output checks: one finite positive delay per sink, zero skew on the
/// symmetric (non-Monte-Carlo) trees, bounded nonzero skew under variation,
/// and no unstable reduced-model pole.
pub fn check(op: &SkewOp, r: &SkewReport, unstable_poles: usize) -> Result<(), String> {
    let sinks = 1usize << (2 * op.depth);
    if r.sink_delays.len() != sinks {
        return Err(format!(
            "{} sink delays for {sinks} sinks",
            r.sink_delays.len()
        ));
    }
    if let Some(d) = r.sink_delays.iter().find(|d| !(d.is_finite() && **d > 0.0)) {
        return Err(format!("non-positive or non-finite sink delay {d}"));
    }
    let skew = r.skew();
    if op.kind == SkewKind::MonteCarlo {
        if !(skew > 0.0 && skew < 0.3 * r.insertion_delay) {
            return Err(format!(
                "Monte-Carlo skew {skew} outside (0, 0.3·insertion)"
            ));
        }
    } else if skew >= 1e-15 {
        return Err(format!("symmetric tree has skew {skew}"));
    }
    if unstable_poles != 0 {
        return Err(format!("{unstable_poles} unstable reduced-model poles"));
    }
    Ok(())
}

/// Worst relative sink-delay difference between `r` and the same op on
/// `reference`.
pub fn reference_error(
    ex: &ClocktreeExtractor,
    op: &SkewOp,
    r: &SkewReport,
    reference: Engine,
) -> Result<(f64, f64), String> {
    let want = facade(ex, op, reference)?;
    let mut rel = 0.0f64;
    let mut abs = 0.0f64;
    for (a, b) in r.sink_delays.iter().zip(&want.sink_delays) {
        abs = abs.max((a - b).abs());
        rel = rel.max((a - b).abs() / b.abs());
    }
    Ok((rel, abs))
}

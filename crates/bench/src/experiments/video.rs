//! §5 video experiments: Fig 17 (ABR QoE on 5G vs 4G), Fig 18a
//! (predictors), Fig 18b (chunk length), Fig 18c + Table 4 (interface
//! selection).

use crate::report::{f, Report, Table};
use fiveg_simcore::stats::mean;
use fiveg_traces::lumos::TraceGenerator;
use fiveg_transport::shaper::BandwidthTrace;
use fiveg_video::abr::{self, Abr, AbrAlgo, Mpc};
use fiveg_video::asset::VideoAsset;
use fiveg_video::ifselect::{stream_with_selection, IfSelectConfig};
use fiveg_video::pensieve;
use fiveg_video::player::{stream, PlayerConfig, SessionResult};
use fiveg_video::predictor::{ContextGbdtPredictor, HarmonicMeanPredictor, OraclePredictor};

/// Evaluation corpus sizes (the paper: 121 5G + 175 4G traces; we hold
/// most for training the learned components).
const EVAL_TRACES: usize = 24;

struct Corpora {
    g5_eval: Vec<BandwidthTrace>,
    g4_train: Vec<BandwidthTrace>,
    g4_eval: Vec<BandwidthTrace>,
}

fn corpora(seed: u64) -> Corpora {
    let gen = TraceGenerator::new(seed);
    // The 5G evaluation set is the tail of a 60-trace corpus, as for 4G;
    // its head goes unused (fig18a re-derives its training pairs with
    // RSRP context directly from the generator).
    let mut g5 = gen.lumos5g_corpus(60);
    let mut g4 = gen.lte_corpus(60);
    let g5_eval = g5.split_off(g5.len() - EVAL_TRACES);
    let g4_eval = g4.split_off(g4.len() - EVAL_TRACES);
    Corpora {
        g5_eval,
        g4_train: g4,
        g4_eval,
    }
}

fn run_sessions(
    asset: &VideoAsset,
    traces: &[BandwidthTrace],
    mut make_abr: impl FnMut() -> Box<dyn Abr>,
) -> Vec<SessionResult> {
    traces
        .iter()
        .map(|t| {
            let mut abr = make_abr();
            stream(asset, t, abr.as_mut(), &PlayerConfig::default(), 0.0)
        })
        .collect()
}

fn summarize(sessions: &[SessionResult]) -> (f64, f64, f64) {
    (
        mean(&sessions.iter().map(|s| s.stall_pct()).collect::<Vec<_>>()),
        mean(
            &sessions
                .iter()
                .map(|s| s.avg_norm_bitrate)
                .collect::<Vec<_>>(),
        ),
        mean(&sessions.iter().map(|s| s.qoe).collect::<Vec<_>>()),
    )
}

/// Fig 17 shard count: one shard per ABR algorithm.
pub(crate) const FIG17_SHARDS: usize = 7;

/// One Fig 17 shard: a single ABR evaluated on the 5G then the 4G corpus,
/// returning `[stall5, br5, stall4, br4]`. The Pensieve shard carries its
/// own training run *and* both evaluation passes, because the trained
/// policy is streamed mutably across every session in a fixed order —
/// that order is part of the experiment's definition and must not be
/// split. Every other algorithm builds a fresh ABR per trace, so each is
/// independent. `corpora(seed)` is a pure function of the seed, so each
/// shard re-derives it instead of sharing state.
pub(crate) fn fig17_shard(seed: u64, shard: usize) -> Vec<f64> {
    let c = corpora(seed);
    let asset5 = VideoAsset::five_g_default();
    let asset4 = VideoAsset::four_g_default();
    let algo = AbrAlgo::all()[shard];
    let (s5, s4) = if algo == AbrAlgo::Pensieve {
        // Pensieve trains on the 4G corpus, as in the original paper's
        // setup.
        let mut trained = pensieve::train(&c.g4_train, &asset4, seed);
        let s5: Vec<SessionResult> = c
            .g5_eval
            .iter()
            .map(|tr| stream(&asset5, tr, &mut trained, &PlayerConfig::default(), 0.0))
            .collect();
        let s4: Vec<SessionResult> = c
            .g4_eval
            .iter()
            .map(|tr| stream(&asset4, tr, &mut trained, &PlayerConfig::default(), 0.0))
            .collect();
        (s5, s4)
    } else {
        (
            run_sessions(&asset5, &c.g5_eval, || abr::build(algo)),
            run_sessions(&asset4, &c.g4_eval, || abr::build(algo)),
        )
    };
    let (stall5, br5, _) = summarize(&s5);
    let (stall4, br4, _) = summarize(&s4);
    vec![stall5, br5, stall4, br4]
}

/// Deterministic Fig 17 reducer: one row per ABR in `AbrAlgo::all()`
/// order; the stall-increase column derives from the shard's own raw
/// stall percentages, so formatting is bit-equal to the unsharded path.
pub(crate) fn fig17_merge(_seed: u64, parts: &[Vec<f64>]) -> Report {
    let mut t = Table::new(vec![
        "algo",
        "5G stall %",
        "5G bitrate",
        "4G stall %",
        "4G bitrate",
        "stall increase %",
    ]);
    for (algo, part) in AbrAlgo::all().iter().zip(parts) {
        let [stall5, br5, stall4, br4] = part[..] else {
            panic!("fig17 shard returned {} values, expected 4", part.len());
        };
        let increase = if stall4 > 0.05 {
            (stall5 / stall4 - 1.0) * 100.0
        } else {
            f64::INFINITY
        };
        t.row(vec![
            algo.label().to_string(),
            f(stall5, 2),
            f(br5, 3),
            f(stall4, 2),
            f(br4, 3),
            if increase.is_finite() {
                f(increase, 0)
            } else {
                "inf".to_string()
            },
        ]);
    }
    Report {
        id: "fig17",
        title: "ABR QoE on mmWave 5G vs 4G (stall % and normalized bitrate)".into(),
        body: t.render(),
    }
}

/// Fig 17: the seven ABRs on 5G and 4G.
pub fn fig17(seed: u64) -> Report {
    let parts: Vec<Vec<f64>> = (0..FIG17_SHARDS).map(|s| fig17_shard(seed, s)).collect();
    fig17_merge(seed, &parts)
}

/// Fig 18a shard count and fixed predictor order (the oracle is last —
/// the reducer normalizes by it).
pub(crate) const FIG18A_SHARDS: usize = 3;
const FIG18A_PREDICTORS: [&str; FIG18A_SHARDS] = ["hmMPC", "MPC_GDBT", "truthMPC"];

/// One Fig 18a shard: a single predictor evaluated over the 5G corpus,
/// returning its raw mean QoE. Only the GBDT shard pays for predictor
/// training (the unsharded loop trained it up front for all three); the
/// training inputs derive purely from the seed, so the shard re-derives
/// them. Normalization against the oracle happens in the reducer, where
/// all three raw QoEs are in hand.
pub(crate) fn fig18a_shard(seed: u64, shard: usize) -> Vec<f64> {
    let c = corpora(seed);
    let asset = VideoAsset::five_g_default();
    let gen = TraceGenerator::new(seed);
    let sessions: Vec<SessionResult> = match shard {
        0 => c
            .g5_eval
            .iter()
            .map(|t| {
                let mut mpc =
                    Mpc::with_predictor(Box::new(HarmonicMeanPredictor::default()), false, "hmMPC");
                stream(&asset, t, &mut mpc, &PlayerConfig::default(), 0.0)
            })
            .collect(),
        1 => {
            // The Lumos5G-style predictor trains on (trace, RSRP-context)
            // pairs; indices 0..36 are the training split of the same
            // generator, 36..60 the per-eval-trace contexts in trace order.
            let train_pairs: Vec<_> = (0..36).map(|i| gen.lumos5g_trace_with_context(i)).collect();
            let eval_contexts: Vec<Vec<f64>> = (36..60)
                .map(|i| gen.lumos5g_trace_with_context(i).1)
                .collect();
            let gbdt = ContextGbdtPredictor::train(&train_pairs, &asset, 5);
            c.g5_eval
                .iter()
                .zip(&eval_contexts)
                .map(|(t, ctx)| {
                    let mut mpc =
                        Mpc::with_predictor(Box::new(gbdt.bind(ctx.clone())), false, "MPC_GDBT");
                    stream(&asset, t, &mut mpc, &PlayerConfig::default(), 0.0)
                })
                .collect()
        }
        _ => c
            .g5_eval
            .iter()
            .map(|t| {
                let mut mpc = Mpc::with_predictor(
                    Box::new(OraclePredictor::new(t.clone(), 8.0)),
                    false,
                    "truthMPC",
                );
                stream(&asset, t, &mut mpc, &PlayerConfig::default(), 0.0)
            })
            .collect(),
    };
    let (_, _, qoe) = summarize(&sessions);
    vec![qoe]
}

/// Deterministic Fig 18a reducer: rows in predictor order, normalized by
/// the oracle shard's raw QoE.
pub(crate) fn fig18a_merge(_seed: u64, parts: &[Vec<f64>]) -> Report {
    let oracle_qoe = parts.last().expect("non-empty")[0];
    let mut t = Table::new(vec!["predictor", "QoE", "normalized"]);
    for (name, part) in FIG18A_PREDICTORS.iter().zip(parts) {
        let qoe = part[0];
        t.row(vec![name.to_string(), f(qoe, 1), f(qoe / oracle_qoe, 3)]);
    }
    Report {
        id: "fig18a",
        title: "QoE impact of throughput predictors (fastMPC base, 5G)".into(),
        body: t.render(),
    }
}

/// Fig 18a: fastMPC with harmonic-mean, GBDT, and oracle predictors.
pub fn fig18a(seed: u64) -> Report {
    let parts: Vec<Vec<f64>> = (0..FIG18A_SHARDS).map(|s| fig18a_shard(seed, s)).collect();
    fig18a_merge(seed, &parts)
}

/// Fig 18b shard count and fixed chunk-length order.
pub(crate) const FIG18B_SHARDS: usize = 3;
const FIG18B_CHUNK_LENS: [f64; FIG18B_SHARDS] = [4.0, 2.0, 1.0];

/// One Fig 18b shard: one chunk length's ladder streamed over the 5G
/// corpus, returning `[stall, bitrate]`.
pub(crate) fn fig18b_shard(seed: u64, shard: usize) -> Vec<f64> {
    let c = corpora(seed);
    let len = FIG18B_CHUNK_LENS[shard];
    let asset = VideoAsset::ladder(160.0, 6, len, 240.0);
    let sessions = run_sessions(&asset, &c.g5_eval, || Box::new(Mpc::fast()));
    let (stall, br, _) = summarize(&sessions);
    vec![stall, br]
}

/// Deterministic Fig 18b reducer: one row per chunk length, in order.
pub(crate) fn fig18b_merge(_seed: u64, parts: &[Vec<f64>]) -> Report {
    let mut t = Table::new(vec!["chunk len", "bitrate", "stall %"]);
    for (len, part) in FIG18B_CHUNK_LENS.iter().zip(parts) {
        t.row(vec![format!("{len}s"), f(part[1], 3), f(part[0], 2)]);
    }
    Report {
        id: "fig18b",
        title: "QoE impact of chunk length (fastMPC, 5G)".into(),
        body: t.render(),
    }
}

/// Fig 18b: chunk length 4 s / 2 s / 1 s with fastMPC on 5G.
pub fn fig18b(seed: u64) -> Report {
    let parts: Vec<Vec<f64>> = (0..FIG18B_SHARDS).map(|s| fig18b_shard(seed, s)).collect();
    fig18b_merge(seed, &parts)
}

/// Fig 18c + Table 4 shard count and fixed scheme order.
pub(crate) const FIG18C_SHARDS: usize = 3;
const FIG18C_SCHEMES: [&str; FIG18C_SHARDS] = ["5G-only MPC", "5G-aware MPC", "5G-aware MPC NO"];

/// One Fig 18c shard: a single interface-selection scheme streamed over
/// the paired 5G/4G corpora, returning `[stall, bitrate, energy]`. The
/// scheme configs depend on the 4G training corpus mean, which each shard
/// re-derives from the seed.
pub(crate) fn fig18c_shard(seed: u64, shard: usize) -> Vec<f64> {
    let c = corpora(seed);
    let asset = VideoAsset::five_g_default();
    let four_g_avg = mean(&c.g4_train.iter().map(|t| t.mean_mbps()).collect::<Vec<_>>());
    let cfg = match shard {
        0 => IfSelectConfig::five_g_only(),
        1 => IfSelectConfig::aware(four_g_avg),
        _ => IfSelectConfig::aware_no_overhead(four_g_avg),
    };
    let results: Vec<_> = c
        .g5_eval
        .iter()
        .zip(c.g4_eval.iter().cycle())
        .map(|(t5, t4)| {
            let mut mpc = Mpc::fast();
            stream_with_selection(&asset, t5, t4, &mut mpc, &cfg, &PlayerConfig::default())
        })
        .collect();
    let stall = mean(
        &results
            .iter()
            .map(|r| r.session.stall_pct())
            .collect::<Vec<_>>(),
    );
    let br = mean(
        &results
            .iter()
            .map(|r| r.session.avg_norm_bitrate)
            .collect::<Vec<_>>(),
    );
    let energy = mean(&results.iter().map(|r| r.energy_j).collect::<Vec<_>>());
    vec![stall, br, energy]
}

/// Deterministic Fig 18c reducer: one row per scheme, in order.
pub(crate) fn fig18c_merge(_seed: u64, parts: &[Vec<f64>]) -> Report {
    let mut t = Table::new(vec!["scheme", "bitrate", "stall %", "energy J"]);
    for (name, part) in FIG18C_SCHEMES.iter().zip(parts) {
        t.row(vec![
            name.to_string(),
            f(part[1], 3),
            f(part[0], 2),
            f(part[2], 1),
        ]);
    }
    Report {
        id: "fig18c",
        title: "Interface selection for 5G video: QoE (Fig 18c) and energy (Table 4)".into(),
        body: t.render(),
    }
}

/// Fig 18c + Table 4: interface-selection schemes — bitrate, stall, energy.
pub fn fig18c_table4(seed: u64) -> Report {
    let parts: Vec<Vec<f64>> = (0..FIG18C_SHARDS).map(|s| fig18c_shard(seed, s)).collect();
    fig18c_merge(seed, &parts)
}

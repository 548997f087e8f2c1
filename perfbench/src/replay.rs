//! The traced replay: runs experiments layer call by layer call, with the
//! same arguments in the same order as `fiveg_bench::experiments`, timing
//! each call with a [`Tracer`] span.
//!
//! Sharded experiments are replayed shard by shard and must return exactly
//! what the shard's own `run(seed, k)` returns; the trace command checks
//! that bit for bit. Monolithic experiments listed in [`replicated`] replay
//! their layer calls but skip the report's formatting and binning glue.
//! Every other experiment runs through its registry function inside one
//! unattributed `exp` span (see [`unattributed`]).

use crate::trace::{Fingerprint, Tracer};
use fiveg_bench::experiments::bonded;
use fiveg_geo::mobility::MobilityModel;
use fiveg_geo::servers::{
    azure_regions, carrier_pool, default_ue_location, minnesota_pool, Carrier, ServerInfo,
};
use fiveg_mlkit::dataset::Dataset;
use fiveg_mlkit::tree::{DecisionTreeRegressor, TreeConfig};
use fiveg_power::datamodel::{DataPowerModel, NetworkKind};
use fiveg_power::monitor::{Activity, HardwareMonitor, SoftwareMonitor};
use fiveg_power::rrcpower::{measure_tail_power_mw, promotion_scenario_trace, RrcPowerParams};
use fiveg_probes::drivetest::summarize as summarize_drive;
use fiveg_probes::rrcprobe::RrcProbe;
use fiveg_probes::speedtest::{ConnMode, SpeedtestHarness};
use fiveg_radio::band::{Band, Direction};
use fiveg_radio::cell::NetworkLayout;
use fiveg_radio::handoff::{simulate_drive, BandSetting, HandoffConfig};
use fiveg_radio::link::LinkState;
use fiveg_radio::ue::UeModel;
use fiveg_radio::Carrier as RadioCarrier;
use fiveg_rrc::profile::{RrcConfigId, RrcProfile};
use fiveg_simcore::series::TimeSeries;
use fiveg_simcore::stats::{mape, mean};
use fiveg_simcore::RngStream;
use fiveg_traces::lumos::TraceGenerator;
use fiveg_traces::walking::{to_dataset, PowerFeatures, WalkingCampaign, WalkingSample};
use fiveg_transport::path::PathModel;
use fiveg_transport::shaper::BandwidthTrace;
use fiveg_transport::tcp::{measure_throughput, CcAlgo, TcpSimConfig};
use fiveg_transport::{BondedConfig, BondedSim};
use fiveg_video::abr::{self, Abr, AbrAlgo, Mpc};
use fiveg_video::asset::VideoAsset;
use fiveg_video::ifselect::{stream_with_selection, IfSelectConfig, IfSelectResult};
use fiveg_video::pensieve;
use fiveg_video::player::{stream, PlayerConfig, SessionResult};
use fiveg_video::predictor::{ContextGbdtPredictor, HarmonicMeanPredictor, OraclePredictor};
use fiveg_web::ifselect::{label, ModelSpec, SelectionModel, SiteMeasurement};
use fiveg_web::loader::{PageLoader, WebRadio};
use fiveg_web::site::WebsiteCorpus;

/// Monolithic experiments whose layer calls are replayed one by one.
pub fn replicated() -> &'static [&'static str] {
    &[
        "fig1",
        "fig2",
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "table2",
        "table7",
        "fig13",
        "fig14",
        "table9",
        "fig19",
        "fig20",
        "fig21",
        "table6",
        "fig23",
        "fig24",
        "ablation-cc",
        "ablation-wmem",
        "ablation-hysteresis",
        "ablation-blockage",
    ]
}

#[cfg(test)]
/// Experiments traced as one unattributed `exp` span: each is a handful of
/// closed-form model lookups that together take well under a millisecond.
pub fn unattributed() -> &'static [&'static str] {
    &[
        "table1",
        "fig11",
        "fig12",
        "table8",
        "fig26",
        "table3",
        "ext-periodic",
    ]
}

/// Replays one shard of a sharded experiment, returning the shard's raw
/// values. Panics on an id that has no replay (a test pins the coverage).
pub fn shard(t: &mut Tracer, id: &str, seed: u64, k: usize) -> Vec<f64> {
    match id {
        "fig15" => fig15_shard(t, seed, k),
        "fig16" => fig16_shard(t, seed, k),
        "fig17" => fig17_shard(t, seed, k),
        "fig18a" => fig18a_shard(t, seed, k),
        "fig18b" => fig18b_shard(t, seed, k),
        "fig18c" => fig18c_shard(t, seed, k),
        "ablation-pensieve" => ablation_pensieve_shard(t, seed, k),
        "bonded-uplink" => bonded_uplink_shard(t, seed, k),
        _ => panic!("no shard replay for {id}"),
    }
}

/// Replays one monolithic experiment listed in [`replicated`].
pub fn whole(t: &mut Tracer, id: &str, seed: u64) {
    match id {
        "fig1" => fig1(t, seed),
        "fig2" => fig2(t, seed),
        "fig3" => throughput_vs_distance(t, &vz_mmwave(seed), Direction::Downlink),
        "fig4" => throughput_vs_distance(t, &vz_mmwave(seed), Direction::Uplink),
        "fig5" => fig5(t, seed),
        "fig6" => tmobile_updown(t, seed, Direction::Downlink),
        "fig7" => tmobile_updown(t, seed, Direction::Uplink),
        "fig8" => fig8(t, seed),
        "fig9" => fig9(t, seed),
        "fig10" => fig10(t, seed),
        "table2" => table2(t, seed),
        "table7" => table7(t, seed),
        "fig13" => fig13(t, seed),
        "fig14" => fig14(t, seed),
        "table9" => table9(t, seed),
        "fig19" | "fig20" | "fig21" => {
            web_measurements(t, seed);
        }
        "table6" => table6(t, seed),
        "fig23" => fig23(t, seed),
        "fig24" => fig24(t, seed),
        "ablation-cc" => ablation_cc(t, seed),
        "ablation-wmem" => ablation_wmem(t, seed),
        "ablation-hysteresis" => ablation_hysteresis(t, seed),
        "ablation-blockage" => ablation_blockage(t, seed),
        _ => panic!("no replay for {id}"),
    }
}

// ---- §4 power modelling -------------------------------------------------

fn walks(t: &mut Tracer, c: &WalkingCampaign, n_walks: usize, seed: u64) -> Vec<WalkingSample> {
    let mut samples = Vec::new();
    for i in 0..n_walks {
        samples.extend(walk(t, c, i, seed));
    }
    samples
}

fn walk(t: &mut Tracer, c: &WalkingCampaign, idx: usize, seed: u64) -> Vec<WalkingSample> {
    t.call(
        "traces.walk",
        0,
        |s: &Vec<_>| s.len() as f64,
        || c.walk(idx, seed, 10.0),
    )
}

fn dataset(
    t: &mut Tracer,
    samples: &[WalkingSample],
    network: NetworkKind,
    feat: PowerFeatures,
) -> Dataset {
    t.call(
        "traces.to_dataset",
        0,
        |d: &Dataset| d.len() as f64,
        || to_dataset(samples, network, feat),
    )
}

fn tree_fit(t: &mut Tracer, train: &Dataset) -> DecisionTreeRegressor {
    t.call(
        "mlkit.tree_fit",
        0,
        |_| train.len() as f64,
        || DecisionTreeRegressor::fit(train, &TreeConfig::default()),
    )
}

fn tree_predict(t: &mut Tracer, model: &DecisionTreeRegressor, data: &Dataset) -> Vec<f64> {
    t.call(
        "mlkit.tree_predict",
        0,
        |p: &Vec<f64>| p.len() as f64,
        || model.predict_all(data),
    )
}

fn dtr_mape(t: &mut Tracer, data: &Dataset, seed: u64) -> f64 {
    let mut rng = RngStream::new(seed, "fig15/split");
    let (train, test) = t.call(
        "mlkit.split",
        0,
        |_| data.len() as f64,
        || data.split(0.7, &mut rng),
    );
    let model = tree_fit(t, &train);
    let predicted = tree_predict(t, &model, &test);
    mape(&test.targets, &predicted)
}

const FIG15_FEATURES: [PowerFeatures; 3] = [
    PowerFeatures::ThroughputAndSignal,
    PowerFeatures::ThroughputOnly,
    PowerFeatures::SignalOnly,
];

fn fig15_shard(t: &mut Tracer, seed: u64, shard: usize) -> Vec<f64> {
    let settings = WalkingCampaign::fig15_settings();
    if shard < settings.len() {
        let campaign = settings[shard];
        let samples = walks(t, &campaign, 10, seed);
        return FIG15_FEATURES
            .into_iter()
            .map(|feat| {
                let data = dataset(t, &samples, campaign.network, feat);
                dtr_mape(t, &data, seed)
            })
            .collect();
    }
    let campaign = settings[1];
    let train_samples = walks(t, &campaign, 10, seed);
    let train = dataset(
        t,
        &train_samples,
        campaign.network,
        PowerFeatures::ThroughputAndSignal,
    );
    let model = tree_fit(t, &train);
    let fresh = walk(t, &campaign, 99, seed);
    let val = dataset(
        t,
        &fresh,
        campaign.network,
        PowerFeatures::ThroughputAndSignal,
    );
    let predicted = tree_predict(t, &model, &val);
    vec![mape(&val.targets, &predicted)]
}

/// The benchmark's true total-device power for an activity, mW; the same
/// constants as `experiments::modeling`.
fn activity_power_mw(activity: Activity) -> f64 {
    let idle_screen_on = 2014.3;
    let radio = |mbps: f64| {
        DataPowerModel::lookup(UeModel::GalaxyS20Ultra, NetworkKind::MmWave)
            .power_mw(Direction::Downlink, mbps)
    };
    match activity {
        Activity::IdleScreenOn => idle_screen_on,
        Activity::IdleScreenOff => idle_screen_on - fiveg_power::SCREEN_POWER_MW,
        Activity::RandomInteraction => idle_screen_on + 600.0,
        Activity::UdpDl50 => idle_screen_on + radio(50.0),
        Activity::UdpDl400 => idle_screen_on + radio(400.0),
        Activity::UdpDl800 => idle_screen_on + radio(800.0),
        Activity::UdpDl1200 => idle_screen_on + radio(1200.0),
        Activity::VideoStreaming => idle_screen_on + 1200.0 + radio(80.0),
    }
}

fn hw_record(
    t: &mut Tracer,
    hw: &HardwareMonitor,
    truth: impl Fn(f64) -> f64,
    duration_s: f64,
    rng: &mut RngStream,
) -> TimeSeries {
    t.call(
        "power.hw_record",
        0,
        |s: &TimeSeries| s.len() as f64,
        || hw.record(truth, duration_s, rng),
    )
}

fn sw_record(
    t: &mut Tracer,
    sw: &SoftwareMonitor,
    truth: impl Fn(f64) -> f64,
    activity: Activity,
    duration_s: f64,
    rng: &mut RngStream,
) -> TimeSeries {
    t.call(
        "power.sw_record",
        0,
        |s: &TimeSeries| s.len() as f64,
        || sw.record(truth, activity, duration_s, rng),
    )
}

fn fig16_shard(t: &mut Tracer, seed: u64, shard: usize) -> Vec<f64> {
    if shard == 0 {
        let campaign = WalkingCampaign::fig15_settings()[1];
        let samples = walks(t, &campaign, 10, seed);
        let data = dataset(
            t,
            &samples,
            campaign.network,
            PowerFeatures::ThroughputAndSignal,
        );
        return vec![dtr_mape(t, &data, seed)];
    }
    let hw = HardwareMonitor::default();
    let rate = [1.0, 10.0][shard - 1];
    let sw = SoftwareMonitor::new(rate);
    let mut data = Dataset::new(
        vec!["sw_reading_mw".into(), "throughput_mbps".into()],
        vec![],
        vec![],
    );
    let mut raw_actual = Vec::new();
    let mut raw_sw = Vec::new();
    for (ai, activity) in Activity::all().iter().enumerate() {
        let truth = activity_power_mw(*activity);
        let tput = match activity {
            Activity::UdpDl50 => 50.0,
            Activity::UdpDl400 => 400.0,
            Activity::UdpDl800 => 800.0,
            Activity::UdpDl1200 => 1200.0,
            Activity::VideoStreaming => 80.0,
            _ => 0.0,
        };
        let rng = RngStream::new(seed, &format!("fig16/{ai}/{rate}"));
        let true_fn = |x: f64| {
            truth * (1.0 + 0.08 * (x * std::f64::consts::TAU / 7.3).sin()) + sw.overhead_mw()
        };
        let hw_trace = hw_record(t, &hw, true_fn, 60.0, &mut rng.fork("hw"));
        let sw_trace = sw_record(t, &sw, true_fn, *activity, 60.0, &mut rng.fork("sw"));
        for (t_sw, reading) in sw_trace.iter() {
            let hw_now = hw_trace.sample_at(t_sw).unwrap_or(truth);
            data.push(vec![reading, tput], hw_now);
            raw_actual.push(hw_now);
            raw_sw.push(reading);
        }
    }
    vec![
        mape(&raw_actual, &raw_sw),
        dtr_mape(t, &data, seed ^ rate as u64),
    ]
}

fn table9(t: &mut Tracer, seed: u64) {
    let hw = HardwareMonitor::default();
    for activity in Activity::all() {
        let truth = activity_power_mw(activity);
        for rate in [1.0, 10.0] {
            let sw = SoftwareMonitor::new(rate);
            let rng = RngStream::new(seed, &format!("t9/{activity:?}/{rate}"));
            let true_fn = |_x: f64| truth + sw.overhead_mw();
            hw_record(t, &hw, true_fn, 120.0, &mut rng.fork("hw"));
            sw_record(t, &sw, true_fn, activity, 120.0, &mut rng.fork("sw"));
        }
    }
}

fn fig13(t: &mut Tracer, seed: u64) {
    for ue in [UeModel::GalaxyS10, UeModel::GalaxyS20Ultra] {
        let campaign = WalkingCampaign {
            ue,
            carrier: RadioCarrier::Verizon,
            network: NetworkKind::MmWave,
        };
        walks(t, &campaign, 10, seed);
    }
}

/// Fig 14 bins the same two mmWave walking campaigns as Fig 13.
fn fig14(t: &mut Tracer, seed: u64) {
    fig13(t, seed);
}

// ---- §5 video -----------------------------------------------------------

const EVAL_TRACES: usize = 24;

struct Corpora {
    g5_eval: Vec<BandwidthTrace>,
    g4_train: Vec<BandwidthTrace>,
    g4_eval: Vec<BandwidthTrace>,
}

fn corpus(
    t: &mut Tracer,
    gen: &TraceGenerator,
    seed: u64,
    lte: bool,
    count: usize,
) -> Vec<BandwidthTrace> {
    let key = Fingerprint::default()
        .bytes(if lte { b"lte" } else { b"lumos5g" })
        .word(seed)
        .word(count as u64)
        .finish();
    t.call(
        "traces.lumos_corpus",
        key,
        |c: &Vec<_>| c.len() as f64,
        || {
            if lte {
                gen.lte_corpus(count)
            } else {
                gen.lumos5g_corpus(count)
            }
        },
    )
}

fn lumos_trace(t: &mut Tracer, f: impl FnOnce() -> BandwidthTrace) -> BandwidthTrace {
    t.call("traces.lumos_trace", 0, |_| 1.0, f)
}

fn corpora(t: &mut Tracer, seed: u64) -> Corpora {
    let gen = TraceGenerator::new(seed);
    let mut g5 = corpus(t, &gen, seed, false, 60);
    let mut g4 = corpus(t, &gen, seed, true, 60);
    let g5_eval = g5.split_off(g5.len() - EVAL_TRACES);
    let g4_eval = g4.split_off(g4.len() - EVAL_TRACES);
    Corpora {
        g5_eval,
        g4_train: g4,
        g4_eval,
    }
}

/// Streams one session; `mpc` picks the MPC-family span name.
fn stream_one(
    t: &mut Tracer,
    mpc: bool,
    asset: &VideoAsset,
    trace: &BandwidthTrace,
    abr: &mut dyn Abr,
) -> SessionResult {
    let name = if mpc {
        "video.stream_mpc"
    } else {
        "video.stream_other"
    };
    t.call(
        name,
        0,
        |s: &SessionResult| s.chunks.len() as f64,
        || stream(asset, trace, abr, &PlayerConfig::default(), 0.0),
    )
}

fn run_sessions(
    t: &mut Tracer,
    mpc: bool,
    asset: &VideoAsset,
    traces: &[BandwidthTrace],
    mut make_abr: impl FnMut() -> Box<dyn Abr>,
) -> Vec<SessionResult> {
    traces
        .iter()
        .map(|tr| {
            let mut abr = make_abr();
            stream_one(t, mpc, asset, tr, abr.as_mut())
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

fn pensieve_train(
    t: &mut Tracer,
    corpus: &[BandwidthTrace],
    asset: &VideoAsset,
    seed: u64,
) -> pensieve::PensieveAbr {
    let mut fp = Fingerprint::default().word(corpus.len() as u64);
    for trace in corpus {
        fp = fp
            .float(trace.granularity_s())
            .word(trace.samples().len() as u64);
        for &x in trace.samples() {
            fp = fp.float(x);
        }
    }
    for &b in &asset.bitrates_mbps {
        fp = fp.float(b);
    }
    let key = fp
        .float(asset.chunk_len_s)
        .float(asset.duration_s)
        .word(seed)
        .finish();
    t.call(
        "video.pensieve_train",
        key,
        |_| corpus.len() as f64,
        || pensieve::train(corpus, asset, seed),
    )
}

fn is_mpc(algo: AbrAlgo) -> bool {
    algo.label().contains("MPC")
}

fn fig17_shard(t: &mut Tracer, seed: u64, shard: usize) -> Vec<f64> {
    let c = corpora(t, seed);
    let asset5 = VideoAsset::five_g_default();
    let asset4 = VideoAsset::four_g_default();
    let algo = AbrAlgo::all()[shard];
    let (s5, s4) = if algo == AbrAlgo::Pensieve {
        let mut trained = pensieve_train(t, &c.g4_train, &asset4, seed);
        let s5: Vec<SessionResult> = c
            .g5_eval
            .iter()
            .map(|tr| stream_one(t, false, &asset5, tr, &mut trained))
            .collect();
        let s4: Vec<SessionResult> = c
            .g4_eval
            .iter()
            .map(|tr| stream_one(t, false, &asset4, tr, &mut trained))
            .collect();
        (s5, s4)
    } else {
        let mpc = is_mpc(algo);
        (
            run_sessions(t, mpc, &asset5, &c.g5_eval, || abr::build(algo)),
            run_sessions(t, mpc, &asset4, &c.g4_eval, || abr::build(algo)),
        )
    };
    let (stall5, br5, _) = summarize(&s5);
    let (stall4, br4, _) = summarize(&s4);
    vec![stall5, br5, stall4, br4]
}

fn fig18a_shard(t: &mut Tracer, seed: u64, shard: usize) -> Vec<f64> {
    let c = corpora(t, seed);
    let asset = VideoAsset::five_g_default();
    let gen = TraceGenerator::new(seed);
    let sessions: Vec<SessionResult> = match shard {
        0 => c
            .g5_eval
            .iter()
            .map(|tr| {
                let mut mpc =
                    Mpc::with_predictor(Box::new(HarmonicMeanPredictor::default()), false, "hmMPC");
                stream_one(t, true, &asset, tr, &mut mpc)
            })
            .collect(),
        1 => {
            let train_pairs: Vec<_> = (0..36)
                .map(|i| {
                    t.call(
                        "traces.lumos_trace",
                        0,
                        |_| 1.0,
                        || gen.lumos5g_trace_with_context(i),
                    )
                })
                .collect();
            let eval_contexts: Vec<Vec<f64>> = (36..60)
                .map(|i| {
                    t.call(
                        "traces.lumos_trace",
                        0,
                        |_| 1.0,
                        || gen.lumos5g_trace_with_context(i),
                    )
                    .1
                })
                .collect();
            let gbdt = t.call(
                "video.gbdt_predictor_train",
                0,
                |_| train_pairs.len() as f64,
                || ContextGbdtPredictor::train(&train_pairs, &asset, 5),
            );
            c.g5_eval
                .iter()
                .zip(&eval_contexts)
                .map(|(tr, ctx)| {
                    let mut mpc =
                        Mpc::with_predictor(Box::new(gbdt.bind(ctx.clone())), false, "MPC_GDBT");
                    stream_one(t, true, &asset, tr, &mut mpc)
                })
                .collect()
        }
        _ => c
            .g5_eval
            .iter()
            .map(|tr| {
                let mut mpc = Mpc::with_predictor(
                    Box::new(OraclePredictor::new(tr.clone(), 8.0)),
                    false,
                    "truthMPC",
                );
                stream_one(t, true, &asset, tr, &mut mpc)
            })
            .collect(),
    };
    let (_, _, qoe) = summarize(&sessions);
    vec![qoe]
}

fn fig18b_shard(t: &mut Tracer, seed: u64, shard: usize) -> Vec<f64> {
    let c = corpora(t, seed);
    let len = [4.0, 2.0, 1.0][shard];
    let asset = VideoAsset::ladder(160.0, 6, len, 240.0);
    let sessions = run_sessions(t, true, &asset, &c.g5_eval, || Box::new(Mpc::fast()));
    let (stall, br, _) = summarize(&sessions);
    vec![stall, br]
}

fn fig18c_shard(t: &mut Tracer, seed: u64, shard: usize) -> Vec<f64> {
    let c = corpora(t, seed);
    let asset = VideoAsset::five_g_default();
    let four_g_avg = mean(
        &c.g4_train
            .iter()
            .map(|tr| tr.mean_mbps())
            .collect::<Vec<_>>(),
    );
    let cfg = match shard {
        0 => IfSelectConfig::five_g_only(),
        1 => IfSelectConfig::aware(four_g_avg),
        _ => IfSelectConfig::aware_no_overhead(four_g_avg),
    };
    // Interface selection streams one MPC session over a 5G/4G pair.
    let results: Vec<_> = c
        .g5_eval
        .iter()
        .zip(c.g4_eval.iter().cycle())
        .map(|(t5, t4)| {
            let mut mpc = Mpc::fast();
            t.call(
                "video.stream_mpc",
                0,
                |r: &IfSelectResult| r.session.chunks.len() as f64,
                || stream_with_selection(&asset, t5, t4, &mut mpc, &cfg, &PlayerConfig::default()),
            )
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

fn ablation_pensieve_shard(t: &mut Tracer, seed: u64, shard: usize) -> Vec<f64> {
    let gen = TraceGenerator::new(seed);
    let g5_eval: Vec<_> = (36..56)
        .map(|i| lumos_trace(t, || gen.lumos5g_trace(i)))
        .collect();
    let asset5 = VideoAsset::five_g_default();
    let mut abr = if shard == 0 {
        let g4_train = corpus(t, &gen, seed, true, 36);
        pensieve_train(t, &g4_train, &VideoAsset::four_g_default(), seed)
    } else {
        let g5_train = corpus(t, &gen, seed, false, 36);
        pensieve_train(t, &g5_train, &asset5, seed)
    };
    let sessions: Vec<_> = g5_eval
        .iter()
        .map(|tr| stream_one(t, false, &asset5, tr, &mut abr))
        .collect();
    vec![
        mean(&sessions.iter().map(|s| s.stall_pct()).collect::<Vec<_>>()),
        mean(
            &sessions
                .iter()
                .map(|s| s.avg_norm_bitrate)
                .collect::<Vec<_>>(),
        ),
    ]
}

fn ablation_blockage(t: &mut Tracer, seed: u64) {
    let gen = TraceGenerator::new(seed);
    let asset = VideoAsset::five_g_default();
    let on: Vec<_> = (0..16)
        .map(|i| lumos_trace(t, || gen.lumos5g_trace(i)))
        .collect();
    run_sessions(t, true, &asset, &on, || Box::new(Mpc::fast()));
    let off: Vec<_> = (0..16)
        .map(|i| lumos_trace(t, || gen.lumos5g_trace_no_blockage(i)))
        .collect();
    run_sessions(t, true, &asset, &off, || Box::new(Mpc::fast()));
}

// ---- §3 transport, radio and RRC ----------------------------------------

/// Simulated seconds of one Speedtest-style transfer
/// (`transport::tcp::measure_throughput` and the bonded runs).
pub const FLOW_S: f64 = 15.0;

fn flow(t: &mut Tracer, path: PathModel, cfg: TcpSimConfig, seed: u64) -> f64 {
    let name = if cfg.algo.is_rate_based() {
        "transport.rate"
    } else {
        "transport.cubic"
    };
    t.call(name, 0, |_| FLOW_S, || measure_throughput(path, cfg, seed))
}

fn mmwave_path(rtt_ms: f64, dist_km: f64) -> PathModel {
    link(rtt_ms, 3400.0, dist_km)
}

fn link(rtt_ms: f64, capacity_mbps: f64, dist_km: f64) -> PathModel {
    PathModel {
        rtt_ms,
        loss_per_pkt: fiveg_transport::path::BASE_LOSS
            + fiveg_transport::path::LOSS_PER_KM * dist_km,
        capacity_mbps,
        mss_bytes: 1460.0,
        queue_bdp: fiveg_transport::path::DEFAULT_QUEUE_BDP,
    }
}

fn ablation_cc(t: &mut Tracer, seed: u64) {
    for (rtt, km) in [(8.0, 100.0), (20.0, 800.0), (35.0, 1600.0), (50.0, 2500.0)] {
        for algo in [CcAlgo::Cubic, CcAlgo::Reno, CcAlgo::Bbr, CcAlgo::Nada] {
            let cfg = TcpSimConfig {
                algo,
                ..TcpSimConfig::single_tuned()
            };
            flow(t, mmwave_path(rtt, km), cfg, seed);
        }
    }
}

fn ablation_wmem(t: &mut Tracer, seed: u64) {
    for mb in [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0] {
        for algo in [CcAlgo::Cubic, CcAlgo::Bbr, CcAlgo::Nada] {
            let cfg = TcpSimConfig {
                wmem_bytes: mb * 1e6,
                algo,
                ..TcpSimConfig::single_default()
            };
            flow(t, mmwave_path(20.0, 800.0), cfg, seed);
        }
    }
}

/// The bonded-uplink scenarios in shard order: RNG slug, member links and
/// the optional shared core cap (as `experiments::bonded` declares them).
fn bonded_scenario(shard: usize) -> (&'static str, Vec<PathModel>, Option<f64>) {
    match shard {
        0 => (
            "metro",
            vec![link(30.0, 150.0, 100.0), link(20.0, 1500.0, 100.0)],
            None,
        ),
        1 => (
            "long-haul",
            vec![link(45.0, 150.0, 1600.0), link(35.0, 1500.0, 1600.0)],
            None,
        ),
        2 => (
            "capped",
            vec![link(30.0, 150.0, 100.0), link(20.0, 1500.0, 100.0)],
            Some(600.0),
        ),
        _ => (
            "dual-lte",
            vec![link(30.0, 150.0, 100.0), link(28.0, 180.0, 100.0)],
            None,
        ),
    }
}

fn bonded_uplink_shard(t: &mut Tracer, seed: u64, shard: usize) -> Vec<f64> {
    let (slug, links, cap) = bonded_scenario(shard);
    let mut cfg = BondedConfig::new(links, bonded::cc());
    cfg.shared_cap_mbps = cap;
    let mut sim = BondedSim::new(cfg, RngStream::new(seed, &format!("bonded/{slug}")));
    let res = t.call("transport.bond", 0, |_| FLOW_S, || sim.run(FLOW_S));
    vec![
        res.mean_mbps,
        res.per_link_share[0],
        res.per_link_share[1],
        res.group_count() as f64,
        res.skew_est[0],
        res.skew_est[1],
        res.loss_events as f64,
        res.max_queue_delay_s * 1e3,
    ]
}

const REPEATS: usize = 6;

fn harness(ue: UeModel, band: Band, rsrp: f64, sa: bool, seed: u64) -> SpeedtestHarness {
    SpeedtestHarness {
        ue,
        link: LinkState {
            band,
            rsrp_dbm: rsrp,
            sa,
        },
        ue_location: default_ue_location(),
        seed,
    }
}

fn vz_mmwave(seed: u64) -> SpeedtestHarness {
    harness(UeModel::GalaxyS20Ultra, Band::N261, -70.0, false, seed)
}

fn tm_low(seed: u64, sa: bool) -> SpeedtestHarness {
    harness(UeModel::GalaxyS20Ultra, Band::N71, -85.0, sa, seed)
}

fn sorted_pool(carrier: Carrier) -> Vec<ServerInfo> {
    let ue = default_ue_location();
    let mut pool = carrier_pool(carrier);
    pool.sort_by(|a, b| {
        a.distance_km(ue)
            .partial_cmp(&b.distance_km(ue))
            .expect("finite")
    });
    pool
}

fn speedtest(
    t: &mut Tracer,
    h: &SpeedtestHarness,
    s: &ServerInfo,
    dir: Direction,
    mode: ConnMode,
    repeats: usize,
) {
    t.call(
        "probes.speedtest",
        0,
        |_| repeats as f64,
        || h.run(s, dir, mode, repeats),
    );
}

fn latency(t: &mut Tracer, h: &SpeedtestHarness, s: &ServerInfo) {
    t.call("probes.latency", 0, |_| 10.0, || h.latency_ms(s, 10));
}

fn fig1(t: &mut Tracer, seed: u64) {
    let h = vz_mmwave(seed);
    for s in sorted_pool(Carrier::Verizon) {
        latency(t, &h, &s);
    }
}

fn fig2(t: &mut Tracer, seed: u64) {
    let hs = [
        vz_mmwave(seed),
        harness(UeModel::GalaxyS20Ultra, Band::N5Dss, -85.0, false, seed),
        harness(
            UeModel::GalaxyS20Ultra,
            Band::LteMidBand,
            -82.0,
            false,
            seed,
        ),
    ];
    for s in sorted_pool(Carrier::Verizon) {
        for h in &hs {
            latency(t, h, &s);
        }
    }
}

fn fig5(t: &mut Tracer, seed: u64) {
    let (sa, nsa) = (tm_low(seed, true), tm_low(seed, false));
    for s in sorted_pool(Carrier::TMobile) {
        latency(t, &sa, &s);
        latency(t, &nsa, &s);
    }
}

fn throughput_vs_distance(t: &mut Tracer, h: &SpeedtestHarness, dir: Direction) {
    for s in sorted_pool(Carrier::Verizon) {
        speedtest(t, h, &s, dir, ConnMode::Multi, REPEATS);
        speedtest(t, h, &s, dir, ConnMode::SingleTuned, REPEATS);
    }
}

fn tmobile_updown(t: &mut Tracer, seed: u64, dir: Direction) {
    let (sa, nsa) = (tm_low(seed, true), tm_low(seed, false));
    for s in sorted_pool(Carrier::TMobile) {
        for h in [&sa, &nsa] {
            speedtest(t, h, &s, dir, ConnMode::Multi, REPEATS);
            speedtest(t, h, &s, dir, ConnMode::SingleTuned, REPEATS);
        }
    }
}

fn fig8(t: &mut Tracer, seed: u64) {
    let h = harness(UeModel::Pixel5, Band::N261, -70.0, false, seed);
    let dl = Direction::Downlink;
    for s in azure_regions() {
        speedtest(t, &h, &s, dl, ConnMode::Udp, 3);
        speedtest(t, &h, &s, dl, ConnMode::TcpN(8), REPEATS);
        speedtest(t, &h, &s, dl, ConnMode::SingleTuned, REPEATS);
        speedtest(t, &h, &s, dl, ConnMode::SingleDefault, REPEATS);
    }
}

fn fig23(t: &mut Tracer, seed: u64) {
    let local = sorted_pool(Carrier::Verizon)
        .into_iter()
        .next()
        .expect("non-empty pool");
    for ue in [UeModel::Pixel5, UeModel::GalaxyS20Ultra] {
        let h = harness(ue, Band::N261, -70.0, false, seed);
        speedtest(
            t,
            &h,
            &local,
            Direction::Downlink,
            ConnMode::SingleTuned,
            REPEATS,
        );
        speedtest(t, &h, &local, Direction::Downlink, ConnMode::Multi, REPEATS);
        speedtest(t, &h, &local, Direction::Uplink, ConnMode::Multi, REPEATS);
    }
}

fn fig24(t: &mut Tracer, seed: u64) {
    let h = vz_mmwave(seed);
    for s in minnesota_pool() {
        speedtest(t, &h, &s, Direction::Downlink, ConnMode::Multi, REPEATS);
    }
}

fn drive_layout(t: &mut Tracer, seed: u64) -> NetworkLayout {
    t.time("radio.layout", || {
        NetworkLayout::tmobile_drive_corridor(seed)
    })
}

fn drive(
    t: &mut Tracer,
    layout: &NetworkLayout,
    mobility: &MobilityModel,
    setting: BandSetting,
    cfg: &HandoffConfig,
    seed: u64,
) -> fiveg_radio::handoff::DriveResult {
    t.time("radio.simulate_drive", || {
        simulate_drive(layout, mobility, setting, cfg, seed)
    })
}

fn fig9(t: &mut Tracer, seed: u64) {
    let layout = drive_layout(t, seed);
    let mobility = MobilityModel::driving_10km();
    let cfg = HandoffConfig::default();
    for setting in BandSetting::all() {
        let result = drive(t, &layout, &mobility, setting, &cfg, seed);
        t.time("probes.drive_summary", || summarize_drive(&result));
    }
}

fn ablation_hysteresis(t: &mut Tracer, seed: u64) {
    let layout = drive_layout(t, seed);
    let mobility = MobilityModel::driving_10km();
    for hyst in [1.0, 2.0, 3.0, 4.0, 6.0] {
        let cfg = HandoffConfig {
            hysteresis_db: hyst,
            ..HandoffConfig::default()
        };
        drive(t, &layout, &mobility, BandSetting::LteOnly, &cfg, seed);
        drive(t, &layout, &mobility, BandSetting::NsaPlusLte, &cfg, seed);
    }
}

const SERVER_RTT_MS: f64 = 3.0;

fn fig10(t: &mut Tracer, seed: u64) {
    let grid: Vec<f64> = (1..=16).map(|i| i as f64).collect();
    for config in RrcConfigId::all() {
        let probe = RrcProbe::new(RrcProfile::for_config(config), SERVER_RTT_MS, seed);
        t.time("probes.rrc", || probe.staircase(&grid));
    }
}

fn table7(t: &mut Tracer, seed: u64) {
    for config in RrcConfigId::all() {
        let probe = RrcProbe::new(RrcProfile::for_config(config), SERVER_RTT_MS, seed);
        t.time("probes.rrc", || probe.infer());
    }
}

fn table2(t: &mut Tracer, seed: u64) {
    let hw = HardwareMonitor::default();
    for config in RrcConfigId::all() {
        let profile = RrcProfile::for_config(config);
        let params = RrcPowerParams::for_config(config);
        let truth_trace = t.time("power.rrc_trace", || {
            promotion_scenario_trace(&profile, &params)
        });
        let duration = truth_trace.end().expect("non-empty").as_secs_f64();
        let mut rng = RngStream::new(seed, &format!("t2/{config:?}"));
        let truth = |t_s: f64| {
            truth_trace
                .sample_at(fiveg_simcore::SimTime::from_secs_f64(t_s))
                .unwrap_or(params.idle_mw)
        };
        let recorded = hw_record(t, &hw, truth, duration, &mut rng);
        t.time("power.tail_power", || {
            measure_tail_power_mw(&profile, &recorded)
        });
    }
}

// ---- §6 web -------------------------------------------------------------

const CORPUS_SIZE: usize = 1500;
const WEB_REPS: usize = 8;

fn web_measurements(t: &mut Tracer, seed: u64) -> Vec<SiteMeasurement> {
    let corpus = t.call(
        "web.corpus",
        0,
        |c: &WebsiteCorpus| c.sites.len() as f64,
        || WebsiteCorpus::generate(CORPUS_SIZE, seed),
    );
    let loader = PageLoader::new(UeModel::Pixel5, seed);
    let load = |t: &mut Tracer, site, radio| {
        t.call(
            "web.load",
            0,
            |_| WEB_REPS as f64,
            || loader.load_mean(site, radio, WEB_REPS),
        )
    };
    corpus
        .sites
        .iter()
        .map(|site| SiteMeasurement {
            features: site.features(),
            lte: load(t, site, WebRadio::Lte),
            mmwave: load(t, site, WebRadio::MmWave5g),
        })
        .collect()
}

fn table6(t: &mut Tracer, seed: u64) {
    let mut ms = web_measurements(t, seed);
    let test = ms.split_off(ms.len() * 7 / 10);
    for spec in ModelSpec::table6() {
        let model = t.time("web.selection_train", || {
            SelectionModel::train(&ms, spec, seed)
        });
        t.time("web.selection_eval", || {
            (
                model.evaluate(&test),
                model.savings_vs_5g(&test),
                model.splits(),
            )
        });
    }
    t.time("web.label", || label(&test, &ModelSpec::table6()[0]));
}

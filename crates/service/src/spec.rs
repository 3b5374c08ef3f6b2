//! The one construction path for the admission core.
//!
//! A [`CoreSpec`] is everything that shapes the decisions a daemon makes:
//! cluster size, shard count, predictor, quote horizon, parity
//! verification and the SLO rules with their window. `pqos-qosd` fills
//! one from its flags and writes it into the `--record` header
//! ([`CoreSpec::trace_meta`]); replay reads it back from that header
//! ([`CoreSpec::from_meta`]). Both then call [`CoreSpec::build`], so the
//! per-plane predictor seeds, the synthetic failure trace and the order
//! the plane journals merge in are defined here and nowhere else.

use crate::engine::EngineConfig;
use crate::replay::ReplayError;
use crate::shard::{partition_spans, ShardedCore};
use pqos_core::config::SimConfig;
use pqos_core::session::NegotiationSession;
use pqos_failures::synthetic::AixLikeTrace;
use pqos_predict::api::{NullPredictor, Predictor};
use pqos_predict::oracle::TraceOracle;
use pqos_sim_core::time::SimDuration;
use pqos_telemetry::reqtrace::{TraceMeta, TRACE_FORMAT_VERSION};
use pqos_telemetry::{SloAccum, SloEngine, SloSink, Telemetry, TelemetryBuilder, TelemetryEvent};
use std::sync::Arc;

/// The predictor every plane of a built core runs.
pub type BoxedPredictor = Box<dyn Predictor + Send + Sync>;

/// Seed of the single plane's and the wide-job coordinator's predictor;
/// shard `k` predicts from `PLANE_SEED ^ k` over its own node span.
const PLANE_SEED: u64 = 0xD5_2005;

/// Which failure predictor the planes run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorKind {
    /// No failure prediction (every quote carries p = 1).
    Null,
    /// A 365-day synthetic AIX-like failure trace behind a 0.9-accurate
    /// oracle (`pqos-qosd --synthetic-failures`).
    SyntheticAix,
}

impl PredictorKind {
    /// The name recorded in a trace header.
    pub fn as_str(self) -> &'static str {
        match self {
            PredictorKind::Null => "null",
            PredictorKind::SyntheticAix => "synthetic-aix",
        }
    }

    fn build(self, seed: u64, nodes: u32) -> BoxedPredictor {
        match self {
            PredictorKind::Null => Box::new(NullPredictor),
            PredictorKind::SyntheticAix => {
                let trace = AixLikeTrace::new()
                    .days(365.0)
                    .seed(seed)
                    .nodes(nodes)
                    .build();
                Box::new(TraceOracle::new(Arc::new(trace), 0.9).expect("accuracy in range"))
            }
        }
    }
}

/// One journal a built core writes. [`CoreSpec::planes`] lists them in
/// the order their texts merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalPlane {
    /// The single plane's journal: the whole run.
    Whole,
    /// Shard `k`'s journal.
    Shard(u32),
    /// The wide-job coordinator's journal (SLO alerts land here too).
    Wide,
}

/// The SLO evaluator together with the window accumulator it drains.
/// [`CoreSpec::build`] attaches the accumulator to every journal plane,
/// so the two only ever exist as a pair.
#[derive(Debug, Clone)]
pub struct SloPlane {
    accum: Arc<SloAccum>,
    engine: SloEngine,
}

impl SloPlane {
    /// Closes every window that ended by `now_secs` and returns the
    /// fire/resolve transitions to journal.
    pub(crate) fn drain(&mut self, now_secs: u64) -> Vec<TelemetryEvent> {
        self.engine.drain(&self.accum, now_secs)
    }

    /// The evaluator, for its gauges.
    pub(crate) fn evaluator(&self) -> &SloEngine {
        &self.engine
    }
}

/// Everything that shapes an admission core's decisions and journal.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreSpec {
    /// Nodes in the served cluster.
    pub cluster_size: u32,
    /// Engine shards (1 = the single plane).
    pub shards: u32,
    /// The predictor every plane runs.
    pub predictor: PredictorKind,
    /// Reject quotes starting more than this many virtual seconds out.
    pub quote_horizon_secs: Option<u64>,
    /// Re-check batched quotes against serial negotiation.
    pub verify_parity: bool,
    /// SLO rule specs (original spellings), in evaluation order.
    pub slo: Vec<String>,
    /// SLO window width in virtual seconds.
    pub slo_window_secs: u64,
}

impl Default for CoreSpec {
    /// The daemon's defaults: 64 nodes, one plane, null predictor, no
    /// horizon, parity verification on, no SLO rules.
    fn default() -> Self {
        CoreSpec {
            cluster_size: 64,
            shards: 1,
            predictor: PredictorKind::Null,
            quote_horizon_secs: None,
            verify_parity: true,
            slo: Vec::new(),
            slo_window_secs: pqos_telemetry::slo::DEFAULT_WINDOW_SECS,
        }
    }
}

impl CoreSpec {
    /// Reads the spec a trace header records. Replay does not re-check
    /// parity (it compares whole responses instead).
    ///
    /// # Errors
    ///
    /// [`ReplayError::Unsupported`] for an unknown predictor, a shard
    /// count that does not fit the cluster, or an unparseable SLO rule.
    pub fn from_meta(meta: &TraceMeta) -> Result<CoreSpec, ReplayError> {
        let predictor = match meta.predictor.as_str() {
            "null" => PredictorKind::Null,
            "synthetic-aix" => PredictorKind::SyntheticAix,
            other => {
                return Err(ReplayError::Unsupported(format!(
                    "unknown predictor {other:?} (this build knows \"null\" and \"synthetic-aix\")"
                )))
            }
        };
        let shards = u32::try_from(meta.shards).map_err(|_| {
            ReplayError::Unsupported(format!(
                "trace claims {} shards, more than any engine can run",
                meta.shards
            ))
        })?;
        let spec = CoreSpec {
            cluster_size: meta.cluster_size,
            shards,
            predictor,
            quote_horizon_secs: meta.quote_horizon_secs,
            verify_parity: false,
            slo: meta.slo.clone(),
            slo_window_secs: meta.slo_window_secs,
        };
        spec.validate()
            .map_err(|e| ReplayError::Unsupported(format!("trace header: {e}")))?;
        Ok(spec)
    }

    /// Checks the spec describes a core [`build`](Self::build) can make.
    ///
    /// # Errors
    ///
    /// A message naming the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.cluster_size == 0 {
            return Err("the cluster needs at least one node".into());
        }
        if self.shards == 0 || self.shards > self.cluster_size {
            return Err(format!(
                "{} shards over {} nodes — a shard must own at least one node",
                self.shards, self.cluster_size
            ));
        }
        if !self.slo.is_empty() && self.slo_window_secs == 0 {
            return Err("SLO window must be at least one second".into());
        }
        for spec in &self.slo {
            pqos_telemetry::slo::parse_rule(spec)
                .map_err(|e| format!("bad SLO rule {spec:?}: {e}"))?;
        }
        Ok(())
    }

    /// The `--record` header for a daemon serving this spec with
    /// `engine`'s time scale and fan-out.
    pub fn trace_meta(&self, engine: &EngineConfig) -> TraceMeta {
        TraceMeta {
            version: TRACE_FORMAT_VERSION,
            source: "qosd".into(),
            cluster_size: self.cluster_size,
            time_scale: engine.time_scale,
            batch_threads: engine.batch_threads as u64,
            quote_horizon_secs: self.quote_horizon_secs,
            predictor: self.predictor.as_str().into(),
            shards: u64::from(self.shards),
            slo: self.slo.clone(),
            slo_window_secs: self.slo_window_secs,
        }
    }

    /// The journals a built core writes, in merge order: the whole run
    /// for one plane; shards `0..N` then the coordinator otherwise.
    pub fn planes(&self) -> Vec<JournalPlane> {
        if self.shards == 1 {
            return vec![JournalPlane::Whole];
        }
        (0..self.shards)
            .map(JournalPlane::Shard)
            .chain([JournalPlane::Wide])
            .collect()
    }

    /// Merges per-plane journal texts, given in [`planes`](Self::planes)
    /// order, into the one journal `pqos-doctor`, the promise audit and
    /// replay parity read.
    pub fn merge_journals(&self, texts: &[&str]) -> String {
        if self.shards == 1 {
            texts.concat()
        } else {
            pqos_telemetry::merge::merge_journals_to_string(texts)
        }
    }

    /// Builds the core and its SLO plane. `journal` turns each plane's
    /// telemetry builder (the SLO sink already attached) into that
    /// plane's telemetry; it is called once per [`planes`](Self::planes)
    /// entry, in that order.
    ///
    /// # Errors
    ///
    /// The first error `journal` returns.
    ///
    /// # Panics
    ///
    /// When the spec does not [`validate`](Self::validate).
    pub fn build<E>(
        &self,
        mut journal: impl FnMut(JournalPlane, TelemetryBuilder) -> Result<Telemetry, E>,
    ) -> Result<(ShardedCore<BoxedPredictor>, Option<SloPlane>), E> {
        if let Err(e) = self.validate() {
            panic!("invalid core spec: {e}");
        }
        let slo = (!self.slo.is_empty()).then(|| SloPlane {
            accum: Arc::new(SloAccum::new(self.slo_window_secs)),
            engine: SloEngine::new(
                self.slo
                    .iter()
                    .map(|s| pqos_telemetry::slo::parse_rule(s).expect("validated"))
                    .collect(),
            ),
        });
        let mut open = |plane: JournalPlane| {
            let mut builder = Telemetry::builder();
            if let Some(slo) = &slo {
                builder = builder.sink(Box::new(SloSink(Arc::clone(&slo.accum))));
            }
            journal(plane, builder)
        };
        let session = |nodes: u32, base: u32, seed: u64, telemetry: Telemetry| {
            NegotiationSession::new(
                SimConfig::paper_defaults().cluster_size_nodes(nodes),
                self.predictor.build(seed, nodes),
                telemetry,
            )
            .verify_parity(self.verify_parity)
            .node_base(u64::from(base))
        };
        let core = if self.shards == 1 {
            let telemetry = open(JournalPlane::Whole)?;
            ShardedCore::single(session(self.cluster_size, 0, PLANE_SEED, telemetry))
        } else {
            let mut sessions = Vec::with_capacity(self.shards as usize);
            for (k, span) in (0..).zip(partition_spans(self.cluster_size, self.shards)) {
                let telemetry = open(JournalPlane::Shard(k))?;
                sessions.push(session(
                    span.width,
                    span.base,
                    PLANE_SEED ^ u64::from(k),
                    telemetry,
                ));
            }
            ShardedCore::sharded(
                sessions,
                self.predictor.build(PLANE_SEED, self.cluster_size),
                open(JournalPlane::Wide)?,
                Telemetry::builder().build(),
            )
        };
        // On the core, not per session: the wide-job coordinator must
        // refuse past-horizon starts exactly like every shard does.
        let core = match self.quote_horizon_secs {
            Some(secs) => core.quote_horizon(SimDuration::from_secs(secs)),
            None => core,
        };
        Ok((core, slo))
    }
}

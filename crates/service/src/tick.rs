//! The one deterministic tick.
//!
//! [`step`] is what the engine thread does with one drained queue-full of
//! requests and what replay does with one recorded epoch. Given the same
//! core, tick time, requests and job ids it makes the same decisions and
//! writes the same journal lines, which is the whole replay contract. The
//! only differences between the two callers are where the job ids come
//! from (fresh from the engine's counter, or read back from the trace)
//! and what happens to each answer (sent to a client, or compared with
//! the recording).

use crate::protocol::{ErrorCode, Request, Response};
use crate::shard::ShardedCore;
use crate::spec::SloPlane;
use pqos_core::session::{AcceptError, AdmissionRequest, CancelError, HeldQuote, QuoteDecision};
use pqos_predict::api::Predictor;
use pqos_sim_core::time::{SimDuration, SimTime};
use pqos_workload::job::JobId;

/// What [`step`] reports about one of the tick's requests.
// Each answer is consumed at once by the caller; boxing the response
// would put an allocation on every reply.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// The negotiate is about to be quoted in this tick's batch.
    Batching,
    /// The deterministic response to send.
    Response(Response),
    /// A `status`, `dump` or `history` query: its answer carries
    /// wall-clock state only the caller has. Reported in arrival order,
    /// so it sees every mutation that arrived before it.
    Query,
}

/// Runs one tick over `epoch_ops`, each a request plus, for a negotiate,
/// the job id it runs under:
///
/// 1. advance virtual time to `tick_secs`, firing due starts and
///    completions into the journal;
/// 2. drain the SLO plane and journal its fire/resolve transitions;
/// 3. quote every negotiate in one batch against this tick's book
///    snapshot (`Batching` for each, then each one's response);
/// 4. apply accepts and cancels, and report queries, in arrival order;
/// 5. stop after a `shutdown`, whose acknowledgement is the last answer.
///
/// `answer` receives each request's index with what to send for it.
/// Returns whether the tick ended at a shutdown.
///
/// # Panics
///
/// When a negotiate comes without a job id.
pub fn step<P: Predictor + Sync>(
    core: &mut ShardedCore<P>,
    slo: Option<&mut SloPlane>,
    tick_secs: u64,
    epoch_ops: &[(Request, Option<JobId>)],
    threads: usize,
    mut answer: impl FnMut(&ShardedCore<P>, usize, Answer),
) -> bool {
    core.advance_to(SimTime::from_secs(tick_secs));
    if let Some(slo) = slo {
        for alert in slo.drain(tick_secs) {
            core.alert_telemetry().emit(|| alert.clone());
        }
    }

    // Pass 1: one batched quote call. Rejected negotiates consumed their
    // job id too, so their id rides along either way.
    let mut quoted = Vec::new();
    let mut batch = Vec::new();
    for (i, (request, job)) in epoch_ops.iter().enumerate() {
        if let Request::Negotiate {
            size, runtime_secs, ..
        } = *request
        {
            quoted.push(i);
            batch.push((
                job.expect("every negotiate runs under a job id"),
                AdmissionRequest {
                    size,
                    runtime: SimDuration::from_secs(runtime_secs),
                },
            ));
        }
    }
    if !batch.is_empty() {
        for &i in &quoted {
            answer(core, i, Answer::Batching);
        }
        let decisions = core.quote_batch(&batch, threads);
        for ((&i, (job, _)), decision) in quoted.iter().zip(&batch).zip(decisions) {
            let response = quote_response(epoch_ops[i].0.id(), job.as_u64(), decision);
            answer(core, i, Answer::Response(response));
        }
    }

    // Pass 2: mutations and queries in arrival order.
    for (i, (request, _)) in epoch_ops.iter().enumerate() {
        let id = request.id();
        let response = match *request {
            Request::Negotiate { .. } => continue,
            Request::Accept { job, .. } => accept_response(id, core.accept(JobId::new(job))),
            Request::Cancel { job, .. } => cancel_response(id, core.cancel(JobId::new(job))),
            Request::Status { .. } | Request::Dump { .. } | Request::History { .. } => {
                answer(core, i, Answer::Query);
                continue;
            }
            Request::Shutdown { .. } => {
                answer(core, i, Answer::Response(Response::Ok { id }));
                return true;
            }
        };
        answer(core, i, Answer::Response(response));
    }
    false
}

fn quote_response(id: u64, job: u64, decision: QuoteDecision) -> Response {
    match decision {
        QuoteDecision::Quoted(held) => Response::Quote {
            id,
            job,
            start_secs: held.quote.start.as_secs(),
            promised_secs: held.quote.deadline.as_secs(),
            deadline_secs: held.deadline.as_secs(),
            success_probability: held.quote.promised_success(),
            satisfied_threshold: held.satisfied_threshold,
        },
        QuoteDecision::Rejected => Response::Error {
            id,
            code: ErrorCode::Rejected,
            detail: "job cannot fit the cluster".into(),
        },
    }
}

fn accept_response(id: u64, outcome: Result<HeldQuote, AcceptError>) -> Response {
    match outcome {
        Ok(_) => Response::Ok { id },
        Err(e) => Response::Error {
            id,
            code: match e {
                AcceptError::UnknownQuote => ErrorCode::UnknownQuote,
                AcceptError::QuoteExpired => ErrorCode::QuoteExpired,
            },
            detail: e.to_string(),
        },
    }
}

fn cancel_response(id: u64, outcome: Result<(), CancelError>) -> Response {
    match outcome {
        Ok(()) => Response::Ok { id },
        Err(e) => Response::Error {
            id,
            code: match e {
                CancelError::UnknownJob => ErrorCode::UnknownJob,
                CancelError::AlreadyStarted => ErrorCode::AlreadyStarted,
            },
            detail: e.to_string(),
        },
    }
}

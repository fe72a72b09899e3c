//! Adapter exposing a corpus cell to the closed-system driver.
//!
//! One [`CorpusDriver`] is one cell of the workloads × strategies
//! matrix: a [`CorpusWorkload`] executed under a [`FixStrategy`] against
//! a fresh [`CorpusDb`]. Attach a
//! [`sicost_mvsg::SamplingCertifier`] at construction and the seeded
//! concurrent run becomes the *dynamic* side of the robustness
//! cross-validation: a statically robust cell must certify zero SI
//! anomalies.

use crate::corpus::CorpusWorkload;
use crate::exec::{strategy_programs, Binding, CorpusDb, FixStrategy, PARAM_ROWS};
use sicost_common::Xoshiro256;
use sicost_core::{Program, SfuTreatment};
use sicost_driver::{Outcome, Workload};
use sicost_engine::{EngineConfig, HistoryObserver, TxnError};
use std::sync::Arc;

/// One sampled client request: a program instance, replayable across
/// retry attempts (same binding, same tag).
#[derive(Debug, Clone)]
pub struct CorpusRequest {
    /// Index into the cell's program list (= kind index).
    pub program: usize,
    /// Concrete parameter binding.
    pub binding: Binding,
    /// Value written by the instance's blind updates.
    pub tag: i64,
}

/// A measurable corpus cell: programs, database, and request generator.
pub struct CorpusDriver {
    workload: CorpusWorkload,
    programs: Vec<Program>,
    db: CorpusDb,
}

impl CorpusDriver {
    /// Builds the cell: derives the strategy's program variant, then a
    /// database able to execute it, optionally observed (pass a
    /// [`sicost_mvsg::SamplingCertifier`] to certify the run online).
    pub fn new(
        workload: CorpusWorkload,
        strategy: FixStrategy,
        sfu: SfuTreatment,
        engine: EngineConfig,
        observer: Option<Arc<dyn HistoryObserver>>,
    ) -> Self {
        let programs = strategy_programs(&workload, strategy, sfu);
        let db = CorpusDb::build(&programs, PARAM_ROWS, engine, observer);
        Self {
            workload,
            programs,
            db,
        }
    }

    /// The executable programs of this cell (strategy already applied).
    pub fn programs(&self) -> &[Program] {
        &self.programs
    }

    /// The database under test.
    pub fn db(&self) -> &CorpusDb {
        &self.db
    }
}

fn classify(result: Result<(), TxnError>) -> Outcome {
    match result {
        Ok(()) => Outcome::Committed,
        Err(TxnError::Deadlock) => Outcome::Deadlock,
        Err(TxnError::Transient(_)) => Outcome::TransientFault,
        Err(e) if e.is_serialization_failure() => Outcome::SerializationFailure,
        Err(_) => Outcome::ApplicationRollback,
    }
}

impl Workload for CorpusDriver {
    type Request = CorpusRequest;

    fn kinds(&self) -> Vec<&'static str> {
        self.workload.kind_names().to_vec()
    }

    fn sample(&self, rng: &mut Xoshiro256) -> (usize, CorpusRequest) {
        let program = rng.next_below(self.programs.len() as u64) as usize;
        let binding = Binding::sample(&self.programs[program].params, rng, PARAM_ROWS);
        let tag = rng.next_below(i64::MAX as u64) as i64;
        (
            program,
            CorpusRequest {
                program,
                binding,
                tag,
            },
        )
    }

    fn execute(&self, request: &CorpusRequest, _attempt: u32) -> Outcome {
        classify(self.db.run_program(
            &self.programs[request.program],
            &request.binding,
            request.tag,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sicost_driver::{run, RunConfig};

    #[test]
    fn a_corpus_cell_runs_under_the_driver_and_makes_progress() {
        let driver = CorpusDriver::new(
            CorpusWorkload::DoctorsOnCall,
            FixStrategy::Base,
            SfuTreatment::AsLockOnly,
            EngineConfig::functional(),
            None,
        );
        assert_eq!(driver.kinds().len(), driver.programs().len());
        let metrics = run(&driver, &RunConfig::new(4));
        assert!(metrics.commits() > 0, "the cell must make progress");
    }

    #[test]
    fn classification_maps_engine_errors_to_driver_outcomes() {
        assert_eq!(classify(Ok(())), Outcome::Committed);
        assert_eq!(classify(Err(TxnError::Deadlock)), Outcome::Deadlock);
        assert_eq!(
            classify(Err(TxnError::Transient("x".into()))),
            Outcome::TransientFault
        );
        assert_eq!(
            classify(Err(TxnError::Constraint("x".into()))),
            Outcome::ApplicationRollback
        );
    }
}

//! Errors raised while building or running a system model.

use std::fmt;

use swa_ima::{ConfigError, MessageId};
use swa_nsa::{BuildError, Diagnosis, ExplainedError, SimError};

/// Errors from [`crate::instance::SystemModel::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ModelError {
    /// The configuration failed structural validation.
    InvalidConfig(Vec<ConfigError>),
    /// A message's worst-case transfer delay is not smaller than the common
    /// period of its endpoint tasks, so the virtual-link automaton could
    /// still be busy when the next instance is sent.
    DelayExceedsPeriod {
        /// The offending message.
        message: MessageId,
        /// The effective worst-case delay.
        delay: i64,
        /// The endpoint tasks' period.
        period: i64,
    },
    /// The generated network failed validation (an internal error — please
    /// report it).
    Network(BuildError),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidConfig(errs) => {
                write!(f, "invalid configuration ({} problems):", errs.len())?;
                for e in errs {
                    write!(f, "\n  - {e}")?;
                }
                Ok(())
            }
            Self::DelayExceedsPeriod {
                message,
                delay,
                period,
            } => write!(
                f,
                "message {message} has worst-case delay {delay} >= its tasks' period {period}; \
                 the virtual link could drop an instance"
            ),
            Self::Network(e) => write!(f, "generated network is malformed: {e}"),
        }
    }
}

impl std::error::Error for ModelError {}

impl From<BuildError> for ModelError {
    fn from(e: BuildError) -> Self {
        Self::Network(e)
    }
}

/// Errors from the end-to-end analysis pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PipelineError {
    /// Model construction failed.
    Model(ModelError),
    /// Interpretation of the model failed (a model-level bug; validated
    /// configurations should never trigger this).
    Simulation(SimError),
    /// Interpretation failed and forensics were requested
    /// ([`Analyzer::explain`](crate::Analyzer::explain)): carries the
    /// structured [`Diagnosis`] of the failure state when the error kind
    /// is covered by the forensics layer.
    Diagnosed {
        /// The underlying simulation error.
        error: SimError,
        /// The captured failure-state diagnosis, when available.
        diagnosis: Option<Box<Diagnosis>>,
    },
}

impl PipelineError {
    /// The captured diagnosis, if this error carries one.
    #[must_use]
    pub fn diagnosis(&self) -> Option<&Diagnosis> {
        match self {
            Self::Diagnosed {
                diagnosis: Some(d), ..
            } => Some(d),
            _ => None,
        }
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Model(e) => write!(f, "model construction failed: {e}"),
            Self::Simulation(e) => write!(f, "model interpretation failed: {e}"),
            Self::Diagnosed { error, diagnosis } => {
                write!(f, "model interpretation failed: {error}")?;
                if let Some(d) = diagnosis {
                    write!(f, "\n{}", d.render())?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<ModelError> for PipelineError {
    fn from(e: ModelError) -> Self {
        Self::Model(e)
    }
}

impl From<SimError> for PipelineError {
    fn from(e: SimError) -> Self {
        Self::Simulation(e)
    }
}

impl From<ExplainedError> for PipelineError {
    fn from(e: ExplainedError) -> Self {
        Self::Diagnosed {
            error: e.error,
            diagnosis: e.diagnosis,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ModelError::InvalidConfig(vec![ConfigError::NoCoreTypes]);
        let msg = e.to_string();
        assert!(msg.contains("1 problems"));
        assert!(msg.contains("core types"));
        let e = PipelineError::Model(ModelError::Network(BuildError::UnknownChannel(3)));
        assert!(e.to_string().contains("ch3"));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ModelError>();
        assert_send_sync::<PipelineError>();
    }

    #[test]
    fn explained_error_converts_to_diagnosed_and_renders() {
        use swa_nsa::automaton::{AutomatonBuilder, Edge};
        use swa_nsa::expr::CmpOp;
        use swa_nsa::guard::{ClockAtom, Guard, Invariant};
        use swa_nsa::network::NetworkBuilder;
        use swa_nsa::sim::Simulator;

        // Invariant `c <= 5` but the only exit needs `c >= 10`: a time lock.
        let mut nb = NetworkBuilder::new();
        let c = nb.clock("c");
        let mut a = AutomatonBuilder::new("stuck");
        let l0 = a.location_with_invariant("l0", Invariant::upper_bound(c, 5));
        let l1 = a.location("l1");
        a.edge(
            Edge::new(l0, l1).with_guard(Guard::always().and_clock(ClockAtom::new(
                c,
                CmpOp::Ge,
                10,
            ))),
        );
        nb.automaton(a.finish(l0));
        let network = nb.build().unwrap();

        let explained = Simulator::new(&network)
            .horizon(100)
            .run_explained()
            .unwrap_err();
        let err = PipelineError::from(explained);
        assert!(err.diagnosis().is_some(), "time lock carries a diagnosis");
        let text = err.to_string();
        assert!(text.contains("model interpretation failed"), "{text}");
        assert!(text.contains("time lock"), "{text}");
        assert!(text.contains("stuck"), "names the automaton: {text}");
    }
}

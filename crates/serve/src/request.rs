//! The analysis request envelope and response rendering.
//!
//! A request is a JSON object embedding the workspace's canonical XML
//! configuration format (so any file accepted by `swa analyze` can be
//! served verbatim):
//!
//! ```json
//! {
//!   "config_xml": "<configuration>…</configuration>",
//!   "hyperperiods": 1,
//!   "explain": false,
//!   "deadline_ms": 5000,
//!   "no_cache": false
//! }
//! ```
//!
//! Every field except `config_xml` is optional, and unknown fields are
//! ignored. That includes the deprecated `"engine"` field: guards and
//! updates always run as compiled bytecode, and by the determinism
//! theorem the evaluator never changed a verdict, so a body that still
//! names an engine gets the same answer (and the same cache entry) as
//! one that does not. Malformed JSON or bad field values map to 400; XML that parses but fails configuration
//! validation maps to 422 (the request is well-formed, the *model* is
//! not). Note that cache keys are computed from the **parsed**
//! configuration, never the XML text, so whitespace or attribute-order
//! differences between clients still hit the same cache entry.

use std::fmt;

use swa_core::obs::json_escape;
use swa_core::{CacheKey, CachedVerdict};
use swa_ima::Configuration;
use swa_sweep::{Axis, SweepOptions};

use crate::json::Json;

/// A parsed, validated analysis request.
#[derive(Debug, Clone)]
pub struct AnalyzeRequest {
    /// The configuration to analyze.
    pub config: Configuration,
    /// Analysis horizon in hyperperiods (clamped to ≥ 1 downstream).
    pub hyperperiods: u32,
    /// Attach failure forensics to error responses.
    pub explain: bool,
    /// Per-request deadline in milliseconds (`None` = no deadline).
    pub deadline_ms: Option<u64>,
    /// Bypass the verdict cache for this request.
    pub no_cache: bool,
}

/// Why a request was rejected before analysis.
#[derive(Debug)]
pub enum RequestError {
    /// The body is not acceptable JSON / is missing or mistyping fields
    /// (HTTP 400).
    Bad(String),
    /// The embedded configuration is syntactically fine but semantically
    /// invalid (HTTP 422).
    Unprocessable(String),
}

impl RequestError {
    /// The HTTP status this rejection maps to.
    #[must_use]
    pub fn status(&self) -> u16 {
        match self {
            RequestError::Bad(_) => 400,
            RequestError::Unprocessable(_) => 422,
        }
    }

    /// The error response for this rejection.
    pub(crate) fn reply(&self) -> (u16, String) {
        let kind = match self {
            RequestError::Bad(_) => "bad-request",
            RequestError::Unprocessable(_) => "invalid-model",
        };
        (self.status(), render_error(kind, &self.to_string()))
    }
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::Bad(m) | RequestError::Unprocessable(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for RequestError {}

/// Parses and validates one `/analyze` request body.
///
/// # Errors
///
/// [`RequestError::Bad`] for malformed JSON / fields,
/// [`RequestError::Unprocessable`] for XML or configuration-validation
/// failures.
pub fn parse_analyze(body: &[u8]) -> Result<AnalyzeRequest, RequestError> {
    let doc = envelope(body)?;
    // Fields are checked in the order written; the XML (422) comes last,
    // so a bad field answers 400 even when the XML is bad too.
    Ok(AnalyzeRequest {
        hyperperiods: hyperperiods(&doc)?,
        explain: flag(&doc, "explain")?,
        no_cache: flag(&doc, "no_cache")?,
        deadline_ms: deadline_ms(&doc)?,
        config: configuration(&doc)?,
    })
}

/// A parsed, validated sensitivity-sweep request (`POST /sweep`).
///
/// The envelope mirrors `/analyze` plus the sweep controls; defaults are
/// identical to the `swa sweep` CLI defaults, which is what makes the
/// endpoint's final report line byte-equal to the CLI's `--json` output:
///
/// ```json
/// {
///   "config_xml": "<configuration>…</configuration>",
///   "axis": "wcet",
///   "tolerance": 0.01,
///   "max_probes": 64,
///   "samples": 0,
///   "chains": false,
///   "chain_bound": null,
///   "per_task": false,
///   "hyperperiods": 1,
///   "deadline_ms": 5000
/// }
/// ```
///
/// Unknown fields are ignored, among them the deprecated `"engine"`
/// (see the module docs).
#[derive(Debug, Clone)]
pub struct SweepRequest {
    /// The base configuration the sweep scales.
    pub config: Configuration,
    /// The parsed parameter axis.
    pub axis: Axis,
    /// Engine options (tolerance, probe budget, chain gating, …).
    pub options: SweepOptions,
    /// Also compute the per-task WCET sensitivity vector.
    pub per_task: bool,
    /// Per-request deadline in milliseconds (`None` = no deadline).
    pub deadline_ms: Option<u64>,
}

/// Parses and validates one `/sweep` request body.
///
/// # Errors
///
/// [`RequestError::Bad`] for malformed JSON / fields / axis specs,
/// [`RequestError::Unprocessable`] for XML or configuration-validation
/// failures.
pub fn parse_sweep(body: &[u8]) -> Result<SweepRequest, RequestError> {
    let doc = envelope(body)?;
    let mut options = SweepOptions::default();

    if let Some(v) = doc.get("tolerance") {
        let tolerance = v
            .as_f64()
            .ok_or_else(|| RequestError::Bad("\"tolerance\" must be a number".into()))?;
        if !(tolerance.is_finite() && tolerance > 0.0) {
            return Err(RequestError::Bad(
                "\"tolerance\" must be finite and positive".into(),
            ));
        }
        options.search.tolerance = tolerance;
    }
    if let Some(v) = doc.get("max_probes") {
        let max_probes = v.as_u64().ok_or_else(|| {
            RequestError::Bad("\"max_probes\" must be a non-negative integer".into())
        })?;
        options.search.max_probes = usize::try_from(max_probes)
            .map_err(|_| RequestError::Bad("\"max_probes\" out of range".into()))?;
    }
    if let Some(v) = doc.get("samples") {
        let samples = v.as_u64().ok_or_else(|| {
            RequestError::Bad("\"samples\" must be a non-negative integer".into())
        })?;
        options.search.presamples = usize::try_from(samples)
            .map_err(|_| RequestError::Bad("\"samples\" out of range".into()))?;
    }
    options.hyperperiods = hyperperiods(&doc)?;
    options.chains = flag(&doc, "chains")?;
    options.chain_bound = match doc.get("chain_bound") {
        None | Some(Json::Null) => None,
        Some(v) => {
            let bound = v.as_u64().ok_or_else(|| {
                RequestError::Bad("\"chain_bound\" must be a non-negative integer".into())
            })?;
            Some(
                i64::try_from(bound)
                    .map_err(|_| RequestError::Bad("\"chain_bound\" out of range".into()))?,
            )
        }
    };
    options.ladder = match doc.get("ladder") {
        None | Some(Json::Null) => swa_core::LadderMode::Off,
        Some(v) => {
            let name = v
                .as_str()
                .ok_or_else(|| RequestError::Bad("\"ladder\" must be a string".into()))?;
            name.parse().map_err(RequestError::Bad)?
        }
    };
    let per_task = flag(&doc, "per_task")?;
    let deadline_ms = deadline_ms(&doc)?;
    let config = configuration(&doc)?;

    let axis_spec = match doc.get("axis") {
        None => "wcet",
        Some(v) => v
            .as_str()
            .ok_or_else(|| RequestError::Bad("\"axis\" must be a string".into()))?,
    };
    let axis = Axis::parse(axis_spec, &config).map_err(|e| RequestError::Bad(e.to_string()))?;

    Ok(SweepRequest {
        config,
        axis,
        options,
        per_task,
        deadline_ms,
    })
}

/// Decodes what every endpoint's body is: a UTF-8 JSON object carrying a
/// string `config_xml`.
fn envelope(body: &[u8]) -> Result<Json, RequestError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| RequestError::Bad("request body is not UTF-8".into()))?;
    let doc = Json::parse(text).map_err(|e| RequestError::Bad(e.to_string()))?;
    if !matches!(doc, Json::Obj(_)) {
        return Err(RequestError::Bad(
            "request body must be a JSON object".into(),
        ));
    }
    config_xml(&doc)?;
    Ok(doc)
}

fn config_xml(doc: &Json) -> Result<&str, RequestError> {
    doc.get("config_xml")
        .ok_or_else(|| RequestError::Bad("missing required field \"config_xml\"".into()))?
        .as_str()
        .ok_or_else(|| RequestError::Bad("\"config_xml\" must be a string".into()))
}

/// Decodes and validates the embedded configuration (422 on failure).
fn configuration(doc: &Json) -> Result<Configuration, RequestError> {
    let config = swa_xmlio::configuration_from_xml(config_xml(doc)?)
        .map_err(|e| RequestError::Unprocessable(format!("config_xml: {e}")))?;
    config.validate().map_err(|errors| {
        let msgs: Vec<String> = errors.iter().map(ToString::to_string).collect();
        RequestError::Unprocessable(format!("invalid configuration: {}", msgs.join("; ")))
    })?;
    Ok(config)
}

fn hyperperiods(doc: &Json) -> Result<u32, RequestError> {
    match doc.get("hyperperiods") {
        None => Ok(1),
        Some(v) => u32::try_from(v.as_u64().ok_or_else(|| {
            RequestError::Bad("\"hyperperiods\" must be a non-negative integer".into())
        })?)
        .map_err(|_| RequestError::Bad("\"hyperperiods\" out of range".into())),
    }
}

fn deadline_ms(doc: &Json) -> Result<Option<u64>, RequestError> {
    match doc.get("deadline_ms") {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| {
            RequestError::Bad("\"deadline_ms\" must be a non-negative integer".into())
        }),
    }
}

fn flag(doc: &Json, name: &str) -> Result<bool, RequestError> {
    match doc.get(name) {
        None => Ok(false),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| RequestError::Bad(format!("\"{name}\" must be a boolean"))),
    }
}

/// Renders a successful verdict response body.
///
/// The typed `verdict` field is the primary one; the boolean
/// `schedulable` field is kept for one release for older clients. The
/// `decided_by` field names the provenance — `"simulation"` for the
/// exact analysis, or the ladder tier (`"t0-utilization"` or
/// `"t1-window-rta"`) that pre-filtered the request.
#[must_use]
pub fn render_verdict(
    verdict: &CachedVerdict,
    cached: bool,
    key: CacheKey,
    check_ms: f64,
) -> String {
    format!(
        "{{\"status\":\"ok\",\"verdict\":\"{}\",\"schedulable\":{},\"decided_by\":\"{}\",\"cached\":{},\"key\":\"{}\",\"hyperperiod\":{},\"jobs\":{},\"missed_jobs\":{},\"check_ms\":{:.3}}}",
        verdict.verdict().label(), verdict.schedulable, verdict.decided_by.label(), cached, key, verdict.hyperperiod, verdict.jobs, verdict.missed_jobs, check_ms,
    )
}

/// Renders an error response body (`kind` is a stable machine-readable
/// label; `message` is free text).
#[must_use]
pub fn render_error(kind: &str, message: &str) -> String {
    format!(
        "{{\"status\":\"error\",\"error\":\"{}\",\"message\":\"{}\"}}",
        json_escape(kind),
        json_escape(message),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use swa_ima::{
        Configuration, CoreRef, CoreType, CoreTypeId, Module, ModuleId, Partition, SchedulerKind,
        Task, Window,
    };

    fn config_xml() -> String {
        let config = Configuration {
            core_types: vec![CoreType::new("ct")],
            modules: vec![Module::homogeneous("M", 1, CoreTypeId::from_raw(0))],
            partitions: vec![Partition::new(
                "P",
                SchedulerKind::Fpps,
                vec![Task::new("t", 1, vec![10], 50)],
            )],
            binding: vec![CoreRef::new(ModuleId::from_raw(0), 0)],
            windows: vec![vec![Window::new(0, 50)]],
            messages: vec![],
        };
        swa_xmlio::configuration_to_xml(&config)
    }

    fn envelope(extra: &str) -> String {
        format!(
            "{{\"config_xml\":\"{}\"{}}}",
            json_escape(&config_xml()),
            extra
        )
    }

    #[test]
    fn parses_a_minimal_request_with_defaults() {
        let req = parse_analyze(envelope("").as_bytes()).unwrap();
        assert_eq!(req.hyperperiods, 1);
        assert!(!req.explain);
        assert!(!req.no_cache);
        assert_eq!(req.deadline_ms, None);
        assert_eq!(req.config.partitions.len(), 1);
    }

    #[test]
    fn parses_all_options() {
        let req = parse_analyze(
            envelope(",\"hyperperiods\":3,\"explain\":true,\"deadline_ms\":250,\"no_cache\":true")
                .as_bytes(),
        )
        .unwrap();
        assert_eq!(req.hyperperiods, 3);
        assert!(req.explain);
        assert!(req.no_cache);
        assert_eq!(req.deadline_ms, Some(250));
    }

    #[test]
    fn rejects_bad_envelopes_as_400() {
        for body in [
            "not json",
            "[1]",
            "{}",
            r#"{"config_xml": 7}"#,
            &envelope(",\"hyperperiods\":-1"),
            &envelope(",\"deadline_ms\":\"soon\""),
            &envelope(",\"explain\":\"yes\""),
        ] {
            let err = parse_analyze(body.as_bytes()).unwrap_err();
            assert_eq!(err.status(), 400, "{body:.60}");
        }
    }

    #[test]
    fn a_deprecated_engine_field_is_ignored() {
        let analyze =
            |extra: &str| format!("{:?}", parse_analyze(envelope(extra).as_bytes()).unwrap());
        let sweep = |extra: &str| format!("{:?}", parse_sweep(envelope(extra).as_bytes()).unwrap());
        let (plain_analyze, plain_sweep) = (analyze(""), sweep(""));
        for value in ["\"ast\"", "\"bytecode\"", "\"turbo\"", "7"] {
            let extra = format!(",\"engine\":{value}");
            assert_eq!(
                analyze(&extra),
                plain_analyze,
                "/analyze with engine {value}"
            );
            assert_eq!(sweep(&extra), plain_sweep, "/sweep with engine {value}");
        }
    }

    #[test]
    fn rejects_invalid_models_as_422() {
        let err = parse_analyze(br#"{"config_xml": "<not-a-configuration/>"}"#).unwrap_err();
        assert_eq!(err.status(), 422);
        // Well-formed XML, invalid semantics: binding refers to a missing
        // module core.
        let mut config = swa_xmlio::configuration_from_xml(&config_xml()).unwrap();
        config.binding = vec![CoreRef::new(ModuleId::from_raw(0), 9)];
        let body = format!(
            "{{\"config_xml\":\"{}\"}}",
            json_escape(&swa_xmlio::configuration_to_xml(&config))
        );
        let err = parse_analyze(body.as_bytes()).unwrap_err();
        assert_eq!(err.status(), 422);
    }

    #[test]
    fn parses_a_minimal_sweep_request_with_cli_defaults() {
        let req = parse_sweep(envelope("").as_bytes()).unwrap();
        assert_eq!(req.axis, Axis::WcetScale);
        let defaults = SweepOptions::default();
        assert_eq!(req.options.search.tolerance, defaults.search.tolerance);
        assert_eq!(req.options.search.max_probes, defaults.search.max_probes);
        assert_eq!(req.options.search.presamples, defaults.search.presamples);
        assert_eq!(req.options.hyperperiods, 1);
        assert!(!req.options.chains);
        assert_eq!(req.options.chain_bound, None);
        assert!(!req.per_task);
        assert_eq!(req.deadline_ms, None);
        assert_eq!(req.options.ladder, swa_core::LadderMode::Off);
    }

    #[test]
    fn parses_all_sweep_options() {
        let req = parse_sweep(
            envelope(
                ",\"axis\":\"wcet:P/t\",\"tolerance\":0.05,\"max_probes\":32,\"samples\":8,\
                 \"chains\":true,\"chain_bound\":120,\"per_task\":true,\"hyperperiods\":2,\
                 \"deadline_ms\":250,\"ladder\":\"full\"",
            )
            .as_bytes(),
        )
        .unwrap();
        assert!(matches!(req.axis, Axis::TaskWcetScale(_)));
        assert_eq!(req.options.search.tolerance, 0.05);
        assert_eq!(req.options.search.max_probes, 32);
        assert_eq!(req.options.search.presamples, 8);
        assert!(req.options.chains);
        assert_eq!(req.options.chain_bound, Some(120));
        assert_eq!(req.options.hyperperiods, 2);
        assert!(req.per_task);
        assert_eq!(req.deadline_ms, Some(250));
        assert_eq!(req.options.ladder, swa_core::LadderMode::Full);
    }

    #[test]
    fn rejects_bad_sweep_envelopes() {
        for body in [
            "not json".to_string(),
            envelope(",\"axis\":\"voltage\""),
            envelope(",\"axis\":\"wcet:P/nope\""),
            envelope(",\"tolerance\":0"),
            envelope(",\"tolerance\":\"tight\""),
            envelope(",\"max_probes\":-1"),
            envelope(",\"chain_bound\":-5"),
            envelope(",\"ladder\":\"turbo\""),
            envelope(",\"ladder\":\"fast\""),
            envelope(",\"ladder\":7"),
        ] {
            let err = parse_sweep(body.as_bytes()).unwrap_err();
            assert_eq!(err.status(), 400, "{body:.80}");
        }
        let err = parse_sweep(br#"{"config_xml": "<not-a-configuration/>"}"#).unwrap_err();
        assert_eq!(err.status(), 422);
    }

    #[test]
    fn responses_are_valid_json() {
        let verdict = CachedVerdict {
            schedulable: true,
            hyperperiod: 50,
            jobs: 1,
            missed_jobs: 0,
            missing_partitions: vec![],
            decided_by: swa_core::DecidedBy::Simulation,
        };
        let key = swa_core::canon::hash_bytes(b"x");
        let ok = render_verdict(&verdict, true, key, 0.25);
        let doc = Json::parse(&ok).unwrap();
        assert_eq!(doc.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(doc.get("cached").unwrap().as_bool(), Some(true));
        assert_eq!(doc.get("verdict").unwrap().as_str(), Some("schedulable"));
        assert_eq!(doc.get("schedulable").unwrap().as_bool(), Some(true));
        assert_eq!(doc.get("decided_by").unwrap().as_str(), Some("simulation"));
        assert_eq!(
            doc.get("key").unwrap().as_str(),
            Some(key.to_string().as_str())
        );

        let laddered = CachedVerdict {
            decided_by: swa_core::DecidedBy::Utilization,
            schedulable: false,
            ..verdict
        };
        let doc = Json::parse(&render_verdict(&laddered, false, key, 0.25)).unwrap();
        assert_eq!(
            doc.get("decided_by").unwrap().as_str(),
            Some("t0-utilization")
        );

        let err = render_error("deadline", "expired after 5ms \"grace\"");
        let doc = Json::parse(&err).unwrap();
        assert_eq!(doc.get("error").unwrap().as_str(), Some("deadline"));
    }
}

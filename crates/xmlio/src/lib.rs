//! # swa-xmlio — XML interface for configurations and traces
//!
//! The paper's toolchain exchanges system configurations and operation
//! traces as XML files (Sect. 4: the scheduling tool generates an XML
//! configuration description, the model returns the trace). This crate
//! provides that interface:
//!
//! * [`xml`] — a small self-contained XML subset (elements, attributes,
//!   text, comments, the five predefined entities) with a
//!   recursive-descent parser that reports line/column positions, and an
//!   indenting writer;
//! * [`config_io`] — [`swa_ima::Configuration`] ⇄ XML, with by-name
//!   cross-references;
//! * [`trace_io`] — [`swa_core::SystemTrace`] ⇄ XML.
//!
//! # Examples
//!
//! ```
//! use swa_xmlio::{configuration_from_xml, configuration_to_xml};
//! # use swa_ima::*;
//! # let config = Configuration {
//! #     core_types: vec![CoreType::new("ct")],
//! #     modules: vec![Module::homogeneous("M", 1, CoreTypeId::from_raw(0))],
//! #     partitions: vec![Partition::new("P", SchedulerKind::Fpps,
//! #         vec![Task::new("t", 1, vec![10], 50)])],
//! #     binding: vec![CoreRef::new(ModuleId::from_raw(0), 0)],
//! #     windows: vec![vec![Window::new(0, 50)]],
//! #     messages: vec![],
//! # };
//! let xml = configuration_to_xml(&config);
//! let back = configuration_from_xml(&xml)?;
//! assert_eq!(back, config);
//! # Ok::<(), swa_xmlio::XmlError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![allow(clippy::module_name_repetitions)]

pub mod config_io;
pub mod error;
pub mod trace_io;
pub mod xml;

pub use config_io::{
    configuration_from_xml, configuration_to_xml, configuration_with_topology_from_xml,
    configuration_with_topology_to_xml,
};
pub use error::XmlError;
pub use trace_io::{trace_from_xml, trace_to_xml};
pub use xml::{parse, Element};

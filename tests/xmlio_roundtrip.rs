//! XML interface round-trip and rejection tests.
//!
//! The Sect. 4 integration loop depends on the XML interface being a
//! *lossless* encoding: `configuration_from_xml(configuration_to_xml(c))`
//! must reproduce `c` structurally for any configuration the rest of the
//! toolchain can produce. The suite checks that over randomized generated
//! workloads (including topologies), over hand-built configurations that
//! exercise every scheduler kind and task shape, and — the other half of
//! the contract — that malformed documents are rejected with *typed*
//! errors ([`XmlError::Parse`] / [`XmlError::Schema`] /
//! [`XmlError::UnknownReference`]), never mis-parsed into a different
//! configuration.

use swa::ima::{
    Configuration, CoreRef, CoreType, CoreTypeId, Message, Module, ModuleId, Partition,
    PartitionId, SchedulerKind, Task, TaskRef, Window,
};
use swa::workload::rng::Rng64;
use swa::workload::{industrial_config, IndustrialSpec};
use swa::xmlio::{
    configuration_from_xml, configuration_to_xml, configuration_with_topology_from_xml,
    trace_from_xml, XmlError,
};

/// Randomized specs spanning the generator's parameter space (sizes,
/// period menus, utilizations, message densities).
fn random_spec(seed: u64) -> IndustrialSpec {
    let mut rng = Rng64::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let menus: [&[i64]; 3] = [&[50, 100, 200, 400], &[25, 50, 100], &[40, 80, 160, 320]];
    IndustrialSpec {
        modules: 1 + rng.gen_range(3),
        cores_per_module: 1 + rng.gen_range(2),
        partitions_per_core: 1 + rng.gen_range(3),
        tasks_per_partition: 1 + rng.gen_range(4),
        core_utilization: 0.2 + rng.gen_f64() * 0.8,
        periods: menus[rng.gen_range(menus.len())].to_vec(),
        message_fraction: rng.gen_f64() * 0.5,
        seed,
    }
}

#[test]
fn randomized_configurations_roundtrip_structurally() {
    for seed in 0..40 {
        let config = industrial_config(&random_spec(seed));
        let xml = configuration_to_xml(&config);
        let restored = configuration_from_xml(&xml)
            .unwrap_or_else(|e| panic!("seed {seed}: generated XML rejected: {e}"));
        assert_eq!(restored, config, "seed {seed}: round-trip changed the configuration");
        // A second trip is a fixed point (no drift through re-encoding).
        assert_eq!(configuration_to_xml(&restored), xml, "seed {seed}: re-encoding drifted");
    }
}

/// Every scheduler kind, constrained deadlines, offsets, per-core-type
/// WCET vectors and both message delay kinds in one configuration.
fn kitchen_sink_config() -> Configuration {
    let ct_a = CoreTypeId::from_raw(0);
    Configuration {
        core_types: vec![CoreType::new("fast"), CoreType::new("slow")],
        modules: vec![
            Module::homogeneous("M0", 2, ct_a),
            Module::homogeneous("M1", 1, CoreTypeId::from_raw(1)),
        ],
        partitions: vec![
            Partition::new(
                "fpps",
                SchedulerKind::Fpps,
                vec![
                    Task::new("a", 2, vec![2, 4], 50).with_deadline(30).with_offset(5),
                    Task::new("b", 1, vec![3, 6], 100),
                ],
            ),
            Partition::new(
                "fpnps",
                SchedulerKind::Fpnps,
                vec![Task::new("c", 1, vec![4, 8], 100)],
            ),
            Partition::new(
                "edf",
                SchedulerKind::Edf,
                vec![
                    Task::new("d", 1, vec![2, 2], 50).with_deadline(20),
                    Task::new("e", 1, vec![2, 2], 50).with_deadline(40),
                ],
            ),
            Partition::new(
                "rr",
                SchedulerKind::RoundRobin { quantum: 3 },
                vec![Task::new("f", 1, vec![5, 5], 100)],
            ),
        ],
        binding: vec![
            CoreRef::new(ModuleId::from_raw(0), 0),
            CoreRef::new(ModuleId::from_raw(0), 1),
            CoreRef::new(ModuleId::from_raw(1), 0),
            CoreRef::new(ModuleId::from_raw(0), 0),
        ],
        windows: vec![
            vec![Window::new(0, 20), Window::new(50, 70)],
            vec![Window::new(0, 40)],
            vec![Window::new(10, 35)],
            vec![Window::new(25, 45)],
        ],
        messages: vec![
            Message::new(
                "intra",
                TaskRef::new(PartitionId::from_raw(0), 1),
                TaskRef::new(PartitionId::from_raw(3), 0),
                1,
                12,
            ),
            Message::new(
                "inter",
                TaskRef::new(PartitionId::from_raw(0), 1),
                TaskRef::new(PartitionId::from_raw(1), 0),
                2,
                15,
            ),
        ],
    }
}

#[test]
fn every_scheduler_kind_and_task_shape_roundtrips() {
    let config = kitchen_sink_config();
    let xml = configuration_to_xml(&config);
    let restored = configuration_from_xml(&xml).expect("kitchen-sink XML parses");
    assert_eq!(restored, config);
}

/// Non-ASCII names survive the round trip byte for byte, so an
/// XML-parsed configuration has the cache key of the same configuration
/// built in code.
#[test]
fn regulation_non_ascii_names_roundtrip_with_equal_canonical_keys() {
    let mut config = kitchen_sink_config();
    config.partitions[0].name = "régulation".into();
    config.partitions[1].tasks[0].name = "contrôle-µ".into();
    config.messages[0].name = "entrée→sortie".into();
    let xml = configuration_to_xml(&config);
    let restored = configuration_from_xml(&xml).expect("non-ASCII XML parses");
    assert_eq!(restored, config);
    assert_eq!(configuration_to_xml(&restored), xml, "re-encoding drifted");
    assert_eq!(
        swa::core::canonicalize(&restored, 1).key,
        swa::core::canonicalize(&config, 1).key,
        "the XML-parsed configuration got a different cache key"
    );

    // The text path, next to entities and across a child element.
    let e = swa::xmlio::parse("<r a='régulation &amp; ü'>é &lt;x<c/>ñ</r>").unwrap();
    assert_eq!(e.attributes, vec![("a".into(), "régulation & ü".into())]);
    assert_eq!(e.text, "é <xñ");
}

/// Helper: the document must be rejected, and with the expected error
/// variant — not silently coerced into some other configuration.
fn assert_rejected(xml: &str, what: &str, check: impl Fn(&XmlError) -> bool) {
    match configuration_from_xml(xml) {
        Ok(_) => panic!("{what}: malformed document was accepted"),
        Err(e) => assert!(check(&e), "{what}: wrong error variant: {e:?}"),
    }
}

#[test]
fn truncated_documents_are_parse_errors() {
    let xml = configuration_to_xml(&industrial_config(&random_spec(1)));
    // Cut the document mid-element at several depths.
    for cut in [xml.len() / 4, xml.len() / 2, xml.len() - 10] {
        assert_rejected(&xml[..cut], "truncated document", |e| {
            matches!(e, XmlError::Parse { .. } | XmlError::Schema { .. })
        });
    }
}

#[test]
fn wrong_root_element_is_a_schema_error() {
    assert_rejected("<notaconfig/>", "wrong root", |e| {
        matches!(e, XmlError::Schema { .. })
    });
}

#[test]
fn dangling_references_are_typed() {
    // A core whose type was never declared.
    let xml = r#"<configuration>
        <coreTypes><coreType name="generic"/></coreTypes>
        <modules><module name="M0"><core name="c0" type="missing"/></module></modules>
        <partitions/>
    </configuration>"#;
    assert_rejected(xml, "unknown core type", |e| {
        matches!(e, XmlError::UnknownReference { kind: "core type", .. })
    });

    // A partition bound to a module that does not exist.
    let xml = r#"<configuration>
        <coreTypes><coreType name="generic"/></coreTypes>
        <modules><module name="M0"><core name="c0" type="generic"/></module></modules>
        <partitions>
            <partition name="P0" scheduler="FPPS" module="M9" core="0">
                <task name="t" priority="1" period="50" wcet="1"/>
            </partition>
        </partitions>
    </configuration>"#;
    assert_rejected(xml, "unknown module", |e| {
        matches!(e, XmlError::UnknownReference { .. })
    });

    // A message whose sender task does not exist.
    let xml = r#"<configuration>
        <coreTypes><coreType name="generic"/></coreTypes>
        <modules><module name="M0"><core name="c0" type="generic"/></module></modules>
        <partitions>
            <partition name="P0" scheduler="FPPS" module="M0" core="0">
                <task name="t" priority="1" period="50" wcet="1"/>
            </partition>
        </partitions>
        <messages>
            <message name="vl0" from="ghost" to="t" memDelay="1" netDelay="5"/>
        </messages>
    </configuration>"#;
    assert_rejected(xml, "unknown message endpoint", |e| {
        matches!(e, XmlError::UnknownReference { .. })
    });
}

#[test]
fn bad_attribute_values_are_schema_errors() {
    // Non-numeric period.
    let xml = r#"<configuration>
        <coreTypes><coreType name="generic"/></coreTypes>
        <modules><module name="M0"><core name="c0" type="generic"/></module></modules>
        <partitions>
            <partition name="P0" scheduler="FPPS" module="M0" core="0">
                <task name="t" priority="1" period="soon" wcet="1"/>
            </partition>
        </partitions>
    </configuration>"#;
    assert_rejected(xml, "non-numeric period", |e| {
        matches!(e, XmlError::Schema { .. })
    });

    // Unknown scheduler kind.
    let xml = r#"<configuration>
        <coreTypes><coreType name="generic"/></coreTypes>
        <modules><module name="M0"><core name="c0" type="generic"/></module></modules>
        <partitions>
            <partition name="P0" scheduler="LOTTERY" module="M0" core="0">
                <task name="t" priority="1" period="50" wcet="1"/>
            </partition>
        </partitions>
    </configuration>"#;
    assert_rejected(xml, "unknown scheduler", |e| {
        matches!(e, XmlError::Schema { .. })
    });

    // A missing required attribute.
    let xml = r#"<configuration>
        <coreTypes><coreType name="generic"/></coreTypes>
        <modules><module name="M0"><core name="c0" type="generic"/></module></modules>
        <partitions>
            <partition name="P0" scheduler="FPPS" module="M0" core="0">
                <task name="t" priority="1" wcet="1"/>
            </partition>
        </partitions>
    </configuration>"#;
    assert_rejected(xml, "missing period", |e| matches!(e, XmlError::Schema { .. }));
}

/// Out-of-range window bounds parse (they are structurally valid XML) but
/// must then be rejected by domain validation — the two layers together
/// never let such a configuration through.
#[test]
fn out_of_range_windows_fail_domain_validation() {
    let mut config = industrial_config(&random_spec(2));
    config.windows[0] = vec![Window::new(-5, 10)];
    let xml = configuration_to_xml(&config);
    let reparsed = configuration_from_xml(&xml).expect("structurally valid XML parses");
    assert_eq!(reparsed, config);
    assert!(
        reparsed.validate().is_err(),
        "negative window offset must fail validation"
    );
}

#[test]
fn topologies_roundtrip_with_their_configuration() {
    // The switched-network example from the examples dir, rebuilt small:
    // generated config + a topology serialized alongside it.
    let config = industrial_config(&random_spec(3));
    let xml = swa::xmlio::configuration_with_topology_to_xml(&config, None);
    let (restored, topo) = configuration_with_topology_from_xml(&xml).expect("parses");
    assert_eq!(restored, config);
    assert!(topo.is_none(), "no topology section means none comes back");
}

#[test]
fn malformed_traces_are_rejected_with_typed_errors() {
    assert!(matches!(
        trace_from_xml("<trace><event type=\"EX\""),
        Err(XmlError::Parse { .. })
    ));
    assert!(matches!(
        trace_from_xml("<nottrace/>"),
        Err(XmlError::Schema { .. })
    ));
    assert!(matches!(
        trace_from_xml(
            "<trace><event type=\"TELEPORT\" partition=\"0\" task=\"0\" job=\"0\" time=\"1\"/></trace>"
        ),
        Err(XmlError::Schema { .. })
    ));
}

//! Check of the paper's determinism theorem across the crates: for
//! generated configurations and varied interleaving orders, every
//! interpretation yields the same schedulability analysis.
//!
//! The seeds are fixed so the tier-1 gate is fully deterministic and
//! offline; `crates/core/tests/properties.rs` checks the same property on
//! small two-partition configurations.

use swa::analyze_configuration_with;
use swa::nsa::TieBreak;
use swa::workload::rng::Rng64;
use swa::workload::{industrial_config, IndustrialSpec};

#[test]
fn any_order_yields_the_same_analysis() {
    for (seed, perm_seed, message_fraction) in [
        (0u64, 17u64, 0.0f64),
        (1, 23, 0.2),
        (2, 31, 0.35),
        (3, 47, 0.5),
        (995, 101, 0.1),
        (996, 103, 0.45),
    ] {
        let config = industrial_config(&IndustrialSpec {
            modules: 1,
            cores_per_module: 2,
            partitions_per_core: 2,
            tasks_per_partition: 3,
            message_fraction,
            seed,
            ..IndustrialSpec::default()
        });
        let canonical = analyze_configuration_with(&config, TieBreak::Canonical).unwrap();
        let reversed = analyze_configuration_with(&config, TieBreak::Reversed).unwrap();
        assert_eq!(
            canonical.analysis.signature(),
            reversed.analysis.signature(),
            "seed {seed}: reversed order changed the analysis"
        );

        let model = swa::SystemModel::build(&config).unwrap();
        let n = model.network().automata().len();
        let mut rng = Rng64::seed_from_u64(perm_seed);
        let mut perm: Vec<u32> = (0..u32::try_from(n).unwrap()).collect();
        rng.shuffle(&mut perm);
        let permuted = analyze_configuration_with(&config, TieBreak::Permuted(perm)).unwrap();
        assert_eq!(
            canonical.analysis.signature(),
            permuted.analysis.signature(),
            "seed {seed}/{perm_seed}: permuted order changed the analysis"
        );
    }
}

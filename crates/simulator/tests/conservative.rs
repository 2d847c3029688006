//! The paper's central claim as executable properties.
//!
//! For randomized applications mapped by the full flow:
//!
//! 1. **Tightness** — running the simulated platform with actual execution
//!    times equal to the WCETs reproduces the analysed bound exactly.
//! 2. **Conservativeness** — running with any actual times <= WCET yields a
//!    measured throughput at or above the bound.

use proptest::prelude::*;

use mamps_mapping::flow::{map_application, MapOptions};
use mamps_platform::arch::Architecture;
use mamps_platform::interconnect::Interconnect;
use mamps_sdf::gen::{actual_times, pipeline_app, strategies};
use mamps_sim::{System, TraceTimes, WcetTimes};

fn strategy() -> impl Strategy<Value = (Vec<u64>, u64, usize, bool, Vec<u64>)> {
    (
        strategies::wcets(2..5),
        prop_oneof![Just(4u64), Just(16), Just(64), Just(200)],
        2usize..5,
        any::<bool>(),
        proptest::collection::vec(1u64..4, 2),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn wcet_simulation_reproduces_bound_exactly(
        (wcets, tok, tiles, noc, rates) in strategy()
    ) {
        let app = pipeline_app("pipe", &wcets, tok, &rates, None);
        let ic = if noc {
            Interconnect::noc_for_tiles(tiles)
        } else {
            Interconnect::fsl()
        };
        let arch = Architecture::homogeneous("x", tiles, ic).unwrap();
        let mapped = match map_application(&app, &arch, &MapOptions::default()) {
            Ok(m) => m,
            Err(_) => return Ok(()), // infeasible random configuration
        };
        let times = WcetTimes::new(mapped.mapping.binding.wcet_of.clone());
        let sys = System::new(app.graph(), &mapped.mapping, &arch, &times).unwrap();
        let m = sys.run(300, 500_000_000).unwrap();
        let bound = mapped.analysis.as_f64();
        let meas = m.steady_throughput();
        prop_assert!(meas >= bound * (1.0 - 1e-9),
            "measured {meas} below bound {bound}");
        prop_assert!(meas <= bound * (1.0 + 1e-6),
            "measured {meas} exceeds bound {bound}: analysis not tight");
    }

    #[test]
    fn faster_actuals_stay_above_bound(
        (wcets, tok, tiles, noc, rates) in strategy(),
        seed in 0u64..1000,
    ) {
        let app = pipeline_app("pipe", &wcets, tok, &rates, None);
        let ic = if noc {
            Interconnect::noc_for_tiles(tiles)
        } else {
            Interconnect::fsl()
        };
        let arch = Architecture::homogeneous("x", tiles, ic).unwrap();
        let mapped = match map_application(&app, &arch, &MapOptions::default()) {
            Ok(m) => m,
            Err(_) => return Ok(()),
        };
        let wcets = &mapped.mapping.binding.wcet_of;
        let times = TraceTimes::new(actual_times(seed, wcets), wcets.clone());
        let sys = System::new(app.graph(), &mapped.mapping, &arch, &times).unwrap();
        let m = sys.run(300, 500_000_000).unwrap();
        let bound = mapped.analysis.as_f64();
        let meas = m.steady_throughput();
        prop_assert!(
            meas >= bound * (1.0 - 1e-9),
            "measured {meas} below guaranteed bound {bound}"
        );
    }
}

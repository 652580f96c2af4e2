// Test oracle: the original round/tick facility loop, which steps every
// node one iteration and one 10 ms governor period at a time. It is the
// executable specification sim::run_facility_event is checked against
// (test_event_core, bench_cluster_scale --event-diff). Never installed.
#pragma once

#include <string>

#include "sim/facility.hpp"

namespace ear::sim {

[[nodiscard]] FacilityResult run_facility_reference(
    const FacilityConfig& cfg);

/// The first simulated field on which two facility results differ, bit
/// for bit (host walls excluded), named with its job or island index;
/// empty when they are identical.
[[nodiscard]] std::string facility_result_difference(
    const FacilityResult& a, const FacilityResult& b);

}  // namespace ear::sim

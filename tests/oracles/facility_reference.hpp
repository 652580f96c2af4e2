// Test oracle: the original round/tick facility loop, which steps every
// node one iteration and one 10 ms governor period at a time. It is the
// executable specification sim::run_facility_event is checked against
// (test_event_core, bench_cluster_scale --event-diff). Never installed.
#pragma once

#include "sim/facility.hpp"

namespace ear::sim {

[[nodiscard]] FacilityResult run_facility_reference(
    const FacilityConfig& cfg);

}  // namespace ear::sim

#include "simhw/inm.hpp"

#include <cmath>

#include "common/error.hpp"

namespace ear::simhw {

void NodeManagerCounter::deposit(Joules e, Secs dt) {
  EAR_CHECK_MSG(e.value >= 0.0 && dt.value >= 0.0,
                "energy/time must be non-negative");
  const double second_before = std::floor(elapsed_);
  const double power = dt.value > 0.0 ? e.value / dt.value : 0.0;
  exact_ += e;
  elapsed_ += dt.value;
  const double second_after = std::floor(elapsed_);
  if (second_after > second_before) {
    // Publish the value as of the last whole-second boundary, assuming
    // power was uniform across this deposit (1 s sampling in the BMC).
    const double overshoot = elapsed_ - second_after;
    const double published_exact = exact_.value - power * overshoot;
    published_ = static_cast<std::uint64_t>(published_exact);
  }
}

}  // namespace ear::simhw

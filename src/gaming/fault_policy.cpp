#include "gaming/fault_policy.hpp"

#include <cmath>

namespace dbp {

void FaultPolicy::validate() const {
  DBP_REQUIRE(std::isfinite(rental_failure_rate) && rental_failure_rate >= 0.0 &&
                  rental_failure_rate <= 1.0,
              "rental failure rate must be a probability");
  DBP_REQUIRE(max_rental_retries >= 0, "rental retry budget must be >= 0");
  DBP_REQUIRE(std::isfinite(backoff_base_minutes) && backoff_base_minutes >= 0.0,
              "backoff base must be non-negative and finite");
}

}  // namespace dbp

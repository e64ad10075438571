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

void write_fault_policy(ByteWriter& out, const FaultPolicy& policy) {
  out.u8(static_cast<std::uint8_t>(policy.on_anomaly));
  out.f64(policy.rental_failure_rate);
  out.u64(static_cast<std::uint64_t>(policy.max_rental_retries));
  out.f64(policy.backoff_base_minutes);
  out.u64(policy.max_fleet_servers);
  out.u64(policy.seed);
}

FaultPolicy read_fault_policy(ByteReader& in) {
  FaultPolicy policy;
  const std::uint8_t action = in.u8();
  if (action > static_cast<std::uint8_t>(
                   FaultPolicy::AnomalyAction::kDropAndCount)) {
    throw CorruptionError("invalid anomaly action in checkpoint");
  }
  policy.on_anomaly = static_cast<FaultPolicy::AnomalyAction>(action);
  policy.rental_failure_rate = in.f64();
  const std::uint64_t retries = in.u64();
  if (retries > 1'000'000) {
    throw CorruptionError("implausible rental retry count in checkpoint");
  }
  policy.max_rental_retries = static_cast<int>(retries);
  policy.backoff_base_minutes = in.f64();
  policy.max_fleet_servers = in.u64();
  policy.seed = in.u64();
  return policy;
}

}  // namespace dbp

#include "core/fault.hpp"

#include <cmath>

#include "core/error.hpp"

namespace dbp {

const char* to_string(CrashTarget target) noexcept {
  switch (target) {
    case CrashTarget::kFullest: return "fullest";
    case CrashTarget::kEmptiest: return "emptiest";
    case CrashTarget::kOldest: return "oldest";
    case CrashTarget::kNewest: return "newest";
    case CrashTarget::kRandom: return "random";
  }
  return "unknown";
}

const char* to_string(AnomalyKind kind) noexcept {
  switch (kind) {
    case AnomalyKind::kDuplicateStart: return "duplicate-start";
    case AnomalyKind::kUnknownSessionEnd: return "unknown-session-end";
    case AnomalyKind::kOutOfOrderTimestamp: return "out-of-order-timestamp";
    case AnomalyKind::kNaNSize: return "nan-size";
    case AnomalyKind::kNegativeSize: return "negative-size";
  }
  return "unknown";
}

const char* to_string(DispatchErrorKind kind) noexcept {
  switch (kind) {
    case DispatchErrorKind::kDuplicateStart: return "duplicate-start";
    case DispatchErrorKind::kUnknownSession: return "unknown-session";
    case DispatchErrorKind::kTimeOrderViolation: return "time-order-violation";
    case DispatchErrorKind::kInvalidSize: return "invalid-size";
    case DispatchErrorKind::kUnknownServer: return "unknown-server";
    case DispatchErrorKind::kRentalFailed: return "rental-failed";
    case DispatchErrorKind::kFleetCapExceeded: return "fleet-cap-exceeded";
    case DispatchErrorKind::kInvalidSessionId: return "invalid-session-id";
  }
  return "unknown";
}

void FaultPlan::validate() const {
  Time previous = -kTimeInfinity;
  for (const CrashFault& crash : crashes) {
    DBP_REQUIRE(std::isfinite(crash.time), "crash fault time must be finite");
    DBP_REQUIRE(crash.time >= previous, "crash faults must be sorted by time");
    previous = crash.time;
  }
  previous = -kTimeInfinity;
  for (const AnomalyFault& anomaly : anomalies) {
    DBP_REQUIRE(std::isfinite(anomaly.time), "anomaly fault time must be finite");
    DBP_REQUIRE(anomaly.time >= previous, "anomaly faults must be sorted by time");
    previous = anomaly.time;
  }
}

}  // namespace dbp

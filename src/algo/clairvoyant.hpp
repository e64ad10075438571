// Clairvoyant (departure-aware) packers — NON-PAPER baselines.
//
// The paper's model hides departure times from the online algorithm
// (Section 1); its related work covers interval scheduling with bounded
// parallelism (Flammini et al.), where job end times ARE known and the goal
// is minimum total busy time. These packers implement that semi-online
// regime so experiments can quantify the *value of departure knowledge*:
// how much of First Fit's gap to OPT is due to not knowing departures.
#pragma once

#include <map>
#include <set>
#include <unordered_map>

#include "algo/packer.hpp"
#include "core/types.hpp"

namespace dbp {

/// Base class for packers that are allowed to see the full Item (including
/// its departure time) at arrival. The plain online entry point is sealed
/// off: calling it is a contract violation, which keeps the online/semi-
/// online distinction structural.
class ClairvoyantPacker : public Packer {
 public:
  using Packer::Packer;

  /// Clairvoyant arrival: the full item, departure included.
  virtual BinId on_arrival_clairvoyant(const Item& item) = 0;

  /// Online arrivals are rejected — this packer needs departure times.
  BinId on_arrival(const ArrivingItem& item) final;

  /// The Any Fit opening rule of on_arrival_clairvoyant: a new bin exactly
  /// when no open bin fits.
  [[nodiscard]] bool would_open_bin(double size) const final;
};

/// Departure-aware Any Fit variants. Both obey the Any Fit opening rule
/// (new bin only when nothing fits); they differ in *which* fitting bin
/// they prefer:
///
///  * kAlignDepartures: the bin whose current latest departure is closest
///    to the item's departure — clusters items that end together so bins
///    close promptly (interval-scheduling intuition).
///  * kMinimizeExtension: the bin whose busy period grows the least by
///    accepting the item (greedy total-busy-time minimization, cf.
///    Flammini et al. 2009).
class DurationAwarePacker final : public ClairvoyantPacker {
 public:
  enum class Policy { kAlignDepartures, kMinimizeExtension };

  DurationAwarePacker(CostModel model, Policy policy);

  [[nodiscard]] std::string name() const override;

  BinId on_arrival_clairvoyant(const Item& item) override;
  void on_departure(ItemId item, Time now) override;

  /// Latest departure among items currently in `bin` (the bin's projected
  /// close time). Requires the bin to be open and non-empty. O(open).
  [[nodiscard]] Time projected_close(BinId bin) const;

 private:
  Policy policy_;
  /// Per-open-bin multiset of resident departure times, by slot.
  // DBP_LINT_ALLOW(unordered-container): the arrival scan minimizes the
  // strict total order (score, bin id), so the argmin is independent of
  // map iteration order; all other access is by slot.
  std::unordered_map<BinSlot, std::multiset<Time>> departures_;
  // DBP_LINT_ALLOW(unordered-container): departure lookup by item id only.
  std::unordered_map<ItemId, Time> departure_of_;
};

}  // namespace dbp

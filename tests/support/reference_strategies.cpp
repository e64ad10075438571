#include "support/reference_strategies.hpp"

#include "algo/any_fit_packer.hpp"
#include "core/error.hpp"

namespace dbp {

// ------------------------------------------------------------------ SlotIds

void SlotIds::add(BinSlot slot, BinId bin) {
  const auto at = static_cast<std::size_t>(slot);
  if (at >= bin_of_.size()) bin_of_.resize(at + 1, kNoBin);
  DBP_CHECK(bin_of_[at] == kNoBin && slot_of_.emplace(bin, slot).second,
            "slot or bin registered twice");
  bin_of_[at] = bin;
}

BinId SlotIds::bin(BinSlot slot) const {
  const auto at = static_cast<std::size_t>(slot);
  DBP_REQUIRE(at < bin_of_.size() && bin_of_[at] != kNoBin, "unregistered bin slot");
  return bin_of_[at];
}

BinSlot SlotIds::slot(BinId bin) const { return slot_of_.at(bin); }

void SlotIds::remove(BinSlot slot) {
  slot_of_.erase(bin(slot));
  bin_of_[static_cast<std::size_t>(slot)] = kNoBin;
}

// ------------------------------------------------------ FirstFit (reference)

std::optional<BinSlot> FirstFitReferenceStrategy::select(double size) {
  auto pos = residuals_.find_leftmost(
      [&](double residual) { return model_.fits(size, residual); });
  if (!pos) return std::nullopt;
  return ids_.slot(bin_at_[*pos]);
}

void FirstFitReferenceStrategy::on_bin_registered(BinSlot slot, BinId bin,
                                                  double residual) {
  ids_.add(slot, bin);
  const std::size_t pos = residuals_.push_back(residual);
  bin_at_.push_back(bin);
  DBP_CHECK(bin_at_.size() == pos + 1, "first-fit position bookkeeping");
  pos_of_[bin] = pos;
}

void FirstFitReferenceStrategy::on_residual_changed(BinSlot slot, double residual) {
  residuals_.assign(pos_of_.at(ids_.bin(slot)), residual);
}

void FirstFitReferenceStrategy::on_bin_closed(BinSlot slot) {
  auto it = pos_of_.find(ids_.bin(slot));
  DBP_REQUIRE(it != pos_of_.end(), "closing an unregistered bin");
  residuals_.deactivate(it->second);
  pos_of_.erase(it);
  ids_.remove(slot);
}

// ------------------------------------------------------- BestFit (reference)

std::optional<BinSlot> BestFitReferenceStrategy::select(double size) {
  // Smallest residual r with fits(size, r), i.e. r >= size - tolerance.
  auto it = by_residual_.lower_bound({size - model_.fit_tolerance, 0});
  if (it == by_residual_.end()) return std::nullopt;
  DBP_CHECK(model_.fits(size, it->first), "best-fit index out of sync");
  return ids_.slot(it->second);
}

void BestFitReferenceStrategy::on_bin_registered(BinSlot slot, BinId bin,
                                                 double residual) {
  ids_.add(slot, bin);
  const bool inserted = by_residual_.emplace(residual, bin).second;
  DBP_CHECK(inserted, "duplicate best-fit registration");
  residual_of_[bin] = residual;
}

void BestFitReferenceStrategy::on_residual_changed(BinSlot slot, double residual) {
  const BinId bin = ids_.bin(slot);
  auto it = residual_of_.find(bin);
  DBP_REQUIRE(it != residual_of_.end(), "residual change for unregistered bin");
  by_residual_.erase({it->second, bin});
  by_residual_.emplace(residual, bin);
  it->second = residual;
}

void BestFitReferenceStrategy::on_bin_closed(BinSlot slot) {
  const BinId bin = ids_.bin(slot);
  auto it = residual_of_.find(bin);
  DBP_REQUIRE(it != residual_of_.end(), "closing an unregistered bin");
  by_residual_.erase({it->second, bin});
  residual_of_.erase(it);
  ids_.remove(slot);
}

std::unique_ptr<Packer> make_reference_packer(const std::string& name,
                                              const CostModel& model) {
  if (name == "first-fit") {
    return std::make_unique<AnyFitPacker>(
        model, std::make_unique<FirstFitReferenceStrategy>(model));
  }
  if (name == "best-fit") {
    return std::make_unique<AnyFitPacker>(
        model, std::make_unique<BestFitReferenceStrategy>(model));
  }
  DBP_REQUIRE(false, "no reference packer for '" + name + "'");
  return nullptr;  // unreachable
}

}  // namespace dbp

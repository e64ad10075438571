#include "support/reference_strategies.hpp"

#include "algo/any_fit_packer.hpp"
#include "core/error.hpp"

namespace dbp {

// ------------------------------------------------------ FirstFit (reference)

std::optional<BinId> FirstFitReferenceStrategy::select(double size) {
  auto pos = residuals_.find_leftmost(
      [&](double residual) { return model_.fits(size, residual); });
  if (!pos) return std::nullopt;
  return bin_at_[*pos];
}

void FirstFitReferenceStrategy::on_bin_registered(BinId bin, double residual) {
  const std::size_t pos = residuals_.push_back(residual);
  bin_at_.push_back(bin);
  DBP_CHECK(bin_at_.size() == pos + 1, "first-fit position bookkeeping");
  pos_of_[bin] = pos;
}

void FirstFitReferenceStrategy::on_residual_changed(BinId bin, double residual) {
  residuals_.assign(pos_of_.at(bin), residual);
}

void FirstFitReferenceStrategy::on_bin_closed(BinId bin) {
  auto it = pos_of_.find(bin);
  DBP_REQUIRE(it != pos_of_.end(), "closing an unregistered bin");
  residuals_.deactivate(it->second);
  pos_of_.erase(it);
}

// ------------------------------------------------------- BestFit (reference)

std::optional<BinId> BestFitReferenceStrategy::select(double size) {
  // Smallest residual r with fits(size, r), i.e. r >= size - tolerance.
  auto it = by_residual_.lower_bound({size - model_.fit_tolerance, 0});
  if (it == by_residual_.end()) return std::nullopt;
  DBP_CHECK(model_.fits(size, it->first), "best-fit index out of sync");
  return it->second;
}

void BestFitReferenceStrategy::on_bin_registered(BinId bin, double residual) {
  const bool inserted = by_residual_.emplace(residual, bin).second;
  DBP_CHECK(inserted, "duplicate best-fit registration");
  residual_of_[bin] = residual;
}

void BestFitReferenceStrategy::on_residual_changed(BinId bin, double residual) {
  auto it = residual_of_.find(bin);
  DBP_REQUIRE(it != residual_of_.end(), "residual change for unregistered bin");
  by_residual_.erase({it->second, bin});
  by_residual_.emplace(residual, bin);
  it->second = residual;
}

void BestFitReferenceStrategy::on_bin_closed(BinId bin) {
  auto it = residual_of_.find(bin);
  DBP_REQUIRE(it != residual_of_.end(), "closing an unregistered bin");
  by_residual_.erase({it->second, bin});
  residual_of_.erase(it);
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

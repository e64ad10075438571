#include "algo/any_fit_packer.hpp"

#include "algo/strategies.hpp"

namespace dbp {

AnyFitPacker::AnyFitPacker(CostModel model, std::unique_ptr<FitStrategy> strategy)
    : Packer(model), strategy_(std::move(strategy)) {
  DBP_REQUIRE(strategy_ != nullptr, "AnyFitPacker requires a strategy");
}

BinId AnyFitPacker::on_arrival(const ArrivingItem& item) {
  return arrival_impl(*strategy_, item);
}

void AnyFitPacker::on_departure(ItemId item, Time now) {
  departure_impl(*strategy_, item, now);
}

void AnyFitPacker::save_extra(ByteWriter& out) const {
  strategy_->save_state(out);
}

void AnyFitPacker::restore_extra(ByteReader& in) {
  // Registration replay in ascending BinId order reproduces the original
  // registration order (bin ids are assigned in opening order), so the
  // derived strategies rebuild the exact relative scan order; residuals come
  // from the bit-exact restored levels. Stateful strategies then override
  // their extra history in load_state.
  for (const BinId bin : manager_.open_bins()) {
    strategy_->on_bin_registered(bin, manager_.residual(bin));
  }
  strategy_->load_state(in);
}

#if DBP_AUDIT_ENABLED
void AnyFitPacker::audit_first_fit_choice(const FitStrategy& strategy, double size,
                                          BinId chosen) const {
  if (dynamic_cast<const FirstFitStrategy*>(&strategy) == nullptr) return;
  manager_.for_each_open_bin([&](BinId open) {
    DBP_AUDIT_CHECK(open >= chosen || !manager_.fits(size, open),
                    "First Fit skipped an earlier-opened fitting bin");
  });
}
#endif

}  // namespace dbp

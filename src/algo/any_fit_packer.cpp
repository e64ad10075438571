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
  // Registration replay in opening order reproduces the original
  // registration order, so the derived strategies rebuild the exact
  // relative scan order in the restored slots; residuals come from the
  // bit-exact restored levels. Stateful strategies then override their
  // extra history in load_state.
  manager_.for_each_open_bin([&](BinSlot slot) {
    strategy_->on_bin_registered(slot, manager_.id_of(slot), manager_.residual(slot));
  });
  strategy_->load_state(in);
}

#if DBP_AUDIT_ENABLED
void AnyFitPacker::audit_first_fit_choice(const FitStrategy& strategy, double size,
                                          BinSlot chosen) const {
  if (dynamic_cast<const FirstFitStrategy*>(&strategy) == nullptr) return;
  const BinId chosen_id = manager_.id_of(chosen);
  manager_.for_each_open_bin([&](BinSlot open) {
    DBP_AUDIT_CHECK(manager_.id_of(open) >= chosen_id || !manager_.fits(size, open),
                    "First Fit skipped an earlier-opened fitting bin");
  });
}
#endif

}  // namespace dbp

// Bin-selection policies for the Any Fit family (paper Section 3.2).
//
// A FitStrategy owns the *policy* half of an online packer: given an
// arriving item's size, pick one of the open bins registered with this
// strategy, or decline (meaning a new bin must be opened). The mechanics
// (levels, usage periods) live in BinManager.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "algo/bin_manager.hpp"
#include "core/types.hpp"

namespace dbp {

/// Interface implemented by each member of the Any Fit family.
///
/// Bins reach a strategy by their slot (algo/bin_manager.hpp): the hooks
/// take slots, select returns one, and a strategy indexes its per-bin state
/// by slot, so it holds state for open bins only. A closed bin's slot may
/// be registered again for a later bin.
///
/// Contract (enforced by AnyFitPacker's paranoid mode in tests): `select`
/// must return a bin iff at least one registered open bin can accommodate
/// the item — Any Fit algorithms "open a new bin only when no currently
/// opened bin can accommodate the item" (paper Section 1).
class FitStrategy {
 public:
  virtual ~FitStrategy() = default;

  /// Human-readable policy name ("first-fit", "best-fit", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Chooses the slot of an open registered bin that fits `size`, or nullopt.
  [[nodiscard]] virtual std::optional<BinSlot> select(double size) = 0;

  /// True when select(size) would return a bin. Const and allocation-free:
  /// it leaves select's side effects (Next Fit's retirement, Random Fit's
  /// RNG draw, Move-To-Front's promotion) to select, so a caller can ask
  /// before deciding whether to place at all.
  [[nodiscard]] virtual bool has_fit(double size) const = 0;

  /// Bin `bin`, freshly opened for this strategy's pool into `slot`.
  /// Registrations come in opening order, so `bin` ascends.
  virtual void on_bin_registered(BinSlot slot, BinId bin, double residual) = 0;

  /// The bin's residual capacity changed (item placed or departed).
  virtual void on_residual_changed(BinSlot slot, double residual) = 0;

  /// The bin emptied and closed; it will never be offered again, and its
  /// slot is free for a later registration.
  virtual void on_bin_closed(BinSlot slot) = 0;

  /// True when the strategy honours the Any Fit contract (returns a bin
  /// whenever one fits). Next Fit overrides this to false.
  [[nodiscard]] virtual bool any_fit_contract() const { return true; }

  /// Capacity hint: at most `bins_hint` bins will ever be registered.
  /// Implementations pre-size their indexes so the steady-state event loop
  /// performs no heap allocation; correctness never depends on the hint.
  virtual void reserve(std::size_t bins_hint) { (void)bins_hint; }

  /// Checkpoint hooks. Restore first replays on_bin_registered over every
  /// open bin in opening order, which fully rebuilds strategies whose
  /// choice is a pure function of (bin, residual) registrations —
  /// First/Last/Best/Worst Fit. Strategies with *extra* history (Next Fit's
  /// current bin, Random Fit's RNG position and scan order, Move-To-Front's
  /// recency list) override these to persist it, naming bins by slot;
  /// load_state runs after the registration replay and overrides it.
  virtual void save_state(ByteWriter& out) const { (void)out; }
  virtual void load_state(ByteReader& in) { (void)in; }
};

}  // namespace dbp

// The placement check shared by the durability tests: a dispatcher the
// recovery protocol rebuilt holds exactly the sessions the run had active at
// the cut, each on the server its start returned before the crash. The
// dispatcher keeps no history of departed sessions, so the tests record what
// start_session returned and compare the recovered table against it.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <optional>
#include <vector>

#include "core/instance.hpp"
#include "gaming/dispatcher.hpp"
#include "sim/event.hpp"

namespace dbp {

/// Requires that `dispatcher`, recovered after `next_seq` of `events` (an
/// arrival starts session item.id, a departure ends it), holds no session
/// but the items started and not yet ended by then, each on
/// `assignment[item.id]`: the server its start_session returned.
inline void expect_recovered_sessions(const GameServerDispatcher& dispatcher,
                                      const Instance& instance,
                                      const std::vector<Event>& events,
                                      std::size_t next_seq,
                                      const std::vector<BinId>& assignment) {
  std::vector<bool> active(instance.size(), false);
  for (std::size_t i = 0; i < next_seq; ++i) {
    active[static_cast<std::size_t>(instance.item(events[i].item).id)] =
        events[i].kind == EventKind::kArrival;
  }
  std::size_t active_count = 0;
  for (const Item& item : instance.items()) {
    const auto index = static_cast<std::size_t>(item.id);
    const std::optional<ActiveSession> session = dispatcher.find_session(item.id);
    EXPECT_EQ(session.has_value(), active[index]) << "session " << item.id;
    if (!session) continue;
    ++active_count;
    EXPECT_EQ(session->server, assignment[index]) << "session " << item.id;
  }
  EXPECT_EQ(dispatcher.active_sessions(), active_count)
      << "sessions outside the run are active";
}

}  // namespace dbp

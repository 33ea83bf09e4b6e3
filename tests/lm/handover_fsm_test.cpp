#include "lm/handover_fsm.hpp"

#include <gtest/gtest.h>

#include <vector>

// HandoverManager unit tests: every FSM edge is reachable deterministically
// by pinning signal_loss to 0 (attempts always deliver) or 1 (attempts always
// vanish) and flipping per-node down flags between ticks.

namespace manet {
namespace {

lm::HandoverFsmConfig config(double signal_loss) {
  lm::HandoverFsmConfig cfg;
  cfg.timeout = 0.2;
  cfg.max_retries = 2;
  cfg.backoff = 2.0;
  cfg.signal_loss = signal_loss;
  return cfg;
}

TEST(HandoverFsm, FaultFreeMoveCompletesWithinItsSpawnTick) {
  lm::HandoverManager manager(config(0.0), 42);
  manager.on_entry_move(/*owner=*/5, /*k=*/2, /*from=*/1, /*to=*/3, /*t=*/10.0,
                        /*migrated=*/true, /*hops=*/2);
  EXPECT_TRUE(manager.has_flight(5, 2));
  manager.tick(10.0);
  EXPECT_FALSE(manager.has_flight(5, 2));
  EXPECT_EQ(manager.in_flight(), 0u);
  const auto& s = manager.stats();
  EXPECT_EQ(s.started, 1u);
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.timeouts, 0u);
  EXPECT_EQ(s.rollbacks, 0u);
  EXPECT_DOUBLE_EQ(s.mean_completion_time(), 0.0);
  // Allocate + detect each cost one hops-priced attempt.
  EXPECT_EQ(s.signal_packets, 4u);
}

TEST(HandoverFsm, TimeoutsBackOffThenRetryExhaustionRollsBack) {
  lm::HandoverManager manager(config(1.0), 42);
  manager.on_entry_move(7, 3, 1, 3, 0.0, false, 1);

  manager.tick(0.0);  // attempt 1 sent, deadline 0.2
  EXPECT_EQ(manager.state_of(7, 3), lm::HandoverState::kAllocate);
  EXPECT_EQ(manager.stats().timeouts, 0u);

  manager.tick(0.1);  // still outstanding
  EXPECT_EQ(manager.stats().timeouts, 0u);

  manager.tick(0.25);  // timeout 1 -> retry (attempt 2), deadline 0.25 + 0.4
  EXPECT_EQ(manager.stats().timeouts, 1u);
  EXPECT_EQ(manager.stats().retries, 1u);

  manager.tick(0.70);  // timeout 2 -> retry (attempt 3), deadline 0.70 + 0.8
  EXPECT_EQ(manager.stats().timeouts, 2u);
  EXPECT_EQ(manager.stats().retries, 2u);

  manager.tick(1.60);  // timeout 3: retries exhausted -> rollback
  EXPECT_EQ(manager.stats().timeouts, 3u);
  EXPECT_EQ(manager.stats().retries, 2u);
  EXPECT_EQ(manager.stats().rollbacks, 1u);
  EXPECT_EQ(manager.stats().rollback_failures, 0u);
  ASSERT_TRUE(manager.has_flight(7, 3));
  EXPECT_EQ(manager.state_of(7, 3), lm::HandoverState::kRolledBack);

  const auto view = manager.view(7, 3);
  EXPECT_TRUE(view.in_flight);
  EXPECT_TRUE(view.rolled_back);
  EXPECT_EQ(view.server, 1u);  // sessions pinned to the old server
}

TEST(HandoverFsm, TargetServerCrashRollsBackThenRecoversAfterHoldoff) {
  lm::HandoverManager manager(config(0.0), 42);
  std::vector<std::uint8_t> down(8, 0);
  manager.set_down(&down);

  down[3] = 1;  // target dark before the first attempt
  manager.on_entry_move(2, 2, 1, 3, 0.0, true, 1);
  manager.tick(0.0);
  EXPECT_EQ(manager.stats().rollbacks, 1u);
  EXPECT_EQ(manager.stats().target_crashes, 1u);
  ASSERT_TRUE(manager.has_flight(2, 2));
  EXPECT_EQ(manager.state_of(2, 2), lm::HandoverState::kRolledBack);

  static_assert(lm::kHandoverHoldoff == 1.0);
  manager.tick(0.5);  // holdoff not yet expired
  EXPECT_EQ(manager.state_of(2, 2), lm::HandoverState::kRolledBack);

  down[3] = 0;         // target rejoins
  manager.tick(1.25);  // holdoff expired -> re-attempt -> completes
  EXPECT_FALSE(manager.has_flight(2, 2));
  EXPECT_EQ(manager.stats().completed, 1u);
  EXPECT_NEAR(manager.stats().completion_time_sum, 1.25, 1e-12);
}

TEST(HandoverFsm, RollbackWithOldServerDownFailsOutright) {
  lm::HandoverManager manager(config(0.0), 42);
  std::vector<std::uint8_t> down(8, 0);
  manager.set_down(&down);

  down[1] = 1;  // old server dark
  down[3] = 1;  // new server dark too
  manager.on_entry_move(4, 2, 1, 3, 0.0, false, 1);
  manager.tick(0.0);
  EXPECT_FALSE(manager.has_flight(4, 2));
  EXPECT_EQ(manager.stats().rollbacks, 1u);
  EXPECT_EQ(manager.stats().target_crashes, 1u);
  EXPECT_EQ(manager.stats().rollback_failures, 1u);
}

TEST(HandoverFsm, StaleEntryAbortsTheFlightTowardTheOldServer) {
  lm::HandoverManager manager(config(1.0), 42);
  manager.on_entry_move(9, 2, 1, 3, 0.0, false, 1);
  manager.tick(0.0);
  ASSERT_TRUE(manager.has_flight(9, 2));

  manager.on_entry_stale(9, 2, kInvalidNode, 0.1);
  EXPECT_EQ(manager.stats().rollbacks, 1u);
  ASSERT_TRUE(manager.has_flight(9, 2));
  EXPECT_EQ(manager.state_of(9, 2), lm::HandoverState::kRolledBack);
}

TEST(HandoverFsm, RepairedAndRetiredEntriesClearTheirFlights) {
  lm::HandoverManager manager(config(1.0), 42);
  manager.on_entry_move(1, 2, 4, 5, 0.0, false, 1);
  manager.on_entry_move(2, 3, 4, 5, 0.0, false, 1);
  manager.tick(0.0);
  EXPECT_EQ(manager.in_flight(), 2u);

  manager.on_entry_repaired(1, 2, 6, 0.5);
  EXPECT_FALSE(manager.has_flight(1, 2));
  EXPECT_EQ(manager.stats().repaired, 1u);

  manager.on_entry_retired(2, 3, 0.5);
  EXPECT_FALSE(manager.has_flight(2, 3));
  EXPECT_EQ(manager.stats().retired, 1u);
  EXPECT_EQ(manager.in_flight(), 0u);
}

TEST(HandoverFsm, NewerMoveOfTheSameEntrySupersedes) {
  lm::HandoverManager manager(config(1.0), 42);
  manager.on_entry_move(6, 2, 1, 3, 0.0, false, 1);
  manager.tick(0.0);
  manager.on_entry_move(6, 2, 3, 5, 1.0, false, 1);
  EXPECT_EQ(manager.stats().started, 2u);
  EXPECT_EQ(manager.stats().superseded, 1u);
  EXPECT_EQ(manager.in_flight(), 1u);
  const auto view = manager.view(6, 2);
  EXPECT_EQ(view.server, 3u);  // the newer move's old server
}

TEST(HandoverFsm, SameSeedSameScheduleIsBitIdentical) {
  lm::HandoverManager a(config(0.5), 99);
  lm::HandoverManager b(config(0.5), 99);
  for (NodeId owner = 0; owner < 16; ++owner) {
    a.on_entry_move(owner, 2, owner, owner + 1, 0.0, false, 2);
    b.on_entry_move(owner, 2, owner, owner + 1, 0.0, false, 2);
  }
  for (int i = 0; i <= 50; ++i) {
    const Time t = 0.1 * i;
    a.tick(t);
    b.tick(t);
  }
  EXPECT_EQ(a.stats().completed, b.stats().completed);
  EXPECT_EQ(a.stats().timeouts, b.stats().timeouts);
  EXPECT_EQ(a.stats().retries, b.stats().retries);
  EXPECT_EQ(a.stats().rollbacks, b.stats().rollbacks);
  EXPECT_EQ(a.stats().signal_packets, b.stats().signal_packets);
  EXPECT_EQ(a.in_flight(), b.in_flight());
}

TEST(HandoverFsm, StateNamesCoverTheEnum) {
  for (std::size_t i = 0; i < lm::kHandoverStateCount; ++i) {
    EXPECT_STRNE(lm::to_string(static_cast<lm::HandoverState>(i)), "unknown");
  }
}

}  // namespace
}  // namespace manet

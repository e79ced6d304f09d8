// Tests for the discrete-event simulation kernel.
#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "sim/simulator.hpp"

namespace pico::sim {
namespace {

using namespace pico::literals;

TEST(Simulator, DispatchesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3_s, [&] { order.push_back(3); });
  sim.schedule_at(1_s, [&] { order.push_back(1); });
  sim.schedule_at(2_s, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now().value(), 3.0);
}

TEST(Simulator, EqualTimestampsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(1_s, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  double fired_at = -1.0;
  sim.schedule_at(5_s, [&] {
    sim.schedule_in(2_s, [&] { fired_at = sim.now().value(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 7.0);
}

TEST(Simulator, CancelPreventsDispatch) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_at(1_s, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // second cancel is a no-op
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, RecurringEventFires) {
  Simulator sim;
  int count = 0;
  sim.every(1_s, [&] { ++count; });
  sim.run_until(10.5_s);
  EXPECT_EQ(count, 10);
  EXPECT_DOUBLE_EQ(sim.now().value(), 10.5);
}

TEST(Simulator, RecurringEventCancellableFromBody) {
  Simulator sim;
  int count = 0;
  EventId id{};
  id = sim.every(1_s, [&] {
    if (++count == 3) sim.cancel(id);
  });
  sim.run_until(100_s);
  EXPECT_EQ(count, 3);
}

TEST(Simulator, RunUntilAdvancesTimeWithEmptyQueue) {
  Simulator sim;
  sim.run_until(42_s);
  EXPECT_DOUBLE_EQ(sim.now().value(), 42.0);
}

TEST(Simulator, RunUntilLeavesLaterEventsPending) {
  Simulator sim;
  bool fired = false;
  sim.schedule_at(10_s, [&] { fired = true; });
  sim.run_until(5_s);
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.events_pending(), 1u);
  sim.run_until(15_s);
  EXPECT_TRUE(fired);
}

TEST(Simulator, StopHaltsRun) {
  Simulator sim;
  int count = 0;
  sim.every(1_s, [&] {
    if (++count == 5) sim.stop();
  });
  sim.run_until(1000_s);
  EXPECT_EQ(count, 5);
}

TEST(Simulator, SchedulingInPastThrows) {
  Simulator sim;
  sim.schedule_at(5_s, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(1_s, [] {}), pico::DesignError);
  EXPECT_THROW(sim.schedule_in(Duration{-1.0}, [] {}), pico::DesignError);
}

TEST(Simulator, EventsDispatchedCounter) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_at(Duration{static_cast<double>(i)}, [] {});
  sim.run();
  EXPECT_EQ(sim.events_dispatched(), 7u);
}

TEST(Simulator, CascadedSchedulingAtSameTime) {
  // An event scheduling another event at the *same* timestamp must run it
  // in the same cascade.
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1_s, [&] {
    order.push_back(1);
    sim.schedule_in(0_s, [&] { order.push_back(2); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, StepProcessesOneEvent) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(1_s, [&] { ++count; });
  sim.schedule_at(2_s, [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(count, 2);
}

TEST(Simulator, RecurringEventCancelsItselfFromItsOwnCallback) {
  // The dispatcher re-arms a recurring event *before* running its body,
  // so the body can cancel its own recurrence; the already-armed firing
  // must then be swallowed as a tombstone, not dispatched.
  Simulator sim;
  int count = 0;
  EventId id = 0;
  id = sim.every(1_s, [&] {
    if (++count == 3) {
      EXPECT_TRUE(sim.cancel(id));
    }
  });
  sim.run_until(100_s);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(sim.events_pending(), 0u);
  EXPECT_FALSE(sim.cancel(id));  // already cancelled
  EXPECT_DOUBLE_EQ(sim.now().value(), 100.0);
}

TEST(Simulator, EventsPendingIsLive) {
  Simulator sim;
  EXPECT_EQ(sim.events_pending(), 0u);
  const EventId a = sim.schedule_at(1_s, [] {});
  sim.schedule_at(2_s, [] {});
  const EventId rec = sim.every(5_s, [] {});
  EXPECT_EQ(sim.events_pending(), 3u);
  EXPECT_TRUE(sim.cancel(a));
  EXPECT_EQ(sim.events_pending(), 2u);
  EXPECT_FALSE(sim.cancel(a));  // double-cancel is not a second decrement
  EXPECT_EQ(sim.events_pending(), 2u);
  sim.run_until(3_s);
  // The one-shot at 2 s fired; the recurrence is still live.
  EXPECT_EQ(sim.events_pending(), 1u);
  EXPECT_TRUE(sim.cancel(rec));
  EXPECT_EQ(sim.events_pending(), 0u);
}

}  // namespace
}  // namespace pico::sim

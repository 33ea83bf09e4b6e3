#include "sim/trace.hpp"

#include <gtest/gtest.h>

namespace manet::sim {
namespace {

TraceEvent event_at(Time t, TraceEventType type = TraceEventType::kMigration) {
  TraceEvent ev;
  ev.t = t;
  ev.type = type;
  return ev;
}

TEST(TraceSink, StoresEventsInOrderBeforeWraparound) {
  TraceSink sink(TraceSink::Config{8, 1});
  for (int i = 0; i < 5; ++i) sink.record(event_at(static_cast<Time>(i)));
  EXPECT_EQ(sink.seen(), 5u);
  EXPECT_EQ(sink.size(), 5u);
  EXPECT_EQ(sink.dropped(), 0u);
  const auto events = sink.snapshot();
  ASSERT_EQ(events.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(events[static_cast<Size>(i)].t, i);
}

TEST(TraceSink, RingWraparoundKeepsNewestEvents) {
  TraceSink sink(TraceSink::Config{4, 1});
  for (int i = 0; i < 10; ++i) sink.record(event_at(static_cast<Time>(i)));
  EXPECT_EQ(sink.seen(), 10u);
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.dropped(), 6u);
  const auto events = sink.snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-to-newest: events 6, 7, 8, 9 survive.
  for (Size i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(events[i].t, static_cast<double>(6 + i));
  }
}

TEST(TraceSink, ExactlyFullRingDropsNothing) {
  TraceSink sink(TraceSink::Config{4, 1});
  for (int i = 0; i < 4; ++i) sink.record(event_at(static_cast<Time>(i)));
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.dropped(), 0u);
  const auto events = sink.snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_DOUBLE_EQ(events.front().t, 0.0);
  EXPECT_DOUBLE_EQ(events.back().t, 3.0);
}

TEST(TraceSink, SamplingKeepsEveryNth) {
  TraceSink sink(TraceSink::Config{64, 3});
  for (int i = 0; i < 10; ++i) sink.record(event_at(static_cast<Time>(i)));
  EXPECT_EQ(sink.seen(), 10u);
  EXPECT_EQ(sink.size(), 4u);  // calls 0, 3, 6, 9
  const auto events = sink.snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_DOUBLE_EQ(events[0].t, 0.0);
  EXPECT_DOUBLE_EQ(events[1].t, 3.0);
  EXPECT_DOUBLE_EQ(events[2].t, 6.0);
  EXPECT_DOUBLE_EQ(events[3].t, 9.0);
}

TEST(TraceSink, TypeCountsSurviveWraparound) {
  TraceSink sink(TraceSink::Config{2, 1});
  for (int i = 0; i < 6; ++i) {
    sink.record(event_at(static_cast<Time>(i), TraceEventType::kHandoffPhi));
  }
  sink.record(event_at(7.0, TraceEventType::kHandoffGamma));
  const auto& counts = sink.type_counts();
  EXPECT_EQ(counts[static_cast<Size>(TraceEventType::kHandoffPhi)], 6u);
  EXPECT_EQ(counts[static_cast<Size>(TraceEventType::kHandoffGamma)], 1u);
  EXPECT_EQ(sink.size(), 2u);  // ring only holds the newest two
}

TEST(TraceSink, EveryEventTypeHasAName) {
  for (Size i = 0; i < kTraceEventTypeCount; ++i) {
    const char* name = to_string(static_cast<TraceEventType>(i));
    EXPECT_NE(name, nullptr);
    EXPECT_STRNE(name, "unknown");
  }
}

}  // namespace
}  // namespace manet::sim

// Tests for waveform traces.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/error.hpp"
#include "sim/trace.hpp"

namespace pico::sim {
namespace {

using namespace pico::literals;

TEST(Trace, StepSemantics) {
  Trace t("p", Interp::kStep);
  t.record(0_s, 1.0);
  t.record(1_s, 5.0);
  t.record(3_s, 2.0);
  EXPECT_DOUBLE_EQ(t.at(0.5_s), 1.0);
  EXPECT_DOUBLE_EQ(t.at(1.0_s), 5.0);
  EXPECT_DOUBLE_EQ(t.at(2.9_s), 5.0);
  EXPECT_DOUBLE_EQ(t.at(3.0_s), 2.0);
  EXPECT_DOUBLE_EQ(t.at(99_s), 2.0);
}

TEST(Trace, LinearSemantics) {
  Trace t("v", Interp::kLinear);
  t.record(0_s, 0.0);
  t.record(2_s, 10.0);
  EXPECT_DOUBLE_EQ(t.at(1_s), 5.0);
}

TEST(Trace, SameTimestampOverwrites) {
  Trace t("p");
  t.record(1_s, 1.0);
  t.record(1_s, 2.0);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_DOUBLE_EQ(t.at(1_s), 2.0);
}

TEST(Trace, RejectsTimeTravel) {
  Trace t("p");
  t.record(2_s, 1.0);
  EXPECT_THROW(t.record(1_s, 1.0), pico::DesignError);
}

TEST(Trace, MinMaxStartEnd) {
  Trace t("p");
  t.record(1_s, -2.0);
  t.record(2_s, 7.0);
  EXPECT_DOUBLE_EQ(t.max_value(), 7.0);
  EXPECT_DOUBLE_EQ(t.times().front(), 1.0);
  EXPECT_DOUBLE_EQ(t.times().back(), 2.0);
}

TEST(Trace, Resample) {
  Trace t("v", Interp::kLinear);
  t.record(0_s, 0.0);
  t.record(1_s, 1.0);
  const auto pts = t.resample(0_s, 1_s, 5);
  ASSERT_EQ(pts.size(), 5u);
  EXPECT_DOUBLE_EQ(pts[2].first, 0.5);
  EXPECT_DOUBLE_EQ(pts[2].second, 0.5);
}

TEST(TraceSet, ChannelsAndCsv) {
  TraceSet ts;
  ts.channel("a").record(0_s, 1.0);
  ts.channel("b", Interp::kLinear).record(0_s, 2.0);
  ts.channel("a").record(1_s, 3.0);
  EXPECT_NE(ts.find("a"), nullptr);
  EXPECT_EQ(ts.find("zz"), nullptr);

  const std::string path = "/tmp/pico_traceset_test.csv";
  ts.write_csv(path, 0_s, 1_s, 3);
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "time_s,a,b");
  int lines = 0;
  std::string line;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 3);
  std::remove(path.c_str());
}

TEST(Trace, ResampleEmptyTraceYieldsNoPoints) {
  Trace t("v");
  EXPECT_TRUE(t.resample(0_s, 1_s, 5).empty());
  EXPECT_TRUE(t.resample(0_s, 1_s, 0).empty());
}

TEST(Trace, ResampleSinglePointRequest) {
  Trace t("v", Interp::kLinear);
  t.record(0_s, 0.0);
  t.record(2_s, 4.0);
  const auto pts = t.resample(1_s, 2_s, 1);
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_DOUBLE_EQ(pts[0].first, 1.0);
  EXPECT_DOUBLE_EQ(pts[0].second, 2.0);
}

TEST(Trace, ResampleSingleSampleTraceHoldsEverywhere) {
  Trace t("v");
  t.record(1_s, 3.5);
  const auto pts = t.resample(0_s, 2_s, 3);
  ASSERT_EQ(pts.size(), 3u);
  for (const auto& [time, value] : pts) EXPECT_DOUBLE_EQ(value, 3.5);
}

}  // namespace
}  // namespace pico::sim

// Tests for SI formatting, tables, and CSV output.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/csv.hpp"
#include "common/format.hpp"
#include "common/table.hpp"

namespace pico {
namespace {

using namespace pico::literals;

TEST(SiFormat, Prefixes) {
  EXPECT_EQ(si(6e-6, "W"), "6.00 uW");
  EXPECT_EQ(si(1.35e-3, "W"), "1.35 mW");
  EXPECT_EQ(si(1.863e9, "Hz"), "1.86 GHz");
  EXPECT_EQ(si(18e-9, "A"), "18.0 nA");
  EXPECT_EQ(si(0.0, "V"), "0 V");
  EXPECT_EQ(si(1.2, "V"), "1.20 V");
  EXPECT_EQ(si(330e3, "bps"), "330 kbps");
}

TEST(SiFormat, TypedOverloads) {
  EXPECT_EQ(si(6_uW), "6.00 uW");
  EXPECT_EQ(si(650_mV), "650 mV");
  EXPECT_EQ(si(14_ms), "14.0 ms");
}

TEST(SiFormat, NegativeValues) {
  EXPECT_EQ(si(-1.35e-3, "W"), "-1.35 mW");
}

TEST(SiFormat, BoundaryRounding) {
  // 999.9e-6 should not print as "1000 uW".
  EXPECT_EQ(si(999.9e-6, "W"), "1.00 mW");
}

TEST(FixedPct, Formatting) {
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
  EXPECT_EQ(pct(0.464), "46.4%");
  EXPECT_EQ(pct(0.964, 0), "96%");
}

TEST(Dbm, Formatting) {
  EXPECT_EQ(dbm(1_mW), "0.0 dBm");
  EXPECT_EQ(dbm(Power{1e-9}), "-60.0 dBm");
}

TEST(Table, RendersAligned) {
  Table t("demo");
  t.set_header({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"bb", "22"});
  t.add_note("a note");
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("== demo =="), std::string::npos);
  EXPECT_NE(s.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(s.find("note: a note"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, HandlesRaggedRows) {
  Table t;
  t.set_header({"a", "b", "c"});
  t.add_row({"only-one"});
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("only-one"), std::string::npos);
}

TEST(Csv, EscapesSpecialFields) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, WritesRows) {
  const std::string path = "/tmp/pico_csv_test.csv";
  {
    CsvWriter w(path);
    w.write_header({"t", "v"});
    w.write_row(std::vector<double>{0.0, 1.5});
    w.write_row(std::vector<double>{1.0, 2.5});
    EXPECT_EQ(w.rows_written(), 2u);
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "t,v");
  std::getline(in, line);
  EXPECT_EQ(line, "0,1.5");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pico

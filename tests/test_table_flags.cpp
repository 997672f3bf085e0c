// Unit tests for the console table renderer and the example flag parser.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "common/flags.hpp"
#include "common/table.hpp"

namespace manet {
namespace {

TEST(TextTableTest, AlignsColumns) {
  TextTable t({"n", "size"});
  t.row({"20", "9.25"});
  t.row({"100", "31.5"});
  const std::string out = t.render();
  EXPECT_NE(out.find("n    size"), std::string::npos);
  EXPECT_NE(out.find("20   9.25"), std::string::npos);
  EXPECT_NE(out.find("100  31.5"), std::string::npos);
}

TEST(TextTableTest, NumFormatsWithPrecision) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::num(2.0, 0), "2");
}

TEST(TextTableTest, RejectsArityMismatch) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.row({"only-one"}), std::invalid_argument);
}

TEST(TextTableTest, SizeCountsRows) {
  TextTable t({"a"});
  EXPECT_EQ(t.size(), 0u);
  t.row({"x"});
  EXPECT_EQ(t.size(), 1u);
}

Flags make_flags(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagsTest, ParsesKeyValue) {
  const auto f = make_flags({"--nodes=50", "--degree=6.5"});
  EXPECT_EQ(f.get_int("nodes", 0), 50);
  EXPECT_DOUBLE_EQ(f.get_double("degree", 0.0), 6.5);
}

TEST(FlagsTest, FallbacksWhenAbsent) {
  const auto f = make_flags({});
  EXPECT_EQ(f.get("mode", "static"), "static");
  EXPECT_EQ(f.get_int("nodes", 42), 42);
  EXPECT_FALSE(f.get_bool("verbose"));
}

TEST(FlagsTest, BareFlagIsTrue) {
  const auto f = make_flags({"--verbose"});
  EXPECT_TRUE(f.get_bool("verbose"));
  EXPECT_TRUE(f.has("verbose"));
}

TEST(FlagsTest, ExplicitFalse) {
  const auto f = make_flags({"--verbose=false", "--trace=0"});
  EXPECT_FALSE(f.get_bool("verbose", true));
  EXPECT_FALSE(f.get_bool("trace", true));
}

TEST(FlagsTest, PositionalArguments) {
  const auto f = make_flags({"input.txt", "--k=1", "output.txt"});
  ASSERT_EQ(f.positional_count(), 2u);
  EXPECT_EQ(f.positional(0), "input.txt");
  EXPECT_EQ(f.positional(1), "output.txt");
  EXPECT_THROW(f.positional(2), std::invalid_argument);
}

TEST(FlagsTest, RejectsMalformedNumbers) {
  const auto f = make_flags({"--nodes=abc", "--degree=1.2.3",
                             "--ticks=99999999999999999999",
                             "--move-frac=1e999"});
  EXPECT_THROW(f.get_int("nodes", 0), std::invalid_argument);
  EXPECT_THROW(f.get_double("degree", 0.0), std::invalid_argument);
  EXPECT_THROW(f.get_int("ticks", 0), std::invalid_argument);
  EXPECT_THROW(f.get_double("move-frac", 0.0), std::invalid_argument);
  // Each rejection names its flag, not the parser ("stoll").
  const auto what = [](const auto& parse) {
    try {
      parse();
    } catch (const std::exception& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  EXPECT_NE(what([&] { f.get_int("nodes", 0); }).find("--nodes "),
            std::string::npos);
  EXPECT_NE(what([&] { f.get_double("degree", 0.0); }).find("--degree "),
            std::string::npos);
  EXPECT_NE(what([&] { f.get_int("ticks", 0); }).find("--ticks "),
            std::string::npos);
  EXPECT_NE(what([&] { f.get_double("move-frac", 0.0); }).find("--move-frac "),
            std::string::npos);
}

}  // namespace
}  // namespace manet

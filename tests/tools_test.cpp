// Unit tests of tools/cli_args.h — the tiny argv helpers shared by the
// brightsi_sweep and brightsi_opt drivers. The CLIs' negative-path ctest
// entries exercise the binaries end to end; these tests pin the helper
// semantics (missing values, integer, seed and duration parsing, minimums,
// duplicate-flag last-wins, unknown-flag error text) at the unit level.
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../tools/cli_args.h"

namespace to = brightsi::tools;

namespace {

/// Builds a mutable argv from string literals (the helpers take char**).
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : storage_(std::move(args)) {
    for (std::string& arg : storage_) {
      pointers_.push_back(arg.data());
    }
  }
  [[nodiscard]] int argc() const { return static_cast<int>(pointers_.size()); }
  [[nodiscard]] char** argv() { return pointers_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> pointers_;
};

/// Runs `fn` and returns the std::invalid_argument message it throws;
/// fails the test when it does not throw.
template <typename Fn>
std::string invalid_argument_message(const Fn& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected std::invalid_argument";
  return "";
}

TEST(CliArgs, NextArgReturnsValueAndAdvances) {
  Argv args({"prog", "--csv", "out.csv", "--quiet"});
  int i = 1;
  EXPECT_EQ(to::next_arg(args.argc(), args.argv(), i, "--csv"), "out.csv");
  EXPECT_EQ(i, 2);  // consumed the value slot
}

TEST(CliArgs, NextArgMissingValueNamesTheFlag) {
  Argv args({"prog", "--csv"});
  int i = 1;
  const std::string message = invalid_argument_message(
      [&] { (void)to::next_arg(args.argc(), args.argv(), i, "--csv"); });
  EXPECT_EQ(message, "missing value after --csv");
}

TEST(CliArgs, NextIntArgParsesAndEnforcesMinimum) {
  Argv args({"prog", "--threads", "4", "--budget", "0"});
  int i = 1;
  EXPECT_EQ(to::next_int_arg(args.argc(), args.argv(), i, "--threads", 0), 4);
  ++i;  // step over "--budget" the way the CLI loops do
  const std::string message = invalid_argument_message(
      [&] { (void)to::next_int_arg(args.argc(), args.argv(), i, "--budget", 1); });
  EXPECT_EQ(message, "--budget must be >= 1");
}

TEST(CliArgs, NextIntArgRejectsGarbageAndTrailingText) {
  for (const char* bad : {"zero", "4x", "", "7.5"}) {
    Argv args({"prog", "--threads", bad});
    int i = 1;
    const std::string message = invalid_argument_message(
        [&] { (void)to::next_int_arg(args.argc(), args.argv(), i, "--threads", 0); });
    EXPECT_EQ(message, std::string("not an integer after --threads: '") + bad + "'") << bad;
  }
}

TEST(CliArgs, NextU64ArgParsesDigitsOnlyAcrossTheFullRange) {
  Argv args({"prog", "--seed", "7", "--seed", "18446744073709551615"});
  int i = 1;
  EXPECT_EQ(to::next_u64_arg(args.argc(), args.argv(), i, "--seed"), 7u);
  ++i;
  EXPECT_EQ(to::next_u64_arg(args.argc(), args.argv(), i, "--seed"),
            std::numeric_limits<std::uint64_t>::max());
  for (const char* bad : {"12abc", "-1", "+1", "abc", "", " 7", "0x10", "18446744073709551616"}) {
    Argv bad_args({"prog", "--seed", bad});
    i = 1;
    const std::string message = invalid_argument_message(
        [&] { (void)to::next_u64_arg(bad_args.argc(), bad_args.argv(), i, "--seed"); });
    EXPECT_EQ(message, std::string("--seed expects an unsigned 64-bit integer, got: ") + bad)
        << bad;
  }
}

TEST(CliArgs, NextSecondsArgRejectsNegativeNanAndTrailingText) {
  Argv args({"prog", "--lease-timeout", "2.5", "--lease-timeout", "0"});
  int i = 1;
  EXPECT_EQ(to::next_seconds_arg(args.argc(), args.argv(), i, "--lease-timeout"), 2.5);
  ++i;
  EXPECT_EQ(to::next_seconds_arg(args.argc(), args.argv(), i, "--lease-timeout"), 0.0);
  for (const char* bad : {"5abc", "-1", "nan", "-nan", "X", "", "1e999"}) {
    Argv bad_args({"prog", "--lease-timeout", bad});
    i = 1;
    const std::string message = invalid_argument_message([&] {
      (void)to::next_seconds_arg(bad_args.argc(), bad_args.argv(), i, "--lease-timeout");
    });
    EXPECT_EQ(message, std::string("--lease-timeout expects seconds >= 0, got: ") + bad) << bad;
  }
}

TEST(CliArgs, DuplicateFlagsLastWins) {
  // Both CLIs loop over argv and overwrite on every occurrence, so a
  // repeated flag takes its last value. Pin that contract here.
  Argv args({"prog", "--threads", "2", "--threads", "8"});
  int threads = 0;
  for (int i = 1; i < args.argc(); ++i) {
    if (std::string(args.argv()[i]) == "--threads") {
      threads = to::next_int_arg(args.argc(), args.argv(), i, "--threads", 0);
    }
  }
  EXPECT_EQ(threads, 8);
}

TEST(CliArgs, NextChoiceArgAcceptsListedValuesAndAdvances) {
  Argv args({"prog", "--algo", "nsga2", "--transient", "rom"});
  int i = 1;
  EXPECT_EQ(to::next_choice_arg(args.argc(), args.argv(), i, "--algo", {"grid", "nsga2"}),
            "nsga2");
  EXPECT_EQ(i, 2);  // consumed the value slot
  i = 3;
  EXPECT_EQ(to::next_choice_arg(args.argc(), args.argv(), i, "--transient", {"full", "rom"}),
            "rom");
}

TEST(CliArgs, NextChoiceArgRejectsUnlistedValueListingTheVocabulary) {
  // CI pins this exact text (with the full vocabulary) on both drivers via
  // PASS_REGULAR_EXPRESSION; the helper is the single source of it.
  Argv args({"prog", "--transient", "nope"});
  int i = 1;
  const std::string message = invalid_argument_message([&] {
    (void)to::next_choice_arg(args.argc(), args.argv(), i, "--transient", {"full", "rom"});
  });
  EXPECT_EQ(message, "invalid value 'nope' after --transient (expected one of: full, rom)");

  Argv algo_args({"prog", "--algo", "annealing"});
  i = 1;
  const std::string algo_message = invalid_argument_message([&] {
    (void)to::next_choice_arg(algo_args.argc(), algo_args.argv(), i, "--algo",
                              {"grid", "nsga2"});
  });
  EXPECT_EQ(algo_message,
            "invalid value 'annealing' after --algo (expected one of: grid, nsga2)");
}

TEST(CliArgs, NextChoiceArgMissingValueNamesTheFlag) {
  Argv args({"prog", "--transient"});
  int i = 1;
  const std::string message = invalid_argument_message([&] {
    (void)to::next_choice_arg(args.argc(), args.argv(), i, "--transient", {"full", "rom"});
  });
  EXPECT_EQ(message, "missing value after --transient");
}

TEST(CliArgs, UnknownOptionMessageMatchesTheCiPinnedText) {
  // CI pins "error: unknown option" via PASS_REGULAR_EXPRESSION on both
  // drivers; the shared helper is what keeps their texts identical.
  EXPECT_EQ(to::unknown_option_message("--nope"), "unknown option --nope");
}

TEST(CliArgs, ParseShardSpecAcceptsWellFormedPairs) {
  EXPECT_EQ(to::parse_shard_spec("--shard", "0/3"), (std::pair<int, int>{0, 3}));
  EXPECT_EQ(to::parse_shard_spec("--shard", "2/3"), (std::pair<int, int>{2, 3}));
  EXPECT_EQ(to::parse_shard_spec("--shard", "12/40"), (std::pair<int, int>{12, 40}));
}

TEST(CliArgs, ParseShardSpecRejectsTrailingGarbage) {
  // std::stoi alone accepts "1abc" as 1; the helper must reject partial
  // parses instead of silently running the wrong shard.
  for (const char* spec : {"1abc/3", "1/3def", "1abc/3def", "1.5/3", "1/3/5", "0x1/3"}) {
    const std::string message = invalid_argument_message(
        [&] { (void)to::parse_shard_spec("--shard", spec); });
    EXPECT_EQ(message, std::string("--shard expects I/N (e.g. 0/3), got: ") + spec);
  }
}

TEST(CliArgs, ParseShardSpecRejectsMalformedShapes) {
  for (const char* spec : {"nope", "/3", "1/", "/", ""}) {
    EXPECT_THROW((void)to::parse_shard_spec("--shard", spec), std::invalid_argument)
        << spec;
  }
}

TEST(CliArgs, ParseShardSpecRejectsNegatives) {
  EXPECT_THROW((void)to::parse_shard_spec("--shard", "-1/3"), std::invalid_argument);
  EXPECT_THROW((void)to::parse_shard_spec("--shard", "1/-3"), std::invalid_argument);
}

}  // namespace

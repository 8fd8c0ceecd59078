// Tiny argv helpers shared by the tools/ CLI drivers, so the
// missing-value and integer-parsing error messages stay identical across
// brightsi_sweep and brightsi_opt.
#ifndef BRIGHTSI_TOOLS_CLI_ARGS_H
#define BRIGHTSI_TOOLS_CLI_ARGS_H

#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <utility>

namespace brightsi::tools {

/// argv[++i], or throws "missing value after <flag>".
inline std::string next_arg(int argc, char** argv, int& i, const std::string& flag) {
  if (i + 1 >= argc) {
    throw std::invalid_argument("missing value after " + flag);
  }
  return argv[++i];
}

/// next_arg parsed as an integer >= `minimum`; throws with a readable
/// message on garbage or an out-of-range value.
inline int next_int_arg(int argc, char** argv, int& i, const std::string& flag,
                        int minimum) {
  const std::string text = next_arg(argc, argv, i, flag);
  int value = 0;
  try {
    std::size_t consumed = 0;
    value = std::stoi(text, &consumed);
    if (consumed != text.size()) {
      throw std::invalid_argument(text);
    }
  } catch (const std::exception&) {
    throw std::invalid_argument("not an integer after " + flag + ": '" + text + "'");
  }
  if (value < minimum) {
    throw std::invalid_argument(flag + " must be >= " + std::to_string(minimum));
  }
  return value;
}

/// next_arg parsed completely as an unsigned 64-bit integer (--seed): digits
/// only, since std::stoull alone reads "12abc" as 12 and wraps "-1".
inline std::uint64_t next_u64_arg(int argc, char** argv, int& i, const std::string& flag) {
  const std::string text = next_arg(argc, argv, i, flag);
  const auto malformed = [&] {
    return std::invalid_argument(flag + " expects an unsigned 64-bit integer, got: " + text);
  };
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
    throw malformed();
  }
  try {
    return std::stoull(text);
  } catch (const std::out_of_range&) {
    throw malformed();
  }
}

/// next_arg parsed completely as seconds >= 0 (--lease-timeout). A negative
/// or NaN timeout would make every live peer's lease look orphaned, so
/// cooperating shards would steal each other's rows.
inline double next_seconds_arg(int argc, char** argv, int& i, const std::string& flag) {
  const std::string text = next_arg(argc, argv, i, flag);
  const auto malformed = [&] {
    return std::invalid_argument(flag + " expects seconds >= 0, got: " + text);
  };
  double value = 0.0;
  try {
    std::size_t consumed = 0;
    value = std::stod(text, &consumed);
    if (consumed != text.size()) {
      throw malformed();
    }
  } catch (const std::exception&) {
    throw malformed();
  }
  if (!(value >= 0.0)) {  // negative, or NaN
    throw malformed();
  }
  return value;
}

/// next_arg constrained to an enumerated vocabulary (--transient full|rom,
/// --algo grid|nsga2). Throws with the full list of valid choices, so a
/// typo tells the user the vocabulary instead of just rejecting; both CLIs
/// share the one message (pinned by tests/tools_test.cpp and the
/// PASS_REGULAR_EXPRESSION ctest cases).
inline std::string next_choice_arg(int argc, char** argv, int& i, const std::string& flag,
                                   std::initializer_list<const char*> choices) {
  const std::string value = next_arg(argc, argv, i, flag);
  std::string listed;
  for (const char* choice : choices) {
    if (value == choice) {
      return value;
    }
    listed += listed.empty() ? choice : std::string(", ") + choice;
  }
  throw std::invalid_argument("invalid value '" + value + "' after " + flag +
                              " (expected one of: " + listed + ")");
}

/// Parses a "--shard I/N" spec into (shard index, shard count). Both halves
/// must parse completely — "1abc/3def" is rejected, not silently run as
/// shard 1/3 — and negative values are rejected here rather than left to
/// surface as a confusing store error later. One pinned message for every
/// malformed form (ctest's brightsi_sweep_bad_shard_spec family).
inline std::pair<int, int> parse_shard_spec(const std::string& flag,
                                            const std::string& spec) {
  const auto malformed = [&] {
    return std::invalid_argument(flag + " expects I/N (e.g. 0/3), got: " + spec);
  };
  const auto slash = spec.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 >= spec.size()) {
    throw malformed();
  }
  int index = 0;
  int count = 0;
  try {
    std::size_t consumed = 0;
    index = std::stoi(spec.substr(0, slash), &consumed);
    if (consumed != slash) {
      throw std::invalid_argument(spec);
    }
    const std::string count_text = spec.substr(slash + 1);
    count = std::stoi(count_text, &consumed);
    if (consumed != count_text.size()) {
      throw std::invalid_argument(spec);
    }
  } catch (const std::exception&) {
    throw malformed();
  }
  if (index < 0 || count < 0) {
    throw malformed();
  }
  return {index, count};
}

/// The exact unknown-flag diagnostic both CLIs print (prefixed "error: ");
/// CI pins it with PASS_REGULAR_EXPRESSION, and tests/tools_test.cpp pins
/// the text itself, so the two drivers can never drift apart.
inline std::string unknown_option_message(const std::string& flag) {
  return "unknown option " + flag;
}

}  // namespace brightsi::tools

#endif  // BRIGHTSI_TOOLS_CLI_ARGS_H

// Shared flag parsing for the fpdt subcommands. Every command used to
// hand-roll the same next()/atoi loop with its own unknown-flag message;
// this keeps one copy with consistent errors:
//
//   cli::FlagParser f("profile", argc, argv, base);
//   while (f.more()) {
//     if (f.match("--steps", &opt.steps)) continue;
//     if (f.match_set("--no-trace", &opt.trace, false)) continue;
//     f.unknown();  // throws FpdtError("unknown profile flag: --bogus")
//   }
//
// match() consumes "--flag value" when the current argument equals the flag
// name (so a flag's value may look like another flag); match_set() consumes
// a bare flag and stores a fixed bool.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <string>

#include "common/check.h"
#include "common/units.h"

namespace fpdt::cli {

class FlagParser {
 public:
  FlagParser(std::string cmd, int argc, char** argv, int base)
      : cmd_(std::move(cmd)), argc_(argc), argv_(argv), i_(base) {}

  bool more() const { return i_ < argc_; }

  bool match(const char* name, int* out) {
    if (!is(name)) return false;
    *out = std::atoi(value(name));
    return true;
  }

  bool match(const char* name, std::int64_t* out) {
    if (!is(name)) return false;
    *out = std::atoll(value(name));
    return true;
  }

  bool match(const char* name, std::uint64_t* out) {
    if (!is(name)) return false;
    *out = std::strtoull(value(name), nullptr, 10);
    return true;
  }

  bool match(const char* name, std::string* out) {
    if (!is(name)) return false;
    *out = value(name);
    return true;
  }

  // Integer restricted to lo..hi: a value outside the range, or one that is
  // not a number, throws FpdtError naming the legal range.
  bool match_in(const char* name, int* out, int lo, int hi) {
    if (!is(name)) return false;
    const char* v = value(name);
    char* end = nullptr;
    const long n = std::strtol(v, &end, 10);
    if (end == v || *end != '\0' || n < lo || n > hi) {
      throw FpdtError(cmd_ + ": " + name + " must be in " + std::to_string(lo) + ".." +
                      std::to_string(hi) + ", got '" + v + "'");
    }
    *out = static_cast<int>(n);
    return true;
  }

  // "64K"/"2M"-suffixed counts (binary multiples, common/units.h); used for
  // token counts and byte budgets alike.
  bool match_tokens(const char* name, std::int64_t* out) {
    if (!is(name)) return false;
    *out = parse_token_count(value(name));
    return true;
  }

  // Valueless flag: "--no-trace" stores `set_to` into *out.
  bool match_set(const char* name, bool* out, bool set_to = true) {
    if (!is(name)) return false;
    *out = set_to;
    ++i_;
    return true;
  }

  [[noreturn]] void unknown() const {
    throw FpdtError("unknown " + cmd_ + " flag: " + argv_[i_]);
  }

 private:
  bool is(const char* name) const { return std::string(argv_[i_]) == name; }

  const char* value(const char* name) {
    FPDT_CHECK_LT(i_ + 1, argc_) << " missing value for " << name;
    const char* v = argv_[i_ + 1];
    i_ += 2;
    return v;
  }

  std::string cmd_;
  int argc_;
  char** argv_;
  int i_;
};

}  // namespace fpdt::cli

#ifndef SOPS_BENCH_BENCH_UTIL_HPP
#define SOPS_BENCH_BENCH_UTIL_HPP

/// \file bench_util.hpp
/// Shared helpers for the experiment harnesses: spec assembly from
/// defaults + environment variables + argv (one parser for every bench,
/// sim::ParamMap underneath), aligned table printing, and CSV output
/// locations.  Every bench runs with sensible defaults via
/// `for b in build/bench/*; do $b; done`; CI shrinks runs through the
/// SOPS_* environment knobs, and any key=value argument overrides both.
/// Unknown argv flags are hard errors — the old per-binary parsers
/// silently ignored them.

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <initializer_list>
#include <string>
#include <vector>

#include "sim/params.hpp"

namespace sops::bench {

/// Binds a spec key to the legacy SOPS_* environment variable that may
/// override its default.
struct EnvKey {
  const char* key;
  const char* env;
};

/// Layered parameter assembly: `defaults` (key=value text), overridden by
/// any set environment variable from `envKeys`, overridden by argv
/// key=value tokens.  Malformed or unknown argv tokens throw
/// ContractViolation (callers let it escape to fail the run loudly).
inline sim::ParamMap layeredParams(std::string_view defaults,
                                   std::initializer_list<EnvKey> envKeys,
                                   int argc, const char* const* argv) {
  sim::ParamMap map = sim::parseKeyValues(defaults);
  for (const EnvKey& e : envKeys) {
    const char* raw = std::getenv(e.env);
    if (raw != nullptr && *raw != '\0') map.set(e.key, raw);
  }
  map.merge(sim::parseArgs(argc, argv));
  return map;
}

/// For benches whose knobs are env-only: any argv is an error (instead of
/// the historical silent ignore), with the env knobs named in the
/// message.
inline void expectNoArgs(int argc, const char* const* argv,
                         const char* envHelp) {
  if (argc <= 1) return;
  std::fprintf(stderr,
               "%s takes no arguments (tune via environment knobs: %s)\n",
               argv[0], envHelp);
  std::exit(2);
}

/// Rejects a malformed environment knob the way expectNoArgs rejects
/// argv: the message names the variable, and the run exits with code 2.
[[noreturn]] inline void badEnvValue(const char* name, const char* raw,
                                     const char* expected) {
  std::fprintf(stderr, "%s=\"%s\" is not %s\n", name, raw, expected);
  std::exit(2);
}

/// Integer override: SOPS_<NAME> environment variable, else fallback.
/// The whole value must be one in-range integer ("1e7" and "8M" are
/// errors, not 1 and 8).
inline std::int64_t envInt(const char* name, std::int64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(raw, &end, 10);
  if (*raw == '\0' || *end != '\0' || errno == ERANGE) {
    badEnvValue(name, raw, "an in-range integer");
  }
  return value;
}

/// Floating-point override, with envInt's whole-value and range checks.
inline double envDouble(const char* name, double fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(raw, &end);
  if (*raw == '\0' || *end != '\0' || errno == ERANGE ||
      !std::isfinite(value)) {
    badEnvValue(name, raw, "a finite, in-range number");
  }
  return value;
}

/// Decimal text that parses back to exactly `value`, for spec keys set
/// from a number the bench already holds.
inline std::string exactText(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// Where benches drop plot-ready CSVs (next to the working directory).
inline std::string csvPath(const std::string& fileName) {
  std::filesystem::create_directories("bench_out");
  return "bench_out/" + fileName;
}

/// Prints a header for an experiment section.
inline void banner(const std::string& id, const std::string& title) {
  static constexpr char kRule[] =
      "================================================================";
  std::printf("\n%s\n", kRule);
  std::printf("%s — %s\n", id.c_str(), title.c_str());
  std::printf("%s\n", kRule);
}

/// Simple fixed-width row printer: column widths inferred from the header.
class Table {
 public:
  explicit Table(std::vector<std::string> header, int columnWidth = 14)
      : header_(std::move(header)), width_(columnWidth) {
    for (const std::string& cell : header_) {
      std::printf("%-*s", width_, cell.c_str());
    }
    std::printf("\n");
    for (std::size_t i = 0; i < header_.size(); ++i) {
      for (int c = 0; c < width_ - 2; ++c) std::printf("-");
      std::printf("  ");
    }
    std::printf("\n");
  }

  void row(const std::vector<std::string>& cells) {
    for (const std::string& cell : cells) {
      std::printf("%-*s", width_, cell.c_str());
    }
    std::printf("\n");
  }

 private:
  std::vector<std::string> header_;
  int width_;
};

inline std::string fmt(double value, int precision = 3) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
  return buffer;
}

inline std::string fmtInt(std::int64_t value) { return std::to_string(value); }

}  // namespace sops::bench

#endif  // SOPS_BENCH_BENCH_UTIL_HPP

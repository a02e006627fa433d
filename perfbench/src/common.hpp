#ifndef SOPS_PERFBENCH_COMMON_HPP
#define SOPS_PERFBENCH_COMMON_HPP

/// \file common.hpp
/// Shared by the two benchmark programs: the workload table, the seed
/// schedule, output checks, the untraced end-to-end run through
/// sim::run, and the JSON record the programs print for run.py.

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/run_spec.hpp"
#include "system/particle_system.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One named workload: a RunSpec (seed and sink paths filled in per run)
/// plus the band its final alpha = p / p_min must land in.  The bands come
/// from the paper's two regimes, not from a recorded trajectory, so a
/// change that legitimately alters trajectories (a different sampler or
/// executor) still passes.
struct Workload {
  std::string_view name;
  std::string_view spec;
  bool sinks;  ///< jsonl= and snapshot-file= under the scratch directory
  double alphaMin;
  double alphaMax;
};

[[nodiscard]] const std::vector<Workload>& workloads();

/// Throws std::invalid_argument naming the known workloads.
[[nodiscard]] const Workload& findWorkload(std::string_view name);

/// Seed of repetition `rep` in a run with seed `runSeed` (splitmix64), so
/// the inputs of every repetition follow from --seed alone.
[[nodiscard]] std::uint64_t repSeed(std::uint64_t runSeed, std::uint64_t rep);

/// The workload's RunSpec for one repetition.  Sink files go to
/// `<dir>/<workload>-<tag>.{jsonl,snap}`.
[[nodiscard]] sops::sim::RunSpec makeSpec(const Workload& workload,
                                          std::uint64_t seed,
                                          const std::string& dir,
                                          const std::string& tag);

/// Removes the sink files a spec names (and the snapshot's .prev), so
/// every repetition starts from the same empty directory state.
void removeSinkFiles(const sops::sim::RunSpec& spec);

/// Output checks: each expect() is one attempted check.
class Checks {
 public:
  void expect(bool ok, const std::string& what);
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// Particle count unchanged, connected, and — when `trackedEdges` >= 0 —
/// the tracked edge count equal to a fresh system::countEdges.
void checkConfiguration(Checks& checks, const sops::system::ParticleSystem& sys,
                        std::size_t particles, std::int64_t trackedEdges,
                        const std::string& where);

/// Checks on one sample row of the compression or amoebot scenario: no
/// holes appear (hole-freeness is absorbing from a hole-free start) and
/// p >= p_min.
void checkSampleValues(Checks& checks, const sops::sim::RunSpec& spec,
                       const std::vector<std::string>& names,
                       const std::vector<double>& values, std::uint64_t step);

/// Value of the named column in a sample row (throws when absent).
[[nodiscard]] double column(const std::vector<std::string>& names,
                            const std::vector<double>& values,
                            std::string_view name);

/// The sample rows a run produced, in order.
struct SampleLog {
  std::vector<std::string> names;
  std::vector<std::uint64_t> iterations;
  std::vector<std::vector<double>> rows;
};

/// One untraced repetition: RunSpec -> sim::run, as spps runs it.
struct EndToEndRep {
  std::uint64_t seed = 0;
  double wallSeconds = 0.0;   ///< sim::run entry to return, minus checks
  double setupSeconds = 0.0;  ///< sim::run entry to the iteration-0 sample
  std::uint64_t steps = 0;
  double peakRssMb = 0.0;  ///< process high-water mark after the run
  SampleLog samples;
  std::vector<double> finalMetrics;
};

/// Runs the spec through sim::run and checks its outputs: every sample's
/// values, the final configuration, the step count, the final alpha band
/// and, with a snapshot-file, the last snapshot read back.
[[nodiscard]] EndToEndRep runEndToEnd(const Workload& workload,
                                      const sops::sim::RunSpec& spec,
                                      Checks& checks);

/// Command line shared by both programs, which run one repetition per
/// process (run.py repeats them):
///   --workload NAME --seed N --rep K --dir SCRATCH
/// Repetition K runs the spec with seed repSeed(N, K).
struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  std::uint64_t rep = 0;
  std::string dir;
};
[[nodiscard]] Args parseArgs(int argc, char** argv);

/// Throws unless this is an optimized (Release, NDEBUG) build.
void requireReleaseBuild();

/// Peak resident set of this process so far, in MiB (getrusage).  Each
/// repetition runs in a fresh process, as spps does, so this is the
/// repetition's own peak.
[[nodiscard]] double peakRssMb();

/// Minimal JSON object writer for the programs' output record.
class JsonObject {
 public:
  JsonObject& num(std::string_view key, double value);
  JsonObject& num(std::string_view key, std::uint64_t value);
  JsonObject& str(std::string_view key, std::string_view value);
  JsonObject& boolean(std::string_view key, bool value);
  JsonObject& nums(std::string_view key, const std::vector<double>& values);
  JsonObject& strs(std::string_view key,
                   const std::vector<std::string>& values);
  JsonObject& raw(std::string_view key, const std::string& json);
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  void key(std::string_view key);
  std::string body_;
};

/// One repetition's timings, step count, peak RSS and final alpha.
[[nodiscard]] std::string repJson(const EndToEndRep& rep);

/// The head of the record every program prints as its stdout line:
/// workload, seed, repetition, context and the check tallies.
[[nodiscard]] JsonObject recordHeader(const Args& args, const Checks& checks);

}  // namespace perfbench

#endif  // SOPS_PERFBENCH_COMMON_HPP

#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <thread>

#include "sim/runner.hpp"
#include "system/metrics.hpp"
#include "system/snapshot.hpp"
#include "util/assert.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace perfbench {

namespace sim = sops::sim;
namespace system = sops::system;

const std::vector<Workload>& workloads() {
  // Why each one exists is recorded in README.md and BENCHMARK.json.
  // alpha bands: at lambda = 4 (> 2 + sqrt 2) the spiral start stays
  // compressed; at lambda = 2 (< 2.17) it expands away from p_min.
  static const std::vector<Workload> table = {
      {"compress-seq",
       "scenario=compression shape=spiral n=100000 lambda=4 threads=1 "
       "steps=50000000 checkpoint=10000000",
       false, 1.0, 2.5},
      {"compress-par",
       "scenario=compression shape=spiral n=100000 lambda=4 threads=4 "
       "steps=50000000 checkpoint=10000000",
       false, 1.0, 2.5},
      {"expand-ckpt",
       "scenario=compression shape=spiral n=100000 lambda=2 threads=1 "
       "steps=50000000 checkpoint=500000",
       true, 3.0, std::numeric_limits<double>::infinity()},
      {"amoebot-par",
       "scenario=amoebot shape=spiral n=100000 lambda=4 threads=4 "
       "steps=40000000 checkpoint=10000000",
       false, 1.0, 2.5},
  };
  return table;
}

const Workload& findWorkload(std::string_view name) {
  std::string known;
  for (const Workload& w : workloads()) {
    if (w.name == name) return w;
    known += (known.empty() ? "" : ", ") + std::string(w.name);
  }
  throw std::invalid_argument("unknown workload '" + std::string(name) +
                              "' (known: " + known + ")");
}

std::uint64_t repSeed(std::uint64_t runSeed, std::uint64_t rep) {
  std::uint64_t z = runSeed * 0x9E3779B97F4A7C15ULL + rep + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  // Non-negative as a signed 63-bit value: RunSpec parses seed= as int64.
  return (z ^ (z >> 31)) >> 1;
}

sim::RunSpec makeSpec(const Workload& workload, std::uint64_t seed,
                      const std::string& dir, const std::string& tag) {
  std::string text(workload.spec);
  text += " seed=" + std::to_string(seed);
  if (workload.sinks) {
    const std::string base = dir + "/" + std::string(workload.name) + "-" + tag;
    text += " jsonl=" + base + ".jsonl snapshot-file=" + base + ".snap";
  }
  return sim::RunSpec::parse(text);
}

void removeSinkFiles(const sim::RunSpec& spec) {
  std::error_code ignored;
  if (!spec.jsonlPath.empty()) std::filesystem::remove(spec.jsonlPath, ignored);
  if (!spec.snapshotPath.empty()) {
    std::filesystem::remove(spec.snapshotPath, ignored);
    std::filesystem::remove(spec.snapshotPath + ".prev", ignored);
  }
}

void Checks::expect(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  // Keep the record bounded; the count above stays exact.
  if (failures_.size() < 20) failures_.push_back(what);
}

void checkConfiguration(Checks& checks, const system::ParticleSystem& sys,
                        std::size_t particles, std::int64_t trackedEdges,
                        const std::string& where) {
  checks.expect(sys.size() == particles,
                where + ": particle count " + std::to_string(sys.size()) +
                    " != " + std::to_string(particles));
  checks.expect(system::isConnected(sys), where + ": disconnected");
  if (trackedEdges >= 0) {
    const std::int64_t counted = system::countEdges(sys);
    checks.expect(counted == trackedEdges,
                  where + ": tracked edges " + std::to_string(trackedEdges) +
                      " != countEdges " + std::to_string(counted));
  }
}

double column(const std::vector<std::string>& names,
              const std::vector<double>& values, std::string_view name) {
  for (std::size_t i = 0; i < names.size() && i < values.size(); ++i) {
    if (names[i] == name) return values[i];
  }
  throw std::runtime_error("sample has no column '" + std::string(name) + "'");
}

void checkSampleValues(Checks& checks, const sim::RunSpec& spec,
                       const std::vector<std::string>& names,
                       const std::vector<double>& values, std::uint64_t step) {
  const std::string where = "sample at step " + std::to_string(step);
  checks.expect(values.size() == names.size(), where + ": width mismatch");
  if (std::find(names.begin(), names.end(), "holes") != names.end()) {
    checks.expect(column(names, values, "holes") == 0.0,
                  where + ": holes appeared");
  }
  const double perimeter = column(names, values, "perimeter");
  checks.expect(perimeter >= static_cast<double>(system::pMin(spec.n)),
                where + ": perimeter below p_min");
}

namespace {

/// Records the sample stream and the time of the iteration-0 sample, and
/// checks the final configuration (time spent checking is kept apart so it
/// can be taken out of the run's wall time).
class EndToEndObserver : public sim::Observer {
 public:
  EndToEndObserver(const sim::RunSpec& spec, Checks& checks, SampleLog& log)
      : spec_(spec), checks_(checks), log_(log) {}

  void onRunBegin(const sim::RunHeader& header) override {
    log_.names = header.metricNames;
  }
  void onSample(const sim::Sample& sample) override {
    if (log_.rows.empty()) firstSample = Clock::now();
    log_.iterations.push_back(sample.iteration);
    log_.rows.emplace_back(sample.values.begin(), sample.values.end());
  }
  void onReplicaEnd(const sim::ReplicaSummary& summary) override {
    const Clock::time_point start = Clock::now();
    const bool tracksEdges = std::find(log_.names.begin(), log_.names.end(),
                                       "edges") != log_.names.end();
    checks_.expect(summary.finalSystem != nullptr, "no final configuration");
    if (summary.finalSystem != nullptr) {
      const auto particles = static_cast<std::size_t>(spec_.n);
      std::int64_t edges = -1;
      if (tracksEdges) {
        edges = static_cast<std::int64_t>(
            column(log_.names, summary.finalMetrics, "edges"));
      }
      checkConfiguration(checks_, *summary.finalSystem, particles, edges,
                         "final configuration");
    }
    checkSeconds += secondsSince(start);
  }

  Clock::time_point firstSample;
  double checkSeconds = 0.0;

 private:
  const sim::RunSpec& spec_;
  Checks& checks_;
  SampleLog& log_;
};

[[nodiscard]] std::size_t countLines(const std::string& path) {
  std::ifstream in(path);
  std::size_t lines = 0;
  for (std::string line; std::getline(in, line);) ++lines;
  return lines;
}

void checkSnapshotFile(Checks& checks, const sim::RunSpec& spec,
                       std::uint64_t steps) {
  try {
    // readSnapshotFile verifies magic, version, length and checksum.
    const system::SnapshotData data =
        system::readSnapshotFile(spec.snapshotPath);
    system::SnapshotReader reader(data.payload, data.version);
    const std::string compat = reader.str();
    checks.expect(compat.rfind("scenario=" + spec.scenario, 0) == 0,
                  "snapshot: foreign spec '" + compat + "'");
    checks.expect(reader.u64() == 0, "snapshot: replica != 0");
    checks.expect(reader.u64() == steps, "snapshot: not the final step");
  } catch (const std::exception& e) {
    checks.expect(false, std::string("snapshot read-back: ") + e.what());
  }
}

}  // namespace

EndToEndRep runEndToEnd(const Workload& workload, const sim::RunSpec& spec,
                        Checks& checks) {
  removeSinkFiles(spec);
  EndToEndRep rep;
  rep.seed = spec.seed;
  EndToEndObserver observer(spec, checks, rep.samples);

  const Clock::time_point entry = Clock::now();
  const sim::RunReport report = sim::run(spec, observer);
  const Clock::time_point exit = Clock::now();

  rep.wallSeconds = std::chrono::duration<double>(exit - entry).count() -
                    observer.checkSeconds;
  rep.setupSeconds =
      std::chrono::duration<double>(observer.firstSample - entry).count();
  rep.peakRssMb = peakRssMb();
  rep.steps = report.replicas.at(0).steps;
  rep.finalMetrics = report.replicas.at(0).finalMetrics;

  const SampleLog& log = rep.samples;
  checks.expect(!report.cancelled, "run cancelled");
  checks.expect(rep.steps >= spec.steps,
                "executed " + std::to_string(rep.steps) + " of " +
                    std::to_string(spec.steps) + " steps");
  checks.expect(!log.rows.empty() && log.iterations.front() == 0,
                "no iteration-0 sample");
  for (std::size_t i = 0; i < log.rows.size(); ++i) {
    checkSampleValues(checks, spec, log.names, log.rows[i], log.iterations[i]);
    if (i > 0) {
      checks.expect(log.iterations[i] > log.iterations[i - 1],
                    "sample iterations not increasing");
    }
  }
  checks.expect(!log.rows.empty() && log.rows.back() == rep.finalMetrics &&
                    log.iterations.back() == rep.steps,
                "final metrics differ from the last sample");
  const double alpha = column(log.names, rep.finalMetrics, "alpha");
  checks.expect(alpha >= workload.alphaMin && alpha <= workload.alphaMax,
                "final alpha " + std::to_string(alpha) + " outside [" +
                    std::to_string(workload.alphaMin) + ", " +
                    std::to_string(workload.alphaMax) + "]");
  if (!spec.snapshotPath.empty()) checkSnapshotFile(checks, spec, rep.steps);
  if (!spec.jsonlPath.empty()) {
    // run record + one line per sample + replica record + end record
    checks.expect(countLines(spec.jsonlPath) == log.rows.size() + 3,
                  "jsonl sink line count");
  }
  return rep;
}

Args parseArgs(int argc, char** argv) {
  Args args;
  bool haveWorkload = false;
  bool haveDir = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      haveWorkload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--rep") {
      args.rep = std::stoull(value);
    } else if (flag == "--dir") {
      args.dir = value;
      haveDir = true;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!haveWorkload || !haveDir) {
    throw std::invalid_argument(
        "usage: --workload NAME --seed N --rep K --dir SCRATCH");
  }
  (void)findWorkload(args.workload);
  std::filesystem::create_directories(args.dir);
  return args;
}

void requireReleaseBuild() {
#ifndef NDEBUG
  throw std::runtime_error("built without NDEBUG: refusing to report");
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    throw std::runtime_error(std::string("build type '") +
                             PERFBENCH_BUILD_TYPE +
                             "' is not Release: refusing to report");
  }
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

[[nodiscard]] std::string jsonString(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

[[nodiscard]] std::string jsonArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ',';
    out += items[i];
  }
  return out + "]";
}

[[nodiscard]] std::string jsonNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

[[nodiscard]] std::string cpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    if (__get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string model(brand);
  model.erase(0, model.find_first_not_of(' '));
  return model;
#else
  return "unknown";
#endif
}

[[nodiscard]] double sysconfOrZero(int name) {
  const long v = sysconf(name);
  return v > 0 ? static_cast<double>(v) : 0.0;
}

/// Build and hardware context: build type, compiler, CPU model, cache
/// sizes, core count.
[[nodiscard]] std::string contextJson() {
  JsonObject o;
  o.str("build_type", PERFBENCH_BUILD_TYPE);
#ifdef NDEBUG
  o.boolean("ndebug", true);
#else
  o.boolean("ndebug", false);
#endif
#if defined(__clang__)
  o.str("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  o.str("compiler", std::string("gcc ") + __VERSION__);
#else
  o.str("compiler", "unknown");
#endif
  o.str("cpu_model", cpuModel());
  o.num("nproc",
        static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  o.num("l1d_bytes", sysconfOrZero(_SC_LEVEL1_DCACHE_SIZE));
  o.num("l2_bytes", sysconfOrZero(_SC_LEVEL2_CACHE_SIZE));
  o.num("l3_bytes", sysconfOrZero(_SC_LEVEL3_CACHE_SIZE));
  return o.text();
}

}  // namespace

void JsonObject::key(std::string_view key) {
  if (!body_.empty()) body_ += ',';
  body_ += jsonString(key) + ':';
}

JsonObject& JsonObject::num(std::string_view k, double value) {
  key(k);
  body_ += jsonNumber(value);
  return *this;
}

JsonObject& JsonObject::num(std::string_view k, std::uint64_t value) {
  key(k);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::str(std::string_view k, std::string_view value) {
  key(k);
  body_ += jsonString(value);
  return *this;
}

JsonObject& JsonObject::boolean(std::string_view k, bool value) {
  key(k);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::nums(std::string_view k,
                             const std::vector<double>& values) {
  std::vector<std::string> items;
  items.reserve(values.size());
  for (const double v : values) items.push_back(jsonNumber(v));
  return raw(k, jsonArray(items));
}

JsonObject& JsonObject::strs(std::string_view k,
                             const std::vector<std::string>& values) {
  std::vector<std::string> items;
  items.reserve(values.size());
  for (const std::string& v : values) items.push_back(jsonString(v));
  return raw(k, jsonArray(items));
}

JsonObject& JsonObject::raw(std::string_view k, const std::string& json) {
  key(k);
  body_ += json;
  return *this;
}

std::string repJson(const EndToEndRep& rep) {
  return JsonObject()
      .num("seed", rep.seed)
      .num("wall_s", rep.wallSeconds)
      .num("setup_s", rep.setupSeconds)
      .num("steps", rep.steps)
      .num("peak_rss_mb", rep.peakRssMb)
      .num("final_alpha",
           column(rep.samples.names, rep.finalMetrics, "alpha"))
      .text();
}

JsonObject recordHeader(const Args& args, const Checks& checks) {
  JsonObject o;
  o.str("workload", args.workload)
      .num("seed", args.seed)
      .num("rep", args.rep)
      .raw("context", contextJson())
      .num("attempted", checks.attempted())
      .num("failed", checks.failed())
      .strs("failures", checks.failures());
  return o;
}

}  // namespace perfbench

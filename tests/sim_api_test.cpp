// The scenario facade's correctness contract:
//
//  1. ParamMap/ParamSchema: strict key=value and flat-JSON parsing, typed
//     getters that reject malformed values, unknown-key validation (the
//     fix for the old argv parsers' silent ignore), toText round-trip;
//  2. RunSpec: parse → validate → round-trip identity, reserved-key range
//     checks, schema validation against the registry;
//  3. Registry: the four built-ins resolve; unknown names throw with the
//     registered names in the message;
//  4. Observer pipeline: sampled metrics equal independent system/metrics
//     recomputation at every checkpoint; CSV sink shape; MemorySink
//     replay fidelity;
//  5. Facade ↔ direct-engine golden identity for all three chain
//     scenarios (same final arrangement, edges, and metrics — the facade
//     is a re-layering, not a new sampler), including the replica seed
//     derivation; amoebot runs are thread-count independent;
//  6. Runner dispatch: multi-replica runs are deterministic and
//     thread-count independent; a worker's error surfaces on the caller
//     after the join; StopWhen ends replicas early.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "amoebot/amoebot_system.hpp"
#include "amoebot/local_compression.hpp"
#include "amoebot/parallel_scheduler.hpp"
#include "core/cancel.hpp"
#include "core/scenario_models.hpp"
#include "core/sharded_chain_runner.hpp"
#include "sim/registry.hpp"
#include "sim/runner.hpp"
#include "system/metrics.hpp"
#include "system/shapes.hpp"
#include "system/snapshot.hpp"

namespace sops::sim {
namespace {

// -- 1. params --------------------------------------------------------------

TEST(SimParams, ParsesKeyValuesQuotesAndComments) {
  const ParamMap map = parseKeyValues(
      "alpha=1.5 name=\"two words\"\n# a comment line\nn=100");
  EXPECT_EQ(map.size(), 3u);
  EXPECT_DOUBLE_EQ(map.getDouble("alpha", 0.0), 1.5);
  EXPECT_EQ(map.getString("name", ""), "two words");
  EXPECT_EQ(map.getInt("n", 0), 100);
  EXPECT_EQ(map.getInt("missing", 42), 42);
}

TEST(SimParams, RejectsMalformedTokensAndValues) {
  EXPECT_THROW((void)parseKeyValues("flag"), ContractViolation);
  EXPECT_THROW((void)parseKeyValues("--help"), ContractViolation);
  EXPECT_THROW((void)parseKeyValues("=value"), ContractViolation);
  const ParamMap map = parseKeyValues("n=abc b=maybe");
  EXPECT_THROW((void)map.getInt("n", 0), ContractViolation);
  EXPECT_THROW((void)map.getBool("b", false), ContractViolation);
}

TEST(SimParams, BooleansAcceptCommonSpellings) {
  const ParamMap map = parseKeyValues("a=true b=0 c=YES d=off");
  EXPECT_TRUE(map.getBool("a", false));
  EXPECT_FALSE(map.getBool("b", true));
  EXPECT_TRUE(map.getBool("c", false));
  EXPECT_FALSE(map.getBool("d", true));
}

TEST(SimParams, FlatJsonMatchesKeyValueForm) {
  const ParamMap kv = parseKeyValues("scenario=separation n=40 gamma=2.5");
  const ParamMap json = parseSpecText(
      R"({"scenario": "separation", "n": 40, "gamma": 2.5})");
  EXPECT_EQ(json.getString("scenario", ""), kv.getString("scenario", ""));
  EXPECT_EQ(json.getInt("n", 0), kv.getInt("n", 0));
  EXPECT_DOUBLE_EQ(json.getDouble("gamma", 0.0), kv.getDouble("gamma", 0.0));
}

TEST(SimParams, JsonRejectsNestingAndTrailingGarbage) {
  EXPECT_THROW((void)parseJsonObject(R"({"a": {"b": 1}})"), ContractViolation);
  EXPECT_THROW((void)parseJsonObject(R"({"a": [1]})"), ContractViolation);
  EXPECT_THROW((void)parseJsonObject(R"({"a": 1} x)"), ContractViolation);
  EXPECT_THROW((void)parseJsonObject(R"({"a": null})"), ContractViolation);
}

TEST(SimParams, ToTextRoundTrips) {
  ParamMap map;
  map.set("scenario", "compression");
  map.set("label", "two words");
  map.set("n", "64");
  const ParamMap reparsed = parseKeyValues(map.toText());
  EXPECT_EQ(reparsed.entries(), map.entries());
}

TEST(SimParams, ParseArgsHonorsShellArgumentBoundaries) {
  // One shell-quoted argv element may carry spaces — even `k=v`-looking
  // text — without being re-split (the parser must not re-tokenize).
  const char* argv[] = {"prog", "csv=my file.csv", "label=run a=1"};
  const ParamMap map = parseArgs(3, argv);
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.getString("csv", ""), "my file.csv");
  EXPECT_EQ(map.getString("label", ""), "run a=1");
  EXPECT_FALSE(map.contains("a"));
  const char* bad[] = {"prog", "--help"};
  EXPECT_THROW((void)parseArgs(2, bad), ContractViolation);
}

TEST(SimParams, ToTextRoundTripsAwkwardValues) {
  ParamMap map;
  map.set("tab", "a\tb");
  map.set("quote", "say \"hi\"");
  map.set("backslash", "a\\b");
  map.set("mixed", "a b \"c\\d\"");
  map.set("hash", "#notacomment");
  map.set("empty", "");
  const ParamMap reparsed = parseKeyValues(map.toText());
  EXPECT_EQ(reparsed.entries(), map.entries());
}

TEST(SimParams, UnquotedValuesStopAtInlineComments) {
  // The parser's mirror of toText() quoting any value containing '#': an
  // *unquoted* value ends at the comment marker instead of swallowing it.
  const ParamMap map = parseKeyValues("steps=100 mode=fast#quick");
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.getInt("steps", 0), 100);
  EXPECT_EQ(map.getString("mode", ""), "fast");
  // The comment still runs to end of line only.
  const ParamMap lines = parseKeyValues("a=1#rest of line b=ignored\nc=3");
  EXPECT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines.getInt("a", 0), 1);
  EXPECT_EQ(lines.getInt("c", 0), 3);
  // Round trip: a value that *contains* '#' is quoted by toText, so
  // re-parsing cannot invent a comment.
  ParamMap hash;
  hash.set("mode", "fast#quick");
  const std::string text = hash.toText();
  EXPECT_NE(text.find('"'), std::string::npos);
  EXPECT_EQ(parseKeyValues(text).entries(), hash.entries());
}

TEST(SimParams, ValidateAgainstSchemaNamesOffendingKey) {
  ParamSchema schema;
  schema.add("lambda", ParamType::Double, "4.0", "bias");
  const ParamMap unknown = parseKeyValues("lambda=4 bogus=1");
  try {
    unknown.validateAgainst(schema, "test");
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("lambda"), std::string::npos);
  }
  const ParamMap badType = parseKeyValues("lambda=fast");
  EXPECT_THROW(badType.validateAgainst(schema, "test"), ContractViolation);
}

TEST(SimParams, MergeLayersAndOptionallyRejectsNewKeys) {
  ParamMap defaults = parseKeyValues("n=80 lambda=4.0");
  defaults.merge(parseKeyValues("lambda=2.0"));
  EXPECT_DOUBLE_EQ(defaults.getDouble("lambda", 0.0), 2.0);
  EXPECT_THROW(defaults.merge(parseKeyValues("extra=1"), true),
               ContractViolation);
  defaults.merge(parseKeyValues("extra=1"));
  EXPECT_TRUE(defaults.contains("extra"));
  defaults.erase("extra");
  EXPECT_FALSE(defaults.contains("extra"));
}

// -- 2. run spec ------------------------------------------------------------

TEST(SimRunSpec, ParsesValidatesAndRoundTrips) {
  const RunSpec spec = RunSpec::parse(
      "scenario=separation shape=spiral n=48 steps=5000 checkpoint=1000 "
      "seed=9 replicas=3 seed-stride=11 threads=2 gamma=2.0 swaps=false");
  EXPECT_EQ(spec.scenario, "separation");
  EXPECT_EQ(spec.shape, "spiral");
  EXPECT_EQ(spec.n, 48);
  EXPECT_EQ(spec.steps, 5000u);
  EXPECT_EQ(spec.checkpointEvery, 1000u);
  EXPECT_EQ(spec.seed, 9u);
  EXPECT_EQ(spec.replicas, 3u);
  EXPECT_EQ(spec.replicaSeed(2), 9u + 22u);
  EXPECT_EQ(spec.threads, 2u);
  EXPECT_DOUBLE_EQ(spec.params.getDouble("gamma", 0.0), 2.0);
  spec.validate();

  const RunSpec reparsed = RunSpec::parse(spec.toText());
  EXPECT_EQ(reparsed.toText(), spec.toText());
  EXPECT_EQ(reparsed.scenario, spec.scenario);
  EXPECT_EQ(reparsed.params.entries(), spec.params.entries());
}

TEST(SimRunSpec, JsonSpecIsEquivalent) {
  const RunSpec kv = RunSpec::parse("scenario=compression n=30 steps=100");
  const RunSpec json = RunSpec::parse(
      R"({"scenario": "compression", "n": 30, "steps": 100})");
  EXPECT_EQ(json.toText(), kv.toText());
}

TEST(SimRunSpec, RejectsBadReservedValues) {
  EXPECT_THROW((void)RunSpec::parse("steps=10"),
               ContractViolation);  // no scenario
  EXPECT_THROW((void)RunSpec::parse("scenario=compression shape=cube"),
               ContractViolation);
  EXPECT_THROW((void)RunSpec::parse("scenario=compression n=0"),
               ContractViolation);
  EXPECT_THROW((void)RunSpec::parse("scenario=compression replicas=0"),
               ContractViolation);
  EXPECT_THROW((void)RunSpec::parse("scenario=compression steps=-5"),
               ContractViolation);
  EXPECT_THROW((void)RunSpec::parse("scenario=compression n=ten"),
               ContractViolation);
  // threads: sign errors and typo'd huge counts (spawned as asked, not
  // clamped to cores) are rejected; the documented cap is 1024.
  EXPECT_THROW((void)RunSpec::parse("scenario=compression threads=-1"),
               ContractViolation);
  EXPECT_THROW((void)RunSpec::parse("scenario=compression threads=4096"),
               ContractViolation);
  EXPECT_EQ(RunSpec::parse("scenario=compression threads=1024").threads,
            1024u);
  // Programmatically built specs skip parse-time checks; validate() (the
  // gate sim::run trusts) must enforce the same invariants.
  RunSpec programmatic = RunSpec::parse("scenario=compression");
  programmatic.threads = 100000;
  EXPECT_THROW(programmatic.validate(), ContractViolation);
  programmatic.threads = 2;
  programmatic.replicas = 0;
  EXPECT_THROW(programmatic.validate(), ContractViolation);
}

TEST(SimRunSpec, ValidateRejectsUnknownScenarioParams) {
  const RunSpec spec = RunSpec::parse("scenario=compression omega=3");
  EXPECT_THROW(spec.validate(), ContractViolation);
  const RunSpec badType = RunSpec::parse("scenario=compression lambda=hot");
  EXPECT_THROW(badType.validate(), ContractViolation);
}

TEST(SimRunSpec, MakeInitialBuildsDeclaredShapes) {
  RunSpec spec = RunSpec::parse("scenario=compression n=30 shape=line");
  EXPECT_EQ(spec.makeInitial(1).size(), 30u);
  spec.shape = "spiral";
  EXPECT_EQ(spec.makeInitial(1).size(), 30u);
  spec.shape = "ring";
  spec.n = 3;
  EXPECT_EQ(spec.makeInitial(1).size(), 18u);  // 6 * radius particles
  spec.shape = "random";
  spec.n = 25;
  const auto a = spec.makeInitial(7);
  const auto b = spec.makeInitial(7);
  const auto c = spec.makeInitial(8);
  EXPECT_EQ(a.size(), 25u);
  EXPECT_TRUE(a.sameArrangement(b));  // same shape seed → same start
  EXPECT_TRUE(system::isConnected(c));
}

// -- 3. registry ------------------------------------------------------------

TEST(SimRegistry, BuiltinsAreRegisteredWithSchemas) {
  Registry& registry = Registry::instance();
  for (const char* name :
       {"compression", "separation", "alignment", "amoebot"}) {
    const Scenario* scenario = registry.find(name);
    ASSERT_NE(scenario, nullptr) << name;
    EXPECT_EQ(scenario->name(), name);
    EXPECT_FALSE(scenario->schema().params().empty());
    EXPECT_FALSE(scenario->metricNames().empty());
    EXPECT_NE(scenario->schema().find("lambda"), nullptr);
  }
  EXPECT_GE(registry.all().size(), 4u);
}

TEST(SimRegistry, UnknownScenarioThrowsWithKnownNames) {
  try {
    (void)Registry::instance().get("teleportation");
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("teleportation"), std::string::npos);
    EXPECT_NE(what.find("compression"), std::string::npos);
    EXPECT_NE(what.find("separation"), std::string::npos);
  }
  EXPECT_EQ(Registry::instance().find("teleportation"), nullptr);
}

// -- 4. observers -----------------------------------------------------------

TEST(SimObserver, SamplesMatchIndependentMetricsRecomputation) {
  const RunSpec spec = RunSpec::parse(
      "scenario=compression n=40 steps=20000 checkpoint=5000 seed=77");
  MemorySink sink;
  (void)run(spec, sink);

  // Replay the identical trajectory directly and recompute every sampled
  // metric from system/metrics at the same checkpoints.
  core::ChainOptions options;  // facade default lambda=4.0
  core::CompressionEngine engine(system::lineConfiguration(40),
                                 core::CompressionModel(options), 77);
  const auto& samples = sink.samples();
  ASSERT_EQ(samples.size(), 5u);  // iteration 0 + 4 checkpoints
  const double pMin = static_cast<double>(system::pMin(40));
  for (const MemorySink::StoredSample& sample : samples) {
    engine.run(sample.iteration - engine.stats().steps);
    ASSERT_EQ(sample.values.size(), 5u);
    EXPECT_EQ(sample.values[0], static_cast<double>(engine.edges()));
    const auto perimeter =
        static_cast<double>(system::perimeter(engine.system()));
    EXPECT_EQ(sample.values[1], perimeter);
    EXPECT_EQ(sample.values[2], perimeter / pMin);
    EXPECT_EQ(sample.values[3], engine.stats().movement.acceptanceRate());
    EXPECT_EQ(sample.values[4],
              static_cast<double>(system::countHoles(engine.system())));
    EXPECT_EQ(engine.edges(), system::countEdges(engine.system()));
  }
}

TEST(SimObserver, CsvSinkWritesHeaderAndOneRowPerSample) {
  const std::string path = ::testing::TempDir() + "sim_api_csv_sink.csv";
  const RunSpec spec = RunSpec::parse(
      "scenario=separation n=24 steps=4000 checkpoint=1000 replicas=2 "
      "csv=" + path);
  MemorySink sink;
  (void)run(spec, sink);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "replica,iteration,edges,perimeter,alpha,hom_fraction");
  std::size_t rows = 0;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, sink.samples().size());
  EXPECT_EQ(rows, 2u * 5u);  // 2 replicas × (iteration 0 + 4 checkpoints)
  std::remove(path.c_str());
}

TEST(SimObserver, MemorySinkReplayPreservesEveryEvent) {
  const RunSpec spec = RunSpec::parse(
      "scenario=compression n=20 steps=2000 checkpoint=1000 snapshots=true");
  MemorySink original;
  (void)run(spec, original);
  ASSERT_FALSE(original.samples().empty());
  ASSERT_FALSE(original.snapshots().empty());
  ASSERT_EQ(original.summaries().size(), 1u);

  MemorySink copy;
  original.replayInto(copy, /*withRunBoundaries=*/true);
  ASSERT_EQ(copy.samples().size(), original.samples().size());
  for (std::size_t i = 0; i < copy.samples().size(); ++i) {
    EXPECT_EQ(copy.samples()[i].iteration, original.samples()[i].iteration);
    EXPECT_EQ(copy.samples()[i].values, original.samples()[i].values);
  }
  ASSERT_EQ(copy.snapshots().size(), original.snapshots().size());
  for (std::size_t i = 0; i < copy.snapshots().size(); ++i) {
    EXPECT_TRUE(copy.snapshots()[i].system.sameArrangement(
        original.snapshots()[i].system));
  }
  EXPECT_TRUE(copy.summaries()[0].system.sameArrangement(
      original.summaries()[0].system));
  EXPECT_EQ(copy.summaries()[0].summary.finalMetrics,
            original.summaries()[0].summary.finalMetrics);
}

/// A scenario that declares one set of metric columns but emits whatever
/// it was constructed with — the deliberately lying scenario behind the
/// JSONL sink's regression tests.  Registered once per process under its
/// given unique name.
class FixedMetricsScenario : public Scenario {
 public:
  FixedMetricsScenario(std::string name, std::vector<std::string> declared,
                       std::vector<double> emitted)
      : name_(std::move(name)), declared_(std::move(declared)),
        emitted_(std::move(emitted)) {}

  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] std::string description() const override {
    return "test scenario with fixed metric emissions";
  }
  [[nodiscard]] ParamSchema schema() const override { return {}; }
  [[nodiscard]] std::vector<std::string> metricNames() const override {
    return declared_;
  }
  [[nodiscard]] std::unique_ptr<ScenarioRun> start(
      const RunSpec&, std::uint64_t, unsigned) const override {
    class Run : public ScenarioRun {
     public:
      explicit Run(std::vector<double> emitted)
          : emitted_(std::move(emitted)) {}
      void advance(std::uint64_t steps) override { done_ += steps; }
      [[nodiscard]] std::uint64_t stepsDone() const override { return done_; }
      void sampleMetrics(std::vector<double>& out) const override {
        out.insert(out.end(), emitted_.begin(), emitted_.end());
      }
      [[nodiscard]] system::ParticleSystem snapshot() const override {
        return system::lineConfiguration(1);
      }

     private:
      std::vector<double> emitted_;
      std::uint64_t done_ = 0;
    };
    return std::make_unique<Run>(emitted_);
  }

 private:
  std::string name_;
  std::vector<std::string> declared_;
  std::vector<double> emitted_;
};

void registerOnce(std::unique_ptr<Scenario> scenario) {
  if (Registry::instance().find(scenario->name()) == nullptr) {
    Registry::instance().add(std::move(scenario));
  }
}

/// A scenario whose one metric is its step count, counting every
/// sampleMetrics() call in a process-wide counter; snapshots carry the
/// step count, so it resumes.
std::atomic<int> gCountingSamples{0};

class CountingScenario : public Scenario {
 public:
  [[nodiscard]] std::string name() const override { return "test-counting"; }
  [[nodiscard]] std::string description() const override {
    return "test scenario that counts its metric samples";
  }
  [[nodiscard]] ParamSchema schema() const override { return {}; }
  [[nodiscard]] std::vector<std::string> metricNames() const override {
    return {"steps"};
  }
  [[nodiscard]] std::unique_ptr<ScenarioRun> start(
      const RunSpec&, std::uint64_t, unsigned) const override {
    class Run : public ScenarioRun {
     public:
      void advance(std::uint64_t steps) override { done_ += steps; }
      [[nodiscard]] std::uint64_t stepsDone() const override { return done_; }
      void sampleMetrics(std::vector<double>& out) const override {
        ++gCountingSamples;
        out.push_back(static_cast<double>(done_));
      }
      [[nodiscard]] system::ParticleSystem snapshot() const override {
        return system::lineConfiguration(1);
      }
      [[nodiscard]] bool supportsSnapshots() const override { return true; }
      void saveState(system::SnapshotWriter& w) const override { w.u64(done_); }
      void restoreState(system::SnapshotReader& r) override { done_ = r.u64(); }

     private:
      std::uint64_t done_ = 0;
    };
    return std::make_unique<Run>();
  }
};

/// Records every sample row; trips `cancel` after the row at `cancelAt`.
class RowRecorder : public Observer {
 public:
  explicit RowRecorder(core::CancelToken* cancel = nullptr,
                       std::uint64_t cancelAt = 0)
      : cancel_(cancel), cancelAt_(cancelAt) {}
  void onSample(const Sample& sample) override {
    rows.emplace_back(sample.values.begin(), sample.values.end());
    if (cancel_ != nullptr && sample.iteration == cancelAt_) {
      cancel_->requestCancel();
    }
  }
  std::vector<std::vector<double>> rows;

 private:
  core::CancelToken* cancel_;
  std::uint64_t cancelAt_;
};

TEST(SimRunner, FinalMetricsReuseTheLastSampleRow) {
  // The replica's final metrics are the last sample row — the state has
  // not changed since — so the sampler runs once per checkpoint plus the
  // iteration-0 row, whichever way the replica ends.
  registerOnce(std::make_unique<CountingScenario>());
  const auto expectRows = [](const RunReport& report, const RowRecorder& rec,
                             std::size_t samples, const char* what) {
    EXPECT_EQ(gCountingSamples.load(), static_cast<int>(samples)) << what;
    ASSERT_EQ(rec.rows.size(), samples) << what;
    EXPECT_EQ(report.replicas.at(0).finalMetrics, rec.rows.back()) << what;
  };
  const RunSpec spec =
      RunSpec::parse("scenario=test-counting steps=100 checkpoint=25");
  {  // Normal end: rows at 0, 25, 50, 75, 100.
    gCountingSamples = 0;
    RowRecorder rec;
    const RunReport report = run(spec, rec);
    expectRows(report, rec, 5, "normal end");
    EXPECT_EQ(report.finalMetric(0, "steps"), 100.0);
  }
  {  // StopWhen after the row at 50.
    gCountingSamples = 0;
    RowRecorder rec;
    const RunReport report = run(
        spec, rec, [](const Sample& sample) { return sample.values[0] >= 50; });
    expectRows(report, rec, 3, "StopWhen");
    EXPECT_EQ(report.finalMetric(0, "steps"), 50.0);
  }
  {  // Cancelled after the row at 25: the loop top sees the token.
    gCountingSamples = 0;
    core::CancelToken cancel;
    RowRecorder rec(&cancel, 25);
    const RunReport report = run(spec, rec, nullptr, &cancel);
    expectRows(report, rec, 2, "cancel at the loop top");
    EXPECT_EQ(report.finalMetric(0, "steps"), 25.0);
  }
  {  // Resumed at the last step: only the restored checkpoint's row.
    const std::string snap = ::testing::TempDir() + "counting_final.snap";
    RunSpec finished = spec;
    finished.snapshotPath = snap;
    RowRecorder first;
    (void)run(finished, first);
    gCountingSamples = 0;
    RunSpec resumed = spec;
    resumed.resumePath = snap;
    RowRecorder rec;
    const RunReport report = run(resumed, rec);
    expectRows(report, rec, 1, "resume at the last step");
    EXPECT_EQ(report.finalMetric(0, "steps"), 100.0);
    std::remove(snap.c_str());
    std::remove((snap + ".prev").c_str());
  }
}

TEST(SimObserver, JsonlSinkRejectsMetricCountMismatch) {
  // src/sim/observer.cpp once indexed metricNames_[i] for every emitted
  // value with no bounds guard: a sample wider than the declared metric
  // row walked off the vector.  The sink-level guard must hold for
  // direct users too (sim::run additionally rejects lying scenarios
  // before any sink sees them — SimRunner.RunnerRejectsLyingScenario).
  const std::string path = ::testing::TempDir() + "lying_sink.jsonl";
  JsonlSink sink(path);
  RunHeader header;
  header.metricNames = {"m"};
  sink.onRunBegin(header);
  const std::vector<double> tooWide = {1.0, 2.0};
  EXPECT_THROW(sink.onSample(Sample{0, 0, tooWide}), ContractViolation);
  std::remove(path.c_str());
}

TEST(SimRunner, RunnerRejectsLyingScenario) {
  // The runner enforces the declared metric count once for every
  // consumer (sinks, StopWhen, reports): a scenario emitting more values
  // than its metricNames() declares is a scenario bug and fails loudly
  // even with no sink attached.
  registerOnce(std::make_unique<FixedMetricsScenario>(
      "test-lying-metrics", std::vector<std::string>{"m"},
      std::vector<double>{1.0, 2.0}));
  const RunSpec spec = RunSpec::parse("scenario=test-lying-metrics steps=1");
  Observer none;
  EXPECT_THROW((void)run(spec, none), ContractViolation);
}

TEST(SimObserver, JsonlSinkEmitsNullForNonFiniteMetrics) {
  // nan/inf are not JSON: a non-finite metric value must land as null so
  // every emitted line stays loadable by a strict parser.
  registerOnce(std::make_unique<FixedMetricsScenario>(
      "test-nonfinite-metrics", std::vector<std::string>{"good", "bad", "inf"},
      std::vector<double>{1.5, std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity()}));
  RunSpec spec = RunSpec::parse("scenario=test-nonfinite-metrics steps=1");
  const std::string path = ::testing::TempDir() + "nonfinite_metrics.jsonl";
  spec.jsonlPath = path;
  Observer none;
  (void)run(spec, none);
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string contents = buffer.str();
  std::remove(path.c_str());
  EXPECT_NE(contents.find("\"good\":1.5"), std::string::npos) << contents;
  EXPECT_NE(contents.find("\"bad\":null"), std::string::npos) << contents;
  EXPECT_NE(contents.find("\"inf\":null"), std::string::npos) << contents;
  EXPECT_EQ(contents.find("nan"), std::string::npos) << contents;
  EXPECT_EQ(contents.find(":inf"), std::string::npos) << contents;
}

// -- 5. facade ↔ direct-engine golden identity ------------------------------

TEST(SimGolden, CompressionFacadeMatchesDirectEngine) {
  const RunSpec spec = RunSpec::parse(
      "scenario=compression n=60 steps=150000 seed=1603 lambda=4.0");
  MemorySink sink;
  const RunReport report = run(spec, sink);

  core::ChainOptions options;
  options.lambda = 4.0;
  core::CompressionEngine direct(system::lineConfiguration(60),
                                 core::CompressionModel(options), 1603);
  direct.run(150000);
  ASSERT_EQ(sink.summaries().size(), 1u);
  EXPECT_TRUE(
      sink.summaries()[0].system.sameArrangement(direct.system()));
  EXPECT_EQ(report.finalMetric(0, "edges"),
            static_cast<double>(direct.edges()));
  EXPECT_EQ(report.finalMetric(0, "acceptance"),
            direct.stats().movement.acceptanceRate());
  EXPECT_EQ(report.replicas[0].steps, 150000u);
}

TEST(SimGolden, SeparationFacadeMatchesDirectEngine) {
  const RunSpec spec = RunSpec::parse(
      "scenario=separation n=40 steps=150000 seed=7 lambda=4.0 gamma=4.0");
  MemorySink sink;
  const RunReport report = run(spec, sink);

  core::SeparationModel::Options options;  // lambda = gamma = 4.0
  core::SeparationEngine direct(
      system::lineConfiguration(40),
      core::SeparationModel(options, system::alternatingClasses(40, 2)), 7);
  direct.run(150000);
  EXPECT_TRUE(
      sink.summaries()[0].system.sameArrangement(direct.system()));
  EXPECT_EQ(report.finalMetric(0, "edges"),
            static_cast<double>(direct.edges()));
  EXPECT_EQ(
      report.finalMetric(0, "hom_fraction"),
      static_cast<double>(direct.model().homogeneousEdges(direct.system())) /
          static_cast<double>(system::countEdges(direct.system())));
}

TEST(SimGolden, AlignmentFacadeMatchesDirectEngine) {
  const RunSpec spec = RunSpec::parse(
      "scenario=alignment n=40 steps=150000 seed=11 kappa=6.0");
  MemorySink sink;
  const RunReport report = run(spec, sink);

  core::AlignmentModel::Options options;
  options.kappa = 6.0;
  core::AlignmentEngine direct(
      system::lineConfiguration(40),
      core::AlignmentModel(options, system::alternatingClasses(40, 6)), 11);
  direct.run(150000);
  EXPECT_TRUE(
      sink.summaries()[0].system.sameArrangement(direct.system()));
  EXPECT_EQ(
      report.finalMetric(0, "aligned_fraction"),
      static_cast<double>(direct.model().alignedEdges(direct.system())) /
          static_cast<double>(system::countEdges(direct.system())));
}

TEST(SimGolden, ReplicaSeedsMatchDirectEngineRuns) {
  const RunSpec spec = RunSpec::parse(
      "scenario=compression n=30 steps=40000 seed=100 seed-stride=13 "
      "replicas=3 threads=2");
  const RunReport report = run(spec);
  ASSERT_EQ(report.replicas.size(), 3u);
  for (std::size_t r = 0; r < 3; ++r) {
    core::ChainOptions options;
    core::CompressionEngine direct(system::lineConfiguration(30),
                                   core::CompressionModel(options),
                                   100 + 13 * r);
    direct.run(40000);
    EXPECT_EQ(report.replicas[r].seed, 100u + 13u * r);
    EXPECT_EQ(report.finalMetric(r, "edges"),
              static_cast<double>(direct.edges()));
  }
}

// -- 6. runner dispatch ------------------------------------------------------

TEST(SimRunner, MultiReplicaRunsAreThreadCountIndependent) {
  for (const char* text :
       {"scenario=separation n=30 steps=30000 checkpoint=10000 replicas=4 "
        "gamma=2.0 seed=5",
        "scenario=alignment n=24 steps=30000 checkpoint=10000 replicas=4 "
        "kappa=4.0 seed=17"}) {
    SCOPED_TRACE(text);
    RunSpec one = RunSpec::parse(text);
    one.threads = 1;
    RunSpec four = RunSpec::parse(text);
    four.threads = 4;
    MemorySink sinkOne;
    MemorySink sinkFour;
    const RunReport a = run(one, sinkOne);
    const RunReport b = run(four, sinkFour);
    ASSERT_EQ(sinkOne.samples().size(), sinkFour.samples().size());
    for (std::size_t i = 0; i < sinkOne.samples().size(); ++i) {
      EXPECT_EQ(sinkOne.samples()[i].replica, sinkFour.samples()[i].replica);
      EXPECT_EQ(sinkOne.samples()[i].iteration,
                sinkFour.samples()[i].iteration);
      EXPECT_EQ(sinkOne.samples()[i].values, sinkFour.samples()[i].values);
    }
    // One summary per replica, replayed in replica order with its seed.
    ASSERT_EQ(sinkFour.summaries().size(), 4u);
    ASSERT_EQ(a.replicas.size(), 4u);
    for (std::size_t r = 0; r < a.replicas.size(); ++r) {
      EXPECT_EQ(sinkFour.summaries()[r].summary.replica, r);
      EXPECT_EQ(b.replicas[r].seed, four.replicaSeed(r));
      EXPECT_EQ(a.replicas[r].finalMetrics, b.replicas[r].finalMetrics);
    }
  }
}

TEST(SimRunner, ReplicaErrorPropagatesFromWorkers) {
  // A replica failing on a worker thread must surface on the caller, and
  // only after the pool has joined: every other replica a worker had
  // already claimed runs to its last step before run() throws.
  RunSpec spec = RunSpec::parse(
      "scenario=compression n=20 steps=20000 checkpoint=5000 replicas=4 "
      "seed=3");
  spec.threads = 2;
  std::array<std::atomic<std::uint64_t>, 4> lastIteration{};
  std::array<std::atomic<bool>, 4> started{};
  Observer none;
  const StopWhen failOnReplicaTwo = [&](const Sample& sample) {
    if (sample.replica == 2) throw ContractViolation("replica 2 failed");
    started[sample.replica].store(true);
    lastIteration[sample.replica].store(sample.iteration);
    return false;
  };
  try {
    (void)run(spec, none, failOnReplicaTwo);
    ADD_FAILURE() << "the worker's error was swallowed";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("replica 2 failed"),
              std::string::npos)
        << e.what();
  }
  // Replicas 0 and 1 are claimed before replica 2 can be.
  EXPECT_TRUE(started[0].load());
  EXPECT_TRUE(started[1].load());
  for (std::size_t r = 0; r < 4; ++r) {
    if (r == 2 || !started[r].load()) continue;
    EXPECT_EQ(lastIteration[r].load(), 20000u) << "replica " << r;
  }
}

TEST(SimRunner, AmoebotFacadeIsThreadCountIndependentAndRuns) {
  const char* text = "scenario=amoebot n=40 steps=60000 seed=3";
  RunSpec one = RunSpec::parse(text);
  one.threads = 1;
  RunSpec three = RunSpec::parse(text);
  three.threads = 3;
  MemorySink sinkOne;
  MemorySink sinkThree;
  const RunReport a = run(one, sinkOne);
  const RunReport b = run(three, sinkThree);
  EXPECT_GE(a.replicas[0].steps, 60000u);
  EXPECT_EQ(a.replicas[0].steps, b.replicas[0].steps);
  EXPECT_EQ(a.replicas[0].finalMetrics[0], b.replicas[0].finalMetrics[0]);
  EXPECT_TRUE(sinkOne.summaries()[0].system.sameArrangement(
      sinkThree.summaries()[0].system));
  EXPECT_TRUE(system::isConnected(sinkOne.summaries()[0].system));
}

TEST(SimRunner, ChainFacadeShardedIsThreadCountIndependent) {
  // threads > 1 on a single-replica chain spec routes through
  // core::ShardedChainRunner; its trajectory is a pure function of the
  // seed, so any two thread counts > 1 must produce identical sample
  // streams and final configurations.  (threads ≤ 1 stays on the
  // sequential engine — pinned draw-for-draw by the SimGolden tests.)
  const char* text =
      "scenario=separation n=100 steps=40000 checkpoint=20000 seed=11 "
      "gamma=2.0";
  RunSpec two = RunSpec::parse(text);
  two.threads = 2;
  RunSpec seven = RunSpec::parse(text);
  seven.threads = 7;
  MemorySink sinkTwo;
  MemorySink sinkSeven;
  const RunReport a = run(two, sinkTwo);
  const RunReport b = run(seven, sinkSeven);
  EXPECT_GE(a.replicas[0].steps, 40000u);  // epochs round the step count up
  EXPECT_EQ(a.replicas[0].steps, b.replicas[0].steps);
  EXPECT_EQ(a.replicas[0].finalMetrics, b.replicas[0].finalMetrics);
  ASSERT_EQ(sinkTwo.samples().size(), sinkSeven.samples().size());
  for (std::size_t i = 0; i < sinkTwo.samples().size(); ++i) {
    EXPECT_EQ(sinkTwo.samples()[i].iteration, sinkSeven.samples()[i].iteration);
    EXPECT_EQ(sinkTwo.samples()[i].values, sinkSeven.samples()[i].values);
  }
  EXPECT_TRUE(sinkTwo.summaries()[0].system.sameArrangement(
      sinkSeven.summaries()[0].system));
  EXPECT_TRUE(system::isConnected(sinkTwo.summaries()[0].system));
}

TEST(SimRunner, ObserversSeeTheFinalConfiguration) {
  // The final summary borrows a chain run's live system (and the snapshots
  // stream borrows it at every checkpoint); the amoebot run hands out its
  // tail configuration.  Each must be the configuration a direct run of the
  // same seed ends in, and the last snapshot the summary's.
  const auto finalOf = [](const std::string& text) {
    RunSpec spec = RunSpec::parse(text);
    spec.snapshots = true;
    MemorySink sink;
    (void)run(spec, sink);
    EXPECT_EQ(sink.summaries().size(), 1u);
    EXPECT_TRUE(sink.summaries()[0].hasSystem);
    EXPECT_EQ(sink.summaries()[0].summary.finalSystem,
              &sink.summaries()[0].system);
    EXPECT_TRUE(sink.snapshots().back().system.sameArrangement(
        sink.summaries()[0].system));
    return sink.summaries()[0].system;
  };
  core::ChainOptions options;
  {
    core::CompressionEngine direct(system::lineConfiguration(60),
                                   core::CompressionModel(options), 1607);
    direct.run(90000);
    EXPECT_TRUE(finalOf("scenario=compression n=60 steps=90000 "
                        "checkpoint=30000 seed=1607")
                    .sameArrangement(direct.system()));
  }
  {
    core::ShardedChainOptions sharded;
    sharded.threads = 2;
    core::ShardedChainRunner<core::CompressionModel> direct(
        system::lineConfiguration(80), core::CompressionModel(options), 1609,
        sharded);
    direct.runAtLeast(64000);
    EXPECT_TRUE(finalOf("scenario=compression n=80 steps=64000 seed=1609 "
                        "threads=2")
                    .sameArrangement(direct.system()));
  }
  {
    rng::Random ctor(1613);
    amoebot::AmoebotSystem sys(system::lineConfiguration(50), ctor);
    const amoebot::LocalCompressionAlgorithm algo({4.0});
    amoebot::ShardedOptions sharded;
    sharded.threads = 2;
    amoebot::ShardedPoissonRunner direct(sys, algo, 1613 + 2, sharded);
    direct.runAtLeast(50000);
    EXPECT_TRUE(finalOf("scenario=amoebot n=50 steps=50000 seed=1613 "
                        "threads=2")
                    .sameArrangement(sys.tailConfiguration()));
  }
}

TEST(SimRunner, StopWhenSharedAcrossWorkers) {
  // The documented StopWhen contract (sim/runner.hpp): ONE predicate,
  // invoked concurrently and unsynchronized from every ensemble worker.
  // Synchronized captured state (an atomic) is the supported shape for
  // anything beyond a pure function of the sample; this test runs under
  // TSan in CI (suite SimRunner is in the tsan filter), so an
  // unsynchronized-capture regression in the runner itself would be a
  // reported race, not silent corruption.
  RunSpec spec = RunSpec::parse(
      "scenario=compression n=20 steps=40000 checkpoint=5000 replicas=6 "
      "seed=2");
  spec.threads = 3;
  std::atomic<std::uint64_t> calls{0};
  Observer none;
  const RunReport report =
      run(spec, none, [&calls](const Sample& sample) {
        calls.fetch_add(1, std::memory_order_relaxed);
        return sample.iteration >= 20000;  // pure per-replica decision
      });
  ASSERT_EQ(report.replicas.size(), 6u);
  for (const ReplicaSummary& replica : report.replicas) {
    EXPECT_EQ(replica.steps, 20000u);  // each replica stopped independently
  }
  // Samples at 0, 5k, 10k, 15k, 20k per replica — all of them observed.
  EXPECT_EQ(calls.load(), 6u * 5u);
}

TEST(SimRunner, RejectsEpochEventsBeyondMemoryCap) {
  // The sharded runners materialize one epoch's event list in memory, so
  // a steps-sized value mis-keyed into epoch-events must be rejected
  // before any allocation happens (the 2^28 cap).
  const RunSpec spec = RunSpec::parse(
      "scenario=compression n=30 steps=10 threads=2 "
      "epoch-events=10000000000");
  Observer none;
  EXPECT_THROW((void)run(spec, none), ContractViolation);
}

TEST(SimRunner, ChainSpecRejectsEpochAdaptive) {
  // epoch-adaptive tuned the Poisson-clock runners' epochs.  Both sharded
  // runners now run proposal lists of a fixed length, so a spec of any
  // scenario that sets the key fails as an unknown key.
  Observer none;
  for (const char* scenario :
       {"compression", "separation", "alignment", "amoebot"}) {
    const RunSpec spec = RunSpec::parse(
        std::string("scenario=") + scenario +
        " n=30 steps=10 threads=2 epoch-adaptive=false");
    try {
      (void)run(spec, none);
      ADD_FAILURE() << scenario << ": epoch-adaptive was accepted";
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find("epoch-adaptive"),
                std::string::npos)
          << scenario << ": " << e.what();
    }
  }
}

TEST(SimRunner, StopWhenEndsReplicasEarly) {
  const RunSpec spec = RunSpec::parse(
      "scenario=compression n=30 steps=10000000 checkpoint=10000 seed=1603");
  Observer none;
  // alpha is column 2 of the compression metrics.
  const RunReport report =
      run(spec, none,
          [](const Sample& sample) { return sample.values[2] <= 2.0; });
  EXPECT_LT(report.replicas[0].steps, 10000000u);
  EXPECT_LE(report.finalMetric(0, "alpha"), 2.0);
}

}  // namespace
}  // namespace sops::sim

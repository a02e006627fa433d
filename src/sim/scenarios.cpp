/// \file scenarios.cpp
/// The four built-in scenarios behind sim::Registry.
///
/// Each chain scenario constructs its core::BiasedChainEngine exactly as
/// the direct call sites do — same initial system, same model options,
/// same seed, and advance() runs the engine (engine.run(), or
/// runWithCheckpoints() in bursts under a cancel token, the same
/// trajectory) — so a facade run is draw-for-draw identical to the
/// pre-facade code path (pinned by tests/sim_api_test.cpp against direct
/// engine runs).  The amoebot scenario drives Algorithm A through
/// amoebot::ShardedPoissonRunner, on the same block executor, whose
/// trajectory is a pure function of the seed for every thread count.
///
/// Thread budget (the workerThreads argument of Scenario::start): chain
/// scenarios run the sequential engine at threads ≤ 1 — preserving the
/// historical draw-for-draw trajectory, and the shape multi-replica runs
/// always use — and switch to core::ShardedChainRunner at threads > 1, the
/// exact block-parallel executor whose trajectory is a pure function of
/// the seed (identical for every thread count > 1, but *not* draw-for-draw
/// the sequential engine's: proposals come from counter-based lists and
/// block-boundary proposals are rejected; π is the same, checked exactly
/// in tests/sharded_chain_test.cpp).  For compression with uniform
/// selection the runner routes compressed-regime epochs (by
/// core::kRejectionFreeAcceptDivisor; core/epoch_router.hpp) through the
/// rejection-free kernel (core::RejectionFreeSampler, its blocks on the
/// runner's workers), which samples the block epoch's exact law, in spans
/// of core::kRejectionFreeSpan epochs; the replica record's
/// rejection_free_epochs counts their epochs.  The amoebot
/// scenario, whose runner is sharded at every count (so its snapshots
/// resume at any count, threads = 1 included), spends the whole budget
/// (0 = all cores); without rate-spread its runner routes the same way
/// (by amoebot::kAmoebotRejectionFreeDivisor) through the same sampler
/// under Algorithm A's block rule, and the replica record carries its
/// rejection_free_epochs and activation outcome counts (idle, expanded,
/// moved_to_head, contracted_back).
///
/// Adding a workload = one weight model (core/scenario_models.hpp style)
/// plus one Scenario subclass here (or anywhere, via ScenarioRegistrar).

#include <cmath>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "amoebot/amoebot_system.hpp"
#include "amoebot/faults.hpp"
#include "amoebot/local_compression.hpp"
#include "amoebot/parallel_scheduler.hpp"
#include "core/scenario_models.hpp"
#include "core/sharded_chain_runner.hpp"
#include "sim/registry.hpp"
#include "sim/run_spec.hpp"
#include "system/metrics.hpp"
#include "system/shapes.hpp"
#include "util/assert.hpp"

namespace sops::sim {
namespace {

/// α = p(σ)/p_min(n) (Definition 2.2) of a perimeter already computed.
[[nodiscard]] double alphaOf(std::int64_t perimeter, std::size_t n) {
  return static_cast<double>(perimeter) /
         static_cast<double>(system::pMin(static_cast<std::int64_t>(n)));
}

/// Appends the perimeter and α columns, computing p(σ) once, word-parallel
/// off the occupancy grid.
void pushPerimeterAndAlpha(const system::ParticleSystem& sys,
                           std::vector<double>& out) {
  const std::int64_t perimeter =
      system::perimeter(system::planeShape(sys.grid()));
  out.push_back(static_cast<double>(perimeter));
  out.push_back(alphaOf(perimeter, sys.size()));
}

/// Shared movement-chain knobs (the paper's ChainOptions, including the
/// ablation switches bench_ablation exercises).
void addChainKeys(ParamSchema& schema) {
  schema.add("lambda", ParamType::Double, "4.0",
             "compression bias on edges");
  schema.add("greedy", ParamType::Bool, "false",
             "zero-temperature filter (accept iff e' >= e)");
  schema.add("gap", ParamType::Bool, "true", "enforce condition (1), e != 5");
  schema.add("properties", ParamType::Bool, "true",
             "enforce condition (2), Property 1 or 2");
  schema.add("property2", ParamType::Bool, "true",
             "allow Property 2 moves (Fig 3 ablation)");
}

/// The block runners' knobs (the chain scenarios consult them only when
/// threads > 1 routes the run through core::ShardedChainRunner).
void addShardedKeys(ParamSchema& schema) {
  schema.add("epoch-events", ParamType::Int, "0",
             "sharded runner: fixed proposals (activations) per epoch; 0 "
             "derives min(max(2n,1024),2^28); rejection-free epochs run in "
             "spans of 4 (fewer past 2^28 proposals), and checkpoints round "
             "up to whole epochs and spans");
  schema.add("rate-spread", ParamType::Double, "0.0",
             "sharded runner: selection weights (amoebot: Poisson rates) — "
             "particle i gets weight 1 + spread*i/(n-1); 0 keeps the "
             "uniform chain");
}

[[nodiscard]] double rateSpreadFrom(const ParamMap& params) {
  const double spread = params.getDouble("rate-spread", 0.0);
  SOPS_REQUIRE(std::isfinite(spread) && spread >= 0.0,
               "rate-spread must be finite and non-negative");
  return spread;
}

/// Deterministic heterogeneous-rate ramp: particle i gets weight (chain:
/// selection weight; amoebot: Poisson rate) 1 + spread·i/(n−1).  The
/// stationary distribution is unchanged (each move's reverse is proposed
/// by the same particle — see the sharded runner headers); only selection
/// frequencies shift.  spread = 0 returns the empty vector, i.e. the
/// bit-identical uniform default.
[[nodiscard]] std::vector<double> rampRates(double spread, std::size_t n) {
  if (spread == 0.0) return {};
  std::vector<double> rates(n);
  const double denom = n > 1 ? static_cast<double>(n - 1) : 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    rates[i] = 1.0 + spread * (static_cast<double>(i) / denom);
  }
  return rates;
}

[[nodiscard]] std::uint64_t epochEventsFrom(const ParamMap& params) {
  const std::int64_t epochEvents = params.getInt("epoch-events", 0);
  SOPS_REQUIRE(epochEvents >= 0, "epoch-events must be non-negative");
  // The runners materialize one epoch's whole event list in memory
  // (8–16 bytes/event), so a steps-sized value landing in this key (1e9+)
  // would OOM before a single event runs — the same typo class the
  // threads cap rejects.  2^28 ≈ 2.7e8 is above any in-memory epoch that
  // makes sense (the 0 default derives 2n) and below typo'd step counts.
  SOPS_REQUIRE(epochEvents <= (std::int64_t{1} << 28),
               "epoch-events must be at most 2^28");
  return static_cast<std::uint64_t>(epochEvents);
}

[[nodiscard]] core::ChainOptions chainOptionsFrom(const ParamMap& params) {
  core::ChainOptions options;
  options.lambda = params.getDouble("lambda", options.lambda);
  options.greedy = params.getBool("greedy", options.greedy);
  options.enforceGapCondition =
      params.getBool("gap", options.enforceGapCondition);
  options.enforceProperties =
      params.getBool("properties", options.enforceProperties);
  options.allowProperty2 =
      params.getBool("property2", options.allowProperty2);
  return options;
}

/// One replica of any weight-model engine: advance() runs the engine (see
/// the file comment), and a per-scenario sampler maps the engine onto the
/// declared metrics.
template <typename Model>
  requires core::ChainWeightModel<Model>
class EngineRun : public ScenarioRun {
 public:
  using Engine = core::BiasedChainEngine<Model>;
  using Sampler = void (*)(const Engine&, std::vector<double>&);

  EngineRun(Engine engine, Sampler sampler)
      : engine_(std::move(engine)), sampler_(sampler) {}

  void advance(std::uint64_t steps) override {
    if (cancel_ == nullptr) {
      engine_.run(steps);
      return;
    }
    // Sub-bursting the sequential chain is draw-for-draw identical to one
    // run() call, so a deadline/cancel interruption leaves exactly the
    // prefix of the uninterrupted trajectory.
    engine_.runWithCheckpoints(steps, kCancelBurst, [](std::uint64_t) {},
                               cancel_);
  }
  [[nodiscard]] std::uint64_t stepsDone() const override {
    return engine_.stats().steps;
  }
  void sampleMetrics(std::vector<double>& out) const override {
    sampler_(engine_, out);
  }
  [[nodiscard]] system::ParticleSystem snapshot() const override {
    return engine_.system();
  }
  [[nodiscard]] const system::ParticleSystem* liveSystem() const override {
    return &engine_.system();
  }
  [[nodiscard]] std::string regime() const override {
    return engine_.system().regimeName();
  }
  void setCancelToken(const core::CancelToken* cancel) override {
    cancel_ = cancel;
  }
  [[nodiscard]] bool supportsSnapshots() const override { return true; }
  void saveState(system::SnapshotWriter& w) const override {
    engine_.saveState(w);
  }
  void restoreState(system::SnapshotReader& r) override {
    engine_.restoreState(r);
  }

 private:
  /// Cancel-poll granularity of the sequential engine, in chain steps.
  static constexpr std::uint64_t kCancelBurst = std::uint64_t{1} << 16;

  Engine engine_;
  Sampler sampler_;
  const core::CancelToken* cancel_ = nullptr;
};

/// One replica on the multi-core sharded runner: advance() rounds up to
/// whole epochs and rejection-free spans (stepsDone() reports the exact
/// count, like the amoebot run).  Samplers are shared with EngineRun via the Driver template
/// parameter — engine and runner expose the same system()/edges()/
/// stats()/model() surface, so a metric cannot drift between the two
/// execution disciplines.
template <typename Model>
  requires core::ChainWeightModel<Model>
class ShardedRun : public ScenarioRun {
 public:
  using Runner = core::ShardedChainRunner<Model>;
  using Sampler = void (*)(const Runner&, std::vector<double>&);

  ShardedRun(Runner runner, Sampler sampler)
      : runner_(std::move(runner)), sampler_(sampler) {}

  void advance(std::uint64_t steps) override { runner_.runAtLeast(steps); }
  [[nodiscard]] std::uint64_t stepsDone() const override {
    return runner_.stats().steps;
  }
  [[nodiscard]] bool sharded() const override { return true; }
  void sampleMetrics(std::vector<double>& out) const override {
    sampler_(runner_, out);
  }
  [[nodiscard]] system::ParticleSystem snapshot() const override {
    return runner_.system();
  }
  [[nodiscard]] const system::ParticleSystem* liveSystem() const override {
    return &runner_.system();
  }
  [[nodiscard]] std::string regime() const override {
    return runner_.system().regimeName();
  }
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> counts()
      const override {
    // The stage histogram of every proposal: movement outcomes plus the
    // block-boundary rejects (with no aux move they sum to the steps).
    const core::ChainStats& m = runner_.stats().movement;
    return {{"rejection_free_epochs", runner_.rejectionFreeEpochs()},
            {"accepted", m.accepted},
            {"target_occupied", m.targetOccupied},
            {"rejected_gap", m.rejectedGap},
            {"rejected_property", m.rejectedProperty},
            {"rejected_filter", m.rejectedFilter},
            {"boundary_rejects", runner_.sweepEvents()}};
  }
  void setCancelToken(const core::CancelToken* cancel) override {
    runner_.setCancelToken(cancel);
  }
  [[nodiscard]] bool supportsSnapshots() const override { return true; }
  void saveState(system::SnapshotWriter& w) const override {
    runner_.saveState(w);
  }
  void restoreState(system::SnapshotReader& r) override {
    runner_.restoreState(r);
  }

 private:
  Runner runner_;
  Sampler sampler_;
};

/// Builds the sequential-or-sharded run for one chain scenario: threads
/// ≤ 1 is the sequential engine (the draw-for-draw historical path),
/// threads > 1 the sharded runner with that block-phase budget.
template <typename Model, typename EngineSampler, typename ShardedSampler>
  requires core::ChainWeightModel<Model>
std::unique_ptr<ScenarioRun> makeChainRun(system::ParticleSystem initial,
                                          Model model, const RunSpec& spec,
                                          std::uint64_t replicaSeed,
                                          unsigned workerThreads,
                                          EngineSampler engineSampler,
                                          ShardedSampler shardedSampler) {
  const double rateSpread = rateSpreadFrom(spec.params);
  if (workerThreads > 1) {
    core::ShardedChainOptions options;
    options.threads = workerThreads;
    options.targetEventsPerEpoch = epochEventsFrom(spec.params);
    options.rates = rampRates(rateSpread, initial.size());
    return std::make_unique<ShardedRun<Model>>(
        core::ShardedChainRunner<Model>(std::move(initial), std::move(model),
                                        replicaSeed, options),
        shardedSampler);
  }
  SOPS_REQUIRE(rateSpread == 0.0,
               "rate-spread requires threads > 1 (the sequential chain "
               "activates uniformly)");
  return std::make_unique<EngineRun<Model>>(
      core::BiasedChainEngine<Model>(std::move(initial), std::move(model),
                                     replicaSeed),
      engineSampler);
}

// -- compression ------------------------------------------------------------

template <typename Driver>
void sampleCompression(const Driver& engine, std::vector<double>& out) {
  const system::ParticleSystem& sys = engine.system();
  // One run decomposition, read word-parallel off the occupancy grid,
  // serves holes AND the exact perimeter (p = 3n − e − 3C + 3·holes with
  // the tracked edge count; C > 1 only when an ablation (properties=false)
  // has split the system, and then p is the sum of the components'
  // perimeters).
  const system::Topology shape = system::planeShape(sys.grid()).topology;
  const std::int64_t perimeter = system::perimeterFromCounts(
      static_cast<std::int64_t>(sys.size()), engine.edges(), shape.holes,
      shape.components);
  out.push_back(static_cast<double>(engine.edges()));
  out.push_back(static_cast<double>(perimeter));
  out.push_back(alphaOf(perimeter, sys.size()));
  out.push_back(engine.stats().movement.acceptanceRate());
  out.push_back(static_cast<double>(shape.holes));
}

class CompressionScenario : public Scenario {
 public:
  [[nodiscard]] std::string name() const override { return "compression"; }
  [[nodiscard]] std::string description() const override {
    return "the paper's chain M: w = lambda^e";
  }
  [[nodiscard]] ParamSchema schema() const override {
    ParamSchema schema;
    addChainKeys(schema);
    addShardedKeys(schema);
    return schema;
  }
  [[nodiscard]] std::vector<std::string> metricNames() const override {
    return {"edges", "perimeter", "alpha", "acceptance", "holes"};
  }
  [[nodiscard]] std::unique_ptr<ScenarioRun> start(
      const RunSpec& spec, std::uint64_t replicaSeed,
      unsigned workerThreads) const override {
    return makeChainRun(
        spec.makeInitial(replicaSeed),
        core::CompressionModel(chainOptionsFrom(spec.params)), spec,
        replicaSeed, workerThreads, &sampleCompression<core::CompressionEngine>,
        &sampleCompression<core::ShardedChainRunner<core::CompressionModel>>);
  }
};

// -- separation -------------------------------------------------------------

template <typename Driver>
void sampleSeparation(const Driver& engine, std::vector<double>& out) {
  const system::ParticleSystem& sys = engine.system();
  out.push_back(static_cast<double>(engine.edges()));
  pushPerimeterAndAlpha(sys, out);
  // engine.edges() is the incrementally tracked e(σ) — no recount, and 0
  // edges (n = 1) reads as fraction 0 rather than NaN.
  out.push_back(engine.edges() == 0
                    ? 0.0
                    : static_cast<double>(
                          engine.model().homogeneousEdges(sys)) /
                          static_cast<double>(engine.edges()));
}

class SeparationScenario : public Scenario {
 public:
  [[nodiscard]] std::string name() const override { return "separation"; }
  [[nodiscard]] std::string description() const override {
    return "two colors, w = lambda^e gamma^hom (Cannon et al. [9])";
  }
  [[nodiscard]] ParamSchema schema() const override {
    ParamSchema schema;
    schema.add("lambda", ParamType::Double, "4.0",
               "compression bias on edges");
    schema.add("gamma", ParamType::Double, "4.0",
               "homogeneity bias on monochromatic edges");
    schema.add("swaps", ParamType::Bool, "true", "enable color-swap moves");
    schema.add("swap-prob", ParamType::Double, "0.5",
               "mixture weight of the swap move");
    addShardedKeys(schema);
    return schema;
  }
  [[nodiscard]] std::vector<std::string> metricNames() const override {
    return {"edges", "perimeter", "alpha", "hom_fraction"};
  }
  [[nodiscard]] std::unique_ptr<ScenarioRun> start(
      const RunSpec& spec, std::uint64_t replicaSeed,
      unsigned workerThreads) const override {
    core::SeparationModel::Options options;
    options.lambda = spec.params.getDouble("lambda", options.lambda);
    options.gamma = spec.params.getDouble("gamma", options.gamma);
    options.enableSwaps = spec.params.getBool("swaps", options.enableSwaps);
    options.swapProbability =
        spec.params.getDouble("swap-prob", options.swapProbability);
    system::ParticleSystem initial = spec.makeInitial(replicaSeed);
    auto colors = system::alternatingClasses(initial.size(), 2);
    return makeChainRun(
        std::move(initial), core::SeparationModel(options, std::move(colors)),
        spec, replicaSeed, workerThreads,
        &sampleSeparation<core::SeparationEngine>,
        &sampleSeparation<core::ShardedChainRunner<core::SeparationModel>>);
  }
};

// -- alignment --------------------------------------------------------------

template <typename Driver>
void sampleAlignment(const Driver& engine, std::vector<double>& out) {
  const system::ParticleSystem& sys = engine.system();
  out.push_back(static_cast<double>(engine.edges()));
  pushPerimeterAndAlpha(sys, out);
  out.push_back(engine.edges() == 0
                    ? 0.0
                    : static_cast<double>(engine.model().alignedEdges(sys)) /
                          static_cast<double>(engine.edges()));
}

class AlignmentScenario : public Scenario {
 public:
  [[nodiscard]] std::string name() const override { return "alignment"; }
  [[nodiscard]] std::string description() const override {
    return "6-state orientations, w = lambda^e kappa^ali "
           "(Kedia-Oh-Randall style)";
  }
  [[nodiscard]] ParamSchema schema() const override {
    ParamSchema schema;
    schema.add("lambda", ParamType::Double, "4.0",
               "compression bias on edges");
    schema.add("kappa", ParamType::Double, "4.0",
               "alignment bias on equal-orientation edges");
    schema.add("rotations", ParamType::Bool, "true",
               "enable orientation re-sampling moves");
    schema.add("rotation-prob", ParamType::Double, "0.5",
               "mixture weight of the rotation move");
    addShardedKeys(schema);
    return schema;
  }
  [[nodiscard]] std::vector<std::string> metricNames() const override {
    return {"edges", "perimeter", "alpha", "aligned_fraction"};
  }
  [[nodiscard]] std::unique_ptr<ScenarioRun> start(
      const RunSpec& spec, std::uint64_t replicaSeed,
      unsigned workerThreads) const override {
    core::AlignmentModel::Options options;
    options.lambda = spec.params.getDouble("lambda", options.lambda);
    options.kappa = spec.params.getDouble("kappa", options.kappa);
    options.enableRotations =
        spec.params.getBool("rotations", options.enableRotations);
    options.rotationProbability =
        spec.params.getDouble("rotation-prob", options.rotationProbability);
    system::ParticleSystem initial = spec.makeInitial(replicaSeed);
    auto orientations = system::alternatingClasses(
        initial.size(), core::AlignmentModel::kOrientations);
    return makeChainRun(
        std::move(initial),
        core::AlignmentModel(options, std::move(orientations)), spec,
        replicaSeed, workerThreads, &sampleAlignment<core::AlignmentEngine>,
        &sampleAlignment<core::ShardedChainRunner<core::AlignmentModel>>);
  }
};

// -- amoebot (Algorithm A on the sharded block runner) ----------------------

class AmoebotRun : public ScenarioRun {
 public:
  AmoebotRun(const system::ParticleSystem& initial, double lambda,
             double crashFraction, std::uint64_t seed,
             amoebot::ShardedOptions options)
      : sysRng_(seed), sys_(initial, sysRng_), algo_({lambda}) {
    if (crashFraction > 0.0) {
      rng::Random faultRng(seed + 1);
      amoebot::applyFaults(
          sys_, amoebot::randomCrashes(sys_.size(), crashFraction, faultRng));
    }
    runner_.emplace(sys_, algo_, seed + 2, std::move(options));
  }

  void advance(std::uint64_t steps) override { runner_->runAtLeast(steps); }
  [[nodiscard]] std::uint64_t stepsDone() const override {
    return runner_->activations();
  }
  [[nodiscard]] bool sharded() const override { return true; }
  void sampleMetrics(std::vector<double>& out) const override {
    // The tail projection measured word-parallel off the planes
    // (occ & ~heads): no cell list, ParticleSystem, grid or hash is built
    // per sample.
    const std::int64_t perimeter = system::perimeter(
        system::planeShape(sys_.occupancyGrid(), sys_.headGrid()));
    out.push_back(static_cast<double>(perimeter));
    out.push_back(alphaOf(perimeter, sys_.size()));
    out.push_back(runner_->activations() == 0
                      ? 0.0
                      : static_cast<double>(runner_->sweepActivations()) /
                            static_cast<double>(runner_->activations()));
    out.push_back(runner_->now());
  }
  [[nodiscard]] system::ParticleSystem snapshot() const override {
    return sys_.tailConfiguration();
  }
  [[nodiscard]] std::string regime() const override {
    return sys_.regimeName();
  }
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> counts()
      const override {
    const amoebot::ActivationTallies& t = runner_->tallies();
    return {{"rejection_free_epochs", runner_->rejectionFreeEpochs()},
            {"idle", t.idle},
            {"expanded", t.expanded},
            {"moved_to_head", t.movedToHead},
            {"contracted_back", t.contractedBack}};
  }
  void setCancelToken(const core::CancelToken* cancel) override {
    runner_->setCancelToken(cancel);
  }
  [[nodiscard]] bool supportsSnapshots() const override { return true; }
  // The system (particle structs, fault flags, window geometry) and the
  // runner (epoch index, boundary-skip count, tallies, routing state)
  // serialize back to back; the
  // constructor's random orientation/fault draws are overwritten wholesale
  // on restore, so a resumed run needs only the same spec and seed.
  void saveState(system::SnapshotWriter& w) const override {
    sys_.saveState(w);
    runner_->saveState(w);
  }
  void restoreState(system::SnapshotReader& r) override {
    sys_.restoreState(r);
    runner_->restoreState(r);
  }

 private:
  rng::Random sysRng_;
  amoebot::AmoebotSystem sys_;
  amoebot::LocalCompressionAlgorithm algo_;
  std::optional<amoebot::ShardedPoissonRunner> runner_;
};

class AmoebotScenario : public Scenario {
 public:
  [[nodiscard]] std::string name() const override { return "amoebot"; }
  [[nodiscard]] std::string description() const override {
    return "Algorithm A on the sharded block runner (steps = activations; "
           "deterministic per seed for every thread count)";
  }
  [[nodiscard]] ParamSchema schema() const override {
    ParamSchema schema;
    schema.add("lambda", ParamType::Double, "4.0",
               "compression bias on edges");
    schema.add("crash-fraction", ParamType::Double, "0.0",
               "fraction of particles crashed at start (section 3.3)");
    addShardedKeys(schema);
    return schema;
  }
  [[nodiscard]] std::vector<std::string> metricNames() const override {
    return {"perimeter", "alpha", "sweep_fraction", "sim_time"};
  }
  [[nodiscard]] std::unique_ptr<ScenarioRun> start(
      const RunSpec& spec, std::uint64_t replicaSeed,
      unsigned workerThreads) const override {
    const double crashFraction =
        spec.params.getDouble("crash-fraction", 0.0);
    SOPS_REQUIRE(crashFraction >= 0.0 && crashFraction < 1.0,
                 "crash-fraction must be in [0, 1)");
    system::ParticleSystem initial = spec.makeInitial(replicaSeed);
    amoebot::ShardedOptions options;
    options.threads = workerThreads;
    options.targetEventsPerEpoch = epochEventsFrom(spec.params);
    options.rates = rampRates(rateSpreadFrom(spec.params), initial.size());
    return std::make_unique<AmoebotRun>(
        std::move(initial), spec.params.getDouble("lambda", 4.0),
        crashFraction, replicaSeed, std::move(options));
  }
};

}  // namespace

void registerBuiltins(Registry& registry) {
  registry.add(std::make_unique<CompressionScenario>());
  registry.add(std::make_unique<SeparationScenario>());
  registry.add(std::make_unique<AlignmentScenario>());
  registry.add(std::make_unique<AmoebotScenario>());
}

}  // namespace sops::sim

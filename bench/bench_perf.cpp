// Performance guardrails (google-benchmark): the chain step is O(1) and the
// simulator sustains millions of iterations per second — the property that
// makes the paper's 5M/20M-iteration experiments (Figs 2, 10) cheap.
//
// The *Reference benchmarks preserve the pre-bitboard kernel (hash-probe
// occupancy + per-proposal property recomputation) so the speedup of the
// optimized hot path (bitboard occupancy + precomputed move/decision
// tables) stays measurable from a single binary; DESIGN.md records the
// before/after numbers, BENCH_perf.json the raw run.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "amoebot/local_compression.hpp"
#include "amoebot/parallel_scheduler.hpp"
#include "amoebot/reference_local_kernel.hpp"
#include "amoebot/scheduler.hpp"
#include "core/compression_chain.hpp"
#include "core/move_table.hpp"
#include "core/properties.hpp"
#include "core/reference_kernel.hpp"
#include "core/rejection_free.hpp"
#include "core/scenario_models.hpp"
#include "core/sharded_chain_runner.hpp"
#include "extensions/separation.hpp"
#include "sim/runner.hpp"
#include "system/metrics.hpp"
#include "system/shapes.hpp"
#include "util/flat_hash.hpp"

namespace {

using namespace sops;

// ---------------------------------------------------------------------------
// Hot path: optimized vs reference.  The reference side is
// core::ReferenceKernel / evaluateMoveSeed / ringMaskSeed from
// core/reference_kernel.hpp — the same frozen seed kernel the
// golden-trajectory tests certify as draw-for-draw identical, so the
// measured baseline is exactly the certified one.

void BM_ChainStep(benchmark::State& state) {
  // The paper's chain M as it runs: the compression scenario of the
  // weight-model engine.
  core::ChainOptions options;
  options.lambda = 4.0;
  core::CompressionEngine chain(system::lineConfiguration(state.range(0)),
                                core::CompressionModel(options), 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(chain.step());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ChainStep)->Arg(25)->Arg(100)->Arg(400);

void BM_ChainStepReference(benchmark::State& state) {
  core::ChainOptions options;
  options.lambda = 4.0;
  core::ReferenceKernel chain(system::lineConfiguration(state.range(0)),
                              options, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(chain.step());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ChainStepReference)->Arg(25)->Arg(100)->Arg(400);

// Increment-with-wrap proposal cycling (no runtime division) so the
// optimized and reference kernels are measured over the identical,
// overhead-free proposal stream.
struct ProposalCycle {
  std::size_t particle = 0;
  std::size_t direction = 0;

  void advance(std::size_t particleCount) {
    if (++particle == particleCount) particle = 0;
    if (++direction == 6) direction = 0;
  }
};

void BM_EvaluateMove(benchmark::State& state) {
  // Line start (the paper's canonical initial configuration): most targets
  // are unoccupied, so the full ring-mask + classification path runs.
  const system::ParticleSystem sys = system::lineConfiguration(100);
  ProposalCycle cycle;
  for (auto _ : state) {
    const core::MoveEvaluation eval =
        core::evaluateMove(sys, sys.position(cycle.particle),
                           lattice::kAllDirections[cycle.direction]);
    benchmark::DoNotOptimize(eval);
    cycle.advance(sys.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EvaluateMove);

void BM_EvaluateMoveReference(benchmark::State& state) {
  const system::ParticleSystem sys = system::lineConfiguration(100);
  ProposalCycle cycle;
  for (auto _ : state) {
    const core::MoveEvaluation eval =
        core::evaluateMoveSeed(sys, sys.position(cycle.particle),
                               lattice::kAllDirections[cycle.direction]);
    benchmark::DoNotOptimize(eval);
    cycle.advance(sys.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EvaluateMoveReference);

void BM_RingMaskBitboard(benchmark::State& state) {
  const system::ParticleSystem sys = system::spiralConfiguration(100);
  ProposalCycle cycle;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::ringMask(sys, sys.position(cycle.particle),
                       lattice::kAllDirections[cycle.direction]));
    cycle.advance(sys.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RingMaskBitboard);

void BM_RingMaskHash(benchmark::State& state) {
  const system::ParticleSystem sys = system::spiralConfiguration(100);
  ProposalCycle cycle;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ringMaskSeed(
        sys.position(cycle.particle), lattice::kAllDirections[cycle.direction],
        [&sys](lattice::TriPoint p) { return sys.occupiedSparse(p); }));
    cycle.advance(sys.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RingMaskHash);

void BM_PropertyChecks(benchmark::State& state) {
  std::uint8_t mask = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::property1Holds(mask));
    benchmark::DoNotOptimize(core::property2Holds(mask));
    ++mask;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PropertyChecks);

void BM_MoveTableLookup(benchmark::State& state) {
  std::uint8_t mask = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::moveTableEntry(mask));
    ++mask;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MoveTableLookup);

void BM_PerimeterClosedForm(benchmark::State& state) {
  const system::ParticleSystem sys =
      system::spiralConfiguration(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(system::perimeter(sys));
  }
}
BENCHMARK(BM_PerimeterClosedForm)->Arg(100)->Arg(1000);

// The checkpoint sampler's two traversals at n = 10⁵, on the compact
// spiral (about 2√(n/3) rows of long runs) and the East line (one run
// across a 10⁵-wide bounding box).
[[nodiscard]] system::ParticleSystem samplerShape(std::int64_t line) {
  constexpr std::int64_t kParticles = 100000;
  return line != 0 ? system::lineConfiguration(kParticles)
                   : system::spiralConfiguration(kParticles);
}

void BM_CountHoles(benchmark::State& state) {
  const system::ParticleSystem sys = samplerShape(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(system::countHoles(sys));
  }
}
BENCHMARK(BM_CountHoles)->ArgName("line")->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_IsConnected(benchmark::State& state) {
  const system::ParticleSystem sys = samplerShape(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(system::isConnected(sys));
  }
}
BENCHMARK(BM_IsConnected)->ArgName("line")->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

// The amoebot checkpoint sample's perimeter on a 10⁵ spiral after three
// block-path epochs (expanded particles present): the word-parallel
// planeShape() over occ & ~heads (`planes` 1), against the cell-list
// scan of tails() and isTail() it replaced (`planes` 0).
void BM_AmoebotSample(benchmark::State& state) {
  rng::Random rng(7);
  amoebot::AmoebotSystem sys(system::spiralConfiguration(100000), rng);
  const amoebot::LocalCompressionAlgorithm algo({4.0});
  amoebot::ShardedOptions options;
  options.threads = 2;
  amoebot::ShardedPoissonRunner runner(sys, algo, 11, options);
  runner.forceBlockPathForTest();
  runner.runAtLeast(3 * runner.epochTarget());
  for (auto _ : state) {
    if (state.range(0) != 0) {
      benchmark::DoNotOptimize(system::perimeter(
          system::planeShape(sys.occupancyGrid(), sys.headGrid())));
    } else {
      const std::vector<lattice::TriPoint> tails = sys.tails();
      benchmark::DoNotOptimize(system::perimeter(
          tails, [&sys](lattice::TriPoint p) { return sys.isTail(p); }));
    }
  }
}
BENCHMARK(BM_AmoebotSample)->ArgName("planes")->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_FlatMapLookup(benchmark::State& state) {
  util::FlatMap64<std::int32_t> map(1024);
  for (std::uint64_t k = 0; k < 1000; ++k) {
    map.insert(k * 0x9e3779b97f4a7c15ULL, static_cast<std::int32_t>(k));
  }
  std::uint64_t probe = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.find(probe * 0x9e3779b97f4a7c15ULL));
    probe = (probe + 1) % 2000;  // half hits, half misses
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FlatMapLookup);

void BM_EnsembleSweep(benchmark::State& state) {
  // Small λ × seed grid end-to-end through sim::run — one RunSpec per λ,
  // its seeds fanned out as replicas across the pool; items are chain
  // steps, so items/s is directly comparable with BM_ChainStep.
  constexpr std::uint64_t kIterations = 50000;
  constexpr std::uint32_t kSeeds = 4;
  std::vector<sim::RunSpec> specs;
  for (const char* lambda : {"2.0", "4.0"}) {
    sim::RunSpec spec = sim::RunSpec::parse(
        std::string("scenario=compression shape=line n=50 seed=1 "
                    "seed-stride=1 lambda=") +
        lambda);
    spec.steps = kIterations;
    spec.replicas = kSeeds;
    spec.threads = static_cast<unsigned>(state.range(0));
    specs.push_back(std::move(spec));
  }
  for (auto _ : state) {
    for (const sim::RunSpec& spec : specs) {
      benchmark::DoNotOptimize(sim::run(spec));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() * specs.size() * kSeeds * kIterations));
}
BENCHMARK(BM_EnsembleSweep)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_AmoebotActivation(benchmark::State& state) {
  rng::Random rng(7);
  amoebot::AmoebotSystem sys(system::lineConfiguration(100), rng);
  const amoebot::LocalCompressionAlgorithm algo({4.0});
  amoebot::PoissonScheduler scheduler(sys.size(), rng::Random(8));
  rng::Random coin(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        algo.activate(sys, scheduler.next().particle, coin));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AmoebotActivation);

void BM_AmoebotActivationReference(benchmark::State& state) {
  // The frozen seed amoebot kernel (hash-probe substrate, per-activation
  // property recomputation) under the identical activation stream — the
  // before side of the local fast path, certified draw-for-draw identical
  // by tests/local_golden_test.cpp.
  rng::Random rng(7);
  amoebot::reference::ReferenceAmoebotSystem sys(system::lineConfiguration(100),
                                                 rng);
  const amoebot::reference::ReferenceLocalKernel algo({4.0});
  amoebot::PoissonScheduler scheduler(sys.size(), rng::Random(8));
  rng::Random coin(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        algo.activate(sys, scheduler.next().particle, coin));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AmoebotActivationReference);

void BM_LocalActivate(benchmark::State& state) {
  // Sequential uniform activations (negligible scheduler overhead) so the
  // per-activation cost of Algorithm A itself is what is measured.
  rng::Random rng(7);
  amoebot::AmoebotSystem sys(system::lineConfiguration(state.range(0)), rng);
  const amoebot::LocalCompressionAlgorithm algo({4.0});
  amoebot::SequentialScheduler scheduler(sys.size(), rng::Random(8));
  rng::Random coin(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo.activate(sys, scheduler.next(), coin));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LocalActivate)->Arg(100)->Arg(10000);

void BM_LocalActivateReference(benchmark::State& state) {
  rng::Random rng(7);
  amoebot::reference::ReferenceAmoebotSystem sys(
      system::lineConfiguration(state.range(0)), rng);
  const amoebot::reference::ReferenceLocalKernel algo({4.0});
  amoebot::SequentialScheduler scheduler(sys.size(), rng::Random(8));
  rng::Random coin(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo.activate(sys, scheduler.next(), coin));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LocalActivateReference)->Arg(100)->Arg(10000);

void BM_ShardedActivations(benchmark::State& state) {
  // Million-particle Algorithm A through the sharded block runner; Arg is
  // the block-phase thread count (1 = the list-order path).  Items are
  // activations, so items/s is comparable with BM_LocalActivate.  Every
  // epoch runs on the block path (the runner's rejection-free route is
  // pinned off), keeping the rows comparable with their history.
  rng::Random rng(7);
  amoebot::AmoebotSystem sys(system::spiralConfiguration(1000000), rng);
  const amoebot::LocalCompressionAlgorithm algo({4.0});
  amoebot::ShardedOptions options;
  options.threads = static_cast<unsigned>(state.range(0));
  amoebot::ShardedPoissonRunner runner(sys, algo, 11, options);
  runner.forceBlockPathForTest();
  std::uint64_t done = 0;
  for (auto _ : state) {
    done += runner.runAtLeast(4000000);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(done));
}
BENCHMARK(BM_ShardedActivations)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_ShardedActivationsRouted(benchmark::State& state) {
  // The same spiral with the runner's own epoch routing: after the first
  // epoch every epoch runs rejection-free (core::RejectionFreeSampler
  // under amoebot::RejectionFreeRule), its blocks on the runner's
  // workers — the row the block rows above compare against.  A
  // rejection-free epoch costs about its non-Idle activations, so the row
  // reports them per iteration (`events`): real time over `events` is the
  // cost per event.
  rng::Random rng(7);
  amoebot::AmoebotSystem sys(system::spiralConfiguration(1000000), rng);
  const amoebot::LocalCompressionAlgorithm algo({4.0});
  amoebot::ShardedOptions options;
  options.threads = static_cast<unsigned>(state.range(0));
  amoebot::ShardedPoissonRunner runner(sys, algo, 11, options);
  const std::uint64_t eventsBefore = runner.tallies().events();
  std::uint64_t done = 0;
  for (auto _ : state) {
    done += runner.runAtLeast(4000000);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(done));
  state.counters["events"] = benchmark::Counter(
      static_cast<double>(runner.tallies().events() - eventsBefore),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ShardedActivationsRouted)->Arg(4)->UseRealTime();

// ---------------------------------------------------------------------------
// Weight-model engine: the three scenarios on the shared bitboard hot loop.
// BM_SeparationStepReference is the pre-engine sparse-path SeparationChain
// (hash-probe color counts, per-step std::pow) — the before side of the
// ISSUE 3 ≥3× target; BM_SeparationEngineStep is the after side (color bit
// planes + precomputed power tables).  Items are chain steps everywhere.

void BM_SeparationStepReference(benchmark::State& state) {
  extensions::SeparationOptions options;
  options.lambda = 4.0;
  options.gamma = 4.0;
  const auto n = static_cast<std::size_t>(state.range(0));
  extensions::SeparationChain chain(system::spiralConfiguration(state.range(0)),
                                    system::alternatingClasses(n, 2), options,
                                        42);
  // Equal warmup on both sides so the measured state mix (occupied targets,
  // heterochromatic edges) is the equilibrating blob, not the cold start.
  chain.run(static_cast<std::uint64_t>(10 * state.range(0)));
  for (auto _ : state) {
    chain.step();
  }
  benchmark::DoNotOptimize(chain.stats().movesAccepted);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SeparationStepReference)->Arg(100)->Arg(400)->Arg(100000);

void BM_SeparationEngineStep(benchmark::State& state) {
  core::SeparationModel::Options options;
  options.lambda = 4.0;
  options.gamma = 4.0;
  const auto n = static_cast<std::size_t>(state.range(0));
  core::SeparationEngine engine(
      system::spiralConfiguration(state.range(0)),
      core::SeparationModel(options, system::alternatingClasses(n, 2)), 42);
  engine.run(static_cast<std::uint64_t>(10 * state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.step());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SeparationEngineStep)->Arg(100)->Arg(400)->Arg(100000);

void BM_CompressionEngineStepSpiral(benchmark::State& state) {
  // The sequential single-replica baseline BM_ShardedChainStepCompression
  // is compared against.  Spiral, not line: a 1e5 line's proportional
  // margins exceed the flat-window cap, so it runs on the tiled backend —
  // the spiral stays on the flat window like the separation/alignment
  // n=1e5 baselines above, keeping this row comparable with the history.
  // (BM_ShardedChainStepSeparationTiledLine is the tiled-backend row.)
  core::ChainOptions options;
  options.lambda = 4.0;
  core::CompressionEngine engine(system::spiralConfiguration(state.range(0)),
                                 core::CompressionModel(options), 42);
  engine.run(static_cast<std::uint64_t>(10 * state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.step());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CompressionEngineStepSpiral)->Arg(100000);

void BM_AlignmentEngineStep(benchmark::State& state) {
  core::AlignmentModel::Options options;
  options.lambda = 4.0;
  options.kappa = 4.0;
  const auto n = static_cast<std::size_t>(state.range(0));
  core::AlignmentEngine engine(
      system::spiralConfiguration(state.range(0)),
      core::AlignmentModel(options, system::alternatingClasses(n, 6)), 42);
  engine.run(static_cast<std::uint64_t>(10 * state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.step());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AlignmentEngineStep)->Arg(100)->Arg(400)->Arg(100000);

// ---------------------------------------------------------------------------
// Sharded chain runner: the exact block-parallel execution of the same
// weight models (core/sharded_chain_runner.hpp).  Arg is the block-phase
// thread count (1 runs the proposal list in order); items are chain
// proposals, so items/s is comparable with the BM_*EngineStep(Spiral)
// single-core baselines at n = 1e5.  All three run the spiral their
// sequential baselines use — it stays inside the flat window (~11 active
// 128 × 128 blocks at this n), keeping the rows comparable with the
// pre-tiled history; the *TiledLine rows below measure the tiled backend
// on the shapes that used to fall off the dense path.  Scaling shows only
// on a host with as many cores as the Arg; for end-to-end speed-ups use
// perfbench/run.py.

// The compression rows run every epoch on the block path (the runner's
// epoch routing is pinned off), keeping them comparable with their history.
void BM_ShardedChainStepCompression(benchmark::State& state) {
  core::ChainOptions options;
  options.lambda = 4.0;
  core::ShardedChainOptions sharded;
  sharded.threads = static_cast<unsigned>(state.range(0));
  core::ShardedChainRunner<core::CompressionModel> runner(
      system::spiralConfiguration(100000), core::CompressionModel(options), 42,
      sharded);
  runner.forceBlockPathForTest();
  std::uint64_t done = 0;
  for (auto _ : state) {
    done += runner.runAtLeast(400000);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(done));
}
BENCHMARK(BM_ShardedChainStepCompression)->Arg(1)->Arg(2)->Arg(8)
    ->UseRealTime();

// The same spiral with the runner's own epoch routing: after the first
// epoch every epoch runs rejection-free (core/rejection_free.hpp), its
// blocks on the worker pool — the row the block rows above compare
// against, at 1, 2 and 4 threads.  A rejection-free epoch costs about its
// accepted moves, so the row reports them per iteration (`accepted`):
// real time over `accepted` is the cost per event.
void BM_ShardedChainStepCompressionRouted(benchmark::State& state) {
  core::ChainOptions options;
  options.lambda = 4.0;
  core::ShardedChainOptions sharded;
  sharded.threads = static_cast<unsigned>(state.range(0));
  core::ShardedChainRunner<core::CompressionModel> runner(
      system::spiralConfiguration(100000), core::CompressionModel(options), 42,
      sharded);
  const std::uint64_t acceptedBefore = runner.stats().movement.accepted;
  std::uint64_t done = 0;
  for (auto _ : state) {
    done += runner.runAtLeast(400000);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(done));
  state.counters["accepted"] = benchmark::Counter(
      static_cast<double>(runner.stats().movement.accepted - acceptedBefore),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ShardedChainStepCompressionRouted)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime();

// The coordinator's block placement of one rejection-free epoch (n_b, the
// occupied rows and the multinomial (m_b)) on the compressed 10⁵ spiral
// after ten routed epochs, L = 2n, a new epoch's offsets every iteration:
// from the anchor populations the sampler keeps across epochs (`kept` 1,
// RejectionFreeSampler::place, what runEpoch() runs) against the pass
// over the flat window's words that recounts them (`kept` 0, placeBlocks).
// Placement runs on the calling thread at every thread count.
void BM_RejectionFreePlacement(benchmark::State& state) {
  core::ChainOptions options;
  options.lambda = 4.0;
  core::ShardedChainOptions sharded;
  sharded.threads = 2;
  core::ShardedChainRunner<core::CompressionModel> runner(
      system::spiralConfiguration(100000), core::CompressionModel(options), 42,
      sharded);
  runner.runAtLeast(10 * runner.epochTarget());
  const system::ParticleSystem& sys = runner.system();
  core::RejectionFreeSampler<core::RejectionFreeRules> sampler(
      core::RejectionFreeRules(core::buildDecisionTable(options), false, 1),
      2);
  std::uint64_t epoch = 0;
  for (auto _ : state) {
    const core::BlockEpoch ep = core::BlockEpoch::draw(42, epoch++);
    if (state.range(0) != 0) {
      sampler.place(sys, ep, runner.epochTarget());
    } else {
      sampler.placeBlocks(sys, ep, runner.epochTarget());
    }
    benchmark::DoNotOptimize(sampler.blocks().data());
  }
}
BENCHMARK(BM_RejectionFreePlacement)->ArgName("kept")->Arg(0)->Arg(1)
    ->Unit(benchmark::kMicrosecond);

// The compression checkpoint sample's holes and components on a 10⁵
// spiral after 5·10⁶ steps of the sequential chain at λ = 2 (the
// `expand-ckpt` state): the word-parallel planeShape() over the
// occupancy grid (`planes` 1) against the run decomposition from the
// particle list it replaced (`planes` 0).
void BM_ChainSample(benchmark::State& state) {
  core::ChainOptions options;
  options.lambda = 2.0;
  core::CompressionEngine engine(system::spiralConfiguration(100000),
                                 core::CompressionModel(options), 5);
  engine.run(5000000);
  const system::ParticleSystem& sys = engine.system();
  for (auto _ : state) {
    const system::Topology shape =
        state.range(0) != 0 ? system::planeShape(sys.grid()).topology
                            : system::topology(sys);
    benchmark::DoNotOptimize(system::perimeterFromCounts(
        static_cast<std::int64_t>(sys.size()), engine.edges(), shape.holes,
        shape.components));
  }
}
BENCHMARK(BM_ChainSample)->ArgName("planes")->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_ShardedChainStepSeparation(benchmark::State& state) {
  core::SeparationModel::Options options;
  options.lambda = 4.0;
  options.gamma = 4.0;
  core::ShardedChainOptions sharded;
  sharded.threads = static_cast<unsigned>(state.range(0));
  core::ShardedChainRunner<core::SeparationModel> runner(
      system::spiralConfiguration(100000),
      core::SeparationModel(options, system::alternatingClasses(100000, 2)),
      42, sharded);
  std::uint64_t done = 0;
  for (auto _ : state) {
    done += runner.runAtLeast(400000);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(done));
}
BENCHMARK(BM_ShardedChainStepSeparation)->Arg(1)->Arg(2)->Arg(8)
    ->UseRealTime();

void BM_ShardedChainStepAlignment(benchmark::State& state) {
  core::AlignmentModel::Options options;
  options.lambda = 4.0;
  options.kappa = 4.0;
  core::ShardedChainOptions sharded;
  sharded.threads = static_cast<unsigned>(state.range(0));
  core::ShardedChainRunner<core::AlignmentModel> runner(
      system::spiralConfiguration(100000),
      core::AlignmentModel(options, system::alternatingClasses(100000, 6)),
      42, sharded);
  std::uint64_t done = 0;
  for (auto _ : state) {
    done += runner.runAtLeast(400000);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(done));
}
BENCHMARK(BM_ShardedChainStepAlignment)->Arg(1)->Arg(2)->Arg(8)
    ->UseRealTime();

void BM_ShardedChainStepSeparationTiledLine(benchmark::State& state) {
  // The previously-cliffed shape: a 3e5-particle line's derived window is
  // ~1e9 words — far past the 32 MiB flat cap — so before the tiled
  // backend this configuration fell onto a hash-index-only path and ran
  // every event sequentially.  Now it runs dense-tiled on the block path
  // with the paged id plane (BENCH_perf.json keeps the old hash-only
  // rows).  Arg is the block-phase thread count.
  core::SeparationModel::Options options;
  options.lambda = 4.0;
  options.gamma = 4.0;
  core::ShardedChainOptions sharded;
  sharded.threads = static_cast<unsigned>(state.range(0));
  core::ShardedChainRunner<core::SeparationModel> runner(
      system::lineConfiguration(300000),
      core::SeparationModel(options, system::alternatingClasses(300000, 2)),
      42, sharded);
  std::uint64_t done = 0;
  for (auto _ : state) {
    done += runner.runAtLeast(400000);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(done));
}
BENCHMARK(BM_ShardedChainStepSeparationTiledLine)->Arg(1)->Arg(2)->Arg(8)
    ->UseRealTime();

void BM_SchedulerNext(benchmark::State& state) {
  amoebot::PoissonScheduler scheduler(
      static_cast<std::size_t>(state.range(0)), rng::Random(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.next());
  }
}
BENCHMARK(BM_SchedulerNext)->Arg(100)->Arg(10000);

}  // namespace

BENCHMARK_MAIN();

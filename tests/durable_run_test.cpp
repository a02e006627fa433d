// Durable runs: crash-consistent checkpoint/resume, cooperative
// cancellation, and deadlines.
//
//  1. Primitives: xoshiro/Random state round-trip; SnapshotWriter/Reader
//     typed round-trip with bounds-checked failure modes; pinned payload
//     bytes; payloads of the retired hash-only regime (occupancy tag 0)
//     restoring into the dense regime; amoebot restore rejecting
//     overlapping particles and detached heads; the framed file format
//     (atomic write, checksum rejection of torn/truncated files, .prev
//     fallback);
//  2. Golden kill-and-resume: for every scenario × execution regime, a
//     run snapshotted at a checkpoint and resumed in a fresh process
//     state equals the uninterrupted run — same final arrangement, same
//     metrics, same exact step count;
//  3. Cancellation: a tripped token stops the run at the next safe point
//     with a resumable snapshot; deadline-ms arms the same machinery;
//     multi-replica cancellation skips unclaimed replicas and reports
//     honestly;
//  4. Satellites: sink-path preflight, the MemorySink buffering cap, the
//     strict text-configuration parser, and the amoebot crash-fraction
//     fault path through the facade;
//  5. The background snapshot writer: every exit leaves the last step in
//     the primary snapshot and the checkpoint before it in `.prev`; a
//     write that fails mid-run, or an observer error while a write is in
//     flight, surfaces from sim::run instead of being lost or terminating.
//
// Suite names all start with DurableRun so CI's TSan job can filter them
// with one anchor (they re-run full trajectories and would dominate its
// wall clock; the plain jobs run them all).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "amoebot/amoebot_system.hpp"
#include "amoebot/local_compression.hpp"
#include "amoebot/parallel_scheduler.hpp"
#include "amoebot/scheduler.hpp"
#include "core/cancel.hpp"
#include "core/scenario_models.hpp"
#include "core/sharded_chain_runner.hpp"
#include "rng/random.hpp"
#include "sim/registry.hpp"
#include "sim/runner.hpp"
#include "system/metrics.hpp"
#include "system/serialize.hpp"
#include "system/shapes.hpp"
#include "system/snapshot.hpp"
#include "util/assert.hpp"

namespace sops {
namespace {

[[nodiscard]] std::string tempPath(const std::string& name) {
  return ::testing::TempDir() + "sops_durable_" + name;
}

// -- 1. primitives ----------------------------------------------------------

TEST(DurableRunRng, XoshiroStateRoundTripContinuesIdentically) {
  rng::Random a(1603);
  for (int i = 0; i < 100; ++i) (void)a.uniform();
  const rng::Random b = rng::Random::fromState(a.seed(), a.engine().state());
  EXPECT_EQ(b.seed(), a.seed());
  rng::Random c = a;  // reference continuation
  rng::Random d = b;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(c.bits(), d.bits());
  }
}

TEST(DurableRunPayload, WriterReaderRoundTripAllTypes) {
  system::SnapshotWriter w;
  w.u8(200);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.f64(3.25);
  w.str("hello snapshot");
  const std::vector<std::uint8_t> blob = {1, 2, 3, 255};
  w.bytes(blob);

  system::SnapshotReader r(w.payload());
  EXPECT_EQ(r.u8(), 200);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f64(), 3.25);
  EXPECT_EQ(r.str(), "hello snapshot");
  EXPECT_EQ(r.bytes(), blob);
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_NO_THROW(r.finish());
}

TEST(DurableRunPayload, ShortReadsAndTrailingBytesThrow) {
  system::SnapshotWriter w;
  w.u32(7);
  {
    system::SnapshotReader r(w.payload());
    EXPECT_THROW((void)r.u64(), ContractViolation);  // 4 bytes can't give 8
  }
  {
    system::SnapshotReader r(w.payload());
    (void)r.u8();
    EXPECT_THROW(r.finish(), ContractViolation);  // trailing bytes
  }
  system::SnapshotWriter bad;
  bad.u64(1000);  // claims a 1000-byte string follows
  system::SnapshotReader r(bad.payload());
  EXPECT_THROW((void)r.str(), ContractViolation);
}

[[nodiscard]] std::uint64_t particleSystemChecksum(
    const system::ParticleSystem& sys) {
  system::SnapshotWriter w;
  system::writeParticleSystem(w, sys);
  return system::snapshotChecksum(w.payload());
}

TEST(DurableRunPayload, ParticleSystemBytesArePinned) {
  // The payload bytes are the snapshot format: these checksums were
  // recorded from the byte-per-push_back writer, so any serializer
  // rewrite must reproduce them exactly, in every occupancy backend.
  EXPECT_EQ(particleSystemChecksum(system::spiralConfiguration(10000)),
            0x9eeb773aade8c55aull);
  rng::Random rng(4242);
  system::ParticleSystem flat = system::randomConnected(2000, rng);
  ASSERT_STREQ(flat.regimeName(), "dense-flat");
  system::ParticleSystem tiled = flat;
  tiled.forceTiledForTest();
  EXPECT_EQ(particleSystemChecksum(flat), 0x8db242cd2abfb1ffull);
  EXPECT_EQ(particleSystemChecksum(tiled), 0x06244ad9741543d6ull);
}

/// Rewrites the occupancy tail that starts at `tagOffset` (tag byte plus
/// the four window fields of a flat system) as tag 0 with a zeroed window:
/// the exact bytes older writers emitted for the hash-only regime.
[[nodiscard]] std::vector<std::uint8_t> asSparseTagged(
    std::vector<std::uint8_t> payload, std::size_t tagOffset) {
  EXPECT_EQ(payload.at(tagOffset), 1u) << "expected a flat-window tag";
  std::fill_n(payload.begin() + static_cast<std::ptrdiff_t>(tagOffset), 33,
              std::uint8_t{0});
  return payload;
}

/// Overwrites 8 bytes of `payload` at `offset` with v, little-endian.
void patchI64(std::vector<std::uint8_t>& payload, std::size_t offset,
              std::int64_t v) {
  for (std::size_t i = 0; i < 8; ++i) {
    payload.at(offset + i) =
        static_cast<std::uint8_t>(static_cast<std::uint64_t>(v) >> (8 * i));
  }
}

/// AmoebotSystem::saveState layout: a u64 count, then per particle four
/// i64 coordinates (tail x/y, head x/y) and three u8s (flags, orientation
/// offset, expansion direction), then the occupancy tail.
constexpr std::size_t kAmoebotParticleBytes = 4 * 8 + 3;
[[nodiscard]] constexpr std::size_t amoebotParticleOffset(std::size_t id) {
  return 8 + kAmoebotParticleBytes * id;
}

void expectSameParticles(const amoebot::AmoebotSystem& a,
                         const amoebot::AmoebotSystem& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t id = 0; id < a.size(); ++id) {
    const amoebot::Particle& p = a.particle(id);
    const amoebot::Particle& q = b.particle(id);
    ASSERT_EQ(p.tail, q.tail) << id;
    ASSERT_EQ(p.head, q.head) << id;
    ASSERT_EQ(p.expanded, q.expanded) << id;
    ASSERT_EQ(p.flag, q.flag) << id;
    ASSERT_EQ(p.orientationOffset, q.orientationOffset) << id;
    ASSERT_EQ(p.mirrored, q.mirrored) << id;
  }
  EXPECT_EQ(a.expandedCount(), b.expandedCount());
}

TEST(DurableRunPayload, SparseTaggedPayloadsRestoreDense) {
  // Writers no longer emit occupancy tag 0 for a non-empty system, but
  // payloads that older runs wrote in the hash-only regime must still
  // restore — into the default dense regime, with the same arrangement,
  // continuing the same trajectory.
  rng::Random rng(4242);
  const system::ParticleSystem flat = system::randomConnected(2000, rng);
  system::SnapshotWriter w;
  w.u64(flat.size());
  for (const lattice::TriPoint p : flat.positions()) {
    w.i64(p.x);
    w.i64(p.y);
  }
  w.u8(0);
  for (int field = 0; field < 4; ++field) w.i64(0);
  // The checksum the pre-deletion writer pinned for this system's
  // forced-hash-only copy: the hand-built payload is those exact bytes.
  EXPECT_EQ(system::snapshotChecksum(w.payload()), 0x3a20c92eaa6023ccull);
  system::SnapshotReader r(w.payload());
  const system::ParticleSystem restored = system::readParticleSystem(r);
  r.finish();
  EXPECT_EQ(restored.positions(), flat.positions());
  EXPECT_TRUE(restored.sameArrangement(flat));
  EXPECT_STREQ(restored.regimeName(), "dense-flat");

  // Amoebot: a run with expanded particles, saved, its tail rewritten to
  // tag 0, restored into a fresh system, then both continue identically.
  const system::ParticleSystem start = system::lineConfiguration(40);
  const amoebot::LocalCompressionAlgorithm algo({4.0});
  rng::Random ctor(31);
  amoebot::AmoebotSystem original(start, ctor);
  amoebot::SequentialScheduler scheduler(start.size(), rng::Random(33));
  rng::Random coins(35);
  for (int i = 0; i < 20000 || original.expandedCount() == 0; ++i) {
    (void)algo.activate(original, scheduler.next(), coins);
  }
  system::SnapshotWriter amoebotWriter;
  original.saveState(amoebotWriter);
  const std::vector<std::uint8_t> amoebotSparse = asSparseTagged(
      amoebotWriter.payload(), amoebotParticleOffset(start.size()));
  rng::Random otherCtor(37);
  amoebot::AmoebotSystem resumed(start, otherCtor);
  system::SnapshotReader amoebotReader(amoebotSparse);
  resumed.restoreState(amoebotReader);
  amoebotReader.finish();
  EXPECT_STREQ(resumed.regimeName(), "dense-flat");
  expectSameParticles(original, resumed);
  amoebot::SequentialScheduler schedulerCopy = scheduler;
  rng::Random coinsCopy = coins;
  for (int i = 0; i < 20000; ++i) {
    ASSERT_EQ(algo.activate(original, scheduler.next(), coins),
              algo.activate(resumed, schedulerCopy.next(), coinsCopy))
        << "activation " << i;
  }
  expectSameParticles(original, resumed);

  // CompressionEngine: restored from the tag-0 and from the tag-1 payload
  // of the same state, both engines run the same trajectory.
  core::ChainOptions options;
  options.lambda = 4.0;
  const auto makeEngine = [&] {
    return core::CompressionEngine(system::lineConfiguration(300),
                                   core::CompressionModel(options), 2016);
  };
  core::CompressionEngine source = makeEngine();
  source.run(50000);
  system::SnapshotWriter engineWriter;
  source.saveState(engineWriter);
  const std::vector<std::uint8_t> engineSparse =
      asSparseTagged(engineWriter.payload(), 8 + 16 * source.system().size());
  core::CompressionEngine fromFlat = makeEngine();
  system::SnapshotReader flatReader(engineWriter.payload());
  fromFlat.restoreState(flatReader);
  flatReader.finish();
  core::CompressionEngine fromSparse = makeEngine();
  system::SnapshotReader sparseReader(engineSparse);
  fromSparse.restoreState(sparseReader);
  sparseReader.finish();
  EXPECT_STREQ(fromSparse.system().regimeName(), "dense-flat");
  EXPECT_TRUE(fromSparse.system().sameArrangement(fromFlat.system()));
  fromFlat.run(100000);
  fromSparse.run(100000);
  EXPECT_EQ(fromSparse.system().positions(), fromFlat.system().positions());
  EXPECT_EQ(fromSparse.stats().movement.accepted,
            fromFlat.stats().movement.accepted);
  EXPECT_EQ(fromSparse.edges(), fromFlat.edges());
}

/// A saved 40-particle line (all contracted) and a fresh system to
/// restore it into.
struct AmoebotRestoreFixture {
  system::ParticleSystem start = system::lineConfiguration(40);
  rng::Random ctor{41};
  amoebot::AmoebotSystem sys{start, ctor};
  std::vector<std::uint8_t> payload;
  AmoebotRestoreFixture() {
    system::SnapshotWriter w;
    sys.saveState(w);
    payload = w.payload();
  }
  void expectRejected(const std::string& needle) {
    rng::Random otherCtor(43);
    amoebot::AmoebotSystem into(start, otherCtor);
    system::SnapshotReader r(payload);
    try {
      into.restoreState(r);
      ADD_FAILURE() << "corrupt payload was accepted";
    } catch (const ContractViolation& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("snapshot"), std::string::npos) << what;
      EXPECT_NE(what.find(needle), std::string::npos) << what;
    }
  }
};

TEST(DurableRunPayload, AmoebotRestoreRejectsOverlappingParticles) {
  // Particle 0's cells copied onto particle 1's: two particles, one cell.
  AmoebotRestoreFixture f;
  std::copy_n(f.payload.begin() +
                  static_cast<std::ptrdiff_t>(amoebotParticleOffset(0)),
              32,
              f.payload.begin() +
                  static_cast<std::ptrdiff_t>(amoebotParticleOffset(1)));
  f.expectRejected("two particles share a cell");
}

TEST(DurableRunPayload, AmoebotRestoreRejectsDetachedHead) {
  // Particle 0 marked expanded (flags bit 0) toward direction 0, with a
  // free head cell two rows up: inside the saved window, but not the
  // tail's neighbor in any direction.
  AmoebotRestoreFixture f;
  const lattice::TriPoint tail = f.sys.particle(0).tail;
  const std::size_t at = amoebotParticleOffset(0);
  patchI64(f.payload, at + 16, tail.x);      // head x
  patchI64(f.payload, at + 24, tail.y + 2);  // head y
  f.payload.at(at + 32) |= 1u;
  f.payload.at(at + 34) = 0;
  f.expectRejected("head is not its tail's neighbor");
}

TEST(DurableRunPayload, EngineStateBytesArePinned) {
  core::ChainOptions options;
  options.lambda = 4.0;
  core::CompressionEngine engine(system::lineConfiguration(300),
                                 core::CompressionModel(options), 2016);
  engine.run(100000);
  system::SnapshotWriter w;
  engine.saveState(w);
  EXPECT_EQ(system::snapshotChecksum(w.payload()), 0x46c5fa9b374b2b5bull);
}

// The sharded runners' payloads, routing words included, after a
// block-path epoch and five rejection-free ones.
TEST(DurableRunPayload, ShardedChainStateBytesArePinned) {
  core::ChainOptions options;
  options.lambda = 4.0;
  core::ShardedChainOptions sharded;
  sharded.threads = 2;
  core::ShardedChainRunner<core::CompressionModel> runner(
      system::spiralConfiguration(3000), core::CompressionModel(options), 2016,
      sharded);
  runner.runAtLeast(6 * runner.epochTarget());
  EXPECT_EQ(runner.rejectionFreeEpochs(), 5u);
  system::SnapshotWriter w;
  runner.saveState(w);
  EXPECT_EQ(system::snapshotChecksum(w.payload()), 0x4cc815542c4f16feull);
}

TEST(DurableRunPayload, AmoebotRunnerStateBytesArePinned) {
  const amoebot::LocalCompressionAlgorithm algo({4.0});
  rng::Random ctor(2016);
  amoebot::AmoebotSystem sys(system::spiralConfiguration(10000), ctor);
  amoebot::ShardedOptions sharded;
  sharded.threads = 2;
  amoebot::ShardedPoissonRunner runner(sys, algo, 2016, sharded);
  runner.runAtLeast(6 * runner.epochTarget());
  EXPECT_EQ(runner.rejectionFreeEpochs(), 5u);
  system::SnapshotWriter w;
  sys.saveState(w);
  runner.saveState(w);
  EXPECT_EQ(system::snapshotChecksum(w.payload()), 0xaf59edfcbcba7da3ull);
}

TEST(DurableRunFile, RoundTripsAndVerifiesChecksum) {
  const std::string path = tempPath("frame.snap");
  system::SnapshotWriter w;
  w.str("payload under test");
  w.u64(99);
  system::writeSnapshotFile(path, w.payload());

  const system::SnapshotData snapshot = system::readSnapshotFile(path);
  EXPECT_EQ(snapshot.version, system::kSnapshotVersion);
  system::SnapshotReader r(snapshot.payload, snapshot.version);
  EXPECT_EQ(r.str(), "payload under test");
  EXPECT_EQ(r.u64(), 99u);
  r.finish();

  // Flip one payload byte: the checksum must reject it, loudly.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(30);  // inside the payload (header is 28 bytes)
    char c = 0;
    f.seekg(30);
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x40);
    f.seekp(30);
    f.write(&c, 1);
  }
  try {
    (void)system::readSnapshotFile(path);
    FAIL() << "corrupt snapshot was accepted";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
  }
}

TEST(DurableRunFile, TruncationAndWrongMagicThrow) {
  const std::string path = tempPath("trunc.snap");
  system::SnapshotWriter w;
  w.str("0123456789abcdef0123456789abcdef");
  system::writeSnapshotFile(path, w.payload());

  // Truncate mid-payload: a torn write must not parse.
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << "SOPSSNAP truncated";
  }
  EXPECT_THROW((void)system::readSnapshotFile(path), ContractViolation);

  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << "NOTASNAP" << std::string(40, '\0');
  }
  EXPECT_THROW((void)system::readSnapshotFile(path), ContractViolation);

  EXPECT_THROW((void)system::readSnapshotFile(tempPath("missing.snap")),
               ContractViolation);
}

TEST(DurableRunFile, TornPrimaryFallsBackToPrev) {
  const std::string path = tempPath("rotate.snap");
  system::SnapshotWriter first;
  first.u64(1);
  system::writeSnapshotFile(path, first.payload());
  system::SnapshotWriter second;
  second.u64(2);
  system::writeSnapshotFile(path, second.payload());  // rotates 1 → .prev

  // Primary intact: the newer state wins.  (The payload must outlive the
  // reader — SnapshotReader is a view, not an owner.)
  {
    const system::SnapshotData snapshot = system::loadResumableSnapshot(path);
    system::SnapshotReader r(snapshot.payload, snapshot.version);
    EXPECT_EQ(r.u64(), 2u);
  }
  // Tear the primary: the fallback must surface the previous durable
  // snapshot instead of failing the resume.
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << "torn";
  }
  {
    const system::SnapshotData snapshot = system::loadResumableSnapshot(path);
    system::SnapshotReader r(snapshot.payload, snapshot.version);
    EXPECT_EQ(r.u64(), 1u);
  }
  // Both torn: loud failure naming both.
  std::remove((path + ".prev").c_str());
  EXPECT_THROW((void)system::loadResumableSnapshot(path), ContractViolation);
}

// -- 2. golden kill-and-resume ----------------------------------------------

struct FinalState {
  std::vector<double> metrics;
  std::string arrangement;
  std::uint64_t steps = 0;
  bool cancelled = false;
  std::vector<std::pair<std::string, std::uint64_t>> counts;

  /// The replica record's count `name`, or nullopt when it has none.
  [[nodiscard]] std::optional<std::uint64_t> count(
      const std::string& name) const {
    for (const auto& [key, value] : counts) {
      if (key == name) return value;
    }
    return std::nullopt;
  }
};

/// Captures the final configuration (the part RunReport doesn't keep).
class FinalArrangementCapture : public sim::Observer {
 public:
  void onReplicaEnd(const sim::ReplicaSummary& summary) override {
    if (summary.replica == 0 && summary.finalSystem != nullptr) {
      arrangement = system::toText(*summary.finalSystem);
    }
  }
  std::string arrangement;
};

[[nodiscard]] FinalState runToEnd(const sim::RunSpec& spec,
                                  const sim::StopWhen& stopWhen = nullptr,
                                  core::CancelToken* token = nullptr) {
  FinalArrangementCapture capture;
  const sim::RunReport report = sim::run(spec, capture, stopWhen, token);
  FinalState out;
  out.metrics = report.replicas.at(0).finalMetrics;
  out.arrangement = capture.arrangement;
  out.steps = report.replicas.at(0).steps;
  out.cancelled = report.cancelled;
  out.counts = report.replicas.at(0).counts;
  return out;
}

[[nodiscard]] sim::RunSpec baseSpec(const std::string& scenario,
                                    unsigned threads) {
  sim::RunSpec spec;
  spec.scenario = scenario;
  spec.shape = "line";
  spec.n = 48;
  spec.steps = 30000;
  spec.checkpointEvery = 6000;
  spec.seed = 1603;
  spec.threads = threads;
  return spec;
}

/// The golden contract: run uninterrupted; run the same spec "killed"
/// after two checkpoints with a snapshot-file; resume in a fresh run.
/// Final arrangement, metrics, exact step count and the replica record's
/// seed-only counts (rejection-free epochs, outcome tallies) must all
/// agree.  Returns the killed run's and the resumed run's
/// final states.
std::pair<FinalState, FinalState> expectKillResumeIdentical(
    const sim::RunSpec& base, const std::string& tag,
    unsigned resumeThreads) {
  const FinalState uninterrupted = runToEnd(base);
  EXPECT_GT(uninterrupted.steps, 0u);

  const std::string snap = tempPath(tag + ".snap");
  sim::RunSpec partial = base;
  partial.steps = base.checkpointEvery * 2;  // die after two checkpoints
  partial.snapshotPath = snap;
  const FinalState atKill = runToEnd(partial);
  EXPECT_GE(atKill.steps, partial.steps);
  EXPECT_LT(atKill.steps, base.steps);

  sim::RunSpec resumed = base;
  resumed.resumePath = snap;
  resumed.threads = resumeThreads;
  const FinalState r = runToEnd(resumed);

  EXPECT_EQ(r.steps, uninterrupted.steps) << tag;
  EXPECT_EQ(r.arrangement, uninterrupted.arrangement) << tag;
  EXPECT_EQ(r.metrics, uninterrupted.metrics) << tag;
  EXPECT_EQ(r.counts, uninterrupted.counts) << tag;
  return {atKill, r};
}

TEST(DurableRunGolden, CompressionSequentialKillResume) {
  const sim::RunSpec spec = baseSpec("compression", 1);
  expectKillResumeIdentical(spec, "comp_seq", 1);
}

TEST(DurableRunGolden, CompressionShardedKillResume) {
  const sim::RunSpec spec = baseSpec("compression", 2);
  expectKillResumeIdentical(spec, "comp_sharded", 2);
}

TEST(DurableRunGolden, CompressionShardedResumeAtDifferentThreadCount) {
  // The sharded trajectory is a pure function of the seed for every
  // thread count > 1 — so is a resumed tail started at a different count.
  const sim::RunSpec spec = baseSpec("compression", 2);
  expectKillResumeIdentical(spec, "comp_sharded_hw", 4);
}

TEST(DurableRunGolden, CompressionRejectionFreeResumeAtDifferentThreadCount) {
  // An 8000-particle spiral at λ = 4 accepts about half of L/256 moves
  // per epoch, so every epoch after the first runs rejection-free: the
  // kill lands between rejection-free epochs, and the tail resumes at
  // four threads instead of two.
  sim::RunSpec spec = baseSpec("compression", 2);
  spec.shape = "spiral";
  spec.n = 8000;
  spec.steps = 20 * 16000;  // L = 2n = 16000 proposals per epoch
  spec.checkpointEvery = 4 * 16000;
  const auto [atKill, resumed] =
      expectKillResumeIdentical(spec, "comp_rejection_free", 4);
  EXPECT_EQ(atKill.count("rejection_free_epochs"),
            std::optional<std::uint64_t>(7));
  EXPECT_EQ(resumed.count("rejection_free_epochs"),
            std::optional<std::uint64_t>(19));
}

TEST(DurableRunGolden, SeparationSequentialKillResume) {
  // Color swaps exercise SeparationModel's aux-plane serialization.
  sim::RunSpec spec = baseSpec("separation", 1);
  spec.params.set("gamma", "4.0");
  expectKillResumeIdentical(spec, "sep_seq", 1);
}

TEST(DurableRunGolden, SeparationShardedKillResume) {
  sim::RunSpec spec = baseSpec("separation", 2);
  spec.params.set("gamma", "4.0");
  expectKillResumeIdentical(spec, "sep_sharded", 2);
}

TEST(DurableRunGolden, AlignmentSequentialKillResume) {
  sim::RunSpec spec = baseSpec("alignment", 1);
  spec.params.set("kappa", "4.0");
  expectKillResumeIdentical(spec, "ali_seq", 1);
}

TEST(DurableRunGolden, AlignmentShardedKillResume) {
  sim::RunSpec spec = baseSpec("alignment", 2);
  spec.params.set("kappa", "4.0");
  expectKillResumeIdentical(spec, "ali_sharded", 2);
}

TEST(DurableRunGolden, AmoebotKillResume) {
  const sim::RunSpec spec = baseSpec("amoebot", 2);
  expectKillResumeIdentical(spec, "amoebot", 2);
}

TEST(DurableRunGolden, AmoebotResumeAcrossThreadsOne) {
  // The amoebot runner is sharded at every thread count, threads = 1
  // included, so a snapshot written at four threads resumes at one.
  expectKillResumeIdentical(baseSpec("amoebot", 4), "amoebot_threads_one", 1);
}

TEST(DurableRunGolden, AmoebotWithCrashFaultsKillResume) {
  // Crashed-particle flags must survive the snapshot, or the resumed run
  // would wake the crashed particles and diverge.
  sim::RunSpec spec = baseSpec("amoebot", 2);
  spec.params.set("crash-fraction", "0.2");
  expectKillResumeIdentical(spec, "amoebot_crash", 2);
}

TEST(DurableRunGolden, AmoebotRejectionFreeResumeAtDifferentThreadCount) {
  // An 8000-particle spiral at λ = 4 has about L/70 non-Idle activations
  // per epoch, just under the L/64 route, so any epoch after the first
  // may run rejection-free or go back to the block path (at this seed all
  // nineteen route rejection-free); the kill lands between rejection-free
  // epochs, and the tail resumes at four threads instead of two.  The
  // outcome tallies in the replica record must agree too.
  sim::RunSpec spec = baseSpec("amoebot", 2);
  spec.shape = "spiral";
  spec.n = 8000;
  spec.steps = 20 * 16000;  // L = 2n = 16000 activations per epoch
  spec.checkpointEvery = 4 * 16000;
  const auto [atKill, resumed] =
      expectKillResumeIdentical(spec, "amoebot_rejection_free", 4);
  EXPECT_EQ(atKill.count("rejection_free_epochs"),
            std::optional<std::uint64_t>(7));
  EXPECT_EQ(resumed.count("rejection_free_epochs"),
            std::optional<std::uint64_t>(19));
  std::uint64_t executed = 0;
  for (const char* outcome :
       {"idle", "expanded", "moved_to_head", "contracted_back"}) {
    const std::optional<std::uint64_t> count = resumed.count(outcome);
    ASSERT_TRUE(count.has_value()) << outcome;
    executed += *count;
  }
  EXPECT_GT(executed, 0u);
  EXPECT_LE(executed, resumed.steps);
}

TEST(DurableRunGolden, ResumeRejectsMismatchedSpec) {
  sim::RunSpec spec = baseSpec("compression", 1);
  spec.steps = 12000;
  const std::string snap = tempPath("mismatch.snap");
  spec.snapshotPath = snap;
  (void)runToEnd(spec);

  // Different scenario parameter: a snapshot from λ=4 must not seed a
  // λ=2 run.
  sim::RunSpec other = baseSpec("compression", 1);
  other.resumePath = snap;
  other.params.set("lambda", "2.0");
  try {
    (void)runToEnd(other);
    FAIL() << "mismatched spec resumed";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("incompatible"), std::string::npos);
  }

  // Different execution regime (sequential snapshot, sharded resume).
  sim::RunSpec regime = baseSpec("compression", 2);
  regime.resumePath = snap;
  EXPECT_THROW((void)runToEnd(regime), ContractViolation);

  // Different seed.
  sim::RunSpec reseeded = baseSpec("compression", 1);
  reseeded.resumePath = snap;
  reseeded.seed = 7;
  EXPECT_THROW((void)runToEnd(reseeded), ContractViolation);
}

TEST(DurableRunGolden, SnapshotRequiresSingleReplica) {
  sim::RunSpec spec = baseSpec("compression", 1);
  spec.replicas = 2;
  spec.snapshotPath = tempPath("multi.snap");
  EXPECT_THROW((void)sim::run(spec), ContractViolation);
  spec.snapshotPath.clear();
  spec.resumePath = tempPath("multi.snap");
  EXPECT_THROW((void)sim::run(spec), ContractViolation);
}

// -- 3. cancellation --------------------------------------------------------

TEST(DurableRunCancel, TokenCancelLeavesResumableSnapshotMatchingGolden) {
  sim::RunSpec base = baseSpec("compression", 1);
  const FinalState uninterrupted = runToEnd(base);

  // Trip the token from the checkpoint-2 sample: the runner must finish
  // the sample, write the snapshot, and stop — reporting cancelled.
  const std::string snap = tempPath("cancel.snap");
  sim::RunSpec interrupted = base;
  interrupted.snapshotPath = snap;
  core::CancelToken token;
  const sim::StopWhen trip = [&](const sim::Sample& s) {
    if (s.iteration >= 2 * base.checkpointEvery) token.requestCancel();
    return false;
  };
  const FinalState partial = runToEnd(interrupted, trip, &token);
  EXPECT_TRUE(partial.cancelled);
  EXPECT_LT(partial.steps, base.steps);

  sim::RunSpec resumed = base;
  resumed.resumePath = snap;
  const FinalState r = runToEnd(resumed);
  EXPECT_FALSE(r.cancelled);
  EXPECT_EQ(r.steps, uninterrupted.steps);
  EXPECT_EQ(r.arrangement, uninterrupted.arrangement);
  EXPECT_EQ(r.metrics, uninterrupted.metrics);
}

TEST(DurableRunCancel, DeadlineCancelsAndResumeCompletesIdentically) {
  sim::RunSpec base = baseSpec("compression", 1);
  base.steps = 40000000;  // far more work than 1 ms allows
  base.checkpointEvery = 500000;
  const std::string snap = tempPath("deadline.snap");

  sim::RunSpec limited = base;
  limited.snapshotPath = snap;
  limited.deadlineMs = 1;
  const FinalState partial = runToEnd(limited);
  EXPECT_TRUE(partial.cancelled);
  EXPECT_LT(partial.steps, base.steps);

  // Resume with a deadline of its own — chained deadline slices must
  // still land on the uninterrupted trajectory, so instead of running
  // the 40M-step reference we check exact agreement at the next common
  // checkpoint via a second, longer slice.
  sim::RunSpec second = base;
  second.resumePath = snap;
  second.snapshotPath = snap;
  second.steps = partial.steps + base.checkpointEvery;
  const FinalState continued = runToEnd(second);
  EXPECT_FALSE(continued.cancelled);
  EXPECT_EQ(continued.steps, partial.steps + base.checkpointEvery);

  // Reference: one uninterrupted run to the same step count.
  sim::RunSpec reference = base;
  reference.steps = continued.steps;
  const FinalState ref = runToEnd(reference);
  EXPECT_EQ(continued.steps, ref.steps);
  EXPECT_EQ(continued.arrangement, ref.arrangement);
  EXPECT_EQ(continued.metrics, ref.metrics);
}

TEST(DurableRunCancel, MultiReplicaCancelSkipsUnstartedReplicas) {
  // threads=1 claims replicas inline in order, so the cut is exact:
  // replica 0 completes, replica 1 is interrupted at its first
  // checkpoint, replicas 2 and 3 are never started.
  sim::RunSpec spec = baseSpec("compression", 1);
  spec.replicas = 4;
  spec.threads = 1;
  core::CancelToken token;
  const sim::StopWhen trip = [&](const sim::Sample& s) {
    if (s.replica == 1 && s.iteration > 0) token.requestCancel();
    return false;
  };
  sim::Observer none;
  const sim::RunReport report = sim::run(spec, none, trip, &token);

  EXPECT_TRUE(report.cancelled);
  ASSERT_EQ(report.replicas.size(), 4u);
  EXPECT_EQ(report.replicas[0].steps, spec.steps);
  EXPECT_GT(report.replicas[1].steps, 0u);
  EXPECT_LT(report.replicas[1].steps, spec.steps);
  for (std::size_t r = 2; r < 4; ++r) {
    EXPECT_EQ(report.replicas[r].steps, 0u);
    EXPECT_EQ(report.replicas[r].seed, spec.replicaSeed(r));
    EXPECT_NE(report.replicas[r].label.find("cancelled before start"),
              std::string::npos);
    EXPECT_THROW((void)report.finalMetric(r, "edges"), ContractViolation);
  }
  EXPECT_NO_THROW((void)report.finalMetric(0, "edges"));
}

// -- 4. satellites ----------------------------------------------------------

TEST(DurableRunPreflight, UnwritableSinkPathFailsBeforeAnyCompute) {
  for (const char* key : {"csv", "jsonl", "svg", "snapshot"}) {
    sim::RunSpec spec = baseSpec("compression", 1);
    spec.steps = 1000000000;  // would take minutes if preflight ran late
    const std::string bad = "/nonexistent-sops-dir/out." + std::string(key);
    if (std::string(key) == "csv") spec.csvPath = bad;
    if (std::string(key) == "jsonl") spec.jsonlPath = bad;
    if (std::string(key) == "svg") spec.svgPath = bad;
    if (std::string(key) == "snapshot") spec.snapshotPath = bad;
    try {
      (void)sim::run(spec);
      FAIL() << key << " sink path was not preflighted";
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find("not writable"), std::string::npos)
          << key;
    }
  }
}

TEST(DurableRunBuffer, MemorySinkCapFailsLoudlyNamingTheCap) {
  sim::MemorySink sink(3);
  const std::vector<double> values = {1.0};
  sink.onSample(sim::Sample{0, 0, values});
  sink.onSample(sim::Sample{0, 1, values});
  sink.onSample(sim::Sample{0, 2, values});
  try {
    sink.onSample(sim::Sample{0, 3, values});
    FAIL() << "cap not enforced";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("cap of 3"), std::string::npos);
  }
  // Unbounded by default: the test seam stays frictionless.
  sim::MemorySink unbounded;
  for (int i = 0; i < 100; ++i) {
    unbounded.onSample(sim::Sample{0, static_cast<std::uint64_t>(i), values});
  }
  EXPECT_EQ(unbounded.samples().size(), 100u);
}

TEST(DurableRunSerialize, StrictTextParsingNamesTheDefect) {
  const auto expectError = [](std::string_view text, const char* needle) {
    try {
      (void)system::fromText(text);
      FAIL() << "accepted: " << text;
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << text << " → " << e.what();
    }
  };
  expectError("1.5,2", "not an integer");
  expectError("0,0 1,2.5", "not an integer");
  expectError("1 2", "expected ','");
  expectError("3,4x", "trailing garbage");
  expectError("0,0 3,4,5", "trailing garbage");
  expectError("99999999999,0", "overflows");
  expectError("a,b", "expected integer");
  expectError("3,", "expected integer");

  // The happy path still round-trips exactly, whitespace-insensitively.
  const system::ParticleSystem sys = system::fromText("0,0\n 1,0\t2,0");
  EXPECT_EQ(sys.size(), 3u);
  EXPECT_EQ(system::fromText(system::toText(sys)).size(), 3u);
}

TEST(DurableRunFaults, AmoebotCrashFractionRunsDeterministicallyViaFacade) {
  sim::RunSpec spec = baseSpec("amoebot", 2);
  spec.steps = 12000;
  spec.params.set("crash-fraction", "0.25");
  const FinalState a = runToEnd(spec);
  const FinalState b = runToEnd(spec);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.arrangement, b.arrangement);
  EXPECT_EQ(a.metrics, b.metrics);

  // Faults change the trajectory: the fault-free run differs.
  sim::RunSpec clean = spec;
  clean.params.erase("crash-fraction");
  const FinalState c = runToEnd(clean);
  EXPECT_NE(a.arrangement, c.arrangement);

  sim::RunSpec invalid = spec;
  invalid.params.set("crash-fraction", "1.5");
  EXPECT_THROW((void)sim::run(invalid), ContractViolation);
}

TEST(DurableRunFaults, AmoebotCompressesAroundCrashedParticles) {
  // §3.3 through the facade: with a fifth of the particles pinned where
  // they stand, the survivors still lower the perimeter (slowly — every
  // pinned cell of the initial line is held forever) and the aggregate
  // stays connected.
  sim::RunSpec spec = baseSpec("amoebot", 2);
  spec.steps = 1000000;
  spec.checkpointEvery = 500000;
  spec.params.set("crash-fraction", "0.2");
  FinalArrangementCapture capture;
  std::vector<double> initial;
  const sim::StopWhen recordStart = [&](const sim::Sample& s) {
    if (s.iteration == 0) initial = {s.values.begin(), s.values.end()};
    return false;
  };
  const sim::RunReport report = sim::run(spec, capture, recordStart);
  ASSERT_FALSE(initial.empty());
  const std::size_t perimeterIdx = [&] {
    const auto& names = report.metricNames;
    return static_cast<std::size_t>(
        std::find(names.begin(), names.end(), "perimeter") - names.begin());
  }();
  EXPECT_LT(report.finalMetric(0, "perimeter"), initial[perimeterIdx]);
  const system::ParticleSystem tails = system::fromText(capture.arrangement);
  EXPECT_EQ(tails.size(), spec.n);
  EXPECT_TRUE(system::isConnected(tails));
}

// -- 5. background snapshot writer -----------------------------------------

/// The step count a snapshot file records (its payload opens with the
/// compat key and the replica index).
[[nodiscard]] std::uint64_t snapshotSteps(const std::string& path) {
  const system::SnapshotData data = system::readSnapshotFile(path);
  system::SnapshotReader r(data.payload, data.version);
  (void)r.str();
  (void)r.u64();
  return r.u64();
}

TEST(DurableRunWriter, PrimaryHoldsTheLastStepOnEveryExit) {
  // Writes run in the background, but sim::run drains the writer on every
  // exit: the primary snapshot holds the report's last step and `.prev`
  // the checkpoint before it — after the last step, a StopWhen stop and a
  // token cancel alike.  Sharded (threads = 2, checkpoints rounded up to
  // whole epochs), so block workers, the writer and the run thread all
  // overlap.
  const sim::RunSpec base = baseSpec("compression", 2);
  const std::uint64_t stopAt = 2 * base.checkpointEvery;
  // One exit: `stop` sees every sample (and may cancel); returns true to
  // stop the run there.
  const auto expectDrained =
      [&](const std::string& tag,
          const std::function<bool(std::uint64_t)>& stop,
          core::CancelToken* token, bool expectCancelled) {
        sim::RunSpec spec = base;
        spec.snapshotPath = tempPath("drain_" + tag + ".snap");
        std::vector<std::uint64_t> sampled;
        const FinalState state = runToEnd(
            spec,
            [&](const sim::Sample& s) {
              sampled.push_back(s.iteration);
              return stop(s.iteration);
            },
            token);
        EXPECT_EQ(state.cancelled, expectCancelled) << tag;
        if (tag != "end") {
          EXPECT_LT(state.steps, base.steps) << tag;
        }
        ASSERT_GE(sampled.size(), 3u) << tag;
        EXPECT_EQ(sampled.back(), state.steps) << tag;
        EXPECT_EQ(snapshotSteps(spec.snapshotPath), state.steps) << tag;
        EXPECT_EQ(snapshotSteps(spec.snapshotPath + ".prev"),
                  sampled[sampled.size() - 2])
            << tag;
      };

  expectDrained("end", [](std::uint64_t) { return false; }, nullptr, false);
  expectDrained(
      "stop", [&](std::uint64_t step) { return step >= stopAt; }, nullptr,
      false);
  core::CancelToken token;
  expectDrained(
      "cancel",
      [&](std::uint64_t step) {
        if (step >= stopAt) token.requestCancel();
        return false;
      },
      &token, true);
}

/// Removes a directory once, at the first sample after the baseline.
class DirectoryRemover : public sim::Observer {
 public:
  explicit DirectoryRemover(std::filesystem::path dir)
      : dir_(std::move(dir)) {}
  void onSample(const sim::Sample& s) override {
    if (s.iteration == 0 || removed_) return;
    // The baseline write may still be creating files in it: retry until
    // the directory is gone.  Nothing else is written until this returns.
    std::error_code ignored;
    while (std::filesystem::exists(dir_)) {
      std::filesystem::remove_all(dir_, ignored);
    }
    removed_ = true;
  }

 private:
  std::filesystem::path dir_;
  bool removed_ = false;
};

TEST(DurableRunWriter, FailedWriteMidRunThrowsNamingThePath) {
  const std::filesystem::path dir = tempPath("vanishing_dir");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  sim::RunSpec spec = baseSpec("compression", 1);
  spec.snapshotPath = (dir / "run.snap").string();
  DirectoryRemover remover(dir);
  try {
    (void)sim::run(spec, remover);
    FAIL() << "a snapshot write into a removed directory was swallowed";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find(spec.snapshotPath),
              std::string::npos)
        << e.what();
  }
}

/// Throws from the sample after the given step.
class FailingObserver : public sim::Observer {
 public:
  explicit FailingObserver(std::uint64_t after) : after_(after) {}
  void onSample(const sim::Sample& s) override {
    if (s.iteration > after_) throw std::runtime_error("observer failed");
  }

 private:
  std::uint64_t after_;
};

TEST(DurableRunWriter, ObserverErrorUnwindsPastTheInFlightWrite) {
  // The observer throws while the previous checkpoint's write may still be
  // running: the error reaches the caller, and the unwind waits for that
  // write, so the file it leaves is whole and holds that checkpoint.
  sim::RunSpec spec = baseSpec("compression", 1);
  spec.snapshotPath = tempPath("unwind.snap");
  const std::uint64_t lastWritten = 2 * spec.checkpointEvery;
  FailingObserver failing(lastWritten);
  EXPECT_THROW((void)sim::run(spec, failing), std::runtime_error);
  EXPECT_EQ(snapshotSteps(spec.snapshotPath), lastWritten);
  EXPECT_EQ(snapshotSteps(spec.snapshotPath + ".prev"),
            lastWritten - spec.checkpointEvery);
}

}  // namespace
}  // namespace sops

#ifndef SOPS_SIM_OBSERVER_HPP
#define SOPS_SIM_OBSERVER_HPP

/// \file observer.hpp
/// Streaming measurement hooks for facade runs.
///
/// Observers replace the inline measurement loops every bench/example used
/// to hand-roll: the runner samples each replica's declared metrics at
/// every checkpoint and streams them — plus optional configuration
/// snapshots and one summary per replica — through an Observer.  Shipped
/// sinks cover the common cases: CSV (analysis/csv), JSONL, ASCII/SVG
/// snapshots (io/), an in-memory sink for tests, and a fan-out list.
///
/// Ordering contract: onRunBegin, then for each replica in *replica
/// order* its samples in iteration order interleaved with its snapshots,
/// then that replica's onReplicaEnd, then onRunEnd.  Multi-replica runs
/// buffer per-replica events on the workers and replay them in replica
/// order on the caller's thread, so sink output is deterministic and
/// independent of the thread count.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analysis/csv.hpp"
#include "system/particle_system.hpp"

namespace sops::sim {

struct RunSpec;

/// Passed to onRunBegin: the spec being run and the metric columns every
/// Sample's values align with.
struct RunHeader {
  const RunSpec* spec = nullptr;
  std::vector<std::string> metricNames;
};

struct Sample {
  std::size_t replica = 0;
  std::uint64_t iteration = 0;
  std::span<const double> values;  ///< aligned with RunHeader::metricNames
};

struct ReplicaSummary {
  std::size_t replica = 0;
  std::string label;
  std::uint64_t seed = 0;
  std::uint64_t steps = 0;  ///< exact steps executed
  std::vector<double> finalMetrics;
  double wallSeconds = 0.0;
  /// Occupancy regime at the end of the replica ("dense-flat" or
  /// "dense-tiled"), or "" when the scenario does not report one
  /// (ScenarioRun::regime).
  std::string regime;
  /// Named seed-only counts (ScenarioRun::counts), each emitted as its own
  /// key of the JSONL replica record.
  std::vector<std::pair<std::string, std::uint64_t>> counts;
  /// The replica's final configuration; valid only for the duration of the
  /// onReplicaEnd call (copy it to keep it).
  const system::ParticleSystem* finalSystem = nullptr;
};

class Observer {
 public:
  virtual ~Observer() = default;
  virtual void onRunBegin(const RunHeader& header) { (void)header; }
  virtual void onSample(const Sample& sample) { (void)sample; }
  virtual void onSnapshot(std::size_t replica, std::uint64_t iteration,
                          const system::ParticleSystem& sys) {
    (void)replica;
    (void)iteration;
    (void)sys;
  }
  virtual void onReplicaEnd(const ReplicaSummary& summary) { (void)summary; }
  virtual void onRunEnd() {}
};

/// Fans every event out to the attached observers (not owned), in
/// attachment order.
class ObserverList : public Observer {
 public:
  void attach(Observer* observer);

  void onRunBegin(const RunHeader& header) override;
  void onSample(const Sample& sample) override;
  void onSnapshot(std::size_t replica, std::uint64_t iteration,
                  const system::ParticleSystem& sys) override;
  void onReplicaEnd(const ReplicaSummary& summary) override;
  void onRunEnd() override;

 private:
  std::vector<Observer*> observers_;
};

/// Samples as CSV rows: replica, iteration, then one column per metric.
class CsvSink : public Observer {
 public:
  explicit CsvSink(std::string path) : path_(std::move(path)) {}

  void onRunBegin(const RunHeader& header) override;
  void onSample(const Sample& sample) override;

  [[nodiscard]] bool ok() const {
    return writer_ != nullptr && writer_->ok();
  }

 private:
  std::string path_;
  std::unique_ptr<analysis::CsvWriter> writer_;
};

/// One JSON object per line: the run spec, every sample, every replica
/// summary, and a final run record — machine-readable without a schema.
class JsonlSink : public Observer {
 public:
  explicit JsonlSink(std::string path) : path_(std::move(path)) {}

  void onRunBegin(const RunHeader& header) override;
  void onSample(const Sample& sample) override;
  void onReplicaEnd(const ReplicaSummary& summary) override;
  void onRunEnd() override;

  [[nodiscard]] bool ok() const { return static_cast<bool>(out_); }

 private:
  std::string path_;
  std::ofstream out_;
  std::vector<std::string> metricNames_;
};

/// Streams ASCII renderings of snapshots (and each replica's final
/// configuration) to a stdio stream — the quickstart/demo view.
class AsciiSnapshotSink : public Observer {
 public:
  explicit AsciiSnapshotSink(std::FILE* out = stdout) : out_(out) {}

  void onSnapshot(std::size_t replica, std::uint64_t iteration,
                  const system::ParticleSystem& sys) override;
  void onReplicaEnd(const ReplicaSummary& summary) override;

 private:
  std::FILE* out_;
};

/// Writes replica 0's final configuration as an SVG (paper-figure style).
class SvgSink : public Observer {
 public:
  explicit SvgSink(std::string path) : path_(std::move(path)) {}

  void onReplicaEnd(const ReplicaSummary& summary) override;

 private:
  std::string path_;
};

/// Records everything in memory — the test seam, and the buffer the
/// multi-replica runner uses to replay worker-side events in replica
/// order.
class MemorySink : public Observer {
 public:
  /// `maxBufferedEvents` bounds the total recorded events (samples +
  /// snapshots + summaries); recording past the cap throws a
  /// ContractViolation naming it.  0 = unbounded (the test default).  The
  /// multi-replica runner buffers with a per-replica cap so a
  /// steps/checkpoint ratio that would buffer millions of rows fails
  /// loudly instead of creeping toward OOM.
  explicit MemorySink(std::size_t maxBufferedEvents = 0)
      : maxBufferedEvents_(maxBufferedEvents) {}

  struct StoredSample {
    std::size_t replica;
    std::uint64_t iteration;
    std::vector<double> values;
  };
  struct StoredSnapshot {
    std::size_t replica;
    std::uint64_t iteration;
    system::ParticleSystem system;
  };
  struct StoredSummary {
    /// finalSystem points at `system`, or stays null when the summary was
    /// recorded without a final configuration.
    ReplicaSummary summary;
    system::ParticleSystem system;  ///< owned copy of the final state
    bool hasSystem = false;
  };

  void onRunBegin(const RunHeader& header) override;
  void onSample(const Sample& sample) override;
  void onSnapshot(std::size_t replica, std::uint64_t iteration,
                  const system::ParticleSystem& sys) override;
  void onReplicaEnd(const ReplicaSummary& summary) override;

  /// Replays the recorded events (in recorded order) into another
  /// observer.  Run boundaries (onRunBegin/onRunEnd) are emitted only when
  /// requested — the multi-replica runner replays per-replica buffers into
  /// an already-opened run.
  void replayInto(Observer& target, bool withRunBoundaries = false) const;

  [[nodiscard]] const RunHeader& header() const noexcept { return header_; }
  [[nodiscard]] const std::vector<StoredSample>& samples() const noexcept {
    return samples_;
  }
  [[nodiscard]] const std::vector<StoredSnapshot>& snapshots() const noexcept {
    return snapshots_;
  }
  [[nodiscard]] const std::vector<StoredSummary>& summaries() const noexcept {
    return summaries_;
  }

 private:
  /// Interleaving record so replayInto preserves sample/snapshot order.
  enum class EventKind : std::uint8_t { Sample, Snapshot, Summary };

  /// Records one event in order, enforcing the buffer cap.
  void record(EventKind kind);

  std::size_t maxBufferedEvents_ = 0;
  RunHeader header_;
  std::vector<StoredSample> samples_;
  std::vector<StoredSnapshot> snapshots_;
  std::vector<StoredSummary> summaries_;
  std::vector<EventKind> order_;
};

/// Fail-fast writability probe for a sink path, run before any compute:
/// opens `path` for append (never truncating an existing file) and throws
/// ContractViolation naming the path if it cannot.  sim::run() preflights
/// every path the spec names (csv/jsonl/svg/snapshot-file) so a typo'd
/// directory fails in milliseconds, not after the run.
void preflightWritableSink(const std::string& path);

}  // namespace sops::sim

#endif  // SOPS_SIM_OBSERVER_HPP

#include "sim/observer.hpp"

#include <cmath>

#include "io/ascii_render.hpp"
#include "io/svg.hpp"
#include "sim/run_spec.hpp"
#include "util/assert.hpp"

namespace sops::sim {
namespace {

/// JSON string escaping for the JSONL sink (keys are identifiers; values
/// may carry arbitrary labels/paths).
[[nodiscard]] std::string jsonEscaped(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  out += '"';
  return out;
}

[[nodiscard]] std::string jsonNumber(double value) {
  // JSON has no nan/inf literals; a non-finite metric becomes null so
  // every emitted line stays loadable by a strict parser
  // (tools/check_spps_smoke.py rejects the lenient literals in CI).
  if (!std::isfinite(value)) return "null";
  return analysis::formatDouble(value, 12);
}

}  // namespace

// -- ObserverList -----------------------------------------------------------

void ObserverList::attach(Observer* observer) {
  SOPS_REQUIRE(observer != nullptr, "cannot attach a null observer");
  observers_.push_back(observer);
}

void ObserverList::onRunBegin(const RunHeader& header) {
  for (Observer* o : observers_) o->onRunBegin(header);
}
void ObserverList::onSample(const Sample& sample) {
  for (Observer* o : observers_) o->onSample(sample);
}
void ObserverList::onSnapshot(std::size_t replica, std::uint64_t iteration,
                              const system::ParticleSystem& sys) {
  for (Observer* o : observers_) o->onSnapshot(replica, iteration, sys);
}
void ObserverList::onReplicaEnd(const ReplicaSummary& summary) {
  for (Observer* o : observers_) o->onReplicaEnd(summary);
}
void ObserverList::onRunEnd() {
  for (Observer* o : observers_) o->onRunEnd();
}

// -- CsvSink ----------------------------------------------------------------

void CsvSink::onRunBegin(const RunHeader& header) {
  std::vector<std::string> columns = {"replica", "iteration"};
  columns.insert(columns.end(), header.metricNames.begin(),
                 header.metricNames.end());
  writer_ = std::make_unique<analysis::CsvWriter>(path_, columns);
  SOPS_REQUIRE(writer_->ok(), "cannot open CSV sink: " + path_);
}

void CsvSink::onSample(const Sample& sample) {
  SOPS_REQUIRE(writer_ != nullptr, "CSV sink used before onRunBegin");
  std::vector<std::string> cells;
  cells.reserve(2 + sample.values.size());
  cells.push_back(std::to_string(sample.replica));
  cells.push_back(std::to_string(sample.iteration));
  for (const double value : sample.values) {
    cells.push_back(analysis::formatDouble(value, 10));
  }
  writer_->writeRow(cells);
}

// -- JsonlSink --------------------------------------------------------------

void JsonlSink::onRunBegin(const RunHeader& header) {
  out_.open(path_);
  SOPS_REQUIRE(out_.good(), "cannot open JSONL sink: " + path_);
  metricNames_ = header.metricNames;
  out_ << "{\"type\":\"run\",\"spec\":"
       << jsonEscaped(header.spec != nullptr ? header.spec->toText() : "")
       << ",\"metrics\":[";
  for (std::size_t i = 0; i < metricNames_.size(); ++i) {
    if (i > 0) out_ << ',';
    out_ << jsonEscaped(metricNames_[i]);
  }
  out_ << "]}\n";
}

void JsonlSink::onSample(const Sample& sample) {
  // A sample wider than the declared metric row would walk off
  // metricNames_; a narrower one would silently drop declared columns.
  // Either way the scenario lied about its metrics — fail loudly.
  SOPS_REQUIRE(sample.values.size() == metricNames_.size(),
               "JSONL sink: sample has " +
                   std::to_string(sample.values.size()) + " values but the "
                   "scenario declared " + std::to_string(metricNames_.size()) +
                   " metrics");
  out_ << "{\"type\":\"sample\",\"replica\":" << sample.replica
       << ",\"iteration\":" << sample.iteration;
  for (std::size_t i = 0; i < sample.values.size(); ++i) {
    out_ << ',' << jsonEscaped(metricNames_[i]) << ':'
         << jsonNumber(sample.values[i]);
  }
  out_ << "}\n";
}

void JsonlSink::onReplicaEnd(const ReplicaSummary& summary) {
  // Same fail-loud contract as onSample: a summary whose finalMetrics
  // width disagrees with the declared header would otherwise silently
  // drop or misalign columns in the replica record.
  SOPS_REQUIRE(summary.finalMetrics.size() == metricNames_.size(),
               "JSONL sink: replica summary has " +
                   std::to_string(summary.finalMetrics.size()) +
                   " final metrics but the scenario declared " +
                   std::to_string(metricNames_.size()) + " metrics");
  out_ << "{\"type\":\"replica\",\"replica\":" << summary.replica
       << ",\"label\":" << jsonEscaped(summary.label)
       << ",\"seed\":" << summary.seed << ",\"steps\":" << summary.steps
       << ",\"wall_seconds\":" << jsonNumber(summary.wallSeconds);
  if (!summary.regime.empty()) {
    out_ << ",\"regime\":" << jsonEscaped(summary.regime);
  }
  for (const auto& [name, count] : summary.counts) {
    out_ << ',' << jsonEscaped(name) << ':' << count;
  }
  for (std::size_t i = 0; i < summary.finalMetrics.size(); ++i) {
    out_ << ',' << jsonEscaped(metricNames_[i]) << ':'
         << jsonNumber(summary.finalMetrics[i]);
  }
  out_ << "}\n";
}

void JsonlSink::onRunEnd() {
  out_ << "{\"type\":\"end\"}\n";
  out_.flush();
}

// -- AsciiSnapshotSink ------------------------------------------------------

void AsciiSnapshotSink::onSnapshot(std::size_t replica, std::uint64_t iteration,
                                   const system::ParticleSystem& sys) {
  std::fprintf(out_, "replica %zu after %llu steps:\n%s\n", replica,
               static_cast<unsigned long long>(iteration),
               io::renderAscii(sys).c_str());
}

void AsciiSnapshotSink::onReplicaEnd(const ReplicaSummary& summary) {
  if (summary.finalSystem == nullptr) return;
  std::fprintf(out_, "replica %zu final (%llu steps):\n%s\n", summary.replica,
               static_cast<unsigned long long>(summary.steps),
               io::renderAscii(*summary.finalSystem).c_str());
}

// -- SvgSink ----------------------------------------------------------------

void SvgSink::onReplicaEnd(const ReplicaSummary& summary) {
  if (summary.replica != 0 || summary.finalSystem == nullptr) return;
  SOPS_REQUIRE(io::writeSvg(*summary.finalSystem, path_),
               "cannot write SVG sink: " + path_);
}

// -- MemorySink -------------------------------------------------------------

void MemorySink::onRunBegin(const RunHeader& header) { header_ = header; }

void MemorySink::record(EventKind kind) {
  SOPS_REQUIRE(maxBufferedEvents_ == 0 || order_.size() < maxBufferedEvents_,
               "MemorySink: buffered event cap of " +
                   std::to_string(maxBufferedEvents_) +
                   " events exceeded — lower the steps/checkpoint ratio or "
                   "stream the run instead of buffering it");
  order_.push_back(kind);
}

void MemorySink::onSample(const Sample& sample) {
  record(EventKind::Sample);
  samples_.push_back(StoredSample{
      sample.replica, sample.iteration,
      std::vector<double>(sample.values.begin(), sample.values.end())});
}

void MemorySink::onSnapshot(std::size_t replica, std::uint64_t iteration,
                            const system::ParticleSystem& sys) {
  record(EventKind::Snapshot);
  snapshots_.push_back(StoredSnapshot{replica, iteration, sys});
}

void MemorySink::onReplicaEnd(const ReplicaSummary& summary) {
  record(EventKind::Summary);
  StoredSummary stored;
  stored.summary = summary;
  stored.hasSystem = summary.finalSystem != nullptr;
  if (stored.hasSystem) stored.system = *summary.finalSystem;
  summaries_.push_back(std::move(stored));
  // push_back may have relocated earlier elements; re-anchor every stored
  // summary's pointer at its own copy (null stays null — a summary
  // recorded without a final system must replay without one).
  for (StoredSummary& s : summaries_) {
    s.summary.finalSystem = s.hasSystem ? &s.system : nullptr;
  }
}

void MemorySink::replayInto(Observer& target, bool withRunBoundaries) const {
  if (withRunBoundaries) target.onRunBegin(header_);
  std::size_t sample = 0;
  std::size_t snapshot = 0;
  std::size_t summary = 0;
  for (const EventKind kind : order_) {
    switch (kind) {
      case EventKind::Sample: {
        const StoredSample& s = samples_[sample++];
        target.onSample(Sample{s.replica, s.iteration, s.values});
        break;
      }
      case EventKind::Snapshot: {
        const StoredSnapshot& s = snapshots_[snapshot++];
        target.onSnapshot(s.replica, s.iteration, s.system);
        break;
      }
      case EventKind::Summary:
        target.onReplicaEnd(summaries_[summary++].summary);
        break;
    }
  }
  if (withRunBoundaries) target.onRunEnd();
}

// -- preflight --------------------------------------------------------------

void preflightWritableSink(const std::string& path) {
  // Append mode probes writability (creating the file if missing) without
  // truncating anything already there — the sink itself decides later
  // whether to truncate or rotate.
  std::FILE* f = std::fopen(path.c_str(), "ab");
  SOPS_REQUIRE(f != nullptr, "sink path is not writable: " + path);
  std::fclose(f);
}

}  // namespace sops::sim

#ifndef SOPS_SYSTEM_SNAPSHOT_HPP
#define SOPS_SYSTEM_SNAPSHOT_HPP

/// \file snapshot.hpp
/// Versioned, checksummed binary snapshots of run state, written atomically.
///
/// A snapshot file is a framed payload:
///
///   bytes 0..7    magic "SOPSSNAP"
///   bytes 8..11   format version (u32 little-endian, currently 7)
///   bytes 12..19  payload length in bytes (u64 LE)
///   bytes 20..27  FNV-1a-64 checksum of the payload (u64 LE)
///   bytes 28..    payload
///
/// The payload is a flat little-endian byte stream produced by
/// SnapshotWriter and consumed by SnapshotReader: typed primitives only
/// (u8/u32/u64/i64/f64, length-prefixed strings and byte blobs), every
/// read bounds-checked, so a truncated or bit-flipped file fails loudly at
/// the frame checksum or at the first short read — never by silently
/// misinterpreting state.
///
/// Durability discipline (writeSnapshotFile):
///   1. write to `<path>.tmp`, fflush + fsync, close;
///   2. rotate an existing `<path>` to `<path>.prev` (rename);
///   3. rename `<path>.tmp` → `<path>`;
///   4. fsync the containing directory.
/// A crash at any point leaves either the previous durable snapshot at
/// `<path>` or at `<path>.prev`; loadResumableSnapshot() tries `<path>`
/// first and falls back to `<path>.prev` when the primary is torn,
/// truncated, or missing.  The header and the caller's payload go out as
/// two writes, with no framed copy of the payload.
///
/// writeSnapshotFile touches only its arguments and the file system, so
/// it may run on any thread: sim::run serializes a checkpoint on the run
/// thread (SnapshotWriter) and hands the payload to one background writer
/// that calls it while the chain advances.

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "rng/random.hpp"
#include "system/particle_system.hpp"

namespace sops::system {

/// FNV-1a 64-bit over a byte range — the frame checksum.
[[nodiscard]] std::uint64_t snapshotChecksum(
    std::span<const std::uint8_t> bytes) noexcept;

/// Current frame format version.  v7: the sharded amoebot runner's payload
/// ends with its outcome tallies (Idle, Expanded, MovedToHead,
/// ContractedBack) and its epoch-routing state — the last epoch's non-Idle
/// count and the rejection-free epoch count; v5/v6 amoebot payloads still
/// restore (tallies at zero, routing starting over on the block path);
/// chain payloads did not change.  v6: the sharded chain runner's payload
/// ends with its epoch-routing state — the last epoch's accepted count and
/// the rejection-free epoch count; v4/v5 chain payloads still restore
/// (routing starts over on the block path).  v5: the sharded amoebot
/// runner's payload is the block executor's — epoch length, epoch index
/// and boundary-skip count; its restore rejects older payloads, which the
/// Poisson-clock runner wrote (clock and coin streams per particle,
/// adaptive epoch target); chain payloads did not change.  v4: the sharded
/// chain runner's payload is the block executor's — system, model,
/// tallies, e(σ), epoch index and boundary-reject count; its restore
/// rejects older payloads, which the Poisson-clock runner wrote
/// (per-particle clock and coin streams, epoch target, id-plane
/// directory).  v3: occupancy serializes a
/// backend tag
/// (hash-only / flat window / tiled directory, with the tiled grid's exact
/// allocated-tile set).  v2 payloads (flat or hash-only) are still
/// accepted by every other reader: their occupancy byte layout is a strict
/// subset of v3's.  v1 payloads stored full (seed, state) Random pairs, so
/// they must fail loudly rather than be misread.
inline constexpr std::uint32_t kSnapshotVersion = 7;

/// Oldest frame version readSnapshotFile still accepts.
inline constexpr std::uint32_t kMinSnapshotVersion = 2;

/// Accumulates a snapshot payload as typed little-endian primitives.
class SnapshotWriter {
 public:
  /// Makes room for `additionalBytes` more payload bytes up front, so a
  /// writer of a known-size record grows the buffer once.
  void reserve(std::size_t additionalBytes);
  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void f64(double v);
  /// Length-prefixed (u64) byte string.
  void str(std::string_view v);
  void bytes(std::span<const std::uint8_t> v);

  /// Appends `count` bytes and returns them for the caller to fill: a
  /// bulk record grows the buffer once instead of once per primitive.  The
  /// span is valid until the next call on this writer.
  [[nodiscard]] std::span<std::uint8_t> append(std::size_t count);

  [[nodiscard]] const std::vector<std::uint8_t>& payload() const noexcept {
    return payload_;
  }
  /// Moves the payload out, leaving the writer empty — hands a finished
  /// snapshot to another owner without copying it.
  [[nodiscard]] std::vector<std::uint8_t> take() && noexcept {
    return std::move(payload_);
  }

 private:
  std::vector<std::uint8_t> payload_;
};

/// Bounds-checked reader over a snapshot payload.  Every short read throws
/// ContractViolation naming the field kind; finish() requires the payload
/// to be fully consumed (trailing bytes are corruption, not padding).
/// The reader is a *view*: the payload bytes must outlive it — never
/// construct one from a temporary (e.g. directly from the return value of
/// loadResumableSnapshot).
class SnapshotReader {
 public:
  /// `version` is the frame version the payload was read from (see
  /// SnapshotData); consumers branch on it for fields newer versions
  /// appended.  Defaults to current for payloads built in-process.
  explicit SnapshotReader(std::span<const std::uint8_t> payload,
                          std::uint32_t version = kSnapshotVersion) noexcept
      : payload_(payload), version_(version) {}

  /// Frame version of the payload under this reader.
  [[nodiscard]] std::uint32_t version() const noexcept { return version_; }

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::int64_t i64();
  [[nodiscard]] double f64();
  [[nodiscard]] std::string str();
  [[nodiscard]] std::vector<std::uint8_t> bytes();

  [[nodiscard]] std::size_t remaining() const noexcept {
    return payload_.size() - pos_;
  }
  /// Throws unless the payload is fully consumed.
  void finish() const;

 private:
  void need(std::size_t count, const char* what) const;

  std::span<const std::uint8_t> payload_;
  std::size_t pos_ = 0;
  std::uint32_t version_ = kSnapshotVersion;
};

/// A verified snapshot payload together with the frame version it was
/// framed as — construct the SnapshotReader with both so version-gated
/// fields resolve correctly.
struct SnapshotData {
  std::uint32_t version = kSnapshotVersion;
  std::vector<std::uint8_t> payload;
};

/// Writes `payload` to `path` with the frame header, atomically (see file
/// comment for the tmp/fsync/rotate/rename discipline).  Throws
/// ContractViolation on any I/O failure.  `version` stamps the frame
/// header and must be in [kMinSnapshotVersion, kSnapshotVersion] — the
/// non-default values exist for tests that craft older frames; the writer
/// does not down-convert the payload bytes.
void writeSnapshotFile(const std::string& path,
                       std::span<const std::uint8_t> payload,
                       std::uint32_t version = kSnapshotVersion);

/// Reads and verifies one snapshot file: magic, version (any supported
/// one), length, checksum.  Throws ContractViolation (naming the path and
/// the failure) on a missing, torn, truncated, or corrupt file.
[[nodiscard]] SnapshotData readSnapshotFile(const std::string& path);

/// readSnapshotFile(path), falling back to `<path>.prev` when the primary
/// is unreadable or fails verification (the window between rotate and
/// rename, or a torn write).  Throws only when both fail, with both
/// errors in the message.
[[nodiscard]] SnapshotData loadResumableSnapshot(const std::string& path);

/// Serializes a ParticleSystem: positions plus a backend tag (1 flat
/// window, 2 tiled; 0 only for an empty system) and the backend's exact
/// geometry — the window rectangle for flat, the sorted allocated-tile
/// coordinate list for tiled.  Restore reproduces that geometry verbatim,
/// so a resumed run writes the same later snapshots as an uninterrupted
/// one (see ParticleSystem::restoreWindowGeometry / restoreTiledGeometry).
/// Tags 0 and 1 are byte-identical to frame v2's.  The reader still
/// accepts tag 0 on a non-empty system — the hash-only regime older runs
/// could record — and restores it in the default dense regime.
void writeParticleSystem(SnapshotWriter& w, const ParticleSystem& sys);
[[nodiscard]] ParticleSystem readParticleSystem(SnapshotReader& r);

/// Serializes an rng::Random exactly: seed plus the 256-bit engine state.
void writeRandom(SnapshotWriter& w, const rng::Random& random);
[[nodiscard]] rng::Random readRandom(SnapshotReader& r);

}  // namespace sops::system

#endif  // SOPS_SYSTEM_SNAPSHOT_HPP

#include "system/snapshot.hpp"

#include <array>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "util/assert.hpp"

#if defined(_WIN32)
#include <io.h>
#else
#include <fcntl.h>
#include <unistd.h>
#endif

namespace sops::system {

namespace {

constexpr char kMagic[8] = {'S', 'O', 'P', 'S', 'S', 'N', 'A', 'P'};
constexpr std::size_t kHeaderBytes = 8 + 4 + 8 + 8;

/// Stores the low `bytes` bytes of v at dst, least significant first.  On
/// a little-endian host that is a memcpy, one store once inlined; a
/// byte loop is not merged into one at -O2.
void storeLE(std::uint8_t* dst, std::uint64_t v, int bytes) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(dst, &v, static_cast<std::size_t>(bytes));
  } else {
    for (int i = 0; i < bytes; ++i) {
      dst[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }
}

/// Appends the low `bytes` bytes of v, least significant first: one
/// resize per primitive.
void putLE(std::vector<std::uint8_t>& out, std::uint64_t v, int bytes) {
  const std::size_t at = out.size();
  out.resize(at + static_cast<std::size_t>(bytes));
  storeLE(out.data() + at, v, bytes);
}

[[nodiscard]] std::uint64_t getLE(const std::uint8_t* p, int bytes) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

/// fsync the directory containing `path` so the rename itself is durable.
void syncParentDirectory(const std::string& path) {
#if !defined(_WIN32)
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? std::string(".")
                                                     : path.substr(0, slash);
  const int fd = ::open(dir.empty() ? "/" : dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
#else
  (void)path;
#endif
}

}  // namespace

std::uint64_t snapshotChecksum(std::span<const std::uint8_t> bytes) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a 64 offset basis
  for (const std::uint8_t b : bytes) {
    hash ^= b;
    hash *= 0x100000001b3ULL;  // FNV prime
  }
  return hash;
}

void SnapshotWriter::reserve(std::size_t additionalBytes) {
  payload_.reserve(payload_.size() + additionalBytes);
}
std::span<std::uint8_t> SnapshotWriter::append(std::size_t count) {
  const std::size_t at = payload_.size();
  payload_.resize(at + count);
  return {payload_.data() + at, count};
}
void SnapshotWriter::u8(std::uint8_t v) { payload_.push_back(v); }
void SnapshotWriter::u32(std::uint32_t v) { putLE(payload_, v, 4); }
void SnapshotWriter::u64(std::uint64_t v) { putLE(payload_, v, 8); }
void SnapshotWriter::i64(std::int64_t v) {
  putLE(payload_, static_cast<std::uint64_t>(v), 8);
}
void SnapshotWriter::f64(double v) {
  putLE(payload_, std::bit_cast<std::uint64_t>(v), 8);
}
void SnapshotWriter::str(std::string_view v) {
  u64(v.size());
  payload_.insert(payload_.end(), v.begin(), v.end());
}
void SnapshotWriter::bytes(std::span<const std::uint8_t> v) {
  u64(v.size());
  payload_.insert(payload_.end(), v.begin(), v.end());
}

void SnapshotReader::need(std::size_t count, const char* what) const {
  SOPS_REQUIRE(payload_.size() - pos_ >= count,
               std::string("snapshot payload truncated reading ") + what);
}

std::uint8_t SnapshotReader::u8() {
  need(1, "u8");
  return payload_[pos_++];
}
std::uint32_t SnapshotReader::u32() {
  need(4, "u32");
  const auto v = static_cast<std::uint32_t>(getLE(payload_.data() + pos_, 4));
  pos_ += 4;
  return v;
}
std::uint64_t SnapshotReader::u64() {
  need(8, "u64");
  const std::uint64_t v = getLE(payload_.data() + pos_, 8);
  pos_ += 8;
  return v;
}
std::int64_t SnapshotReader::i64() {
  return static_cast<std::int64_t>(u64());
}
double SnapshotReader::f64() { return std::bit_cast<double>(u64()); }
std::string SnapshotReader::str() {
  const std::uint64_t size = u64();
  need(size, "string body");
  std::string v(reinterpret_cast<const char*>(payload_.data() + pos_),
                static_cast<std::size_t>(size));
  pos_ += static_cast<std::size_t>(size);
  return v;
}
std::vector<std::uint8_t> SnapshotReader::bytes() {
  const std::uint64_t size = u64();
  need(size, "byte-blob body");
  std::vector<std::uint8_t> v(payload_.begin() +
                              static_cast<std::ptrdiff_t>(pos_),
                              payload_.begin() +
                                  static_cast<std::ptrdiff_t>(pos_ + size));
  pos_ += static_cast<std::size_t>(size);
  return v;
}

void SnapshotReader::finish() const {
  SOPS_REQUIRE(pos_ == payload_.size(),
               "snapshot payload has trailing bytes — wrong format or "
               "corrupt file");
}

void writeSnapshotFile(const std::string& path,
                       std::span<const std::uint8_t> payload,
                       std::uint32_t version) {
  SOPS_REQUIRE(version >= kMinSnapshotVersion && version <= kSnapshotVersion,
               "snapshot: cannot write unsupported format version " +
                   std::to_string(version));
  // The header goes out first and the payload straight after it, from the
  // caller's buffer: no framed copy of a payload that can be megabytes.
  std::array<std::uint8_t, kHeaderBytes> header{};
  std::memcpy(header.data(), kMagic, sizeof kMagic);
  storeLE(header.data() + 8, version, 4);
  storeLE(header.data() + 12, payload.size(), 8);
  storeLE(header.data() + 20, snapshotChecksum(payload), 8);

  const std::string tmpPath = path + ".tmp";
  std::FILE* file = std::fopen(tmpPath.c_str(), "wb");
  SOPS_REQUIRE(file != nullptr, "snapshot: cannot open " + tmpPath + ": " +
                                    std::strerror(errno));
  bool ok = std::fwrite(header.data(), 1, header.size(), file) ==
                header.size() &&
            std::fwrite(payload.data(), 1, payload.size(), file) ==
                payload.size() &&
            std::fflush(file) == 0;
#if !defined(_WIN32)
  ok = ok && ::fsync(::fileno(file)) == 0;
#endif
  ok = std::fclose(file) == 0 && ok;
  SOPS_REQUIRE(ok, "snapshot: short write to " + tmpPath);

  // Keep the last durable snapshot as `.prev` until the new one has
  // replaced the primary — the crash-fallback loadResumableSnapshot uses.
  std::rename(path.c_str(), (path + ".prev").c_str());  // ok if absent
  SOPS_REQUIRE(std::rename(tmpPath.c_str(), path.c_str()) == 0,
               "snapshot: cannot rename " + tmpPath + " to " + path + ": " +
                   std::strerror(errno));
  syncParentDirectory(path);
}

SnapshotData readSnapshotFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  SOPS_REQUIRE(file != nullptr, "snapshot: cannot open " + path + ": " +
                                    std::strerror(errno));
  std::vector<std::uint8_t> frame;
  std::uint8_t chunk[1 << 16];
  for (;;) {
    const std::size_t got = std::fread(chunk, 1, sizeof chunk, file);
    frame.insert(frame.end(), chunk, chunk + got);
    if (got < sizeof chunk) break;
  }
  std::fclose(file);

  SOPS_REQUIRE(frame.size() >= kHeaderBytes,
               "snapshot: " + path + " truncated (no complete header)");
  SOPS_REQUIRE(std::memcmp(frame.data(), kMagic, 8) == 0,
               "snapshot: " + path + " has wrong magic — not a snapshot");
  const auto version = static_cast<std::uint32_t>(getLE(frame.data() + 8, 4));
  SOPS_REQUIRE(version >= kMinSnapshotVersion && version <= kSnapshotVersion,
               "snapshot: " + path + " has unsupported format version " +
                   std::to_string(version));
  const std::uint64_t length = getLE(frame.data() + 12, 8);
  const std::uint64_t checksum = getLE(frame.data() + 20, 8);
  SOPS_REQUIRE(frame.size() - kHeaderBytes == length,
               "snapshot: " + path + " truncated or padded (payload " +
                   std::to_string(frame.size() - kHeaderBytes) + " bytes, "
                   "header claims " + std::to_string(length) + ")");
  std::vector<std::uint8_t> payload(frame.begin() + kHeaderBytes, frame.end());
  SOPS_REQUIRE(snapshotChecksum(payload) == checksum,
               "snapshot: " + path + " failed its checksum — torn write or "
               "corruption; refusing to resume from it");
  return {version, std::move(payload)};
}

SnapshotData loadResumableSnapshot(const std::string& path) {
  std::string primaryError;
  try {
    return readSnapshotFile(path);
  } catch (const ContractViolation& error) {
    primaryError = error.what();
  }
  try {
    return readSnapshotFile(path + ".prev");
  } catch (const ContractViolation& error) {
    SOPS_REQUIRE(false, "snapshot: no resumable snapshot at " + path +
                            " (" + primaryError + "; fallback: " +
                            error.what() + ")");
  }
  return {};  // unreachable
}

void writeParticleSystem(SnapshotWriter& w, const ParticleSystem& sys) {
  SOPS_REQUIRE(!sys.indexSuspended(),
               "snapshot: cannot serialize a system with a suspended index");
  const BitGrid& grid = sys.grid();
  // Count, 16 bytes per position, then the backend tail: tag plus either
  // the four window fields or the tile count and 16 bytes per tile.
  const std::size_t tail =
      grid.tiled() ? 1 + 8 + 16 * grid.tileCount() : 1 + 4 * 8;
  const std::vector<TriPoint>& positions = sys.positions();
  w.reserve(8 + 16 * positions.size() + tail);
  // Count and positions in one append, then direct stores: the same bytes
  // as u64 + i64 per coordinate, without a resize per primitive.
  std::uint8_t* out = w.append(8 + 16 * positions.size()).data();
  storeLE(out, positions.size(), 8);
  out += 8;
  for (const TriPoint p : positions) {
    storeLE(out, static_cast<std::uint64_t>(std::int64_t{p.x}), 8);
    storeLE(out + 8, static_cast<std::uint64_t>(std::int64_t{p.y}), 8);
    out += 16;
  }
  if (grid.tiled()) {
    // Tag 2: the exact allocated-tile set, sorted by raw key so the byte
    // stream is a pure function of state (the directory's iteration order
    // is not).
    w.u8(2);
    const std::vector<std::uint64_t> keys = grid.sortedTileKeys();
    w.u64(keys.size());
    for (const std::uint64_t key : keys) {
      w.i64(BitGrid::tileXOfKey(key));
      w.i64(BitGrid::tileYOfKey(key));
    }
  } else {
    // Tags 0/1 keep frame v2's exact byte layout; only an empty system,
    // whose grid is disabled, writes tag 0.
    w.u8(grid.enabled() ? 1 : 0);
    w.i64(grid.originX());
    w.i64(grid.originY());
    w.u64(grid.width());
    w.u64(grid.height());
  }
}

ParticleSystem readParticleSystem(SnapshotReader& r) {
  const std::uint64_t count = r.u64();
  std::vector<TriPoint> points;
  points.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::int64_t x = r.i64();
    const std::int64_t y = r.i64();
    points.push_back({static_cast<std::int32_t>(x),
                      static_cast<std::int32_t>(y)});
  }
  const std::uint8_t backend = r.u8();
  SOPS_REQUIRE(backend <= 2, "snapshot: bad occupancy backend tag");
  if (backend == 2) {
    const std::uint64_t tileCount = r.u64();
    std::vector<std::uint64_t> keys;
    keys.reserve(static_cast<std::size_t>(tileCount));
    for (std::uint64_t i = 0; i < tileCount; ++i) {
      const std::int64_t tx = r.i64();
      const std::int64_t ty = r.i64();
      keys.push_back(BitGrid::tileKey(static_cast<std::int32_t>(tx),
                                      static_cast<std::int32_t>(ty)));
    }
    ParticleSystem sys(points);
    sys.restoreTiledGeometry(keys);
    return sys;
  }
  const std::int64_t originX = r.i64();
  const std::int64_t originY = r.i64();
  const std::uint64_t width = r.u64();
  const std::uint64_t height = r.u64();
  ParticleSystem sys(points);
  // Tag 0 is the retired hash-only regime of v2/v3 payloads (and an empty
  // system): the constructor's default dense grid stands in for it.
  if (backend == 1) sys.restoreWindowGeometry(originX, originY, width, height);
  return sys;
}

void writeRandom(SnapshotWriter& w, const rng::Random& random) {
  w.u64(random.seed());
  for (const std::uint64_t word : random.engine().state()) w.u64(word);
}

rng::Random readRandom(SnapshotReader& r) {
  const std::uint64_t seed = r.u64();
  std::array<std::uint64_t, 4> state{};
  for (std::uint64_t& word : state) word = r.u64();
  return rng::Random::fromState(seed, state);
}

}  // namespace sops::system

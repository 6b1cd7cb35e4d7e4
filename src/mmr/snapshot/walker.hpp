// One serialization walk, three consumers (ISSUE 8 tentpole).  Every
// stateful component exposes a single `snap(snapshot::Walker&)` method that
// visits its mutable state in a fixed, documented order; the same walk then
// serves
//   * SaveWalker — serialize into the named sections of an mmr-snap-v1
//     Snapshot (mmr/snapshot/format.hpp),
//   * LoadWalker — overlay a decoded Snapshot back onto a freshly
//     constructed simulation (construction is deterministic, so immutable
//     state is rebuilt rather than stored),
//   * HashWalker — fold the identical byte stream into a 64-bit FNV-1a
//     fingerprint (the per-cycle StateHash; hash walk == serialization walk
//     by construction, which is what makes hash divergence a usable
//     first-divergent-cycle oracle).
//
// Walks must be byte-deterministic: structs with padding are visited
// field-by-field (never memcpy'd whole), container walks emit an explicit
// u64 length, and section() marks top-level boundaries.
#pragma once

#include <cstdint>
#include <deque>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "mmr/sim/ring.hpp"

namespace mmr::snapshot {

/// Raised on any malformed / truncated / mismatching snapshot input.
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// CRC-32 (IEEE, reflected) over `size` bytes, continuing from `crc`.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t size,
                                  std::uint32_t crc = 0);

class Walker {
 public:
  virtual ~Walker() = default;

  /// True for LoadWalker: container walks resize before visiting elements.
  [[nodiscard]] virtual bool loading() const = 0;

  /// Visits `size` raw bytes (write, read, or fold into the hash).
  virtual void bytes(void* data, std::size_t size) = 0;

  /// Opens a named top-level section.  Sections exist so a corrupted file
  /// pinpoints the subsystem (per-section CRCs) and so the hash folds the
  /// walk structure, not just its bytes.
  virtual void section(const char* name) = 0;
};

/// Arithmetic / enum scalar.  bool is one byte; padding never enters.
template <typename T>
void value(Walker& w, T& v) {
  static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>,
                "value() takes scalars; walk structs field-by-field");
  w.bytes(&v, sizeof(v));
}

inline void walk_string(Walker& w, std::string& s) {
  std::uint64_t n = s.size();
  value(w, n);
  if (w.loading()) s.resize(static_cast<std::size_t>(n));
  if (n != 0) w.bytes(s.data(), static_cast<std::size_t>(n));
}

/// Vector of padding-free scalars, visited as one byte block.
template <typename T>
void walk_vector_pod(Walker& w, std::vector<T>& v) {
  static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>,
                "bulk walks are for scalar element types only");
  std::uint64_t n = v.size();
  value(w, n);
  if (w.loading()) v.resize(static_cast<std::size_t>(n));
  if (n != 0) w.bytes(v.data(), static_cast<std::size_t>(n) * sizeof(T));
}

/// Vector of anything else; `fn(Walker&, T&)` visits one element.
template <typename T, typename Fn>
void walk_vector(Walker& w, std::vector<T>& v, Fn fn) {
  std::uint64_t n = v.size();
  value(w, n);
  if (w.loading()) {
    v.clear();
    v.resize(static_cast<std::size_t>(n));
  }
  for (T& element : v) fn(w, element);
}

/// std::vector<bool> has no contiguous storage; one byte per element.
inline void walk_vector_bool(Walker& w, std::vector<bool>& v) {
  std::uint64_t n = v.size();
  value(w, n);
  if (w.loading()) v.assign(static_cast<std::size_t>(n), false);
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::uint8_t b = v[i] ? 1 : 0;
    value(w, b);
    if (w.loading()) v[i] = b != 0;
  }
}

template <typename T, typename Fn>
void walk_deque(Walker& w, std::deque<T>& d, Fn fn) {
  std::uint64_t n = d.size();
  value(w, n);
  if (w.loading()) {
    d.clear();
    d.resize(static_cast<std::size_t>(n));
  }
  for (T& element : d) fn(w, element);
}

/// A Ring walks exactly like a deque: its length, then front to back.
template <typename T, typename Fn>
void walk_ring(Walker& w, Ring<T>& r, Fn fn) {
  std::uint64_t n = r.size();
  value(w, n);
  if (w.loading()) {
    r.clear();
    for (std::uint64_t k = 0; k < n; ++k) r.push_back(T{});
  }
  for (std::size_t k = 0; k < r.size(); ++k) fn(w, r[k]);
}

// --- the three consumers ---------------------------------------------------

struct Snapshot;  // mmr/snapshot/format.hpp

/// Serializes a walk into named sections.
class SaveWalker final : public Walker {
 public:
  explicit SaveWalker(Snapshot& out);

  [[nodiscard]] bool loading() const override { return false; }
  void bytes(void* data, std::size_t size) override;
  void section(const char* name) override;

 private:
  Snapshot& out_;
  bool open_ = false;
};

/// Overlays a decoded Snapshot back onto live objects.  Section names and
/// every length must match the walk exactly; anything else throws
/// SnapshotError (never silently truncates).
class LoadWalker final : public Walker {
 public:
  explicit LoadWalker(const Snapshot& in);

  [[nodiscard]] bool loading() const override { return true; }
  void bytes(void* data, std::size_t size) override;
  void section(const char* name) override;

  /// Call after the walk: throws if sections or bytes were left unread.
  void finish() const;

 private:
  const Snapshot& in_;
  std::size_t section_index_ = 0;  ///< sections consumed so far
  std::size_t cursor_ = 0;         ///< bytes consumed of the open section
};

/// Folds the walk into a 64-bit FNV-1a fingerprint.
class HashWalker final : public Walker {
 public:
  [[nodiscard]] bool loading() const override { return false; }
  void bytes(void* data, std::size_t size) override;
  void section(const char* name) override;

  [[nodiscard]] std::uint64_t digest() const { return hash_; }

 private:
  static constexpr std::uint64_t kOffset = 0xcbf29ce484222325ull;
  static constexpr std::uint64_t kPrime = 0x00000100000001b3ull;

  std::uint64_t hash_ = kOffset;
};

}  // namespace mmr::snapshot

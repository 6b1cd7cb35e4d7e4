// The mmr-snap-v1 container: a versioned binary file of named, CRC-guarded
// sections produced by one SaveWalker pass.
//
// Layout (all integers little-endian):
//   magic            "mmr-snap-v1\n"          12 bytes
//   u32 version      kFormatVersion, the state layout: bumped whenever a
//                    snap() walk changes, so an older checkpoint is refused
//                    rather than misread
//   u64 config_digest   fingerprint of the SimConfig the state belongs to;
//                       restore refuses a snapshot whose digest differs
//                       (the restore model rebuilds immutable state by
//                       reconstructing the simulation from the same config
//                       and workload, then overlays this file)
//   u64 cycle        simulation cycles completed at capture
//   u32 section_count
//   u32 header_crc   crc32 of the 24 bytes version..section_count
//   per section:
//     u32 name_len, name bytes, u64 data_len, u32 data_crc, data bytes
//
// scripts/snap_lint.py validates the same layout from Python (stdlib only).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mmr::snapshot {

inline constexpr char kMagic[12] = {'m', 'm', 'r', '-', 's', 'n',
                                    'a', 'p', '-', 'v', '1', '\n'};
inline constexpr std::uint32_t kFormatVersion = 8;

struct Section {
  std::string name;
  std::vector<std::uint8_t> data;
};

struct Snapshot {
  std::uint64_t config_digest = 0;
  std::uint64_t cycle = 0;
  std::vector<Section> sections;
};

[[nodiscard]] std::vector<std::uint8_t> encode(const Snapshot& snapshot);

/// Throws SnapshotError on bad magic / version / CRC / truncation.
[[nodiscard]] Snapshot decode(const std::uint8_t* data, std::size_t size);

/// Atomic write: temp file + rename, so a crash mid-write never leaves a
/// torn snapshot at `path`.  Throws std::runtime_error on I/O failure.
void save_file(const std::string& path, const Snapshot& snapshot);

/// Throws SnapshotError (bad content) or std::runtime_error (I/O).
[[nodiscard]] Snapshot load_file(const std::string& path);

}  // namespace mmr::snapshot

#include "mmr/snapshot/format.hpp"

#include <cstring>
#include <fstream>

#include "mmr/sim/atomic_file.hpp"
#include "mmr/snapshot/walker.hpp"

namespace mmr::snapshot {

namespace {

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  [[nodiscard]] const std::uint8_t* take(std::size_t n) {
    if (size_ - pos_ < n)
      throw SnapshotError("snapshot file truncated");
    const std::uint8_t* at = data_ + pos_;
    pos_ += n;
    return at;
  }

  [[nodiscard]] std::uint32_t u32() {
    const std::uint8_t* p = take(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{p[i]} << (8 * i);
    return v;
  }

  [[nodiscard]] std::uint64_t u64() {
    const std::uint8_t* p = take(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{p[i]} << (8 * i);
    return v;
  }

  [[nodiscard]] std::size_t pos() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace

std::vector<std::uint8_t> encode(const Snapshot& snapshot) {
  std::vector<std::uint8_t> out;
  for (char c : kMagic) out.push_back(static_cast<std::uint8_t>(c));

  std::vector<std::uint8_t> header;
  put_u32(header, kFormatVersion);
  put_u64(header, snapshot.config_digest);
  put_u64(header, snapshot.cycle);
  put_u32(header, static_cast<std::uint32_t>(snapshot.sections.size()));
  out.insert(out.end(), header.begin(), header.end());
  put_u32(out, crc32(header.data(), header.size()));

  for (const Section& section : snapshot.sections) {
    put_u32(out, static_cast<std::uint32_t>(section.name.size()));
    out.insert(out.end(), section.name.begin(), section.name.end());
    put_u64(out, section.data.size());
    put_u32(out, crc32(section.data.data(), section.data.size()));
    out.insert(out.end(), section.data.begin(), section.data.end());
  }
  return out;
}

Snapshot decode(const std::uint8_t* data, std::size_t size) {
  Reader in(data, size);
  const std::uint8_t* magic = in.take(sizeof(kMagic));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
    throw SnapshotError("not an mmr-snap-v1 file (bad magic)");

  const std::size_t header_at = in.pos();
  Snapshot snapshot;
  const std::uint32_t version = in.u32();
  if (version != kFormatVersion)
    throw SnapshotError("unsupported mmr-snap version " +
                        std::to_string(version) + " (this build reads " +
                        std::to_string(kFormatVersion) +
                        "); re-run from the start to checkpoint again");
  snapshot.config_digest = in.u64();
  snapshot.cycle = in.u64();
  const std::uint32_t section_count = in.u32();
  const std::uint32_t header_crc =
      crc32(data + header_at, in.pos() - header_at);
  if (in.u32() != header_crc)
    throw SnapshotError("snapshot header CRC mismatch");

  snapshot.sections.reserve(section_count);
  for (std::uint32_t s = 0; s < section_count; ++s) {
    Section section;
    const std::uint32_t name_len = in.u32();
    const std::uint8_t* name = in.take(name_len);
    section.name.assign(reinterpret_cast<const char*>(name), name_len);
    const std::uint64_t data_len = in.u64();
    const std::uint32_t data_crc = in.u32();
    const std::uint8_t* payload =
        in.take(static_cast<std::size_t>(data_len));
    if (crc32(payload, static_cast<std::size_t>(data_len)) != data_crc)
      throw SnapshotError("snapshot section '" + section.name +
                          "' CRC mismatch (corrupted file)");
    section.data.assign(payload, payload + data_len);
    snapshot.sections.push_back(std::move(section));
  }
  if (in.remaining() != 0)
    throw SnapshotError("snapshot file has trailing bytes");
  return snapshot;
}

void save_file(const std::string& path, const Snapshot& snapshot) {
  const std::vector<std::uint8_t> bytes = encode(snapshot);
  write_file_atomic(path, [&](std::ostream& out) {
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  });
}

Snapshot load_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open snapshot file: " + path);
  std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  if (in.bad()) throw std::runtime_error("reading snapshot failed: " + path);
  return decode(bytes.data(), bytes.size());
}

}  // namespace mmr::snapshot

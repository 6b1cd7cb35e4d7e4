// The mmr-snap-v1 container and the walker layer underneath the
// checkpoint/restore subsystem: encode/decode round trips, corruption
// rejection (magic, version, CRCs, truncation), save/load/hash walk
// consistency, SnapSpec parsing, the SimConfig digest — and the RNG-lane
// round trips every resume-equivalence claim rests on: a restored stream
// must reproduce the next 10k draws of the original exactly, mid-sequence,
// for the raw generator and for the components that own one (traffic
// source, PIM arbiter, MMU ECN-mark lane).

#include "mmr/snapshot/format.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "mmr/arbiter/factory.hpp"
#include "mmr/arbiter/pim.hpp"
#include "mmr/mmu/mmu.hpp"
#include "mmr/sim/config.hpp"
#include "mmr/sim/rng.hpp"
#include "mmr/snapshot/spec.hpp"
#include "mmr/snapshot/walker.hpp"
#include "mmr/traffic/besteffort.hpp"

#include "arbiter_test_util.hpp"

namespace mmr {
namespace {

using snapshot::HashWalker;
using snapshot::LoadWalker;
using snapshot::SaveWalker;
using snapshot::SnapSpec;
using snapshot::Snapshot;
using snapshot::SnapshotError;

Snapshot sample_snapshot() {
  Snapshot snap;
  snap.config_digest = 0xDEADBEEFCAFEF00Dull;
  snap.cycle = 123456;
  snap.sections.push_back({"alpha", {1, 2, 3, 4, 5}});
  snap.sections.push_back({"beta", {}});
  snap.sections.push_back({"gamma", std::vector<std::uint8_t>(1000, 0x5A)});
  return snap;
}

// ---------------------------------------------------------------------------
// Container format

TEST(SnapFormat, EncodeDecodeRoundTrip) {
  const Snapshot original = sample_snapshot();
  const std::vector<std::uint8_t> bytes = snapshot::encode(original);
  const Snapshot decoded = snapshot::decode(bytes.data(), bytes.size());
  EXPECT_EQ(decoded.config_digest, original.config_digest);
  EXPECT_EQ(decoded.cycle, original.cycle);
  ASSERT_EQ(decoded.sections.size(), original.sections.size());
  for (std::size_t i = 0; i < decoded.sections.size(); ++i) {
    EXPECT_EQ(decoded.sections[i].name, original.sections[i].name);
    EXPECT_EQ(decoded.sections[i].data, original.sections[i].data);
  }
}

TEST(SnapFormat, RejectsBadMagicVersionAndTruncation) {
  std::vector<std::uint8_t> bytes = snapshot::encode(sample_snapshot());
  auto corrupted = bytes;
  corrupted[0] ^= 0xFF;  // magic
  EXPECT_THROW((void)snapshot::decode(corrupted.data(), corrupted.size()),
               SnapshotError);
  corrupted = bytes;
  corrupted[12] ^= 0xFF;  // version (header CRC also breaks; either throws)
  EXPECT_THROW((void)snapshot::decode(corrupted.data(), corrupted.size()),
               SnapshotError);
  for (const std::size_t cut : {std::size_t{0}, std::size_t{11},
                                std::size_t{20}, bytes.size() - 1}) {
    EXPECT_THROW((void)snapshot::decode(bytes.data(), cut), SnapshotError)
        << "truncated at " << cut;
  }
}

// Checkpoints written before the one-engine state layout carry version 1;
// those written before every connection had a path carry version 3, and
// those whose metric accumulators were floating point version 4.  All must
// be refused by name, not misread.
TEST(SnapFormat, RefusesTheOldLayoutVersion) {
  for (const std::uint8_t old_version :
       {std::uint8_t{1}, std::uint8_t{3}, std::uint8_t{4}, std::uint8_t{5},
        std::uint8_t{6}}) {
    std::vector<std::uint8_t> bytes = snapshot::encode(sample_snapshot());
    ASSERT_EQ(bytes[12], snapshot::kFormatVersion);
    bytes[12] = old_version;  // low byte of the little-endian version word
    const std::string expected = "version " + std::to_string(old_version);
    try {
      (void)snapshot::decode(bytes.data(), bytes.size());
      ADD_FAILURE() << "a " << expected << " checkpoint must be refused";
    } catch (const SnapshotError& error) {
      EXPECT_NE(std::string(error.what()).find(expected), std::string::npos)
          << error.what();
    }
  }
}

TEST(SnapFormat, RejectsFlippedSectionByte) {
  const std::vector<std::uint8_t> bytes = snapshot::encode(sample_snapshot());
  // Flip one byte inside the last section's payload: its CRC must catch it.
  auto corrupted = bytes;
  corrupted[corrupted.size() - 1] ^= 0x01;
  EXPECT_THROW((void)snapshot::decode(corrupted.data(), corrupted.size()),
               SnapshotError);
}

TEST(SnapFormat, FileRoundTripAndTornFileRejection) {
  const std::string path = ::testing::TempDir() + "/mmr_fmt_roundtrip.snap";
  const Snapshot original = sample_snapshot();
  snapshot::save_file(path, original);
  const Snapshot loaded = snapshot::load_file(path);
  EXPECT_EQ(loaded.cycle, original.cycle);
  ASSERT_EQ(loaded.sections.size(), original.sections.size());
  EXPECT_EQ(loaded.sections[2].data, original.sections[2].data);
  std::remove(path.c_str());
  EXPECT_THROW((void)snapshot::load_file(path), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Walkers

struct Composite {
  std::uint64_t a = 0;
  double b = 0.0;
  bool c = false;
  std::string name;
  std::vector<std::uint32_t> pod;

  void snap(snapshot::Walker& w) {
    w.section("composite");
    snapshot::value(w, a);
    snapshot::value(w, b);
    snapshot::value(w, c);
    snapshot::walk_string(w, name);
    snapshot::walk_vector_pod(w, pod);
  }
};

TEST(SnapWalker, SaveLoadRoundTripAndHashAgreement) {
  Composite original{42, 2.5, true, "hot-output", {7, 8, 9}};
  Snapshot snap;
  SaveWalker save(snap);
  original.snap(save);
  ASSERT_EQ(snap.sections.size(), 1u);
  EXPECT_EQ(snap.sections[0].name, "composite");

  Composite restored;
  LoadWalker load(snap);
  restored.snap(load);
  load.finish();
  EXPECT_EQ(restored.a, original.a);
  EXPECT_DOUBLE_EQ(restored.b, original.b);
  EXPECT_EQ(restored.c, original.c);
  EXPECT_EQ(restored.name, original.name);
  EXPECT_EQ(restored.pod, original.pod);

  // Hash walk == serialization walk: equal states hash equal, and one
  // changed byte changes the fingerprint.
  HashWalker ha;
  original.snap(ha);
  HashWalker hb;
  restored.snap(hb);
  EXPECT_EQ(ha.digest(), hb.digest());
  restored.pod[1] ^= 1;
  HashWalker hc;
  restored.snap(hc);
  EXPECT_NE(hc.digest(), ha.digest());
}

TEST(SnapWalker, LoadRefusesShapeMismatch) {
  Composite original{1, 1.0, false, "x", {1}};
  Snapshot snap;
  SaveWalker save(snap);
  original.snap(save);

  // A walk that reads past the section's bytes must throw, not truncate.
  Composite reader;
  LoadWalker load(snap);
  reader.snap(load);
  std::uint8_t extra = 0;
  EXPECT_THROW(snapshot::value(load, extra), SnapshotError);

  // A walk that leaves bytes unread must be caught by finish().
  struct Partial {
    std::uint64_t a = 0;
    void snap(snapshot::Walker& w) {
      w.section("composite");
      snapshot::value(w, a);
    }
  } partial;
  LoadWalker short_load(snap);
  partial.snap(short_load);
  EXPECT_THROW(short_load.finish(), SnapshotError);
}

// ---------------------------------------------------------------------------
// SnapSpec + config digest

TEST(SnapSpecParse, DefaultsAndFullGrammar) {
  const SnapSpec defaults = SnapSpec::parse("every:100");
  EXPECT_EQ(defaults.every, 100u);
  EXPECT_EQ(defaults.hash_every, 0u);
  EXPECT_EQ(defaults.prefix, "mmr-snap");
  EXPECT_TRUE(defaults.on_crash);

  const SnapSpec full = SnapSpec::parse(
      "every:5000,hash_every:250,prefix:ckpt/run1,hash_out:hashes.jsonl,"
      "resume:old.snap,crash:0");
  EXPECT_EQ(full.every, 5000u);
  EXPECT_EQ(full.hash_every, 250u);
  EXPECT_EQ(full.prefix, "ckpt/run1");
  EXPECT_EQ(full.hash_out, "hashes.jsonl");
  EXPECT_EQ(full.resume, "old.snap");
  EXPECT_FALSE(full.on_crash);
}

TEST(SnapSpecParse, RejectsBadInput) {
  EXPECT_THROW((void)SnapSpec::parse("bogus:1"), std::invalid_argument);
  EXPECT_THROW((void)SnapSpec::parse("every"), std::invalid_argument);
  EXPECT_THROW((void)SnapSpec::parse("every:abc"), std::invalid_argument);
  EXPECT_THROW((void)SnapSpec::parse("crash:2"), std::invalid_argument);
}

TEST(SnapConfigDigest, PinsBehaviourShapingFieldsOnly) {
  SimConfig a;
  SimConfig b;
  EXPECT_EQ(snapshot::config_digest(a), snapshot::config_digest(b));

  b.seed = a.seed + 1;
  EXPECT_NE(snapshot::config_digest(a), snapshot::config_digest(b));
  b = a;
  b.arbiter = "wfa";
  EXPECT_NE(snapshot::config_digest(a), snapshot::config_digest(b));
  b = a;
  b.flow_spec = "shared";
  EXPECT_NE(snapshot::config_digest(a), snapshot::config_digest(b));

  // The snap policy itself must NOT enter the digest: a run may be resumed
  // under different checkpoint cadence or none at all.
  b = a;
  b.snap_spec = "every:1000,prefix:elsewhere";
  EXPECT_EQ(snapshot::config_digest(a), snapshot::config_digest(b));
}

// ---------------------------------------------------------------------------
// RNG lanes: restored streams reproduce the next 10k draws exactly

constexpr int kDraws = 10'000;

TEST(SnapRngLane, RawStreamMidSequence) {
  Rng original(0xFEED, 42);
  Rng twin(0xFEED, 42);
  for (int i = 0; i < 5'000; ++i) {
    (void)original.next();
    (void)twin.next();
  }

  Snapshot snap;
  SaveWalker save(snap);
  save.section("rng");
  original.snap(save);

  Rng restored(1, 1);  // deliberately different seed; load must overwrite
  LoadWalker load(snap);
  load.section("rng");
  restored.snap(load);
  load.finish();

  for (int i = 0; i < kDraws; ++i) {
    ASSERT_EQ(restored.next(), twin.next()) << "draw " << i;
  }
}

TEST(SnapRngLane, TrafficSourceMidSequence) {
  const TimeBase tb(2.4e9, 4096, 16);
  BestEffortSource original(3, 2.0e8, 8.0, tb, Rng(0xBE, 3));
  BestEffortSource twin(3, 2.0e8, 8.0, tb, Rng(0xBE, 3));
  std::vector<Flit> flits;
  for (Cycle now = 0; now < 5'000; ++now) {
    original.generate(now, flits);
    flits.clear();
    twin.generate(now, flits);
    flits.clear();
  }

  Snapshot snap;
  SaveWalker save(snap);
  save.section("source");
  original.snap(save);
  BestEffortSource restored(3, 2.0e8, 8.0, tb, Rng(9, 9));
  LoadWalker load(snap);
  load.section("source");
  restored.snap(load);
  load.finish();

  std::vector<Flit> expect_flits;
  for (Cycle now = 5'000; now < 15'000; ++now) {
    ASSERT_EQ(restored.next_emission(), twin.next_emission()) << now;
    expect_flits.clear();
    flits.clear();
    twin.generate(now, expect_flits);
    restored.generate(now, flits);
    ASSERT_EQ(flits.size(), expect_flits.size()) << "cycle " << now;
    for (std::size_t i = 0; i < flits.size(); ++i) {
      EXPECT_EQ(flits[i].seq, expect_flits[i].seq);
      EXPECT_EQ(flits[i].generated_at, expect_flits[i].generated_at);
    }
  }
}

TEST(SnapRngLane, PimArbiterMidSequence) {
  constexpr std::uint32_t kPorts = 8;
  const std::uint32_t iterations = arbiter_iterations("pim", kPorts);
  PimArbiter original(kPorts, Rng(0xA5, 7), iterations);
  PimArbiter twin(kPorts, Rng(0xA5, 7), iterations);
  Rng gen(0x600D, 0);
  for (int step = 0; step < 2'000; ++step) {
    const CandidateSet set = test::random_candidates(kPorts, 2, 0.6, gen);
    (void)original.arbitrate(set);
    (void)twin.arbitrate(set);
  }

  Snapshot snap;
  SaveWalker save(snap);
  save.section("pim");
  original.snap(save);
  PimArbiter restored(kPorts, Rng(1, 1), iterations);
  LoadWalker load(snap);
  load.section("pim");
  restored.snap(load);
  load.finish();

  // 2k arbitrations x several reservoir draws each >= 10k RNG draws.
  for (int step = 0; step < 2'000; ++step) {
    const CandidateSet set = test::random_candidates(kPorts, 2, 0.6, gen);
    const Matching expect = twin.arbitrate(set);
    const Matching got = restored.arbitrate(set);
    ASSERT_EQ(got.size(), expect.size()) << "step " << step;
    for (std::uint32_t input = 0; input < kPorts; ++input) {
      ASSERT_EQ(got.output_of(input), expect.output_of(input))
          << "step " << step << " input " << input;
    }
  }
}

TEST(SnapRngLane, MmuEcnMarkMidSequence) {
  SimConfig config;
  config.ports = 2;
  config.vcs_per_link = 64;
  const mmu::MmuSpec spec =
      mmu::MmuSpec::parse("shared,pool:4096,xoff:4000,xon:3900,kmin:2,"
                          "kmax:4096,pmax:0.5");
  mmu::SharedBufferMmu original(spec, config);
  mmu::SharedBufferMmu twin(spec, config);

  // Park the shared pool inside the (kmin, kmax) marking band, then hold it
  // there: every further admit draws from the mark lane.
  const auto prefill = [](mmu::SharedBufferMmu& mmu) {
    for (int i = 0; i < 64; ++i)
      (void)mmu.admit(0, TrafficClass::kCbr, 0);
  };
  const auto burn = [](mmu::SharedBufferMmu& mmu, Cycle from, Cycle to) {
    std::vector<bool> marks;
    for (Cycle now = from; now < to; ++now) {
      marks.push_back(mmu.admit(0, TrafficClass::kCbr, now).marked);
      (void)mmu.release(0, TrafficClass::kCbr, now);
    }
    return marks;
  };
  prefill(original);
  prefill(twin);
  const std::vector<bool> before_original = burn(original, 1, 5'000);
  ASSERT_EQ(before_original, burn(twin, 1, 5'000));
  ASSERT_NE(std::count(before_original.begin(), before_original.end(), true),
            0)
      << "the marking band was never entered; the lane drew nothing";

  Snapshot snap;
  SaveWalker save(snap);
  save.section("mmu");
  original.snap(save);
  mmu::SharedBufferMmu restored(spec, config);
  LoadWalker load(snap);
  load.section("mmu");
  restored.snap(load);
  load.finish();

  EXPECT_EQ(burn(restored, 5'000, 15'000), burn(twin, 5'000, 15'000));
}

}  // namespace
}  // namespace mmr

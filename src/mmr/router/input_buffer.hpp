// Input buffer of one router port: the Virtual Channel Memory of Figure 2
// and the virtual output queues of `qd=voq|cicq` as one structure — the
// queue matrix Q of the MWM/iSLIP view (PAPERS.md), indexed one way or the
// other.  A slot pool threads one FIFO per key through a link in each slot;
// the key is the VC under `qd=vc` and the output under `qd=voq|cicq`.
// Every slot carries its flit's VC, so the per-VC counts that admission and
// the NIC credit loop balance hold under either keying, and the non-empty
// keys' head views sit packed in one array that link scheduling walks.  The
// pool holds what can ever be admitted to the port
// (vcs x buffer_flits, or under `flow=shared` the MMU's per-port
// allowance), so buffering a flit never allocates.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mmr/sim/assert.hpp"
#include "mmr/sim/time.hpp"
#include "mmr/traffic/flit.hpp"

namespace mmr {

namespace snapshot {
class Walker;
}

class InputBuffer {
 public:
  /// `keys` FIFOs over a pool of `slots` slots; each of `vcs` VCs may hold
  /// up to `capacity_per_vc` flits, wherever they are keyed.
  InputBuffer(std::uint32_t keys, std::uint32_t vcs,
              std::uint32_t capacity_per_vc, std::uint32_t slots);

  struct Slot {
    Flit flit;
    Cycle arrived;  ///< when the flit entered this buffer
    std::uint32_t vc;
    /// The pool's own link, in what would be tail padding: the next slot of
    /// this slot's FIFO or of the free list.
    std::uint32_t next;
  };

  /// What link scheduling reads of a non-empty key's head.  The views sit
  /// packed at the front of one array, in no particular order, so a select
  /// walks exactly the heads: no bitmap walk, no chase into the pool.  Kept
  /// at each change of a head: a push into an empty key, pop and drain (a
  /// checkpoint load pushes).
  struct HeadView {
    Cycle arrived;
    std::uint32_t vc;
    std::uint32_t key : 31;  ///< whose head: keys stay below 2^31
    bool demoted : 1;
  };

  [[nodiscard]] std::uint32_t keys() const {
    return static_cast<std::uint32_t>(fifos_.size());
  }
  [[nodiscard]] std::uint32_t vcs() const {
    return static_cast<std::uint32_t>(vc_count_.size());
  }
  [[nodiscard]] std::uint32_t capacity_per_vc() const { return capacity_; }
  /// Slots in the pool: the most flits the port can hold at once.
  [[nodiscard]] std::uint32_t slots() const {
    return static_cast<std::uint32_t>(pool_.size());
  }

  [[nodiscard]] bool can_accept(std::uint32_t vc) const {
    MMR_ASSERT(vc < vcs());
    return vc_count_[vc] < capacity_;
  }
  void push(std::uint32_t key, std::uint32_t vc, const Flit& flit, Cycle now);

  [[nodiscard]] bool empty(std::uint32_t key) const {
    return occupancy(key) == 0;
  }
  /// Flits queued under `key`.
  [[nodiscard]] std::uint32_t occupancy(std::uint32_t key) const {
    MMR_ASSERT(key < keys());
    return fifos_[key].size;
  }
  [[nodiscard]] const Slot& head(std::uint32_t key) const {
    MMR_ASSERT_MSG(!empty(key), "head of an empty queue");
    return pool_[fifos_[key].head];
  }
  [[nodiscard]] const HeadView& head_view(std::uint32_t key) const {
    MMR_ASSERT_MSG(!empty(key), "head of an empty queue");
    return views_[fifos_[key].view];
  }
  /// Every non-empty key's head view, in no particular order.
  [[nodiscard]] std::span<const HeadView> head_views() const {
    return {views_.data(), live_};
  }
  /// Pool index of `key`'s head (inspection only: a restored checkpoint
  /// lays the FIFOs out key by key from slot 0).
  [[nodiscard]] std::uint32_t head_index(std::uint32_t key) const {
    MMR_ASSERT_MSG(!empty(key), "head of an empty queue");
    return fifos_[key].head;
  }

  Slot pop(std::uint32_t key);
  /// Fault teardown: removes every flit of `vc` from `key`'s FIFO, keeping
  /// the others in order, and appends them to `out` in FIFO order.
  void drain(std::uint32_t key, std::uint32_t vc, std::vector<Flit>& out);

  /// Flits of `vc` held here, under any key.
  [[nodiscard]] std::uint32_t vc_occupancy(std::uint32_t vc) const {
    MMR_ASSERT(vc < vcs());
    return vc_count_[vc];
  }
  [[nodiscard]] std::uint64_t total_flits() const { return total_; }

  /// Calls `visit(key)` for every non-empty key, in ascending order.
  template <class Visit>
  void for_each_occupied(Visit&& visit) const {
    for (std::uint32_t key = 0; key < keys(); ++key)
      if (fifos_[key].size != 0) visit(key);
  }

  void check_invariants() const;

  /// Checkpoint walk: per key its flit count, then its slots (flit, arrival,
  /// VC) in FIFO order.  Counts, the head views and the free list follow
  /// from those; a load rebuilds them by pushing every
  /// walked slot into an emptied pool.
  void snap(snapshot::Walker& w);

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  static constexpr std::uint32_t kKeyMask = kNone >> 1;  ///< HeadView::key

  struct Fifo {
    std::uint32_t head = kNone;
    std::uint32_t tail = kNone;
    std::uint32_t size = 0;
    std::uint32_t view = kNone;  ///< index of the head's view
  };

  /// Empties every FIFO and threads the free list through slots 0, 1, ...
  void clear();
  void release(std::uint32_t slot);  ///< back onto the free list
  /// Copies pool slot `slot`, now `key`'s head, into its head view.
  void set_head(std::uint32_t key, std::uint32_t slot) {
    const Slot& head = pool_[slot];
    views_[fifos_[key].view] = {head.arrived, head.vc, key & kKeyMask,
                                head.flit.demoted};
  }
  /// Count upkeep once a flit of `vc` has left `key`'s FIFO.
  void on_removed(std::uint32_t key, std::uint32_t vc);

  std::uint32_t capacity_;
  std::vector<Slot> pool_;
  std::uint32_t free_ = kNone;       ///< first free slot
  std::vector<Fifo> fifos_;          ///< one per key
  std::vector<HeadView> views_;      ///< the first live_ are the heads'
  std::uint32_t live_ = 0;           ///< non-empty keys
  std::vector<std::uint32_t> vc_count_;
  std::uint64_t total_ = 0;
};

}  // namespace mmr

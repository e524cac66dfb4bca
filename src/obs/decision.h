// The decision spine: one typed, attributable record per enforcement
// verdict, cluster-wide.
//
// Every enforcement point in the simulation — hidepid filtering, pam_slurm
// gating, PrivateData query filtering, smask/ACL/home-ownership checks,
// UBF admission, portal forwarding, GPU /dev gating and epilog scrub,
// container entry — answers allow/deny somewhere inline. Before this
// module each subsystem kept its own ad-hoc stats, so there was no
// cluster-wide answer to "who was denied what, and which policy knob was
// responsible". A Decision captures exactly that: subject credentials,
// object, verdict, the channel from the shared taxonomy, and the
// responsible `analyze` knob name — the same attribution vocabulary the
// static analyzer emits, so runtime traces and static verdicts can be
// differentially cross-checked (tests/obs/decision_oracle_test.cpp).
//
// Cost model: the trace is owned by Cluster and is DISABLED by default.
// Every record() first counts its verdict with one relaxed atomic add on
// the calling thread's counter stripe: a cache-line-aligned block of
// allow/deny pairs per point, one per thread (up to kStripes), so
// concurrent workers share neither a lock nor a cache line. Disabled,
// record() then returns — no lock, and the object-label callback is
// never invoked, so no allocation happens per decision
// (bench_decision_trace, E21, pins this at exactly zero). Enabled, it
// takes the ring's mutex; the label callback appends into a reusable
// scratch buffer, and the ring is stored struct-of-arrays (one dense
// array per field) with the labels interned into an arena-backed FIFO
// byte ring, so a steady-state record() allocates nothing either
// (bench_layout, E26); old records are overwritten, never reallocated
// past the configured capacity.
#pragma once

#include <array>
#include <atomic>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/arena.h"
#include "common/clock.h"
#include "common/ids.h"
#include "obs/taxonomy.h"

namespace heus::obs {

/// Where in the stack a verdict was rendered. One value per enforcement
/// site class, not per call site: the (point, channel, knob) triple is
/// what gives a record its meaning.
enum class DecisionPoint {
  procfs_visibility,  ///< hidepid entry/content filtering (simos)
  pam_ssh,            ///< pam_slurm node-access gate (simos)
  sched_query,        ///< PrivateData filtering of queue/sacct/usage
  sched_placement,    ///< whole-node / exclusive-user placement refusal
  fs_access,          ///< DAC/ACL verdict on read/readdir/access
  fs_chmod,           ///< chmod, including the smask clamp
  fs_acl,             ///< setfacl restriction (restrict_acl, ownership)
  ubf_admission,      ///< user-based-firewall connection admission
  net_uninspected,    ///< flow established with no UBF inspection
  rdma_setup,         ///< QP bring-up (TCP-assisted or native CM)
  portal_forward,     ///< portal request forwarding
  gpu_dev_access,     ///< /dev/nvidiaN open under cgroup dev binding
  gpu_scrub,          ///< epilog residue scrub verification
  container_entry,    ///< container runtime exec gate
  lifecycle_transition,  ///< table-driven lifecycle state change (src/lifecycle)
  fed_admission,      ///< federated cross-cluster operation gate (src/fed)
};

inline constexpr std::array<DecisionPoint, 16> kAllDecisionPoints = {
    DecisionPoint::procfs_visibility, DecisionPoint::pam_ssh,
    DecisionPoint::sched_query,       DecisionPoint::sched_placement,
    DecisionPoint::fs_access,         DecisionPoint::fs_chmod,
    DecisionPoint::fs_acl,            DecisionPoint::ubf_admission,
    DecisionPoint::net_uninspected,   DecisionPoint::rdma_setup,
    DecisionPoint::portal_forward,    DecisionPoint::gpu_dev_access,
    DecisionPoint::gpu_scrub,         DecisionPoint::container_entry,
    DecisionPoint::lifecycle_transition, DecisionPoint::fed_admission,
};

[[nodiscard]] const char* to_string(DecisionPoint point);

enum class Outcome { allow, deny };

[[nodiscard]] const char* to_string(Outcome outcome);

/// Append the decimal digits of `v` to `out` without materialising a
/// temporary std::string (std::to_string allocates). For record()'s
/// label callbacks: the scratch buffer reaches steady-state capacity and
/// label building stops allocating entirely.
inline void append_uint(std::string& out, std::uint64_t v) {
  char buf[20];
  std::size_t n = 0;
  do {
    buf[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  while (n > 0) out.push_back(buf[--n]);
}

/// Dense index of a point into kAllDecisionPoints-sized arrays.
[[nodiscard]] inline constexpr std::size_t point_index(DecisionPoint point) {
  return static_cast<std::size_t>(point);
}

/// One enforcement verdict. `knob` is the canonical name (obs::knob::*)
/// of the single policy knob responsible for this outcome, or nullptr
/// when no single knob is (structural denials, documented residuals).
struct Decision {
  std::uint64_t seq = 0;        ///< monotone, survives ring overwrite
  common::SimTime time;         ///< sim-clock stamp at the verdict
  DecisionPoint point = DecisionPoint::procfs_visibility;
  Outcome outcome = Outcome::deny;
  Uid subject;                  ///< who asked
  Gid subject_gid;              ///< their egid at the time
  Uid object_owner;             ///< whose data/resource was at stake
  std::optional<ChannelKind> channel;  ///< taxonomy channel, if any
  const char* knob = nullptr;   ///< responsible knob (obs::knob::*)
  bool from_cache = false;      ///< verdict replayed from a decision cache
  std::string object;           ///< human label: path, port, job id, …
};

/// Per-point allow/deny tallies. Maintained even when the trace is
/// disabled, so coarse accounting is always exact.
struct PointCounters {
  std::uint64_t allowed = 0;
  std::uint64_t denied = 0;
};

class DecisionTrace {
 public:
  static constexpr std::size_t kDefaultCapacity = 1024;
  using CountersArray =
      std::array<PointCounters, kAllDecisionPoints.size()>;

  /// The clock the records are stamped with. Must outlive the trace.
  void set_clock(const common::SimClock* clock) { clock_ = clock; }

  /// Enabling a disabled trace starts the ring's next seq at total(), so
  /// in serial use an enabled record's seq is the total() just before it.
  /// Not to be called while another thread records.
  void set_enabled(bool enabled);
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Resize the ring. Drops buffered records (counters are kept).
  void set_capacity(std::size_t capacity);

  /// Drop buffered records and reset counters and sequence numbers. Not
  /// to be called while another thread records.
  void clear();

  /// Record one verdict. `make_object` is only invoked (and the record
  /// only materialised) when the trace is enabled; disabled-mode cost is
  /// one relaxed atomic add on this thread's stripe, with no lock.
  ///
  /// `make_object` appends the object label to the buffer it is handed:
  /// `[&](std::string& out) { out += ...; obs::append_uint(out, n); }`.
  /// The buffer is the trace's reusable scratch string, so the enabled
  /// steady-state path performs zero heap allocations, and the label
  /// bytes are interned into the arena-backed byte ring, never stored as
  /// a per-record std::string.
  template <typename MakeObject>
    requires std::invocable<MakeObject&, std::string&>
  void record(DecisionPoint point, Outcome outcome, Uid subject,
              Gid subject_gid, Uid object_owner,
              std::optional<ChannelKind> channel, const char* knob,
              MakeObject&& make_object, bool from_cache = false) {
    // Thread-safe: the sharded engine records from worker threads. The
    // count lands on this thread's stripe whether or not the ring is
    // enabled; only the ring append takes the lock.
    stripes_[this_thread_stripe()]
        .counts[2 * point_index(point) + (outcome == Outcome::deny ? 1 : 0)]
        .fetch_add(1, std::memory_order_relaxed);
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    scratch_.clear();
    make_object(scratch_);
    append_record(point, outcome, subject, subject_gid, object_owner,
                  channel, knob, from_cache, scratch_);
  }

  /// Buffered records, oldest first (seq order).
  [[nodiscard]] std::vector<Decision> snapshot() const;

  /// Sums of the stripes: exact once the recording threads have been
  /// joined or a barrier has been crossed (the engine reads between ticks).
  [[nodiscard]] PointCounters counters(DecisionPoint point) const;
  /// Total verdicts observed (allow + deny, all points), including ones
  /// rendered while disabled or already overwritten in the ring.
  [[nodiscard]] std::uint64_t total() const;
  /// Records currently buffered.
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Records pushed out of the ring by newer ones.
  [[nodiscard]] std::uint64_t overwritten() const { return overwritten_; }

 private:
  /// FIFO byte ring for the interned object labels, storage owned by the
  /// trace's arena. Ring slots are overwritten oldest-first, and labels
  /// are appended in record order, so a slot's bytes are always the
  /// oldest live bytes when the slot is reclaimed — freeing is a tail
  /// advance, appending a head advance, and steady state allocates
  /// nothing. Labels may wrap; read() reassembles the two segments.
  class LabelRing {
   public:
    std::uint32_t append(common::Arena& arena, std::string_view s);
    void release_oldest(std::uint32_t len) { used_ -= len; }
    void read(std::uint32_t offset, std::uint32_t len,
              std::string& out) const;
    void clear(common::Arena& arena);

   private:
    char* buf_ = nullptr;
    std::size_t cap_ = 0;       // power of two (or 0)
    std::size_t cap_bytes_ = 0; // arena block byte capacity
    std::size_t head_ = 0;      // next write offset
    std::size_t used_ = 0;      // live bytes
  };

  /// Counter stripes per trace. A thread's stripe index is process-wide
  /// (the same in every trace), dealt round-robin in the order threads
  /// first record; two threads sharing one costs contention, never a
  /// count.
  static constexpr std::size_t kStripes = 16;
  /// One thread's counters: an allow/deny pair per point (index
  /// 2 * point_index + (deny ? 1 : 0)), on cache lines of its own.
  struct alignas(64) Stripe {
    std::array<std::atomic<std::uint64_t>, 2 * kAllDecisionPoints.size()>
        counts{};
  };
  /// This thread's stripe index, assigned on its first record.
  [[nodiscard]] static std::size_t this_thread_stripe() {
    thread_local const std::size_t stripe = next_stripe();
    return stripe;
  }
  /// The next stripe index, from a process-wide counter.
  [[nodiscard]] static std::size_t next_stripe();

  /// Caller holds mu_. Interns `label` and writes one SoA row.
  void append_record(DecisionPoint point, Outcome outcome, Uid subject,
                     Gid subject_gid, Uid object_owner,
                     std::optional<ChannelKind> channel, const char* knob,
                     bool from_cache, std::string_view label);
  /// Caller holds mu_.
  void drop_rows();
  /// Caller holds mu_. Materialises the row at ring position `pos`.
  [[nodiscard]] Decision materialise(std::size_t pos) const;

  /// Guards the ring and its sequence number; the counters live on the
  /// stripes, outside the lock.
  mutable std::mutex mu_;
  const common::SimClock* clock_ = nullptr;
  bool enabled_ = false;
  std::size_t capacity_ = kDefaultCapacity;

  /// SoA ring storage: one dense array per Decision field (plus the
  /// interned label's offset/length), each at most capacity_ long. A
  /// sweep that inspects one field (the digest fold, the census) touches
  /// only that field's array instead of 96-byte Decision records.
  struct Rows {
    std::vector<std::uint64_t> seq;
    std::vector<common::SimTime> time;
    std::vector<DecisionPoint> point;
    std::vector<Outcome> outcome;
    std::vector<Uid> subject;
    std::vector<Gid> subject_gid;
    std::vector<Uid> object_owner;
    std::vector<std::int16_t> channel;  ///< -1 = none, else ChannelKind
    std::vector<const char*> knob;
    std::vector<std::uint8_t> from_cache;
    std::vector<std::uint32_t> label_off;
    std::vector<std::uint32_t> label_len;
  };
  Rows rows_;
  common::Arena arena_;    ///< owns the label ring's storage
  LabelRing labels_;
  std::string scratch_;    ///< reusable label build buffer
  std::size_t head_ = 0;  ///< next slot to write once the ring is full
  std::size_t size_ = 0;
  std::uint64_t next_seq_ = 0;  ///< seq of the next ring record
  std::uint64_t overwritten_ = 0;
  std::array<Stripe, kStripes> stripes_{};
};

}  // namespace heus::obs

#include "obs/decision.h"

#include <cassert>
#include <cstring>

namespace heus::obs {

const char* to_string(DecisionPoint point) {
  switch (point) {
    case DecisionPoint::procfs_visibility: return "procfs-visibility";
    case DecisionPoint::pam_ssh: return "pam-ssh";
    case DecisionPoint::sched_query: return "sched-query";
    case DecisionPoint::sched_placement: return "sched-placement";
    case DecisionPoint::fs_access: return "fs-access";
    case DecisionPoint::fs_chmod: return "fs-chmod";
    case DecisionPoint::fs_acl: return "fs-acl";
    case DecisionPoint::ubf_admission: return "ubf-admission";
    case DecisionPoint::net_uninspected: return "net-uninspected";
    case DecisionPoint::rdma_setup: return "rdma-setup";
    case DecisionPoint::portal_forward: return "portal-forward";
    case DecisionPoint::gpu_dev_access: return "gpu-dev-access";
    case DecisionPoint::gpu_scrub: return "gpu-scrub";
    case DecisionPoint::container_entry: return "container-entry";
    case DecisionPoint::lifecycle_transition: return "lifecycle-transition";
    case DecisionPoint::fed_admission: return "fed-admission";
  }
  return "?";
}

const char* to_string(Outcome outcome) {
  return outcome == Outcome::allow ? "allow" : "deny";
}

std::uint32_t DecisionTrace::LabelRing::append(common::Arena& arena,
                                               std::string_view s) {
  if (s.size() > cap_ - used_ || cap_ == 0) {
    // Grow to the next class fitting live bytes + the new label, then
    // unwrap the live region into the fresh block (oldest byte first) so
    // offsets stay simple ring offsets.
    std::size_t want = cap_ == 0 ? 256 : cap_;
    while (want < used_ + s.size()) want *= 2;
    want *= 2;  // headroom: halve the number of future unwrap copies
    common::Arena::Block b = arena.allocate_block(want);
    char* fresh = static_cast<char*>(b.data);
    const std::size_t tail = (head_ + cap_ - used_) & (cap_ - 1);
    for (std::size_t i = 0; i < used_; ++i) {
      fresh[i] = buf_[(tail + i) & (cap_ - 1)];
    }
    if (buf_ != nullptr) {
      arena.recycle(common::Arena::Block{buf_, cap_bytes_});
    }
    buf_ = fresh;
    cap_ = b.capacity;  // block capacities are powers of two
    cap_bytes_ = b.capacity;
    head_ = used_;
  }
  const auto offset = static_cast<std::uint32_t>(head_);
  for (std::size_t i = 0; i < s.size(); ++i) {
    buf_[(head_ + i) & (cap_ - 1)] = s[i];
  }
  head_ = (head_ + s.size()) & (cap_ - 1);
  used_ += s.size();
  return offset;
}

void DecisionTrace::LabelRing::read(std::uint32_t offset, std::uint32_t len,
                                    std::string& out) const {
  out.clear();
  for (std::uint32_t i = 0; i < len; ++i) {
    out.push_back(buf_[(offset + i) & (cap_ - 1)]);
  }
}

void DecisionTrace::LabelRing::clear(common::Arena& arena) {
  if (buf_ != nullptr) {
    arena.recycle(common::Arena::Block{buf_, cap_bytes_});
  }
  buf_ = nullptr;
  cap_ = 0;
  cap_bytes_ = 0;
  head_ = 0;
  used_ = 0;
}

std::size_t DecisionTrace::next_stripe() {
  static std::atomic<std::size_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) % kStripes;
}

PointCounters DecisionTrace::counters(DecisionPoint point) const {
  PointCounters c;
  const std::size_t i = 2 * point_index(point);
  for (const Stripe& s : stripes_) {
    c.allowed += s.counts[i].load(std::memory_order_relaxed);
    c.denied += s.counts[i + 1].load(std::memory_order_relaxed);
  }
  return c;
}

std::uint64_t DecisionTrace::total() const {
  std::uint64_t sum = 0;
  for (const Stripe& s : stripes_) {
    for (const auto& n : s.counts) sum += n.load(std::memory_order_relaxed);
  }
  return sum;
}

void DecisionTrace::set_enabled(bool enabled) {
  std::lock_guard<std::mutex> lock(mu_);
  if (enabled && !enabled_) next_seq_ = total();
  enabled_ = enabled;
}

void DecisionTrace::set_capacity(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity == 0 ? 1 : capacity;
  drop_rows();
}

void DecisionTrace::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  drop_rows();
  next_seq_ = 0;
  overwritten_ = 0;
  for (Stripe& s : stripes_) {
    for (auto& n : s.counts) n.store(0, std::memory_order_relaxed);
  }
}

void DecisionTrace::drop_rows() {
  rows_ = Rows{};
  labels_.clear(arena_);
  arena_.reset();
  head_ = 0;
  size_ = 0;
}

void DecisionTrace::append_record(DecisionPoint point, Outcome outcome,
                                  Uid subject, Gid subject_gid,
                                  Uid object_owner,
                                  std::optional<ChannelKind> channel,
                                  const char* knob, bool from_cache,
                                  std::string_view label) {
  std::size_t slot;
  if (size_ < capacity_) {
    slot = size_++;
    rows_.seq.push_back(0);
    rows_.time.push_back(common::SimTime{});
    rows_.point.push_back(point);
    rows_.outcome.push_back(outcome);
    rows_.subject.push_back(Uid{});
    rows_.subject_gid.push_back(Gid{});
    rows_.object_owner.push_back(Uid{});
    rows_.channel.push_back(-1);
    rows_.knob.push_back(nullptr);
    rows_.from_cache.push_back(0);
    rows_.label_off.push_back(0);
    rows_.label_len.push_back(0);
  } else {
    // Overwrite the oldest slot; its label bytes are the oldest live
    // bytes in the ring, so releasing them is a tail advance.
    slot = head_;
    head_ = (head_ + 1) % capacity_;
    ++overwritten_;
    labels_.release_oldest(rows_.label_len[slot]);
  }
  rows_.seq[slot] = next_seq_++;
  rows_.time[slot] = clock_ ? clock_->now() : common::SimTime{};
  rows_.point[slot] = point;
  rows_.outcome[slot] = outcome;
  rows_.subject[slot] = subject;
  rows_.subject_gid[slot] = subject_gid;
  rows_.object_owner[slot] = object_owner;
  rows_.channel[slot] =
      channel ? static_cast<std::int16_t>(*channel) : std::int16_t{-1};
  rows_.knob[slot] = knob;
  rows_.from_cache[slot] = from_cache ? 1 : 0;
  rows_.label_off[slot] = labels_.append(arena_, label);
  rows_.label_len[slot] = static_cast<std::uint32_t>(label.size());
}

Decision DecisionTrace::materialise(std::size_t pos) const {
  Decision d;
  d.seq = rows_.seq[pos];
  d.time = rows_.time[pos];
  d.point = rows_.point[pos];
  d.outcome = rows_.outcome[pos];
  d.subject = rows_.subject[pos];
  d.subject_gid = rows_.subject_gid[pos];
  d.object_owner = rows_.object_owner[pos];
  if (rows_.channel[pos] >= 0) {
    d.channel = static_cast<ChannelKind>(rows_.channel[pos]);
  }
  d.knob = rows_.knob[pos];
  d.from_cache = rows_.from_cache[pos] != 0;
  labels_.read(rows_.label_off[pos], rows_.label_len[pos], d.object);
  return d;
}

std::vector<Decision> DecisionTrace::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Decision> out;
  out.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(materialise((head_ + i) % size_));
  }
  return out;
}

}  // namespace heus::obs

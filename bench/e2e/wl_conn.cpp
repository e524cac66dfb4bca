// conn_churn and conn_revoke: UBF admission at fleet scale on the sharded
// engine.
//
// A 2,000,001-user account database backs 65,536 active users, each owning
// one listener (host i/8, port 5000 + i%8); every fourth listener runs
// under its owner's project group (newgrp), so project peers may connect.
// Per (group, tick) a Pareto burst of connects arrives from Zipf(1.1)
// initiators: ~70% to the initiator's own listener, ~15% to a project
// peer's, ~15% to a stranger's (denied); ~2% cross node groups and drain at
// the barrier. Open flows see sends and closes; GC runs every tick.
//
// conn_revoke adds writes beside those reads: every serial phase toggles 8
// project memberships (each bumps the UserDb generation and flushes every
// UBF shard cache) and power-cycles 1% of the hosts.
//
// The oracle is the generator's own membership model: every connect's
// verdict, every GC's expiry count and every reset's teardown count are
// predicted before the call is made.
#include <algorithm>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/clock.h"
#include "core/engine.h"
#include "engine_tick.h"
#include "net/network.h"
#include "net/ubf.h"
#include "obs/decision.h"
#include "simos/credentials.h"
#include "simos/user_db.h"
#include "workloads.h"

namespace heus::e2e {
namespace {

using common::kSecond;

enum Kind : std::size_t {
  kConnect, kConnectCross, kSend, kClose, kGc, kResetHost, kListen,
  kAddMember, kRemoveMember,
};
constexpr OpKind kKinds[] = {
    {"net.connect", Layer::net},       {"net.connect_cross", Layer::net},
    {"net.send", Layer::net},          {"net.close", Layer::net},
    {"net.gc_bucket", Layer::net},     {"net.reset_host", Layer::net},
    {"net.listen", Layer::net},        {"simos.add_member", Layer::simos},
    {"simos.remove_member", Layer::simos},
};

struct Sizes {
  std::size_t users;       ///< account database population
  std::uint32_t hosts;     ///< == active / kListenersPerHost
  std::uint32_t groups;    ///< node groups (ShardMap::blocks)
  std::uint32_t active;    ///< users owning a listener
  std::uint32_t ticks;     ///< per episode
  double burst_mean;       ///< connects per (group, tick)
  std::uint32_t toggles;   ///< membership changes per serial phase
  std::uint32_t resets;    ///< hosts power-cycled per serial phase
  std::size_t streams;     ///< independent op streams
  std::size_t episodes;    ///< measured phase
};

// Four streams of 128 ticks, each replayed three times: tick_p99_ms rests
// on the slowest of 512 distinct ticks rather than on one seed's one or two
// heaviest, and every tick has three replays to take the fastest of.
Sizes sizes(bool smoke) {
  if (smoke) return {20'001, 256, 4, 2048, 24, 24, 8, 3, 2, 2};
  return {2'000'001, 8192, 24, 65'536, 128, 128, 8, 82, 4, 12};
}

constexpr std::uint32_t kProjectSize = 16;
constexpr std::uint32_t kListenersPerHost = 8;
constexpr std::uint16_t kBasePort = 5000;
constexpr std::int64_t kFlowTtl = 3 * kSecond;
constexpr std::int64_t kTickAdvance = kSecond / 2;
constexpr double kCrossGroup = 0.02;
constexpr double kSendP = 0.5;
constexpr double kCloseP = 0.2;

struct Connect {
  std::uint32_t initiator = 0;  ///< active-user index
  std::uint32_t target = 0;     ///< active user whose listener is dialled
  std::uint32_t src_host = 0;
  bool allow = false;           ///< the oracle's verdict
};

struct Toggle {
  std::uint32_t user = 0;
  std::uint32_t project = 0;
  bool add = false;
};

struct FlowRec {
  FlowId id{};
  std::uint32_t client_host = 0;
  std::uint32_t server_host = 0;
  std::int64_t deadline = 0;  ///< predicted conntrack expiry (sim ns)
};

/// One op stream; the connect vectors are indexed through their *_begin by
/// (tick, group), the writes by tick.
struct Stream {
  std::vector<Connect> ops;  ///< intra-group
  std::vector<std::size_t> op_begin;
  std::vector<Connect> cross;  ///< cross-group
  std::vector<std::size_t> cross_begin;
  std::vector<Toggle> toggles;         ///< sz_.toggles per tick
  std::vector<std::uint32_t> resets;   ///< sz_.resets per tick
};

/// Generator stream ids of op stream `k`: stream 0 keeps ids 1, 4 and 100+g.
std::uint64_t stream_base(std::size_t k) { return 1000 * k; }

std::uint64_t pair_key(std::uint32_t user, std::uint32_t project) {
  return (static_cast<std::uint64_t>(user) << 32) | project;
}

class ConnWorkload final : public Workload {
 public:
  ConnWorkload(bool revoke, bool smoke, std::uint64_t seed)
      : revoke_(revoke),
        sz_(sizes(smoke)),
        seed_(seed),
        map_(core::ShardMap::blocks(sz_.hosts, sz_.groups)),
        user_lo_(sz_.groups, UINT32_MAX),
        user_hi_(sz_.groups, 0),
        host_lo_(sz_.groups, UINT32_MAX),
        host_hi_(sz_.groups, 0),
        reset_pos_(sz_.hosts, -1) {
    for (std::uint32_t h = 0; h < sz_.hosts; ++h) {
      const std::uint32_t g = map_.host_group[h];
      host_lo_[g] = std::min(host_lo_[g], h);
      host_hi_[g] = std::max(host_hi_[g], h + 1);
      user_lo_[g] = std::min(user_lo_[g], h * kListenersPerHost);
      user_hi_[g] = std::max(user_hi_[g], (h + 1) * kListenersPerHost);
    }
  }

  [[nodiscard]] std::span<const OpKind> kinds() const override {
    return kKinds;
  }
  [[nodiscard]] std::size_t lanes() const override { return sz_.groups + 1; }
  [[nodiscard]] bool engine() const override { return true; }
  [[nodiscard]] std::size_t episodes() const override { return sz_.episodes; }
  [[nodiscard]] std::size_t streams() const override { return sz_.streams; }
  [[nodiscard]] std::uint64_t setup_failures() const override {
    return setup_failures_;
  }

  void generate() override;
  void setup() override;
  void reset() override;
  void run(Episode& ep) override;
  void finish(std::map<std::string, double>& c) const override;

 private:
  [[nodiscard]] std::uint32_t group_of_user(std::uint32_t i) const {
    return map_.host_group[i / kListenersPerHost];
  }
  [[nodiscard]] static std::uint16_t port_of(std::uint32_t i) {
    return static_cast<std::uint16_t>(kBasePort + i % kListenersPerHost);
  }
  [[nodiscard]] const simos::Credentials& listen_cred(std::uint32_t i) const {
    return i % 4 == 0 ? project_creds_[i / 4] : creds_[i];
  }

  void draw_stream(Stream& st, std::size_t k) const;
  void build_fabric();
  void connect_op(const Connect& op, std::int64_t now, Recorder& lane,
                  std::vector<FlowRec>& flows, Kind kind);
  void churn_flows(std::vector<FlowRec>& flows, Gen& gen, std::int64_t now,
                   Recorder& lane);
  void gc(std::uint32_t bucket, std::vector<FlowRec>& flows,
          std::int64_t now, Recorder& lane);
  void group_tick(std::uint32_t g, std::uint32_t t, Recorder& lane,
                  EngineTicker& ticker);
  void serial_tick(std::uint32_t t, Recorder& lane);
  void reset_hosts(std::uint32_t t, Recorder& lane);

  const bool revoke_;
  const Sizes sz_;
  const std::uint64_t seed_;
  const core::ShardMap map_;
  std::vector<std::uint32_t> user_lo_, user_hi_;  ///< active users per group
  std::vector<std::uint32_t> host_lo_, host_hi_;  ///< hosts per group

  // ---- generated op streams ------------------------------------------
  std::vector<Stream> streams_;
  const Stream* st_ = nullptr;  ///< replayed by the current (last) episode

  // ---- state --------------------------------------------------------------
  std::unique_ptr<simos::UserDb> db_;
  std::vector<Uid> uids_;                       ///< active users
  std::vector<Gid> project_gids_;
  std::vector<simos::Credentials> creds_;          ///< login credentials
  std::vector<simos::Credentials> project_creds_;  ///< newgrp, every 4th user
  std::unique_ptr<common::SimClock> clock_;
  std::unique_ptr<net::Network> nw_;
  std::unique_ptr<core::ShardedEngine> engine_;
  std::unique_ptr<net::Ubf> ubf_;
  obs::DecisionTrace trace_;
  unsigned workers_ = 3;
  std::size_t applied_toggles_ = 0;  ///< UserDb writes to revert on reset
  std::uint64_t setup_failures_ = 0;

  // ---- per-episode model ----------------------------------------------
  std::vector<std::vector<FlowRec>> flows_;  ///< by group (bucket)
  std::vector<FlowRec> cross_flows_;         ///< the cross bucket
  std::vector<Gen> flow_gens_;               ///< by group, then coordinator
  std::vector<std::int32_t> reset_pos_;      ///< host -> order in reset list
};

void ConnWorkload::generate() {
  streams_.resize(sz_.streams);
  for (std::size_t k = 0; k < sz_.streams; ++k) draw_stream(streams_[k], k);
}

void ConnWorkload::draw_stream(Stream& st, std::size_t k) const {
  std::vector<Zipf> zipf;
  for (std::uint32_t g = 0; g < sz_.groups; ++g) {
    zipf.emplace_back(user_hi_[g] - user_lo_[g], 1.1);
  }
  // Connects and writes come from separate streams, so conn_revoke dials
  // exactly the connections conn_churn does for the same seed. Every stream
  // starts from the base membership, which reset() restores.
  Gen gen(seed_, stream_base(k) + 1);
  Gen wgen(seed_, stream_base(k) + 4);
  std::unordered_set<std::uint64_t> toggled;  // memberships flipped so far
  const auto member = [&](std::uint32_t i, std::uint32_t p) {
    return (p == i / kProjectSize) != toggled.contains(pair_key(i, p));
  };
  // UBF rule (a) same uid, rule (b) member of the listener's egid; only
  // every fourth listener runs under a project egid.
  const auto allows = [&](std::uint32_t i, std::uint32_t k) {
    return i == k || (k % 4 == 0 && member(i, k / kProjectSize));
  };
  const auto in_group = [&](Gen& r, std::uint32_t g) {
    return user_lo_[g] +
           static_cast<std::uint32_t>(r.below(user_hi_[g] - user_lo_[g]));
  };
  const auto host_in = [&](std::uint32_t g) {
    return host_lo_[g] +
           static_cast<std::uint32_t>(gen.below(host_hi_[g] - host_lo_[g]));
  };
  const auto stranger = [&](Gen& r, std::uint32_t g, std::uint32_t i) {
    for (int tries = 0; tries < 8; ++tries) {
      const std::uint32_t c = in_group(r, g);
      if (c / kProjectSize != i / kProjectSize) return c;
    }
    return i;
  };

  for (std::uint32_t t = 0; t < sz_.ticks; ++t) {
    for (std::uint32_t g = 0; g < sz_.groups; ++g) {
      st.op_begin.push_back(st.ops.size());
      st.cross_begin.push_back(st.cross.size());
      const std::uint32_t burst = pareto_burst(gen, sz_.burst_mean);
      for (std::uint32_t b = 0; b < burst; ++b) {
        if (sz_.groups > 1 && gen.chance(kCrossGroup)) {
          const std::uint32_t g2 = static_cast<std::uint32_t>(
              (g + 1 + gen.below(sz_.groups - 1)) % sz_.groups);
          const std::uint32_t c = in_group(gen, g2);
          const std::uint32_t i =
              gen.chance(0.5) ? c
                              : user_lo_[g] + static_cast<std::uint32_t>(
                                                  zipf[g].draw(gen));
          st.cross.push_back({i, c, host_in(g), allows(i, c)});
          continue;
        }
        const std::uint32_t i =
            user_lo_[g] + static_cast<std::uint32_t>(zipf[g].draw(gen));
        std::uint32_t c = i;
        const double u = gen.uniform();
        if (u >= 0.85) {
          c = stranger(gen, g, i);
        } else if (u >= 0.70) {
          // A project peer's listener that runs under the project egid.
          const std::uint32_t peer =
              (i / kProjectSize) * kProjectSize +
              4 * static_cast<std::uint32_t>(gen.below(kProjectSize / 4));
          if (peer != i && group_of_user(peer) == g) c = peer;
        }
        st.ops.push_back({i, c, host_in(g), allows(i, c)});
      }
    }
    if (!revoke_) continue;
    for (std::uint32_t n = 0; n < sz_.toggles;) {
      const auto g = static_cast<std::uint32_t>(wgen.below(sz_.groups));
      const std::uint32_t i =
          user_lo_[g] + static_cast<std::uint32_t>(zipf[g].draw(wgen));
      std::uint32_t p = i / kProjectSize;
      if (wgen.chance(0.5)) {
        p = stranger(wgen, g, i) / kProjectSize;  // a foreign project in reach
      }
      if (p == i / kProjectSize && i % kProjectSize == 0) continue;  // steward
      const bool add = !member(i, p);
      st.toggles.push_back({i, p, add});
      const std::uint64_t key = pair_key(i, p);
      if (!toggled.erase(key)) toggled.insert(key);
      ++n;
    }
    const std::size_t first = st.resets.size();
    while (st.resets.size() - first < sz_.resets) {
      const auto h = static_cast<std::uint32_t>(wgen.below(sz_.hosts));
      if (std::find(st.resets.begin() + static_cast<std::ptrdiff_t>(first),
                    st.resets.end(), h) == st.resets.end()) {
        st.resets.push_back(h);
      }
    }
  }
  st.op_begin.push_back(st.ops.size());
  st.cross_begin.push_back(st.cross.size());
}

void ConnWorkload::setup() {
  db_ = std::make_unique<simos::UserDb>();
  for (std::size_t u = 0; u < sz_.users; ++u) {
    auto uid = db_->create_user("u" + std::to_string(u));
    if (!uid) {
      ++setup_failures_;
      continue;
    }
    if (u < sz_.active) uids_.push_back(*uid);
  }
  for (std::uint32_t p = 0; p < sz_.active / kProjectSize; ++p) {
    const Uid steward = uids_[p * kProjectSize];
    auto gid = db_->create_project_group("p" + std::to_string(p), steward);
    if (!gid) {
      ++setup_failures_;
      project_gids_.push_back(Gid{});
      continue;
    }
    project_gids_.push_back(*gid);
    for (std::uint32_t m = 1; m < kProjectSize; ++m) {
      if (!db_->add_member(steward, *gid, uids_[p * kProjectSize + m])) {
        ++setup_failures_;
      }
    }
  }
  // The session credentials simos::login would hand out (private group as
  // egid, the project as supplementary group), built from the account
  // record directly: login() scans every group in the database, which at
  // two million private groups costs tens of milliseconds per user.
  for (std::uint32_t i = 0; i < sz_.active; ++i) {
    const simos::User* user = db_->find_user(uids_[i]);
    simos::Credentials cred;
    cred.uid = uids_[i];
    if (user != nullptr) {
      cred.egid = user->private_group;
    } else {
      ++setup_failures_;
    }
    cred.supplementary.insert(project_gids_[i / kProjectSize]);
    creds_.push_back(cred);
    if (i % 4 == 0) {
      auto pc = simos::newgrp(*db_, cred, project_gids_[i / kProjectSize]);
      if (!pc) ++setup_failures_;
      project_creds_.push_back(pc ? *pc : cred);
    }
  }
  build_fabric();
}

void ConnWorkload::build_fabric() {
  ubf_.reset();
  engine_.reset();
  nw_.reset();
  clock_ = std::make_unique<common::SimClock>();
  nw_ = std::make_unique<net::Network>(clock_.get());
  nw_->set_flow_ttl(kFlowTtl);
  for (std::uint32_t h = 0; h < sz_.hosts; ++h) {
    (void)nw_->add_host("n" + std::to_string(h));
  }
  core::EngineConfig ec;
  ec.workers = workers_;
  ec.seed = seed_;
  engine_ = std::make_unique<core::ShardedEngine>(nw_.get(), clock_.get(),
                                                  map_, ec);
  for (std::uint32_t i = 0; i < sz_.active; ++i) {
    if (!nw_->listen(HostId{i / kListenersPerHost}, listen_cred(i), Pid{1},
                     net::Proto::tcp, port_of(i))) {
      ++setup_failures_;
    }
  }
  ubf_ = std::make_unique<net::Ubf>(db_.get(), nw_.get());
  ubf_->set_clock(clock_.get());
  ubf_->set_log_limit(0);
  ubf_->attach();
  trace_.clear();
  trace_.set_clock(clock_.get());
}

void ConnWorkload::reset() {
  // Undo the episode's membership writes, newest first, so every episode
  // starts from the generator's base membership.
  for (std::size_t n = applied_toggles_; n-- > 0;) {
    const Toggle& tg = st_->toggles[n];
    const Uid steward = uids_[tg.project * kProjectSize];
    const Gid gid = project_gids_[tg.project];
    const Uid who = uids_[tg.user];
    const bool ok = tg.add ? db_->remove_member(steward, gid, who).ok()
                           : db_->add_member(steward, gid, who).ok();
    if (!ok) ++setup_failures_;
  }
  applied_toggles_ = 0;
  build_fabric();
}

void ConnWorkload::connect_op(const Connect& op, std::int64_t now,
                              Recorder& lane, std::vector<FlowRec>& flows,
                              Kind kind) {
  const std::uint32_t dst = op.target / kListenersPerHost;
  auto r = lane.call(kind, [&] {
    return nw_->connect(HostId{op.src_host}, creds_[op.initiator], Pid{3},
                        HostId{dst}, net::Proto::tcp, port_of(op.target));
  });
  if (r) {
    if (!op.allow) lane.fail();
    flows.push_back({*r, op.src_host, dst, now + kFlowTtl});
  } else if (op.allow || r.error() != Errno::econnrefused) {
    lane.fail();
  }
}

void ConnWorkload::churn_flows(std::vector<FlowRec>& flows, Gen& gen,
                               std::int64_t now, Recorder& lane) {
  for (std::size_t k = 0; k < flows.size();) {
    FlowRec& f = flows[k];
    if (gen.chance(kSendP)) {
      auto r = lane.call(kSend, [&] {
        return nw_->send(f.id, net::FlowEnd::client, "x");
      });
      if (r) {
        f.deadline = now + kFlowTtl;
      } else {
        lane.fail();
      }
    }
    if (gen.chance(kCloseP)) {
      if (!lane.call(kClose, [&] { return nw_->close(f.id); })) lane.fail();
      f = flows.back();
      flows.pop_back();
    } else {
      ++k;
    }
  }
}

void ConnWorkload::gc(std::uint32_t bucket, std::vector<FlowRec>& flows,
                      std::int64_t now, Recorder& lane) {
  const auto due = [now](const FlowRec& f) { return f.deadline <= now; };
  const auto expected =
      static_cast<std::size_t>(std::count_if(flows.begin(), flows.end(), due));
  const std::size_t expired =
      lane.call(kGc, [&] { return nw_->gc_bucket(bucket); });
  if (expired != expected) lane.fail();
  std::erase_if(flows, due);
}

void ConnWorkload::group_tick(std::uint32_t g, std::uint32_t t,
                              Recorder& lane, EngineTicker& ticker) {
  const std::int64_t now = clock_->now().ns;  // frozen during the tick
  const std::size_t k = static_cast<std::size_t>(t) * sz_.groups + g;
  for (std::size_t j = st_->op_begin[k]; j < st_->op_begin[k + 1]; ++j) {
    connect_op(st_->ops[j], now, lane, flows_[g], kConnect);
  }
  churn_flows(flows_[g], flow_gens_[g], now, lane);
  gc(g, flows_[g], now, lane);
  for (std::size_t j = st_->cross_begin[k]; j < st_->cross_begin[k + 1];
       ++j) {
    ticker.post_cross(g, [this, j, now](Recorder& coord) {
      connect_op(st_->cross[j], now, coord, cross_flows_, kConnectCross);
    });
  }
}

void ConnWorkload::serial_tick(std::uint32_t t, Recorder& lane) {
  const std::int64_t now = clock_->now().ns;
  churn_flows(cross_flows_, flow_gens_.back(), now, lane);
  gc(nw_->cross_bucket(), cross_flows_, now, lane);
  if (!revoke_) return;
  for (std::size_t n = static_cast<std::size_t>(t) * sz_.toggles;
       n < static_cast<std::size_t>(t + 1) * sz_.toggles; ++n) {
    const Toggle& tg = st_->toggles[n];
    const Uid steward = uids_[tg.project * kProjectSize];
    const Gid gid = project_gids_[tg.project];
    const Uid who = uids_[tg.user];
    const bool ok =
        tg.add ? lane.call(kAddMember,
                           [&] { return db_->add_member(steward, gid, who); })
                     .ok()
               : lane.call(kRemoveMember,
                           [&] {
                             return db_->remove_member(steward, gid, who);
                           })
                     .ok();
    if (!ok) lane.fail();
    applied_toggles_ = n + 1;
  }
  reset_hosts(t, lane);
}

void ConnWorkload::reset_hosts(std::uint32_t t, Recorder& lane) {
  const std::size_t first = static_cast<std::size_t>(t) * sz_.resets;
  for (std::uint32_t n = 0; n < sz_.resets; ++n) {
    reset_pos_[st_->resets[first + n]] = static_cast<std::int32_t>(n);
  }
  // A flow dies with the first of its two hosts to be reset.
  std::vector<std::size_t> expected(sz_.resets, kListenersPerHost);
  const auto first_reset = [&](const FlowRec& f) {
    const std::int32_t a = reset_pos_[f.client_host];
    const std::int32_t b = reset_pos_[f.server_host];
    if (a < 0) return b;
    return b < 0 ? a : std::min(a, b);
  };
  const auto tally = [&](std::vector<FlowRec>& flows) {
    for (const FlowRec& f : flows) {
      const std::int32_t p = first_reset(f);
      if (p >= 0) ++expected[static_cast<std::size_t>(p)];
    }
    std::erase_if(flows, [&](const FlowRec& f) { return first_reset(f) >= 0; });
  };
  for (auto& flows : flows_) tally(flows);
  tally(cross_flows_);

  for (std::uint32_t n = 0; n < sz_.resets; ++n) {
    const std::uint32_t h = st_->resets[first + n];
    const std::size_t torn =
        lane.call(kResetHost, [&] { return nw_->reset_host(HostId{h}); });
    if (torn != expected[n]) lane.fail();
    // The host comes back up and its services listen again.
    for (std::uint32_t i = h * kListenersPerHost;
         i < (h + 1) * kListenersPerHost; ++i) {
      if (!lane.call(kListen, [&] {
            return nw_->listen(HostId{h}, listen_cred(i), Pid{1},
                               net::Proto::tcp, port_of(i));
          })) {
        lane.fail();
      }
    }
    reset_pos_[h] = -1;
  }
}

void ConnWorkload::run(Episode& ep) {
  if (engine_->workers() != ep.workers) {
    workers_ = ep.workers;
    build_fabric();
  }
  trace_.set_capacity(std::max<std::size_t>(ep.ring, 1));
  trace_.set_enabled(ep.ring > 0);
  obs::DecisionTrace* trace = ep.detach_trace ? nullptr : &trace_;
  nw_->set_trace(trace);
  ubf_->set_trace(trace);

  st_ = &streams_[ep.stream];
  flows_.assign(sz_.groups, {});
  cross_flows_.clear();
  flow_gens_.clear();
  for (std::uint32_t g = 0; g <= sz_.groups; ++g) {
    flow_gens_.emplace_back(seed_, stream_base(ep.stream) + 100 + g);
  }

  std::vector<Recorder>& lanes = *ep.lanes;
  EngineTicker ticker(*engine_, lanes, ep);
  std::uint32_t tick = 0;
  ticker.set_group_body([&](std::uint32_t g, Recorder& lane) {
    group_tick(g, tick, lane, ticker);
  });
  ticker.set_serial_body([&](Recorder& lane) { serial_tick(tick, lane); });

  const std::int64_t start = now_ns();
  for (tick = 0; tick < sz_.ticks; ++tick) {
    if (!ticker.tick(tick)) lanes.back().fail();
    std::size_t live = cross_flows_.size();
    for (const auto& f : flows_) live += f.size();
    ep.sample("net.flows_live_p50", static_cast<double>(live));
    clock_->advance(kTickAdvance);
  }
  ep.wall = now_ns() - start;

  if (nw_->flow_lifecycle().illegal_events() != 0) lanes.back().fail();
  ep.decisions = 0;
  for (const obs::DecisionPoint p : obs::kAllDecisionPoints) {
    ep.decisions += trace_.counters(p).allowed + trace_.counters(p).denied;
  }
  ep.digest = core::network_digest(*nw_) * 31 + core::decision_digest(trace_);

  const net::NetworkStats s = nw_->stats();
  ep.count("net.connections_attempted",
           static_cast<double>(s.connections_attempted));
  ep.count("net.connections_established",
           static_cast<double>(s.connections_established));
  ep.count("net.gc_runs", static_cast<double>(s.gc_runs));
  ep.count("net.gc_entries_touched", static_cast<double>(s.gc_entries_touched));
  ep.count("net.identity_resets",
           static_cast<double>(s.flows_reset_identity_changed));
  const net::UbfStats u = ubf_->stats();
  ep.count("net.ubf.cache_hits", static_cast<double>(u.cache_hits));
  ep.count("net.ubf.cache_misses", static_cast<double>(u.cache_misses));
  ep.count("net.ubf.invalidations",
           static_cast<double>(u.cache_invalidations));
  ep.count("net.ubf.decisions", static_cast<double>(u.decisions));
  ep.count("obs.decisions_total", static_cast<double>(trace_.total()));
  ep.count("obs.overwritten", static_cast<double>(trace_.overwritten()));
  ep.count("lifecycle.fired_total",
           static_cast<double>(nw_->flow_lifecycle().fired_total()));
  ep.count("lifecycle.illegal_events",
           static_cast<double>(nw_->flow_lifecycle().illegal_events()));
  ep.count("core.total_work_ns",
           static_cast<double>(engine_->stats().total_work_ns));
  ep.count("core.modeled_span_ns",
           static_cast<double>(engine_->stats().modeled_span_ns));
}

void ConnWorkload::finish(std::map<std::string, double>& c) const {
  c["net.established_ratio"] = ratio(c["net.connections_established"],
                                     c["net.connections_attempted"]);
  c["net.gc_touched_per_run"] =
      ratio(c["net.gc_entries_touched"], c["net.gc_runs"]);
  c["net.ubf.cache_hit_ratio"] =
      ratio(c["net.ubf.cache_hits"],
            c["net.ubf.cache_hits"] + c["net.ubf.cache_misses"]);
  c["core.modeled_speedup"] =
      ratio(c["core.total_work_ns"], c["core.modeled_span_ns"]);
}

}  // namespace

std::unique_ptr<Workload> make_conn(bool revoke, bool smoke,
                                    std::uint64_t seed) {
  return std::make_unique<ConnWorkload>(revoke, smoke, seed);
}

}  // namespace heus::e2e

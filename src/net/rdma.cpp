#include "net/rdma.h"

namespace heus::net {

Result<QpId> RdmaManager::setup_via_tcp(HostId local,
                                        const simos::Credentials& cred,
                                        Pid pid, HostId remote,
                                        std::uint16_t rendezvous_port) {
  auto flow = network_->connect(local, cred, pid, remote, Proto::tcp,
                                rendezvous_port);
  const auto rendezvous_label = [&](std::string& out) {
    out += "rendezvous host ";
    obs::append_uint(out, remote.value());
    out += " port ";
    obs::append_uint(out, rendezvous_port);
  };
  if (!flow) {
    ++stats_.qp_setups_blocked;
    // ECONNREFUSED with the UBF inspecting this port is a firewall drop;
    // without it the refusal is just a missing listener, not enforcement.
    if (trace_ != nullptr && flow.error() == Errno::econnrefused &&
        network_->inspects(rendezvous_port)) {
      trace_->record(obs::DecisionPoint::rdma_setup, obs::Outcome::deny,
                     cred.uid, cred.egid, Uid{},
                     obs::ChannelKind::rdma_tcp_setup, obs::knob::ubf,
                     rendezvous_label);
    }
    return flow.error();
  }
  const std::optional<Flow> f = network_->find_flow(*flow);
  if (trace_ != nullptr && f.has_value() && f->server_uid != cred.uid) {
    trace_->record(obs::DecisionPoint::rdma_setup, obs::Outcome::allow,
                   cred.uid, cred.egid, f->server_uid,
                   obs::ChannelKind::rdma_tcp_setup, nullptr,
                   rendezvous_label);
  }
  const QpId id{next_qp_++};
  QueuePair qp;
  qp.id = id;
  qp.local_host = local;
  qp.remote_host = remote;
  qp.local_uid = cred.uid;
  qp.remote_uid = f->server_uid;
  qp.setup = QpSetupPath::tcp_control_channel;
  qp.control_flow = *flow;
  qps_.emplace(id, std::move(qp));
  ++stats_.qp_setups_tcp;
  return id;
}

Result<QpId> RdmaManager::setup_via_cm(HostId local,
                                       const simos::Credentials& cred,
                                       HostId remote, Uid remote_uid) {
  // Nothing to consult: the CM exchange rides native IB management
  // datagrams that the UBF never sees. Cross-user bring-up is the
  // documented rdma-native-cm residual; the trace records the exposure.
  if (trace_ != nullptr && remote_uid != cred.uid) {
    trace_->record(obs::DecisionPoint::rdma_setup, obs::Outcome::allow,
                   cred.uid, cred.egid, remote_uid,
                   obs::ChannelKind::rdma_native_cm, nullptr,
                   [&](std::string& out) {
                     out += "cm host ";
                     obs::append_uint(out, remote.value());
                   });
  }
  const QpId id{next_qp_++};
  QueuePair qp;
  qp.id = id;
  qp.local_host = local;
  qp.remote_host = remote;
  qp.local_uid = cred.uid;
  qp.remote_uid = remote_uid;
  qp.setup = QpSetupPath::native_cm;
  qps_.emplace(id, std::move(qp));
  ++stats_.qp_setups_cm;
  return id;
}

Result<void> RdmaManager::write(QpId id, std::string payload) {
  auto it = qps_.find(id);
  if (it == qps_.end()) return Errno::ebadf;
  QueuePair& qp = it->second;
  qp.bytes += payload.size();
  stats_.bytes_written += payload.size();
  ++stats_.writes;
  qp.inbox.push_back(std::move(payload));
  return ok_result();
}

Result<std::string> RdmaManager::poll(QpId id) {
  auto it = qps_.find(id);
  if (it == qps_.end()) return Errno::ebadf;
  if (it->second.inbox.empty()) return Errno::eagain;
  std::string out = std::move(it->second.inbox.front());
  it->second.inbox.pop_front();
  return out;
}

Result<void> RdmaManager::destroy(QpId id) {
  auto it = qps_.find(id);
  if (it == qps_.end()) return Errno::ebadf;
  if (it->second.control_flow) {
    (void)network_->close(*it->second.control_flow);
  }
  qps_.erase(it);
  return ok_result();
}

const QueuePair* RdmaManager::find(QpId id) const {
  auto it = qps_.find(id);
  return it == qps_.end() ? nullptr : &it->second;
}

std::vector<QpId> RdmaManager::cross_user_qps() const {
  std::vector<QpId> out;
  for (const auto& [id, qp] : qps_) {
    if (qp.local_uid != qp.remote_uid) out.push_back(id);
  }
  return out;
}

}  // namespace heus::net

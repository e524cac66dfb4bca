#include "simos/pam.h"

namespace heus::simos {

Result<Credentials> SeepidService::request(const Credentials& cred) {
  if (!cred.is_root() && !whitelist_.contains(cred.uid)) {
    audit_log_.push_back({cred.uid, false});
    return Errno::eperm;
  }
  audit_log_.push_back({cred.uid, true});
  Credentials out = cred;
  out.supplementary.insert(exempt_group_);
  return out;
}

Result<Credentials> SmaskRelaxService::request(const Credentials& cred) {
  if (!cred.is_root() && !whitelist_.contains(cred.uid)) {
    audit_log_.push_back({cred.uid, false});
    return Errno::eperm;
  }
  audit_log_.push_back({cred.uid, true});
  Credentials out = cred;
  out.smask = relaxed_smask_;
  return out;
}

Result<void> PamSlurm::authorize_ssh(const Credentials& cred,
                                     NodeId node) const {
  if (cred.is_root()) return ok_result();
  if (login_nodes_.contains(node)) return ok_result();
  // From here on: a user asking for a compute node. Admission without a
  // job there is the §IV-B ssh-foreign-node channel, so the verdict is a
  // separation decision either way.
  const bool own_job = has_job_ && has_job_(cred.uid, node);
  const bool allowed = !enabled_ || own_job;
  if (trace_ != nullptr && !own_job) {
    trace_->record(obs::DecisionPoint::pam_ssh,
                   allowed ? obs::Outcome::allow : obs::Outcome::deny,
                   cred.uid, cred.egid, kRootUid,
                   obs::ChannelKind::ssh_foreign_node,
                   allowed ? nullptr : obs::knob::pam_slurm,
                   [&](std::string& out) {
                     out += "node ";
                     obs::append_uint(out, node.value());
                   });
  }
  return allowed ? ok_result() : Result<void>(Errno::eperm);
}

}  // namespace heus::simos

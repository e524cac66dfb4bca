#include "portal/gateway.h"

namespace heus::portal {

const lifecycle::Transition* Gateway::fire_session(Session& session,
                                                   SessionEvent event,
                                                   bool inspected,
                                                   Uid app_owner) {
  lifecycle::StateId s = static_cast<lifecycle::StateId>(session.state);
  const lifecycle::Transition* t = session_lc_.fire(
      s, static_cast<lifecycle::EventId>(event),
      [inspected](const lifecycle::Guard&) { return inspected; },
      session.cred.uid, session.cred.egid, app_owner);
  session.state = static_cast<SessionState>(s);
  return t;
}

Result<SessionId> Gateway::login(const simos::Credentials& cred) {
  if (!users_->user_exists(cred.uid)) return Errno::eperm;
  const SessionId token{next_session_++};
  Session session;
  session.cred = cred;
  if (session_ttl_ns_ > 0 && clock_ != nullptr) {
    session.expires_at_ns = clock_->now().ns + session_ttl_ns_;
  }
  sessions_.emplace(token, std::move(session));
  ++stats_.logins;
  return token;
}

Result<void> Gateway::logout(SessionId token) {
  auto it = sessions_.find(token);
  if (it == sessions_.end()) return Errno::enoent;
  // Lazy expiry first, so the close takes the expired->closed row when
  // the TTL already lapsed.
  if (it->second.state == SessionState::active && lapsed(it->second)) {
    fire_session(it->second, SessionEvent::ttl_expire, false, Uid{});
  }
  fire_session(it->second, SessionEvent::logout, false, Uid{});
  sessions_.erase(it);
  return ok_result();
}

std::optional<Uid> Gateway::session_user(SessionId token) const {
  auto it = sessions_.find(token);
  if (it == sessions_.end()) return std::nullopt;
  if (it->second.state != SessionState::active || lapsed(it->second)) {
    return std::nullopt;
  }
  return it->second.cred.uid;
}

Result<AppId> Gateway::register_app(
    const simos::Credentials& cred, Pid pid, JobId job, HostId host,
    std::uint16_t port, const std::string& name,
    std::function<std::string(const std::string&)> handler) {
  // The app must belong to a real allocation: a user cannot park rogue
  // listeners on nodes they have no job on.
  if (!cred.is_root() &&
      (!has_job_on_host_ || !has_job_on_host_(cred.uid, host))) {
    return Errno::eperm;
  }
  auto listen = network_->listen(host, cred, pid, net::Proto::tcp, port);
  if (!listen) return listen.error();

  const AppId id{next_app_++};
  WebApp app;
  app.id = id;
  app.name = name;
  app.owner = cred.uid;
  app.job = job;
  app.host = host;
  app.port = port;
  app.handler = std::move(handler);
  apps_.emplace(id, std::move(app));
  return id;
}

Result<void> Gateway::unregister_app(const simos::Credentials& cred,
                                     AppId id) {
  auto it = apps_.find(id);
  if (it == apps_.end()) return Errno::enoent;
  if (!cred.is_root() && it->second.owner != cred.uid) return Errno::eperm;
  (void)network_->close_listener(it->second.host, net::Proto::tcp,
                                 it->second.port);
  apps_.erase(it);
  return ok_result();
}

Result<std::string> Gateway::request(SessionId token, AppId app_id,
                                     const std::string& http_request) {
  ++stats_.requests;
  if (outage_probe_ && outage_probe_()) {
    ++stats_.denied_backend_down;
    return Errno::ehostunreach;
  }
  auto it = sessions_.find(token);
  if (it == sessions_.end()) {
    ++stats_.denied_auth;
    return Errno::eperm;
  }
  Session& session = it->second;
  if (session.state == SessionState::active && lapsed(session)) {
    fire_session(session, SessionEvent::ttl_expire, false, Uid{});
  }
  if (session.state != SessionState::active) {
    ++stats_.denied_session_expired;
    return Errno::eperm;
  }
  const simos::Credentials& user_cred = session.cred;

  auto app_it = apps_.find(app_id);
  if (app_it == apps_.end()) return Errno::enoent;
  const WebApp& app = app_it->second;

  // The forward is a self-loop on the session table: inspected when the
  // UBF governs the app port, otherwise the annotated uninspected row.
  fire_session(session, SessionEvent::forward, network_->inspects(app.port),
               app.owner);
  return forward_hop(user_cred, app, http_request);
}

Result<std::string> Gateway::federated_request(
    const simos::Credentials& cred, AppId app_id,
    const std::string& http_request) {
  ++stats_.requests;
  if (outage_probe_ && outage_probe_()) {
    ++stats_.denied_backend_down;
    return Errno::ehostunreach;
  }
  // The mapped account must exist here; federation maps, it never mints.
  if (!users_->user_exists(cred.uid)) {
    ++stats_.denied_auth;
    return Errno::eperm;
  }
  auto app_it = apps_.find(app_id);
  if (app_it == apps_.end()) return Errno::enoent;
  return forward_hop(cred, app_it->second, http_request);
}

Result<std::string> Gateway::forward_hop(const simos::Credentials& user_cred,
                                         const WebApp& app,
                                         const std::string& http_request) {
  // Forwarded hop, attributed to the authenticated user. The UBF (if
  // attached to the fabric) makes the allow/deny decision here. Transient
  // fabric faults are retried with backoff; a UBF denial (econnrefused)
  // is deterministic policy and is surfaced immediately.
  auto flow = network_->connect(portal_host_, user_cred, Pid{}, app.host,
                                net::Proto::tcp, app.port);
  for (unsigned attempt = 0;
       !flow && transient(flow.error()) && attempt < retry_.max_retries;
       ++attempt) {
    if (clock_ != nullptr) clock_->advance(retry_.delay_ns(attempt));
    ++stats_.retries;
    flow = network_->connect(portal_host_, user_cred, Pid{}, app.host,
                             net::Proto::tcp, app.port);
    if (flow) ++stats_.retry_successes;
  }
  const auto app_label = [&](std::string& out) {
    out += app.name;
    out += " host ";
    obs::append_uint(out, app.host.value());
    out += " port ";
    obs::append_uint(out, app.port);
  };
  if (!flow) {
    ++stats_.denied_network;
    // The fabric refused the forwarded hop. With the UBF inspecting the
    // app port that refusal is the portal-foreign-app closure; without it
    // the error is a plain fault, not enforcement.
    if (trace_ != nullptr &&
        network_->inspects(app.port) &&
        flow.error() == Errno::econnrefused) {
      trace_->record(obs::DecisionPoint::portal_forward, obs::Outcome::deny,
                     user_cred.uid, user_cred.egid, app.owner,
                     obs::ChannelKind::portal_foreign_app, obs::knob::ubf,
                     app_label);
    }
    return flow.error();
  }
  auto sent = network_->send(*flow, net::FlowEnd::client, http_request);
  if (!sent) return sent.error();
  auto delivered = network_->recv(*flow, net::FlowEnd::server);
  if (!delivered) return delivered.error();
  const std::string response =
      app.handler ? app.handler(*delivered) : std::string{};
  (void)network_->send(*flow, net::FlowEnd::server, response);
  auto back = network_->recv(*flow, net::FlowEnd::client);
  (void)network_->close(*flow);
  if (!back) return back.error();
  ++stats_.forwarded;
  if (trace_ != nullptr && !user_cred.is_root() &&
      user_cred.uid != app.owner) {
    trace_->record(obs::DecisionPoint::portal_forward, obs::Outcome::allow,
                   user_cred.uid, user_cred.egid, app.owner,
                   obs::ChannelKind::portal_foreign_app, nullptr, app_label);
  }
  return *back;
}

std::vector<AppId> Gateway::list_apps(SessionId token) const {
  std::vector<AppId> out;
  auto user = session_user(token);
  if (!user) return out;
  for (const auto& [id, app] : apps_) {
    if (app.owner == *user) out.push_back(id);
  }
  return out;
}

const WebApp* Gateway::find_app(AppId id) const {
  auto it = apps_.find(id);
  return it == apps_.end() ? nullptr : &it->second;
}

}  // namespace heus::portal

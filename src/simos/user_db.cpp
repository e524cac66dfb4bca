#include "simos/user_db.h"

namespace heus::simos {

UserDb::UserDb() {
  // root account + root group, mirroring a stock Linux install.
  User root{kRootUid, "root", kRootGid, "/root"};
  Group root_group{kRootGid, "root", GroupKind::system, {kRootUid}, {}};
  users_.emplace(root.uid, root);
  user_by_name_.emplace("root", root.uid);
  groups_.emplace(root_group.gid, root_group);
  group_by_name_.emplace("root", root_group.gid);
}

Result<Uid> UserDb::create_user(const std::string& name) {
  if (name.empty()) return Errno::einval;
  if (user_by_name_.contains(name) || group_by_name_.contains(name)) {
    return Errno::eexist;
  }
  const Uid uid{next_uid_};
  const Gid gid{next_gid_};
  ++next_uid_;
  ++next_gid_;

  Group upg{gid, name, GroupKind::user_private, {uid}, {}};
  groups_.emplace(gid, std::move(upg));
  group_by_name_.emplace(name, gid);

  User user{uid, name, gid, "/home/" + name};
  users_.emplace(uid, std::move(user));
  user_by_name_.emplace(name, uid);
  ++generation_;
  return uid;
}

Result<Gid> UserDb::create_group_internal(const std::string& name,
                                          GroupKind kind) {
  if (name.empty()) return Errno::einval;
  if (group_by_name_.contains(name)) return Errno::eexist;
  const Gid gid{next_gid_};
  ++next_gid_;
  Group g{gid, name, kind, {}, {}};
  groups_.emplace(gid, std::move(g));
  group_by_name_.emplace(name, gid);
  ++generation_;
  return gid;
}

Result<Gid> UserDb::create_project_group(const std::string& name,
                                         Uid steward) {
  if (!user_exists(steward)) return Errno::enoent;
  auto gid = create_group_internal(name, GroupKind::project);
  if (!gid) return gid.error();
  Group& g = groups_.at(*gid);
  join(g, steward);
  g.stewards.insert(steward);
  ++generation_;
  return *gid;
}

Result<Gid> UserDb::create_system_group(const std::string& name) {
  return create_group_internal(name, GroupKind::system);
}

Result<void> UserDb::add_member(Uid actor, Gid group, Uid member) {
  auto it = groups_.find(group);
  if (it == groups_.end()) return Errno::enoent;
  if (!user_exists(member)) return Errno::enoent;
  Group& g = it->second;
  if (g.kind != GroupKind::project) return Errno::eperm;
  if (actor != kRootUid && !g.stewards.contains(actor)) return Errno::eperm;
  join(g, member);
  ++generation_;
  return ok_result();
}

Result<void> UserDb::remove_member(Uid actor, Gid group, Uid member) {
  auto it = groups_.find(group);
  if (it == groups_.end()) return Errno::enoent;
  Group& g = it->second;
  if (g.kind != GroupKind::project) return Errno::eperm;
  if (actor != kRootUid && !g.stewards.contains(actor)) return Errno::eperm;
  if (g.stewards.contains(member)) return Errno::ebusy;
  if (!leave(g, member)) return Errno::enoent;
  ++generation_;
  return ok_result();
}

Result<void> UserDb::add_steward(Uid actor, Gid group, Uid steward) {
  auto it = groups_.find(group);
  if (it == groups_.end()) return Errno::enoent;
  if (!user_exists(steward)) return Errno::enoent;
  Group& g = it->second;
  if (g.kind != GroupKind::project) return Errno::eperm;
  if (actor != kRootUid && !g.stewards.contains(actor)) return Errno::eperm;
  g.stewards.insert(steward);
  join(g, steward);
  ++generation_;
  return ok_result();
}

Result<void> UserDb::remove_steward(Uid actor, Gid group, Uid steward) {
  auto it = groups_.find(group);
  if (it == groups_.end()) return Errno::enoent;
  Group& g = it->second;
  if (g.kind != GroupKind::project) return Errno::eperm;
  if (actor != kRootUid && !g.stewards.contains(actor)) return Errno::eperm;
  if (g.stewards.size() == 1 && g.stewards.contains(steward)) {
    // A project group must keep at least one responsible steward.
    return Errno::ebusy;
  }
  if (g.stewards.erase(steward) == 0) return Errno::enoent;
  ++generation_;
  return ok_result();
}

Result<void> UserDb::add_system_member(Uid actor, Gid group, Uid member) {
  if (actor != kRootUid) return Errno::eperm;
  auto it = groups_.find(group);
  if (it == groups_.end()) return Errno::enoent;
  if (!user_exists(member)) return Errno::enoent;
  if (it->second.kind != GroupKind::system) return Errno::einval;
  join(it->second, member);
  ++generation_;
  return ok_result();
}

void UserDb::join(Group& g, Uid uid) {
  if (g.members.insert(uid).second) member_of_[uid].insert(g.gid);
}

bool UserDb::leave(Group& g, Uid uid) {
  if (g.members.erase(uid) == 0) return false;
  if (auto it = member_of_.find(uid); it != member_of_.end()) {
    it->second.erase(g.gid);
    if (it->second.empty()) member_of_.erase(it);
  }
  return true;
}

bool UserDb::user_exists(Uid uid) const { return users_.contains(uid); }
bool UserDb::group_exists(Gid gid) const { return groups_.contains(gid); }

const User* UserDb::find_user(Uid uid) const {
  auto it = users_.find(uid);
  return it == users_.end() ? nullptr : &it->second;
}

const User* UserDb::find_user_by_name(const std::string& name) const {
  auto it = user_by_name_.find(name);
  return it == user_by_name_.end() ? nullptr : find_user(it->second);
}

const Group* UserDb::find_group(Gid gid) const {
  auto it = groups_.find(gid);
  return it == groups_.end() ? nullptr : &it->second;
}

const Group* UserDb::find_group_by_name(const std::string& name) const {
  auto it = group_by_name_.find(name);
  return it == group_by_name_.end() ? nullptr : find_group(it->second);
}

bool UserDb::is_member(Uid uid, Gid gid) const {
  const Group* g = find_group(gid);
  return g != nullptr && g->members.contains(uid);
}

bool UserDb::is_steward(Uid uid, Gid gid) const {
  const Group* g = find_group(gid);
  return g != nullptr && g->stewards.contains(uid);
}

std::vector<Gid> UserDb::groups_of(Uid uid) const {
  const User* user = find_user(uid);
  if (user == nullptr) return {};
  std::vector<Gid> out{user->private_group};
  if (auto it = member_of_.find(uid); it != member_of_.end()) {
    out.insert(out.end(), it->second.begin(), it->second.end());
  }
  return out;
}

std::vector<Uid> UserDb::all_users() const {
  std::vector<Uid> out;
  out.reserve(users_.size());
  for (const auto& [uid, u] : users_) out.push_back(uid);
  return out;
}

}  // namespace heus::simos

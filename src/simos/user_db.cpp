#include "simos/user_db.h"

namespace heus::simos {

namespace {

constexpr std::uint32_t kFirstId = 1000;  // 0 is root; 1..999 are reserved

/// Row of a densely issued id (0 → 0, kFirstId+k → k+1), or past every row.
constexpr std::size_t dense_index(std::uint32_t id) {
  if (id == 0) return 0;
  return id < kFirstId ? SIZE_MAX : std::size_t{id} - kFirstId + 1;
}

/// The id issued next once `rows` rows, root's included, exist.
constexpr std::uint32_t next_id(std::size_t rows) {
  return kFirstId + static_cast<std::uint32_t>(rows - 1);
}

}  // namespace

UserDb::UserDb() {
  // root account + root group, mirroring a stock Linux install. Root's
  // private group is the system group "root", found by name through root.
  users_.push_back(User{kRootUid, "root", kRootGid, "/root"});
  groups_.push_back(GroupRow{kRootGid, "root", GroupKind::system, {}, {}});
  groups_[0].members.insert(kRootUid);
  gid_slot_.push_back(kExplicit);  // groups_ row 0
  by_name_.emplace(users_[0].name, 0U);
}

Result<Uid> UserDb::create_user(const std::string& name) {
  if (name.empty()) return Errno::einval;
  if (by_name_.contains(name)) return Errno::eexist;
  const Uid uid{next_id(users_.size())};
  const Gid gid{next_id(gid_slot_.size())};
  const auto row = static_cast<std::uint32_t>(users_.size());
  const User& user = users_.push_back(User{uid, name, gid, "/home/" + name});
  gid_slot_.push_back(row);
  by_name_.emplace(user.name, row);
  ++generation_;
  return uid;
}

Result<Gid> UserDb::create_group_internal(const std::string& name,
                                          GroupKind kind) {
  if (name.empty()) return Errno::einval;
  if (by_name_.contains(name)) return Errno::eexist;
  const Gid gid{next_id(gid_slot_.size())};
  const auto row = static_cast<std::uint32_t>(groups_.size()) | kExplicit;
  const GroupRow& g = groups_.push_back(GroupRow{gid, name, kind, {}, {}});
  gid_slot_.push_back(row);
  by_name_.emplace(g.name, row);
  ++generation_;
  return gid;
}

Result<Gid> UserDb::create_project_group(const std::string& name,
                                         Uid steward) {
  if (!user_exists(steward)) return Errno::enoent;
  auto gid = create_group_internal(name, GroupKind::project);
  if (!gid) return gid.error();
  GroupRow& g = *explicit_row(*gid);
  join(g, steward);
  g.stewards.insert(steward);
  ++generation_;
  return *gid;
}

Result<Gid> UserDb::create_system_group(const std::string& name) {
  return create_group_internal(name, GroupKind::system);
}

Result<void> UserDb::add_member(Uid actor, Gid group, Uid member) {
  if (!group_exists(group) || !user_exists(member)) return Errno::enoent;
  GroupRow* g = managed_project(group, actor);
  if (g == nullptr) return Errno::eperm;
  join(*g, member);
  ++generation_;
  return ok_result();
}

Result<void> UserDb::remove_member(Uid actor, Gid group, Uid member) {
  if (!group_exists(group)) return Errno::enoent;
  GroupRow* g = managed_project(group, actor);
  if (g == nullptr) return Errno::eperm;
  if (g->stewards.contains(member)) return Errno::ebusy;
  if (!leave(*g, member)) return Errno::enoent;
  ++generation_;
  return ok_result();
}

Result<void> UserDb::add_steward(Uid actor, Gid group, Uid steward) {
  if (!group_exists(group) || !user_exists(steward)) return Errno::enoent;
  GroupRow* g = managed_project(group, actor);
  if (g == nullptr) return Errno::eperm;
  g->stewards.insert(steward);
  join(*g, steward);
  ++generation_;
  return ok_result();
}

Result<void> UserDb::remove_steward(Uid actor, Gid group, Uid steward) {
  if (!group_exists(group)) return Errno::enoent;
  GroupRow* g = managed_project(group, actor);
  if (g == nullptr) return Errno::eperm;
  if (g->stewards.size() == 1 && g->stewards.contains(steward)) {
    // A project group must keep at least one responsible steward.
    return Errno::ebusy;
  }
  if (g->stewards.erase(steward) == 0) return Errno::enoent;
  ++generation_;
  return ok_result();
}

Result<void> UserDb::add_system_member(Uid actor, Gid group, Uid member) {
  if (actor != kRootUid) return Errno::eperm;
  if (!group_exists(group) || !user_exists(member)) return Errno::enoent;
  GroupRow* g = explicit_row(group);
  if (g == nullptr || g->kind != GroupKind::system) return Errno::einval;
  join(*g, member);
  ++generation_;
  return ok_result();
}

std::optional<std::uint32_t> UserDb::slot_of(Gid gid) const {
  const std::size_t i = dense_index(gid.value());
  if (i >= gid_slot_.size()) return std::nullopt;
  return gid_slot_[i];
}

UserDb::GroupRow* UserDb::explicit_row(Gid gid) {
  const auto slot = slot_of(gid);
  if (!slot || (*slot & kExplicit) == 0) return nullptr;
  return &groups_[*slot & ~kExplicit];
}

UserDb::GroupRow* UserDb::managed_project(Gid gid, Uid actor) {
  GroupRow* g = explicit_row(gid);
  // Private groups are immutable singletons: not even root manages one.
  if (g == nullptr || g->kind != GroupKind::project) return nullptr;
  if (actor != kRootUid && !g->stewards.contains(actor)) return nullptr;
  return g;
}

void UserDb::join(GroupRow& g, Uid uid) {
  if (g.members.insert(uid)) member_of_[uid].insert(g.gid);
}

bool UserDb::leave(GroupRow& g, Uid uid) {
  if (g.members.erase(uid) == 0) return false;
  if (auto* gids = member_of_.find(uid); gids != nullptr) {
    gids->erase(g.gid);
    if (gids->empty()) member_of_.erase(uid);
  }
  return true;
}

bool UserDb::user_exists(Uid uid) const { return find_user(uid) != nullptr; }

bool UserDb::group_exists(Gid gid) const { return slot_of(gid).has_value(); }

const User* UserDb::find_user(Uid uid) const {
  const std::size_t i = dense_index(uid.value());
  return i < users_.size() ? &users_[i] : nullptr;
}

const User* UserDb::find_user_by_name(std::string_view name) const {
  const std::uint32_t* row = by_name_.find(name);
  if (row == nullptr || (*row & kExplicit) != 0) return nullptr;
  return &users_[*row];
}

std::optional<Group> UserDb::find_group(Gid gid) const {
  const auto slot = slot_of(gid);
  if (!slot) return std::nullopt;
  if ((*slot & kExplicit) == 0) {
    return Group{gid, users_[*slot].name, GroupKind::user_private};
  }
  const GroupRow& g = groups_[*slot & ~kExplicit];
  return Group{g.gid, g.name, g.kind};
}

std::optional<Group> UserDb::find_group_by_name(std::string_view name) const {
  const std::uint32_t* row = by_name_.find(name);
  if (row == nullptr) return std::nullopt;
  // A user's name names their private group.
  return find_group((*row & kExplicit) != 0 ? groups_[*row & ~kExplicit].gid
                                            : users_[*row].private_group);
}

bool UserDb::is_member(Uid uid, Gid gid) const {
  const auto slot = slot_of(gid);
  if (!slot) return false;
  // A private group holds exactly its user.
  if ((*slot & kExplicit) == 0) return dense_index(uid.value()) == *slot;
  return groups_[*slot & ~kExplicit].members.contains(uid);
}

bool UserDb::is_steward(Uid uid, Gid gid) const {
  const auto slot = slot_of(gid);
  return slot && (*slot & kExplicit) != 0 &&
         groups_[*slot & ~kExplicit].stewards.contains(uid);
}

std::vector<Gid> UserDb::groups_of(Uid uid) const {
  const User* user = find_user(uid);
  if (user == nullptr) return {};
  std::vector<Gid> out{user->private_group};
  if (const auto* gids = member_of_.find(uid); gids != nullptr) {
    out.insert(out.end(), gids->begin(), gids->end());
  }
  return out;
}

}  // namespace heus::simos

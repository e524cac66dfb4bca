// User and group registry implementing the paper's account model (§IV-C):
//
//  - Every user has a *user private group* (UPG) containing only
//    themselves; it is their default (effective) group.
//  - Data may be shared only through *approved project groups*, each with
//    one or more "data stewards" (usually project leaders) who are the only
//    people (besides root) who may add or remove members.
//  - Support-staff privileges (seepid / smask_relax) are modelled as
//    whitelists over this registry (see simos/pam.h).
#pragma once

#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/flat_map.h"
#include "common/ids.h"
#include "common/result.h"

namespace heus::simos {

enum class GroupKind {
  user_private,  ///< the singleton group backing one user
  project,       ///< steward-managed approved project group
  system,        ///< OS-internal (e.g. the hidepid-exempt group)
};

struct User {
  Uid uid;
  std::string name;
  Gid private_group;
  std::string home;  ///< canonical home path, e.g. "/home/alice"
};

struct Group {
  Gid gid;
  std::string name;
  GroupKind kind = GroupKind::project;
  std::set<Uid> members;
  std::set<Uid> stewards;  ///< only meaningful for project groups
};

/// The account database. All mutation goes through steward/root checks so
/// the "intentional use of an approved project group" invariant cannot be
/// bypassed from library code.
class UserDb {
 public:
  UserDb();

  /// Create a user plus their user-private group. The home path recorded is
  /// "/home/<name>" (the VFS layer creates the directory itself).
  /// Fails with EEXIST on a duplicate name.
  Result<Uid> create_user(const std::string& name);

  /// Create an approved project group with an initial data steward, who is
  /// also its first member. Only root-initiated in practice (HPC staff
  /// create groups per the paper); callers pass the steward explicitly.
  Result<Gid> create_project_group(const std::string& name, Uid steward);

  /// Create a system group (no members initially, no stewards).
  Result<Gid> create_system_group(const std::string& name);

  /// Steward (or root) adds a member to a project group.
  Result<void> add_member(Uid actor, Gid group, Uid member);

  /// Steward (or root) removes a member. A steward cannot be removed while
  /// still listed as a steward (EBUSY) — demote first via remove_steward.
  Result<void> remove_member(Uid actor, Gid group, Uid member);

  /// Root (or an existing steward) grants/revokes stewardship.
  Result<void> add_steward(Uid actor, Gid group, Uid steward);
  Result<void> remove_steward(Uid actor, Gid group, Uid steward);

  /// Root-only: add a member to a *system* group (used by seepid).
  Result<void> add_system_member(Uid actor, Gid group, Uid member);

  [[nodiscard]] bool user_exists(Uid uid) const;
  [[nodiscard]] bool group_exists(Gid gid) const;
  [[nodiscard]] const User* find_user(Uid uid) const;
  [[nodiscard]] const User* find_user_by_name(const std::string& name) const;
  [[nodiscard]] const Group* find_group(Gid gid) const;
  [[nodiscard]] const Group* find_group_by_name(
      const std::string& name) const;

  /// True iff `uid` is a member of `gid` (membership set; private groups
  /// contain exactly their user).
  [[nodiscard]] bool is_member(Uid uid, Gid gid) const;

  [[nodiscard]] bool is_steward(Uid uid, Gid gid) const;

  /// Every group `uid` belongs to: the private group first, then its
  /// project and system groups in ascending gid order. Costs the user's
  /// own memberships, not the number of groups in the site.
  [[nodiscard]] std::vector<Gid> groups_of(Uid uid) const;

  [[nodiscard]] std::size_t user_count() const { return users_.size(); }
  [[nodiscard]] std::vector<Uid> all_users() const;

  /// Monotone epoch, bumped on every successful mutation (user/group
  /// creation, membership or stewardship change). Caches keyed off
  /// decisions derived from this database compare epochs instead of
  /// re-querying: a changed epoch over-invalidates (any mutation clears
  /// everything) but can never under-invalidate, so a stale allow after a
  /// revoke is impossible by construction.
  [[nodiscard]] std::uint64_t generation() const { return generation_; }

 private:
  Result<Gid> create_group_internal(const std::string& name, GroupKind kind);
  /// Every change to a project or system group's member set goes through
  /// these, which keep `member_of_` in step with `Group::members` in the
  /// same call.
  void join(Group& g, Uid uid);
  [[nodiscard]] bool leave(Group& g, Uid uid);

  std::unordered_map<Uid, User> users_;
  std::unordered_map<Gid, Group> groups_;
  std::unordered_map<std::string, Uid> user_by_name_;
  std::unordered_map<std::string, Gid> group_by_name_;
  /// Derived from `Group::members`, which stays the truth `is_member`
  /// reads: the project and system groups each user has joined. Private
  /// groups are immutable singletons and stay implicit, so an account with
  /// no other membership has no entry here.
  std::unordered_map<Uid, common::OrderedSet<Gid>> member_of_;
  std::uint32_t next_uid_ = 1000;  // 0 is root; 1..999 reserved for system
  std::uint32_t next_gid_ = 1000;
  std::uint64_t generation_ = 0;
};

}  // namespace heus::simos

// User and group registry implementing the paper's account model (§IV-C):
//
//  - Every user has a *user private group* (UPG) containing only
//    themselves; it is their default (effective) group.
//  - Data may be shared only through *approved project groups*, each with
//    one or more "data stewards" (usually project leaders) who are the only
//    people (besides root) who may add or remove members.
//  - Support-staff privileges (seepid / smask_relax) are modelled as
//    whitelists over this registry (see simos/pam.h).
//
// Storage is dense and private groups are implicit (DESIGN.md §8).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/flat_map.h"
#include "common/ids.h"
#include "common/result.h"
#include "common/rows.h"

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

/// A group as the database reports it; `name` stays valid while the
/// UserDb lives. Read members through UserDb::is_member / is_steward.
struct Group {
  Gid gid;
  std::string_view name;
  GroupKind kind = GroupKind::project;
};

/// The account database. All mutation goes through steward/root checks so
/// the "intentional use of an approved project group" invariant cannot be
/// bypassed from library code. Move-only: the name index views its rows.
class UserDb {
 public:
  UserDb();
  UserDb(const UserDb&) = delete;
  UserDb& operator=(const UserDb&) = delete;
  UserDb(UserDb&&) = default;
  UserDb& operator=(UserDb&&) = default;

  /// Create a user plus their user-private group. The home path recorded is
  /// "/home/<name>" (the VFS layer creates the directory itself).
  /// Fails with EEXIST when the name is taken by a user or a group.
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
  /// The pointer stays valid while the UserDb lives.
  [[nodiscard]] const User* find_user(Uid uid) const;
  [[nodiscard]] const User* find_user_by_name(std::string_view name) const;
  [[nodiscard]] std::optional<Group> find_group(Gid gid) const;
  /// Users and groups share one namespace: a user's name finds their
  /// private group, and "root" finds gid 0.
  [[nodiscard]] std::optional<Group> find_group_by_name(
      std::string_view name) const;

  /// True iff `uid` is a member of `gid` (private groups contain exactly
  /// their user).
  [[nodiscard]] bool is_member(Uid uid, Gid gid) const;

  [[nodiscard]] bool is_steward(Uid uid, Gid gid) const;

  /// Every group `uid` belongs to: the private group first, then its
  /// project and system groups in ascending gid order. Costs the user's
  /// own memberships, not the number of groups in the site.
  [[nodiscard]] std::vector<Gid> groups_of(Uid uid) const;

  /// Monotone epoch, bumped on every successful mutation (user/group
  /// creation, membership or stewardship change). Caches keyed off
  /// decisions derived from this database compare epochs instead of
  /// re-querying: a changed epoch over-invalidates (any mutation clears
  /// everything) but can never under-invalidate, so a stale allow after a
  /// revoke is impossible by construction.
  [[nodiscard]] std::uint64_t generation() const { return generation_; }

 private:
  /// A project or system group (root's included); private groups have none.
  struct GroupRow {
    Gid gid;
    std::string name;
    GroupKind kind = GroupKind::project;
    common::OrderedSet<Uid> members;
    common::OrderedSet<Uid> stewards;  ///< only meaningful for project groups
  };

  /// Set in a slot or name-index value naming a `groups_` row; clear, the
  /// value names a `users_` row (for a slot, that user's private group).
  static constexpr std::uint32_t kExplicit = 1U << 31;

  Result<Gid> create_group_internal(const std::string& name, GroupKind kind);
  [[nodiscard]] std::optional<std::uint32_t> slot_of(Gid gid) const;
  /// The row behind `gid`, or nullptr for a private or unissued group.
  [[nodiscard]] GroupRow* explicit_row(Gid gid);
  /// A project group `actor` manages (as root or a steward), or nullptr.
  [[nodiscard]] GroupRow* managed_project(Gid gid, Uid actor);
  /// Every change to an explicit group's member set goes through these,
  /// which keep `member_of_` in step with `GroupRow::members`.
  void join(GroupRow& g, Uid uid);
  [[nodiscard]] bool leave(GroupRow& g, Uid uid);

  /// Row 0 is root; uid 1000+i is row i+1 (1..999 are reserved).
  common::Rows<User> users_;
  common::Rows<GroupRow> groups_;
  /// Indexed by gid like `users_` by uid: where each group lives.
  std::vector<std::uint32_t> gid_slot_;
  /// User names and explicit group names, one namespace; a private group
  /// takes its user's name, so "root" is listed once, for the user. Keys
  /// view the rows' own strings.
  common::FlatMap<std::string_view, std::uint32_t> by_name_;
  /// Derived from `GroupRow::members`, the truth `is_member` reads: the
  /// explicit groups each user has joined. An account with no such
  /// membership has no entry.
  common::FlatMap<Uid, common::OrderedSet<Gid>> member_of_;
  std::uint64_t generation_ = 0;
};

}  // namespace heus::simos

// In-memory POSIX filesystem with the LLSC hardening semantics (§IV-C).
//
// Reproduced behaviours, each individually switchable so experiments can
// ablate them (see vfs::FsPolicy):
//
//  - Full discretionary access control: owner/group/other mode bits,
//    supplementary groups, setgid directories, sticky-bit deletion rules.
//  - POSIX ACL evaluation with the mask entry.
//  - The `smask` kernel patch: an immutable per-task security mask applied
//    to permission bits at *creation and chmod time* (unlike umask, which
//    applies only at creation and is user-controlled). With smask 007 an
//    unprivileged `chmod 777 f` yields mode 770.
//  - The ACL-restriction kernel patch: unprivileged setfacl may only grant
//    to groups the caller belongs to, and may not grant to other users.
//  - The Lustre smask patch: an unpatched filesystem ("honor_smask=false")
//    ignores smask at create time, modelling the pre-LU-4746 Lustre bug.
//  - Root-owned home directories so users cannot chmod their own top-level
//    home open (constructed by core::Cluster, enforced here by plain DAC).
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/flat_map.h"
#include "common/ids.h"
#include "common/result.h"
#include "common/rows.h"
#include "obs/decision.h"
#include "simos/credentials.h"
#include "simos/user_db.h"
#include "vfs/inode.h"
#include "vfs/path.h"

namespace heus::vfs {

/// Hardening knobs, per filesystem. `hardened()` is the paper's
/// configuration, `baseline()` a stock distro.
struct FsPolicy {
  /// Kernel smask patch installed: cred.smask is enforced at create/chmod.
  bool enforce_smask = true;
  /// Lustre LU-4746 patch: honor smask on this filesystem. Only meaningful
  /// when enforce_smask is true; false models unpatched Lustre, which read
  /// umask directly and missed the smask.
  bool honor_smask = true;
  /// ACL-restriction patch: grants limited to member groups, no named-user
  /// grants to other users.
  bool restrict_acl = true;

  [[nodiscard]] static FsPolicy hardened() { return {true, true, true}; }
  [[nodiscard]] static FsPolicy baseline() { return {false, false, false}; }

  [[nodiscard]] bool operator==(const FsPolicy&) const = default;
};

enum class Access : unsigned {
  read = kPermRead,
  write = kPermWrite,
  exec = kPermExec,
};

struct DirEntry {
  std::string name;
  FileKind kind;
};

/// One mounted filesystem instance (a node-local disk, or the shared
/// central filesystem). All operations take the caller's Credentials and
/// return POSIX errors; nothing here trusts the caller. Path operations
/// share one walk buffer, so an instance serves one thread at a time.
class FileSystem {
 public:
  /// `name` is a label for diagnostics ("local:node3", "lustre:shared").
  FileSystem(std::string name, const simos::UserDb* users,
             const common::SimClock* clock, FsPolicy policy = {});

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const FsPolicy& policy() const { return policy_; }
  void set_policy(FsPolicy p) { policy_ = p; }

  /// Route smask/ACL/home-ownership verdicts and cross-user reads through
  /// the cluster decision trace. Null (the default) disables recording.
  void set_trace(obs::DecisionTrace* trace) { trace_ = trace; }

  /// Fault injection: while `probe` returns true the mount is unavailable
  /// and every path operation fails with EIO (a hung-Lustre-mount model —
  /// data neither readable nor writable, nothing corrupted). nullptr
  /// restores health.
  void set_outage_probe(std::function<bool()> probe) {
    outage_probe_ = std::move(probe);
  }
  [[nodiscard]] bool unavailable() const {
    return outage_probe_ && outage_probe_();
  }

  // ---- namespace operations -------------------------------------------

  Result<void> mkdir(const simos::Credentials& cred, const std::string& path,
                     unsigned mode);
  /// O_CREAT|O_EXCL file creation.
  Result<void> create(const simos::Credentials& cred,
                      const std::string& path, unsigned mode);
  Result<void> symlink(const simos::Credentials& cred,
                       const std::string& target, const std::string& path);
  /// mknod for character devices: root only.
  Result<void> mknod_chardev(const simos::Credentials& cred,
                             const std::string& path, unsigned mode,
                             DeviceRef device);
  /// Hard link: `newpath` becomes another name for the file at
  /// `existing`. Directories cannot be hard-linked (EPERM, as on Linux).
  Result<void> link(const simos::Credentials& cred,
                    const std::string& existing,
                    const std::string& newpath);
  Result<void> unlink(const simos::Credentials& cred,
                      const std::string& path);
  Result<void> rmdir(const simos::Credentials& cred, const std::string& path);
  Result<void> rename(const simos::Credentials& cred,
                      const std::string& from, const std::string& to);

  // ---- data operations -------------------------------------------------

  /// Create-or-truncate write (the common test/bench shorthand).
  Result<void> write_file(const simos::Credentials& cred,
                          const std::string& path, std::string data);
  Result<void> append_file(const simos::Credentials& cred,
                           const std::string& path, const std::string& data);
  Result<std::string> read_file(const simos::Credentials& cred,
                                const std::string& path);
  Result<std::vector<DirEntry>> readdir(const simos::Credentials& cred,
                                        const std::string& path);

  // ---- metadata operations ---------------------------------------------

  /// stat follows symlinks; requires search permission on the parents only.
  Result<Stat> stat(const simos::Credentials& cred, const std::string& path);
  Result<std::string> readlink(const simos::Credentials& cred,
                               const std::string& path);
  /// access(2)-style permission probe on the final object.
  Result<void> access(const simos::Credentials& cred, const std::string& path,
                      Access want);

  /// chmod, subject to smask when the policy enforces it (world bits are
  /// silently stripped, the documented semantics of the patch: it acts as
  /// a mask, like umask, not as a rejection).
  Result<void> chmod(const simos::Credentials& cred, const std::string& path,
                     unsigned mode);
  /// chown is root-only, as on stock Linux.
  Result<void> chown(const simos::Credentials& cred, const std::string& path,
                     Uid new_owner);
  /// chgrp: owner may move the file to a group they are a member of.
  Result<void> chgrp(const simos::Credentials& cred, const std::string& path,
                     Gid new_group);

  /// setfacl -m: add/replace an ACL entry, subject to the restriction
  /// patch when enabled.
  Result<void> acl_set(const simos::Credentials& cred,
                       const std::string& path, const AclEntry& entry);
  /// setfacl -x: drop an entry.
  Result<void> acl_remove(const simos::Credentials& cred,
                          const std::string& path, AclTag tag, Uid uid,
                          Gid gid);
  Result<Acl> acl_get(const simos::Credentials& cred,
                      const std::string& path);

  /// Default (inheritable) ACLs on directories: children created inside
  /// pick the default ACL up as their access ACL, and subdirectories also
  /// inherit it as their own default — the POSIX mechanism project
  /// directories use so collaborators' files stay group-accessible. The
  /// ACL-restriction patch applies to default entries identically.
  Result<void> acl_set_default(const simos::Credentials& cred,
                               const std::string& dir,
                               const AclEntry& entry);
  Result<void> acl_remove_default(const simos::Credentials& cred,
                                  const std::string& dir, AclTag tag,
                                  Uid uid, Gid gid);
  Result<Acl> acl_get_default(const simos::Credentials& cred,
                              const std::string& dir);

  /// Device lookup for the accelerator layer: resolves a chardev path and
  /// checks `want` access, returning the DeviceRef on success.
  Result<DeviceRef> open_device(const simos::Credentials& cred,
                                const std::string& path, Access want);

  // ---- quotas & capacity -------------------------------------------------
  // Extension beyond the paper (DESIGN.md §5 ablations): per-user byte
  // quotas and a filesystem capacity, so experiments can measure the
  // shared-storage flavour of "blast radius" (one user filling /tmp or
  // scratch). Usage is charged to the file *owner*; root is exempt.

  void set_capacity(std::optional<std::uint64_t> bytes) {
    capacity_ = bytes;
  }
  void set_user_quota(Uid uid, std::optional<std::uint64_t> bytes);
  [[nodiscard]] std::optional<std::uint64_t> user_quota(Uid uid) const;
  [[nodiscard]] std::uint64_t bytes_used_by(Uid uid) const;
  [[nodiscard]] std::uint64_t bytes_used_total() const {
    return total_used_;
  }

  // ---- bookkeeping -----------------------------------------------------

  [[nodiscard]] std::size_t inode_count() const { return live_inodes_; }

  /// Walk the whole tree (for audits); visitor sees (path, inode). Each
  /// directory's children are visited in descending name order.
  void for_each(const std::function<void(const std::string&, const Inode&)>&
                    visit) const;

 private:
  /// The directory holding a path's last component, and that component's
  /// name, which views the caller's path.
  struct Parent {
    InodeId dir;
    std::string_view leaf;
  };

  Inode& get(InodeId id) { return inodes_[row_of(id)]; }
  [[nodiscard]] const Inode& get(InodeId id) const {
    return inodes_[row_of(id)];
  }
  /// Inode ids are issued densely from 1, so id i lives in row i-1. A
  /// removed or never-issued id throws std::out_of_range, as a map's
  /// `at` would.
  [[nodiscard]] std::size_t row_of(InodeId id) const {
    const std::size_t row = id.value() - 1;
    if (row >= inodes_.size() || inodes_[row].id != id) no_inode(id);
    return row;
  }
  [[noreturn]] static void no_inode(InodeId id);

  InodeId alloc_inode(FileKind kind, unsigned mode,
                      const simos::Credentials& cred, InodeId parent);

  /// Empty a removed inode's row; its id is never issued again, because
  /// Stat::inode shows ids.
  void erase_inode(InodeId id);

  /// Create a `kind` inode named `at.leaf` in `at.dir`: EEXIST when the
  /// name is taken, EACCES without write permission on the directory.
  Result<InodeId> make_entry(const simos::Credentials& cred, const Parent& at,
                             FileKind kind, unsigned mode);

  /// Decrement a link count, erasing the inode at zero.
  void drop_inode_ref(InodeId id);

  /// Quota/capacity admission for `delta` new bytes owned by `owner`.
  /// Negative deltas always succeed and refund. `enforce` is false for
  /// root-initiated writes.
  Result<void> charge_bytes(Uid owner, std::int64_t delta, bool enforce);

  /// The ACL-restriction patch's validation, shared by access and
  /// default ACL setters.
  [[nodiscard]] Result<void> check_acl_entry(const simos::Credentials& cred,
                                             const AclEntry& entry) const;

  /// Core DAC + ACL permission check against one inode.
  [[nodiscard]] bool permits(const simos::Credentials& cred,
                             const Inode& node, Access want) const;

  /// Walk to the parent directory of `path`, enforcing search (+x) on every
  /// directory along the way, the parent included.
  Result<Parent> walk_parent(const simos::Credentials& cred,
                             const std::string& path);

  /// Full resolution of `path` (follows a final symlink when `follow`).
  Result<InodeId> resolve(const simos::Credentials& cred,
                          std::string_view path, bool follow);

  /// The one walk every path operation makes: down from the root through
  /// the components in `parts_`, enforcing search (+x) on each directory
  /// it enters. A symlink on the way (the last component's only when
  /// `follow`) restarts the walk: its target and the components after it
  /// are normalised into `parts_` again. More than kMaxSymlinkDepth
  /// restarts is ELOOP.
  Result<InodeId> descend(const simos::Credentials& cred, bool follow);

  /// Effective mode for a newly created object under umask/smask.
  [[nodiscard]] unsigned creation_mode(const simos::Credentials& cred,
                                       unsigned requested) const;
  /// smask application for chmod.
  [[nodiscard]] unsigned chmod_mode(const simos::Credentials& cred,
                                    unsigned requested) const;

  /// Decision-trace helper for read-side verdicts (read/readdir/access/
  /// open_device): denials always, allows only when they cross users.
  void record_read(const simos::Credentials& cred, const std::string& path,
                   obs::DecisionPoint point, Uid object_owner,
                   bool allowed) const;

  /// Decision-trace helper for setfacl verdicts. `deny_knob` is nullptr
  /// on success, else the candidate attribution of the refusal.
  void record_acl_verdict(const simos::Credentials& cred,
                          const std::string& path, Uid object_owner,
                          const AclEntry& entry,
                          const char* deny_knob) const;

  /// Sticky-bit deletion rule shared by unlink/rmdir/rename.
  [[nodiscard]] Result<void> may_remove_entry(const simos::Credentials& cred,
                                              const Inode& dir,
                                              const Inode& victim) const;

  std::string name_;
  const simos::UserDb* users_;
  const common::SimClock* clock_;
  FsPolicy policy_;
  common::Rows<Inode> inodes_;
  std::size_t live_inodes_ = 0;
  InodeId root_;
  std::uint64_t next_inode_ = 1;
  std::function<bool()> outage_probe_;
  obs::DecisionTrace* trace_ = nullptr;
  std::optional<std::uint64_t> capacity_;
  common::FlatMap<Uid, std::uint64_t> quota_limits_;
  common::FlatMap<Uid, std::uint64_t> quota_used_;
  std::uint64_t total_used_ = 0;
  /// The walk's reusable buffers: the components being walked, and the
  /// path the last symlink restart built, which they may view. No view
  /// into them outlives a walk, so one pair serves every operation.
  std::vector<std::string_view> parts_;
  std::string link_path_;
};

/// Prefix-based mount table: routes absolute paths to the filesystem
/// mounted at the longest matching prefix and rewrites the path to be
/// mount-relative... except that for simplicity and fidelity to how the
/// cluster uses it, mounts share the path namespace (the shared FS is
/// mounted at "/home" and "/proj" with those directories existing inside
/// it), so no rewriting is performed — the FS sees cluster-absolute paths.
class MountTable {
 public:
  /// Longest-prefix mount registration. `prefix` must be absolute;
  /// anything else throws std::invalid_argument.
  void mount(const std::string& prefix, FileSystem* fs);

  /// Filesystem responsible for `path`, or nullptr when nothing matches.
  [[nodiscard]] FileSystem* lookup(const std::string& path) const;

  [[nodiscard]] std::vector<std::pair<std::string, FileSystem*>> mounts()
      const;

 private:
  // Sorted longest-first at lookup time; the table is tiny.
  std::vector<std::pair<std::string, FileSystem*>> mounts_;
};

}  // namespace heus::vfs

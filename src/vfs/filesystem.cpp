#include "vfs/filesystem.h"

#include <algorithm>
#include <stdexcept>

#include "common/strings.h"

namespace heus::vfs {

using simos::Credentials;

namespace {

/// Map a path to the taxonomy channel its content protection belongs to.
/// Only the canonical cross-user surfaces (§IV-C) have a channel; other
/// paths still get decisions, just unchannelled.
std::optional<obs::ChannelKind> channel_for_path(const std::string& path) {
  if (path == "/home" || common::starts_with(path, "/home/")) {
    return obs::ChannelKind::fs_home_read;
  }
  if (path == "/dev/shm" || common::starts_with(path, "/dev/shm/")) {
    return obs::ChannelKind::fs_devshm_content;
  }
  if (path == "/tmp" || common::starts_with(path, "/tmp/")) {
    return obs::ChannelKind::fs_tmp_content;
  }
  return std::nullopt;
}

bool is_world_writable_dir(const std::string& path) {
  return path == "/tmp" || path == "/dev/shm";
}

}  // namespace

void FileSystem::record_read(const Credentials& cred,
                             const std::string& path,
                             obs::DecisionPoint point, Uid object_owner,
                             bool allowed) const {
  if (trace_ == nullptr || cred.is_root()) return;
  // Denials are always worth a record; allows only when they cross users
  // (someone reading another user's data is the separation event).
  if (allowed &&
      (object_owner == cred.uid || object_owner == kRootUid)) {
    return;
  }
  trace_->record(point,
                 allowed ? obs::Outcome::allow : obs::Outcome::deny,
                 cred.uid, cred.egid, object_owner, channel_for_path(path),
                 nullptr, [&](std::string& out) { out += path; });
}

FileSystem::FileSystem(std::string name, const simos::UserDb* users,
                       const common::SimClock* clock, FsPolicy policy)
    : name_(std::move(name)), users_(users), clock_(clock), policy_(policy) {
  const InodeId id{next_inode_++};
  Inode root;
  root.id = id;
  root.kind = FileKind::directory;
  root.mode = 0755;
  root.uid = kRootUid;
  root.gid = kRootGid;
  root.mtime = clock_->now();
  root.ctime = clock_->now();
  inodes_.push_back(std::move(root));
  ++live_inodes_;
  root_ = id;
}

void FileSystem::no_inode(InodeId id) {
  throw std::out_of_range("vfs: no inode " + std::to_string(id.value()));
}

InodeId FileSystem::alloc_inode(FileKind kind, unsigned mode,
                                const Credentials& cred, InodeId parent) {
  const InodeId id{next_inode_++};
  const Inode& dir = get(parent);
  Inode node;
  node.id = id;
  node.kind = kind;
  node.mode = mode;
  node.uid = cred.uid;
  // BSD/Linux setgid-directory semantics: children inherit the directory's
  // group (project directories rely on this so collaborators' files stay
  // group-owned by the project group).
  if (dir.mode & kModeSetgid) {
    node.gid = dir.gid;
    if (kind == FileKind::directory) node.mode |= kModeSetgid;
  } else {
    node.gid = cred.egid;
  }
  node.mtime = clock_->now();
  node.ctime = clock_->now();
  // POSIX default-ACL inheritance: a directory's default ACL becomes the
  // child's access ACL; subdirectories also inherit it as their default.
  if (dir.default_acl && !dir.default_acl->empty()) {
    node.acl = dir.default_acl;
    if (kind == FileKind::directory) node.default_acl = dir.default_acl;
  }
  inodes_.push_back(std::move(node));
  ++live_inodes_;
  return id;
}

void FileSystem::erase_inode(InodeId id) {
  get(id) = Inode{};
  --live_inodes_;
}

void FileSystem::drop_inode_ref(InodeId id) {
  Inode& node = get(id);
  if (node.nlink > 1) {
    --node.nlink;
    node.ctime = clock_->now();
    return;
  }
  // Refund the owner's quota for the vanished payload.
  if (node.kind == FileKind::regular && !node.data.empty()) {
    (void)charge_bytes(node.uid,
                       -static_cast<std::int64_t>(node.data.size()),
                       /*enforce=*/false);
  }
  erase_inode(id);
}

Result<void> FileSystem::charge_bytes(Uid owner, std::int64_t delta,
                                      bool enforce) {
  if (delta == 0) return ok_result();
  if (delta < 0) {
    const auto refund = static_cast<std::uint64_t>(-delta);
    if (std::uint64_t* used = quota_used_.find(owner)) {
      *used -= std::min(*used, refund);
    }
    total_used_ -= std::min(total_used_, refund);
    return ok_result();
  }
  const auto grow = static_cast<std::uint64_t>(delta);
  if (enforce) {
    if (capacity_ && total_used_ + grow > *capacity_) {
      return Errno::enospc;
    }
    const std::uint64_t* limit = quota_limits_.find(owner);
    if (limit != nullptr && quota_used_[owner] + grow > *limit) {
      return Errno::edquot;
    }
  }
  quota_used_[owner] += grow;
  total_used_ += grow;
  return ok_result();
}

void FileSystem::set_user_quota(Uid uid,
                                std::optional<std::uint64_t> bytes) {
  if (bytes) {
    quota_limits_[uid] = *bytes;
  } else {
    quota_limits_.erase(uid);
  }
}

std::optional<std::uint64_t> FileSystem::user_quota(Uid uid) const {
  const std::uint64_t* limit = quota_limits_.find(uid);
  if (limit == nullptr) return std::nullopt;
  return *limit;
}

std::uint64_t FileSystem::bytes_used_by(Uid uid) const {
  const std::uint64_t* used = quota_used_.find(uid);
  return used == nullptr ? 0 : *used;
}

unsigned FileSystem::creation_mode(const Credentials& cred,
                                   unsigned requested) const {
  unsigned mode = requested & kModePermMask;
  mode &= ~cred.umask;
  if (policy_.enforce_smask && policy_.honor_smask && !cred.is_root()) {
    mode &= ~cred.smask;
  }
  return mode;
}

unsigned FileSystem::chmod_mode(const Credentials& cred,
                                unsigned requested) const {
  unsigned mode = requested & kModePermMask;
  // The smask patch's distinguishing property: unlike umask it is applied
  // to chmod as well, so `chmod 777` under smask 007 lands at 770.
  if (policy_.enforce_smask && policy_.honor_smask && !cred.is_root()) {
    mode &= ~cred.smask;
  }
  return mode;
}

bool FileSystem::permits(const Credentials& cred, const Inode& node,
                         Access want) const {
  const auto bit = static_cast<unsigned>(want);
  if (cred.is_root()) {
    // Root bypasses read/write DAC; exec on a regular file still requires
    // some execute bit (as on Linux).
    if (want != Access::exec || node.is_dir()) return true;
    return (node.mode & 0111) != 0;
  }

  const unsigned owner_bits = (node.mode >> 6) & 7;
  const unsigned group_bits = (node.mode >> 3) & 7;
  const unsigned other_bits = node.mode & 7;

  if (!node.acl || node.acl->empty()) {
    if (cred.uid == node.uid) return (owner_bits & bit) != 0;
    if (cred.in_group(node.gid)) return (group_bits & bit) != 0;
    return (other_bits & bit) != 0;
  }

  // POSIX 1003.1e ACL evaluation. Without an explicit mask entry the mask
  // is unrestrictive (setfacl would have auto-computed it as the union of
  // all group-class entries, which never masks a granted bit away).
  const Acl& acl = *node.acl;
  const Perm mask = acl.mask().value_or(7);

  if (cred.uid == node.uid) return (owner_bits & bit) != 0;
  if (auto p = acl.named_user(cred.uid)) return (*p & mask & bit) != 0;

  // Group class: the request is granted if *any* matching group entry
  // grants it; if the process matches at least one group but none grants,
  // access falls through to denial (not to "other").
  bool matched_group = false;
  if (cred.in_group(node.gid)) {
    matched_group = true;
    if ((group_bits & mask & bit) != 0) return true;
  }
  for (const auto& e : acl.entries) {
    if (e.tag != AclTag::named_group) continue;
    if (!cred.in_group(e.gid)) continue;
    matched_group = true;
    if ((e.perm & mask & bit) != 0) return true;
  }
  if (matched_group) return false;

  return (other_bits & bit) != 0;
}

Result<InodeId> FileSystem::descend(const Credentials& cred, bool follow) {
  InodeId cur = root_;
  std::size_t depth = 0;
  std::size_t i = 0;
  while (i < parts_.size()) {
    const Inode& dir = get(cur);
    if (!dir.is_dir()) return Errno::enotdir;
    if (!permits(cred, dir, Access::exec)) return Errno::eacces;
    const InodeId* child = dir.entries.find(parts_[i]);
    if (child == nullptr) return Errno::enoent;
    cur = *child;

    const Inode& node = get(cur);
    const bool last = (i + 1 == parts_.size());
    if (node.kind != FileKind::symlink || (last && !follow)) {
      ++i;
      continue;
    }
    // Rebuild the remaining path against the link target and restart.
    // `next` is built apart: `parts_` may view the current `link_path_`.
    std::string next = node.symlink_target;
    for (std::size_t j = i + 1; j < parts_.size(); ++j) {
      next += '/';
      next += parts_[j];
    }
    if (next.empty() || next.front() != '/') {
      // Relative target: interpret against the containing directory.
      std::string base = "/";
      for (std::size_t j = 0; j < i; ++j) {
        base += parts_[j];
        base += '/';
      }
      next.insert(0, base);
    }
    link_path_ = std::move(next);
    if (unavailable()) return Errno::eio;
    if (++depth > kMaxSymlinkDepth) return Errno::eloop;
    if (auto s = split_path(link_path_, parts_); !s) return s.error();
    cur = root_;
    i = 0;
  }
  return cur;
}

Result<InodeId> FileSystem::resolve(const Credentials& cred,
                                    std::string_view path, bool follow) {
  if (unavailable()) return Errno::eio;  // mount outage (fault injection)
  if (auto s = split_path(path, parts_); !s) return s.error();
  return descend(cred, follow);
}

Result<FileSystem::Parent> FileSystem::walk_parent(const Credentials& cred,
                                                   const std::string& path) {
  if (auto s = split_path(path, parts_); !s) return s.error();
  if (parts_.empty()) return Errno::eexist;  // "/" itself
  const std::string_view leaf = parts_.back();
  parts_.pop_back();
  if (unavailable()) return Errno::eio;
  auto dir = descend(cred, /*follow=*/true);
  if (!dir) return dir.error();
  const Inode& node = get(*dir);
  if (!node.is_dir()) return Errno::enotdir;
  if (!permits(cred, node, Access::exec)) return Errno::eacces;
  return Parent{*dir, leaf};
}

Result<InodeId> FileSystem::make_entry(const Credentials& cred,
                                       const Parent& at, FileKind kind,
                                       unsigned mode) {
  Inode& dir = get(at.dir);
  if (dir.entries.contains(at.leaf)) return Errno::eexist;
  if (!permits(cred, dir, Access::write)) return Errno::eacces;
  const InodeId id = alloc_inode(kind, mode, cred, at.dir);
  dir.entries.emplace(std::string(at.leaf), id);
  dir.mtime = clock_->now();
  return id;
}

Result<void> FileSystem::mkdir(const Credentials& cred,
                               const std::string& path, unsigned mode) {
  auto parent = walk_parent(cred, path);
  if (!parent) return parent.error();
  auto id = make_entry(cred, *parent, FileKind::directory,
                       creation_mode(cred, mode));
  if (!id) return id.error();
  return ok_result();
}

Result<void> FileSystem::create(const Credentials& cred,
                                const std::string& path, unsigned mode) {
  auto parent = walk_parent(cred, path);
  if (!parent) return parent.error();
  auto id = make_entry(cred, *parent, FileKind::regular,
                       creation_mode(cred, mode));
  if (!id) return id.error();
  return ok_result();
}

Result<void> FileSystem::symlink(const Credentials& cred,
                                 const std::string& target,
                                 const std::string& path) {
  auto parent = walk_parent(cred, path);
  if (!parent) return parent.error();
  auto id = make_entry(cred, *parent, FileKind::symlink, 0777);
  if (!id) return id.error();
  get(*id).symlink_target = target;
  return ok_result();
}

Result<void> FileSystem::mknod_chardev(const Credentials& cred,
                                       const std::string& path,
                                       unsigned mode, DeviceRef device) {
  if (!cred.is_root()) return Errno::eperm;
  auto parent = walk_parent(cred, path);
  if (!parent) return parent.error();
  auto id = make_entry(cred, *parent, FileKind::chardev, mode & kModePermMask);
  if (!id) return id.error();
  get(*id).device = std::move(device);
  return ok_result();
}

Result<void> FileSystem::may_remove_entry(const Credentials& cred,
                                          const Inode& dir,
                                          const Inode& victim) const {
  if (!permits(cred, dir, Access::write) ||
      !permits(cred, dir, Access::exec)) {
    return Errno::eacces;
  }
  // Sticky directories (e.g. /tmp mode 1777): only the file owner, the
  // directory owner, or root may remove an entry.
  if ((dir.mode & kModeSticky) && !cred.is_root() &&
      cred.uid != victim.uid && cred.uid != dir.uid) {
    return Errno::eperm;
  }
  return ok_result();
}

Result<void> FileSystem::unlink(const Credentials& cred,
                                const std::string& path) {
  auto parent = walk_parent(cred, path);
  if (!parent) return parent.error();
  Inode& dir = get(parent->dir);
  const InodeId* entry = dir.entries.find(parent->leaf);
  if (entry == nullptr) return Errno::enoent;
  const InodeId id = *entry;
  Inode& victim = get(id);
  if (victim.is_dir()) return Errno::eisdir;
  if (auto r = may_remove_entry(cred, dir, victim); !r) return r;
  drop_inode_ref(id);
  dir.entries.erase(parent->leaf);
  dir.mtime = clock_->now();
  return ok_result();
}

Result<void> FileSystem::link(const Credentials& cred,
                              const std::string& existing,
                              const std::string& newpath) {
  auto src = resolve(cred, existing, /*follow=*/true);
  if (!src) return src.error();
  Inode& target = get(*src);
  if (target.is_dir()) return Errno::eperm;  // no directory hard links

  auto parent = walk_parent(cred, newpath);
  if (!parent) return parent.error();
  Inode& dir = get(parent->dir);
  if (dir.entries.contains(parent->leaf)) return Errno::eexist;
  if (!permits(cred, dir, Access::write)) return Errno::eacces;

  ++target.nlink;
  target.ctime = clock_->now();
  dir.entries.emplace(std::string(parent->leaf), *src);
  dir.mtime = clock_->now();
  return ok_result();
}

Result<void> FileSystem::rmdir(const Credentials& cred,
                               const std::string& path) {
  auto parent = walk_parent(cred, path);
  if (!parent) return parent.error();
  Inode& dir = get(parent->dir);
  const InodeId* entry = dir.entries.find(parent->leaf);
  if (entry == nullptr) return Errno::enoent;
  const InodeId id = *entry;
  Inode& victim = get(id);
  if (!victim.is_dir()) return Errno::enotdir;
  if (!victim.entries.empty()) return Errno::enotempty;
  if (auto r = may_remove_entry(cred, dir, victim); !r) return r;
  erase_inode(id);
  dir.entries.erase(parent->leaf);
  dir.mtime = clock_->now();
  return ok_result();
}

Result<void> FileSystem::rename(const Credentials& cred,
                                const std::string& from,
                                const std::string& to) {
  auto src = walk_parent(cred, from);
  if (!src) return src.error();
  Inode& src_dir = get(src->dir);
  const InodeId* sit = src_dir.entries.find(src->leaf);
  if (sit == nullptr) return Errno::enoent;
  const InodeId moving = *sit;
  if (auto r = may_remove_entry(cred, src_dir, get(moving)); !r) return r;

  auto dst = walk_parent(cred, to);
  if (!dst) return dst.error();
  Inode& dst_dir = get(dst->dir);
  if (!permits(cred, dst_dir, Access::write)) return Errno::eacces;

  if (const InodeId* dit = dst_dir.entries.find(dst->leaf)) {
    const InodeId replaced = *dit;
    // POSIX: if oldpath and newpath are existing links to the same inode,
    // rename does nothing and succeeds.
    if (replaced == moving) return ok_result();
    Inode& existing = get(replaced);
    if (existing.is_dir() && !existing.entries.empty()) {
      return Errno::enotempty;
    }
    if (existing.is_dir() != get(moving).is_dir()) {
      return existing.is_dir() ? Errno::eisdir : Errno::enotdir;
    }
    if (auto r = may_remove_entry(cred, dst_dir, existing); !r) return r;
    drop_inode_ref(replaced);
    dst_dir.entries.erase(dst->leaf);
  }

  // The two directories may be one inode: erase and insert by key.
  src_dir.entries.erase(src->leaf);
  dst_dir.entries.emplace(std::string(dst->leaf), moving);
  src_dir.mtime = clock_->now();
  dst_dir.mtime = clock_->now();
  return ok_result();
}

Result<void> FileSystem::write_file(const Credentials& cred,
                                    const std::string& path,
                                    std::string data) {
  // One walk serves both outcomes: it ends in the parent directory, which
  // either names the file (overwrite) or not (create). An outage fails
  // before the path is parsed, as in resolve.
  if (unavailable()) return Errno::eio;
  auto parent = walk_parent(cred, path);
  if (!parent) {
    // walk_parent refuses "/" itself with EEXIST; writing it is EISDIR.
    return parent.error() == Errno::eexist ? Errno::eisdir : parent.error();
  }
  Inode& dir = get(parent->dir);

  if (const InodeId* entry = dir.entries.find(parent->leaf)) {
    InodeId id = *entry;
    if (get(id).kind == FileKind::symlink) {
      // Write through the link. A dangling one creates nothing: its own
      // name is taken.
      auto target = resolve(cred, path, /*follow=*/true);
      if (!target) {
        return target.error() == Errno::enoent ? Errno::eexist
                                               : target.error();
      }
      id = *target;
    }
    Inode& node = get(id);
    if (node.is_dir()) return Errno::eisdir;
    if (node.kind == FileKind::chardev) return Errno::einval;
    if (!permits(cred, node, Access::write)) return Errno::eacces;
    const std::int64_t delta = static_cast<std::int64_t>(data.size()) -
                               static_cast<std::int64_t>(node.data.size());
    if (auto q = charge_bytes(node.uid, delta, !cred.is_root()); !q) {
      return q;
    }
    node.data = std::move(data);
    node.mtime = clock_->now();
    return ok_result();
  }

  auto id = make_entry(cred, *parent, FileKind::regular,
                       creation_mode(cred, 0666));
  if (!id) return id.error();
  if (auto q = charge_bytes(cred.uid, static_cast<std::int64_t>(data.size()),
                            !cred.is_root());
      !q) {
    // Roll the empty file back out so a failed write leaves no debris.
    dir.entries.erase(parent->leaf);
    erase_inode(*id);
    return q;
  }
  get(*id).data = std::move(data);
  return ok_result();
}

Result<void> FileSystem::append_file(const Credentials& cred,
                                     const std::string& path,
                                     const std::string& data) {
  auto r = resolve(cred, path, /*follow=*/true);
  if (!r) return r.error();
  Inode& node = get(*r);
  if (node.is_dir()) return Errno::eisdir;
  if (!permits(cred, node, Access::write)) return Errno::eacces;
  if (auto q = charge_bytes(node.uid,
                            static_cast<std::int64_t>(data.size()),
                            !cred.is_root());
      !q) {
    return q;
  }
  node.data += data;
  node.mtime = clock_->now();
  return ok_result();
}

Result<std::string> FileSystem::read_file(const Credentials& cred,
                                          const std::string& path) {
  auto r = resolve(cred, path, /*follow=*/true);
  if (!r) {
    if (r.error() == Errno::eacces) {
      record_read(cred, path, obs::DecisionPoint::fs_access, kRootUid,
                  /*allowed=*/false);
    }
    return r.error();
  }
  const Inode& node = get(*r);
  if (node.is_dir()) return Errno::eisdir;
  const bool allowed = permits(cred, node, Access::read);
  record_read(cred, path, obs::DecisionPoint::fs_access, node.uid, allowed);
  if (!allowed) return Errno::eacces;
  return node.data;
}

Result<std::vector<DirEntry>> FileSystem::readdir(const Credentials& cred,
                                                  const std::string& path) {
  auto r = resolve(cred, path, /*follow=*/true);
  if (!r) {
    if (r.error() == Errno::eacces) {
      record_read(cred, path, obs::DecisionPoint::fs_access, kRootUid,
                  /*allowed=*/false);
    }
    return r.error();
  }
  const Inode& dir = get(*r);
  if (!dir.is_dir()) return Errno::enotdir;
  const bool allowed = permits(cred, dir, Access::read);
  if (!allowed) {
    record_read(cred, path, obs::DecisionPoint::fs_access, dir.uid,
                /*allowed=*/false);
    return Errno::eacces;
  }
  if (trace_ != nullptr && !cred.is_root() &&
      is_world_writable_dir(path)) {
    // Listing a world-writable directory exposes every user's file
    // *names* — the paper's documented fs-tmp-names residual.
    trace_->record(obs::DecisionPoint::fs_access, obs::Outcome::allow,
                   cred.uid, cred.egid, dir.uid,
                   obs::ChannelKind::fs_tmp_names, nullptr,
                   [&](std::string& out) { out += path; });
  }
  std::vector<DirEntry> out;
  out.reserve(dir.entries.size());
  for (const auto& [name, id] : dir.entries) {
    out.push_back({name, get(id).kind});
  }
  std::sort(out.begin(), out.end(), [](const DirEntry& x, const DirEntry& y) {
    return x.name < y.name;
  });
  return out;
}

Result<Stat> FileSystem::stat(const Credentials& cred,
                              const std::string& path) {
  auto r = resolve(cred, path, /*follow=*/true);
  if (!r) return r.error();
  const Inode& node = get(*r);
  return Stat{node.id,     node.kind,  node.mode,
              node.uid,    node.gid,   node.size(),
              node.mtime,  node.acl.has_value() && !node.acl->empty(),
              node.nlink};
}

Result<std::string> FileSystem::readlink(const Credentials& cred,
                                         const std::string& path) {
  auto r = resolve(cred, path, /*follow=*/false);
  if (!r) return r.error();
  const Inode& node = get(*r);
  if (node.kind != FileKind::symlink) return Errno::einval;
  return node.symlink_target;
}

Result<void> FileSystem::access(const Credentials& cred,
                                const std::string& path, Access want) {
  auto r = resolve(cred, path, /*follow=*/true);
  if (!r) {
    if (r.error() == Errno::eacces) {
      record_read(cred, path, obs::DecisionPoint::fs_access, kRootUid,
                  /*allowed=*/false);
    }
    return r.error();
  }
  const Inode& node = get(*r);
  const bool allowed = permits(cred, node, want);
  record_read(cred, path, obs::DecisionPoint::fs_access, node.uid, allowed);
  if (!allowed) return Errno::eacces;
  return ok_result();
}

Result<void> FileSystem::chmod(const Credentials& cred,
                               const std::string& path, unsigned mode) {
  auto r = resolve(cred, path, /*follow=*/true);
  if (!r) return r.error();
  Inode& node = get(*r);
  if (!cred.is_root() && cred.uid != node.uid) {
    if (trace_ != nullptr && !cred.is_root()) {
      // Chmod-ing a root-owned home is exactly what the root-owned-homes
      // hardening forbids; any other foreign chmod is plain DAC.
      const bool root_home_block =
          node.uid == kRootUid &&
          channel_for_path(path) == obs::ChannelKind::fs_home_read;
      trace_->record(obs::DecisionPoint::fs_chmod, obs::Outcome::deny,
                     cred.uid, cred.egid, node.uid, channel_for_path(path),
                     root_home_block ? obs::knob::root_owned_homes : nullptr,
                     [&](std::string& out) { out += path; });
    }
    return Errno::eperm;
  }
  unsigned effective = chmod_mode(cred, mode);
  if (trace_ != nullptr && !cred.is_root()) {
    const unsigned requested = mode & kModePermMask;
    if (effective != requested &&
        policy_.enforce_smask && policy_.honor_smask) {
      // The smask clamp silently stripped permission bits the caller
      // asked for — a deny of the world-visibility the chmod intended.
      trace_->record(obs::DecisionPoint::fs_chmod, obs::Outcome::deny,
                     cred.uid, cred.egid, node.uid, channel_for_path(path),
                     obs::knob::fs_enforce_smask,
                     [&](std::string& out) { out += path; });
    }
  }
  // Linux: a non-root chmod by someone outside the file's group clears
  // setgid (anti-privilege-smuggling rule).
  if (!cred.is_root() && !cred.in_group(node.gid)) {
    effective &= ~kModeSetgid;
  }
  node.mode = effective;
  node.ctime = clock_->now();
  return ok_result();
}

Result<void> FileSystem::chown(const Credentials& cred,
                               const std::string& path, Uid new_owner) {
  auto r = resolve(cred, path, /*follow=*/true);
  if (!r) return r.error();
  if (!cred.is_root()) return Errno::eperm;
  if (!users_->user_exists(new_owner)) return Errno::einval;
  Inode& node = get(*r);
  // Quota accounting follows ownership.
  if (node.kind == FileKind::regular && !node.data.empty()) {
    const auto size = static_cast<std::int64_t>(node.data.size());
    (void)charge_bytes(node.uid, -size, /*enforce=*/false);
    (void)charge_bytes(new_owner, size, /*enforce=*/false);
  }
  node.uid = new_owner;
  node.ctime = clock_->now();
  return ok_result();
}

Result<void> FileSystem::chgrp(const Credentials& cred,
                               const std::string& path, Gid new_group) {
  auto r = resolve(cred, path, /*follow=*/true);
  if (!r) return r.error();
  Inode& node = get(*r);
  if (!users_->group_exists(new_group)) return Errno::einval;
  if (!cred.is_root()) {
    if (cred.uid != node.uid) return Errno::eperm;
    // Standard Linux rule, which the paper leans on: you can only hand a
    // file to a group you belong to.
    if (!cred.in_group(new_group) &&
        !users_->is_member(cred.uid, new_group)) {
      return Errno::eperm;
    }
    // chgrp by non-root clears setuid/setgid.
    node.mode &= ~(kModeSetuid | kModeSetgid);
  }
  node.gid = new_group;
  node.ctime = clock_->now();
  return ok_result();
}

Result<void> FileSystem::check_acl_entry(const Credentials& cred,
                                         const AclEntry& entry) const {
  if (entry.perm > 7) return Errno::einval;
  if (policy_.restrict_acl && !cred.is_root()) {
    // LLSC ACL-restriction patch: ACLs must not become a bypass of the
    // approved-project-group sharing policy.
    switch (entry.tag) {
      case AclTag::named_user:
        // Granting to another individual user is sharing outside any
        // approved group — blocked. (Self-grants are pointless but legal.)
        if (entry.uid != cred.uid) return Errno::eperm;
        break;
      case AclTag::named_group:
        if (!cred.in_group(entry.gid) &&
            !users_->is_member(cred.uid, entry.gid)) {
          return Errno::eperm;
        }
        break;
      case AclTag::mask:
        break;
    }
  }
  if (entry.tag == AclTag::named_user && !users_->user_exists(entry.uid)) {
    return Errno::einval;
  }
  if (entry.tag == AclTag::named_group &&
      !users_->group_exists(entry.gid)) {
    return Errno::einval;
  }
  return ok_result();
}

void FileSystem::record_acl_verdict(const Credentials& cred,
                                    const std::string& path,
                                    Uid object_owner, const AclEntry& entry,
                                    const char* deny_knob) const {
  if (trace_ == nullptr || cred.is_root()) return;
  // The §IV-C channel is specifically a named-user grant to *another*
  // user (sharing outside any approved group). Self-grants, group and
  // mask entries are not separation events.
  if (entry.tag != AclTag::named_user || entry.uid == cred.uid) return;
  const bool allowed = deny_knob == nullptr;
  // Keep the attribution honest: the restrict-patch knob only applies
  // when the patch is actually on (the same refusal shape can be EINVAL),
  // and the root-owned-homes knob only when the object is a root-owned
  // home (any other non-owner setfacl is plain DAC).
  if (deny_knob == obs::knob::fs_restrict_acl && !policy_.restrict_acl) {
    deny_knob = nullptr;
  }
  if (deny_knob == obs::knob::root_owned_homes &&
      (object_owner != kRootUid ||
       channel_for_path(path) != obs::ChannelKind::fs_home_read)) {
    deny_knob = nullptr;
  }
  trace_->record(obs::DecisionPoint::fs_acl,
                 allowed ? obs::Outcome::allow : obs::Outcome::deny,
                 cred.uid, cred.egid, object_owner,
                 obs::ChannelKind::fs_acl_user_grant,
                 allowed ? nullptr : deny_knob, [&](std::string& out) {
                   out += path;
                   out += " +user:";
                   obs::append_uint(out, entry.uid.value());
                 });
}

Result<void> FileSystem::acl_set(const Credentials& cred,
                                 const std::string& path,
                                 const AclEntry& entry) {
  auto r = resolve(cred, path, /*follow=*/true);
  if (!r) return r.error();
  Inode& node = get(*r);
  if (!cred.is_root() && cred.uid != node.uid) {
    record_acl_verdict(cred, path, node.uid, entry,
                       obs::knob::root_owned_homes);
    return Errno::eperm;
  }
  if (auto check = check_acl_entry(cred, entry); !check) {
    record_acl_verdict(cred, path, node.uid, entry,
                       obs::knob::fs_restrict_acl);
    return check;
  }
  record_acl_verdict(cred, path, node.uid, entry, nullptr);

  if (!node.acl) node.acl.emplace();
  node.acl->upsert(entry);
  node.ctime = clock_->now();
  return ok_result();
}

Result<void> FileSystem::acl_set_default(const Credentials& cred,
                                         const std::string& dir,
                                         const AclEntry& entry) {
  auto r = resolve(cred, dir, /*follow=*/true);
  if (!r) return r.error();
  Inode& node = get(*r);
  if (!node.is_dir()) return Errno::enotdir;
  if (!cred.is_root() && cred.uid != node.uid) {
    record_acl_verdict(cred, dir, node.uid, entry,
                       obs::knob::root_owned_homes);
    return Errno::eperm;
  }
  if (auto check = check_acl_entry(cred, entry); !check) {
    record_acl_verdict(cred, dir, node.uid, entry,
                       obs::knob::fs_restrict_acl);
    return check;
  }
  record_acl_verdict(cred, dir, node.uid, entry, nullptr);

  if (!node.default_acl) node.default_acl.emplace();
  node.default_acl->upsert(entry);
  node.ctime = clock_->now();
  return ok_result();
}

Result<void> FileSystem::acl_remove_default(const Credentials& cred,
                                            const std::string& dir,
                                            AclTag tag, Uid uid, Gid gid) {
  auto r = resolve(cred, dir, /*follow=*/true);
  if (!r) return r.error();
  Inode& node = get(*r);
  if (!node.is_dir()) return Errno::enotdir;
  if (!cred.is_root() && cred.uid != node.uid) return Errno::eperm;
  if (!node.default_acl || !node.default_acl->remove(tag, uid, gid)) {
    return Errno::enoent;
  }
  node.ctime = clock_->now();
  return ok_result();
}

Result<Acl> FileSystem::acl_get_default(const Credentials& cred,
                                        const std::string& dir) {
  auto r = resolve(cred, dir, /*follow=*/true);
  if (!r) return r.error();
  const Inode& node = get(*r);
  if (!node.is_dir()) return Errno::enotdir;
  return node.default_acl.value_or(Acl{});
}

Result<void> FileSystem::acl_remove(const Credentials& cred,
                                    const std::string& path, AclTag tag,
                                    Uid uid, Gid gid) {
  auto r = resolve(cred, path, /*follow=*/true);
  if (!r) return r.error();
  Inode& node = get(*r);
  if (!cred.is_root() && cred.uid != node.uid) return Errno::eperm;
  if (!node.acl || !node.acl->remove(tag, uid, gid)) return Errno::enoent;
  node.ctime = clock_->now();
  return ok_result();
}

Result<Acl> FileSystem::acl_get(const Credentials& cred,
                                const std::string& path) {
  auto r = resolve(cred, path, /*follow=*/true);
  if (!r) return r.error();
  const Inode& node = get(*r);
  return node.acl.value_or(Acl{});
}

Result<DeviceRef> FileSystem::open_device(const Credentials& cred,
                                          const std::string& path,
                                          Access want) {
  auto r = resolve(cred, path, /*follow=*/true);
  if (!r) return r.error();
  const Inode& node = get(*r);
  if (node.kind != FileKind::chardev) return Errno::enodev;
  const bool allowed = permits(cred, node, want);
  if (trace_ != nullptr && !cred.is_root() &&
      common::starts_with(path, "/dev/nvidia")) {
    // GPU device files are mode/group-gated per allocation (§IV-F): a
    // refusal is the dev-binding knob doing its job.
    trace_->record(obs::DecisionPoint::gpu_dev_access,
                   allowed ? obs::Outcome::allow : obs::Outcome::deny,
                   cred.uid, cred.egid, node.uid, std::nullopt,
                   allowed ? nullptr : obs::knob::gpu_dev_binding,
                   [&](std::string& out) { out += path; });
  }
  if (!allowed) return Errno::eacces;
  return *node.device;
}

void FileSystem::for_each(
    const std::function<void(const std::string&, const Inode&)>& visit)
    const {
  // Iterative DFS to avoid recursion limits on deep trees.
  std::vector<std::pair<std::string, InodeId>> stack{{"/", root_}};
  while (!stack.empty()) {
    auto [path, id] = stack.back();
    stack.pop_back();
    const Inode& node = get(id);
    visit(path, node);
    if (node.is_dir()) {
      // Pushed in name order, so popped in reverse.
      const std::size_t first = stack.size();
      for (const auto& [name, child] : node.entries) {
        const std::string child_path =
            (path == "/") ? "/" + name : path + "/" + name;
        stack.emplace_back(child_path, child);
      }
      std::sort(stack.begin() + static_cast<std::ptrdiff_t>(first),
                stack.end());
    }
  }
}

void MountTable::mount(const std::string& prefix, FileSystem* fs) {
  if (prefix.empty() || prefix.front() != '/') {
    throw std::invalid_argument("mount prefix must be absolute: '" + prefix +
                                "'");
  }
  mounts_.emplace_back(prefix, fs);
  std::sort(mounts_.begin(), mounts_.end(),
            [](const auto& a, const auto& b) {
              return a.first.size() > b.first.size();
            });
}

FileSystem* MountTable::lookup(const std::string& path) const {
  for (const auto& [prefix, fs] : mounts_) {
    if (prefix == "/") return fs;
    if (path == prefix ||
        (path.size() > prefix.size() &&
         path.compare(0, prefix.size(), prefix) == 0 &&
         path[prefix.size()] == '/')) {
      return fs;
    }
  }
  return nullptr;
}

std::vector<std::pair<std::string, FileSystem*>> MountTable::mounts() const {
  return mounts_;
}

}  // namespace heus::vfs

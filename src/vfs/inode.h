// Inode model for the in-memory POSIX filesystem.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/flat_map.h"
#include "common/ids.h"
#include "vfs/acl.h"

namespace heus::vfs {

enum class FileKind { regular, directory, symlink, chardev };

/// Mode bit constants (octal, as everywhere in Unix).
inline constexpr unsigned kModeSetuid = 04000;
inline constexpr unsigned kModeSetgid = 02000;
inline constexpr unsigned kModeSticky = 01000;
inline constexpr unsigned kModePermMask = 07777;

/// Identifies a simulated device special file (e.g. GPU 3 on a node is
/// class "nvidia", index 3).
struct DeviceRef {
  std::string device_class;
  std::uint32_t index = 0;

  friend bool operator==(const DeviceRef&, const DeviceRef&) = default;
};

struct Inode {
  InodeId id{};
  FileKind kind = FileKind::regular;
  unsigned mode = 0644;  ///< low 12 bits: setuid/setgid/sticky + rwxrwxrwx
  Uid uid{};
  Gid gid{};
  common::SimTime mtime{};
  common::SimTime ctime{};

  std::string data;  ///< regular file payload
  /// Directory contents, in no useful order: listings sort by name.
  common::FlatMap<std::string, InodeId> entries;
  std::string symlink_target;       ///< symlink payload
  std::optional<DeviceRef> device;  ///< chardev payload
  std::optional<Acl> acl;           ///< extended (access) ACL
  std::optional<Acl> default_acl;   ///< directories: inherited ACL
  unsigned nlink = 1;               ///< hard-link count

  [[nodiscard]] bool is_dir() const { return kind == FileKind::directory; }
  [[nodiscard]] std::size_t size() const {
    return kind == FileKind::directory ? entries.size() : data.size();
  }
};

/// stat(2) result surface.
struct Stat {
  InodeId inode{};
  FileKind kind = FileKind::regular;
  unsigned mode = 0;
  Uid uid{};
  Gid gid{};
  std::size_t size = 0;
  common::SimTime mtime{};
  bool has_acl = false;
  unsigned nlink = 1;
};

}  // namespace heus::vfs

// Path handling for the simulated VFS. Paths are absolute, '/'-separated.
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace heus::vfs {

inline constexpr std::size_t kMaxNameLen = 255;
inline constexpr std::size_t kMaxSymlinkDepth = 8;

/// Normalise an absolute path into `parts` (cleared first), as views into
/// `path`: empty and "." components drop, and ".." drops the component
/// before it, lexically (the simulated VFS has no mount-crossing ".."
/// subtleties to preserve; above the root it drops nothing). Returns
/// EINVAL for a relative path, ENAMETOOLONG for an oversized component.
/// Reusing `parts` across calls makes the split allocation-free.
Result<void> split_path(std::string_view path,
                        std::vector<std::string_view>& parts);

}  // namespace heus::vfs

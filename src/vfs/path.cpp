#include "vfs/path.h"

namespace heus::vfs {

Result<void> split_path(std::string_view path,
                        std::vector<std::string_view>& parts) {
  parts.clear();
  if (path.empty() || path.front() != '/') return Errno::einval;
  std::size_t i = 1;
  while (i <= path.size()) {
    std::size_t j = path.find('/', i);
    if (j == std::string_view::npos) j = path.size();
    const std::string_view comp = path.substr(i, j - i);
    if (!comp.empty() && comp != ".") {
      if (comp.size() > kMaxNameLen) return Errno::enametoolong;
      if (comp == "..") {
        if (!parts.empty()) parts.pop_back();
      } else {
        parts.push_back(comp);
      }
    }
    i = j + 1;
  }
  return ok_result();
}

}  // namespace heus::vfs

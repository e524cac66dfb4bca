#include "container/runtime.h"

namespace heus::container {

Result<std::string> ContainerFsView::read_file(
    const simos::Credentials& cred, const std::string& path) const {
  if (const std::string* content = image_->find(path)) return *content;
  vfs::FileSystem* fs = host_->lookup(path);
  if (fs == nullptr) return Errno::enoent;
  return fs->read_file(cred, path);
}

Result<void> ContainerFsView::write_file(const simos::Credentials& cred,
                                         const std::string& path,
                                         std::string data) const {
  if (image_->contains(path)) return Errno::erofs;  // immutable image
  vfs::FileSystem* fs = host_->lookup(path);
  if (fs == nullptr) return Errno::enoent;
  return fs->write_file(cred, path, std::move(data));
}

Result<vfs::Stat> ContainerFsView::stat(const simos::Credentials& cred,
                                        const std::string& path) const {
  if (const std::string* content = image_->find(path)) {
    vfs::Stat st;
    st.kind = vfs::FileKind::regular;
    st.mode = 0555;  // image content: world-readable, immutable
    st.size = content->size();
    return st;
  }
  vfs::FileSystem* fs = host_->lookup(path);
  if (fs == nullptr) return Errno::enoent;
  return fs->stat(cred, path);
}

Result<void> ContainerFsView::chmod(const simos::Credentials& cred,
                                    const std::string& path,
                                    unsigned mode) const {
  if (image_->contains(path)) return Errno::erofs;
  vfs::FileSystem* fs = host_->lookup(path);
  if (fs == nullptr) return Errno::enoent;
  // Passthrough: host smask semantics apply unchanged inside containers.
  return fs->chmod(cred, path, mode);
}

void ImageRegistry::register_image(const std::string& path, Uid owner,
                                   bool clone_of_other) {
  Entry entry;
  entry.path = path;
  entry.owner = owner;
  entry.created = clock_->now();
  entry.last_used = clock_->now();
  entry.clone_of_other = clone_of_other;
  entries_[path] = std::move(entry);
}

void ImageRegistry::touch(const std::string& path) {
  auto it = entries_.find(path);
  if (it == entries_.end()) return;
  it->second.last_used = clock_->now();
  ++it->second.run_count;
}

bool ImageRegistry::remove(const std::string& path) {
  return entries_.erase(path) > 0;
}

const ImageRegistry::Entry* ImageRegistry::find(
    const std::string& path) const {
  auto it = entries_.find(path);
  return it == entries_.end() ? nullptr : &it->second;
}

std::vector<ImageRegistry::Entry> ImageRegistry::stale(
    std::int64_t max_idle_ns) const {
  std::vector<Entry> out;
  const auto now = clock_->now();
  for (const auto& [path, entry] : entries_) {
    if (now.ns - entry.last_used.ns > max_idle_ns) out.push_back(entry);
  }
  return out;
}

std::size_t ImageRegistry::clone_count() const {
  std::size_t count = 0;
  for (const auto& [path, entry] : entries_) {
    if (entry.clone_of_other) ++count;
  }
  return count;
}

Result<ContainerId> Runtime::exec(const simos::Credentials& cred,
                                  const Image* image,
                                  const std::string& command,
                                  simos::ProcessTable* procs,
                                  vfs::MountTable* host_mounts) {
  const bool allowed =
      opts_.enabled && (cred.is_root() || granted_.contains(cred.uid));
  // The entry gate's verdict through the table: requested -> running on
  // an authorized exec, requested -> denied otherwise (terminal; denied
  // requests never materialise an Instance).
  lifecycle::StateId entry_state =
      static_cast<lifecycle::StateId>(EntryState::requested);
  entry_lc_.fire(entry_state,
                 static_cast<lifecycle::EventId>(EntryEvent::exec),
                 [allowed](const lifecycle::Guard&) { return allowed; },
                 cred.uid, cred.egid, kRootUid);
  if (trace_ != nullptr && !cred.is_root()) {
    trace_->record(obs::DecisionPoint::container_entry,
                   allowed ? obs::Outcome::allow : obs::Outcome::deny,
                   cred.uid, cred.egid, kRootUid, std::nullopt, nullptr,
                   [&](std::string& out) {
                     if (image != nullptr) {
                       out += image->name();
                     } else {
                       out += "<no image>";
                     }
                   });
  }
  if (!allowed) return Errno::eperm;
  if (image == nullptr || procs == nullptr || host_mounts == nullptr) {
    return Errno::einval;
  }

  simos::SpawnOptions spawn;
  spawn.in_container = true;
  // The decisive line: credentials pass through unmodified. A container
  // never grants what the user did not already have.
  const Pid pid = procs->spawn(
      cred, "apptainer exec " + image->name() + " " + command, spawn);

  const ContainerId id{next_id_++};
  instances_.emplace(
      id, Instance{id, image, pid, cred, ContainerFsView{image, host_mounts},
                   static_cast<EntryState>(entry_state)});
  return id;
}

Result<void> Runtime::stop(ContainerId id, simos::ProcessTable* procs) {
  auto it = instances_.find(id);
  if (it == instances_.end()) return Errno::enoent;
  Instance& instance = it->second;
  lifecycle::StateId s = static_cast<lifecycle::StateId>(instance.state);
  entry_lc_.fire(s, static_cast<lifecycle::EventId>(EntryEvent::stop),
                 [](const lifecycle::Guard&) { return false; },
                 instance.cred.uid, instance.cred.egid, instance.cred.uid);
  instance.state = static_cast<EntryState>(s);
  (void)procs->exit(instance.pid);
  instances_.erase(it);
  return ok_result();
}

const Instance* Runtime::find(ContainerId id) const {
  auto it = instances_.find(id);
  return it == instances_.end() ? nullptr : &it->second;
}

}  // namespace heus::container

// E4 (paper §IV-C): smask + user-private groups prevent filesystem
// sharing outside approved project groups, at negligible metadata cost.
//
// Measures: (a) the sharing matrix: which (actor, mode, policy)
// combinations leak to an outsider; (b) the wall-clock cost of
// create/chmod with and without the smask/ACL patches — the patches are
// pure bit arithmetic, so the delta should be noise — and of a project
// member's read as the file's ACL grows.
#include <memory>

#include "bench/common/table.h"
#include "common/strings.h"
#include "vfs/filesystem.h"

namespace heus::bench {
namespace {

using simos::Credentials;
using vfs::FsPolicy;

struct FsWorld {
  common::SimClock clock;
  simos::UserDb db;
  std::unique_ptr<vfs::FileSystem> fs;
  Credentials alice, bob, root;
  Gid proj{};

  explicit FsWorld(FsPolicy policy) {
    const Uid a = *db.create_user("alice");
    const Uid b = *db.create_user("bob");
    proj = *db.create_project_group("widgets", a);
    (void)db.add_member(a, proj, b);
    alice = *simos::login(db, a);
    bob = *simos::login(db, b);
    root = simos::root_credentials();
    fs = std::make_unique<vfs::FileSystem>("bench", &db, &clock, policy);
    (void)fs->mkdir(root, "/home", 0755);
    (void)fs->mkdir(root, "/home/alice", 0700);
    (void)fs->chown(root, "/home/alice", a);
    (void)fs->chmod(root, "/home/alice", 0755);
  }
};

void sharing_matrix() {
  print_banner(
      "E4: filesystem sharing matrix (paper §IV-C)",
      "Claim: under smask+UPG, no chmod the owner can issue exposes a "
      "home file to an outsider; project groups remain the only sharing "
      "path. 'leak' = outsider read succeeded.");

  Table table({"policy", "owner action", "resulting mode",
               "outsider read", "project member read"});
  for (bool hardened : {false, true}) {
    FsWorld world(hardened ? FsPolicy::hardened() : FsPolicy::baseline());
    const Uid carol_uid = *world.db.create_user("carol");
    const Credentials carol = *simos::login(world.db, carol_uid);

    struct Action {
      const char* label;
      unsigned chmod_mode;
      bool to_project_group;
    };
    const Action actions[] = {
        {"chmod 777", 0777, false},
        {"chmod 666", 0666, false},
        {"chmod 644", 0644, false},
        {"chgrp proj + chmod 660", 0660, true},
    };
    for (const auto& act : actions) {
      const std::string file = "/home/alice/data.bin";
      (void)world.fs->write_file(world.alice, file, "secret");
      if (act.to_project_group) {
        (void)world.fs->chgrp(world.alice, file, world.proj);
      }
      (void)world.fs->chmod(world.alice, file, act.chmod_mode);
      const unsigned mode = world.fs->stat(world.root, file)->mode;
      const bool outsider = world.fs->read_file(carol, file).ok();
      const bool member = world.fs->read_file(world.bob, file).ok();
      table.add_row({hardened ? "hardened" : "baseline", act.label,
                     common::strformat("0%o", mode),
                     outsider ? "LEAK" : "denied",
                     member ? "ok" : "denied"});
      (void)world.fs->unlink(world.alice, file);
    }
  }
  table.print();
}

bool timing_report() {
  print_banner("E4 timing: metadata calls (wall clock)",
               "Per call, fastest of 5 windows. The owner creates, unlinks "
               "and chmods in the home directory; a project member reads a "
               "file whose ACL holds n other group entries.");
  constexpr std::size_t kCreates = 2000, kChmods = 16384, kReads = 12000;
  Table table({"call", "policy", "per call"});
  bool ok = true;
  for (const bool hardened : {false, true}) {
    FsWorld world(hardened ? FsPolicy::hardened() : FsPolicy::baseline());
    const char* policy = hardened ? "hardened" : "baseline";
    Result<void> created, removed;
    std::size_t done = 0;
    const double create_ns = fastest_ns(kWindows, [&] {
      done = 0;
      for (std::size_t i = 0; i < kCreates; ++i) {
        const std::string path = common::strformat("/home/alice/f%zu", i);
        created = world.fs->create(world.alice, path, 0644);
        removed = world.fs->unlink(world.alice, path);
        done += created.ok() && removed.ok() ? 1 : 0;
      }
    });
    ok &= check_count("E4 create+unlink", done, kCreates);
    table.add_row({"create+unlink", policy, fmt_ns(create_ns / kCreates)});

    (void)world.fs->create(world.alice, "/home/alice/f", 0644);
    Result<void> changed;
    unsigned mode = 0600;
    const double chmod_ns = fastest_ns(kWindows, [&] {
      done = 0;
      for (std::size_t i = 0; i < kChmods; ++i) {
        mode ^= 0066;
        changed = world.fs->chmod(world.alice, "/home/alice/f", mode);
        done += changed.ok() ? 1 : 0;
      }
    });
    ok &= check_count("E4 chmod", done, kChmods);
    table.add_row({"chmod", policy, fmt_ns(chmod_ns / kChmods)});
  }

  for (const std::size_t n : {0, 4, 16, 64}) {
    FsWorld world(FsPolicy::hardened());
    (void)world.fs->write_file(world.alice, "/home/alice/f", "x");
    (void)world.fs->chmod(world.alice, "/home/alice/f", 0600);
    // Root installs n group entries (stand-in for a busy project ACL).
    for (std::size_t i = 0; i < n; ++i) {
      const Gid g = *world.db.create_project_group(
          common::strformat("g%zu", i), world.alice.uid);
      (void)world.fs->acl_set(world.root, "/home/alice/f",
                              vfs::AclEntry{vfs::AclTag::named_group,
                                            Uid{}, g, vfs::kPermRead});
    }
    (void)world.fs->acl_set(world.alice, "/home/alice/f",
                            vfs::AclEntry{vfs::AclTag::named_group, Uid{},
                                          world.proj, vfs::kPermRead});
    Result<std::string> data = Errno::eacces;
    std::size_t reads = 0;
    const double ns = fastest_ns(kWindows, [&] {
      reads = 0;
      for (std::size_t i = 0; i < kReads; ++i) {
        data = world.fs->read_file(world.bob, "/home/alice/f");
        reads += data.ok() ? 1 : 0;
      }
    });
    ok &= check_count("E4 member reads", reads, kReads);
    table.add_row({common::strformat("member read, %zu ACL entries", n),
                   "hardened", fmt_ns(ns / kReads)});
  }
  table.print();
  return ok;
}

}  // namespace
}  // namespace heus::bench

int main() {
  heus::bench::sharing_matrix();
  return heus::bench::timing_report() ? 0 : 1;
}

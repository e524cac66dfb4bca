// E11 (paper §IV-G): HPC containers pass the host's separation through.
//
// Claims under test: a containerised process gets no privilege it lacked
// outside; host DAC/smask decisions are identical inside and outside; the
// passthrough design adds only a map lookup of overhead on file access.
#include <memory>

#include "bench/common/table.h"
#include "common/strings.h"
#include "container/runtime.h"

namespace heus::bench {
namespace {

using simos::Credentials;

struct ContainerWorld {
  common::SimClock clock;
  simos::UserDb db;
  std::unique_ptr<vfs::FileSystem> host_fs;
  vfs::MountTable mounts;
  simos::ProcessTable procs{&clock};
  container::Runtime runtime;
  std::unique_ptr<container::Image> image;
  Credentials alice, bob;

  ContainerWorld() {
    const Uid a = *db.create_user("alice");
    const Uid b = *db.create_user("bob");
    alice = *simos::login(db, a);
    bob = *simos::login(db, b);
    host_fs = std::make_unique<vfs::FileSystem>(
        "host", &db, &clock, vfs::FsPolicy::hardened());
    const Credentials root = simos::root_credentials();
    (void)host_fs->mkdir(root, "/home", 0755);
    (void)host_fs->mkdir(root, "/home/alice", 0700);
    (void)host_fs->chown(root, "/home/alice", a);
    mounts.mount("/", host_fs.get());
    std::map<std::string, std::string> files;
    for (int i = 0; i < 200; ++i) {
      files[common::strformat("/opt/conda/lib/pkg%d.py", i)] = "code";
    }
    image = std::make_unique<container::Image>("conda.sif",
                                               std::move(files));
    runtime.grant(a);
    runtime.grant(b);
  }
};

void passthrough_report() {
  print_banner(
      "E11: separation passthrough into containers (paper §IV-G)",
      "Identical probe results inside and outside a container prove the "
      "host mechanisms pass through: same credentials, same DAC verdicts, "
      "same smask arithmetic, immutable image.");

  ContainerWorld world;
  (void)world.host_fs->write_file(world.alice, "/home/alice/secret",
                                  "alice-only");

  auto inst_a = world.runtime.exec(world.alice, world.image.get(), "bash",
                                   &world.procs, &world.mounts);
  auto inst_b = world.runtime.exec(world.bob, world.image.get(), "bash",
                                   &world.procs, &world.mounts);
  const auto& fs_a = world.runtime.find(*inst_a)->fs;
  const auto& fs_b = world.runtime.find(*inst_b)->fs;

  Table table({"probe", "outside container", "inside container"});
  auto verdict = [](bool ok) { return ok ? "allowed" : "denied"; };

  table.add_row({"owner reads own file",
                 verdict(world.host_fs
                             ->read_file(world.alice, "/home/alice/secret")
                             .ok()),
                 verdict(fs_a.read_file(world.alice, "/home/alice/secret")
                             .ok())});
  table.add_row({"foreign user reads it",
                 verdict(world.host_fs
                             ->read_file(world.bob, "/home/alice/secret")
                             .ok()),
                 verdict(fs_b.read_file(world.bob, "/home/alice/secret")
                             .ok())});

  (void)world.host_fs->write_file(world.alice, "/home/alice/w", "x");
  (void)world.host_fs->chmod(world.alice, "/home/alice/w", 0777);
  const unsigned outside_mode =
      world.host_fs->stat(world.alice, "/home/alice/w")->mode;
  (void)fs_a.write_file(world.alice, "/home/alice/wc", "x");
  (void)fs_a.chmod(world.alice, "/home/alice/wc", 0777);
  const unsigned inside_mode =
      world.host_fs->stat(world.alice, "/home/alice/wc")->mode;
  table.add_row({"chmod 777 result (smask)",
                 common::strformat("0%o", outside_mode),
                 common::strformat("0%o", inside_mode)});

  table.add_row({"write to image path", "n/a",
                 fs_a.write_file(world.alice, "/opt/conda/lib/pkg7.py",
                                 "inject")
                         .error() == Errno::erofs
                     ? "EROFS (immutable)"
                     : "WRITABLE (bug)"});

  const simos::Process* pa =
      world.procs.find(world.runtime.find(*inst_a)->pid);
  table.add_row({"container process uid",
                 common::strformat("%u", world.alice.uid.value()),
                 common::strformat("%u (unchanged)", pa->cred.uid.value())});
  table.print();
}

bool timing_report() {
  print_banner("E11 timing: one host-file read (wall clock)",
               "The owner reads a 1-byte file in the home directory; per "
               "read, fastest of 5 windows.");
  constexpr std::size_t kReads = 12000;
  ContainerWorld world;
  (void)world.host_fs->write_file(world.alice, "/home/alice/data", "x");
  auto inst = world.runtime.exec(world.alice, world.image.get(), "bash",
                                 &world.procs, &world.mounts);
  const auto& view = world.runtime.find(*inst)->fs;
  Table table({"read path", "per call"});
  bool ok = true;
  auto time_reads = [&](const char* label, auto&& read) {
    Result<std::string> data = Errno::enoent;
    std::size_t reads = 0;
    const double ns = fastest_ns(kWindows, [&] {
      reads = 0;
      for (std::size_t i = 0; i < kReads; ++i) {
        data = read();
        reads += data.ok() && *data == "x" ? 1 : 0;
      }
    });
    ok &= check_count("E11 reads", reads, kReads);
    table.add_row({label, fmt_ns(ns / kReads)});
  };
  time_reads("direct host fs", [&] {
    return world.host_fs->read_file(world.alice, "/home/alice/data");
  });
  time_reads("through container view", [&] {
    return view.read_file(world.alice, "/home/alice/data");
  });
  table.print();
  return ok;
}

}  // namespace
}  // namespace heus::bench

int main() {
  heus::bench::passthrough_report();
  return heus::bench::timing_report() ? 0 : 1;
}

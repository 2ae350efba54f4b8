// The shared assembly over real sockets and real processes: ProxyMasters
// and both component sides (core/assembly.h) on one loopback
// SocketTransport, addressed through the plant's port table
// (core/plant.h), and the child-process launcher (core/launcher.h).
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/assembly.h"
#include "core/launcher.h"
#include "core/plant.h"
#include "crypto/keychain.h"
#include "net/socket_transport.h"

namespace ss::core {
namespace {

/// A base port for one deployment's table: derived from the pid so
/// parallel ctest invocations on one machine don't collide, and moved past
/// the previous table on every call.
std::uint16_t next_base_port() {
  static std::uint16_t port =
      static_cast<std::uint16_t>(30000 + (::getpid() % 20000));
  port += 64;
  return port;
}

class SocketAssembly : public ::testing::TestWithParam<Protocol> {};

TEST_P(SocketAssembly, VotedWriteAndItemUpdateInOneProcess) {
  const GroupConfig group = GroupConfig::for_protocol(GetParam(), 1);
  net::SocketTransport transport(
      plant::port_table(group.n, "127.0.0.1", next_base_port()));
  crypto::Keychain keys(plant::kGroupSecret);

  std::vector<std::unique_ptr<ProxyMaster>> stacks;
  for (ReplicaId id : group.replica_ids()) {
    stacks.push_back(std::make_unique<ProxyMaster>(
        transport, group, id, keys, scada::MasterOptions{}, AdapterOptions{},
        bft::ReplicaOptions{}));
    plant::add_points(stacks.back()->master);
  }
  HmiSide hmi(transport, keys, group);
  FrontendSide frontend(transport, keys, group);
  plant::add_points(frontend.frontend);
  hmi.hmi.subscribe_all();

  // Write value: HMI -> agreement -> Frontend (no field writer: it applies
  // the write and acks) -> agreement -> f+1-voted result.
  bool done = false;
  bool ok = false;
  hmi.hmi.write(plant::kSetpoint, scada::Variant{42.0},
                [&](const scada::WriteResult& result) {
                  done = true;
                  ok = result.status == scada::WriteStatus::kOk;
                });
  ASSERT_TRUE(transport.run_until([&] { return done; }, seconds(10)));
  EXPECT_TRUE(ok);

  // Item update: Frontend -> agreement -> every Master -> voted push.
  frontend.frontend.field_update(plant::kTemperature, scada::Variant{95.5});
  ASSERT_TRUE(transport.run_until(
      [&] {
        const scada::Item* item = hmi.hmi.item(plant::kTemperature);
        return item != nullptr && item->value == scada::Variant{95.5};
      },
      seconds(10)));
  EXPECT_GE(hmi.proxy->voter_stats().delivered, 2u);
  for (const auto& stack : stacks) {
    EXPECT_EQ(stack->master.state_digest(), stacks.front()->master.state_digest());
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, SocketAssembly,
                         ::testing::Values(Protocol::kPbft, Protocol::kMinBft),
                         [](const auto& info) {
                           return std::string(protocol_name(info.param));
                         });

/// Runs in a forked child, whose lowered process limit ends with it.
/// Returns 0 when a failed fork made spawn throw after it reaped both
/// children it had started, 77 when fork cannot be made to fail here, and
/// any other value on a failure.
int spawn_with_fork_failing() {
  // Root ignores RLIMIT_NPROC; nobody does not.
  if (::geteuid() == 0 && (::setgid(65534) != 0 || ::setuid(65534) != 0)) {
    return 77;
  }
  Launcher launcher("/bin/sleep");
  std::vector<pid_t> started;
  try {
    started = {launcher.spawn({"30"}), launcher.spawn({"30"})};
  } catch (const std::runtime_error&) {
    return 77;
  }
  const rlimit none{0, 0};
  if (::setrlimit(RLIMIT_NPROC, &none) != 0) return 77;
  if (const pid_t probe = ::fork(); probe >= 0) {
    if (probe == 0) ::_exit(0);
    ::waitpid(probe, nullptr, 0);
    return 77;  // the limit is not enforced for this user
  }
  try {
    launcher.spawn({"30"});
    return 2;
  } catch (const std::runtime_error&) {
  }
  for (pid_t pid : started) {
    // Reaped, not merely signalled: even a zombie would answer kill(pid, 0).
    if (::kill(pid, 0) == 0 || errno != ESRCH) return 3;
  }
  return 0;
}

TEST(Launcher, AFailedForkThrowsAndReapsTheChildrenItStarted) {
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) ::_exit(spawn_with_fork_failing());
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  if (WEXITSTATUS(status) == 77) {
    GTEST_SKIP() << "fork cannot be made to fail for this user";
  }
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(Launcher, AProgramThatCannotBeRunThrowsBeforeAnySpawn) {
  EXPECT_THROW(Launcher("/nonexistent/deploy"), std::runtime_error);
  EXPECT_THROW(Launcher("deploy-not-in-the-working-directory"),
               std::runtime_error);
}

TEST(Launcher, SignalsWaitsOnAndStopsItsChildren) {
  Launcher launcher("/bin/sleep");
  const pid_t a = launcher.spawn({"30"});
  const pid_t b = launcher.spawn({"30"});
  launcher.signal(a, SIGKILL);
  int status = launcher.wait(a);
  EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);
  EXPECT_EQ(::kill(b, 0), 0);  // b untouched
  launcher.stop_all();
  EXPECT_EQ(::kill(b, 0), -1);
  EXPECT_TRUE(launcher.reap().empty());
}

}  // namespace
}  // namespace ss::core

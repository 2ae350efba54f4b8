#include "core/launcher.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

namespace ss::core {

namespace {

[[noreturn]] void fail(const std::string& what, int error) {
  throw std::runtime_error(what + ": " + std::strerror(error));
}

}  // namespace

Launcher::Launcher(std::string program, std::string argv0)
    : program_(std::move(program)),
      argv0_(argv0.empty() ? program_ : std::move(argv0)) {
  if (::access(program_.c_str(), X_OK) != 0) {
    fail("cannot run " + program_, errno);
  }
}

pid_t Launcher::spawn(const std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.push_back(argv0_.data());
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    const int error = errno;
    stop_all();
    fail("fork", error);
  }
  if (pid == 0) {
    ::execv(program_.c_str(), argv.data());
    std::perror("execv");
    std::_Exit(127);
  }
  running_.push_back(pid);
  return pid;
}

std::vector<Launcher::Exit> Launcher::reap() {
  std::vector<Exit> exits;
  std::erase_if(running_, [&exits](pid_t pid) {
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) != pid) return false;
    exits.push_back(Exit{pid, status});
    return true;
  });
  return exits;
}

int Launcher::wait(pid_t pid) {
  int status = 0;
  if (std::erase(running_, pid) > 0) {
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
  }
  return status;
}

void Launcher::signal(pid_t pid, int sig) {
  if (std::find(running_.begin(), running_.end(), pid) != running_.end()) {
    ::kill(pid, sig);
  }
}

void Launcher::stop_all() {
  for (pid_t pid : running_) ::kill(pid, SIGTERM);
  while (!running_.empty()) wait(running_.front());
}

}  // namespace ss::core

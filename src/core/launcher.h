// Child processes of one program: `deploy local` runs every role as a child
// of its own binary, the socket bench harness runs `deploy replica`
// children. The launcher only signals or waits on a pid it started.
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

namespace ss::core {

class Launcher {
 public:
  /// Children exec `program` with `argv0` (default: `program`) as their
  /// argv[0]. Throws std::runtime_error when `program` is not executable.
  explicit Launcher(std::string program, std::string argv0 = {});
  ~Launcher() { stop_all(); }

  Launcher(const Launcher&) = delete;
  Launcher& operator=(const Launcher&) = delete;

  /// Starts `program args...` and returns its pid. When fork fails, stops
  /// the children started so far and throws std::runtime_error.
  pid_t spawn(const std::vector<std::string>& args);

  struct Exit {
    pid_t pid;
    int status;  ///< as waitpid reports it
  };
  /// Reaps the children that have exited, without blocking.
  std::vector<Exit> reap();
  /// Blocks until child `pid` exits and returns its wait status.
  int wait(pid_t pid);
  /// Sends `sig` to child `pid` if it is still running.
  void signal(pid_t pid, int sig);
  /// SIGTERMs every running child, then waits for each.
  void stop_all();

 private:
  std::string program_;
  std::string argv0_;
  std::vector<pid_t> running_;
};

}  // namespace ss::core

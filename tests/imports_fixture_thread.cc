// A static binary that starts a thread: tools/check_deploy_imports.sh must
// exit 1 on it (ctest deploy_imports_thread), so the check still bites when
// deploy links static-pie and imports nothing.
#include <thread>

int main() {
  int ran = 0;
  std::thread worker([&ran] { ran = 1; });
  worker.join();
  return ran == 1 ? 0 : 1;
}

// A static binary that constructs a C++ stream: tools/check_deploy_imports.sh
// must exit 1 on it (ctest deploy_imports_stream), so the check still bites
// when deploy links static-pie and imports nothing.
#include <sstream>

int main(int argc, char**) {
  std::ostringstream out;
  out << argc;
  return out.str().empty() ? 1 : 0;
}

#include "lifecycle/machine.h"

namespace heus::lifecycle {

void describe(const MachineDef& def, const Transition& t, std::string& out) {
  out += def.name;
  out += ": ";
  out += def.state_name(t.from);
  out += " --";
  out += def.event_name(t.event);
  if (t.guard != kNoGuard) {
    const Guard& g = def.guards[t.guard];
    out += "[";
    if (!t.when) out += "!";
    out += g.name;
    out += "]";
  }
  out += "--> ";
  out += def.state_name(t.to);
  if (t.action != kNoAction) {
    out += " / ";
    out += def.action_name(t.action);
  }
}

std::string describe(const MachineDef& def, const Transition& t) {
  std::string out;
  describe(def, t, out);
  return out;
}

}  // namespace heus::lifecycle

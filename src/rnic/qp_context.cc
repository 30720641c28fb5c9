#include "rnic/qp_context.hh"

namespace ibsim {
namespace rnic {

const char*
qpStateName(QpState state)
{
    switch (state) {
      case QpState::Reset: return "RESET";
      case QpState::Init: return "INIT";
      case QpState::Rtr: return "RTR";
      case QpState::Rts: return "RTS";
      case QpState::Error: return "ERROR";
    }
    return "?";
}

} // namespace rnic
} // namespace ibsim

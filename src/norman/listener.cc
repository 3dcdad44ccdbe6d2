#include "src/norman/listener.h"

namespace norman {

StatusOr<Listener> Listener::Create(kernel::Kernel* kernel, kernel::Pid pid,
                                    uint16_t local_port, net::IpProto proto,
                                    const kernel::ConnectOptions& accept_opts) {
  NORMAN_RETURN_IF_ERROR(kernel->Listen(pid, local_port, proto, accept_opts));
  return Listener(kernel, pid, local_port, proto);
}

StatusOr<Socket> Listener::Accept() {
  if (!valid()) {
    return FailedPreconditionError("listener not bound");
  }
  NORMAN_ASSIGN_OR_RETURN(kernel::AppPort port,
                          kernel_->Accept(pid_, port_, proto_));
  return Socket(kernel_, std::move(port));
}

void Listener::Stop() {
  if (!valid()) {
    return;
  }
  (void)kernel_->StopListening(pid_, port_, proto_);
  kernel_ = nullptr;
}

}  // namespace norman

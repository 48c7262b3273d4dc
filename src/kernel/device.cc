#include "src/kernel/device.h"

#include "src/kernel/kernel.h"
#include "src/sim/trace.h"

namespace escort {

Device* DeviceRegistry::Register(const std::string& name, PdId driver_domain) {
  auto dev = std::make_unique<Device>(name, driver_domain);
  Device* raw = dev.get();
  devices_[name] = std::move(dev);
  // The driver's domain gets the device syscalls (configuration-time
  // grant; everyone else stays locked out).
  for (Syscall sc : {Syscall::kDevOpen, Syscall::kDevClose, Syscall::kDevRead,
                     Syscall::kDevWrite, Syscall::kDevControl, Syscall::kDevInterruptRegister}) {
    kernel_->acl().Grant(driver_domain, sc);
  }
  return raw;
}

bool DeviceRegistry::Check(Device* dev, PdId domain, Syscall sc) {
  if (dev == nullptr) {
    return false;
  }
  if (!kernel_->CheckSyscall(domain, sc)) {
    ++denied_;
    return false;
  }
  // Even with the syscall granted, a domain may only touch its own device.
  if (domain != kKernelDomain && domain != dev->owner_domain()) {
    ++denied_;
    return false;
  }
  return true;
}

Device* DeviceRegistry::Open(const std::string& name, PdId domain) {
  auto it = devices_.find(name);
  if (it == devices_.end()) {
    return nullptr;
  }
  Device* dev = it->second.get();
  if (!Check(dev, domain, Syscall::kDevOpen)) {
    return nullptr;
  }
  dev->opened_ = true;
  return dev;
}

void DeviceRegistry::Close(Device* dev, PdId domain) {
  if (Check(dev, domain, Syscall::kDevClose)) {
    dev->opened_ = false;
  }
}

uint64_t DeviceRegistry::Read(Device* dev, PdId domain, uint64_t arg, void* buf, uint64_t len) {
  if (!Check(dev, domain, Syscall::kDevRead) || !dev->opened_ || !dev->read_) {
    return 0;
  }
  dev->reads_ += 1;
  return dev->read_(arg, buf, len);
}

uint64_t DeviceRegistry::Write(Device* dev, PdId domain, uint64_t arg, const void* data,
                               uint64_t len) {
  if (!Check(dev, domain, Syscall::kDevWrite) || !dev->opened_ || !dev->write_) {
    return 0;
  }
  dev->writes_ += 1;
  return dev->write_(arg, data, len);
}

uint64_t DeviceRegistry::Control(Device* dev, PdId domain, uint64_t arg) {
  if (!Check(dev, domain, Syscall::kDevControl) || !dev->opened_ || !dev->control_) {
    return 0;
  }
  return dev->control_(arg, nullptr, 0);
}

bool Console::Write(PdId domain, const std::string& line) {
  if (!kernel_->CheckSyscall(domain, Syscall::kConsoleWrite)) {
    return false;
  }
  kernel_->ConsumeCharged(line.size() * kernel_->costs().per_byte_touch + 200);
  if (lines_.size() >= kMaxLines) {
    lines_.erase(lines_.begin());
  }
  lines_.push_back(line);
  if (echo_) {
    Tracer::Diag("[console] " + line + "\n");
  }
  return true;
}

}  // namespace escort

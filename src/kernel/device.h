// Device registry and the console (paper §3: the 52 syscalls provide
// access to "paths, IObuffers, threads, events, semaphores, memory pages,
// devices, and the console").
//
// Devices are named kernel objects a driver module opens to gain access to
// its hardware; opening is ACL-guarded (only domains granted kDevOpen may
// touch devices — the configuration grants a driver's domain access to its
// own device, matching "the device drivers also have access to the memory
// regions used to access their devices"). The console is the diagnostic
// output channel; writes are charged to the writing owner.

#ifndef SRC_KERNEL_DEVICE_H_
#define SRC_KERNEL_DEVICE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include <memory>

#include "src/kernel/owner.h"
#include "src/kernel/syscall.h"

namespace escort {

class Kernel;

// A registered device: name, interrupt hook, I/O callbacks supplied by the
// simulation layer (the wire, the disk).
class Device {
 public:
  using IoHandler = std::function<uint64_t(uint64_t arg, const void* data, uint64_t len)>;

  Device(std::string name, PdId owner_domain) : name_(std::move(name)), domain_(owner_domain) {}

  const std::string& name() const { return name_; }
  PdId owner_domain() const { return domain_; }
  bool opened() const { return opened_; }

  void set_read_handler(IoHandler h) { read_ = std::move(h); }
  void set_write_handler(IoHandler h) { write_ = std::move(h); }
  void set_control_handler(IoHandler h) { control_ = std::move(h); }

  uint64_t reads() const { return reads_; }
  uint64_t writes() const { return writes_; }

 private:
  friend class DeviceRegistry;

  const std::string name_;
  const PdId domain_;
  bool opened_ = false;
  IoHandler read_;
  IoHandler write_;
  IoHandler control_;
  uint64_t reads_ = 0;
  uint64_t writes_ = 0;
};

class DeviceRegistry {
 public:
  explicit DeviceRegistry(Kernel* kernel) : kernel_(kernel) {}

  // Registers a device bound to a driver domain (configuration time). The
  // driver's domain is granted the device syscalls.
  Device* Register(const std::string& name, PdId driver_domain);

  // devOpen from `domain`: ACL-checked; only the bound driver domain (or
  // the privileged domain) may open the device.
  Device* Open(const std::string& name, PdId domain);
  void Close(Device* dev, PdId domain);

  // devRead/devWrite/devControl: ACL-checked, charged to the caller.
  uint64_t Read(Device* dev, PdId domain, uint64_t arg, void* buf, uint64_t len);
  uint64_t Write(Device* dev, PdId domain, uint64_t arg, const void* data, uint64_t len);
  uint64_t Control(Device* dev, PdId domain, uint64_t arg);

  uint64_t denied() const { return denied_; }

 private:
  bool Check(Device* dev, PdId domain, Syscall sc);

  Kernel* const kernel_;
  std::map<std::string, std::unique_ptr<Device>> devices_;
  uint64_t denied_ = 0;
};

// The console: line-oriented diagnostic output, charged to the writing
// owner, with an in-memory ring for tests and a quiet mode for benches.
class Console {
 public:
  explicit Console(Kernel* kernel) : kernel_(kernel) {}

  // consoleWrite: appends a line; cycles charged to the current owner.
  // ACL-checked against the calling domain.
  bool Write(PdId domain, const std::string& line);

  void set_echo_to_stdout(bool on) { echo_ = on; }
  const std::vector<std::string>& lines() const { return lines_; }

  static constexpr size_t kMaxLines = 256;

 private:
  Kernel* const kernel_;
  std::vector<std::string> lines_;
  bool echo_ = false;
};

}  // namespace escort

#endif  // SRC_KERNEL_DEVICE_H_

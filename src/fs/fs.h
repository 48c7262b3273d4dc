// FS: a simple extent-based file system module.
//
// Name -> extent mapping with a block cache built on IOBuffers: a cached
// document buffer is *associated* with every path that serves it (paper
// §3.3's web-cache use case) — the path is fully charged for the buffer, no
// copy is made, and one copy of each document is stored.

#ifndef SRC_FS_FS_H_
#define SRC_FS_FS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/fs/scsi.h"
#include "src/path/path.h"

namespace escort {

struct Inode {
  std::string name;
  uint64_t lba = 0;
  uint64_t size = 0;
};

class FsModule : public Module {
 public:
  FsModule() : Module("FS", {ServiceInterface::kFileAccess, ServiceInterface::kAsyncIo}) {}

  void SetNeighbors(ScsiDiskModule* scsi) { scsi_ = scsi; }

  // mkfs-time: stores `bytes` as `/name` on the disk.
  void AddFile(const std::string& name, const std::vector<uint8_t>& bytes);
  // Convenience: a document of `size` filled with a pattern.
  void AddDocument(const std::string& name, uint64_t size);

  const Inode* Lookup(const std::string& name) const;

  OpenResult Open(Path* path, const Attributes& attrs) override;
  void Process(Stage& stage, Message msg, Direction dir) override;
  Cycles ProcessCost(Direction dir) const override;

  uint64_t cache_hits() const { return cache_hits_; }
  uint64_t cache_misses() const { return cache_misses_; }
  uint64_t lookup_failures() const { return lookup_failures_; }

 private:
  void ReplyFromCache(Stage& stage, const Inode& inode, IoBuffer* buf);

  ScsiDiskModule* scsi_ = nullptr;
  std::map<std::string, Inode> inodes_;
  std::map<std::string, IoBuffer*> cache_;  // document buffers, held by FS's domain
  uint64_t cache_hits_ = 0;
  uint64_t cache_misses_ = 0;
  uint64_t lookup_failures_ = 0;
};

}  // namespace escort

#endif  // SRC_FS_FS_H_
